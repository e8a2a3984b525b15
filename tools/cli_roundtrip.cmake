# Scripted CLI round trip: train a model from files, inspect it, edit it,
# parse a production stream, and run full detection.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
file(WRITE ${WORKDIR}/train.log
"2016/02/23 09:00:31 10.0.0.1 login user1
2016/02/23 09:00:32 10.0.0.2 login user2
2016/02/23 09:00:33 10.0.0.3 login user3
2016/02/23 09:01:02 Connect DB 127.0.0.1 user abc123
2016/02/23 09:01:09 Connect DB 10.1.1.5 user svc_batch
2016/02/23 09:01:44 Connect DB 10.1.1.9 user reporter
")
file(WRITE ${WORKDIR}/prod.log
"2016/02/23 10:00:01 10.0.0.9 login bob
2016/02/23 10:00:07 Connect DB 10.1.1.2 user etl
kernel panic: something exploded
")

macro(run_cli expect_rc)
  execute_process(COMMAND ${LOGLENS} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "loglens ${ARGN} -> rc=${rc} (want ${expect_rc})\n${out}\n${err}")
  endif()
endmacro()

run_cli(0 --max-dist 0.45 train ${WORKDIR}/train.log ${WORKDIR}/model.json)
run_cli(0 show ${WORKDIR}/model.json)
run_cli(0 edit ${WORKDIR}/model.json rename 1 P1F2 clientIp)
run_cli(1 edit ${WORKDIR}/model.json rename 99 nope nope)
# prod.log has one garbage line -> parse exits 3 (anomalies present).
run_cli(3 parse ${WORKDIR}/model.json ${WORKDIR}/prod.log)
run_cli(3 detect ${WORKDIR}/model.json ${WORKDIR}/prod.log)
# Renamed field must appear in parse output.
execute_process(COMMAND ${LOGLENS} parse ${WORKDIR}/model.json ${WORKDIR}/prod.log
                OUTPUT_VARIABLE out ERROR_QUIET RESULT_VARIABLE rc)
string(FIND "${out}" "clientIp" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "renamed field missing from parse output:\n${out}")
endif()
# Dashboard prints a Prometheus metrics page with live pipeline counters.
execute_process(COMMAND ${LOGLENS} dashboard ${WORKDIR}/model.json ${WORKDIR}/prod.log
                OUTPUT_VARIABLE out ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "loglens dashboard -> rc=${rc}\n${out}")
endif()
foreach(metric loglens_engine_batches_total loglens_parser_logs_total
               loglens_detector_logs_total loglens_broker_messages_produced_total)
  string(REGEX MATCH "${metric}[^\n]* [1-9][0-9]*" hit "${out}")
  if("${hit}" STREQUAL "")
    message(FATAL_ERROR "metric ${metric} missing or zero in dashboard output:\n${out}")
  endif()
endforeach()
# And the machine-readable snapshot parses as non-empty JSON.
execute_process(COMMAND ${LOGLENS} --json dashboard ${WORKDIR}/model.json ${WORKDIR}/prod.log
                OUTPUT_VARIABLE out ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "loglens --json dashboard -> rc=${rc}")
endif()
string(FIND "${out}" "\"histograms\"" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "JSON metrics snapshot missing histograms:\n${out}")
endif()
# Tokenizer flags: the trained model carries the split rule and delimiters.
run_cli(0 --max-dist 0.45 --delimiters " ,"
        --split-rule "([0-9]+)(KB)=$1 $2"
        train ${WORKDIR}/train.log ${WORKDIR}/model_tok.json)
file(READ ${WORKDIR}/model_tok.json model_tok)
foreach(want "\"delimiters\":\" ,\""
             "\"match\":\"([0-9]+)(KB)\",\"rewrite\":\"$1 $2\"")
  string(FIND "${model_tok}" "${want}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "model tokenizer lacks ${want}:\n${model_tok}")
  endif()
endforeach()
run_cli(0 show ${WORKDIR}/model_tok.json)
string(FIND "${out}" "split rule: ([0-9]+)(KB) => $1 $2" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "show does not list the split rule:\n${out}")
endif()
# A rule or timestamp format that does not compile is a usage error.
run_cli(2 --split-rule "([0-9]+=x" train ${WORKDIR}/train.log ${WORKDIR}/bad.json)
string(FIND "${err}" "bad split rule" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "no split-rule error on stderr:\n${err}")
endif()
run_cli(2 --timestamp-format "yyy" discover ${WORKDIR}/train.log)
run_cli(2 --split-rule "no-separator" train ${WORKDIR}/train.log ${WORKDIR}/bad.json)
message(STATUS "cli round trip ok")
