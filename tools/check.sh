#!/usr/bin/env bash
# Tier-1 gate plus a sanitizer pass and a static-analysis pass:
#   1. regular build + full ctest (the suite every PR must keep green)
#   2. sanitizer build + ctest (catches lifetime/race bugs the regular
#      build hides)
#   3. --static-only: project lint, Clang -Werror=thread-safety over the
#      whole tree, the negative thread-safety compile test, and clang-tidy
#      on the concurrent core (docs/STATIC_ANALYSIS.md)
#
# Usage: tools/check.sh [--skip-asan] [--skip-sanitizer] [--sanitizer-only]
#                       [--static-only] [--coverage]
#   --skip-sanitizer  run only the regular pass
#   --skip-asan       skip the sanitizer pass only when it would be ASan; a
#                     pass explicitly requested via LOGLENS_SANITIZE=thread
#                     still runs
#   --sanitizer-only  run only the sanitizer pass (the CI matrix legs)
#   --static-only     run only the static gates (no tests). Lint always
#                     runs; the Clang steps are skipped with a notice when
#                     no clang++ is on PATH (they are enforced in CI).
#   --coverage        run only the coverage pass: instrumented build
#                     (-DLOGLENS_COVERAGE=ON) + ctest, then
#                     tools/coverage_report.py renders coverage-html/ and
#                     enforces the src/automata/ line-coverage floor. Use
#                     clang via LOGLENS_CMAKE_ARGS for the llvm-cov
#                     annotated-source report (the CI coverage job does);
#                     GCC builds fall back to gcov aggregation.
#
# Environment:
#   LOGLENS_SANITIZE       sanitizer for the second pass (default: address;
#                          thread and undefined are the other CI legs)
#   LOGLENS_CTEST_TIMEOUT  default per-test timeout in seconds, propagated to
#                          ctest (the sanitizer pass gets 3x — instrumented
#                          binaries are that much slower). Tests with their
#                          own TIMEOUT property keep it.
#   LOGLENS_CMAKE_ARGS     extra arguments for every cmake configure, e.g.
#                          "-DCMAKE_CXX_COMPILER_LAUNCHER=ccache
#                           -DLOGLENS_WERROR=ON"
#   LOGLENS_CLANGXX        clang++ binary for the static pass (default:
#                          clang++ from PATH)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
sanitizer="${LOGLENS_SANITIZE:-address}"

run_regular=1
run_sanitizer=1
run_static=0
run_coverage=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizer) run_sanitizer=0 ;;
    --skip-asan)
      if [[ "$sanitizer" == "address" ]]; then run_sanitizer=0; fi ;;
    --sanitizer-only) run_regular=0 ;;
    --static-only) run_static=1; run_regular=0; run_sanitizer=0 ;;
    --coverage) run_coverage=1; run_regular=0; run_sanitizer=0 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cmake_args=()
if [[ -n "${LOGLENS_CMAKE_ARGS:-}" ]]; then
  # Intentional word splitting: the variable carries several -D flags.
  # shellcheck disable=SC2206
  cmake_args=(${LOGLENS_CMAKE_ARGS})
fi

ctest_args=(--output-on-failure -j "$jobs")
san_ctest_args=("${ctest_args[@]}")
if [[ -n "${LOGLENS_CTEST_TIMEOUT:-}" ]]; then
  ctest_args+=(--timeout "$LOGLENS_CTEST_TIMEOUT")
  san_ctest_args+=(--timeout "$((LOGLENS_CTEST_TIMEOUT * 3))")
fi

if [[ "$run_static" == 1 ]]; then
  echo "== static: project lint =="
  python3 "$repo/tools/lint.py" --self-test
  python3 "$repo/tools/lint.py"

  clangxx="${LOGLENS_CLANGXX:-clang++}"
  if command -v "$clangxx" >/dev/null 2>&1; then
    echo "== static: clang -Werror=thread-safety build =="
    cmake -B "$repo/build-tsa" -S "$repo" \
          -DCMAKE_CXX_COMPILER="$clangxx" -DLOGLENS_THREAD_SAFETY=ON \
          "${cmake_args[@]}" >/dev/null
    cmake --build "$repo/build-tsa" -j "$jobs"

    echo "== static: negative thread-safety compile test =="
    # The deliberately mis-annotated TU must be REJECTED by the gate...
    if "$clangxx" -std=c++20 -fsyntax-only -I "$repo/src" \
         -Wthread-safety -Werror=thread-safety \
         "$repo/tests/static/thread_safety_negative.cpp" 2>/dev/null; then
      echo "FAIL: thread_safety_negative.cpp compiled under the gate" >&2
      exit 1
    fi
    # ...while being well-formed without it (a syntax error would fake the
    # rejection above).
    "$clangxx" -std=c++20 -fsyntax-only -I "$repo/src" \
      "$repo/tests/static/thread_safety_negative.cpp"
    echo "negative test OK: gate rejects the mis-annotated TU"

    if command -v clang-tidy >/dev/null 2>&1; then
      echo "== static: clang-tidy (concurrent core) =="
      cmake -B "$repo/build-tsa" -S "$repo" \
            -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
      mapfile -t tidy_files < <(
        ls "$repo"/src/{broker,streaming,metrics,faults,service,storage,trace}/*.cpp)
      clang-tidy -p "$repo/build-tsa" --quiet "${tidy_files[@]}"
    else
      echo "== static: clang-tidy not found; skipped (enforced in CI) =="
    fi
  else
    echo "== static: $clangxx not found; Clang gates skipped (enforced in CI) =="
  fi
fi

if [[ "$run_regular" == 1 ]]; then
  echo "== tier-1: regular build + ctest =="
  cmake -B "$repo/build" -S "$repo" "${cmake_args[@]}" >/dev/null
  cmake --build "$repo/build" -j "$jobs"
  ctest --test-dir "$repo/build" "${ctest_args[@]}"
fi

if [[ "$run_coverage" == 1 ]]; then
  echo "== coverage: instrumented build + ctest + report =="
  covdir="$repo/build-coverage"
  cmake -B "$covdir" -S "$repo" -DLOGLENS_COVERAGE=ON \
        "${cmake_args[@]}" >/dev/null
  cmake --build "$covdir" -j "$jobs"
  # Unique per-process profile files so concurrently running (clang-
  # instrumented) tests never clobber one default.profraw; harmless for GCC.
  LLVM_PROFILE_FILE="$covdir/profraw/%p.profraw" \
    ctest --test-dir "$covdir" "${ctest_args[@]}"
  python3 "$repo/tools/coverage_report.py" --build-dir "$covdir" \
    --html-dir "$repo/coverage-html"
  # Second gate over the storage table (segment codec, seal, truncate
  # rewrite, pruning): the differential + segment property suites must
  # keep src/storage/ at or above its committed floor.
  python3 "$repo/tools/coverage_report.py" --build-dir "$covdir" \
    --filter src/storage/ --threshold 90
fi

if [[ "$run_sanitizer" == 1 ]]; then
  echo "== sanitizer pass: ${sanitizer} build + ctest =="
  cmake -B "$repo/build-${sanitizer}" -S "$repo" \
        -DLOGLENS_SANITIZE="${sanitizer}" "${cmake_args[@]}" >/dev/null
  cmake --build "$repo/build-${sanitizer}" -j "$jobs"
  ctest --test-dir "$repo/build-${sanitizer}" "${san_ctest_args[@]}"
else
  echo "== sanitizer pass skipped =="
fi

echo "== all checks passed =="
