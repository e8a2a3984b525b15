#!/usr/bin/env python3
"""Project linter: fast, dependency-free checks that run before any build.

Checks (see docs/STATIC_ANALYSIS.md):
  1. Concurrent-core locking discipline. Files under the concurrent core
     (src/broker, src/streaming, src/metrics, src/faults, src/service,
     src/storage) must not declare naked std::mutex members or lock with
     std::lock_guard / std::unique_lock / std::scoped_lock — they use
     RankedMutex / RankedMutexLock (common/lock_rank.h) so that both the
     Clang thread-safety analysis and the runtime lock-rank checker can see
     every acquisition. std::condition_variable (non-_any) is banned for the
     same reason: it only accepts std::unique_lock<std::mutex>.
  2. Header hygiene: every header starts its directives with #pragma once;
     no parent-relative ("../") includes anywhere.
  3. Annotation hygiene: a file using LOGLENS_GUARDED_BY/REQUIRES/... must
     include common/thread_annotations.h directly, so the attributes never
     depend on transitive includes.
  4. Clock discipline: src/ code must not call std::chrono::steady_clock
     directly — it reads loglens::trace_clock (common/clock.h), the mockable
     time source every span timestamp and timer goes through. Only the shim
     itself touches the real clock.
  5. Regex discipline: no file may include <regex> or name std::regex.
     All regular-expression work goes through regexlite (src/regexlite/) —
     the budgeted backtracking engine whose step cap and sticky
     budget_exhausted flag keep pathological patterns from stalling the hot
     path. GROK patterns match through their own token matcher
     (src/grok/pattern.h). std::regex has no step budget and an order of
     magnitude more overhead.
  6. Lock annotation coverage: every RankedMutex member declared in a
     concurrent-core header must be named by at least one LOGLENS_
     thread-safety annotation (GUARDED_BY/REQUIRES/EXCLUDES/ACQUIRE/...)
     in the same header. An unannotated mutex is invisible to the Clang
     thread-safety analysis — nothing stops an unlocked access to the data
     it guards — and says nothing about where it sits in the lock order.
  7. Sleep discipline: std::this_thread::sleep_for/sleep_until/yield are
     banned in src/ outside the sched shim (common/sched.{h,cpp}). Core
     code sleeps via sched::sleep_for_* so every backoff/delay site is a
     schedule point the deterministic explorer can virtualize (and tests
     never burn wall-clock time on them).
  8. Message representation: under src/, only broker/message.h and
     service/wire.{h,cpp} may name the typed payload types
     (MessagePayload, ParsedPayload, AnomalyPayload) or touch a message's
     `.payload`/`->payload` member. Everything else goes through the wire.h
     accessors, so the one-body rule (a message carries `value` text or a
     typed payload, never both) is enforced in one module.
  9. One tokenizer per model: under src/ and tools/, only tokenize/,
     service/model.{h,cpp} and service/model_ops.cpp may call
     Preprocessor::create. Everything else that parses with a model takes
     its preprocessor from CompositeModel::make_preprocessor(), so a model
     is always parsed with the tokenizer it was trained with.
 10. One loaded model: under src/ and tools/, CompositeModel::from_json
     appears only where a model enters the process — service/model.cpp,
     ModelManager::deploy_json (service/model_ops.cpp), which both deploy's
     round-trip check and checkpoint restore go through, and the CLI's model
     files (tools/loglens_cli.cpp) — and KeywordDetector::from_json only in
     service/model.cpp (and its own definition). Everything else shares the
     deployed CompositeModel instead of parsing it again.
 11. Tokens are spans: a Token is a (begin, size) span of its own log's
     text buffer, so under src/ only the tokenizer (src/tokenize/) and the
     type's own header (grok/token.h, whose TokenizedLog::push_token copies
     the text it spans) may construct one (Token{...}, Token(...), or a
     brace-initialized Token variable). Everything else reads token text
     through TokenizedLog::text_of / token_text. Tests may build tokens.

Usage:
  tools/lint.py              lint the repo (exit 1 on any violation)
  tools/lint.py FILE...      lint specific files
  tools/lint.py --self-test  verify the linter flags seeded violations
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Directories whose code must use RankedMutex/RankedMutexLock. common/ is
# exempt (lock_rank.h itself wraps std::mutex); parsing/models are
# single-threaded by contract.
CONCURRENT_CORE = (
    "src/broker",
    "src/streaming",
    "src/metrics",
    "src/faults",
    "src/service",
    "src/storage",
    "src/trace",
)

EXEMPT = ("src/common/lock_rank.h",)

BANNED_IN_CORE = (
    (
        re.compile(r"\bstd::mutex\b"),
        "std::mutex: use RankedMutex (common/lock_rank.h) so the lock has a "
        "rank and the Clang analysis can see it",
    ),
    (
        re.compile(r"\bstd::(lock_guard|unique_lock|scoped_lock)\b"),
        "std::lock_guard/unique_lock/scoped_lock: use RankedMutexLock",
    ),
    (
        re.compile(r"\bstd::condition_variable\b(?!_any)"),
        "std::condition_variable: use std::condition_variable_any, which "
        "can wait on a RankedMutexLock",
    ),
)

# The only file in src/ allowed to name the real steady clock: the shim that
# wraps it behind a swappable source.
CLOCK_SHIM = "src/common/clock.h"
STEADY_CLOCK = re.compile(r"\bsteady_clock\b")

# Banned everywhere: the project's regex engine is regexlite, which has a
# step budget; std::regex does not (and is far slower).
STD_REGEX = re.compile(r'\bstd::w?regex\b|#\s*include\s*<regex>')

ANNOTATION = re.compile(
    r"\bLOGLENS_(GUARDED_BY|PT_GUARDED_BY|REQUIRES|EXCLUDES|ACQUIRE|RELEASE|"
    r"TRY_ACQUIRE|CAPABILITY|SCOPED_CAPABILITY|ASSERT_CAPABILITY|"
    r"RETURN_CAPABILITY|NO_THREAD_SAFETY_ANALYSIS)\b"
)

# Rule 6: a RankedMutex member declaration in a header ("RankedMutex name"
# followed by an initializer or semicolon; references like "RankedMutex&"
# don't match), and the argument lists of the annotations that may name it.
MUTEX_MEMBER = re.compile(r"\b(?:mutable\s+)?RankedMutex\s+(\w+)\s*[{;=]")
ANNOTATION_ARGS = re.compile(
    r"\bLOGLENS_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|EXCLUDES|ACQUIRE|"
    r"RELEASE|TRY_ACQUIRE|ASSERT_CAPABILITY)\s*\(([^)]*)\)"
)

# Rule 7: raw sleeps/yields bypass the schedule explorer. Only the sched
# shim may touch std::this_thread (it implements the sanctioned sleep).
THIS_THREAD = re.compile(r"\bstd::this_thread::(sleep_for|sleep_until|yield)\b")
SCHED_SHIM = ("src/common/sched.h", "src/common/sched.cpp")

# Rule 8: the typed message body is private to the wire module.
PAYLOAD_OWNERS = (
    "src/broker/message.h",
    "src/service/wire.h",
    "src/service/wire.cpp",
)
PAYLOAD_ACCESS = re.compile(
    r"\b(MessagePayload|ParsedPayload|AnomalyPayload)\b|(\.|->)\s*payload\b"
)

# Rule 9: the model owns its tokenizer. The builder (model_ops.cpp) makes
# the one it trains with; everything else asks the model.
TOKENIZER_OWNERS = (
    "src/service/model.h",
    "src/service/model.cpp",
    "src/service/model_ops.cpp",
)
PREPROCESSOR_CREATE = re.compile(r"\bPreprocessor::create\b")

# Rule 10: a model is parsed where it enters the process, then shared.
MODEL_LOADERS = {
    re.compile(r"\bCompositeModel::from_json\b"): (
        "src/service/model.cpp",
        "src/service/model_ops.cpp",
        "tools/loglens_cli.cpp",
    ),
    re.compile(r"\bKeywordDetector::from_json\b"): (
        "src/service/model.cpp",
        "src/detectors/keyword.cpp",
    ),
}

# Rule 11: a Token's position only means something in the log that holds
# it, so only the tokenizer places one.
TOKEN_OWNERS = ("src/grok/token.h",)
TOKEN_CONSTRUCT = re.compile(r"\bToken\s*[{(]|\bToken\s+\w+\s*\{")

LINE_COMMENT = re.compile(r"//.*$")


def strip_comments(text):
    """Returns (lineno, code) pairs with // and /* */ comments blanked."""
    out = []
    in_block = False
    for i, line in enumerate(text.splitlines(), start=1):
        code = line
        if in_block:
            end = code.find("*/")
            if end < 0:
                out.append((i, ""))
                continue
            code = " " * (end + 2) + code[end + 2 :]
            in_block = False
        while True:
            start = code.find("/*")
            if start < 0:
                break
            end = code.find("*/", start + 2)
            if end < 0:
                code = code[:start]
                in_block = True
                break
            code = code[:start] + " " * (end + 2 - start) + code[end + 2 :]
        code = LINE_COMMENT.sub("", code)
        out.append((i, code))
    return out


def in_concurrent_core(rel):
    if rel in EXEMPT:
        return False
    return any(rel == d or rel.startswith(d + "/") for d in CONCURRENT_CORE)


def lint_text(text, rel):
    """Lints one file's contents under its repo-relative path."""
    problems = []
    lines = strip_comments(text)

    if in_concurrent_core(rel):
        for lineno, code in lines:
            for pattern, why in BANNED_IN_CORE:
                if pattern.search(code):
                    problems.append(f"{rel}:{lineno}: {why}")

    if rel.endswith(".h"):
        directives = [
            (n, c.strip()) for n, c in lines if c.strip().startswith("#")
        ]
        if not directives or directives[0][1] != "#pragma once":
            problems.append(
                f"{rel}:1: header must open its directives with #pragma once"
            )

    for lineno, code in lines:
        if re.search(r'#\s*include\s+"\.\./', code):
            problems.append(
                f"{rel}:{lineno}: parent-relative include; include project "
                "headers by their src/-relative path"
            )

    for lineno, code in lines:
        if STD_REGEX.search(code):
            problems.append(
                f"{rel}:{lineno}: std::regex/<regex>; use regexlite "
                "(src/regexlite/regex.h) — it has a step budget"
            )

    if rel.startswith("src/") and rel != CLOCK_SHIM:
        for lineno, code in lines:
            if STEADY_CLOCK.search(code):
                problems.append(
                    f"{rel}:{lineno}: steady_clock outside the clock shim; "
                    "use trace_clock::now_us() (common/clock.h) so tests can "
                    "mock time and spans share one timebase"
                )

    if in_concurrent_core(rel) and rel.endswith(".h"):
        code_only = "\n".join(code for _, code in lines)
        named = set()
        for args in ANNOTATION_ARGS.findall(code_only):
            named.update(re.findall(r"\w+", args))
        for lineno, code in lines:
            for m in MUTEX_MEMBER.finditer(code):
                if m.group(1) not in named:
                    problems.append(
                        f"{rel}:{lineno}: RankedMutex member '{m.group(1)}' "
                        "is not named by any LOGLENS_ annotation in this "
                        "header; annotate what it guards (GUARDED_BY) or "
                        "its contract (REQUIRES/EXCLUDES/ACQUIRE) so the "
                        "Clang analysis can check it"
                    )

    if rel.startswith("src/") and rel not in SCHED_SHIM:
        for lineno, code in lines:
            if THIS_THREAD.search(code):
                problems.append(
                    f"{rel}:{lineno}: raw std::this_thread sleep/yield; use "
                    "sched::sleep_for_ms/us (common/sched.h) so the delay "
                    "is a schedule point and virtualizes under the "
                    "deterministic explorer"
                )

    if rel.startswith("src/") and rel not in PAYLOAD_OWNERS:
        for lineno, code in lines:
            if PAYLOAD_ACCESS.search(code):
                problems.append(
                    f"{rel}:{lineno}: typed message payload outside "
                    "service/wire.{h,cpp}; read and build messages through "
                    "the wire.h accessors (parsed_payload_view, "
                    "anomaly_from_message, ...)"
                )

    if (
        rel.startswith(("src/", "tools/"))
        and not rel.startswith("src/tokenize/")
        and rel not in TOKENIZER_OWNERS
    ):
        for lineno, code in lines:
            if PREPROCESSOR_CREATE.search(code):
                problems.append(
                    f"{rel}:{lineno}: Preprocessor::create outside the "
                    "model; take the preprocessor from "
                    "CompositeModel::make_preprocessor() so the model is "
                    "parsed with the tokenizer it was trained with"
                )

    if rel.startswith(("src/", "tools/")):
        for pattern, loaders in MODEL_LOADERS.items():
            if rel in loaders:
                continue
            for lineno, code in lines:
                if pattern.search(code):
                    problems.append(
                        f"{rel}:{lineno}: {pattern.pattern[2:-2]} outside "
                        "the model loaders; share the deployed model "
                        "(ModelStore, ModelBroadcast, ModelManager::get) "
                        "instead of parsing it again"
                    )

    if (
        rel.startswith("src/")
        and not rel.startswith("src/tokenize/")
        and rel not in TOKEN_OWNERS
    ):
        for lineno, code in lines:
            if TOKEN_CONSTRUCT.search(code):
                problems.append(
                    f"{rel}:{lineno}: Token constructed outside the "
                    "tokenizer; a token is a span of its own log's buffer, "
                    "so build logs with Preprocessor::process_into or "
                    "TokenizedLog::push_token and read texts through "
                    "TokenizedLog::text_of"
                )

    if ANNOTATION.search(text) and rel != "src/common/thread_annotations.h":
        if '#include "common/thread_annotations.h"' not in text:
            problems.append(
                f"{rel}:1: uses LOGLENS_ thread-safety annotations without "
                'including "common/thread_annotations.h"'
            )
    return problems


def repo_files():
    files = []
    for root in ("src", "tests", "bench", "examples", "tools"):
        top = REPO / root
        if top.is_dir():
            files.extend(sorted(top.rglob("*.h")))
            files.extend(sorted(top.rglob("*.cpp")))
    return files


def run(paths):
    problems = []
    for path in paths:
        rel = path.resolve().relative_to(REPO).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            problems.append(f"{rel}:0: unreadable: {e}")
            continue
        problems.extend(lint_text(text, rel))
    for p in problems:
        print(p)
    if problems:
        print(f"lint: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    return 0


SELF_TEST_CASES = [
    # (pretend repo-relative path, contents, expected problem substring;
    #  None = must lint clean)
    (
        "src/broker/fixture.h",
        "#pragma once\n#include <mutex>\nstruct S { std::mutex mu_; };\n",
        "std::mutex",
    ),
    (
        "src/streaming/fixture.cpp",
        "void f() { std::lock_guard lock(mu_); }\n",
        "RankedMutexLock",
    ),
    (
        "src/metrics/fixture.h",
        "#pragma once\nstd::condition_variable cv_;\n",
        "condition_variable_any",
    ),
    (
        "src/service/fixture.h",
        "// no pragma once\n#include <string>\n",
        "#pragma once",
    ),
    (
        "src/common/fixture.h",
        '#pragma once\n#include "../broker/broker.h"\n',
        "parent-relative",
    ),
    (
        "src/faults/fixture.h",
        "#pragma once\nint x_ LOGLENS_GUARDED_BY(mu_);\n",
        "thread_annotations.h",
    ),
    # The trace subsystem is part of the concurrent core.
    (
        "src/trace/fixture.h",
        "#pragma once\n#include <mutex>\nstruct S { std::mutex mu_; };\n",
        "std::mutex",
    ),
    # The real clock is banned in src/ outside the shim...
    (
        "src/streaming/fixture_clock.cpp",
        "void f() { auto t = std::chrono::steady_clock::now(); }\n",
        "steady_clock",
    ),
    # ...including mentions via using-declarations in non-core src/ dirs...
    (
        "src/parser/fixture_clock.h",
        "#pragma once\nusing Clock = std::chrono::steady_clock;\n",
        "steady_clock",
    ),
    # ...but fine in the shim itself, in comments, and outside src/.
    (
        "src/common/clock.h",
        "#pragma once\n"
        "inline long now() {\n"
        "  return std::chrono::steady_clock::now().time_since_epoch().count();"
        "\n}\n",
        None,
    ),
    (
        "src/broker/fixture_clock_comment.cpp",
        "// steady_clock is banned here\nint x;\n",
        None,
    ),
    (
        "bench/fixture_clock.cpp",
        "auto t0 = std::chrono::steady_clock::now();\n",
        None,
    ),
    # std::regex is banned everywhere, including tests and benches...
    (
        "src/regexlite/fixture_std.cpp",
        "#include <regex>\nstd::regex re(\"a+\");\n",
        "std::regex",
    ),
    (
        "tests/fixture_std_regex.cpp",
        "bool f() { return std::regex_match(s, std::regex(\"x\")); }\n",
        "std::regex",
    ),
    # ...but mentions in comments are fine.
    (
        "src/grok/fixture_regex_comment.h",
        "#pragma once\n// unlike std::regex, regexlite has a step budget\n",
        None,
    ),
    # Commented-out code must not trip the core bans.
    (
        "src/broker/fixture_comment.cpp",
        "// std::mutex in prose\n/* std::lock_guard lock(mu_); */\n",
        None,
    ),
    # An unannotated RankedMutex member in a concurrent-core header is
    # invisible to the thread-safety analysis...
    (
        "src/streaming/fixture_naked_mutex.h",
        "#pragma once\n"
        '#include "common/lock_rank.h"\n'
        "namespace loglens {\n"
        "struct S {\n"
        "  RankedMutex mu_{1};\n"
        "  int n_ = 0;\n"
        "};\n"
        "}  // namespace loglens\n",
        "not named by any LOGLENS_ annotation",
    ),
    # ...a mutable one too...
    (
        "src/broker/fixture_mutable_mutex.h",
        "#pragma once\n"
        '#include "common/lock_rank.h"\n'
        "struct S { mutable RankedMutex mu_{1}; };\n",
        "not named by any LOGLENS_ annotation",
    ),
    # ...but naming it in any annotation (here an EXCLUDES contract)
    # satisfies the rule, and references/locals don't count as members.
    (
        "src/service/fixture_excludes_ok.h",
        "#pragma once\n"
        '#include "common/lock_rank.h"\n'
        '#include "common/thread_annotations.h"\n'
        "struct S {\n"
        "  void poke() LOGLENS_EXCLUDES(mu_);\n"
        "  RankedMutex mu_{1};\n"
        "};\n"
        "void helper(RankedMutex& other);\n",
        None,
    ),
    # Raw sleeps in src/ bypass the schedule explorer...
    (
        "src/streaming/fixture_sleep.cpp",
        "#include <thread>\n"
        "void f() {\n"
        "  std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
        "}\n",
        "std::this_thread",
    ),
    (
        "src/broker/fixture_yield.cpp",
        "void f() { std::this_thread::yield(); }\n",
        "std::this_thread",
    ),
    # ...but the shim itself implements the sanctioned sleep, and tests may
    # sleep for real.
    (
        "src/common/sched.cpp",
        "void g() {\n"
        "  std::this_thread::sleep_for(std::chrono::microseconds(1));\n"
        "}\n",
        None,
    ),
    (
        "tests/fixture_sleep.cpp",
        "void f() { std::this_thread::sleep_for(1ms); }\n",
        None,
    ),
    # The typed message body belongs to the wire module: reading it...
    (
        "src/service/fixture_payload.cpp",
        "void f(const Message& m) { auto* p = m.payload.get(); }\n",
        "typed message payload",
    ),
    # ...through a pointer, or naming a payload type, is flagged elsewhere...
    (
        "src/streaming/fixture_payload_ptr.cpp",
        "bool f(const Message* m) { return m->payload != nullptr; }\n",
        "typed message payload",
    ),
    (
        "src/storage/fixture_payload_type.h",
        "#pragma once\nstruct Mine final : MessagePayload {};\n",
        "typed message payload",
    ),
    # ...but a local buffer named payload (storage/segment.cpp), comments,
    # the wire module itself, and tests are fine.
    (
        "src/storage/fixture_payload_local.cpp",
        "void f() {\n  std::string payload;\n  payload.append(\"x\");\n"
        "  put_u32(payload, 1);\n}\n// m.payload is private to wire.cpp\n",
        None,
    ),
    (
        "src/service/wire.cpp",
        "const Anomaly* f(const Message& m) {\n"
        "  auto* p = dynamic_cast<const AnomalyPayload*>(m.payload.get());\n"
        "  return p ? &p->anomaly : nullptr;\n}\n",
        None,
    ),
    (
        "tests/fixture_payload.cpp",
        "TEST(X, Y) { EXPECT_EQ(m.payload, nullptr); }\n",
        None,
    ),
    # A preprocessor built outside the model can disagree with the
    # tokenizer the model was trained with: in a stage...
    (
        "src/service/fixture_tokenizer.cpp",
        "Preprocessor pre = std::move(Preprocessor::create({}).value());\n",
        "Preprocessor::create outside the model",
    ),
    # ...or in a tool.
    (
        "tools/fixture_cli.cpp",
        "auto pre = Preprocessor::create(options);\n",
        "Preprocessor::create outside the model",
    ),
    # The tokenizer module, the model and the builder may build one; tests,
    # benches and prose may too.
    (
        "src/tokenize/preprocessor.cpp",
        "StatusOr<Preprocessor> Preprocessor::create(PreprocessorOptions o) "
        "{ return Preprocessor(o); }\n",
        None,
    ),
    (
        "src/service/model.cpp",
        "auto pre = Preprocessor::create(tokenizer);\n",
        None,
    ),
    (
        "src/service/model_ops.cpp",
        "auto pre = Preprocessor::create(tokenizer);\n",
        None,
    ),
    (
        "tests/fixture_preprocessor.cpp",
        "auto pre = std::move(Preprocessor::create({}).value());\n",
        None,
    ),
    (
        "src/service/fixture_tokenizer_comment.cpp",
        "// never call Preprocessor::create here\n"
        "Preprocessor pre = model.make_preprocessor();\n",
        None,
    ),
    # A stage or a tool that parses a model again, instead of sharing the
    # deployed one...
    (
        "src/service/fixture_reparse.cpp",
        "auto m = CompositeModel::from_json(entry.blob);\n",
        "CompositeModel::from_json outside the model loaders",
    ),
    (
        "tools/fixture_model_tool.cpp",
        "auto m = CompositeModel::from_json(j);\n",
        "CompositeModel::from_json outside the model loaders",
    ),
    # ...including checkpoint restore, which loads through deploy_json so
    # the checkpoint's model is parsed once...
    (
        "src/service/service.cpp",
        "auto model = CompositeModel::from_json(*model_blob);\n",
        "CompositeModel::from_json outside the model loaders",
    ),
    # ...or rebuilds the keyword detector from JSON, is flagged...
    (
        "src/service/tasks.cpp",
        "auto d = KeywordDetector::from_json(model.keywords);\n",
        "KeywordDetector::from_json outside the model loaders",
    ),
    (
        "src/service/model_ops.cpp",
        "auto d = KeywordDetector::from_json(j);\n",
        "KeywordDetector::from_json outside the model loaders",
    ),
    # ...but the loaders, the definitions, prose, tests and examples are
    # fine.
    (
        "src/service/model.cpp",
        "auto k = KeywordDetector::from_json(*kj);\n"
        "StatusOr<CompositeModel> CompositeModel::from_json(const Json& j);\n",
        None,
    ),
    (
        "src/service/model_ops.cpp",
        "auto loaded = CompositeModel::from_json(model_json);\n",
        None,
    ),
    (
        "tools/loglens_cli.cpp",
        "return CompositeModel::from_json(j.value());\n",
        None,
    ),
    (
        "src/detectors/keyword.cpp",
        "StatusOr<KeywordDetector> KeywordDetector::from_json(const Json& j) "
        "{\n",
        None,
    ),
    (
        "src/service/fixture_reparse_comment.cpp",
        "// never call CompositeModel::from_json here\n"
        "const CompositeModel& m = *entry.model;\n",
        None,
    ),
    (
        "tests/fixture_model_serde.cpp",
        "auto back = CompositeModel::from_json(m.to_json());\n"
        "auto k = KeywordDetector::from_json(d.to_json());\n",
        None,
    ),
    (
        "examples/fixture_restore.cpp",
        "auto restored = CompositeModel::from_json(blob);\n",
        None,
    ),
    # A token placed outside the tokenizer: a temporary...
    (
        "src/parser/fixture_token.cpp",
        "log.tokens.push_back(Token{0, 3, Datatype::kWord});\n",
        "Token constructed outside the tokenizer",
    ),
    # ...a functional cast, or a brace-initialized variable, is flagged...
    (
        "src/logmine/fixture_token_cast.cpp",
        "auto t = Token(begin, size);\n",
        "Token constructed outside the tokenizer",
    ),
    (
        "src/service/fixture_token_var.cpp",
        "Token t{begin, 4, Datatype::kNumber};\n",
        "Token constructed outside the tokenizer",
    ),
    # ...but the tokenizer, the type's own header, tests, prose, and code
    # that only names the type (or GrokToken) are fine.
    (
        "src/tokenize/preprocessor.cpp",
        "out.tokens.push_back(Token{static_cast<uint32_t>(begin), n});\n",
        None,
    ),
    (
        "src/grok/token.h",
        "#pragma once\n"
        "void push_token() { tokens.push_back(Token{b, n, type}); }\n",
        None,
    ),
    (
        "tests/fixture_token.cpp",
        "std::vector<Token> v = {Token{0, 1, Datatype::kWord}};\n",
        None,
    ),
    (
        "src/parser/fixture_token_ok.cpp",
        "// never write Token{0, 3} here\n"
        "for (const Token& t : log.tokens) n += sizeof(Token);\n"
        "auto g = GrokToken::make_literal(std::string(log.text_of(t)));\n"
        "std::vector<Token> spans;\n",
        None,
    ),
    # Negative control: idiomatic code must pass clean.
    (
        "src/broker/fixture_ok.h",
        "#pragma once\n"
        '#include "common/lock_rank.h"\n'
        '#include "common/thread_annotations.h"\n'
        "namespace loglens {\n"
        "struct S {\n"
        "  RankedMutex mu_{1};\n"
        "  int n_ LOGLENS_GUARDED_BY(mu_) = 0;\n"
        "};\n"
        "}  // namespace loglens\n",
        None,
    ),
]


def self_test():
    failures = 0
    for rel, contents, expect in SELF_TEST_CASES:
        problems = lint_text(contents, rel)
        if expect is None:
            if problems:
                print(f"self-test FAIL: {rel} should be clean, got {problems}")
                failures += 1
        elif not any(expect in p for p in problems):
            print(
                f"self-test FAIL: {rel} should flag '{expect}', got {problems}"
            )
            failures += 1
    if failures:
        return 1
    print(f"lint self-test: {len(SELF_TEST_CASES)} fixture(s) OK")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    if argv:
        return run(Path(a) for a in argv)
    return run(repo_files())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
