// Proves the hot-path allocation contract: once the parser, its scratch, and
// the reused output slots are warm, an index-hit parse_into performs ZERO
// heap allocations per log. A global counting operator new underwrites the
// claim — any hidden allocation (string copy, vector growth, rehash) fails
// the exact-zero expectation.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "parser/log_parser.h"
#include "tokenize/preprocessor.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// Not inlined: GCC 12 at -O3 would inline free() into callers and then
// report it as freeing memory from operator new (-Wmismatched-new-delete),
// not seeing that the replaced operator new above uses malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace loglens {
namespace {

std::vector<GrokPattern> make_model() {
  std::vector<GrokPattern> model;
  int id = 1;
  for (const char* text : {
           "%{WORD:Action} DB %{IP:Server} user %{NOTSPACE:UserName}",
           "%{WORD:w} logged out session %{NUMBER:n}",
           "error code %{NUMBER:code} at %{NOTSPACE:loc}",
       }) {
    auto p = GrokPattern::parse(text);
    p->assign_field_ids(id++);
    model.push_back(std::move(p.value()));
  }
  return model;
}

TEST(ParserAllocationTest, IndexHitParseIntoIsAllocationFree) {
  auto pre = std::move(Preprocessor::create({}).value());
  LogParser parser(make_model(), pre.classifier());

  // Distinct field values, one shared signature: every parse after the first
  // is an index hit.
  std::vector<TokenizedLog> logs;
  for (int i = 0; i < 64; ++i) {
    logs.push_back(pre.process("Connect DB 10.0.0." + std::to_string(i) +
                               " user u" + std::to_string(100 + i)));
  }

  ParsedLog parsed;
  // Warm: sizes the index entry, the signature/matcher scratch, and the
  // output slots (field names, values, raw) to their steady-state capacity.
  for (const auto& log : logs) {
    ASSERT_TRUE(parser.parse_into(log, parsed));
  }

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 10; ++rep) {
    for (const auto& log : logs) {
      ASSERT_TRUE(parser.parse_into(log, parsed));
    }
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "expected zero allocations across " << 10 * logs.size()
      << " warm index-hit parses";
  EXPECT_EQ(parser.stats().groups_built, 1u);
}

TEST(ParserAllocationTest, FreshRecordAllocatesItsFieldVectorOnce) {
  // The parser stage moves its record into each payload, so in the service
  // every parse starts from an empty field vector. Six fields with short
  // names and values (no string allocation): one reservation, not one per
  // doubling of the vector.
  auto pre = std::move(Preprocessor::create({}).value());
  auto pattern = GrokPattern::parse(
      "%{WORD:a} %{WORD:b} %{NUMBER:c} %{WORD:d} %{NUMBER:e} %{WORD:f}");
  ASSERT_TRUE(pattern.ok());
  pattern->assign_field_ids(1);
  LogParser parser({pattern.value()}, pre.classifier());

  const TokenizedLog log = pre.process("alpha beta 1 gamma 2 delta");
  ParsedLog parsed;
  ASSERT_TRUE(parser.parse_into(log, parsed));  // warm (builds the group)
  constexpr size_t kLogs = 16;
  std::vector<TokenizedLog> logs(kLogs, log);
  std::vector<ParsedLog> payloads;
  payloads.reserve(kLogs + 1);
  payloads.push_back(std::move(parsed));

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (auto& l : logs) {
    ASSERT_TRUE(parser.parse_into(std::move(l), parsed));
    payloads.push_back(std::move(parsed));
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, kLogs);
  EXPECT_EQ(payloads.back().fields.size(), 6u);
  EXPECT_EQ(payloads.back().fields.capacity(), 6u);
}

TEST(ParserAllocationTest, UnparsedLogsAreAllocationFreeToo) {
  auto pre = std::move(Preprocessor::create({}).value());
  LogParser parser(make_model(), pre.classifier());
  TokenizedLog log = pre.process("something else entirely here now");

  ParsedLog parsed;
  EXPECT_FALSE(parser.parse_into(log, parsed));  // warm (builds the group)

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 100; ++rep) {
    EXPECT_FALSE(parser.parse_into(log, parsed));
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(ParserAllocationTest, FullPipelineSteadyStateStaysAllocationFree) {
  // process_into + the raw-stealing parse_into overload: the preprocessor
  // piece/token slots and the ParsedLog raw slot all reach a steady state,
  // removing both raw copies the old path paid per log.
  auto pre = std::move(Preprocessor::create({}).value());
  LogParser parser(make_model(), pre.classifier());

  std::vector<std::string> lines;
  for (int i = 0; i < 64; ++i) {
    lines.push_back("Connect DB 10.0.0." + std::to_string(i) + " user u" +
                    std::to_string(100 + i));
  }

  TokenizedLog tokenized;
  ParsedLog parsed;
  for (int rep = 0; rep < 2; ++rep) {
    for (const auto& line : lines) {
      pre.process_into(line, tokenized);
      ASSERT_TRUE(parser.parse_into(std::move(tokenized), parsed));
    }
  }

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 10; ++rep) {
    for (const auto& line : lines) {
      pre.process_into(line, tokenized);
      ASSERT_TRUE(parser.parse_into(std::move(tokenized), parsed));
      ASSERT_EQ(parsed.raw, line);
    }
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(ParserAllocationTest, WarmProcessIntoIsAllocationFreeWithDateTimes) {
  // A DATETIME token's canonical text is appended to the log's own buffer,
  // whose capacity a warm log keeps, so timestamps cost no allocation
  // either: neither the single-token form nor one spanning four pieces.
  auto pre = std::move(Preprocessor::create({}).value());
  std::vector<std::string> lines;
  for (int i = 0; i < 32; ++i) {
    const std::string s = std::to_string(10 + i);
    lines.push_back("2016/02/23 09:00:" + s + " 10.0.0." + s + " login u" + s);
    lines.push_back("Feb 23, 2016 09:01:" + s + " moved to 2016-02-23T10:00:" +
                    s + ".500 ok");
  }
  TokenizedLog tokenized;
  for (const auto& line : lines) pre.process_into(line, tokenized);

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 10; ++rep) {
    for (const auto& line : lines) {
      pre.process_into(line, tokenized);
      ASSERT_EQ(tokenized.tokens[0].type, Datatype::kDateTime);
    }
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(tokenized.token_text(0), "2016/02/23 09:01:41.000");
  EXPECT_EQ(tokenized.token_text(3), "2016/02/23 10:00:41.500");
}

}  // namespace
}  // namespace loglens
