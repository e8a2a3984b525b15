// Unit tests for the small common substrate: Status/StatusOr, FNV hashing,
// the seedable RNG every generator depends on, and parallel_for.
#include <gtest/gtest.h>

// GCC 12 emits false-positive -Wmaybe-uninitialized warnings for moves of
// std::variant<..., std::string> members at -O2 (a known compiler issue,
// triggered by the StatusOr tests below). The library code is unaffected.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"

namespace loglens {
namespace {

TEST(Status, OkAndError) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.message(), "OK");
  Status err = Status::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "boom");
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(StatusOr, ValueAndErrorPaths) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(static_cast<bool>(v));
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());

  StatusOr<int> e = StatusOr<int>::Error("nope");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().message(), "nope");
}

TEST(StatusOr, MoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

TEST(StatusOr, ArrowOperator) {
  StatusOr<std::string> s(std::string("hello"));
  EXPECT_EQ(s->size(), 5u);
}

TEST(Fnv1a, KnownValuesAndStability) {
  // FNV-1a of the empty string is the offset basis.
  EXPECT_EQ(fnv1a(""), kFnvOffset);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_EQ(fnv1a("loglens"), fnv1a("loglens"));
  // constexpr-evaluable.
  static_assert(fnv1a("x") != fnv1a("y"));
}

TEST(Fnv1a, HashCombineMixes) {
  uint64_t a = fnv1a("a");
  uint64_t b = fnv1a("b");
  EXPECT_NE(hash_combine(a, b), hash_combine(b, a));
  EXPECT_NE(hash_combine(a, b), a);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
  }
  bool all_equal = true;
  Rng a2(42);
  for (int i = 0; i < 10; ++i) {
    if (a2.next() != c.next()) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(Rng, RangeBoundsInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.range(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.range(9, 9), 9);  // degenerate range
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, HexIsDatatypeStable) {
  // First char letter, second char digit (see rng.h) — so hex ids never
  // classify as NUMBER or WORD.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    std::string h = rng.hex(8);
    ASSERT_EQ(h.size(), 8u);
    EXPECT_TRUE(h[0] >= 'a' && h[0] <= 'f') << h;
    EXPECT_TRUE(h[1] >= '0' && h[1] <= '9') << h;
    for (char c : h) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << h;
    }
  }
}

TEST(Rng, IdentShape) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    std::string id = rng.ident(10);
    ASSERT_EQ(id.size(), 10u);
    EXPECT_TRUE(id[0] >= 'a' && id[0] <= 'z') << id;
  }
}

TEST(Rng, PickCoversAllItems) {
  Rng rng(13);
  std::vector<std::string> items = {"a", "b", "c"};
  std::set<std::string> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.pick(items));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(ParallelFor, RunsEveryIndexOnceInGrainBlocks) {
  for (size_t n : {0, 1, 7, 1000}) {
    for (size_t grain : {0, 1, 3, 64, 5000}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<size_t> blocks{0};
      parallel_for(n, grain, [&](size_t begin, size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end - begin, std::max<size_t>(grain, 1));
        ++blocks;
        for (size_t i = begin; i < end; ++i) ++hits[i];
      });
      for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
      const size_t g = std::max<size_t>(grain, 1);
      EXPECT_EQ(blocks.load(), (n + g - 1) / g);
    }
  }
}

TEST(ParallelFor, RethrowsABlocksException) {
  std::atomic<size_t> ran{0};
  EXPECT_THROW(parallel_for(64, 1,
                            [&](size_t begin, size_t) {
                              ++ran;
                              if (begin == 5) throw std::runtime_error("x");
                            }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 6u);
}

}  // namespace
}  // namespace loglens
