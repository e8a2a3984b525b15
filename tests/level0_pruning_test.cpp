// Exactness of level 0's pruned membership test: within_distance with the
// threshold from min_half_score must decide token_distance(a, b) <= max_dist
// for every pair of same-length sequences, at the thresholds the datasets
// use and at thresholds that fall exactly on a half-score boundary.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "logmine/discoverer.h"

namespace loglens {
namespace {

const Datatype kTypes[] = {Datatype::kWord, Datatype::kNumber, Datatype::kIp,
                           Datatype::kNotSpace, Datatype::kDateTime};

using TextAndType = std::pair<std::string, Datatype>;

TextAndType random_token(Rng& rng) {
  std::string text = "t" + std::to_string(rng.below(4));
  return {std::move(text), kTypes[rng.below(5)]};
}

TokenizedLog log_of(const std::vector<TextAndType>& tokens) {
  TokenizedLog log;
  for (const auto& [text, type] : tokens) log.push_token(text, type);
  return log;
}

// `a` and a copy of it with a random share of its positions redrawn, so the
// pairs spread over the whole distance range, boundaries included.
std::pair<TokenizedLog, TokenizedLog> random_pair(Rng& rng, size_t n) {
  std::vector<TextAndType> a(n);
  for (auto& t : a) t = random_token(rng);
  std::vector<TextAndType> b = a;
  const double redraw = rng.uniform();
  for (auto& t : b) {
    if (rng.chance(redraw)) t = random_token(rng);
  }
  return {log_of(a), log_of(b)};
}

void expect_exact(const TokenizedLog& a, const TokenizedLog& b,
                  double max_dist) {
  const size_t min_half = min_half_score(a.tokens.size(), max_dist);
  ASSERT_EQ(within_distance(a, b, min_half),
            token_distance(a, b) <= max_dist)
      << "n=" << a.tokens.size() << " max_dist=" << max_dist
      << " distance=" << token_distance(a, b);
}

TEST(Level0Pruning, ThresholdsInUse) {
  Rng rng(7);
  for (double max_dist : {0.25, 0.27, 0.3}) {
    for (int i = 0; i < 20000; ++i) {
      auto [a, b] = random_pair(rng, static_cast<size_t>(rng.range(1, 40)));
      expect_exact(a, b, max_dist);
    }
  }
}

TEST(Level0Pruning, ThresholdsOnHalfScoreBoundaries) {
  // max_dist equal to the distance of half-score h at length n, computed by
  // token_distance's expression, and the doubles either side of it.
  Rng rng(11);
  for (size_t n = 1; n <= 24; ++n) {
    for (size_t h = 0; h <= 2 * n; ++h) {
      const double boundary =
          1.0 - (static_cast<double>(h) / 2.0) / static_cast<double>(n);
      for (double max_dist : {boundary, std::nextafter(boundary, -1.0),
                              std::nextafter(boundary, 2.0)}) {
        for (int i = 0; i < 40; ++i) {
          auto [a, b] = random_pair(rng, n);
          expect_exact(a, b, max_dist);
        }
      }
    }
  }
}

TEST(Level0Pruning, MinHalfScoreIsTheAcceptanceEdge) {
  // Every half-score at or above the threshold is accepted by
  // token_distance's comparison, every one below it rejected.
  for (double max_dist : {-0.1, 0.0, 0.25, 0.27, 0.3, 0.5, 1.0, 1.5}) {
    for (size_t n = 1; n <= 64; ++n) {
      const size_t min_half = min_half_score(n, max_dist);
      ASSERT_LE(min_half, 2 * n + 1);
      for (size_t h = 0; h <= 2 * n; ++h) {
        const double distance =
            1.0 - (static_cast<double>(h) / 2.0) / static_cast<double>(n);
        EXPECT_EQ(h >= min_half, distance <= max_dist)
            << "n=" << n << " h=" << h << " max_dist=" << max_dist;
      }
    }
  }
}

}  // namespace
}  // namespace loglens
