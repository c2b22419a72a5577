// Exhaustive verification of the closed-form transfer functions against a
// direct routing simulation, including the two paper-errata fixes documented
// in sdep/transfer.h.

#include <gtest/gtest.h>

#include <vector>

#include "sdep/transfer.h"
#include "sdep/sdep.h"

namespace sit::sdep {
namespace {

// Simulate a 2-way RR(1,1) splitter: route x items, return per-output counts.
std::pair<std::int64_t, std::int64_t> route_split(std::int64_t x) {
  std::int64_t o1 = 0, o2 = 0;
  for (std::int64_t i = 0; i < x; ++i) {
    (i % 2 == 0 ? o1 : o2)++;
  }
  return {o1, o2};
}

// Simulate a 2-way RR(1,1) joiner: how many outputs from (x1, x2) inputs.
std::int64_t route_join(std::int64_t x1, std::int64_t x2) {
  std::int64_t out = 0;
  while (true) {
    if (out % 2 == 0) {
      if (x1 == 0) break;
      --x1;
    } else {
      if (x2 == 0) break;
      --x2;
    }
    ++out;
  }
  return out;
}

TEST(Transfer, RrSplitMaxMatchesRouting) {
  for (std::int64_t x = 0; x <= 40; ++x) {
    const auto [o1, o2] = route_split(x);
    EXPECT_EQ(rr_split_max(0, x), o1) << x;
    EXPECT_EQ(rr_split_max(1, x), o2) << x;
  }
}

TEST(Transfer, RrSplitMinIsExactJointDemand) {
  // min(x1, x2) must be the smallest x whose routing covers both demands --
  // this is where the paper's draft formula (MIN) fails and MAX is right.
  for (std::int64_t x1 = 0; x1 <= 12; ++x1) {
    for (std::int64_t x2 = 0; x2 <= 12; ++x2) {
      const std::int64_t need = rr_split_min(x1, x2);
      const auto [a1, a2] = route_split(need);
      EXPECT_GE(a1, x1);
      EXPECT_GE(a2, x2);
      if (need > 0) {
        const auto [b1, b2] = route_split(need - 1);
        EXPECT_TRUE(b1 < x1 || b2 < x2)
            << "not minimal at (" << x1 << "," << x2 << ")";
      }
    }
  }
}

TEST(Transfer, RrJoinMaxMatchesRouting) {
  for (std::int64_t x1 = 0; x1 <= 12; ++x1) {
    for (std::int64_t x2 = 0; x2 <= 12; ++x2) {
      EXPECT_EQ(rr_join_max(x1, x2), route_join(x1, x2))
          << "(" << x1 << "," << x2 << ")";
    }
  }
}

TEST(Transfer, RrJoinMinMatchesPaperFormulas) {
  // The paper's per-input min formulas (ceil/floor) are correct and dual to
  // the splitter's max.
  for (std::int64_t n = 0; n <= 40; ++n) {
    // To emit n outputs, the joiner needs ceil(n/2) from I1, floor(n/2) from I2.
    EXPECT_EQ(rr_join_min(0, n), (n + 1) / 2);
    EXPECT_EQ(rr_join_min(1, n), n / 2);
    EXPECT_EQ(route_join(rr_join_min(0, n), rr_join_min(1, n)), n);
  }
}

TEST(Transfer, DuplicateAndCombineAreDuals) {
  for (std::int64_t x1 = 0; x1 <= 10; ++x1) {
    for (std::int64_t x2 = 0; x2 <= 10; ++x2) {
      EXPECT_EQ(dup_split_min(x1, x2), std::max(x1, x2));
      EXPECT_EQ(combine_join_max(x1, x2), std::min(x1, x2));
    }
    EXPECT_EQ(dup_split_max(x1), x1);
    EXPECT_EQ(combine_join_min(x1), x1);
  }
}

TEST(Transfer, FeedbackJoinerOffsetsByDelay) {
  // With n fabricated initial items, the loop side owes n fewer items and
  // the joiner can run n items further ahead.
  EXPECT_EQ(fb_join_min_loop(6, 2), 1);   // floor(6/2) - 2
  EXPECT_EQ(fb_join_min_loop(2, 5), 0);   // clamped at zero
  EXPECT_EQ(fb_join_max(4, 1, 2), rr_join_max(4, 3));
}

TEST(Transfer, CompositionLawsHold) {
  // Two filters in a pipeline: composed closed forms equal the closed form
  // of manual two-stage propagation.
  const TapeFn maxA = filter_max_fn(3, 1, 2);
  const TapeFn maxB = filter_max_fn(2, 2, 1);
  const TapeFn maxAB = compose_max(maxA, maxB);
  const TapeFn minA = filter_min_fn(3, 1, 2);
  const TapeFn minB = filter_min_fn(2, 2, 1);
  const TapeFn minAB = compose_min(minA, minB);
  for (std::int64_t x = 0; x <= 50; ++x) {
    EXPECT_EQ(maxAB(x), filter_max_transfer(2, 2, 1, filter_max_transfer(3, 1, 2, x)));
    // min is adjoint-ish to max: producing maxAB(x) outputs never demands
    // more than x inputs.
    const std::int64_t y = maxAB(x);
    if (y > 0) { EXPECT_LE(minAB(y), x); }
  }
}

TEST(Transfer, WeightedSplitterGeneralizesTwoWay) {
  const std::vector<int> w{1, 1};
  for (std::int64_t x = 0; x <= 30; ++x) {
    EXPECT_EQ(wrr_split_max(w, 0, x), rr_split_max(0, x));
    EXPECT_EQ(wrr_split_max(w, 1, x), rr_split_max(1, x));
  }
  // Weighted case against direct routing.
  const std::vector<int> w2{3, 1, 2};
  for (std::int64_t x = 0; x <= 40; ++x) {
    std::vector<std::int64_t> counts(3, 0);
    std::int64_t left = x;
    while (left > 0) {
      for (std::size_t p = 0; p < w2.size() && left > 0; ++p) {
        for (int k = 0; k < w2[p] && left > 0; ++k) {
          ++counts[p];
          --left;
        }
      }
    }
    for (std::size_t p = 0; p < w2.size(); ++p) {
      EXPECT_EQ(wrr_split_max(w2, static_cast<int>(p), x), counts[p])
          << "x=" << x << " p=" << p;
    }
  }
}

TEST(Transfer, WeightedJoinerGeneralizesTwoWay) {
  for (std::int64_t x1 = 0; x1 <= 10; ++x1) {
    for (std::int64_t x2 = 0; x2 <= 10; ++x2) {
      EXPECT_EQ(wrr_join_max({1, 1}, {x1, x2}), rr_join_max(x1, x2));
    }
  }
  // Weighted joiner against direct draining.
  const std::vector<int> w{2, 3};
  for (std::int64_t x1 = 0; x1 <= 12; ++x1) {
    for (std::int64_t x2 = 0; x2 <= 12; ++x2) {
      std::int64_t a = x1, b = x2, out = 0;
      bool stuck = false;
      while (!stuck) {
        if (a >= 2) {
          a -= 2;
          out += 2;
        } else {
          out += a;
          a = 0;
          break;
        }
        if (b >= 3) {
          b -= 3;
          out += 3;
        } else {
          out += b;
          b = 0;
          break;
        }
      }
      EXPECT_EQ(wrr_join_max(w, {x1, x2}), out) << x1 << "," << x2;
    }
  }
}

}  // namespace
}  // namespace sit::sdep
