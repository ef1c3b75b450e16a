// Tests for time abstraction (paper Section IV-E): the GCD reduction, the
// paper's worked example, and the solver against a brute force over every
// divisor and decomposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "timeabs/abstraction.hpp"
#include "util/diagnostics.hpp"

namespace timeabs = speccc::timeabs;
using timeabs::ErrorSign;

namespace {

TEST(TimeAbs, GcdReductionPaperExample) {
  // Req-08/28/42: {3, 180, 60} -> gcd 3 -> {1, 60, 20}.
  const auto abs = timeabs::gcd_abstraction({3, 180, 60});
  EXPECT_EQ(abs.divisor, 3u);
  EXPECT_EQ(abs.reduced, (std::vector<std::uint32_t>{1, 60, 20}));
  EXPECT_EQ(abs.error_sum, 0u);
}

TEST(TimeAbs, GcdOfCoprimeLengthsIsIdentity) {
  const auto abs = timeabs::gcd_abstraction({3, 7});
  EXPECT_EQ(abs.divisor, 1u);
  EXPECT_EQ(abs.reduced, (std::vector<std::uint32_t>{3, 7}));
}

TEST(TimeAbs, GcdRejectsEmptyAndZero) {
  EXPECT_THROW((void)timeabs::gcd_abstraction({}), speccc::util::InvalidInputError);
  EXPECT_THROW((void)timeabs::gcd_abstraction({0, 3}),
               speccc::util::InvalidInputError);
}

TEST(TimeAbs, PaperOptimizationExample) {
  // Theta = {3, 180, 60}, all Delta_i >= 0, B = 5
  // => d = 60, theta' = (0, 3, 1), Delta = (3, 0, 0).
  timeabs::Request req;
  req.thetas = {3, 180, 60};
  req.error_budget = 5;
  const auto abs = timeabs::optimize(req);
  EXPECT_EQ(abs.divisor, 60u);
  EXPECT_EQ(abs.reduced, (std::vector<std::uint32_t>{0, 3, 1}));
  EXPECT_EQ(abs.errors, (std::vector<std::int64_t>{3, 0, 0}));
  EXPECT_EQ(abs.reduced_sum, 4u);
  EXPECT_EQ(abs.error_sum, 3u);
}

TEST(TimeAbs, ZeroBudgetDegeneratesToDivisorOfAll) {
  // With B = 0 every theta must divide exactly; best divisor is the gcd.
  timeabs::Request req;
  req.thetas = {12, 18, 30};
  req.error_budget = 0;
  const auto abs = timeabs::optimize(req);
  EXPECT_EQ(abs.divisor, 6u);
  EXPECT_EQ(abs.reduced, (std::vector<std::uint32_t>{2, 3, 5}));
  EXPECT_EQ(abs.error_sum, 0u);
}

TEST(TimeAbs, LateArrivalSigns) {
  // theta = 7 with late arrivals (Delta <= 0): the best reduced sum is 1,
  // achieved exactly by d = 7 (Delta = 0), which also wins the secondary
  // objective over d = 8 (Delta = -1).
  timeabs::Request req;
  req.thetas = {7};
  req.error_budget = 1;
  req.signs = {ErrorSign::kLate};
  const auto abs = timeabs::optimize(req);
  EXPECT_EQ(abs.reduced_sum, 1u);
  EXPECT_EQ(abs.divisor, 7u);
  EXPECT_EQ(abs.errors[0], 0);
  // theta = theta' * d + Delta must hold.
  EXPECT_EQ(7, static_cast<std::int64_t>(abs.reduced[0]) * abs.divisor +
                   abs.errors[0]);

  // With a tighter shape where exact division is impossible (theta = 7,
  // budget forces d = 8 to be considered): request two thetas {7, 8}; d = 8
  // yields theta' = (1, 1) with Delta = (-1, 0).
  timeabs::Request req2;
  req2.thetas = {7, 8};
  req2.error_budget = 1;
  req2.signs = {ErrorSign::kLate, ErrorSign::kLate};
  const auto abs2 = timeabs::optimize(req2);
  EXPECT_EQ(abs2.divisor, 8u);
  EXPECT_EQ(abs2.reduced, (std::vector<std::uint32_t>{1, 1}));
  EXPECT_EQ(abs2.errors, (std::vector<std::int64_t>{-1, 0}));
}

TEST(TimeAbs, EitherSignPicksBestDirection) {
  // {9, 21}: with budget 2 and free signs, d = 10 gives
  // 9 = 1*10 - 1 (late), 21 = 2*10 + 1 (early): reduced sum 3, error 2.
  timeabs::Request req;
  req.thetas = {9, 21};
  req.error_budget = 2;
  req.signs = {ErrorSign::kEither, ErrorSign::kEither};
  const auto abs = timeabs::optimize(req);
  EXPECT_LE(abs.reduced_sum, 3u);
  for (std::size_t i = 0; i < req.thetas.size(); ++i) {
    EXPECT_EQ(static_cast<std::int64_t>(req.thetas[i]),
              static_cast<std::int64_t>(abs.reduced[i]) * abs.divisor +
                  abs.errors[i]);
    EXPECT_LT(std::abs(abs.errors[i]), static_cast<std::int64_t>(abs.divisor));
  }
}

TEST(TimeAbs, InvalidRequestsThrow) {
  timeabs::Request empty;
  EXPECT_THROW((void)timeabs::optimize(empty),
               speccc::util::InvalidInputError);

  timeabs::Request zero;
  zero.thetas = {0};
  EXPECT_THROW((void)timeabs::optimize(zero),
               speccc::util::InvalidInputError);

  timeabs::Request bad_signs;
  bad_signs.thetas = {3, 5};
  bad_signs.signs = {ErrorSign::kEarly};
  EXPECT_THROW((void)timeabs::optimize(bad_signs),
               speccc::util::InvalidInputError);
}

TEST(TimeAbs, SolutionAlwaysExistsWithZeroBudget) {
  // d = 1 is always feasible, so optimize never fails on valid input.
  timeabs::Request req;
  req.thetas = {13, 17, 19};
  req.error_budget = 0;
  const auto abs = timeabs::optimize(req);
  EXPECT_EQ(abs.divisor, 1u);
  EXPECT_EQ(abs.reduced_sum, 13u + 17u + 19u);
}

TEST(TimeAbs, LargestDurationReducesToOneTick) {
  // max_theta + 1 does not fit in 32 bits; the scan bound must not wrap.
  timeabs::Request req;
  req.thetas = {4294967295u};
  req.error_budget = 5;
  const auto abs = timeabs::optimize(req);
  EXPECT_EQ(abs.divisor, 4294967295u);
  EXPECT_EQ(abs.reduced, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(abs.errors, (std::vector<std::int64_t>{0}));
}

TEST(TimeAbs, LongDeadlineBesideAShortOneKeepsTheShortDivisor) {
  // Only divisors of 3000000 +- r (r <= B) are solved for; 7 must divide
  // exactly, so d = 7 with 3000000 = 428571 * 7 + 3.
  timeabs::Request req;
  req.thetas = {7, 3000000};
  req.error_budget = 5;
  const auto abs = timeabs::optimize(req);
  EXPECT_EQ(abs.divisor, 7u);
  EXPECT_EQ(abs.reduced, (std::vector<std::uint32_t>{1, 428571}));
  EXPECT_EQ(abs.errors, (std::vector<std::int64_t>{0, 3}));
}

TEST(TimeAbs, TickMapperRemapsThetasAndKeepsOtherCounts) {
  timeabs::Request req;
  req.thetas = {3, 180, 60};
  req.error_budget = 5;
  const auto abs = timeabs::optimize(req);
  const auto map = timeabs::tick_mapper(req.thetas, abs);
  EXPECT_EQ(map(3), 0u);
  EXPECT_EQ(map(180), 3u);
  EXPECT_EQ(map(60), 1u);
  EXPECT_EQ(map(0), 0u);
  EXPECT_EQ(map(61), 61u);
}

// Brute-force reference for the constraint system (1)-(2), independent of
// the solver's per-divisor decomposition: every divisor d up to twice the
// largest theta, and for each theta every theta' whose error
// Delta = theta - theta' * d satisfies |Delta| < d and the sign rule, then
// every combination within the budget. Keeps the lexicographically least
// (sum theta', sum |Delta|) and, among those, the smallest d.
struct BruteOptimum {
  std::uint64_t reduced_sum = 0;
  std::uint64_t error_sum = 0;
  std::uint32_t divisor = 0;
};

bool sign_allows(ErrorSign sign, std::int64_t delta) {
  switch (sign) {
    case ErrorSign::kEarly:
      return delta >= 0;
    case ErrorSign::kLate:
      return delta <= 0;
    case ErrorSign::kEither:
      return true;
  }
  return false;
}

std::optional<BruteOptimum> brute_force(const timeabs::Request& req) {
  std::uint32_t max_theta = 0;
  for (std::uint32_t theta : req.thetas) max_theta = std::max(max_theta, theta);
  std::optional<BruteOptimum> best;
  for (std::uint32_t d = 1; d <= 2 * max_theta + 2; ++d) {
    // Per theta: the (theta', |Delta|) pairs the constraints admit.
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> choices;
    for (std::size_t i = 0; i < req.thetas.size(); ++i) {
      const auto theta = static_cast<std::int64_t>(req.thetas[i]);
      choices.emplace_back();
      for (std::int64_t reduced = 0; reduced <= theta + 1; ++reduced) {
        const std::int64_t delta = theta - reduced * d;
        if (std::abs(delta) < static_cast<std::int64_t>(d) &&
            sign_allows(req.signs[i], delta)) {
          choices.back().emplace_back(
              static_cast<std::uint64_t>(reduced),
              static_cast<std::uint64_t>(std::abs(delta)));
        }
      }
    }
    // Odometer over the cartesian product of the per-theta choices.
    std::vector<std::size_t> pick(choices.size(), 0);
    bool empty = false;
    for (const auto& c : choices) empty = empty || c.empty();
    while (!empty) {
      std::uint64_t reduced_sum = 0;
      std::uint64_t error_sum = 0;
      for (std::size_t i = 0; i < choices.size(); ++i) {
        reduced_sum += choices[i][pick[i]].first;
        error_sum += choices[i][pick[i]].second;
      }
      if (error_sum <= req.error_budget &&
          (!best || reduced_sum < best->reduced_sum ||
           (reduced_sum == best->reduced_sum && error_sum < best->error_sum))) {
        best = BruteOptimum{reduced_sum, error_sum, d};
      }
      std::size_t k = 0;
      while (k < pick.size() && ++pick[k] == choices[k].size()) pick[k++] = 0;
      if (k == pick.size()) break;
    }
  }
  return best;
}

// Property sweep: the solver reaches the brute-force optimum, picks the
// smallest optimal divisor, and its witness satisfies the constraint
// system.
class BruteForceAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BruteForceAgreementTest, OptimizeMatchesBruteForce) {
  const auto [seed, budget] = GetParam();
  speccc::util::Rng rng(static_cast<std::uint64_t>(seed) * 31337 + 5);
  timeabs::Request req;
  const int n = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < n; ++i) {
    req.thetas.push_back(1 + static_cast<std::uint32_t>(rng.below(40)));
    const auto s = rng.below(3);
    req.signs.push_back(s == 0   ? ErrorSign::kEarly
                        : s == 1 ? ErrorSign::kLate
                                 : ErrorSign::kEither);
  }
  req.error_budget = static_cast<std::uint32_t>(budget);

  const auto abs = timeabs::optimize(req);
  const auto brute = brute_force(req);
  ASSERT_TRUE(brute.has_value()) << "d = 1 is always feasible";
  EXPECT_EQ(abs.reduced_sum, brute->reduced_sum) << "primary objective mismatch";
  EXPECT_EQ(abs.error_sum, brute->error_sum) << "secondary objective mismatch";
  EXPECT_EQ(abs.divisor, brute->divisor) << "not the smallest optimal divisor";

  ASSERT_EQ(abs.reduced.size(), req.thetas.size());
  ASSERT_EQ(abs.errors.size(), req.thetas.size());
  std::uint64_t reduced = 0;
  std::uint64_t err = 0;
  for (std::size_t i = 0; i < req.thetas.size(); ++i) {
    EXPECT_EQ(static_cast<std::int64_t>(req.thetas[i]),
              static_cast<std::int64_t>(abs.reduced[i]) * abs.divisor +
                  abs.errors[i]);
    EXPECT_LT(std::abs(abs.errors[i]), static_cast<std::int64_t>(abs.divisor));
    EXPECT_TRUE(sign_allows(req.signs[i], abs.errors[i])) << "theta " << i;
    reduced += abs.reduced[i];
    err += static_cast<std::uint64_t>(std::abs(abs.errors[i]));
  }
  EXPECT_EQ(reduced, abs.reduced_sum);
  EXPECT_EQ(err, abs.error_sum);
  EXPECT_LE(err, req.error_budget);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BruteForceAgreementTest,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Values(0, 3, 8)));

}  // namespace
