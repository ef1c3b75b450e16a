#include "timeabs/abstraction.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>

namespace speccc::timeabs {

namespace {

void validate(const Request& request) {
  if (request.thetas.empty()) {
    throw util::InvalidInputError("time abstraction requires at least one theta");
  }
  for (std::uint32_t theta : request.thetas) {
    if (theta == 0) {
      throw util::InvalidInputError("Next-chain lengths must be >= 1");
    }
  }
  if (!request.signs.empty() && request.signs.size() != request.thetas.size()) {
    throw util::InvalidInputError("signs must be empty or match thetas in size");
  }
}

ErrorSign sign_of(const Request& request, std::size_t i) {
  return request.signs.empty() ? ErrorSign::kEarly : request.signs[i];
}

/// The unique decomposition of theta for divisor d with Delta >= 0:
/// theta' = floor(theta/d), delta = theta mod d.
struct Option {
  std::uint32_t reduced;
  std::uint32_t abs_error;
  bool early;
};

Option early_option(std::uint32_t theta, std::uint32_t d) {
  return {theta / d, theta % d, true};
}

/// Decomposition with Delta <= 0: theta' = ceil(theta/d), delta = theta'*d -
/// theta; only valid when delta < d (always true unless theta % d == 0, in
/// which case it degenerates to the exact decomposition).
Option late_option(std::uint32_t theta, std::uint32_t d) {
  const std::uint32_t q = (theta + d - 1) / d;
  return {q, q * d - theta, false};
}

}  // namespace

Abstraction gcd_abstraction(const std::vector<std::uint32_t>& thetas) {
  if (thetas.empty()) {
    throw util::InvalidInputError("time abstraction requires at least one theta");
  }
  std::uint32_t g = 0;
  for (std::uint32_t theta : thetas) {
    if (theta == 0) {
      throw util::InvalidInputError("Next-chain lengths must be >= 1");
    }
    g = std::gcd(g, theta);
  }
  Abstraction out;
  out.divisor = g;
  out.errors.assign(thetas.size(), 0);
  out.error_sum = 0;
  for (std::uint32_t theta : thetas) {
    out.reduced.push_back(theta / g);
    out.reduced_sum += theta / g;
  }
  return out;
}

namespace {

/// For a fixed divisor, pick per-theta options to lexicographically minimize
/// (sum theta', sum delta) subject to sum delta <= budget. With fixed signs
/// the options are forced; with kEither this is a tiny knapsack solved by
/// dynamic programming over the budget.
std::optional<Abstraction> solve_for_divisor(const Request& request,
                                             std::uint32_t d) {
  const std::size_t n = request.thetas.size();
  const std::uint64_t budget = request.error_budget;

  // Collect per-theta candidate options.
  std::vector<std::vector<Option>> options(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t theta = request.thetas[i];
    const ErrorSign sign = sign_of(request, i);
    if (sign == ErrorSign::kEarly || sign == ErrorSign::kEither) {
      options[i].push_back(early_option(theta, d));
    }
    if (sign == ErrorSign::kLate || sign == ErrorSign::kEither) {
      const Option late = late_option(theta, d);
      // Skip the duplicate when theta divides exactly.
      if (options[i].empty() || late.abs_error != options[i].front().abs_error ||
          late.reduced != options[i].front().reduced) {
        options[i].push_back(late);
      }
    }
  }

  // DP over budget: best[b] = lexicographically minimal (sum theta',
  // sum delta, choice trace) using error budget exactly <= b.
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  struct Cell {
    std::uint64_t reduced_sum = kInf;
    std::uint64_t error_sum = kInf;
    std::vector<std::uint8_t> choice;
  };
  std::vector<Cell> best(static_cast<std::size_t>(budget) + 1);
  best[0] = {0, 0, {}};

  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Cell> next(budget + 1);
    for (std::size_t b = 0; b <= budget; ++b) {
      const Cell& cur = best[b];
      if (cur.reduced_sum == kInf) continue;
      for (std::size_t k = 0; k < options[i].size(); ++k) {
        const Option& opt = options[i][k];
        const std::uint64_t nb = b + opt.abs_error;
        if (nb > budget) continue;
        Cell cand;
        cand.reduced_sum = cur.reduced_sum + opt.reduced;
        cand.error_sum = cur.error_sum + opt.abs_error;
        Cell& slot = next[nb];
        const bool better =
            slot.reduced_sum == kInf || cand.reduced_sum < slot.reduced_sum ||
            (cand.reduced_sum == slot.reduced_sum &&
             cand.error_sum < slot.error_sum);
        if (better) {
          cand.choice = cur.choice;
          cand.choice.push_back(static_cast<std::uint8_t>(k));
          slot = std::move(cand);
        }
      }
    }
    best = std::move(next);
  }

  // Pick the best cell across budgets.
  const Cell* winner = nullptr;
  for (std::size_t b = 0; b <= budget; ++b) {
    const Cell& cell = best[b];
    if (cell.reduced_sum == kInf) continue;
    const bool better =
        winner == nullptr || cell.reduced_sum < winner->reduced_sum ||
        (cell.reduced_sum == winner->reduced_sum &&
         cell.error_sum < winner->error_sum);
    if (better) winner = &cell;
  }
  if (winner == nullptr) return std::nullopt;

  Abstraction out;
  out.divisor = d;
  out.reduced_sum = winner->reduced_sum;
  out.error_sum = winner->error_sum;
  for (std::size_t i = 0; i < n; ++i) {
    const Option& opt = options[i][winner->choice[i]];
    out.reduced.push_back(opt.reduced);
    out.errors.push_back(opt.early ? static_cast<std::int64_t>(opt.abs_error)
                                   : -static_cast<std::int64_t>(opt.abs_error));
  }
  return out;
}

}  // namespace

Abstraction optimize(const Request& request) {
  validate(request);
  const std::uint32_t max_theta =
      *std::max_element(request.thetas.begin(), request.thetas.end());
  std::optional<Abstraction> best;
  // d beyond max_theta only increases errors (every theta collapses to
  // theta'=0 already at d = max_theta+1 if the budget allows; larger d
  // changes nothing), so the scan is bounded by max_theta + 1. Ascending
  // d with a strict improvement test keeps the smallest optimal divisor.
  for (std::uint32_t d = 1; d <= max_theta + 1; ++d) {
    auto candidate = solve_for_divisor(request, d);
    if (!candidate) continue;
    const bool better =
        !best || candidate->reduced_sum < best->reduced_sum ||
        (candidate->reduced_sum == best->reduced_sum &&
         candidate->error_sum < best->error_sum);
    if (better) best = std::move(candidate);
  }
  speccc_check(best.has_value(), "d = 1 always decomposes with zero error");
  return *std::move(best);
}

}  // namespace speccc::timeabs
