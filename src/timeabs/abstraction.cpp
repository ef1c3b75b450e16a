#include "timeabs/abstraction.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

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
/// Computed in 64 bits: d reaches max_theta + 1, one past 32 bits.
struct Option {
  std::uint64_t reduced;
  std::uint64_t abs_error;
  bool early;
};

Option early_option(std::uint64_t theta, std::uint64_t d) {
  return {theta / d, theta % d, true};
}

/// Decomposition with Delta <= 0: theta' = ceil(theta/d), delta = theta'*d -
/// theta; only valid when delta < d (always true unless theta % d == 0, in
/// which case it degenerates to the exact decomposition).
Option late_option(std::uint64_t theta, std::uint64_t d) {
  const std::uint64_t q = (theta + d - 1) / d;
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
                                             std::uint64_t d) {
  const std::size_t n = request.thetas.size();

  // Collect per-theta candidate options (one or two each), rejecting d at
  // once when even the smallest errors overrun the budget.
  struct Choices {
    Option option[2];
    std::size_t count = 0;
  };
  std::vector<Choices> options(n);
  std::uint64_t least_error = 0;
  std::uint64_t most_error = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t theta = request.thetas[i];
    const ErrorSign sign = sign_of(request, i);
    Choices& c = options[i];
    if (sign == ErrorSign::kEarly || sign == ErrorSign::kEither) {
      c.option[c.count++] = early_option(theta, d);
    }
    if (sign == ErrorSign::kLate || sign == ErrorSign::kEither) {
      const Option late = late_option(theta, d);
      // Skip the duplicate when theta divides exactly.
      if (c.count == 0 || late.abs_error != c.option[0].abs_error ||
          late.reduced != c.option[0].reduced) {
        c.option[c.count++] = late;
      }
    }
    least_error += c.count == 1 ? c.option[0].abs_error
                                : std::min(c.option[0].abs_error, c.option[1].abs_error);
    most_error += c.count == 1 ? c.option[0].abs_error
                               : std::max(c.option[0].abs_error, c.option[1].abs_error);
  }
  if (least_error > request.error_budget) return std::nullopt;
  // No choice of options spends more than most_error, so the DP needs no
  // wider table (a huge B would otherwise allocate B + 1 cells).
  const std::uint64_t budget = std::min<std::uint64_t>(request.error_budget, most_error);

  // DP over budget: best[b] = lexicographically minimal (sum theta',
  // sum delta) using error budget exactly b; pick[i * width + b] records
  // the option theta_i took to reach b, so the winner is traced back at
  // the end.
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  struct Cell {
    std::uint64_t reduced_sum = kInf;
    std::uint64_t error_sum = kInf;
  };
  const std::size_t width = static_cast<std::size_t>(budget) + 1;
  std::vector<Cell> best(width);
  std::vector<Cell> next(width);
  best[0] = {0, 0};
  std::vector<std::uint8_t> pick(n * width);

  for (std::size_t i = 0; i < n; ++i) {
    std::fill(next.begin(), next.end(), Cell{});
    for (std::size_t b = 0; b < width; ++b) {
      const Cell& cur = best[b];
      if (cur.reduced_sum == kInf) continue;
      for (std::size_t k = 0; k < options[i].count; ++k) {
        const Option& opt = options[i].option[k];
        const std::uint64_t nb = b + opt.abs_error;
        if (nb > budget) continue;
        const Cell cand{cur.reduced_sum + opt.reduced, cur.error_sum + opt.abs_error};
        Cell& slot = next[nb];
        const bool better =
            slot.reduced_sum == kInf || cand.reduced_sum < slot.reduced_sum ||
            (cand.reduced_sum == slot.reduced_sum &&
             cand.error_sum < slot.error_sum);
        if (better) {
          slot = cand;
          pick[i * width + nb] = static_cast<std::uint8_t>(k);
        }
      }
    }
    std::swap(best, next);
  }

  // Pick the best cell across budgets.
  std::optional<std::size_t> winner;
  for (std::size_t b = 0; b < width; ++b) {
    const Cell& cell = best[b];
    if (cell.reduced_sum == kInf) continue;
    const bool better =
        !winner || cell.reduced_sum < best[*winner].reduced_sum ||
        (cell.reduced_sum == best[*winner].reduced_sum &&
         cell.error_sum < best[*winner].error_sum);
    if (better) winner = b;
  }
  if (!winner) return std::nullopt;

  Abstraction out;
  out.divisor = static_cast<std::uint32_t>(d);
  out.reduced_sum = best[*winner].reduced_sum;
  out.error_sum = best[*winner].error_sum;
  out.reduced.resize(n);
  out.errors.resize(n);
  std::size_t b = *winner;
  for (std::size_t i = n; i-- > 0;) {
    const Option& opt = options[i].option[pick[i * width + b]];
    out.reduced[i] = static_cast<std::uint32_t>(opt.reduced);
    out.errors[i] = opt.early ? static_cast<std::int64_t>(opt.abs_error)
                              : -static_cast<std::int64_t>(opt.abs_error);
    b -= opt.abs_error;
  }
  return out;
}

/// Appends the divisors of n (n >= 1) that do not exceed `limit`.
void append_divisors(std::uint64_t n, std::uint64_t limit,
                     std::vector<std::uint64_t>& out) {
  for (std::uint64_t k = 1; k * k <= n; ++k) {
    if (n % k != 0) continue;
    if (k <= limit) out.push_back(k);
    if (n / k != k && n / k <= limit) out.push_back(n / k);
  }
}

/// Every divisor in [1, max_theta + 1] that can keep the error in budget,
/// ascending. A feasible d <= max_theta gives max_theta a quotient
/// theta' >= 1 with error r <= min(B, max_theta - 1), so d divides
/// max_theta - r or max_theta + r; the one d beyond that is max_theta + 1,
/// where every theta can abstract to 0. O(B sqrt(theta)) work instead of
/// O(theta).
std::vector<std::uint64_t> feasible_divisors(std::uint64_t max_theta,
                                             std::uint64_t budget) {
  std::vector<std::uint64_t> out;
  const std::uint64_t max_error = std::min(budget, max_theta - 1);
  for (std::uint64_t r = 0; r <= max_error; ++r) {
    append_divisors(max_theta - r, max_theta, out);
    append_divisors(max_theta + r, max_theta, out);
  }
  out.push_back(max_theta + 1);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Abstraction optimize(const Request& request) {
  validate(request);
  const std::uint64_t max_theta =
      *std::max_element(request.thetas.begin(), request.thetas.end());
  std::optional<Abstraction> best;
  // d beyond max_theta + 1 only increases errors (every theta collapses to
  // theta' = 0 already at d = max_theta + 1 if the budget allows; larger d
  // changes nothing), so the candidates stop there, in 64 bits. Ascending
  // d with a strict improvement test keeps the smallest optimal divisor.
  for (const std::uint64_t d : feasible_divisors(max_theta, request.error_budget)) {
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

std::function<std::uint32_t(std::uint32_t)> tick_mapper(
    const std::vector<std::uint32_t>& thetas, const Abstraction& abstraction) {
  speccc_check(thetas.size() == abstraction.reduced.size(),
               "abstraction does not match its thetas");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> remap;
  remap.reserve(thetas.size());
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    remap.emplace_back(thetas[i], abstraction.reduced[i]);
  }
  std::sort(remap.begin(), remap.end());
  return [remap = std::move(remap)](std::uint32_t ticks) {
    const auto it = std::lower_bound(
        remap.begin(), remap.end(), ticks,
        [](const auto& entry, std::uint32_t key) { return entry.first < key; });
    return it != remap.end() && it->first == ticks ? it->second : ticks;
  };
}

}  // namespace speccc::timeabs
