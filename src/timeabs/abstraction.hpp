// Time counting and abstraction (paper Section IV-E).
//
// Requirements with timing constraints ("... in 3 seconds") translate to
// chains of Next operators; long chains blow up synthesis. This module
// rewrites the chain lengths Theta = {theta_0..theta_n}:
//
//   * gcd_abstraction: divide every theta by gcd(Theta) -- sound (exactly
//     realizability-preserving) but conservative.
//   * optimize: the paper's constraint system (1)-(2),
//         theta_i = theta'_i * d + Delta_i,   -d < Delta_i < d,
//     with a per-requirement arrival-error sign (early: Delta >= 0, late:
//     Delta <= 0, or either), a user bound B on sum |Delta_i|, primary
//     objective min sum theta'_i and secondary objective min sum |Delta_i|.
//
// optimize solves it exactly by enumerating the divisor d (only
// max_theta + 1 and the divisors of max_theta +- r for r <= B can keep the
// error in budget): for a fixed d and sign the decomposition is unique,
// and the "either" sign becomes a small lexicographic knapsack over the
// error budget. Among optimal divisors the smallest wins, so the
// abstraction is unique. (The paper hands the same system to Yices 2;
// enumeration is exact, so no solver is needed.)
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/diagnostics.hpp"

namespace speccc::timeabs {

enum class ErrorSign {
  kEarly,   // Delta_i >= 0: the event may arrive earlier after rewriting
  kLate,    // Delta_i <= 0: the event may arrive later
  kEither,  // solver chooses (still one-sided per requirement)
};

struct Request {
  /// Distinct Next-chain lengths, all >= 1.
  std::vector<std::uint32_t> thetas;
  /// Upper bound B on the summed absolute errors.
  std::uint32_t error_budget = 0;
  /// Per-theta sign restriction; empty means kEarly for all (the paper's
  /// running example).
  std::vector<ErrorSign> signs;
};

struct Abstraction {
  std::uint32_t divisor = 1;           // d
  std::vector<std::uint32_t> reduced;  // theta'_i
  std::vector<std::int64_t> errors;    // Delta_i (signed)
  std::uint64_t reduced_sum = 0;       // sum theta'_i (primary objective)
  std::uint64_t error_sum = 0;         // sum |Delta_i| (secondary objective)
};

/// GCD reduction: divisor = gcd(Theta), all errors zero. Requires a
/// non-empty theta list.
[[nodiscard]] Abstraction gcd_abstraction(const std::vector<std::uint32_t>& thetas);

/// Solve the optimization problem: minimal (sum theta', sum |Delta|), then
/// the smallest divisor reaching it. Always succeeds on a valid request
/// (d = 1 yields zero error); an invalid one -- empty thetas, a zero
/// theta, or signs that do not match thetas in size -- throws
/// util::InvalidInputError.
[[nodiscard]] Abstraction optimize(const Request& request);

/// The Next-chain remap an abstraction of `thetas` implies: thetas[i]
/// becomes abstraction.reduced[i], any other count is kept. The one place
/// a caller turns optimize()'s answer into the translator's tick mapper.
[[nodiscard]] std::function<std::uint32_t(std::uint32_t)> tick_mapper(
    const std::vector<std::uint32_t>& thetas, const Abstraction& abstraction);

/// The end-to-end benchmark's stage replica (perfbench/driver.cpp) still
/// names the retired back-end choice. These one-value enums and the
/// forwarding overload keep it building; they go with the replica.
enum class Backend { kEnumeration };
enum class SmtEncoder { kCutMap };
[[nodiscard]] inline Abstraction optimize(const Request& request, Backend,
                                          SmtEncoder) {
  return optimize(request);
}

}  // namespace speccc::timeabs
