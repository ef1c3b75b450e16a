// Seeded random-input generators for the differential oracle harness and
// the generated corpora (speccc_batch / speccc_load --generate).
//
// Everything here is a pure function of a util::Rng stream, so a single
// 64-bit seed reproduces any generated formula, lasso, or specification
// scale bit-for-bit. case_seed derives one seed per case, which is what
// makes every reported harness failure a one-command reproduction. The
// generators build into the speccc library (the product tools draw their
// --generate corpora here); the oracles that check them do not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/generator.hpp"
#include "ltl/formula.hpp"
#include "ltl/trace.hpp"
#include "util/diagnostics.hpp"

namespace speccc::difftest {

/// Shape of random formulas: a proposition pool, a depth budget, and the
/// operator mix (temporal vs. boolean connectives, constant leaves).
struct FormulaConfig {
  std::vector<std::string> props = {"p", "q", "r"};
  std::size_t max_depth = 4;
  /// Chance (percent) that an inner node is temporal (X/F/G/U/W/R) rather
  /// than a boolean connective (!/&&/||/->/<->).
  unsigned temporal_percent = 55;
  /// Chance (percent) that a leaf is a constant (true/false) instead of a
  /// proposition.
  unsigned constant_percent = 8;
  /// Chance (percent) of cutting a branch short before max_depth, biasing
  /// toward small formulas so counterexamples start near minimal.
  unsigned early_leaf_percent = 20;
};

/// "p0", "p1", ... -- a pool of n distinct proposition names.
[[nodiscard]] std::vector<std::string> proposition_pool(std::size_t n);

/// Draw a random formula. Hash-consing may fold the draw into something
/// smaller than the nominal shape (e.g. p && p), which is fine: the oracle
/// properties are closed under simplification.
[[nodiscard]] ltl::Formula random_formula(util::Rng& rng,
                                          const FormulaConfig& config);

/// Shape of random ultimately periodic words.
struct LassoConfig {
  std::vector<std::string> props = {"p", "q", "r"};
  std::size_t max_prefix = 3;  // prefix length in [0, max_prefix]
  std::size_t max_loop = 4;    // loop length in [1, max_loop]
};

/// Draw a random lasso: each position is an independent uniform valuation
/// over the pool.
[[nodiscard]] ltl::Lasso random_lasso(util::Rng& rng, const LassoConfig& config);

/// Shape of random generated specifications, kept inside the bounded
/// engine's comfort zone (alphabet enumeration is exponential in I+O).
struct SpecConfig {
  int min_formulas = 3;
  int max_formulas = 7;
  int min_inputs = 2;
  int max_inputs = 3;
  int min_outputs = 2;
  int max_outputs = 3;
  unsigned response_percent = 25;  // F obligations
  unsigned timed_percent = 25;     // "in N seconds" deadlines
};

/// Draw a corpus::SpecScale; `seed` becomes the scale's own generator seed
/// so the sentence text is reproducible from the case seed alone.
[[nodiscard]] corpus::SpecScale random_scale(util::Rng& rng,
                                             const SpecConfig& config,
                                             std::string name,
                                             std::uint64_t seed);

/// Shape of planted-fault specifications: a consistent generated base spec
/// with known inconsistent sentence groups injected, the ground truth the
/// diag localization engine is tested against.
struct FaultConfig {
  /// Shape of the consistent base (corpus::generate_spec is realizable by
  /// construction: inputs only in antecedents, consequents positive
  /// except the dedicated negative-only slot).
  SpecConfig base;
  /// Faults per spec. At least 2 ("multi-fault"): a single-variable
  /// partition flip can dissolve one fault, but never two at once, so
  /// multi-fault specs are genuinely inconsistent end to end.
  int min_faults = 2;
  int max_faults = 4;
  /// Chance (percent) a fault is a 3-sentence implication chain (pairwise
  /// consistent, jointly inconsistent) instead of a direct 2-sentence
  /// contradiction.
  unsigned triple_percent = 35;
};

struct PlantedSpec {
  std::string name;
  std::vector<translate::RequirementText> requirements;
  /// Requirement indices (sorted) of each planted fault. Every fault uses
  /// its own fresh vocabulary, disjoint from the base and from the other
  /// faults, so requirement subsets decompose into independent games:
  /// every minimal inconsistent subset of the spec is exactly one of
  /// these index sets.
  std::vector<std::vector<std::size_t>> faults;
};

/// Generate a base spec and weave `FaultConfig`-many known inconsistent
/// sentence groups into it at random positions. `base_seed` becomes the
/// base scale's generator seed (cf. random_scale).
[[nodiscard]] PlantedSpec plant_faults(util::Rng& rng,
                                       const FaultConfig& config,
                                       std::string name,
                                       std::uint64_t base_seed);

enum class CaseKind { kFormula, kSpec, kPlanted, kFixed };

/// Derived per-case seed (splitmix64 of master seed and case index).
[[nodiscard]] std::uint64_t case_seed(std::uint64_t master_seed, CaseKind kind,
                                      int index);

/// The generated requirement texts of spec case `index` under
/// `master_seed` -- the single home of the scale/theme derivation, shared
/// by the harness's run(), speccc_batch --generate, and batch_test, so
/// "batch task k == fuzz spec case k" stays true by construction.
struct GeneratedSpec {
  std::string name;  // "fuzz<index>"
  std::vector<translate::RequirementText> requirements;
};
[[nodiscard]] GeneratedSpec generated_spec(std::uint64_t master_seed,
                                           int index,
                                           const SpecConfig& config = {});

/// Planted-fault spec case `index` under `master_seed`: a consistent base
/// spec with known inconsistent sentence groups woven in (see
/// plant_faults). Its own CaseKind salt, so planted cases never collide
/// with the ordinary spec stream of the same seed. This is the
/// ground-truth workload for the diag localization oracle tests.
[[nodiscard]] PlantedSpec generated_planted_spec(std::uint64_t master_seed,
                                                 int index,
                                                 const FaultConfig& config = {});

}  // namespace speccc::difftest
