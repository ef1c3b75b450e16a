// Inconsistency diagnosis: minimal inconsistent subsets (MUS) and minimal
// correction sets (MCS) over requirement indices.
//
// The engine is oracle-driven: a CoreOracle answers "is this subset of the
// requirements consistent?", and on inconsistency may return a smaller
// inconsistent core of the query (the synthesis oracle just echoes the
// query; a finer core lets MUS shrinking jump past innocent elements).
// Both algorithms rest on the monotonicity of consistency under subsets
// -- every subset of a consistent (realizable) conjunction is consistent
// -- which holds for realizability under a fixed I/O signature and for
// satisfiability alike:
//
//   * shrink_mus: deletion-based MUS extraction with core jumps. Each
//     round either proves one element necessary (removing it restores
//     consistency) or replaces the candidate set by the oracle's smaller
//     core, so a MUS costs at most 2n oracle calls. Necessity proofs
//     carry over shrinking: a set that was consistent stays consistent
//     when further elements are dropped.
//
//   * correction_sets: the linear-search MaxSAT loop (cf. abc-zz
//     ZZ/MaxSat). Each rotation greedily grows a maximal satisfiable
//     subset (MSS) from a different starting element; its complement is a
//     minimal correction set -- removing it restores consistency, and no
//     proper subset of it does, by the MSS's maximality.
//
// Everything is deterministic: same requirements, same oracle, same
// diagnosis, byte for byte. That is what lets batch reports carry MUS and
// MCS output inside the canonical (jobs-independent, cache-independent)
// form.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "ltl/formula.hpp"
#include "synth/synthesizer.hpp"

namespace speccc::diag {

/// Consistency oracle over subsets of requirement indices. Returns nullopt
/// when the subset is consistent; otherwise an inconsistent core that is a
/// subset of the query (at worst the query itself, echoed back).
using CoreOracle = std::function<std::optional<std::vector<std::size_t>>(
    const std::vector<std::size_t>&)>;

struct Options {
  /// Minimal correction sets to enumerate (0 disables the MaxSAT loop).
  /// The rotation search finds at most one MCS per requirement, so "up to
  /// N" may under-enumerate specs with many disjoint repairs.
  std::size_t max_correction_sets = 4;
};

struct Diagnosis {
  /// A minimal inconsistent subset: inconsistent as-is, consistent when
  /// any single element is dropped. Empty iff the full set is consistent.
  std::vector<std::size_t> mus;
  /// Minimal correction sets, smallest first (ties lexicographic):
  /// removing any one restores consistency, and each is minimal with that
  /// property. Disjoint from each other only by accident -- they are
  /// alternative repairs, not a partition.
  std::vector<std::vector<std::size_t>> correction_sets;
  /// Oracle calls performed.
  std::size_t checks = 0;

  [[nodiscard]] bool consistent() const { return mus.empty(); }
};

/// Shrink an inconsistent candidate set to a MUS. Precondition: the oracle
/// reports `candidates` inconsistent. `checks` is incremented per oracle
/// call.
[[nodiscard]] std::vector<std::size_t> shrink_mus(
    std::vector<std::size_t> candidates, const CoreOracle& oracle,
    std::size_t& checks);

/// Enumerate up to `max_sets` minimal correction sets of an inconsistent
/// universe by the rotation/grow loop. Precondition: `universe` is
/// inconsistent (otherwise the result is empty).
[[nodiscard]] std::vector<std::vector<std::size_t>> correction_sets(
    const std::vector<std::size_t>& universe, const CoreOracle& oracle,
    std::size_t max_sets, std::size_t& checks);

/// Full diagnosis of requirements {0, ..., num_requirements-1}: one oracle
/// call on the universe, then MUS shrinking and MCS enumeration when it is
/// inconsistent.
[[nodiscard]] Diagnosis diagnose(std::size_t num_requirements,
                                 const CoreOracle& oracle,
                                 const Options& options = {});

/// synth::synthesize's verdict under `options`, polling
/// options.cancelled (the pipeline installs its run's CancelFn
/// there).
[[nodiscard]] synth::Decide synthesize_decide(
    synth::SynthesisOptions options = {});

/// Oracle over realizability: a subset is consistent iff `decide` finds
/// the conjunction of its formulas realizable under the (fixed) signature.
/// kUnknown counts as inconsistent, matching refine's conservative
/// reading. No real cores -- inconsistent queries are echoed back.
[[nodiscard]] CoreOracle synthesis_oracle(
    std::vector<ltl::Formula> requirements, synth::IoSignature signature,
    synth::Decide decide = synthesize_decide());

}  // namespace speccc::diag
