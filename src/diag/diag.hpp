// Inconsistency diagnosis: minimal inconsistent subsets (MUS) and minimal
// correction sets (MCS) over requirement indices.
//
// The engine is oracle-driven: a CoreOracle answers "is this subset of the
// requirements consistent?", and on inconsistency returns an inconsistent
// core of the query (a finer core lets MUS shrinking jump past innocent
// elements). The product's oracle is RealizabilityOracle below: it splits
// every question into output-connected components and returns the union
// of the unrealizable ones. Both algorithms rest on the monotonicity of
// consistency under subsets -- every subset of a consistent (realizable)
// conjunction is consistent -- which holds for realizability under a fixed
// I/O signature and for satisfiability alike:
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
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ltl/formula.hpp"
#include "synth/synthesizer.hpp"

namespace speccc::diag {

/// Consistency oracle over subsets of requirement indices. Returns nullopt
/// when the subset is consistent; otherwise an inconsistent core that is a
/// subset of the query.
using CoreOracle = std::function<std::optional<std::vector<std::size_t>>(
    const std::vector<std::size_t>&)>;

/// Shrink an inconsistent candidate set to a MUS. Precondition: the oracle
/// reports `candidates` inconsistent. `checks` is incremented per oracle
/// call.
[[nodiscard]] std::vector<std::size_t> shrink_mus(
    std::vector<std::size_t> candidates, const CoreOracle& oracle,
    std::size_t& checks);

/// Enumerate up to `max_sets` minimal correction sets of an inconsistent
/// universe by the rotation/grow loop, smallest first (ties
/// lexicographic): removing any one restores consistency, and each is
/// minimal with that property -- alternative repairs, not a partition.
/// The rotation finds at most one set per element, so "up to N" may
/// under-enumerate specs with many disjoint repairs. Precondition:
/// `universe` is inconsistent (otherwise the result is empty).
[[nodiscard]] std::vector<std::vector<std::size_t>> correction_sets(
    const std::vector<std::size_t>& universe, const CoreOracle& oracle,
    std::size_t max_sets, std::size_t& checks);

/// Stage 3's realizability oracle over one run's requirements. A
/// question is a subset of requirement indices under an I/O signature.
/// It is split into output-connected components: union-find on shared
/// output propositions, where a requirement with no output is a component
/// of its own, ordered by smallest index. Requirement groups that share no
/// output are realizable together exactly when each group is (each
/// group's strategy reads every input and writes only its own outputs --
/// the conjunctive decomposition of Finkbeiner, Geier and Passing, NFM
/// 2021). So each component is decided alone by synth::synthesize, under
/// the signature restricted to its propositions in signature order, and
/// its verdict is memoized for the oracle's lifetime, keyed by the
/// component's indices and restricted inputs. The pipeline builds one
/// per stage 3; nothing outlives the run.
class RealizabilityOracle {
 public:
  explicit RealizabilityOracle(std::vector<ltl::Formula> requirements,
                               synth::SynthesisOptions options = {});

  /// nullopt when the conjunction of `subset` is realizable under
  /// `signature`; otherwise its core, the sorted union of its unrealizable
  /// components (a kUnknown verdict counts as unrealizable). Deletion shrinking ends at the same MUS as with the whole
  /// query as core: an element of a realizable component is necessary in
  /// no subset. Polls options.cancelled before each component it decides
  /// (util::CancelledError). Throws InternalError when a requirement of
  /// `subset` mentions a proposition missing from `signature`.
  [[nodiscard]] std::optional<std::vector<std::size_t>> core(
      const std::vector<std::size_t>& subset,
      const synth::IoSignature& signature);

  /// core() under one fixed signature. The result refers to this oracle,
  /// which must outlive it.
  [[nodiscard]] CoreOracle under(const synth::IoSignature& signature);

  /// Whether requirement i is satisfiable on its own: {i} with every
  /// proposition an output has no environment, so it is realizable exactly
  /// when i is satisfiable. Asks nothing when i belongs to a component
  /// already found realizable (realizability implies satisfiability).
  [[nodiscard]] bool satisfiable(std::size_t i);

  [[nodiscard]] const std::vector<ltl::Formula>& requirements() const {
    return requirements_;
  }
  /// Every proposition of the requirements, sorted; atom ids index it.
  [[nodiscard]] const std::vector<std::string>& atom_names() const {
    return atom_names_;
  }
  /// The atom ids of requirement i, ascending.
  [[nodiscard]] const std::vector<std::uint32_t>& atoms_of(std::size_t i) const {
    return atoms_of_[i];
  }
  /// synth::synthesize calls so far (memo misses).
  [[nodiscard]] std::size_t syntheses() const { return syntheses_; }

 private:
  /// Per atom id: its slot in a signature (inputs first, then outputs),
  /// or -1 when the signature lacks it; `num_inputs` splits the slots.
  struct Binding {
    std::vector<std::int32_t> slot;
    std::size_t num_inputs = 0;
  };
  [[nodiscard]] Binding bind(const synth::IoSignature& signature) const;
  [[nodiscard]] std::optional<std::vector<std::size_t>> core_under(
      std::vector<std::size_t> subset, const Binding& binding);
  /// The memoized verdict of one component; `inputs` and `outputs` are
  /// its restricted signature as atom ids, in signature order.
  bool realizable(const std::vector<std::size_t>& members,
                  const std::vector<std::uint32_t>& inputs,
                  const std::vector<std::uint32_t>& outputs);

  std::vector<ltl::Formula> requirements_;
  synth::SynthesisOptions options_;
  std::vector<std::string> atom_names_;
  std::vector<std::vector<std::uint32_t>> atoms_of_;
  /// Key: member indices, a separator, then the sorted input atom ids.
  std::map<std::vector<std::uint32_t>, bool> verdicts_;
  std::vector<bool> proven_satisfiable_;
  std::size_t syntheses_ = 0;
};

}  // namespace speccc::diag
