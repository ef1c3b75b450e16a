#include "diag/diag.hpp"

#include <algorithm>
#include <set>

#include "util/diagnostics.hpp"

namespace speccc::diag {

namespace {

/// `sorted` minus one element, order preserved.
std::vector<std::size_t> without(const std::vector<std::size_t>& sorted,
                                 std::size_t element) {
  std::vector<std::size_t> out;
  out.reserve(sorted.size() - 1);
  for (std::size_t e : sorted) {
    if (e != element) out.push_back(e);
  }
  return out;
}

}  // namespace

std::vector<std::size_t> shrink_mus(std::vector<std::size_t> candidates,
                                    const CoreOracle& oracle,
                                    std::size_t& checks) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Necessity proofs survive shrinking: once candidates \ {e} tested
  // consistent, every later candidate set is a subset of it, so dropping e
  // from that too stays consistent -- e remains necessary.
  std::set<std::size_t> proven;
  for (;;) {
    const auto next = std::find_if(
        candidates.begin(), candidates.end(),
        [&proven](std::size_t e) { return proven.count(e) == 0; });
    if (next == candidates.end()) break;
    const std::size_t e = *next;
    ++checks;
    if (const auto core = oracle(without(candidates, e))) {
      // Still inconsistent without e: jump to the (possibly much smaller)
      // returned core. A sound core cannot have dropped a proven element:
      // the set minus that element is consistent, and cores are
      // inconsistent. (An empty core means even the empty set is
      // inconsistent -- hard constraints alone -- and the MUS is empty.)
      candidates = *core;
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
    } else {
      proven.insert(e);
    }
  }
  return candidates;
}

std::vector<std::vector<std::size_t>> correction_sets(
    const std::vector<std::size_t>& universe, const CoreOracle& oracle,
    std::size_t max_sets, std::size_t& checks) {
  std::vector<std::vector<std::size_t>> out;
  const std::size_t n = universe.size();
  if (n == 0 || max_sets == 0) return out;

  // One grow pass per rotation start: different starting elements reach
  // different maximal satisfiable subsets, hence different complements.
  for (std::size_t start = 0; start < n && out.size() < max_sets; ++start) {
    std::vector<std::size_t> mss;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t e = universe[(start + k) % n];
      std::vector<std::size_t> trial = mss;
      trial.insert(std::upper_bound(trial.begin(), trial.end(), e), e);
      ++checks;
      if (!oracle(trial)) mss = std::move(trial);
    }
    // The complement of a maximal satisfiable subset is a minimal
    // correction set: removing it restores consistency (the MSS is
    // consistent), and re-adding any of its elements breaks it again (the
    // grow pass tried each against a subset of the final MSS, and
    // inconsistency is upward monotone).
    std::vector<std::size_t> mcs;
    for (std::size_t e : universe) {
      if (!std::binary_search(mss.begin(), mss.end(), e)) mcs.push_back(e);
    }
    std::sort(mcs.begin(), mcs.end());
    if (!mcs.empty() &&
        std::find(out.begin(), out.end(), mcs) == out.end()) {
      out.push_back(std::move(mcs));
    }
  }

  // Canonical order: smallest repairs first, ties lexicographic.
  std::sort(out.begin(), out.end(),
            [](const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
              return a.size() != b.size() ? a.size() < b.size() : a < b;
            });
  return out;
}

Diagnosis diagnose(std::size_t num_requirements, const CoreOracle& oracle,
                   const Options& options) {
  Diagnosis diagnosis;
  std::vector<std::size_t> universe(num_requirements);
  for (std::size_t i = 0; i < num_requirements; ++i) universe[i] = i;

  ++diagnosis.checks;
  const auto core = oracle(universe);
  if (!core) return diagnosis;  // consistent: empty mus, no correction sets

  diagnosis.mus = shrink_mus(*core, oracle, diagnosis.checks);
  diagnosis.correction_sets = correction_sets(
      universe, oracle, options.max_correction_sets, diagnosis.checks);
  return diagnosis;
}

synth::Decide synthesize_decide(synth::SynthesisOptions options) {
  return [options = std::move(options)](
             const std::vector<ltl::Formula>& formulas,
             const synth::IoSignature& signature) {
    return synth::synthesize(formulas, signature, options).verdict;
  };
}

CoreOracle synthesis_oracle(std::vector<ltl::Formula> requirements,
                            synth::IoSignature signature,
                            synth::Decide decide) {
  return [requirements = std::move(requirements),
          signature = std::move(signature), decide = std::move(decide)](
             const std::vector<std::size_t>& subset)
             -> std::optional<std::vector<std::size_t>> {
    if (subset.empty()) return std::nullopt;  // empty conjunction: realizable
    std::vector<ltl::Formula> formulas;
    formulas.reserve(subset.size());
    for (std::size_t i : subset) {
      speccc_check(i < requirements.size(), "oracle subset index out of range");
      formulas.push_back(requirements[i]);
    }
    if (decide(formulas, signature) == synth::Realizability::kRealizable) {
      return std::nullopt;
    }
    return subset;  // no finer core available: echo the query
  };
}

}  // namespace speccc::diag
