#include "diag/diag.hpp"

#include <algorithm>
#include <limits>
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

RealizabilityOracle::RealizabilityOracle(std::vector<ltl::Formula> requirements,
                                         synth::SynthesisOptions options)
    : requirements_(std::move(requirements)),
      options_(std::move(options)),
      atoms_of_(requirements_.size()),
      proven_satisfiable_(requirements_.size(), false) {
  std::vector<std::set<std::string>> names;
  names.reserve(requirements_.size());
  std::set<std::string> all;
  for (const ltl::Formula& f : requirements_) {
    names.push_back(f.atoms());
    all.insert(names.back().begin(), names.back().end());
  }
  atom_names_.assign(all.begin(), all.end());
  for (std::size_t i = 0; i < requirements_.size(); ++i) {
    for (const std::string& name : names[i]) {
      atoms_of_[i].push_back(static_cast<std::uint32_t>(
          std::lower_bound(atom_names_.begin(), atom_names_.end(), name) -
          atom_names_.begin()));
    }
  }
}

RealizabilityOracle::Binding RealizabilityOracle::bind(
    const synth::IoSignature& signature) const {
  Binding binding;
  binding.slot.assign(atom_names_.size(), -1);
  binding.num_inputs = signature.inputs.size();
  std::int32_t slot = 0;
  for (const auto* names : {&signature.inputs, &signature.outputs}) {
    for (const std::string& name : *names) {
      const auto it =
          std::lower_bound(atom_names_.begin(), atom_names_.end(), name);
      if (it != atom_names_.end() && *it == name) {
        binding.slot[static_cast<std::size_t>(it - atom_names_.begin())] = slot;
      }
      ++slot;
    }
  }
  return binding;
}

std::optional<std::vector<std::size_t>> RealizabilityOracle::core(
    const std::vector<std::size_t>& subset,
    const synth::IoSignature& signature) {
  return core_under(subset, bind(signature));
}

CoreOracle RealizabilityOracle::under(const synth::IoSignature& signature) {
  return [this, binding = bind(signature)](
             const std::vector<std::size_t>& subset) {
    return core_under(subset, binding);
  };
}

std::optional<std::vector<std::size_t>> RealizabilityOracle::core_under(
    std::vector<std::size_t> subset, const Binding& binding) {
  std::sort(subset.begin(), subset.end());
  subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
  const std::size_t m = subset.size();

  // Union-find over positions in `subset`: requirements sharing an output
  // proposition join one component.
  std::vector<std::size_t> parent(m);
  for (std::size_t k = 0; k < m; ++k) parent[k] = k;
  const auto find = [&parent](std::size_t k) {
    while (parent[k] != k) k = parent[k] = parent[parent[k]];
    return k;
  };
  std::vector<std::size_t> owner(atom_names_.size(), m);
  for (std::size_t k = 0; k < m; ++k) {
    speccc_check(subset[k] < requirements_.size(),
                 "oracle subset index out of range");
    for (std::uint32_t a : atoms_of_[subset[k]]) {
      const std::int32_t slot = binding.slot[a];
      speccc_check(slot >= 0, "requirement mentions proposition '" +
                                  atom_names_[a] +
                                  "' missing from the signature");
      if (static_cast<std::size_t>(slot) < binding.num_inputs) continue;
      if (owner[a] == m) {
        owner[a] = k;
      } else {
        parent[find(k)] = find(owner[a]);
      }
    }
  }

  // Components in order of their smallest index.
  std::vector<std::size_t> component_of(m, m);
  std::vector<std::vector<std::size_t>> components;
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t root = find(k);
    if (component_of[root] == m) {
      component_of[root] = components.size();
      components.emplace_back();
    }
    components[component_of[root]].push_back(subset[k]);
  }

  std::vector<std::size_t> core;
  for (const std::vector<std::size_t>& members : components) {
    std::vector<std::uint32_t> atoms;
    for (std::size_t i : members) {
      atoms.insert(atoms.end(), atoms_of_[i].begin(), atoms_of_[i].end());
    }
    std::sort(atoms.begin(), atoms.end(),
              [&binding](std::uint32_t a, std::uint32_t b) {
                return binding.slot[a] < binding.slot[b];
              });
    atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());
    const auto first_output = std::find_if(
        atoms.begin(), atoms.end(), [&binding](std::uint32_t a) {
          return static_cast<std::size_t>(binding.slot[a]) >=
                 binding.num_inputs;
        });
    if (!realizable(members, {atoms.begin(), first_output},
                    {first_output, atoms.end()})) {
      core.insert(core.end(), members.begin(), members.end());
    }
  }
  if (core.empty()) return std::nullopt;
  std::sort(core.begin(), core.end());
  return core;
}

bool RealizabilityOracle::satisfiable(std::size_t i) {
  speccc_check(i < requirements_.size(), "requirement index out of range");
  return proven_satisfiable_[i] || realizable({i}, {}, atoms_of_[i]);
}

bool RealizabilityOracle::realizable(const std::vector<std::size_t>& members,
                                     const std::vector<std::uint32_t>& inputs,
                                     const std::vector<std::uint32_t>& outputs) {
  std::vector<std::uint32_t> key(members.begin(), members.end());
  key.push_back(std::numeric_limits<std::uint32_t>::max());
  const std::size_t separator = key.size();
  key.insert(key.end(), inputs.begin(), inputs.end());
  std::sort(key.begin() + static_cast<std::ptrdiff_t>(separator), key.end());

  auto it = verdicts_.find(key);
  if (it == verdicts_.end()) {
    if (options_.cancelled && options_.cancelled()) {
      throw util::CancelledError("realizability question cancelled");
    }
    std::vector<ltl::Formula> formulas;
    formulas.reserve(members.size());
    for (std::size_t i : members) formulas.push_back(requirements_[i]);
    synth::IoSignature signature;
    for (std::uint32_t a : inputs) signature.inputs.push_back(atom_names_[a]);
    for (std::uint32_t a : outputs) signature.outputs.push_back(atom_names_[a]);
    ++syntheses_;
    const bool verdict =
        synth::synthesize(formulas, signature, options_).verdict ==
        synth::Realizability::kRealizable;
    it = verdicts_.emplace(std::move(key), verdict).first;
  }
  if (it->second) {
    for (std::size_t i : members) proven_satisfiable_[i] = true;
  }
  return it->second;
}

}  // namespace speccc::diag
