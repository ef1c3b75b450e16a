#include "partition/partition.hpp"

#include "util/diagnostics.hpp"

namespace speccc::partition {

namespace {

using ltl::Formula;
using ltl::Op;

/// Walk the formula; `input_side` is true inside implication antecedents and
/// Until right-hand sides. Next chains are skipped in a loop, not one call
/// per X: an abstracted deadline can leave a chain hundreds of thousands deep.
void walk(Formula f, bool input_side, Votes& votes) {
  while (f.op() == Op::kNext) f = f.child(0);
  switch (f.op()) {
    case Op::kAp:
      (input_side ? votes.inputs : votes.outputs).insert(f.ap_name());
      return;
    case Op::kImplies:
      walk(f.child(0), true, votes);
      walk(f.child(1), input_side, votes);
      return;
    case Op::kUntil:
    case Op::kWeakUntil:
      // "for right-hand parts of the Until operator ... input variables".
      walk(f.child(0), input_side, votes);
      walk(f.child(1), true, votes);
      return;
    case Op::kRelease:
      walk(f.child(0), true, votes);
      walk(f.child(1), input_side, votes);
      return;
    default:
      for (Formula c : f.children()) walk(c, input_side, votes);
      return;
  }
}

}  // namespace

Votes classify(Formula requirement) {
  Votes raw;
  walk(requirement, /*input_side=*/false, raw);
  // Within one requirement: both sides => output.
  Votes out;
  out.outputs = raw.outputs;
  for (const auto& name : raw.inputs) {
    if (raw.outputs.count(name) == 0) out.inputs.insert(name);
  }
  return out;
}

Partition unify(const std::vector<Formula>& requirements,
                const Overrides& overrides) {
  Partition partition;
  for (Formula f : requirements) {
    const Votes votes = classify(f);
    for (const auto& name : votes.inputs) partition.inputs.insert(name);
    for (const auto& name : votes.outputs) partition.outputs.insert(name);
  }
  // Cross-requirement conflicts become outputs.
  for (auto it = partition.inputs.begin(); it != partition.inputs.end();) {
    if (partition.outputs.count(*it) > 0) {
      it = partition.inputs.erase(it);
    } else {
      ++it;
    }
  }
  // User overrides win.
  for (const auto& [name, is_input] : overrides.forced) {
    partition.inputs.erase(name);
    partition.outputs.erase(name);
    (is_input ? partition.inputs : partition.outputs).insert(name);
  }
  // No input at all: promote the smallest output (paper: random choice).
  if (partition.inputs.empty() && !partition.outputs.empty()) {
    const std::string promoted = *partition.outputs.begin();
    partition.outputs.erase(partition.outputs.begin());
    partition.inputs.insert(promoted);
  }
  return partition;
}

}  // namespace speccc::partition
