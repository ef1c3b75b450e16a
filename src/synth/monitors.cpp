#include "synth/monitors.hpp"

#include <algorithm>
#include <optional>

#include "util/diagnostics.hpp"

namespace speccc::synth {

namespace {

using ltl::Formula;
using ltl::Op;
using ltl::PatternInstance;
using ltl::PatternKind;

class Compiler {
 public:
  Compiler(bdd::Manager& mgr, const IoSignature& signature)
      : mgr_(mgr), signature_(signature) {
    spec_.game.manager = &mgr_;
    spec_.game.safe = mgr_.bdd_true();
    // Proposition variables are allocated lazily, in first-use order: for
    // conjunctions of per-requirement monitors this keeps each requirement's
    // propositions adjacent in the BDD order, which is the difference
    // between linear- and exponential-sized safety constraints
    // (G (a1 -> b1) && G (a2 -> b2) && ... is linear when interleaved
    // a1 b1 a2 b2 and exponential when grouped a1 a2 ... b1 b2 ...).
  }

  bool add(const PatternInstance& p, std::size_t origin) {
    if (!propositional(p)) {
      add_lagged(p, origin, Scope{mgr_.bdd_true(), 0});
      return true;
    }
    switch (p.kind) {
      case PatternKind::kInvariant:
        spec_.game.safe =
            mgr_.bdd_and(spec_.game.safe, prop(p.guard));
        return true;
      case PatternKind::kImplication:
        add_implication(prop(p.guard), prop(p.consequent), p.delay);
        return true;
      case PatternKind::kGuardDelayed:
        add_guard_delayed(prop(p.guard), prop(p.consequent), p.delay);
        return true;
      case PatternKind::kResponse:
        add_response(prop(p.guard), prop(p.consequent), origin);
        return true;
      case PatternKind::kWeakUntil:
        add_weak_until(prop(p.guard), prop(p.consequent), prop(p.release));
        return true;
      case PatternKind::kStrongUntil:
        add_weak_until(prop(p.guard), prop(p.consequent), prop(p.release));
        add_response(prop(p.guard), prop(p.release), origin);
        return true;
      case PatternKind::kExistence:
        add_existence(prop(p.guard), origin);
        return true;
      case PatternKind::kLookahead:
      case PatternKind::kAlwaysOneOf:
        break;  // never propositional
    }
    return false;
  }

  CompiledSpec finish() {
    // Allocate variables for signature propositions never mentioned by any
    // requirement (they are unconstrained but must exist for extraction).
    for (const std::string& name : signature_.inputs) prop_var(name);
    for (const std::string& name : signature_.outputs) prop_var(name);
    // Partition the allocated proposition variables by signature role, in
    // signature order (extraction indexes input bit b as inputs[b]).
    for (const std::string& name : signature_.inputs) {
      spec_.game.input_vars.push_back(spec_.prop_var.at(name));
    }
    for (const std::string& name : signature_.outputs) {
      spec_.game.output_vars.push_back(spec_.prop_var.at(name));
    }
    // Initial-state predicate: the minterm given by initial_bits, built as
    // one cube (a single bottom-up pass) instead of a conjunction chain.
    std::vector<std::pair<int, bool>> initial_literals;
    initial_literals.reserve(spec_.game.state_vars.size());
    for (std::size_t b = 0; b < spec_.game.state_vars.size(); ++b) {
      initial_literals.emplace_back(spec_.game.state_vars[b],
                                    spec_.initial_bits[b]);
    }
    spec_.game.initial = mgr_.cube(initial_literals);
    return std::move(spec_);
  }

 private:
  int prop_var(const std::string& name) {
    const auto it = spec_.prop_var.find(name);
    if (it != spec_.prop_var.end()) return it->second;
    const int v = mgr_.new_var();
    spec_.prop_var.emplace(name, v);
    return v;
  }

  /// Propositional formula -> BDD, allocating proposition variables on
  /// first use (see the ordering note in the constructor).
  bdd::Bdd prop(Formula f) { return lagged(f, 0); }

  /// Allocate a monitor state bit; returns its position in state_vars
  /// (and in next_state, which the caller fills through set_update).
  std::size_t new_state_bit(bool initial) {
    spec_.game.state_vars.push_back(mgr_.new_var());
    spec_.game.next_state.emplace_back();
    spec_.initial_bits.push_back(initial);
    return spec_.game.state_vars.size() - 1;
  }

  /// The current-state value of state bit `bit`.
  bdd::Bdd state(std::size_t bit) { return mgr_.var(spec_.game.state_vars[bit]); }

  void set_update(std::size_t bit, bdd::Bdd update) {
    spec_.game.next_state[bit] = update;
  }

  /// G (g -> X^n c): register chain d1..dn of guard history.
  /// d1' = g(now); dj' = d_{j-1}; violation when dn && !c(now).
  void add_implication(bdd::Bdd guard, bdd::Bdd consequent, std::size_t delay) {
    if (delay == 0) {
      spec_.game.safe =
          mgr_.bdd_and(spec_.game.safe, mgr_.implies(guard, consequent));
      return;
    }
    std::vector<std::size_t> regs;
    for (std::size_t j = 0; j < delay; ++j) regs.push_back(new_state_bit(false));
    set_update(regs[0], guard);
    for (std::size_t j = 1; j < delay; ++j) {
      set_update(regs[j], state(regs[j - 1]));
    }
    spec_.game.safe = mgr_.bdd_and(
        spec_.game.safe, mgr_.implies(state(regs[delay - 1]), consequent));
  }

  /// G (X^n g -> c): register chain e1..en of consequent history,
  /// initialized to true (no obligation exists for the first n steps).
  /// e1' = c(now); ej' = e_{j-1}; violation when g(now) && !en.
  void add_guard_delayed(bdd::Bdd guard, bdd::Bdd consequent, std::size_t delay) {
    speccc_check(delay >= 1, "guard-delayed pattern needs delay >= 1");
    std::vector<std::size_t> regs;
    for (std::size_t j = 0; j < delay; ++j) regs.push_back(new_state_bit(true));
    set_update(regs[0], consequent);
    for (std::size_t j = 1; j < delay; ++j) {
      set_update(regs[j], state(regs[j - 1]));
    }
    spec_.game.safe = mgr_.bdd_and(
        spec_.game.safe, mgr_.implies(guard, state(regs[delay - 1])));
  }

  /// G (g -> F c): obligation bit; obliged' = (obliged || g) && !c.
  /// Buechi predicate: !obliged (the obligation is discharged infinitely
  /// often, i.e. every triggered response eventually happens).
  void add_response(bdd::Bdd guard, bdd::Bdd consequent, std::size_t origin) {
    const std::size_t obliged = new_state_bit(false);
    set_update(obliged, mgr_.bdd_and(mgr_.bdd_or(state(obliged), guard),
                                     mgr_.bdd_not(consequent)));
    spec_.game.buchi.push_back(mgr_.nvar(spec_.game.state_vars[obliged]));
    spec_.buchi_origin.push_back(origin);
  }

  /// G (g -> (p W q)): active = w || g; violation when active && !q && !p;
  /// w' = active && !q.
  void add_weak_until(bdd::Bdd guard, bdd::Bdd hold, bdd::Bdd release) {
    const std::size_t w = new_state_bit(false);
    const bdd::Bdd active = mgr_.bdd_or(state(w), guard);
    set_update(w, mgr_.bdd_and(active, mgr_.bdd_not(release)));
    spec_.game.safe = mgr_.bdd_and(
        spec_.game.safe,
        mgr_.implies(mgr_.bdd_and(active, mgr_.bdd_not(release)), hold));
  }

  /// F p: done' = done || p; Buechi predicate: done.
  void add_existence(bdd::Bdd body, std::size_t origin) {
    const std::size_t done = new_state_bit(false);
    set_update(done, mgr_.bdd_or(state(done), body));
    spec_.game.buchi.push_back(state(done));
    spec_.buchi_origin.push_back(origin);
  }

  // ---- Lagged monitors ------------------------------------------------------
  //
  // An instance with lookahead fields of depth L is monitored L steps late:
  // at step t its monitor reads every field at step t - L, from history
  // registers, and runs the monitor of its kind on that delayed word. A
  // violation is seen L steps late, and the delay changes neither safety nor
  // Buechi acceptance of the infinite play, so the game is the same. Steps
  // t < L are skipped through the scope, whose registers start closed.

  /// A scope predicate of step t - lag, readable at step t.
  struct Scope {
    bdd::Bdd open;
    std::size_t lag = 0;
  };

  static bool propositional(const PatternInstance& p) {
    const auto is_prop = [](Formula f) { return f.is_null() || f.is_propositional(); };
    return p.kind != PatternKind::kLookahead && is_prop(p.guard) &&
           is_prop(p.consequent) && is_prop(p.release);
  }

  /// The lag of a monitor in `scope` reading the lookahead formulas
  /// `fields`: the scope's lag or the deepest field, whichever is larger.
  /// Grows the history chains the fields read there level by level, so the
  /// registers of one age sit next to each other in the variable order:
  /// monitors relate ages across propositions (a trigger at age i, a hold
  /// failure at age j <= i), which stays compact when ages interleave and
  /// grows exponentially with the lag when each chain is one block.
  std::size_t lag_for(const Scope& scope, const std::vector<Formula>& fields) {
    std::size_t lag = scope.lag;
    for (const Formula f : fields) {
      const auto d = ltl::lookahead_depth(f);
      speccc_check(d.has_value(), "lagged monitor field is not a lookahead formula");
      lag = std::max(lag, *d);
    }
    // Chain length each proposition needs: lag minus its smallest offset.
    std::vector<std::pair<std::string, std::size_t>> need;
    const auto visit = [&](const auto& self, Formula f, std::size_t offset) -> void {
      while (f.op() == Op::kNext) {
        ++offset;
        f = f.child(0);
      }
      if (f.op() == Op::kAp) {
        const auto it = std::find_if(need.begin(), need.end(), [&](const auto& n) {
          return n.first == f.ap_name();
        });
        if (it == need.end()) {
          need.emplace_back(f.ap_name(), lag - offset);
        } else {
          it->second = std::max(it->second, lag - offset);
        }
        return;
      }
      for (const Formula c : f.children()) self(self, c, offset);
    };
    for (const Formula f : fields) visit(visit, f, 0);
    const bool top = scope.lag == 0 && scope.open == mgr_.bdd_true();
    for (std::size_t j = 1; j <= lag; ++j) {
      if (top) history(true_chain_, mgr_.bdd_true(), j);
      for (const auto& [name, length] : need) {
        if (length >= j) history(history_[name], mgr_.var(prop_var(name)), j);
      }
    }
    return lag;
  }

  /// `source` (a predicate of step t) as of step t - j, from `chain`, a
  /// register chain fed by source and grown on demand: bit j-1 holds the
  /// value of j steps ago. Bits start false, so a delayed scope reads
  /// closed until its chain has filled, and a proposition's first bits are
  /// read only under a closed scope.
  bdd::Bdd history(std::vector<std::size_t>& chain, bdd::Bdd source, std::size_t j) {
    while (chain.size() < j) {
      const std::size_t bit = new_state_bit(false);
      set_update(bit, chain.empty() ? source : state(chain.back()));
      chain.push_back(bit);
    }
    return j == 0 ? source : state(chain[j - 1]);
  }

  /// Lookahead formula `f` evaluated at step t - lag (lag >= depth(f)).
  bdd::Bdd lagged(Formula f, std::size_t lag) {
    while (f.op() == Op::kNext) {
      speccc_check(lag > 0, "lag shorter than the lookahead");
      --lag;
      f = f.child(0);
    }
    switch (f.op()) {
      case Op::kTrue:
        return mgr_.bdd_true();
      case Op::kFalse:
        return mgr_.bdd_false();
      case Op::kAp: {
        // The chains of propositions are shared by every lagged monitor.
        const bdd::Bdd now = mgr_.var(prop_var(f.ap_name()));
        return lag == 0 ? now : history(history_[f.ap_name()], now, lag);
      }
      case Op::kNot:
        return mgr_.bdd_not(lagged(f.child(0), lag));
      case Op::kAnd:
      case Op::kOr: {
        const bool conj = f.op() == Op::kAnd;
        bdd::Bdd acc = conj ? mgr_.bdd_true() : mgr_.bdd_false();
        for (const Formula c : f.children()) {
          const bdd::Bdd v = lagged(c, lag);
          acc = conj ? mgr_.bdd_and(acc, v) : mgr_.bdd_or(acc, v);
        }
        return acc;
      }
      case Op::kImplies:
        return mgr_.implies(lagged(f.child(0), lag), lagged(f.child(1), lag));
      case Op::kIff:
        return mgr_.iff(lagged(f.child(0), lag), lagged(f.child(1), lag));
      default:
        speccc_check(false, "temporal operator in propositional context");
        return mgr_.bdd_false();
    }
  }

  /// The scope as of step t - lag (lag >= scope.lag). The top-level scope
  /// (always open) delays into the shared chain of `true`, which reads
  /// "t >= lag".
  bdd::Bdd open_at(const Scope& scope, std::size_t lag) {
    if (scope.lag == 0 && scope.open == mgr_.bdd_true()) {
      return history(true_chain_, scope.open, lag);
    }
    std::vector<std::size_t> chain;
    return history(chain, scope.open, lag - scope.lag);
  }

  /// G (open -> body) with body a lookahead formula.
  void add_lagged_safety(Formula body, const Scope& scope) {
    const std::size_t lag = lag_for(scope, {body});
    spec_.game.safe = mgr_.bdd_and(
        spec_.game.safe, mgr_.implies(open_at(scope, lag), lagged(body, lag)));
  }

  /// Instance `p` within `scope`: its obligations bind at the steps where
  /// the scope is open.
  void add_lagged(const PatternInstance& p, std::size_t origin, const Scope& scope) {
    switch (p.kind) {
      case PatternKind::kInvariant:
      case PatternKind::kLookahead:
        add_lagged_safety(p.guard, scope);
        return;
      case PatternKind::kImplication:
        add_lagged_safety(ltl::implies(p.guard, ltl::next_n(p.consequent, p.delay)),
                          scope);
        return;
      case PatternKind::kGuardDelayed:
        add_lagged_safety(ltl::implies(ltl::next_n(p.guard, p.delay), p.consequent),
                          scope);
        return;
      case PatternKind::kResponse: {
        const std::size_t lag = lag_for(scope, {p.guard, p.consequent});
        add_response(mgr_.bdd_and(open_at(scope, lag), lagged(p.guard, lag)),
                     lagged(p.consequent, lag), origin);
        return;
      }
      case PatternKind::kWeakUntil:
      case PatternKind::kStrongUntil: {
        const bool hold_lookahead = ltl::lookahead_depth(p.consequent).has_value();
        std::vector<Formula> fields{p.guard, p.release};
        if (hold_lookahead) fields.push_back(p.consequent);
        const std::size_t lag = lag_for(scope, fields);
        const bdd::Bdd trigger =
            mgr_.bdd_and(open_at(scope, lag), lagged(p.guard, lag));
        const bdd::Bdd release = lagged(p.release, lag);
        // The weak-until state of add_weak_until; the hold binds while the
        // until is active and not yet released.
        const std::size_t w = new_state_bit(false);
        const bdd::Bdd pending =
            mgr_.bdd_and(mgr_.bdd_or(state(w), trigger), mgr_.bdd_not(release));
        set_update(w, pending);
        const Scope hold_scope{pending, lag};
        if (hold_lookahead) {
          add_lagged_safety(p.consequent, hold_scope);
        } else {
          const auto parts = ltl::decompose_patterns(ltl::always(p.consequent));
          speccc_check(parts.has_value(), "until hold outside the fragment");
          for (const PatternInstance& part : *parts) {
            add_lagged(part, origin, hold_scope);
          }
        }
        if (p.kind == PatternKind::kStrongUntil) add_response(trigger, release, origin);
        return;
      }
      case PatternKind::kAlwaysOneOf:
        add_always_one_of(p, scope);
        return;
      case PatternKind::kExistence:
        // Only a top-level F p is an existence instance, and p is
        // propositional.
        speccc_check(false, "existence pattern inside a scope");
        return;
    }
  }

  /// G (g -> G h1 || ... || G hk || (p W q)), the until optional. A
  /// trigger commits when its until fails (at once without one); from the
  /// earliest committed trigger on, some h_j must never fail. Earlier
  /// triggers bind later ones, so the monitor tracks, per h_j, a failure
  /// since the earliest pending trigger and since the earliest committed
  /// one: 2 + 2k bits, k + 1 without the until.
  void add_always_one_of(const PatternInstance& p, const Scope& scope) {
    std::vector<Formula> forever;
    std::optional<Formula> until;
    std::vector<Formula> fields{p.guard};
    for (const Formula part : p.consequent.children()) {
      if (part.op() == Op::kAlways) {
        forever.push_back(part.child(0));
      } else {
        until = part;
      }
      fields.insert(fields.end(), part.children().begin(), part.children().end());
    }
    const std::size_t lag = lag_for(scope, fields);
    const bdd::Bdd trigger =
        mgr_.bdd_and(open_at(scope, lag), lagged(p.guard, lag));
    bdd::Bdd commits = trigger;  // without an until, a trigger commits at once
    bdd::Bdd still_pending = mgr_.bdd_false();
    if (until.has_value()) {
      const std::size_t pending = new_state_bit(false);
      still_pending = mgr_.bdd_and(mgr_.bdd_or(state(pending), trigger),
                                   mgr_.bdd_not(lagged(until->child(1), lag)));
      commits = mgr_.bdd_and(still_pending, mgr_.bdd_not(lagged(until->child(0), lag)));
      set_update(pending, still_pending);
    }
    const std::size_t committed_bit = new_state_bit(false);
    const bdd::Bdd was_committed = state(committed_bit);
    const bdd::Bdd committed = mgr_.bdd_or(was_committed, commits);
    set_update(committed_bit, committed);
    bdd::Bdd all_failed = committed;
    for (const Formula h : forever) {
      const bdd::Bdd fails_now = mgr_.bdd_not(lagged(h, lag));
      bdd::Bdd since_pending = fails_now;
      if (until.has_value()) {
        const std::size_t pf = new_state_bit(false);
        since_pending = mgr_.bdd_or(state(pf), fails_now);
        set_update(pf, mgr_.bdd_and(still_pending, since_pending));
      }
      const std::size_t cf = new_state_bit(false);
      const bdd::Bdd since_committed = mgr_.ite(
          was_committed, mgr_.bdd_or(state(cf), fails_now), since_pending);
      set_update(cf, mgr_.bdd_and(committed, since_committed));
      all_failed = mgr_.bdd_and(all_failed, since_committed);
    }
    spec_.game.safe = mgr_.bdd_and(spec_.game.safe, mgr_.bdd_not(all_failed));
  }

  bdd::Manager& mgr_;
  [[maybe_unused]] const IoSignature& signature_;
  CompiledSpec spec_;
  /// History chains of the lagged monitors (see history()), per
  /// proposition and for the constant true.
  std::unordered_map<std::string, std::vector<std::size_t>> history_;
  std::vector<std::size_t> true_chain_;
};

bool mentions_only(const ltl::Formula& f, const IoSignature& signature) {
  const auto atoms = f.atoms();
  for (const std::string& a : atoms) {
    const bool in_inputs = std::find(signature.inputs.begin(),
                                     signature.inputs.end(),
                                     a) != signature.inputs.end();
    const bool in_outputs = std::find(signature.outputs.begin(),
                                      signature.outputs.end(),
                                      a) != signature.outputs.end();
    if (!in_inputs && !in_outputs) return false;
  }
  return true;
}

}  // namespace

CompiledSpec compile_monitors(bdd::Manager& manager,
                              const std::vector<ltl::Formula>& spec,
                              const IoSignature& signature) {
  // (instance, index of the requirement it came from)
  std::vector<std::pair<PatternInstance, std::size_t>> instances;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const auto parts = ltl::decompose_patterns(spec[i]);
    speccc_check(parts.has_value() && mentions_only(spec[i], signature),
                 "requirement outside the pattern fragment "
                 "(ltl::decompose_patterns) or mentioning a proposition "
                 "missing from the signature: " + ltl::to_string(spec[i]));
    for (const PatternInstance& p : *parts) instances.emplace_back(p, i);
  }
  Compiler compiler(manager, signature);
  for (const auto& [instance, origin] : instances) {
    const bool ok = compiler.add(instance, origin);
    speccc_check(ok, "recognized pattern must compile");
  }
  return compiler.finish();
}

}  // namespace speccc::synth
