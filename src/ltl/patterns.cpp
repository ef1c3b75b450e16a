#include "ltl/patterns.hpp"

#include <algorithm>

namespace speccc::ltl {

namespace {

/// Strip X operators from the front; returns the stripped count.
std::size_t strip_next(Formula& f) {
  std::size_t n = 0;
  while (f.op() == Op::kNext) {
    ++n;
    f = f.child(0);
  }
  return n;
}

/// Normalize nested implications: (g1 -> (g2 -> body)) => guard g1&&g2.
/// Returns the final body; accumulates guards into `guard`.
Formula peel_guards(Formula f, std::vector<Formula>& guards) {
  while (f.op() == Op::kImplies && f.child(0).is_propositional()) {
    guards.push_back(f.child(0));
    f = f.child(1);
  }
  return f;
}

}  // namespace

std::optional<std::size_t> lookahead_depth(Formula f) {
  const std::size_t n = strip_next(f);
  switch (f.op()) {
    case Op::kTrue:
    case Op::kFalse:
    case Op::kAp:
      return n;
    case Op::kNot:
    case Op::kAnd:
    case Op::kOr:
    case Op::kImplies:
    case Op::kIff: {
      std::size_t depth = 0;
      for (const Formula c : f.children()) {
        const auto d = lookahead_depth(c);
        if (!d.has_value()) return std::nullopt;
        depth = std::max(depth, *d);
      }
      return n + depth;
    }
    default:
      return std::nullopt;
  }
}

std::optional<PatternInstance> recognize_pattern(Formula f) {
  // F p (Existence).
  if (f.op() == Op::kEventually && f.child(0).is_propositional()) {
    PatternInstance p;
    p.kind = PatternKind::kExistence;
    p.guard = f.child(0);
    return p;
  }
  if (f.op() != Op::kAlways) return std::nullopt;

  Formula body = f.child(0);

  // G p with no implication structure at all (Invariant).
  if (body.is_propositional() && body.op() != Op::kImplies) {
    PatternInstance p;
    p.kind = PatternKind::kInvariant;
    p.guard = body;
    return p;
  }

  // X^n inside the *antecedent* (the paper's Req-28 shape,
  // G (XXX !blood_pressure -> trigger_manual_mode)): at step t the guard is
  // evaluated n steps in the future while the consequent is due now. Read
  // causally, a violation becomes observable at step t+n as
  //   guard(t+n) && !consequent(t),
  // so a deterministic safety monitor only needs to remember the last n
  // values of the consequent -- no clairvoyance required.
  if (body.op() == Op::kImplies) {
    Formula ante = body.child(0);
    Formula post = body.child(1);
    const std::size_t ante_delay = strip_next(ante);
    if (ante_delay > 0 && ante.is_propositional() && post.is_propositional()) {
      PatternInstance p;
      p.kind = PatternKind::kGuardDelayed;
      p.guard = ante;
      p.consequent = post;
      p.delay = ante_delay;
      return p;
    }
  }

  std::vector<Formula> guards;
  Formula rest = peel_guards(body, guards);
  Formula guard = guards.empty() ? tru() : land(guards);

  if (rest.op() == Op::kImplies) {
    // peel_guards stopped because the antecedent is temporal; unsupported.
    return std::nullopt;
  }

  // G (guard -> F c) (Response).
  if (rest.op() == Op::kEventually && rest.child(0).is_propositional()) {
    PatternInstance p;
    p.kind = PatternKind::kResponse;
    p.guard = guard;
    p.consequent = rest.child(0);
    return p;
  }

  // G (guard -> (p W q)) / (p U q).
  if (rest.op() == Op::kWeakUntil || rest.op() == Op::kUntil) {
    Formula hold = rest.child(0);
    Formula rel = rest.child(1);
    if (hold.is_propositional() && rel.is_propositional()) {
      PatternInstance p;
      p.kind = rest.op() == Op::kWeakUntil ? PatternKind::kWeakUntil
                                           : PatternKind::kStrongUntil;
      p.guard = guard;
      p.consequent = hold;
      p.release = rel;
      return p;
    }
    return std::nullopt;
  }

  // G (guard -> X^n c) (possibly n = 0).
  const std::size_t delay = strip_next(rest);
  if (!rest.is_propositional()) return std::nullopt;
  PatternInstance p;
  p.kind = PatternKind::kImplication;
  p.guard = guard;
  p.consequent = rest;
  p.delay = delay;
  return p;
}

namespace {

// ---- General decomposition -------------------------------------------------
//
// A formula G body that recognize_pattern does not take whole is read as a
// conjunction of clauses (CNF of body), and each clause becomes one
// instance whose fields are lookahead formulas (Boolean combinations of
// X^k a). A clause's literals
// are lookahead formulas, F g, G h and one p W q or p U q (g, h, q
// lookahead); F and G push through X, and the antecedents of nested
// implications are negated into the clause.

using Clause = std::vector<Formula>;

/// CNF past this many clauses is refused rather than built.
constexpr std::size_t kMaxClauses = 64;

/// X^n f with X pushed under F, G, W and U (X^n F g == F X^n g, ...).
Formula shift(Formula f, std::size_t n) {
  if (n == 0) return f;
  switch (f.op()) {
    case Op::kEventually:
      return eventually(shift(f.child(0), n));
    case Op::kAlways:
      return always(shift(f.child(0), n));
    case Op::kWeakUntil:
      return weak_until(shift(f.child(0), n), shift(f.child(1), n));
    case Op::kUntil:
      return until(shift(f.child(0), n), shift(f.child(1), n));
    default:
      return next_n(f, n);
  }
}

bool is_lookahead(Formula f) { return lookahead_depth(f).has_value(); }

/// Every clause of `a` joined with every clause of `b` (the CNF of a || b).
bool distribute(const std::vector<Clause>& a, const std::vector<Clause>& b,
                std::vector<Clause>& out) {
  if (a.size() * b.size() > kMaxClauses) return false;
  for (const Clause& ca : a) {
    for (const Clause& cb : b) {
      Clause c = ca;
      c.insert(c.end(), cb.begin(), cb.end());
      out.push_back(std::move(c));
    }
  }
  return true;
}

/// Append the CNF of f (of !f when `negate`) to `out`; false when some
/// literal falls outside the clause forms named above.
bool clauses_of(Formula f, bool negate, std::vector<Clause>& out) {
  if (is_lookahead(f)) {
    out.push_back({negate ? lnot(f) : f});
    return true;
  }
  switch (f.op()) {
    case Op::kNot:
      return clauses_of(f.child(0), !negate, out);
    case Op::kNext: {
      const std::size_t n = strip_next(f);
      std::vector<Clause> inner;
      if (!clauses_of(f, negate, inner)) return false;
      for (Clause& c : inner) {
        for (Formula& literal : c) literal = shift(literal, n);
        out.push_back(std::move(c));
      }
      return true;
    }
    case Op::kAnd:
    case Op::kOr:
    case Op::kImplies: {
      // a -> b is !a || b; each part carries its own sign.
      std::vector<std::pair<Formula, bool>> parts;
      for (std::size_t i = 0; i < f.arity(); ++i) {
        const bool flip = f.op() == Op::kImplies && i == 0;
        parts.emplace_back(f.child(i), negate != flip);
      }
      if ((f.op() == Op::kAnd) != negate) {
        for (const auto& [part, sign] : parts) {
          if (!clauses_of(part, sign, out)) return false;
        }
        return out.size() <= kMaxClauses;
      }
      std::vector<Clause> acc{Clause{}};
      for (const auto& [part, sign] : parts) {
        std::vector<Clause> cs;
        std::vector<Clause> next_acc;
        if (!clauses_of(part, sign, cs) || !distribute(acc, cs, next_acc)) {
          return false;
        }
        acc = std::move(next_acc);
      }
      out.insert(out.end(), acc.begin(), acc.end());
      return true;
    }
    case Op::kEventually:
    case Op::kAlways: {
      // !F g == G !g and !G h == F !h.
      const Formula body = f.child(0);
      if (!is_lookahead(body)) return false;
      const bool eventual = (f.op() == Op::kEventually) != negate;
      const Formula literal = negate ? lnot(body) : body;
      out.push_back({eventual ? eventually(literal) : always(literal)});
      return true;
    }
    case Op::kWeakUntil:
    case Op::kUntil: {
      if (negate) return false;
      const Formula hold = f.child(0);
      const Formula release = f.child(1);
      if (is_lookahead(release)) {
        out.push_back({f});
        return true;
      }
      // p W (l || F q) == F q || (p W l): F q holds at once or never.
      if (f.op() != Op::kWeakUntil) return false;
      Clause clause;
      std::vector<Formula> now;
      const std::vector<Formula> parts = release.op() == Op::kOr
                                             ? release.children()
                                             : std::vector<Formula>{release};
      for (const Formula part : parts) {
        if (is_lookahead(part)) {
          now.push_back(part);
        } else if (part.op() == Op::kEventually && is_lookahead(part.child(0))) {
          clause.push_back(part);
        } else {
          return false;
        }
      }
      clause.push_back(weak_until(hold, now.empty() ? fls() : lor(now)));
      out.push_back(std::move(clause));
      return true;
    }
    default:
      return false;
  }
}

/// One instance equivalent to G (clause), or false.
bool instance_of_clause(const Clause& clause, std::vector<PatternInstance>& out) {
  std::vector<Formula> now;
  std::vector<Formula> eventual;
  std::vector<Formula> always_parts;
  std::vector<Formula> until_parts;
  for (const Formula literal : clause) {
    if (is_lookahead(literal)) {
      now.push_back(literal);
    } else if (literal.op() == Op::kEventually) {
      eventual.push_back(literal.child(0));
    } else if (literal.op() == Op::kAlways) {
      always_parts.push_back(literal.child(0));
    } else {
      until_parts.push_back(literal);
    }
  }
  if (until_parts.empty() && !always_parts.empty() && !eventual.empty()) {
    // F c || G h == (h || F c) W c: with no c ever, h always.
    const Formula c = lor(eventual);
    until_parts.push_back(weak_until(lor(always_parts.front(), eventually(c)), c));
    always_parts.erase(always_parts.begin());
    eventual.clear();
  }
  PatternInstance p;
  p.guard = now.empty() ? tru() : lnot(lor(now));
  if (!until_parts.empty()) {
    // G (g -> (p W q)), p lookahead or itself decomposable.
    if (until_parts.size() > 1) return false;
    Formula u = until_parts.front();
    if (!eventual.empty()) {
      // F c || (p W q) == (p || F c) W (q || c): before the first q or c
      // the hold p || F c binds, and with no c ever it is p.
      if (u.op() != Op::kWeakUntil) return false;
      const Formula c = lor(eventual);
      u = weak_until(lor(u.child(0), eventually(c)), lor(u.child(1), c));
    }
    if (!always_parts.empty() && u.op() == Op::kWeakUntil &&
        is_lookahead(u.child(0)) && is_lookahead(u.child(1))) {
      p.kind = PatternKind::kAlwaysOneOf;
      std::vector<Formula> parts;
      for (const Formula h : always_parts) parts.push_back(always(h));
      parts.push_back(u);
      p.consequent = lor(parts);
      out.push_back(p);
      return true;
    }
    if (!always_parts.empty()) {
      // G (g -> G h || (p W q)): the until fails at some step k, and h fails
      // at or after k, or before k (and after the trigger). So
      //   == G (g -> ((p || G h) W q)) && G (g -> ((h || (p W q)) W q)),
      // two clauses with one G literal fewer.
      if (u.op() != Op::kWeakUntil) return false;
      const Formula h = always_parts.front();
      const Formula q = u.child(1);
      Clause first = now;
      Clause second = now;
      first.push_back(weak_until(lor(u.child(0), always(h)), q));
      second.push_back(weak_until(lor(h, u), q));
      for (std::size_t j = 1; j < always_parts.size(); ++j) {
        first.push_back(always(always_parts[j]));
        second.push_back(always(always_parts[j]));
      }
      return instance_of_clause(first, out) && instance_of_clause(second, out);
    }
    p.kind = u.op() == Op::kWeakUntil ? PatternKind::kWeakUntil
                                      : PatternKind::kStrongUntil;
    p.consequent = u.child(0);
    p.release = u.child(1);
    if (!is_lookahead(p.consequent) &&
        !decompose_patterns(always(p.consequent)).has_value()) {
      return false;
    }
  } else if (always_parts.size() > 1) {
    p.kind = PatternKind::kAlwaysOneOf;
    std::vector<Formula> forever;
    for (const Formula h : always_parts) forever.push_back(always(h));
    p.consequent = lor(forever);
  } else if (!always_parts.empty()) {
    // G (g -> G h) == G (g -> (h W false)).
    p.kind = PatternKind::kWeakUntil;
    p.consequent = always_parts.front();
    p.release = fls();
  } else if (!eventual.empty()) {
    // F c1 || F c2 == F (c1 || c2).
    p.kind = PatternKind::kResponse;
    p.consequent = lor(eventual);
  } else {
    p.kind = PatternKind::kLookahead;
    p.guard = lor(now);
  }
  out.push_back(p);
  return true;
}

bool decompose_clauses(Formula f, std::vector<PatternInstance>& out) {
  if (f.op() != Op::kAlways) return false;
  std::vector<Clause> clauses;
  if (!clauses_of(f.child(0), false, clauses)) return false;
  for (const Clause& clause : clauses) {
    if (!instance_of_clause(clause, out)) return false;
  }
  return true;
}

}  // namespace

std::optional<std::vector<PatternInstance>> decompose_patterns(Formula f) {
  if (auto p = recognize_pattern(f)) return std::vector<PatternInstance>{*p};
  std::vector<PatternInstance> instances;
  if (!decompose_clauses(f, instances)) return std::nullopt;
  return instances;
}

}  // namespace speccc::ltl
