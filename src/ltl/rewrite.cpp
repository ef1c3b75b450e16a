#include "ltl/rewrite.hpp"

#include <algorithm>

#include "util/diagnostics.hpp"

namespace speccc::ltl {

namespace {

Formula nnf_impl(Formula f, bool negate) {
  switch (f.op()) {
    case Op::kTrue:
      return negate ? fls() : tru();
    case Op::kFalse:
      return negate ? tru() : fls();
    case Op::kAp:
      return negate ? lnot(f) : f;
    case Op::kNot:
      return nnf_impl(f.child(0), !negate);
    case Op::kAnd: {
      std::vector<Formula> cs;
      cs.reserve(f.arity());
      for (Formula c : f.children()) cs.push_back(nnf_impl(c, negate));
      return negate ? lor(std::move(cs)) : land(std::move(cs));
    }
    case Op::kOr: {
      std::vector<Formula> cs;
      cs.reserve(f.arity());
      for (Formula c : f.children()) cs.push_back(nnf_impl(c, negate));
      return negate ? land(std::move(cs)) : lor(std::move(cs));
    }
    case Op::kImplies: {
      // a -> b == !a || b
      Formula a = f.child(0);
      Formula b = f.child(1);
      if (negate) return land(nnf_impl(a, false), nnf_impl(b, true));
      return lor(nnf_impl(a, true), nnf_impl(b, false));
    }
    case Op::kIff: {
      // a <-> b == (a && b) || (!a && !b)
      Formula a = f.child(0);
      Formula b = f.child(1);
      Formula both = land(nnf_impl(a, false), nnf_impl(b, false));
      Formula neither = land(nnf_impl(a, true), nnf_impl(b, true));
      Formula one = land(nnf_impl(a, false), nnf_impl(b, true));
      Formula other = land(nnf_impl(a, true), nnf_impl(b, false));
      return negate ? lor(one, other) : lor(both, neither);
    }
    case Op::kNext:
      return next(nnf_impl(f.child(0), negate));
    case Op::kEventually:
      return negate ? always(nnf_impl(f.child(0), true))
                    : eventually(nnf_impl(f.child(0), false));
    case Op::kAlways:
      return negate ? eventually(nnf_impl(f.child(0), true))
                    : always(nnf_impl(f.child(0), false));
    case Op::kUntil: {
      Formula a = f.child(0);
      Formula b = f.child(1);
      if (negate) return release(nnf_impl(a, true), nnf_impl(b, true));
      return until(nnf_impl(a, false), nnf_impl(b, false));
    }
    case Op::kRelease: {
      Formula a = f.child(0);
      Formula b = f.child(1);
      if (negate) return until(nnf_impl(a, true), nnf_impl(b, true));
      return release(nnf_impl(a, false), nnf_impl(b, false));
    }
    case Op::kWeakUntil: {
      // a W b == b R (a || b); !(a W b) == !b U (!a && !b)
      Formula a = f.child(0);
      Formula b = f.child(1);
      if (negate) {
        return until(nnf_impl(b, true),
                     land(nnf_impl(a, true), nnf_impl(b, true)));
      }
      return release(nnf_impl(b, false),
                     lor(nnf_impl(a, false), nnf_impl(b, false)));
    }
  }
  speccc_check(false, "unhandled op in nnf");
  return f;
}

}  // namespace

Formula nnf(Formula f) { return nnf_impl(f, false); }

std::size_t max_next_chain(Formula f) {
  if (f.op() == Op::kNext) {
    std::size_t chain = 0;
    Formula cur = f;
    while (cur.op() == Op::kNext) {
      ++chain;
      cur = cur.child(0);
    }
    return std::max(chain, max_next_chain(cur));
  }
  std::size_t best = 0;
  for (Formula c : f.children()) best = std::max(best, max_next_chain(c));
  return best;
}

}  // namespace speccc::ltl
