#include "analyze/analyze.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace cbip::analyze {

namespace {

// Transfer functions compute in 128 bits so every int64 corner case
// (INT64_MIN / -1 = 2^63, |INT64_MIN| = 2^63) stays representable.
using Wide = __int128;

constexpr Value kMinV = std::numeric_limits<Value>::min();
constexpr Value kMaxV = std::numeric_limits<Value>::max();

/// Hull of a 128-bit corner range; anything escaping int64 means the
/// concrete (wrapping) operator's image is not an interval, so: top.
Interval fromWide(Wide lo, Wide hi) {
  if (lo < static_cast<Wide>(kMinV) || hi > static_cast<Wide>(kMaxV)) return Interval::top();
  return Interval{static_cast<Value>(lo), static_cast<Value>(hi)};
}

Wide wideAbs(Value v) {
  const Wide w = v;
  return w < 0 ? -w : w;
}

/// Largest |divisor| admitted by `b` (up to 2^63 for INT64_MIN).
Wide maxAbs(Interval b) { return std::max(wideAbs(b.lo), wideAbs(b.hi)); }

bool mayNonzero(Interval v) { return !v.isBottom() && !(v.lo == 0 && v.hi == 0); }

/// Abstract 0/1 normalization (the kAnd/kOr/kNot result space).
Interval boolOf(Interval v) {
  if (v.isBottom()) return Interval::bottom();
  if (!v.contains(0)) return Interval::singleton(1);
  if (v.isSingleton()) return Interval::singleton(0);
  return Interval::range(0, 1);
}

}  // namespace

std::string Interval::toString() const {
  if (isBottom()) return "[empty]";
  if (isTop()) return "[int64]";
  return "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

Interval join(Interval a, Interval b) {
  if (a.isBottom()) return b;
  if (b.isBottom()) return a;
  return Interval{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval absAdd(Interval a, Interval b) {
  if (a.isBottom() || b.isBottom()) return Interval::bottom();
  return fromWide(static_cast<Wide>(a.lo) + b.lo, static_cast<Wide>(a.hi) + b.hi);
}

Interval absSub(Interval a, Interval b) {
  if (a.isBottom() || b.isBottom()) return Interval::bottom();
  return fromWide(static_cast<Wide>(a.lo) - b.hi, static_cast<Wide>(a.hi) - b.lo);
}

Interval absMul(Interval a, Interval b) {
  if (a.isBottom() || b.isBottom()) return Interval::bottom();
  const Wide corners[4] = {static_cast<Wide>(a.lo) * b.lo, static_cast<Wide>(a.lo) * b.hi,
                           static_cast<Wide>(a.hi) * b.lo, static_cast<Wide>(a.hi) * b.hi};
  Wide lo = corners[0];
  Wide hi = corners[0];
  for (const Wide c : corners) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  return fromWide(lo, hi);
}

Interval absNeg(Interval a) {
  if (a.isBottom()) return Interval::bottom();
  // wrapNeg(INT64_MIN) == INT64_MIN: an interval straddling that fixpoint
  // negates to a non-convex set whose hull is top.
  if (a.contains(kMinV)) {
    return a.isSingleton() ? Interval::singleton(kMinV) : Interval::top();
  }
  return Interval{-a.hi, -a.lo};
}

Interval absAbs(Interval a) {
  if (a.isBottom()) return Interval::bottom();
  // wrapAbs(INT64_MIN) == INT64_MIN, same non-convexity as absNeg.
  if (a.contains(kMinV)) {
    return a.isSingleton() ? Interval::singleton(kMinV) : Interval::top();
  }
  const Value lo = a.lo >= 0 ? a.lo : (a.hi < 0 ? -a.hi : 0);
  const Value hi = std::max(a.lo < 0 ? -a.lo : a.lo, a.hi < 0 ? -a.hi : a.hi);
  return Interval{lo, hi};
}

Interval absNot(Interval a) {
  if (a.isBottom()) return Interval::bottom();
  if (!a.contains(0)) return Interval::singleton(0);
  if (a.isSingleton()) return Interval::singleton(1);
  return Interval::range(0, 1);
}

Interval absMin(Interval a, Interval b) {
  if (a.isBottom() || b.isBottom()) return Interval::bottom();
  return Interval{std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}

Interval absMax(Interval a, Interval b) {
  if (a.isBottom() || b.isBottom()) return Interval::bottom();
  return Interval{std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval absCmp(expr::Op op, Interval a, Interval b) {
  using expr::Op;
  if (a.isBottom() || b.isBottom()) return Interval::bottom();
  int truth = -1;  // -1 unknown, 0 definitely false, 1 definitely true
  switch (op) {
    case Op::kEq:
      if (a.isSingleton() && b.isSingleton() && a.lo == b.lo) truth = 1;
      else if (a.hi < b.lo || b.hi < a.lo) truth = 0;
      break;
    case Op::kNe:
      if (a.hi < b.lo || b.hi < a.lo) truth = 1;
      else if (a.isSingleton() && b.isSingleton() && a.lo == b.lo) truth = 0;
      break;
    case Op::kLt:
      if (a.hi < b.lo) truth = 1;
      else if (a.lo >= b.hi) truth = 0;
      break;
    case Op::kLe:
      if (a.hi <= b.lo) truth = 1;
      else if (a.lo > b.hi) truth = 0;
      break;
    case Op::kGt:
      if (a.lo > b.hi) truth = 1;
      else if (a.hi <= b.lo) truth = 0;
      break;
    case Op::kGe:
      if (a.lo >= b.hi) truth = 1;
      else if (a.hi < b.lo) truth = 0;
      break;
    default:
      throw ModelError("absCmp: not a comparison operator");
  }
  if (truth == 1) return Interval::singleton(1);
  if (truth == 0) return Interval::singleton(0);
  return Interval::range(0, 1);
}

namespace {

/// Shared raise logic of `/` and `%` (both raise on the same operand
/// pairs; only the result interval differs).
void divRaises(Interval a, Interval b, DivFacts& f) {
  f.mayRaise = b.contains(0) || (b.contains(-1) && a.contains(kMinV));
  f.mustRaise = (b == Interval::singleton(0)) ||
                (b == Interval::singleton(-1) && a == Interval::singleton(kMinV));
}

}  // namespace

DivFacts absDiv(Interval a, Interval b) {
  DivFacts f;
  if (a.isBottom() || b.isBottom()) return f;  // bottom result, no raise
  divRaises(a, b, f);
  if (f.mustRaise) return f;
  // Truncating division is monotone in each operand once the divisor has
  // constant sign, so the hull over the corners of the negative and
  // positive divisor sub-ranges is exact up to convexity. The one corner
  // outside int64 (INT64_MIN / -1 = 2^63) raises instead of occurring,
  // which makes the int64 clamp sound.
  bool any = false;
  Wide lo = 0;
  Wide hi = 0;
  const auto corner = [&](Wide c) {
    if (!any) {
      lo = hi = c;
      any = true;
    } else {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
  };
  if (b.lo <= -1) {
    const Value d0 = b.lo;
    const Value d1 = std::min<Value>(b.hi, -1);
    for (const Value d : {d0, d1}) {
      for (const Value nu : {a.lo, a.hi}) corner(static_cast<Wide>(nu) / d);
    }
  }
  if (b.hi >= 1) {
    const Value d0 = std::max<Value>(b.lo, 1);
    const Value d1 = b.hi;
    for (const Value d : {d0, d1}) {
      for (const Value nu : {a.lo, a.hi}) corner(static_cast<Wide>(nu) / d);
    }
  }
  if (!any) return f;  // b == [0, 0] is mustRaise above; unreachable guard
  f.result = Interval{static_cast<Value>(std::max<Wide>(lo, kMinV)),
                      static_cast<Value>(std::min<Wide>(hi, kMaxV))};
  return f;
}

DivFacts absMod(Interval a, Interval b) {
  DivFacts f;
  if (a.isBottom() || b.isBottom()) return f;
  divRaises(a, b, f);
  if (f.mustRaise) return f;
  // Singleton pair: compute the remainder exactly (the raising pairs are
  // mustRaise above, so the concrete operator is defined here).
  if (a.isSingleton() && b.isSingleton() && !f.mayRaise) {
    f.result = Interval::singleton(a.lo % b.lo);
    return f;
  }
  // C++ remainder: sign follows the dividend, |a % b| <= min(|a|, |b|-1).
  const Wide bound = std::min(maxAbs(b) - 1, maxAbs(a));
  const Value lo =
      a.lo < 0 ? static_cast<Value>(std::max<Wide>(-bound, static_cast<Wide>(kMinV))) : 0;
  const Value hi =
      a.hi > 0 ? static_cast<Value>(std::min<Wide>(bound, static_cast<Wide>(kMaxV))) : 0;
  f.result = Interval{lo, hi};
  return f;
}

ExprFacts analyzeExpr(const expr::Expr& e, const IntervalEnv& env) {
  using expr::Op;
  switch (e.op()) {
    case Op::kLit:
      return ExprFacts{Interval::singleton(e.literal()), false, false};
    case Op::kVar:
      return ExprFacts{env(e.ref()), false, false};
    case Op::kNeg:
    case Op::kAbs:
    case Op::kNot: {
      ExprFacts c = analyzeExpr(e.child(0), env);
      if (c.mustRaise) return c;
      c.value = e.op() == Op::kNeg   ? absNeg(c.value)
                : e.op() == Op::kAbs ? absAbs(c.value)
                                     : absNot(c.value);
      return c;
    }
    case Op::kAnd:
    case Op::kOr: {
      const bool isAnd = e.op() == Op::kAnd;
      const ExprFacts a = analyzeExpr(e.child(0), env);
      if (a.mustRaise) return a;
      // Short-circuit decided abstractly: the skipped right operand
      // contributes neither value nor raise facts, mirroring the
      // concrete skip.
      const bool rhsMayRun = isAnd ? mayNonzero(a.value) : a.value.contains(0);
      if (!rhsMayRun) return ExprFacts{boolOf(a.value), a.mayRaise, false};
      const bool rhsAlwaysRuns = isAnd ? !a.value.contains(0) : !mayNonzero(a.value);
      const ExprFacts b = analyzeExpr(e.child(1), env);
      ExprFacts out;
      out.mayRaise = a.mayRaise || b.mayRaise;
      if (rhsAlwaysRuns && b.mustRaise) {
        out.mustRaise = true;
        out.value = Interval::bottom();
        return out;
      }
      Interval res = Interval::bottom();
      if (isAnd) {
        if (a.value.contains(0)) res = join(res, Interval::singleton(0));
        if (!b.mustRaise) res = join(res, boolOf(b.value));
      } else {
        if (mayNonzero(a.value)) res = join(res, Interval::singleton(1));
        if (!b.mustRaise) res = join(res, boolOf(b.value));
      }
      out.value = res;
      return out;
    }
    case Op::kIte: {
      const ExprFacts c = analyzeExpr(e.child(0), env);
      if (c.mustRaise) return c;
      ExprFacts out;
      out.mayRaise = c.mayRaise;
      Interval res = Interval::bottom();
      bool allRaise = true;
      if (mayNonzero(c.value)) {
        const ExprFacts t = analyzeExpr(e.child(1), env);
        out.mayRaise = out.mayRaise || t.mayRaise;
        if (!t.mustRaise) {
          allRaise = false;
          res = join(res, t.value);
        }
      }
      if (c.value.contains(0)) {
        const ExprFacts f = analyzeExpr(e.child(2), env);
        out.mayRaise = out.mayRaise || f.mayRaise;
        if (!f.mustRaise) {
          allRaise = false;
          res = join(res, f.value);
        }
      }
      out.mustRaise = allRaise;
      if (out.mustRaise) out.mayRaise = true;
      out.value = out.mustRaise ? Interval::bottom() : res;
      return out;
    }
    default: {  // binary arithmetic / comparison — both operands evaluate
      const ExprFacts a = analyzeExpr(e.child(0), env);
      const ExprFacts b = analyzeExpr(e.child(1), env);
      ExprFacts out;
      out.mayRaise = a.mayRaise || b.mayRaise;
      if (a.mustRaise || b.mustRaise) {
        out.mustRaise = true;
        out.mayRaise = true;
        out.value = Interval::bottom();
        return out;
      }
      switch (e.op()) {
        case Op::kAdd: out.value = absAdd(a.value, b.value); break;
        case Op::kSub: out.value = absSub(a.value, b.value); break;
        case Op::kMul: out.value = absMul(a.value, b.value); break;
        case Op::kMin: out.value = absMin(a.value, b.value); break;
        case Op::kMax: out.value = absMax(a.value, b.value); break;
        case Op::kDiv:
        case Op::kMod: {
          const DivFacts d =
              e.op() == Op::kDiv ? absDiv(a.value, b.value) : absMod(a.value, b.value);
          out.mayRaise = out.mayRaise || d.mayRaise;
          out.mustRaise = d.mustRaise;
          out.value = d.result;
          break;
        }
        default:
          out.value = absCmp(e.op(), a.value, b.value);
          break;
      }
      return out;
    }
  }
}

std::vector<Interval> typeIntervals(const AtomicType& type) {
  const std::size_t n = type.variableCount();
  std::vector<Interval> env(n);
  std::vector<char> exported(n, 0);
  for (std::size_t pi = 0; pi < type.portCount(); ++pi) {
    for (const int v : type.port(static_cast<int>(pi)).exports) {
      if (v >= 0 && static_cast<std::size_t>(v) < n) exported[static_cast<std::size_t>(v)] = 1;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Exported variables are connector-writable during interactions;
    // nothing local bounds them.
    env[i] = exported[i] != 0 ? Interval::top()
                              : Interval::singleton(type.variable(static_cast<int>(i)).init);
  }
  const IntervalEnv read = [&env, n](expr::VarRef r) {
    if (r.scope != 0 || r.index < 0 || static_cast<std::size_t>(r.index) >= n) {
      return Interval::top();
    }
    return env[static_cast<std::size_t>(r.index)];
  };
  // Widening fixpoint: the first round joins precise action images, every
  // later change widens straight to top, so each variable moves at most
  // twice and the loop terminates in O(variables) rounds.
  for (int round = 0;; ++round) {
    bool changed = false;
    for (std::size_t ti = 0; ti < type.transitionCount(); ++ti) {
      const Transition& t = type.transition(static_cast<int>(ti));
      const ExprFacts g = analyzeExpr(t.guard, read);
      if (g.mustRaise || g.value.isBottom()) continue;
      if (!g.mayRaise && g.value == Interval::singleton(0)) continue;  // dead transition
      for (const expr::Assign& a : t.actions) {
        const ExprFacts f = analyzeExpr(a.value, read);
        if (f.mustRaise) break;  // later actions of the block never run
        const std::size_t target = static_cast<std::size_t>(a.target.index);
        if (a.target.scope != 0 || target >= n) continue;
        const Interval joined = join(env[target], f.value);
        if (joined != env[target]) {
          env[target] = round == 0 ? joined : Interval::top();
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return env;
}

}  // namespace cbip::analyze
