// Abstract interpretation over the data sub-language.
//
// The paper's thesis is that rigorous design catches defects *before*
// execution; until now every correctness instrument in this repo was
// dynamic (differential traces, sanitizers, D-Finder state exploration).
// This module adds the static side: a forward abstract interpreter over
// Expr trees — the one semantic oracle both evaluation paths are tested
// against — in the domain
//
//     interval x may-raise-EvalError
//
// The data sub-language is an unusually friendly analysis target: it has
// no loops, its arithmetic is fully defined (two's-complement wrapping
// for + - * neg abs, EvalError on zero divisors and on INT64_MIN / -1),
// and it has exactly one kind of runtime failure. One recursive pass over
// a tree therefore computes the exact fixpoint, not an approximation of
// one. The compiled bytecode is never analyzed: it is differentially
// tested against the trees, so facts about a tree hold for its program.
//
// Two consumers:
//   * lint (src/analyze/lint.hpp) — always-false / always-true guards,
//     guaranteed-EvalError sites, connector data-flow diagnostics;
//   * the D-Finder feed (src/verify/dfinder.cpp) — transitions whose
//     guard is provably false under typeIntervals() are removed from the
//     deadlock-condition sources, whichever evaluation path is enabled.
// Execution never consumes analysis facts: the engines run the programs
// exactly as compiled, so the analyzer can never change a trace.
//
// Environment contract: typeIntervals() seeds from declared initial
// values and closes over the type's own transitions — the same
// "reachable when the component runs in isolation under the engine"
// contract as the verifier's componentInvariant. It is NOT sound against
// host code, tests or the srbip runtime mutating GlobalState directly,
// which is one more reason its facts never steer execution.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/atomic.hpp"
#include "expr/expr.hpp"

namespace cbip::analyze {

using expr::Value;

/// A closed interval of int64 values; `lo > hi` encodes bottom (no
/// value — unreachable or guaranteed-raise). Top is the full int64
/// range. The domain has no infinities: wrapping arithmetic goes to top
/// instead of widening past the representable range.
struct Interval {
  Value lo = 0;
  Value hi = 0;

  static Interval top() {
    return Interval{std::numeric_limits<Value>::min(), std::numeric_limits<Value>::max()};
  }
  static Interval bottom() { return Interval{1, 0}; }
  static Interval singleton(Value v) { return Interval{v, v}; }
  static Interval range(Value lo, Value hi) { return Interval{lo, hi}; }

  bool isBottom() const { return lo > hi; }
  bool isTop() const {
    return lo == std::numeric_limits<Value>::min() && hi == std::numeric_limits<Value>::max();
  }
  bool isSingleton() const { return lo == hi; }
  bool contains(Value v) const { return lo <= v && v <= hi; }

  friend bool operator==(const Interval&, const Interval&) = default;

  std::string toString() const;
};

/// Least upper bound (interval hull).
Interval join(Interval a, Interval b);

// ---- transfer functions -------------------------------------------------
//
// Each mirrors the concrete operator in expr.hpp exactly: wrapping ops
// return top as soon as a corner leaves the int64 range (the wrapped
// image of an interval is not an interval), the INT64_MIN edge cases of
// neg/abs go to top unless the operand is that singleton, and
// comparisons return a sub-interval of [0, 1]. All propagate bottom.

Interval absAdd(Interval a, Interval b);
Interval absSub(Interval a, Interval b);
Interval absMul(Interval a, Interval b);
Interval absNeg(Interval a);
Interval absAbs(Interval a);
Interval absNot(Interval a);
Interval absMin(Interval a, Interval b);
Interval absMax(Interval a, Interval b);
/// `op` must be one of kEq..kGe.
Interval absCmp(expr::Op op, Interval a, Interval b);

/// Division / modulo carry the EvalError dimension alongside the value:
/// mayRaise when the divisor interval admits 0 (or the INT64_MIN / -1
/// pair is admitted), mustRaise when *every* admitted operand pair
/// raises — then `result` is bottom.
struct DivFacts {
  Interval result = Interval::bottom();
  bool mayRaise = false;
  bool mustRaise = false;
};

DivFacts absDiv(Interval a, Interval b);
DivFacts absMod(Interval a, Interval b);

/// Result of abstractly evaluating one expression: its value interval
/// plus the EvalError dimension. mustRaise implies mayRaise and a bottom
/// value (evaluation never completes).
struct ExprFacts {
  Interval value = Interval::top();
  bool mayRaise = false;
  bool mustRaise = false;
};

/// Maps a variable reference to its interval; the analysis equivalent of
/// expr::EvalContext. Returning top() is always sound.
using IntervalEnv = std::function<Interval(expr::VarRef)>;

/// Abstractly evaluates an Expr tree under `env`. Mirrors Expr::eval's
/// semantics including short-circuit && / || and ite branch pruning: a
/// branch the condition interval excludes contributes neither value nor
/// raise facts, exactly as its concrete evaluation would be skipped.
ExprFacts analyzeExpr(const expr::Expr& e, const IntervalEnv& env);

/// Per-variable intervals covering every value the variable can hold
/// when instances of `type` run in isolation under the engine: exported
/// variables start at top (connectors write them during interactions),
/// unexported ones at their declared initial value, then a widening
/// fixpoint over the type's own transition writes (transitions whose
/// guard is provably false or provably raising under the current facts
/// contribute nothing). Same contract as the verifier's
/// componentInvariant — NOT sound against host code mutating GlobalState
/// directly (see the file comment).
std::vector<Interval> typeIntervals(const AtomicType& type);

}  // namespace cbip::analyze
