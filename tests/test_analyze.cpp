// Tests for the abstract-interpretation layer (src/analyze): the
// interval domain and its transfer functions, the Expr tree analyzer
// (with a soundness property test against concrete evaluation), engine
// traces on the program shapes the analyzer reasons about (dead and
// always-true guards, literal divisors) against the interpreter oracle,
// the model linter, and the D-Finder component-invariant feed.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/lint.hpp"
#include "compile_switch.hpp"
#include "core/semantics.hpp"
#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "expr/compile.hpp"
#include "models/models.hpp"
#include "shard/engine_sharded.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "verify/dfinder.hpp"

namespace cbip {
namespace {

using analyze::absAbs;
using analyze::absAdd;
using analyze::absCmp;
using analyze::absDiv;
using analyze::absMod;
using analyze::absMul;
using analyze::absNeg;
using analyze::absNot;
using analyze::absSub;
using analyze::DivFacts;
using analyze::ExprFacts;
using analyze::Interval;
using expr::Assign;
using expr::Expr;
using expr::ExprProgram;
using expr::VarRef;

constexpr Value kMin = std::numeric_limits<Value>::min();
constexpr Value kMax = std::numeric_limits<Value>::max();

Expr v(int i) { return Expr::local(i); }

// ---- interval domain -----------------------------------------------------

TEST(IntervalDomain, BasicLattice) {
  EXPECT_TRUE(Interval::bottom().isBottom());
  EXPECT_TRUE(Interval::top().isTop());
  EXPECT_TRUE(Interval::singleton(3).isSingleton());
  EXPECT_TRUE(Interval::range(-2, 5).contains(0));
  EXPECT_FALSE(Interval::range(-2, 5).contains(6));
  EXPECT_EQ(join(Interval::range(0, 2), Interval::range(5, 7)), Interval::range(0, 7));
  EXPECT_EQ(join(Interval::bottom(), Interval::singleton(9)), Interval::singleton(9));
}

TEST(IntervalDomain, WrappingOpsGoToTopOutOfRange) {
  EXPECT_EQ(absAdd(Interval::range(1, 2), Interval::range(3, 4)), Interval::range(4, 6));
  EXPECT_TRUE(absAdd(Interval::singleton(kMax), Interval::singleton(1)).isTop());
  EXPECT_EQ(absSub(Interval::range(5, 6), Interval::range(1, 2)), Interval::range(3, 5));
  EXPECT_TRUE(absSub(Interval::singleton(kMin), Interval::singleton(1)).isTop());
  EXPECT_EQ(absMul(Interval::range(2, 3), Interval::range(-4, 5)), Interval::range(-12, 15));
  EXPECT_TRUE(absMul(Interval::singleton(kMax), Interval::singleton(2)).isTop());
  // Bottom propagates.
  EXPECT_TRUE(absAdd(Interval::bottom(), Interval::top()).isBottom());
}

TEST(IntervalDomain, NegAbsInt64MinEdges) {
  EXPECT_EQ(absNeg(Interval::range(-3, 5)), Interval::range(-5, 3));
  // wrapNeg(INT64_MIN) == INT64_MIN, exactly representable as a singleton.
  EXPECT_EQ(absNeg(Interval::singleton(kMin)), Interval::singleton(kMin));
  // A non-singleton interval containing INT64_MIN wraps: top.
  EXPECT_TRUE(absNeg(Interval::range(kMin, 0)).isTop());
  EXPECT_EQ(absAbs(Interval::range(-3, 5)), Interval::range(0, 5));
  EXPECT_EQ(absAbs(Interval::singleton(kMin)), Interval::singleton(kMin));
  EXPECT_TRUE(absAbs(Interval::range(kMin, -1)).isTop());
}

TEST(IntervalDomain, NotAndComparisons) {
  EXPECT_EQ(absNot(Interval::singleton(0)), Interval::singleton(1));
  EXPECT_EQ(absNot(Interval::range(1, 5)), Interval::singleton(0));
  EXPECT_EQ(absNot(Interval::range(-1, 1)), Interval::range(0, 1));
  EXPECT_EQ(absCmp(expr::Op::kLt, Interval::range(0, 2), Interval::range(3, 4)),
            Interval::singleton(1));
  EXPECT_EQ(absCmp(expr::Op::kLt, Interval::range(3, 4), Interval::range(0, 2)),
            Interval::singleton(0));
  EXPECT_EQ(absCmp(expr::Op::kLt, Interval::range(0, 4), Interval::range(2, 3)),
            Interval::range(0, 1));
  EXPECT_EQ(absCmp(expr::Op::kEq, Interval::singleton(7), Interval::singleton(7)),
            Interval::singleton(1));
  EXPECT_EQ(absCmp(expr::Op::kEq, Interval::singleton(7), Interval::singleton(8)),
            Interval::singleton(0));
}

TEST(IntervalDomain, DivisionFacts) {
  // Positive literal divisor: exact, no raise.
  const DivFacts d = absDiv(Interval::range(10, 20), Interval::range(2, 4));
  EXPECT_FALSE(d.mayRaise);
  EXPECT_FALSE(d.mustRaise);
  EXPECT_TRUE(d.result.contains(10 / 2));
  EXPECT_TRUE(d.result.contains(20 / 2));
  EXPECT_TRUE(d.result.contains(10 / 4));
  // Divisor pinned to zero: every evaluation raises.
  const DivFacts z = absDiv(Interval::singleton(1), Interval::singleton(0));
  EXPECT_TRUE(z.mayRaise);
  EXPECT_TRUE(z.mustRaise);
  EXPECT_TRUE(z.result.isBottom());
  // INT64_MIN / -1: the one overflowing pair, also a must-raise.
  const DivFacts o = absDiv(Interval::singleton(kMin), Interval::singleton(-1));
  EXPECT_TRUE(o.mayRaise);
  EXPECT_TRUE(o.mustRaise);
  // Divisor straddling zero: may raise, never must (some pairs succeed).
  const DivFacts s = absDiv(Interval::range(1, 10), Interval::range(-2, 3));
  EXPECT_TRUE(s.mayRaise);
  EXPECT_FALSE(s.mustRaise);
  EXPECT_TRUE(s.result.contains(10 / -1));
  EXPECT_TRUE(s.result.contains(10 / 1));
  // Modulo by a positive literal bounds the result below the divisor.
  const DivFacts m = absMod(Interval::top(), Interval::singleton(4));
  EXPECT_FALSE(m.mayRaise);
  EXPECT_TRUE(Interval::range(-3, 3).contains(m.result.lo));
  EXPECT_TRUE(Interval::range(-3, 3).contains(m.result.hi));
  const DivFacts mp = absMod(Interval::range(0, 100), Interval::singleton(4));
  EXPECT_FALSE(mp.result.contains(-1));
  EXPECT_TRUE(mp.result.contains(3));
}

// ---- constant-folder audit (Expr::make / applyBinary vs analyzer) --------

TEST(FolderAudit, FoldRefusalMatchesAnalyzerRaisingCases) {
  // The builder fold (Expr::make) and the compiler fold (applyBinary)
  // refuse to fold a literal division exactly when the analyzer says the
  // singleton pair may raise — and a singleton pair mayRaise iff it
  // mustRaise iff the concrete evaluation throws.
  const Value corners[] = {kMin, kMin + 1, -2, -1, 0, 1, 2, kMax - 1, kMax};
  std::vector<Value> noVars;
  for (Value a : corners) {
    for (Value b : corners) {
      const bool raises = (b == 0) || expr::divOverflows(a, b);
      for (bool isMod : {false, true}) {
        const Expr e =
            isMod ? Expr::lit(a) % Expr::lit(b) : Expr::lit(a) / Expr::lit(b);
        const DivFacts f = isMod ? absMod(Interval::singleton(a), Interval::singleton(b))
                                 : absDiv(Interval::singleton(a), Interval::singleton(b));
        EXPECT_EQ(f.mayRaise, raises) << a << (isMod ? " % " : " / ") << b;
        EXPECT_EQ(f.mustRaise, raises) << a << (isMod ? " % " : " / ") << b;
        // Folders fold iff the analyzer proves the pair safe.
        EXPECT_EQ(e.isConst(), !raises) << a << (isMod ? " % " : " / ") << b;
        if (raises) {
          EXPECT_THROW(e.eval(noVars), EvalError);
          EXPECT_THROW(expr::compileLocal(e).run(noVars), EvalError);
        } else {
          const Value expect = isMod ? a % b : a / b;
          EXPECT_EQ(e.eval(noVars), expect);
          EXPECT_EQ(expr::compileLocal(e).run(noVars), expect);
          EXPECT_EQ(f.result, Interval::singleton(expect));
        }
      }
    }
  }
}

// ---- Expr-level analysis -------------------------------------------------

analyze::IntervalEnv envOf(std::vector<Interval> slots) {
  return [slots = std::move(slots)](VarRef r) {
    if (r.scope != 0 || r.index < 0 || static_cast<std::size_t>(r.index) >= slots.size()) {
      return Interval::top();
    }
    return slots[static_cast<std::size_t>(r.index)];
  };
}

TEST(AnalyzeExpr, ShortCircuitSkipsDoomedOperand) {
  const Expr guarded = (v(0) != Expr::lit(0)) && (Expr::lit(1) / v(0) > Expr::lit(0));
  // v0 pinned to 0: the rhs never runs, so no raise and a definite false.
  const ExprFacts atZero = analyze::analyzeExpr(guarded, envOf({Interval::singleton(0)}));
  EXPECT_FALSE(atZero.mayRaise);
  EXPECT_EQ(atZero.value, Interval::singleton(0));
  // v0 in [1, 5]: the rhs runs but its divisor cannot be zero.
  const ExprFacts positive = analyze::analyzeExpr(guarded, envOf({Interval::range(1, 5)}));
  EXPECT_FALSE(positive.mayRaise);
  // v0 unknown: the rhs may run with a zero divisor.
  const ExprFacts top = analyze::analyzeExpr(guarded, envOf({Interval::top()}));
  EXPECT_TRUE(top.mayRaise);
  EXPECT_FALSE(top.mustRaise);
}

TEST(AnalyzeExpr, IteBranchFeasibility) {
  // Condition provably true: the doomed else branch contributes nothing.
  const Expr e = Expr::ite(v(0), Expr::lit(5), Expr::lit(1) / Expr::lit(0));
  const ExprFacts taken = analyze::analyzeExpr(e, envOf({Interval::singleton(1)}));
  EXPECT_FALSE(taken.mayRaise);
  EXPECT_EQ(taken.value, Interval::singleton(5));
  // Condition unknown: both branches join, the else may raise.
  const ExprFacts both = analyze::analyzeExpr(e, envOf({Interval::top()}));
  EXPECT_TRUE(both.mayRaise);
}

TEST(AnalyzeExpr, MustRaisePropagates) {
  const Expr e = v(0) / (v(1) - Expr::lit(3));
  const ExprFacts f =
      analyze::analyzeExpr(e, envOf({Interval::top(), Interval::singleton(3)}));
  EXPECT_TRUE(f.mayRaise);
  EXPECT_TRUE(f.mustRaise);
  EXPECT_TRUE(f.value.isBottom());
}

TEST(AnalyzeExpr, LiteralDivisorsNeverRaise) {
  // Literal divisors outside {0, -1} cannot raise, even at the INT64_MIN
  // edges: the analyzer proves the whole expression raise-free under the
  // all-top environment, and concrete runs on both paths agree.
  const Expr e = v(0) / Expr::lit(7) + v(1) % Expr::lit(3);
  const ExprFacts facts = analyze::analyzeExpr(e, envOf({Interval::top(), Interval::top()}));
  EXPECT_FALSE(facts.mayRaise);
  EXPECT_FALSE(facts.mustRaise);
  const ExprProgram p = expr::compileLocal(e);
  Rng rng(99);
  for (int k = 0; k < 200; ++k) {
    std::vector<Value> frame{rng.chance(1, 8) ? kMin : rng.range(-100, 100),
                             rng.chance(1, 8) ? kMax : rng.range(-100, 100)};
    EXPECT_EQ(p.run(frame), e.eval(frame));
  }
}

TEST(AnalyzeExpr, UnknownDivisorStaysChecked) {
  const Expr e = v(0) / v(1);
  const ExprFacts facts = analyze::analyzeExpr(e, envOf({Interval::top(), Interval::top()}));
  EXPECT_TRUE(facts.mayRaise);
  EXPECT_FALSE(facts.mustRaise);
  std::vector<Value> frame{1, 0};
  EXPECT_THROW(e.eval(frame), EvalError);
  EXPECT_THROW(expr::compileLocal(e).run(frame), EvalError);
}

TEST(AnalyzeExpr, MustRaiseWhenDivisorPinnedToZero) {
  const Expr e = Expr::lit(1) / (v(0) - Expr::lit(3));
  const ExprFacts facts = analyze::analyzeExpr(e, envOf({Interval::singleton(3)}));
  EXPECT_TRUE(facts.mayRaise);
  EXPECT_TRUE(facts.mustRaise);
  EXPECT_TRUE(facts.value.isBottom());
}

TEST(AnalyzeExpr, GuardIntervalProvesDeadAndAlwaysTrue) {
  // x % 4 can never exceed 3, so these guards fold under the all-top
  // (mutation-proof) execution environment.
  const ExprFacts dead =
      analyze::analyzeExpr(v(0) % Expr::lit(4) > Expr::lit(10), envOf({Interval::top()}));
  EXPECT_FALSE(dead.mayRaise);
  EXPECT_EQ(dead.value, Interval::singleton(0));
  const ExprFacts alive =
      analyze::analyzeExpr(v(0) % Expr::lit(4) < Expr::lit(10), envOf({Interval::top()}));
  EXPECT_FALSE(alive.mayRaise);
  EXPECT_EQ(alive.value, Interval::singleton(1));
}

// ---- soundness against concrete evaluation --------------------------------

/// A literal from the int64 and 0 / -1 corners, or a small value.
Value cornerOrSmall(Rng& rng) {
  static constexpr Value kCorners[] = {kMin, kMin + 1, -2, -1, 0, 1, 2, kMax - 1, kMax};
  return rng.chance(1, 2) ? kCorners[rng.index(std::size(kCorners))] : rng.range(-9, 9);
}

/// Random expression over locals 0..vars-1 using every operator the
/// analyzer models. Operands are drawn in a fixed order, so a seed always
/// builds the same tree.
Expr randomExpr(Rng& rng, int vars, int depth) {
  if (depth == 0 || rng.chance(1, 4)) {
    return rng.chance(1, 2) ? v(static_cast<int>(rng.below(static_cast<std::uint64_t>(vars))))
                            : Expr::lit(cornerOrSmall(rng));
  }
  const auto sub = [&] { return randomExpr(rng, vars, depth - 1); };
  const int op = static_cast<int>(rng.below(20));
  if (op == 0) return -sub();
  if (op == 1) return Expr::abs(sub());
  if (op == 2) return !sub();
  Expr a = sub();
  Expr b = sub();
  switch (op) {
    case 3: return a + b;
    case 4: return a - b;
    case 5: return a * b;
    case 6: return a / b;
    case 7: return a % b;
    case 8: return Expr::min(a, b);
    case 9: return Expr::max(a, b);
    case 10: return a == b;
    case 11: return a != b;
    case 12: return a < b;
    case 13: return a <= b;
    case 14: return a > b;
    case 15: return a >= b;
    case 16: return a && b;
    case 17: return a || b;
    default: return Expr::ite(a, b, sub());
  }
}

/// A random interval: a corner or small singleton, a small range, or a
/// range reaching one or both int64 ends.
Interval randomInterval(Rng& rng) {
  const Value a = cornerOrSmall(rng);
  const Value b = cornerOrSmall(rng);
  switch (rng.below(5)) {
    case 0: return Interval::singleton(a);
    case 1: return Interval::range(kMin, std::max(a, b));
    case 2: return Interval::range(std::min(a, b), kMax);
    case 3: return Interval::top();
    default: return Interval::range(std::min(a, b), std::max(a, b));
  }
}

/// A value inside `i`, with each endpoint drawn a quarter of the time.
Value sampleIn(Rng& rng, Interval i) {
  if (rng.chance(1, 4)) return i.lo;
  if (rng.chance(1, 3)) return i.hi;
  return rng.range(i.lo, i.hi);
}

TEST(AnalyzeExpr, SoundAgainstConcreteEvaluation) {
  // The tree analyzer is the verifier's only source of guard facts, so
  // every fact it states must hold on every concrete frame its
  // environment admits.
  Rng rng(2024);
  std::size_t valuesChecked = 0;
  std::size_t raisesSeen = 0;
  std::size_t mustRaiseExprs = 0;
  std::size_t raiseFreeExprs = 0;
  for (int round = 0; round < 4000; ++round) {
    const int vars = static_cast<int>(rng.range(2, 3));
    const Expr e = randomExpr(rng, vars, static_cast<int>(rng.range(1, 4)));
    std::vector<Interval> env;
    for (int k = 0; k < vars; ++k) env.push_back(randomInterval(rng));
    const ExprFacts facts = analyze::analyzeExpr(e, envOf(env));
    ASSERT_TRUE(facts.mayRaise || !facts.mustRaise) << e.toString();
    mustRaiseExprs += facts.mustRaise ? 1 : 0;
    raiseFreeExprs += facts.mayRaise ? 0 : 1;
    for (int k = 0; k < 16; ++k) {
      std::vector<Value> frame;
      for (const Interval& i : env) frame.push_back(sampleIn(rng, i));
      std::optional<Value> result;
      try {
        result = e.eval(frame);
      } catch (const EvalError&) {
      }
      const auto where = [&] {
        std::string out = e.toString() + " at";
        for (const Value x : frame) out += " " + std::to_string(x);
        return out;
      };
      if (result) {
        ++valuesChecked;
        ASSERT_TRUE(facts.value.contains(*result))
            << where() << " = " << *result << " outside " << facts.value.toString();
        ASSERT_FALSE(facts.mustRaise) << where() << " completed under mustRaise";
      } else {
        ++raisesSeen;
        ASSERT_TRUE(facts.mayRaise) << where() << " raised without mayRaise";
      }
    }
  }
  RecordProperty("values_checked", std::to_string(valuesChecked));
  RecordProperty("raises_seen", std::to_string(raisesSeen));
  RecordProperty("must_raise_exprs", std::to_string(mustRaiseExprs));
  RecordProperty("raise_free_exprs", std::to_string(raiseFreeExprs));
  // No assertion may hold vacuously.
  EXPECT_GE(valuesChecked, 10'000u);
  EXPECT_GE(raisesSeen, 1'000u);
  EXPECT_GE(mustRaiseExprs, 50u);
  EXPECT_GE(raiseFreeExprs, 1'000u);
}

// ---- engine-level identity on analyzable programs -------------------------

/// Division-heavy system with every shape the analyzer proves facts about:
/// a dead guard, an always-true non-trivial guard, provably safe
/// literal-divisor sites in guards, actions and connector transfer
/// programs. Execution never consumes those facts; the cross-checks pin
/// the compiled programs to the interpreter oracle on exactly these
/// shapes.
System divHeavy() {
  auto t = std::make_shared<AtomicType>("D");
  const int idle = t->addLocation("idle");
  const int busy = t->addLocation("busy");
  const int x = t->addVariable("x", 1);
  const int acc = t->addVariable("acc", 0);
  const int p = t->addPort("p", {x});
  // Relaxable sites (literal divisors) in guard and actions.
  t->addTransition(idle, p, Expr::local(x) % Expr::lit(64) < Expr::lit(60),
                   {Assign{VarRef{0, acc}, (Expr::local(acc) + Expr::local(x)) % Expr::lit(257)}},
                   busy);
  // Dead guard: x % 4 > 10 never holds.
  t->addTransition(idle, kInternalPort, Expr::local(x) % Expr::lit(4) > Expr::lit(10),
                   {Assign{VarRef{0, x}, Expr::lit(0)}}, busy);
  // Always-true non-trivial guard.
  t->addTransition(busy, kInternalPort, Expr::local(x) % Expr::lit(4) < Expr::lit(10),
                   {Assign{VarRef{0, x},
                           (Expr::local(x) * Expr::lit(5) + Expr::local(acc)) % Expr::lit(101) +
                               Expr::lit(1)}},
                   idle);
  t->setInitialLocation(idle);

  System sys;
  const int a = sys.addInstance("a", t);
  const int b = sys.addInstance("b", t);
  Connector c("link");
  const int ea = c.addSynchron(PortRef{a, 0});
  const int eb = c.addSynchron(PortRef{b, 0});
  const int sum = c.addVariable("sum");
  c.setGuard((Expr::var(ea, 0) + Expr::var(eb, 0)) % Expr::lit(7) != Expr::lit(3));
  c.addUp(sum, Expr::var(ea, 0) + Expr::var(eb, 0));
  c.addDown(ea, 0, Expr::var(expr::kConnectorScope, sum) / Expr::lit(2) + Expr::lit(1));
  c.addDown(eb, 0, Expr::var(expr::kConnectorScope, sum) % Expr::lit(97) + Expr::lit(1));
  sys.addConnector(std::move(c));
  sys.validate();
  return sys;
}

void expectIdenticalRuns(const RunResult& on, const RunResult& off, const std::string& what) {
  EXPECT_EQ(on.reason, off.reason) << what;
  EXPECT_EQ(on.steps, off.steps) << what;
  EXPECT_EQ(on.finalState, off.finalState) << what;
  ASSERT_EQ(on.trace.events.size(), off.trace.events.size()) << what;
  for (std::size_t i = 0; i < on.trace.events.size(); ++i) {
    EXPECT_EQ(on.trace.events[i].step, off.trace.events[i].step) << what << " event " << i;
    EXPECT_EQ(on.trace.events[i].connector, off.trace.events[i].connector)
        << what << " event " << i;
    EXPECT_EQ(on.trace.events[i].mask, off.trace.events[i].mask) << what << " event " << i;
    EXPECT_EQ(on.trace.events[i].label, off.trace.events[i].label) << what << " event " << i;
  }
}

/// Builds the m-th cross-check model fresh (each evaluation path gets its
/// own types and compiled-program caches).
System crossCheckModel(std::size_t m) {
  switch (m) {
    case 0: return models::philosophersAtomic(6);
    case 1: return models::producerConsumerBounded(3, 7);
    case 2: return models::tokenRing(6);
    default: return divHeavy();
  }
}

TEST(AnalysisCrossCheck, SequentialTracesBitIdentical) {
  const char* names[] = {"phil", "prodcons", "ring", "divHeavy"};
  for (std::size_t m = 0; m < 4; ++m) {
    for (std::uint64_t seed : {3ULL, 17ULL, 99ULL}) {
      RunResult runs[2];
      for (int compiledOn = 0; compiledOn < 2; ++compiledOn) {
        CompileSwitch sw(compiledOn == 1);
        const System sys = crossCheckModel(m);
        RandomPolicy policy(seed);
        SequentialEngine engine(sys, policy);
        RunOptions opt;
        opt.maxSteps = 300;
        runs[compiledOn] = engine.run(opt);
      }
      expectIdenticalRuns(runs[1], runs[0],
                          std::string(names[m]) + " seed " + std::to_string(seed));
    }
  }
}

TEST(AnalysisCrossCheck, MultiThreadTracesBitIdentical) {
  const char* names[] = {"phil", "prodcons", "ring", "divHeavy"};
  for (std::size_t m = 0; m < 4; ++m) {
    RunResult runs[2];
    for (int compiledOn = 0; compiledOn < 2; ++compiledOn) {
      CompileSwitch sw(compiledOn == 1);
      const System sys = crossCheckModel(m);
      RandomPolicy policy(7);
      MultiThreadEngine engine(sys, policy);
      MtOptions opt;
      opt.maxSteps = 200;
      runs[compiledOn] = engine.run(opt);
    }
    expectIdenticalRuns(runs[1], runs[0], names[m]);
  }
}

TEST(AnalysisCrossCheck, ShardedTracesBitIdentical) {
  // One shard keeps the sharded engine deterministic (bit-identical to
  // SequentialEngine) while still exercising its compiled scan path.
  for (std::size_t m = 0; m < 4; ++m) {
    RunResult runs[2];
    for (int compiledOn = 0; compiledOn < 2; ++compiledOn) {
      CompileSwitch sw(compiledOn == 1);
      const System sys = crossCheckModel(m);
      shard::ShardedEngine engine(sys, 1);
      shard::ShardedOptions opt;
      opt.maxSteps = 200;
      opt.seed = 11;
      runs[compiledOn] = engine.run(opt);
    }
    expectIdenticalRuns(runs[1], runs[0], "model " + std::to_string(m));
  }
}

TEST(AnalysisCrossCheck, FirstEvalErrorIdentical) {
  // A guard mixing a provably safe site (x / 2) with an unprovable one
  // (7 % y): the compiled guard must raise the interpreter's EvalError.
  auto makeType = [] {
    auto t = std::make_shared<AtomicType>("E");
    const int l = t->addLocation("l");
    const int x = t->addVariable("x", 8);
    const int y = t->addVariable("y", 0);
    t->addTransition(l, kInternalPort,
                     Expr::local(x) / Expr::lit(2) + Expr::lit(7) % Expr::local(y) >
                         Expr::lit(0),
                     {}, l);
    (void)x;
    (void)y;
    t->setInitialLocation(l);
    t->validate();
    return t;
  };
  std::string messages[2];
  for (int compiledOn = 0; compiledOn < 2; ++compiledOn) {
    CompileSwitch sw(compiledOn == 1);
    auto t = makeType();
    AtomicState s = initialState(*t);
    try {
      tryFire(*t, s, 0);
      FAIL() << "expected EvalError (compiled " << compiledOn << ")";
    } catch (const EvalError& e) {
      messages[compiledOn] = e.what();
    }
  }
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_EQ(messages[0], "modulo by zero");
}

// ---- linter --------------------------------------------------------------

/// Type with one seeded defect per component-side lint kind: `limit` is
/// unexported and never written, so typeIntervals pins it to [5, 5].
AtomicTypePtr lintyType() {
  auto t = std::make_shared<AtomicType>("Linty");
  const int a = t->addLocation("a");
  const int b = t->addLocation("b");
  const int limit = t->addVariable("limit", 5);
  const int x = t->addVariable("x", 1);
  // #0: dead — limit < 0 can never hold.
  t->addTransition(a, kInternalPort, Expr::local(limit) < Expr::lit(0), {}, b);
  // #1: always-true non-trivial guard.
  t->addTransition(a, kInternalPort, Expr::local(limit) > Expr::lit(0),
                   {Assign{VarRef{0, x}, Expr::local(x) + Expr::lit(1)}}, b);
  // #2: action divides by (limit - 5) == 0 — raises on every firing.
  t->addTransition(b, kInternalPort, Expr::top(),
                   {Assign{VarRef{0, x}, Expr::local(x) / (Expr::local(limit) - Expr::lit(5))}},
                   a);
  t->setInitialLocation(a);
  t->validate();
  return t;
}

TEST(Lint, FlagsSeededComponentDefects) {
  const std::vector<analyze::Diagnostic> diags = analyze::lintType(*lintyType());
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].kind, analyze::LintKind::kDeadTransition);
  EXPECT_EQ(diags[1].kind, analyze::LintKind::kAlwaysTrueGuard);
  EXPECT_EQ(diags[2].kind, analyze::LintKind::kGuaranteedRaise);
  // Provenance names the atom and the transition shape.
  EXPECT_NE(diags[0].where.find("Linty"), std::string::npos);
  EXPECT_NE(diags[0].where.find("#0"), std::string::npos);
  EXPECT_NE(toString(diags[0]).find("dead-transition"), std::string::npos);
  EXPECT_NE(toString(diags[2]).find("guaranteed-evalerror"), std::string::npos);
}

TEST(Lint, FlagsSeededConnectorDefects) {
  auto t = std::make_shared<AtomicType>("T");
  const int l = t->addLocation("l");
  const int vv = t->addVariable("v", 0);
  t->addPort("p", {vv});
  t->addTransition(l, 0, l);
  t->setInitialLocation(l);

  System sys;
  const int a = sys.addInstance("a", t);
  const int b = sys.addInstance("b", t);

  {
    Connector c("deadc");
    const int ea = c.addSynchron(PortRef{a, 0});
    c.addSynchron(PortRef{b, 0});
    c.setGuard(Expr::var(ea, 0) % Expr::lit(4) > Expr::lit(10));
    sys.addConnector(std::move(c));
  }
  {
    Connector c("truec");
    const int ea = c.addSynchron(PortRef{a, 0});
    c.addSynchron(PortRef{b, 0});
    c.setGuard(Expr::var(ea, 0) % Expr::lit(4) < Expr::lit(10));
    sys.addConnector(std::move(c));
  }
  {
    Connector c("unread");
    const int ea = c.addSynchron(PortRef{a, 0});
    c.addSynchron(PortRef{b, 0});
    const int sum = c.addVariable("sum");
    c.addUp(sum, Expr::var(ea, 0));
    sys.addConnector(std::move(c));
  }
  {
    Connector c("rbw");
    const int ea = c.addSynchron(PortRef{a, 0});
    c.addSynchron(PortRef{b, 0});
    const int w = c.addVariable("w");
    c.addDown(ea, 0, Expr::var(expr::kConnectorScope, w));
    sys.addConnector(std::move(c));
  }
  sys.validate();

  const std::vector<analyze::Diagnostic> diags = analyze::lintSystem(sys);
  auto count = [&diags](analyze::LintKind kind) {
    std::size_t n = 0;
    for (const analyze::Diagnostic& d : diags) n += d.kind == kind ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count(analyze::LintKind::kDeadConnector), 1u);
  EXPECT_EQ(count(analyze::LintKind::kAlwaysTrueConnectorGuard), 1u);
  EXPECT_EQ(count(analyze::LintKind::kConnectorVarNeverRead), 1u);
  EXPECT_EQ(count(analyze::LintKind::kConnectorVarReadBeforeWrite), 1u);
  EXPECT_EQ(count(analyze::LintKind::kDeadTransition), 0u);
  for (const analyze::Diagnostic& d : diags) {
    EXPECT_FALSE(d.where.empty()) << toString(d);
    EXPECT_FALSE(d.message.empty()) << toString(d);
  }
}

TEST(Lint, ModelZooIsClean) {
  const System zoo[] = {models::philosophersAtomic(4), models::philosophersTwoStep(3),
                        models::gasStation(2, 3), models::producerConsumer(3),
                        models::producerConsumerBounded(3, 7), models::tokenRing(5)};
  const char* names[] = {"philosophersAtomic", "philosophersTwoStep", "gasStation",
                         "producerConsumer", "producerConsumerBounded", "tokenRing"};
  for (std::size_t m = 0; m < std::size(zoo); ++m) {
    const std::vector<analyze::Diagnostic> diags = analyze::lintSystem(zoo[m]);
    EXPECT_TRUE(diags.empty()) << names[m] << ": "
                               << (diags.empty() ? "" : toString(diags.front()));
  }
}

// ---- typeIntervals -------------------------------------------------------

TEST(TypeIntervals, SeedsAndWidens) {
  auto t = std::make_shared<AtomicType>("W");
  const int l = t->addLocation("l");
  const int constant = t->addVariable("constant", 5);  // never written
  const int counter = t->addVariable("counter", 0);    // widened by writes
  const int exported = t->addVariable("exported", 2);  // connectors may write
  t->addPort("p", {exported});
  t->addTransition(l, kInternalPort, Expr::top(),
                   {Assign{VarRef{0, counter}, Expr::local(counter) + Expr::lit(1)}}, l);
  t->setInitialLocation(l);
  t->validate();
  const std::vector<Interval> intervals = analyze::typeIntervals(*t);
  ASSERT_EQ(intervals.size(), 3u);
  EXPECT_EQ(intervals[static_cast<std::size_t>(constant)], Interval::singleton(5));
  EXPECT_TRUE(intervals[static_cast<std::size_t>(counter)].isTop());
  EXPECT_TRUE(intervals[static_cast<std::size_t>(exported)].isTop());
}

// ---- D-Finder feed -------------------------------------------------------

TEST(DFinderFeed, ClearsProvablyDeadGuards) {
  System sys;
  sys.addInstance("i", lintyType());
  sys.validate();
  // Hand-built conservative invariant: everything reachable, every guard
  // feasible — exactly what the location-only fallback produces.
  std::vector<verify::ComponentInvariant> invs(1);
  invs[0].reachableLocations.assign(2, true);
  invs[0].guardFeasible.assign(3, true);
  const std::size_t pruned = verify::strengthenWithAnalysis(sys, invs);
  EXPECT_EQ(pruned, 1u);
  EXPECT_FALSE(invs[0].guardFeasible[0]);  // the dead transition
  EXPECT_TRUE(invs[0].guardFeasible[1]);
  EXPECT_TRUE(invs[0].guardFeasible[2]);
  // Idempotent: a second pass finds nothing new.
  EXPECT_EQ(verify::strengthenWithAnalysis(sys, invs), 0u);
}

TEST(DFinderFeed, VerdictUnchangedByAnalysis) {
  // checkDeadlockFreedom always strengthens its invariants with the
  // abstract-interpretation feed; the verdict must equal the one from the
  // bare component invariants.
  const System free = models::philosophersAtomic(4);
  const System deadlocky = models::philosophersTwoStep(3);
  for (const System* sys : {&free, &deadlocky}) {
    std::vector<verify::ComponentInvariant> bare;
    for (std::size_t i = 0; i < sys->instanceCount(); ++i) {
      bare.push_back(verify::componentInvariant(*sys->instance(i).type));
    }
    const verify::DFinderVerdict unstrengthened =
        verify::checkDeadlockFreedomWith(*sys, std::move(bare), {}).verdict;
    EXPECT_EQ(verify::checkDeadlockFreedom(*sys).verdict, unstrengthened);
  }
  EXPECT_EQ(verify::checkDeadlockFreedom(free).verdict, verify::DFinderVerdict::kDeadlockFree);
}

}  // namespace
}  // namespace cbip
