// Tests for the abstract-interpretation layer (src/analyze): the
// interval domain and its transfer functions, the Expr- and
// bytecode-level analyzers, engine traces on the program shapes the
// analyzer reasons about (dead and always-true guards, literal divisors)
// against the interpreter oracle, the model linter, and the D-Finder
// component-invariant feed.
#include <gtest/gtest.h>

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
using analyze::ProgramFacts;
using expr::Assign;
using expr::Expr;
using expr::ExprProgram;
using expr::VarRef;

constexpr Value kMin = std::numeric_limits<Value>::min();
constexpr Value kMax = std::numeric_limits<Value>::max();

Expr v(int i) { return Expr::local(i); }

/// Local slot map (slot = index, scope 0), as in the fused tests.
int localSlot(VarRef r) {
  require(r.scope == 0, "localSlot: non-local scope");
  return r.index;
}

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
  // analyzeLocal convenience: same result through the span interface.
  const std::vector<Interval> slots{Interval::top(), Interval::singleton(3)};
  const ExprFacts g = analyze::analyzeLocal(e, slots);
  EXPECT_TRUE(g.mustRaise);
}

// ---- bytecode-level analysis ---------------------------------------------

TEST(AnalyzeProgram, LiteralDivisorsNeverRaise) {
  // Literal divisors outside {0, -1} cannot raise, even at the INT64_MIN
  // edges: the analyzer proves the whole program raise-free under the
  // all-top environment, and concrete runs agree.
  const Expr e = v(0) / Expr::lit(7) + v(1) % Expr::lit(3);
  const ExprProgram p = expr::compileLocal(e);
  const std::vector<Interval> top(2, Interval::top());
  const ProgramFacts facts = analyze::analyzeProgram(p, top);
  EXPECT_FALSE(facts.mayRaise);
  EXPECT_FALSE(facts.mustRaise);
  Rng rng(99);
  for (int k = 0; k < 200; ++k) {
    std::vector<Value> frame{rng.chance(1, 8) ? kMin : rng.range(-100, 100),
                             rng.chance(1, 8) ? kMax : rng.range(-100, 100)};
    EXPECT_EQ(p.run(frame), e.eval(frame));
  }
}

TEST(AnalyzeProgram, UnknownDivisorStaysChecked) {
  const ExprProgram p = expr::compileLocal(v(0) / v(1));
  const std::vector<Interval> top(2, Interval::top());
  const ProgramFacts facts = analyze::analyzeProgram(p, top);
  EXPECT_TRUE(facts.mayRaise);
  EXPECT_FALSE(facts.mustRaise);
  std::vector<Value> frame{1, 0};
  EXPECT_THROW(p.run(frame), EvalError);
}

TEST(AnalyzeProgram, MustRaiseWhenDivisorPinnedToZero) {
  const ExprProgram p = expr::compileLocal(Expr::lit(1) / (v(0) - Expr::lit(3)));
  const std::vector<Interval> slots{Interval::singleton(3)};
  const ProgramFacts facts = analyze::analyzeProgram(p, slots);
  EXPECT_TRUE(facts.mayRaise);
  EXPECT_TRUE(facts.mustRaise);
  EXPECT_TRUE(facts.value.isBottom());
}

TEST(AnalyzeProgram, ConstantProgramAndSlotFlow) {
  const ExprProgram zero = expr::compileLocal(Expr::lit(0));
  std::vector<Value> frame{42};
  EXPECT_EQ(zero.run(frame), 0);
  const std::vector<Interval> top(1, Interval::top());
  const ProgramFacts zf = analyze::analyzeProgram(zero, top);
  EXPECT_EQ(zf.value, Interval::singleton(0));
  EXPECT_FALSE(zf.mayRaise);

  // A fused guard+action program reports its slot reads and writes.
  const std::vector<Assign> actions{Assign{VarRef{0, 1}, v(0) + Expr::lit(1)}};
  const ExprProgram fused = expr::compileFused(v(0) > Expr::lit(0), actions, localSlot);
  const std::vector<Interval> slots(2, Interval::top());
  const ProgramFacts ff = analyze::analyzeProgram(fused, slots);
  ASSERT_EQ(ff.slotsRead.size(), 2u);
  ASSERT_EQ(ff.slotsWritten.size(), 2u);
  EXPECT_TRUE(ff.slotsRead[0]);
  EXPECT_TRUE(ff.slotsWritten[1]);
  EXPECT_FALSE(ff.slotsWritten[0]);
}

TEST(AnalyzeProgram, SkipStoreJoinsKeptAndStoredValues) {
  // x := ite(y == 3, z, x) compiles to a store that the y != 3 path
  // jumps past (no load of x at all). The analysis still reports x as
  // written and joins the stored z with the entry x at the skip target.
  const int x = 0;
  const int y = 1;
  const int z = 2;
  const std::vector<Assign> actions{
      Assign{VarRef{0, x}, Expr::ite(v(y) == Expr::lit(3), v(z), v(x))}};
  const ExprProgram block = expr::compileFused(Expr::top(), actions, localSlot);
  for (const expr::Instr& in : block.code()) {
    EXPECT_FALSE(in.op == expr::OpCode::kLoad && in.arg == x) << "the kept x is loaded";
  }
  const std::vector<Interval> entry{Interval::range(10, 12), Interval::top(),
                                    Interval::range(-4, -2)};
  const ProgramFacts f = analyze::analyzeProgram(block, entry);
  ASSERT_EQ(f.exitSlots.size(), entry.size());
  EXPECT_TRUE(f.slotsWritten[x]);
  EXPECT_FALSE(f.slotsWritten[y]);
  EXPECT_EQ(f.exitSlots[x], analyze::join(entry[z], entry[x]));
  EXPECT_EQ(f.exitSlots[x], Interval::range(-4, 12));
  EXPECT_EQ(f.exitSlots[z], entry[z]);
  EXPECT_FALSE(f.mayRaise);
  EXPECT_EQ(f.value, Interval::singleton(1));
}

TEST(AnalyzeProgram, GuardIntervalProvesDeadAndAlwaysTrue) {
  // x % 4 can never exceed 3, so these guards fold under the all-top
  // (mutation-proof) execution environment.
  const std::vector<Interval> top(1, Interval::top());
  const ProgramFacts dead =
      analyze::analyzeProgram(expr::compileLocal(v(0) % Expr::lit(4) > Expr::lit(10)), top);
  EXPECT_FALSE(dead.mayRaise);
  EXPECT_EQ(dead.value, Interval::singleton(0));
  const ProgramFacts alive =
      analyze::analyzeProgram(expr::compileLocal(v(0) % Expr::lit(4) < Expr::lit(10)), top);
  EXPECT_FALSE(alive.mayRaise);
  EXPECT_EQ(alive.value, Interval::singleton(1));
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
