// Tests for the bytecode expression compiler and the compiled execution
// path. The tree-walking interpreter (CBIP_NO_COMPILE) is the one
// semantic oracle every check compares against: randomized differential
// checks (compiled evaluation == tree walking, including division-by-zero
// error behaviour), the fused guard+action programs (fused == interpreter,
// value for value and raise for raise, including partial stores and the
// INT64_MIN / -1 and wrap-on-overflow edge vectors), the build's VM
// dispatch core (computed-goto threaded, or the portable switch loop in a
// CBIP_FORCE_SWITCH_DISPATCH build: full opcode coverage), the compiled
// enabled-set scan against the interpreter's, and engine-level
// cross-checks (bit-identical traces compiled vs interpreted, for both
// engines).
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "compile_switch.hpp"
#include "core/semantics.hpp"
#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "expr/compile.hpp"
#include "models/models.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace cbip {
namespace {

using expr::Expr;
using expr::ExprProgram;
using expr::VarRef;

Expr v(int i) { return Expr::local(i); }

constexpr Value kMin = std::numeric_limits<Value>::min();
constexpr Value kMax = std::numeric_limits<Value>::max();

// ---- program-level behaviour --------------------------------------------

TEST(ExprCompile, LiteralsAndVariables) {
  std::vector<Value> frame{10, -3};
  EXPECT_EQ(expr::compileLocal(Expr::lit(42)).run(frame), 42);
  EXPECT_EQ(expr::compileLocal(v(0)).run(frame), 10);
  EXPECT_EQ(expr::compileLocal(v(1)).run(frame), -3);
}

TEST(ExprCompile, ArithmeticAndComparisons) {
  std::vector<Value> frame{7, 3};
  EXPECT_EQ(expr::compileLocal(v(0) + v(1)).run(frame), 10);
  EXPECT_EQ(expr::compileLocal(v(0) - v(1)).run(frame), 4);
  EXPECT_EQ(expr::compileLocal(v(0) * v(1)).run(frame), 21);
  EXPECT_EQ(expr::compileLocal(v(0) / v(1)).run(frame), 2);
  EXPECT_EQ(expr::compileLocal(v(0) % v(1)).run(frame), 1);
  EXPECT_EQ(expr::compileLocal(-v(0)).run(frame), -7);
  EXPECT_EQ(expr::compileLocal(Expr::min(v(0), v(1))).run(frame), 3);
  EXPECT_EQ(expr::compileLocal(Expr::max(v(0), v(1))).run(frame), 7);
  EXPECT_EQ(expr::compileLocal(Expr::abs(v(1) - v(0))).run(frame), 4);
  EXPECT_EQ(expr::compileLocal(v(0) > v(1)).run(frame), 1);
  EXPECT_EQ(expr::compileLocal(v(0) <= v(1)).run(frame), 0);
}

TEST(ExprCompile, DivisionByZeroThrows) {
  std::vector<Value> frame{1, 0};
  EXPECT_THROW(expr::compileLocal(v(0) / v(1)).run(frame), EvalError);
  EXPECT_THROW(expr::compileLocal(v(0) % v(1)).run(frame), EvalError);
}

TEST(ExprCompile, ShortCircuitSkipsDivisionByZero) {
  // (v0 != 0) && (1/v0 > 0): the division must not execute when v0 == 0.
  const Expr guarded = (v(0) != Expr::lit(0)) && (Expr::lit(1) / v(0) > Expr::lit(0));
  const ExprProgram p = expr::compileLocal(guarded);
  std::vector<Value> frame{0};
  EXPECT_EQ(p.run(frame), 0);
  frame[0] = 1;  // 1/1 > 0
  EXPECT_EQ(p.run(frame), 1);
  // Same for || short-circuiting past a doomed right operand.
  const Expr orGuard = (v(0) == Expr::lit(0)) || (Expr::lit(1) / v(0) > Expr::lit(0));
  frame[0] = 0;
  EXPECT_EQ(expr::compileLocal(orGuard).run(frame), 1);
}

TEST(ExprCompile, IteEvaluatesOnlyTakenBranch) {
  const Expr e = Expr::ite(v(0), Expr::lit(10) / v(0), Expr::lit(-1));
  const ExprProgram p = expr::compileLocal(e);
  std::vector<Value> frame{5};
  EXPECT_EQ(p.run(frame), 2);
  frame[0] = 0;  // the division (by zero) sits in the untaken branch
  EXPECT_EQ(p.run(frame), -1);
}

TEST(ExprCompile, BuilderFoldingShrinksPrograms) {
  // The combinators fold constants at construction, so these compile to a
  // single push / tiny programs.
  EXPECT_EQ(expr::compileLocal(Expr::lit(2) + Expr::lit(3)).size(), 1u);
  EXPECT_EQ(expr::compileLocal(Expr::ite(Expr::lit(1), v(0), v(1) / Expr::lit(0))).size(), 1u);
  EXPECT_EQ(expr::compileLocal(Expr::top() && (v(0) < v(1))).size(), 3u);
  // Division by a zero literal must survive folding as a runtime error.
  std::vector<Value> frame{1, 2};
  EXPECT_THROW(expr::compileLocal(Expr::lit(1) / Expr::lit(0)).run(frame), EvalError);
}

TEST(ExprCompile, CustomSlotMapAndUnmappableReferences) {
  // Scope 3 maps to slots 10+index; anything else must fail at compile
  // time, not at run time.
  const expr::SlotMap slots = [](VarRef r) {
    require(r.scope == 3, "unmappable scope");
    return 10 + r.index;
  };
  std::vector<Value> frame(12, 0);
  frame[10] = 6;
  frame[11] = 7;
  const Expr e = Expr::var(3, 0) * Expr::var(3, 1);
  EXPECT_EQ(expr::compile(e, slots).run(frame), 42);
  EXPECT_THROW(expr::compile(v(0), slots), ModelError);
}

// ---- randomized differential test ---------------------------------------

/// Generates a random expression over v0..v3 covering every operator,
/// including division and modulo (which may fail at run time).
Expr randomExpr(Rng& rng, int depth) {
  if (depth == 0 || rng.chance(1, 4)) {
    return rng.chance(1, 2) ? Expr::lit(rng.range(-3, 3))
                            : v(static_cast<int>(rng.below(4)));
  }
  switch (rng.below(16)) {
    case 0: return randomExpr(rng, depth - 1) + randomExpr(rng, depth - 1);
    case 1: return randomExpr(rng, depth - 1) - randomExpr(rng, depth - 1);
    case 2: return randomExpr(rng, depth - 1) * randomExpr(rng, depth - 1);
    case 3: return randomExpr(rng, depth - 1) / randomExpr(rng, depth - 1);
    case 4: return randomExpr(rng, depth - 1) % randomExpr(rng, depth - 1);
    case 5: return -randomExpr(rng, depth - 1);
    case 6: return Expr::min(randomExpr(rng, depth - 1), randomExpr(rng, depth - 1));
    case 7: return Expr::max(randomExpr(rng, depth - 1), randomExpr(rng, depth - 1));
    case 8: return Expr::abs(randomExpr(rng, depth - 1));
    case 9: return randomExpr(rng, depth - 1) == randomExpr(rng, depth - 1);
    case 10: return randomExpr(rng, depth - 1) < randomExpr(rng, depth - 1);
    case 11: return randomExpr(rng, depth - 1) >= randomExpr(rng, depth - 1);
    case 12: return randomExpr(rng, depth - 1) && randomExpr(rng, depth - 1);
    case 13: return randomExpr(rng, depth - 1) || randomExpr(rng, depth - 1);
    case 14: return !randomExpr(rng, depth - 1);
    default:
      return Expr::ite(randomExpr(rng, depth - 1), randomExpr(rng, depth - 1),
                       randomExpr(rng, depth - 1));
  }
}

/// Evaluates to a value or "threw EvalError".
std::optional<Value> tryEval(const std::function<Value()>& f) {
  try {
    return f();
  } catch (const EvalError&) {
    return std::nullopt;
  }
}

class CompileDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CompileDifferential, CompiledAgreesWithInterpreter) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int round = 0; round < 300; ++round) {
    const Expr e = randomExpr(rng, 4);
    const ExprProgram p = expr::compileLocal(e);
    for (int k = 0; k < 10; ++k) {
      std::vector<Value> vars{rng.range(-3, 3), rng.range(-3, 3), rng.range(-3, 3),
                              rng.range(-3, 3)};
      const auto interpreted = tryEval([&] { return e.eval(vars); });
      const auto compiled = tryEval([&] { return p.run(vars); });
      // Either both throw EvalError or both produce the same value. (Which
      // of several doomed subexpressions raises first may differ: the
      // interpreter evaluates divisors before dividends.)
      ASSERT_EQ(interpreted.has_value(), compiled.has_value())
          << e.toString() << " with vars " << vars[0] << "," << vars[1] << "," << vars[2]
          << "," << vars[3];
      if (interpreted.has_value()) {
        ASSERT_EQ(*interpreted, *compiled) << e.toString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompileDifferential, ::testing::Values(1, 2, 3, 4, 5));

// ---- arithmetic semantics (wrapping + INT64_MIN / -1) --------------------

TEST(ArithmeticSemantics, Int64MinDividedByMinusOneRaisesOnEveryPath) {
  // The one unrepresentable quotient raises EvalError instead of trapping,
  // identically on the interpreter, the bytecode VM, and through the
  // constant folders (which must keep it as a runtime error).
  std::vector<Value> frame{kMin, -1};
  const Expr div = v(0) / v(1);
  const Expr mod = v(0) % v(1);
  EXPECT_THROW(div.eval(frame), EvalError);
  EXPECT_THROW(mod.eval(frame), EvalError);
  EXPECT_THROW(expr::compileLocal(div).run(frame), EvalError);
  EXPECT_THROW(expr::compileLocal(mod).run(frame), EvalError);
  // Literal operands: the builder fold and the compiler fold both refuse
  // to evaluate it, leaving the EvalError to run time.
  const Expr litDiv = Expr::lit(kMin) / Expr::lit(-1);
  const Expr litMod = Expr::lit(kMin) % Expr::lit(-1);
  EXPECT_FALSE(litDiv.isConst());
  EXPECT_THROW(litDiv.eval(frame), EvalError);
  EXPECT_THROW(expr::compileLocal(litDiv).run(frame), EvalError);
  EXPECT_THROW(litMod.eval(frame), EvalError);
  EXPECT_THROW(expr::compileLocal(litMod).run(frame), EvalError);
  // The zero check wins over the overflow check, on both paths.
  std::vector<Value> zeroFrame{kMin, 0};
  try {
    (v(0) / v(1)).eval(zeroFrame);
    FAIL() << "expected EvalError";
  } catch (const EvalError& e) {
    EXPECT_STREQ(e.what(), "division by zero");
  }
  try {
    expr::compileLocal(v(0) / v(1)).run(zeroFrame);
    FAIL() << "expected EvalError";
  } catch (const EvalError& e) {
    EXPECT_STREQ(e.what(), "division by zero");
  }
}

TEST(ArithmeticSemantics, SignedOverflowWrapsIdenticallyOnEveryPath) {
  // +, -, *, unary - and abs wrap in two's complement; interpreter,
  // bytecode and the constant folders must agree bit for bit.
  struct Case {
    Expr e;
    std::vector<Value> frame;
    Value expect;
  };
  const Case cases[] = {
      {v(0) + v(1), {kMax, 1}, kMin},
      {v(0) - v(1), {kMin, 1}, kMax},
      {v(0) * v(1), {kMin, -1}, kMin},
      {v(0) * v(1), {kMax, 2}, -2},
      {-v(0), {kMin}, kMin},
      {Expr::abs(v(0)), {kMin}, kMin},
  };
  for (const Case& c : cases) {
    std::vector<Value> frame = c.frame;
    EXPECT_EQ(c.e.eval(frame), c.expect) << c.e.toString();
    EXPECT_EQ(expr::compileLocal(c.e).run(frame), c.expect) << c.e.toString();
  }
  // Folded-constant twins go through Expr::make's interpreter fold and the
  // compiler's applyBinary fold respectively; both must wrap the same way.
  EXPECT_EQ((Expr::lit(kMax) + Expr::lit(1)).literal(), kMin);
  EXPECT_EQ((Expr::lit(kMin) - Expr::lit(1)).literal(), kMax);
  EXPECT_EQ((Expr::lit(kMin) * Expr::lit(-1)).literal(), kMin);
  std::vector<Value> noVars;
  EXPECT_EQ(expr::compileLocal(Expr::lit(kMax) + Expr::lit(1)).run(noVars), kMin);
  EXPECT_EQ((-Expr::lit(kMin)).literal(), kMin);
  EXPECT_EQ(Expr::abs(Expr::lit(kMin)).literal(), kMin);
}

// ---- fused guard+action programs -----------------------------------------

using expr::Assign;

/// Local slot map shared by the fused tests (slot = index, scope 0).
int localSlot(VarRef r) {
  require(r.scope == 0, "localSlot: non-local scope");
  return r.index;
}

/// Reference semantics of a guarded command (the interpreter oracle):
/// evaluate the guard and, when it holds, apply the actions sequentially
/// over `vars`. nullopt means EvalError; the writes of the actions before
/// a raising one stay in `vars`.
std::optional<bool> runInterpreted(const Expr& guard, const std::vector<Assign>& actions,
                                   std::vector<Value>& vars) {
  try {
    expr::VecContext ctx(vars);
    if (!guard.isTrue() && guard.eval(ctx) == 0) return false;
    expr::applyAssignments(actions, ctx);
    return true;
  } catch (const EvalError&) {
    return std::nullopt;
  }
}

/// Fused dispatch: one program, one run.
std::optional<bool> runFused(const ExprProgram& fused, std::vector<Value>& vars) {
  try {
    return fused.run(std::span<Value>(vars)) != 0;
  } catch (const EvalError&) {
    return std::nullopt;
  }
}

TEST(FusedProgram, GuardGatesTheActionSuffix) {
  const std::vector<Assign> actions{Assign{VarRef{0, 1}, v(0) + Expr::lit(10)},
                                    Assign{VarRef{0, 2}, v(1) * Expr::lit(2)}};
  const ExprProgram fused = expr::compileFused(v(0) > Expr::lit(0), actions, localSlot);
  EXPECT_TRUE(fused.storesFrame());
  std::vector<Value> vars{5, 0, 0};
  EXPECT_EQ(fused.run(std::span<Value>(vars)), 1);
  EXPECT_EQ(vars, (std::vector<Value>{5, 15, 30}));  // second action sees the first's write
  std::vector<Value> blocked{-1, 7, 7};
  EXPECT_EQ(fused.run(std::span<Value>(blocked)), 0);
  EXPECT_EQ(blocked, (std::vector<Value>{-1, 7, 7}));  // guard false: untouched
}

TEST(FusedProgram, TrivialFormsCollapse) {
  // Trivial guard + no actions never builds a program at the call sites;
  // compileFused itself degenerates to "Push 1".
  const ExprProgram empty = expr::compileFused(Expr::top(), {}, localSlot);
  EXPECT_EQ(empty.size(), 1u);
  std::vector<Value> vars{1};
  EXPECT_EQ(empty.run(std::span<Value>(vars)), 1);
  // A guard folded to constant false compiles to "Push 0" and drops the
  // (never-executed) action suffix.
  const ExprProgram dead = expr::compileFused(
      Expr::lit(0), std::vector<Assign>{Assign{VarRef{0, 0}, Expr::lit(9)}}, localSlot);
  EXPECT_EQ(dead.size(), 1u);
  EXPECT_FALSE(dead.storesFrame());
  EXPECT_EQ(dead.run(std::span<Value>(vars)), 0);
  EXPECT_EQ(vars[0], 1);
}

TEST(FusedProgram, SkipStoreNeverLoadsTheKeptTarget) {
  // x := ite(y == 3, z, x) compiles to a store that the y != 3 path
  // jumps past: the kept x is never loaded, and the frame ends holding
  // either the stored z or the untouched x.
  const int x = 0;
  const int y = 1;
  const int z = 2;
  const std::vector<Assign> actions{
      Assign{VarRef{0, x}, Expr::ite(v(y) == Expr::lit(3), v(z), v(x))}};
  const ExprProgram block = expr::compileFused(Expr::top(), actions, localSlot);
  for (const expr::Instr& in : block.code()) {
    EXPECT_FALSE(in.op == expr::OpCode::kLoad && in.arg == x) << "the kept x is loaded";
  }
  for (const Value yv : {Value{3}, Value{4}}) {
    std::vector<Value> fusedVars{11, yv, -3};
    std::vector<Value> interpVars = fusedVars;
    EXPECT_EQ(runFused(block, fusedVars), std::optional<bool>(true));
    EXPECT_EQ(runInterpreted(Expr::top(), actions, interpVars), std::optional<bool>(true));
    EXPECT_EQ(fusedVars, interpVars);
    EXPECT_EQ(fusedVars[x], yv == 3 ? -3 : 11);
  }
}

TEST(FusedProgram, CommonSubexpressionsCrossTheGuardActionBoundary) {
  // The guard computes (v0 * v1 + v2); both actions reuse it. The fused
  // program must park it in a temp (kTee / kLoadTmp) and still match the
  // interpreter exactly.
  const Expr shared = v(0) * v(1) + v(2);
  const Expr guard = shared > Expr::lit(0);
  const std::vector<Assign> actions{Assign{VarRef{0, 3}, shared % Expr::lit(97)},
                                    Assign{VarRef{0, 2}, shared + v(3)}};
  const ExprProgram fused = expr::compileFused(guard, actions, localSlot);
  bool hasTee = false;
  bool hasLoadTmp = false;
  for (const expr::Instr& in : fused.code()) {
    hasTee = hasTee || in.op == expr::OpCode::kTee;
    hasLoadTmp = hasLoadTmp || in.op == expr::OpCode::kLoadTmp;
  }
  EXPECT_TRUE(hasTee);
  EXPECT_TRUE(hasLoadTmp);
  std::vector<Value> fusedVars{3, 4, 5, 6};
  std::vector<Value> interpVars = fusedVars;
  const auto fusedOk = runFused(fused, fusedVars);
  const auto interpOk = runInterpreted(guard, actions, interpVars);
  ASSERT_EQ(fusedOk, interpOk);
  EXPECT_EQ(fusedVars, interpVars);
}

TEST(FusedProgram, ClobberedSubexpressionsAreRecomputed) {
  // Action 0 overwrites v0, which the shared subexpression (v0 + v1)
  // reads; action 1 must recompute it instead of reusing the stale temp.
  const Expr shared = v(0) + v(1);
  const Expr guard = shared != Expr::lit(0);
  const std::vector<Assign> actions{Assign{VarRef{0, 0}, Expr::lit(100)},
                                    Assign{VarRef{0, 2}, shared}};
  const ExprProgram fused = expr::compileFused(guard, actions, localSlot);
  std::vector<Value> vars{1, 2, 0};
  EXPECT_EQ(fused.run(std::span<Value>(vars)), 1);
  EXPECT_EQ(vars, (std::vector<Value>{100, 2, 102}));  // 100 + 2, not the stale 3
}

/// Random action block over v0..v3 (values from randomExpr, so division,
/// modulo and every operator appear).
std::vector<Assign> randomActions(Rng& rng) {
  std::vector<Assign> actions;
  const int n = static_cast<int>(rng.below(4));
  for (int i = 0; i < n; ++i) {
    actions.push_back(Assign{VarRef{0, static_cast<int>(rng.below(4))}, randomExpr(rng, 3)});
  }
  return actions;
}

/// Random store over v0..v3, seasoned with the overflow edge values so the
/// wrap/raise semantics are exercised, not just small integers.
std::vector<Value> randomVars(Rng& rng) {
  std::vector<Value> vars(4);
  for (Value& x : vars) {
    switch (rng.below(8)) {
      case 0: x = kMin; break;
      case 1: x = kMax; break;
      case 2: x = -1; break;
      default: x = rng.range(-3, 3); break;
    }
  }
  return vars;
}

class FusedDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FusedDifferential, FusedUnfusedAndInterpreterAgree) {
  // One random guarded command, run as the single fused program (the only
  // compiled dispatch) and through the tree-walking interpreter oracle,
  // which evaluates the guard and then each action separately ("unfused").
  // They must agree on (a) whether evaluation raised, (b) whether the
  // guard held, and (c) the final variable store — which includes the
  // partial writes of an action block whose later action raised: CSE
  // reuse never moves a computation across a store, so both stop at the
  // same action. randomVars seasons the stores with kMin/kMax/-1, so the
  // guaranteed-raise vectors (zero divisors, INT64_MIN / -1) are hit.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  int raised = 0;
  for (int round = 0; round < 200; ++round) {
    const Expr guard = randomExpr(rng, 3);
    const std::vector<Assign> actions = randomActions(rng);
    const ExprProgram fused = expr::compileFused(guard, actions, localSlot);
    for (int k = 0; k < 10; ++k) {
      std::vector<Value> fusedVars = randomVars(rng);
      std::vector<Value> interpVars = fusedVars;
      const auto viaFused = runFused(fused, fusedVars);
      const auto viaInterp = runInterpreted(guard, actions, interpVars);
      ASSERT_EQ(viaFused, viaInterp) << guard.toString() << " round " << round;
      ASSERT_EQ(fusedVars, interpVars) << guard.toString() << " round " << round;
      if (!viaFused.has_value()) ++raised;
    }
  }
  // The raise vectors must actually have been exercised.
  EXPECT_GT(raised, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedDifferential, ::testing::Values(1, 2, 3, 4, 5));

TEST(FusedTryFire, SingleDispatchMatchesGuardThenFireOnAllPaths) {
  // tryFire = guardHolds + fire as one dispatch. The same component,
  // stepped with tryFire under the fused dispatch and under the
  // interpreter (guard, then actions), must visit identical states.
  auto t = std::make_shared<AtomicType>("T");
  const int l0 = t->addLocation("l0");
  const int l1 = t->addLocation("l1");
  const int x = t->addVariable("x", 1);
  const int acc = t->addVariable("acc", 0);
  t->addTransition(l0, kInternalPort,
                   (Expr::local(x) * Expr::lit(3) + Expr::local(acc)) % Expr::lit(7) !=
                       Expr::lit(0),
                   {Assign{VarRef{0, acc},
                           (Expr::local(x) * Expr::lit(3) + Expr::local(acc)) % Expr::lit(7) +
                               Expr::local(acc)},
                    Assign{VarRef{0, x}, Expr::local(x) + Expr::lit(1)}},
                   l1);
  t->addTransition(l0, kInternalPort, Expr::top(), {Assign{VarRef{0, x}, Expr::lit(1)}}, l1);
  t->addTransition(l1, kInternalPort, Expr::local(x) < Expr::lit(40), {}, l0);
  t->setInitialLocation(l0);
  t->validate();

  AtomicState states[2];
  for (int mode = 0; mode < 2; ++mode) {
    const CompileSwitch compiled(mode == 0);
    AtomicState s = initialState(*t);
    // Drive tau-to-quiescence explicitly through tryFire.
    runInternal(*t, s, 1000);
    states[mode] = s;
  }
  EXPECT_EQ(states[0], states[1]);
  // And a false guard leaves the state untouched on the fused path.
  AtomicState s = initialState(*t);
  s.vars[static_cast<std::size_t>(x)] = 7;
  s.vars[static_cast<std::size_t>(acc)] = 0;  // (7*3 + 0) % 7 == 0: guard false
  ASSERT_FALSE(tryFire(*t, s, 0));
  EXPECT_EQ(s.location, l0);
  EXPECT_EQ(s.vars[static_cast<std::size_t>(acc)], 0);
  ASSERT_TRUE(tryFire(*t, s, 1));  // fallback transition fires
  EXPECT_EQ(s.location, l1);
  EXPECT_EQ(s.vars[static_cast<std::size_t>(x)], 1);
}

/// Random system for the compiled-scan differential: types with random
/// transition guards over their local variables, connectors with random
/// trigger/synchron ends and random guards over the end exports.
System randomScanSystem(Rng& rng) {
  System sys;
  std::vector<AtomicTypePtr> types;
  const int typeCount = 1 + static_cast<int>(rng.below(2));
  for (int t = 0; t < typeCount; ++t) {
    auto type = std::make_shared<AtomicType>("T" + std::to_string(t));
    const int locs = 1 + static_cast<int>(rng.below(2));
    for (int l = 0; l < locs; ++l) type->addLocation("l" + std::to_string(l));
    // Four variables so transition guards may use randomExpr's full
    // v0..v3 range; ports export the first two.
    for (const char* name : {"x", "y", "z", "w"}) type->addVariable(name, rng.range(-3, 3));
    const int ports = 1 + static_cast<int>(rng.below(2));
    for (int p = 0; p < ports; ++p) type->addPort("p" + std::to_string(p), {0, 1});
    const int transitions = 1 + static_cast<int>(rng.below(4));
    for (int k = 0; k < transitions; ++k) {
      // Depth 2 keeps divisions frequent enough to exercise EvalError
      // parity between the scan paths.
      Expr guard = randomExpr(rng, 2);
      type->addTransition(static_cast<int>(rng.below(static_cast<std::size_t>(locs))),
                          static_cast<int>(rng.below(static_cast<std::size_t>(ports))),
                          std::move(guard), {},
                          static_cast<int>(rng.below(static_cast<std::size_t>(locs))));
    }
    type->setInitialLocation(0);
    types.push_back(std::move(type));
  }
  const int instances = 4 + static_cast<int>(rng.below(4));
  for (int i = 0; i < instances; ++i) {
    sys.addInstance("i" + std::to_string(i), types[rng.below(types.size())]);
  }
  const int connectors = 3 + static_cast<int>(rng.below(3));
  for (int c = 0; c < connectors; ++c) {
    Connector conn("c" + std::to_string(c));
    // 2-3 ends on distinct instances.
    const int endCount = 2 + static_cast<int>(rng.below(2));
    std::vector<int> chosen;
    while (static_cast<int>(chosen.size()) < endCount) {
      const int inst = static_cast<int>(rng.below(static_cast<std::size_t>(instances)));
      bool dup = false;
      for (int seen : chosen) dup = dup || seen == inst;
      if (dup) continue;
      chosen.push_back(inst);
      const AtomicType& type = *sys.instance(static_cast<std::size_t>(inst)).type;
      conn.addEnd(PortRef{inst, static_cast<int>(rng.below(type.portCount()))},
                  rng.chance(1, 3));
    }
    if (rng.chance(2, 3)) {
      // Guard over random end exports, occasionally doomed (div/mod).
      Expr g = Expr::var(0, static_cast<int>(rng.below(2))) +
               Expr::var(1, static_cast<int>(rng.below(2)));
      switch (rng.below(3)) {
        case 0: g = g > Expr::lit(rng.range(-2, 2)); break;
        case 1: g = g % Expr::var(endCount - 1, 0) == Expr::lit(0); break;
        default: g = !(g == Expr::lit(0)); break;
      }
      conn.setGuard(std::move(g));
    }
    sys.addConnector(std::move(conn));
  }
  sys.validate();
  return sys;
}

/// Enabled set or "threw EvalError".
std::optional<std::vector<EnabledInteraction>> tryScan(const System& sys,
                                                       const GlobalState& g) {
  try {
    return enabledInteractions(sys, g);
  } catch (const EvalError&) {
    return std::nullopt;
  }
}

TEST(BatchScanDifferential, MaskSetMatchesScalarAndInterpreter) {
  // Random connectors x random stores: the compiled scan's enabled mask
  // set (and per-end transition choices) must equal the interpreter's
  // scalar scan, element for element — including which stores make the
  // scan raise EvalError.
  Rng rng(20260726);
  for (int round = 0; round < 60; ++round) {
    const System sys = randomScanSystem(rng);
    GlobalState g = initialState(sys);
    for (int store = 0; store < 20; ++store) {
      // Random store: random (valid) location and variable values per
      // instance.
      for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
        g.components[i].location =
            static_cast<int>(rng.below(sys.instance(i).type->locationCount()));
        for (Value& var : g.components[i].vars) var = rng.range(-3, 3);
      }
      std::optional<std::vector<EnabledInteraction>> compiled, interpreted;
      {
        CompileSwitch compiledOn(true);
        compiled = tryScan(sys, g);
      }
      {
        CompileSwitch compiledOff(false);
        interpreted = tryScan(sys, g);
      }
      ASSERT_EQ(compiled.has_value(), interpreted.has_value()) << "round " << round;
      if (!compiled.has_value()) continue;
      ASSERT_EQ(*compiled, *interpreted) << "round " << round << " store " << store;
    }
  }
}

// ---- VM dispatch core (computed-goto threaded, or portable switch) -------
//
// A build compiles exactly one scalar VM core: the direct-threaded one on
// GCC/Clang, the portable switch loop under CBIP_FORCE_SWITCH_DISPATCH.
// The tests below pin whichever core the build has to the interpreter
// oracle; CI runs them on both builds, so the two cores agree through
// that oracle.

/// Value-or-error outcome of one evaluation, with the EvalError message.
/// The message participates in equality, so it is only compared between
/// two bytecode executions of the same program (which raise at the same
/// instruction); against the interpreter, tryEval compares raise-ness
/// alone, because the interpreter evaluates divisors before dividends.
struct VmOutcome {
  std::optional<Value> value;
  std::string error;
  friend bool operator==(const VmOutcome&, const VmOutcome&) = default;
};

std::ostream& operator<<(std::ostream& os, const VmOutcome& o) {
  if (o.value.has_value()) return os << "value " << *o.value;
  return os << "EvalError(" << o.error << ")";
}

VmOutcome vmEval(const std::function<Value()>& f) {
  try {
    return VmOutcome{f(), {}};
  } catch (const EvalError& e) {
    return VmOutcome{std::nullopt, e.what()};
  }
}

class DispatchDifferential : public ::testing::TestWithParam<int> {};

TEST_P(DispatchDifferential, ThreadedAndSwitchCoresAgreeBitForBit) {
  // Random plain and fused programs on the build's VM core against the
  // interpreter oracle: same value, same raise-or-not, and the same
  // partial stores when a fused action block raises midway. Every run
  // happens twice on the VM, which must repeat itself message for message
  // (the core is deterministic, and programs are never mutated after
  // compilation).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6007);
  for (int round = 0; round < 200; ++round) {
    const Expr plainExpr = randomExpr(rng, 4);
    const ExprProgram plain = expr::compileLocal(plainExpr);
    const Expr guard = randomExpr(rng, 3);
    const std::vector<Assign> actions = randomActions(rng);
    const ExprProgram fused = expr::compileFused(guard, actions, localSlot);
    for (int k = 0; k < 10; ++k) {
      const std::vector<Value> vars = randomVars(rng);
      const VmOutcome plainOut = vmEval([&] { return plain.run(vars); });
      ASSERT_EQ(vmEval([&] { return plain.run(vars); }), plainOut);
      std::vector<Value> interpFrame = vars;
      const auto interpreted = tryEval([&] { return plainExpr.eval(interpFrame); });
      ASSERT_EQ(plainOut.value, interpreted) << plainExpr.toString() << " round " << round;

      std::vector<Value> stores[2] = {vars, vars};
      const VmOutcome fusedOut = vmEval([&] { return fused.run(std::span<Value>(stores[0])); });
      ASSERT_EQ(vmEval([&] { return fused.run(std::span<Value>(stores[1])); }), fusedOut);
      ASSERT_EQ(stores[1], stores[0]);
      std::vector<Value> interpVars = vars;
      const auto viaInterp = runInterpreted(guard, actions, interpVars);
      ASSERT_EQ(fusedOut.value.has_value(), viaInterp.has_value())
          << guard.toString() << " round " << round;
      if (viaInterp.has_value()) {
        ASSERT_EQ(*fusedOut.value != 0, *viaInterp) << guard.toString() << " round " << round;
      }
      // Store equality holds even when the block raised: the VM must have
      // applied exactly the prefix of the action block the interpreter did.
      ASSERT_EQ(stores[0], interpVars) << guard.toString() << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchDifferential, ::testing::Values(1, 2, 3, 4, 5));

TEST(DispatchCoverage, EveryOpcodeExecutesIdenticallyOnBothCores) {
  // A corpus that compiles to every scalar opcode, executed on the
  // build's VM core over frames hitting the value, raise, and overflow
  // path of each, against the interpreter oracle.
  std::vector<Expr> corpus;
  corpus.push_back(v(0) + Expr::lit(2) - v(1) * v(2));
  corpus.push_back(v(0) / v(1) + v(2) % v(3));
  corpus.push_back(Expr::min(v(0), v(1)) + Expr::max(v(2), v(3)));
  corpus.push_back((v(0) == v(1)) + (v(0) != v(1)) + (v(0) < v(1)) + (v(0) <= v(1)) +
                   (v(0) > v(1)) + (v(0) >= v(1)));
  corpus.push_back(-v(0) + Expr::abs(v(1)) + !v(2));
  // Short-circuit jumps and the 0/1 materialization (kJump and both
  // conditional jumps); the divisions keep the jumps load-bearing.
  corpus.push_back((v(0) != Expr::lit(0)) && (Expr::lit(1) / v(0) > Expr::lit(0)));
  corpus.push_back((v(0) == Expr::lit(0)) || (Expr::lit(1) / v(0) > Expr::lit(0)));
  corpus.push_back(Expr::ite(v(0), v(1) / v(0), Expr::lit(-1)));
  // kJumpIfNonZero comes from the inverted test the jumping-code scheme
  // emits for ! over a value operand in condition position.
  corpus.push_back(Expr::ite(!v(0), Expr::lit(7), v(1) / v(0)));
  std::vector<ExprProgram> programs;
  for (const Expr& e : corpus) programs.push_back(expr::compileLocal(e));
  // kStore / kTee / kLoadTmp: a fused guarded command with a shared
  // subexpression crossing the guard/action boundary.
  const Expr shared = v(0) * v(1) + v(2);
  const Expr guard = shared > Expr::lit(0);
  const std::vector<Assign> actions{Assign{VarRef{0, 3}, shared % Expr::lit(97)},
                                    Assign{VarRef{0, 2}, shared + v(3)}};
  const ExprProgram fused = expr::compileFused(guard, actions, localSlot);
  // The superinstructions of the threaded form: a slot-immediate test as
  // a guard (JumpUnless*) and as a skip-store condition (CopyIf*) under
  // each comparison, a lone move and a copy run. The switch core runs the
  // same programs unfused, as code().
  struct Command {
    Expr guard;
    std::vector<Assign> actions;
  };
  std::vector<Command> supers;
  const Expr one = Expr::lit(1);
  for (const Expr& test : {v(0) == one, v(0) != one, v(0) < one, v(0) <= one, v(0) > one,
                           v(0) >= one}) {
    supers.push_back({test, {Assign{VarRef{0, 1}, v(1) + one}}});
    supers.push_back({Expr::top(), {Assign{VarRef{0, 1}, Expr::ite(test, v(2), v(1))}}});
  }
  supers.push_back({Expr::top(), {Assign{VarRef{0, 1}, v(3)}}});
  supers.push_back({Expr::top(),
                    {Assign{VarRef{0, 0}, v(1)}, Assign{VarRef{0, 1}, v(2)},
                     Assign{VarRef{0, 2}, v(3)}}});

  std::set<expr::OpCode> seen;
  for (const ExprProgram& p : programs) {
    for (const expr::Instr& in : p.code()) seen.insert(in.op);
  }
  for (const expr::Instr& in : fused.code()) seen.insert(in.op);
  for (int op = 0; op < expr::kOpCodeCount; ++op) {
    EXPECT_TRUE(seen.count(static_cast<expr::OpCode>(op)))
        << "opcode " << op << " missing from the coverage corpus";
  }

  const std::vector<std::vector<Value>> frames = {
      {3, 2, 5, -7}, {0, 0, 0, 0}, {kMin, -1, 1, 2}, {kMax, 2, -3, 4}};
  for (std::size_t i = 0; i < programs.size(); ++i) {
    for (const std::vector<Value>& frame : frames) {
      std::vector<Value> interpFrame = frame;
      const auto interpreted = tryEval([&] { return corpus[i].eval(interpFrame); });
      const auto compiled =
          tryEval([&] { return programs[i].run(frame); });
      ASSERT_EQ(compiled, interpreted) << corpus[i].toString();
    }
  }
  for (const std::vector<Value>& frame : frames) {
    std::vector<Value> stores = frame;
    std::vector<Value> interpVars = frame;
    const auto viaFused = runFused(fused, stores);
    ASSERT_EQ(viaFused, runInterpreted(guard, actions, interpVars));
    ASSERT_EQ(stores, interpVars);
  }
  std::set<int> handlers;
  for (const Command& c : supers) {
    const ExprProgram p = expr::compileFused(c.guard, c.actions, localSlot);
    for (int h : p.threadedHandlers()) handlers.insert(h);
    for (const std::vector<Value>& frame : frames) {
      std::vector<Value> threaded = frame;
      std::vector<Value> portable = frame;
      std::vector<Value> interpVars = frame;
      const VmOutcome out = vmEval([&] { return p.run(std::span<Value>(threaded)); });
      ASSERT_EQ(vmEval([&] { return p.runSwitchCore(portable); }), out);
      ASSERT_EQ(threaded, portable);
      const auto viaInterp = runInterpreted(c.guard, c.actions, interpVars);
      ASSERT_TRUE(out.value.has_value() && viaInterp.has_value());
      ASSERT_EQ(*out.value != 0, *viaInterp);
      ASSERT_EQ(threaded, interpVars);
    }
  }
#if CBIP_HAS_COMPUTED_GOTO
  for (int op = 0; op < expr::kSuperOpCount; ++op) {
    EXPECT_TRUE(handlers.count(expr::kOpCodeCount + 1 + op))
        << "superinstruction " << op << " missing from the coverage corpus";
  }
#endif

}

// ---- superinstructions (threaded form only) ------------------------------

/// Variables of the superinstruction tests: room for copy runs.
constexpr int kRunVars = 10;

Expr anyVar(Rng& rng) { return v(static_cast<int>(rng.below(kRunVars))); }

/// `v(a) cmp k`, for each of the six comparisons.
Expr slotTest(Rng& rng) {
  const Expr a = anyVar(rng);
  const Expr k = Expr::lit(rng.range(-2, 2));
  switch (rng.below(6)) {
    case 0: return a == k;
    case 1: return a != k;
    case 2: return a < k;
    case 3: return a <= k;
    case 4: return a > k;
    default: return a >= k;
  }
}

/// Mostly one slot test (which fuses); at times negated, or two joined by
/// && / ||, whose jumps land inside the group a lone test would fuse.
Expr copyCondition(Rng& rng) {
  switch (rng.below(5)) {
    case 0: return !slotTest(rng);
    case 1: return slotTest(rng) && slotTest(rng);
    case 2: return slotTest(rng) || slotTest(rng);
    default: return slotTest(rng);
  }
}

/// Random action block over v0..v9 that mixes what the peephole pass
/// fuses with what it must leave alone: guarded copies `x := ite(c, s, x)`
/// and their mirror `x := ite(c, x, s)`; copy runs `v[d+i] := v[s+i]` in
/// both directions (d > s overlapping spreads v[s] across the run), in
/// ascending and in descending i; ite values that keep another variable
/// (a jump lands on the Store of a would-be move); and divisions that
/// raise, conditionally and unconditionally.
std::vector<Assign> superinstructionActions(Rng& rng) {
  std::vector<Assign> actions;
  const int n = 1 + static_cast<int>(rng.below(8));
  for (int i = 0; i < n; ++i) {
    const VarRef x{0, static_cast<int>(rng.below(kRunVars))};
    switch (rng.below(6)) {
      case 0:
        actions.push_back({x, Expr::ite(copyCondition(rng), anyVar(rng), Expr::var(x))});
        break;
      case 1:
        actions.push_back({x, Expr::ite(copyCondition(rng), Expr::var(x), anyVar(rng))});
        break;
      case 2: {
        const int len = 2 + static_cast<int>(rng.below(4));
        const int d = static_cast<int>(rng.below(kRunVars - len + 1));
        const int src = static_cast<int>(rng.below(kRunVars - len + 1));
        const bool descending = rng.chance(1, 4);
        for (int k = 0; k < len; ++k) {
          const int j = descending ? len - 1 - k : k;
          actions.push_back({VarRef{0, d + j}, v(src + j)});
        }
        break;
      }
      case 3:
        actions.push_back({x, Expr::ite(copyCondition(rng), anyVar(rng), anyVar(rng))});
        break;
      case 4:
        actions.push_back({x, Expr::ite(slotTest(rng), anyVar(rng) / anyVar(rng), Expr::var(x))});
        break;
      default:
        actions.push_back({x, randomExpr(rng, 2)});
        break;
    }
  }
  return actions;
}

class SuperinstructionDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SuperinstructionDifferential, ThreadedSwitchAndInterpreterAgree) {
  // Random guarded commands rich in fusable shapes on the threaded core
  // (superinstructions), the switch core (code(), unfused) and the
  // interpreter. The two cores must agree on the value, the EvalError
  // message and every store; the interpreter on the value, raise-or-not,
  // and the stores made before a raise.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  int raised = 0;
  int fused = 0;
  for (int round = 0; round < 300; ++round) {
    const Expr guard = rng.chance(1, 3) ? Expr::top() : copyCondition(rng);
    const std::vector<Assign> actions = superinstructionActions(rng);
    const ExprProgram p = expr::compileFused(guard, actions, localSlot);
    for (int h : p.threadedHandlers()) fused += h > expr::kOpCodeCount ? 1 : 0;
    for (int k = 0; k < 8; ++k) {
      std::vector<Value> vars(kRunVars);
      for (Value& x : vars) {
        x = rng.chance(1, 10) ? (rng.chance(1, 2) ? kMin : kMax) : rng.range(-2, 2);
      }
      std::vector<Value> threaded = vars;
      std::vector<Value> portable = vars;
      const VmOutcome out = vmEval([&] { return p.run(std::span<Value>(threaded)); });
      ASSERT_EQ(vmEval([&] { return p.runSwitchCore(portable); }), out) << "round " << round;
      ASSERT_EQ(threaded, portable) << "round " << round;
      std::vector<Value> interpVars = vars;
      const auto viaInterp = runInterpreted(guard, actions, interpVars);
      ASSERT_EQ(out.value.has_value(), viaInterp.has_value()) << "round " << round;
      if (viaInterp.has_value()) {
        ASSERT_EQ(*out.value != 0, *viaInterp) << "round " << round;
      }
      ASSERT_EQ(threaded, interpVars) << "round " << round;
      if (!viaInterp.has_value()) ++raised;
    }
  }
  EXPECT_GT(raised, 0);
#if CBIP_HAS_COMPUTED_GOTO
  EXPECT_GT(fused, 0);
#endif
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperinstructionDifferential, ::testing::Values(1, 2, 3, 4, 5));

TEST(Superinstructions, SpreadingCopyRunRunsForward) {
  // slot_{i+1} := slot_i in ascending i copies slot_0 into every slot, as
  // the sequential semantics says; a memmove would shift instead.
  std::vector<Assign> spread;
  for (int i = 0; i + 1 < 5; ++i) spread.push_back({VarRef{0, i + 1}, v(i)});
  const ExprProgram p = expr::compileFused(Expr::top(), spread, localSlot);
  std::vector<Value> vars{7, 1, 2, 3, 4};
  EXPECT_EQ(p.run(std::span<Value>(vars)), 1);
  EXPECT_EQ(vars, (std::vector<Value>{7, 7, 7, 7, 7}));
#if CBIP_HAS_COMPUTED_GOTO
  EXPECT_EQ(p.threadedHandlers().size(), 3u);  // copy run, Push 1, halt
#endif
}

TEST(Superinstructions, ProducerConsumerBufferBlocksStayShort) {
  // The buffer's put writes slot `count` through one guarded copy per
  // slot; its get shifts the slots down. Pinning their threaded lengths
  // catches a change that silently stops fusing, without timing anything.
#if !CBIP_HAS_COMPUTED_GOTO
  GTEST_SKIP() << "the threaded form exists only with computed goto";
#else
  constexpr std::size_t kCapacity = 256;
  const System sys = models::producerConsumer(static_cast<int>(kCapacity));
  const AtomicType& buffer = *sys.instance(1).type;
  ASSERT_EQ(buffer.name(), "Buffer");
  const auto records = [&](const std::string& port) {
    for (std::size_t t = 0; t < buffer.transitionCount(); ++t) {
      if (buffer.transition(static_cast<int>(t)).port == buffer.portIndex(port)) {
        return buffer.compiledTransition(static_cast<int>(t)).actionBlock.threadedHandlers().size();
      }
    }
    return std::size_t{0};
  };
  // put: a guarded copy per slot and one for `out`, count := count + 1
  // (4 records), Push 1 and the halt sentinel.
  EXPECT_LE(records("put"), kCapacity + 8);
  EXPECT_GT(records("put"), kCapacity);
  // get: one copy run for the shift, count := count - 1, a move for
  // `out`, Push 1 and the halt sentinel.
  EXPECT_LE(records("get"), 8u);
  EXPECT_GT(records("get"), 0u);
#endif
}

// ---- builder constant folding -------------------------------------------

TEST(BuilderFolding, FoldsConstantOperands) {
  EXPECT_EQ((Expr::lit(2) + Expr::lit(3)).literal(), 5);
  EXPECT_EQ((Expr::lit(7) * Expr::lit(-2)).literal(), -14);
  EXPECT_EQ((Expr::lit(7) < Expr::lit(9)).literal(), 1);
  EXPECT_EQ(Expr::min(Expr::lit(4), Expr::lit(2)).literal(), 2);
  EXPECT_EQ((!Expr::lit(5)).literal(), 0);
  EXPECT_TRUE((Expr::lit(1) && Expr::lit(1)).isTrue());
}

TEST(BuilderFolding, IdentitiesReturnTheOperand) {
  const Expr x = v(0);
  EXPECT_TRUE((x + Expr::lit(0)).equals(x));
  EXPECT_TRUE((Expr::lit(0) + x).equals(x));
  EXPECT_TRUE((x - Expr::lit(0)).equals(x));
  EXPECT_TRUE((x * Expr::lit(1)).equals(x));
  EXPECT_TRUE((Expr::lit(1) * x).equals(x));
  EXPECT_TRUE((x / Expr::lit(1)).equals(x));
  EXPECT_TRUE(Expr::ite(Expr::lit(1), x, v(1)).equals(x));
  EXPECT_TRUE(Expr::ite(Expr::lit(0), v(1), x).equals(x));
}

TEST(BuilderFolding, TrueGuardConjunctionKeepsBooleanOperand) {
  // top() && e folds to e when e is boolean-valued — the common guard
  // shape — so trivial-guard checks (isTrue) see through composition.
  const Expr cmp = v(0) < v(1);
  EXPECT_TRUE((Expr::top() && cmp).equals(cmp));
  EXPECT_TRUE((cmp && Expr::top()).equals(cmp));
  EXPECT_TRUE((Expr::top() && Expr::top()).isTrue());
  // Non-boolean operands are normalized to their truthiness instead.
  std::vector<Value> vars{5, 0};
  EXPECT_EQ((Expr::top() && v(0)).eval(vars), 1);
  EXPECT_EQ((Expr::top() && v(1)).eval(vars), 0);
}

TEST(BuilderFolding, NeverDropsPossibleErrors) {
  std::vector<Value> vars{0};
  // x * 0 and x && false keep x: it may raise at run time.
  EXPECT_THROW(((Expr::lit(1) / v(0)) * Expr::lit(0)).eval(vars), EvalError);
  EXPECT_THROW(((Expr::lit(1) / v(0) > Expr::lit(0)) && Expr::lit(0)).eval(vars), EvalError);
  // Constant division by zero stays a runtime error.
  EXPECT_THROW((Expr::lit(1) / Expr::lit(0)).eval(vars), EvalError);
  EXPECT_THROW((Expr::lit(1) % Expr::lit(0)).eval(vars), EvalError);
  // But a short-circuited right operand still folds away.
  EXPECT_EQ((Expr::lit(0) && (Expr::lit(1) / v(0))).literal(), 0);
}

TEST(ExprCompile, DuplicatePortExportsRejected) {
  // A variable exported twice through one port would alias two connector
  // frame slots (a down write through one slot would not be observable
  // through the other), so validation forbids it.
  AtomicType t("T");
  const int l = t.addLocation("l");
  const int x = t.addVariable("x", 0);
  t.addPort("p", {x, x});
  t.setInitialLocation(l);
  EXPECT_THROW(t.validate(), ModelError);
}

// ---- engine-level cross-checks ------------------------------------------

/// A small data-heavy system: two counters exchanging values through a
/// connector with a guard, an up transfer, two down transfers and internal
/// (tau) steps — every compiled code path in one model.
System dataExchange() {
  auto t = std::make_shared<AtomicType>("C");
  const int idle = t->addLocation("idle");
  const int busy = t->addLocation("busy");
  const int x = t->addVariable("x", 1);
  const int acc = t->addVariable("acc", 0);
  const int p = t->addPort("p", {x});
  t->addTransition(idle, p, Expr::local(x) < Expr::lit(1000),
                   {expr::Assign{VarRef{0, acc}, Expr::local(acc) + Expr::local(x)}}, busy);
  // Tau step back to idle, mixing the accumulator into x.
  t->addTransition(busy, kInternalPort, Expr::top(),
                   {expr::Assign{VarRef{0, x},
                                 (Expr::local(x) * Expr::lit(3) + Expr::local(acc)) %
                                         Expr::lit(257) +
                                     Expr::lit(1)}},
                   idle);
  t->setInitialLocation(idle);

  System sys;
  const int a = sys.addInstance("a", t);
  const int b = sys.addInstance("b", t);
  Connector c("swap");
  const int ea = c.addSynchron(PortRef{a, 0});
  const int eb = c.addSynchron(PortRef{b, 0});
  const int sum = c.addVariable("sum");
  c.setGuard(Expr::var(ea, 0) + Expr::var(eb, 0) > Expr::lit(1));
  c.addUp(sum, Expr::var(ea, 0) + Expr::var(eb, 0));
  c.addDown(ea, 0, Expr::var(expr::kConnectorScope, sum) / Expr::lit(2));
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

TEST(EngineCompileCrossCheck, SequentialTracesBitIdentical) {
  const System models[] = {models::philosophersAtomic(6), models::gasStation(2, 4),
                           models::producerConsumerBounded(3, 7), models::tokenRing(8),
                           dataExchange()};
  const char* names[] = {"phil", "gas", "prodcons", "ring", "dataExchange"};
  for (std::size_t m = 0; m < std::size(models); ++m) {
    for (std::uint64_t seed : {3ULL, 17ULL, 99ULL}) {
      RunResult runs[2];
      for (int compiledOn = 0; compiledOn < 2; ++compiledOn) {
        CompileSwitch sw(compiledOn == 1);
        RandomPolicy policy(seed);
        SequentialEngine engine(models[m], policy);
        RunOptions opt;
        opt.maxSteps = 400;
        runs[compiledOn] = engine.run(opt);
      }
      expectIdenticalRuns(runs[1], runs[0],
                          std::string(names[m]) + " seed " + std::to_string(seed));
    }
  }
}

TEST(EngineCompileCrossCheck, MultiThreadTracesBitIdentical) {
  const System models[] = {models::philosophersAtomic(5), models::producerConsumerBounded(2, 5),
                           dataExchange()};
  const char* names[] = {"phil", "prodcons", "dataExchange"};
  for (std::size_t m = 0; m < std::size(models); ++m) {
    RunResult runs[2];
    for (int compiledOn = 0; compiledOn < 2; ++compiledOn) {
      CompileSwitch sw(compiledOn == 1);
      RandomPolicy policy(7);
      MultiThreadEngine engine(models[m], policy);
      MtOptions opt;
      opt.maxSteps = 200;
      runs[compiledOn] = engine.run(opt);
    }
    expectIdenticalRuns(runs[1], runs[0], names[m]);
  }
}

/// Guarded commands whose guards and actions share subexpressions, with
/// clobbering writes in between: the fused programs park values in CSE
/// temps and must recompute after each clobber, on port transitions, on
/// tau settling (tryFire) and in the connector's fused up block.
System sharedSubexpressions() {
  auto t = std::make_shared<AtomicType>("S");
  const int a = t->addLocation("a");
  const int b = t->addLocation("b");
  const int x = t->addVariable("x", 2);
  const int y = t->addVariable("y", 5);
  const int acc = t->addVariable("acc", 0);
  const int p = t->addPort("p", {x});
  const Expr mix = (Expr::local(x) * Expr::lit(3) + Expr::local(y)) % Expr::lit(11);
  t->addTransition(a, p, mix != Expr::lit(0),
                   {Assign{VarRef{0, acc}, mix + Expr::local(acc)},
                    Assign{VarRef{0, y}, Expr::local(x) * Expr::lit(3) + Expr::local(y)},
                    Assign{VarRef{0, x}, mix + Expr::lit(1)}},
                   b);
  t->addTransition(a, p, Expr::top(), {Assign{VarRef{0, x}, Expr::local(x) + Expr::lit(1)}}, b);
  const Expr fold = (Expr::local(acc) + Expr::local(y)) % Expr::lit(5);
  t->addTransition(b, kInternalPort, fold < Expr::lit(4),
                   {Assign{VarRef{0, x}, fold + Expr::local(x)},
                    Assign{VarRef{0, acc}, Expr::local(acc) % Expr::lit(1000)}},
                   a);
  t->addTransition(b, kInternalPort, Expr::top(),
                   {Assign{VarRef{0, y}, Expr::local(y) % Expr::lit(97)}}, a);
  t->setInitialLocation(a);

  System sys;
  const int i0 = sys.addInstance("s0", t);
  const int i1 = sys.addInstance("s1", t);
  const int i2 = sys.addInstance("s2", t);
  for (const auto& [l, r] : {std::pair{i0, i1}, std::pair{i1, i2}, std::pair{i2, i0}}) {
    Connector c("link" + std::to_string(l) + std::to_string(r));
    const int el = c.addSynchron(PortRef{l, 0});
    const int er = c.addSynchron(PortRef{r, 0});
    const int sum = c.addVariable("sum");
    const int diff = c.addVariable("diff");
    const Expr both = Expr::var(el, 0) + Expr::var(er, 0);
    c.addUp(sum, both % Expr::lit(13));
    c.addUp(diff, both % Expr::lit(13) - Expr::var(er, 0));
    c.addDown(el, 0, Expr::var(expr::kConnectorScope, sum) + Expr::lit(1));
    c.addDown(er, 0, Expr::abs(Expr::var(expr::kConnectorScope, diff)) % Expr::lit(17));
    sys.addConnector(std::move(c));
  }
  sys.validate();
  return sys;
}

/// `n` workers of one type on one rendezvous connector: each worker has a
/// single guarded transition on the shared port, so every scan of the
/// connector runs one guard program n times in a row. A per-worker solo
/// connector keeps the system live when some guard is false.
System lockstepWorkers(int n) {
  auto t = std::make_shared<AtomicType>("W");
  const int idle = t->addLocation("idle");
  const int busy = t->addLocation("busy");
  const int x = t->addVariable("x", 1);
  const int sync = t->addPort("sync", {x});
  const int solo = t->addPort("solo");
  t->addTransition(idle, sync, Expr::local(x) % Expr::lit(5) != Expr::lit(4), {}, busy);
  t->addTransition(idle, solo, Expr::local(x) % Expr::lit(5) == Expr::lit(4),
                   {Assign{VarRef{0, x}, Expr::local(x) + Expr::lit(1)}}, idle);
  t->addTransition(busy, kInternalPort, Expr::top(),
                   {Assign{VarRef{0, x},
                           (Expr::local(x) * Expr::lit(7) + Expr::lit(3)) % Expr::lit(1009)}},
                   idle);
  t->setInitialLocation(idle);

  System sys;
  Connector all("all");
  for (int i = 0; i < n; ++i) {
    const int inst = sys.addInstance("w" + std::to_string(i), t);
    all.addSynchron(PortRef{inst, sync});
    Connector own("solo" + std::to_string(i));
    own.addSynchron(PortRef{inst, solo});
    sys.addConnector(std::move(own));
  }
  sys.addConnector(std::move(all));
  sys.validate();
  return sys;
}

TEST(EngineFusionCrossCheck, SequentialTracesBitIdenticalFusedVsUnfused) {
  // Fusion is a dispatch-strategy change only: the fused programs (one
  // dispatch per guarded command, per action block, per up block) must
  // reproduce the interpreter's guard-then-actions ("unfused") traces,
  // final states and step counts bit for bit on CSE-heavy models.
  const System models[] = {sharedSubexpressions(), models::producerConsumerBounded(3, 7),
                           dataExchange()};
  const char* names[] = {"sharedSubexpressions", "prodcons", "dataExchange"};
  for (std::size_t m = 0; m < std::size(models); ++m) {
    for (std::uint64_t seed : {3ULL, 17ULL, 99ULL}) {
      RunResult runs[2];
      for (int compiledOn = 0; compiledOn < 2; ++compiledOn) {
        CompileSwitch sw(compiledOn == 1);
        RandomPolicy policy(seed);
        SequentialEngine engine(models[m], policy);
        RunOptions opt;
        opt.maxSteps = 300;
        runs[compiledOn] = engine.run(opt);
      }
      ASSERT_EQ(runs[1].reason, StopReason::kStepLimit) << names[m];
      expectIdenticalRuns(runs[1], runs[0],
                          std::string(names[m]) + " seed " + std::to_string(seed));
    }
  }
}

TEST(EngineFusionCrossCheck, MultiThreadTracesBitIdenticalFusedVsUnfused) {
  const System models[] = {sharedSubexpressions(), dataExchange()};
  const char* names[] = {"sharedSubexpressions", "dataExchange"};
  for (std::size_t m = 0; m < std::size(models); ++m) {
    RunResult runs[2];
    for (int compiledOn = 0; compiledOn < 2; ++compiledOn) {
      CompileSwitch sw(compiledOn == 1);
      RandomPolicy policy(7);
      MultiThreadEngine engine(models[m], policy);
      MtOptions opt;
      opt.maxSteps = 200;
      runs[compiledOn] = engine.run(opt);
    }
    expectIdenticalRuns(runs[1], runs[0], names[m]);
  }
}

TEST(EngineDispatchCrossCheck, SequentialTracesBitIdenticalThreadedVsSwitch) {
  // The build's VM core is an execution-core change only: traces, final
  // states and step counts must match the interpreter oracle bit for bit.
  // CI runs this on the threaded and on the forced-switch build, so both
  // cores agree through the oracle.
  const System sys = lockstepWorkers(8);
  for (std::uint64_t seed : {3ULL, 17ULL, 99ULL}) {
    RunResult runs[2];
    for (int compiledOn = 0; compiledOn < 2; ++compiledOn) {
      CompileSwitch sw(compiledOn == 1);
      RandomPolicy policy(seed);
      SequentialEngine engine(sys, policy);
      RunOptions opt;
      opt.maxSteps = 300;
      runs[compiledOn] = engine.run(opt);
    }
    ASSERT_EQ(runs[1].reason, StopReason::kStepLimit);
    expectIdenticalRuns(runs[1], runs[0], "lockstep seed " + std::to_string(seed));
  }
}

TEST(EngineDispatchCrossCheck, MultiThreadTracesBitIdenticalThreadedVsSwitch) {
  const System sys = lockstepWorkers(8);
  RunResult runs[2];
  for (int compiledOn = 0; compiledOn < 2; ++compiledOn) {
    CompileSwitch sw(compiledOn == 1);
    RandomPolicy policy(7);
    MultiThreadEngine engine(sys, policy);
    MtOptions opt;
    opt.maxSteps = 200;
    runs[compiledOn] = engine.run(opt);
  }
  expectIdenticalRuns(runs[1], runs[0], "lockstep");
}

TEST(EngineCompileCrossCheck, SuccessorsAndDeadlocksAgree)  {
  // The shared semantic kernel (enabledInteractions/successors) must give
  // the verifier the same view either way.
  const System sys = dataExchange();
  GlobalState g = initialState(sys);
  for (int step = 0; step < 30; ++step) {
    std::vector<GlobalState> succOn, succOff;
    {
      CompileSwitch sw(true);
      succOn = successors(sys, g);
    }
    {
      CompileSwitch sw(false);
      succOff = successors(sys, g);
    }
    ASSERT_EQ(succOn.size(), succOff.size()) << "step " << step;
    for (std::size_t i = 0; i < succOn.size(); ++i) {
      ASSERT_EQ(succOn[i], succOff[i]) << "step " << step << " successor " << i;
    }
    if (succOn.empty()) break;
    g = succOn.front();
  }
}

}  // namespace
}  // namespace cbip
