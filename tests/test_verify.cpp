// Tests for the verification layer: monolithic reachability, component
// invariants, traps / interaction invariants, the D-Finder deadlock check
// (checked against exhaustive reachability on generated systems) and
// incremental verification.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "compile_switch.hpp"
#include "engine/engine.hpp"
#include "models/models.hpp"
#include "random_systems.hpp"
#include "util/rng.hpp"
#include "verify/dfinder.hpp"
#include "verify/incremental.hpp"
#include "verify/invariants.hpp"
#include "verify/lint.hpp"
#include "verify/reachability.hpp"

namespace cbip::verify {
namespace {

TEST(Reachability, CountsPhilosopherStates) {
  const System sys = models::philosophersAtomic(2, /*counters=*/false);
  const ReachResult r = explore(sys);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.deadlocks.empty());
  // 2 philosophers: interleavings of (eat_i, rel_i); states: both thinking,
  // p0 eating, p1 eating (forks shared, so never both): 3 control states.
  EXPECT_EQ(r.states, 3u);
}

TEST(Reachability, FindsTwoStepDeadlock) {
  const System sys = models::philosophersTwoStep(3, /*counters=*/false);
  const ReachResult r = explore(sys);
  EXPECT_TRUE(r.complete);
  ASSERT_FALSE(r.deadlocks.empty());
  // In the deadlock state every philosopher holds its left fork.
  const GlobalState& d = r.deadlocks.front();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sys.instance(static_cast<std::size_t>(i)).type->locationName(
                  d.components[static_cast<std::size_t>(i)].location),
              "hasLeft");
  }
}

TEST(Reachability, InvariantViolationDetected) {
  const System sys = models::tokenRing(3, /*counters=*/false);
  ReachOptions opt;
  opt.invariant = [&sys](const GlobalState& g) { return models::tokenRingMutex(sys, g); };
  const ReachResult r = explore(sys, opt);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.invariantViolation.has_value());
  EXPECT_TRUE(r.deadlocks.empty());
}

TEST(Reachability, StateBudgetRespected) {
  const System sys = models::philosophersAtomic(8, /*counters=*/false);
  ReachOptions opt;
  opt.maxStates = 20;  // well below the 47 reachable control states
  const ReachResult r = explore(sys, opt);
  EXPECT_FALSE(r.complete);
}

TEST(Reachability, GraphBisimulationReflexive) {
  const System sys = models::philosophersAtomic(3, /*counters=*/false);
  const LabeledGraph g = buildGraph(sys);
  EXPECT_TRUE(bisimilar(g, g));
}

TEST(Reachability, BisimulationDistinguishesModels) {
  const LabeledGraph a = buildGraph(models::philosophersAtomic(2, /*counters=*/false));
  const LabeledGraph b = buildGraph(models::philosophersAtomic(3, /*counters=*/false));
  EXPECT_FALSE(bisimilar(a, b));
}

TEST(ComponentInvariant, TracksGuardRelevantData) {
  // Counter bounded by guard: data exploration should be exact.
  auto t = std::make_shared<AtomicType>("C");
  const int run = t->addLocation("run");
  const int n = t->addVariable("n", 0);
  const int meals = t->addVariable("meals", 0);  // not in any guard
  const int tick = t->addPort("tick");
  t->addTransition(run, tick, Expr::local(n) < Expr::lit(3),
                   {expr::Assign{expr::VarRef{0, n}, Expr::local(n) + Expr::lit(1)},
                    expr::Assign{expr::VarRef{0, meals}, Expr::local(meals) + Expr::lit(1)}},
                   run);
  t->setInitialLocation(run);
  const ComponentInvariant inv = componentInvariant(*t);
  EXPECT_TRUE(inv.dataExact);
  // Abstract states: n in {0..3} -> 4 states (meals abstracted away).
  EXPECT_EQ(inv.statesExplored, 4u);
  EXPECT_TRUE(inv.guardFeasible[0]);
}

TEST(ComponentInvariant, UnboundedCounterFallsBack) {
  // Guard references an unbounded counter: exploration exceeds budget and
  // falls back to the (sound) location-only invariant.
  auto t = std::make_shared<AtomicType>("U");
  const int run = t->addLocation("run");
  const int n = t->addVariable("n", 0);
  const int tick = t->addPort("tick");
  t->addTransition(run, tick, Expr::local(n) >= Expr::lit(0),
                   {expr::Assign{expr::VarRef{0, n}, Expr::local(n) + Expr::lit(1)}}, run);
  t->setInitialLocation(run);
  ComponentInvariantOptions opt;
  opt.maxStates = 100;
  const ComponentInvariant inv = componentInvariant(*t, opt);
  EXPECT_FALSE(inv.dataExact);
  EXPECT_TRUE(inv.guardFeasible[0]);
  EXPECT_TRUE(inv.reachableLocations[0]);
}

TEST(ComponentInvariant, UnreachableLocationExcluded) {
  auto t = std::make_shared<AtomicType>("L");
  t->addLocation("a");
  t->addLocation("island");  // no incoming transition
  const int p = t->addPort("p");
  t->addTransition(0, p, 0);
  t->setInitialLocation(0);
  const ComponentInvariant inv = componentInvariant(*t);
  EXPECT_TRUE(inv.reachableLocations[0]);
  EXPECT_FALSE(inv.reachableLocations[1]);
}

TEST(Traps, PhilosopherForkTrap) {
  const System sys = models::philosophersAtomic(2);
  std::vector<ComponentInvariant> invs;
  for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
    invs.push_back(componentInvariant(*sys.instance(i).type));
  }
  const InteractionNet net = buildInteractionNet(sys, invs);
  const auto traps = enumerateTraps(sys, net);
  ASSERT_FALSE(traps.empty());
  for (const auto& trap : traps) {
    EXPECT_TRUE(isTrap(net, trap));
    EXPECT_TRUE(initiallyMarked(net, trap));
  }
}

TEST(Traps, TrapInvariantHoldsOnReachableStates) {
  // Every enumerated trap must hold on every reachable global state —
  // the soundness property of interaction invariants.
  const System sys = models::philosophersAtomic(3, /*counters=*/false);
  std::vector<ComponentInvariant> invs;
  for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
    invs.push_back(componentInvariant(*sys.instance(i).type));
  }
  const InteractionNet net = buildInteractionNet(sys, invs);
  const auto traps = enumerateTraps(sys, net);
  ASSERT_FALSE(traps.empty());
  const LabeledGraph g = buildGraph(sys);
  for (const GlobalState& state : g.states) {
    for (const auto& trap : traps) {
      bool occupied = false;
      for (const Place& p : trap) {
        if (state.components[static_cast<std::size_t>(p.instance)].location == p.location) {
          occupied = true;
          break;
        }
      }
      EXPECT_TRUE(occupied) << "trap violated in state";
    }
  }
}

TEST(DFinder, CertifiesAtomicPhilosophersDeadlockFree) {
  for (int n : {2, 3, 4, 5}) {
    const System sys = models::philosophersAtomic(n);
    const DFinderResult r = checkDeadlockFreedom(sys);
    EXPECT_EQ(r.verdict, DFinderVerdict::kDeadlockFree) << "n=" << n;
  }
}

TEST(DFinder, FlagsTwoStepPhilosophers) {
  const System sys = models::philosophersTwoStep(3);
  const DFinderResult r = checkDeadlockFreedom(sys);
  ASSERT_EQ(r.verdict, DFinderVerdict::kPotentialDeadlock);
  // The witness is the real deadlock: all philosophers at hasLeft.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sys.instance(static_cast<std::size_t>(i)).type->locationName(
                  r.witnessLocations[static_cast<std::size_t>(i)]),
              "hasLeft");
  }
}

TEST(DFinder, CertifiesTokenRing) {
  const System sys = models::tokenRing(5);
  const DFinderResult r = checkDeadlockFreedom(sys);
  EXPECT_EQ(r.verdict, DFinderVerdict::kDeadlockFree);
}

TEST(DFinder, CertifiesGasStation) {
  const System sys = models::gasStation(2, 2);
  const DFinderResult r = checkDeadlockFreedom(sys);
  EXPECT_EQ(r.verdict, DFinderVerdict::kDeadlockFree);
}

TEST(DFinder, AgreesWithMonolithicOnDeadlockFreedom) {
  // Soundness cross-check: whenever D-Finder certifies deadlock-freedom,
  // exhaustive search must find no deadlock.
  const System cases[] = {models::philosophersAtomic(3, false), models::tokenRing(4, false),
                          models::producerConsumerBounded(2, 3),
                          models::gasStation(2, 2, false)};
  for (const System& sys : cases) {
    const DFinderResult df = checkDeadlockFreedom(sys);
    const ReachResult mono = explore(sys);
    ASSERT_TRUE(mono.complete);
    if (df.verdict == DFinderVerdict::kDeadlockFree) {
      EXPECT_TRUE(mono.deadlocks.empty());
    }
  }
}

TEST(DFinder, GcdInvariantProperty) {
  // E13 (Fig 6.1): GCD(x, y) is preserved along every reachable state.
  auto gcd = [](Value a, Value b) {
    while (b != 0) {
      const Value t = a % b;
      a = b;
      b = t;
    }
    return a;
  };
  const Value x0 = 36, y0 = 60;
  const System sys = models::gcdSystem(x0, y0);
  const LabeledGraph g = buildGraph(sys);
  for (const GlobalState& s : g.states) {
    EXPECT_EQ(gcd(s.components[0].vars[0], s.components[0].vars[1]), gcd(x0, y0));
  }
}

TEST(Incremental, PhilosophersBuiltConnectorByConnector) {
  const System full = models::philosophersAtomic(3);
  System base;
  for (const System::Instance& inst : full.instances()) {
    base.addInstance(inst.name, inst.type);
  }
  IncrementalVerifier verifier(std::move(base));
  IncrementalVerifier::StepResult last;
  for (const Connector& c : full.connectors()) last = verifier.addConnector(c);
  EXPECT_EQ(last.verdict, DFinderVerdict::kDeadlockFree);
}

TEST(Incremental, ReusesTrapsAcrossAdditions) {
  const System full = models::philosophersAtomic(4);
  System base;
  for (const System::Instance& inst : full.instances()) {
    base.addInstance(inst.name, inst.type);
  }
  IncrementalVerifier verifier(std::move(base));
  std::size_t reuses = 0;
  for (const Connector& c : full.connectors()) {
    const auto step = verifier.addConnector(c);
    reuses += step.trapsKept;
  }
  EXPECT_GT(reuses, 0u);
}

// ---- PR 10: pipeline equivalence ----------------------------------------

std::vector<System> equivalenceZoo() {
  std::vector<System> zoo;
  zoo.push_back(models::philosophersAtomic(6));
  zoo.push_back(models::philosophersTwoStep(4));
  zoo.push_back(models::tokenRing(8));
  zoo.push_back(models::gasStation(2, 3));
  return zoo;
}

TEST(PipelineEquivalence, CompiledAndTreeInvariantsAgree) {
  // The compiled fused-guard BFS and the symbolic tree walk must explore
  // the exact same abstract state space: all four invariant fields equal,
  // including the budget-fallback flag.
  for (const System& sys : equivalenceZoo()) {
    for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
      const AtomicType& type = *sys.instance(i).type;
      ComponentInvariant compiled, tree;
      {
        CompileSwitch on(true);
        compiled = componentInvariant(type);
      }
      {
        CompileSwitch off(false);
        tree = componentInvariant(type);
      }
      EXPECT_EQ(compiled.reachableLocations, tree.reachableLocations) << type.name();
      EXPECT_EQ(compiled.guardFeasible, tree.guardFeasible) << type.name();
      EXPECT_EQ(compiled.restingOffers, tree.restingOffers) << type.name();
      EXPECT_EQ(compiled.dataExact, tree.dataExact) << type.name();
      EXPECT_EQ(compiled.statesExplored, tree.statesExplored) << type.name();
    }
  }
}

TEST(PipelineEquivalence, CompiledInvariantFallbackMatchesTree) {
  // Over-budget exploration must fall back identically under both modes.
  auto t = std::make_shared<AtomicType>("U");
  const int run = t->addLocation("run");
  const int n = t->addVariable("n", 0);
  const int tick = t->addPort("tick");
  t->addTransition(run, tick, Expr::local(n) >= Expr::lit(0),
                   {expr::Assign{expr::VarRef{0, n}, Expr::local(n) + Expr::lit(1)}}, run);
  t->setInitialLocation(run);
  t->validate();
  ComponentInvariantOptions opt;
  opt.maxStates = 50;
  ComponentInvariant compiled, tree;
  {
    CompileSwitch on(true);
    compiled = componentInvariant(*t, opt);
  }
  {
    CompileSwitch off(false);
    tree = componentInvariant(*t, opt);
  }
  EXPECT_FALSE(compiled.dataExact);
  EXPECT_EQ(compiled.dataExact, tree.dataExact);
  EXPECT_EQ(compiled.guardFeasible, tree.guardFeasible);
  EXPECT_EQ(compiled.statesExplored, tree.statesExplored);
}

TEST(PipelineEquivalence, ParallelAndSerialBitIdentical) {
  // The acceptance bar: verdict, witness AND full trap sequence must be
  // byte-identical whether the invariant portfolio runs on four workers
  // or serially.
  for (const System& sys : equivalenceZoo()) {
    DFinderOptions parallel;
    parallel.workers = 4;
    DFinderOptions serial;
    serial.workers = 1;
    const DFinderResult par = checkDeadlockFreedom(sys, parallel);
    const DFinderResult ser = checkDeadlockFreedom(sys, serial);
    EXPECT_EQ(par.verdict, ser.verdict);
    EXPECT_EQ(par.witnessLocations, ser.witnessLocations);
    EXPECT_EQ(par.traps, ser.traps);
    EXPECT_EQ(par.booleanVariables, ser.booleanVariables);
    EXPECT_EQ(par.satConflicts, ser.satConflicts);
    EXPECT_EQ(par.satDecisions, ser.satDecisions);
  }
}

// ---- Golden search: the SAT decision order is pinned -----------------------

/// FNV-1a over the little-endian bytes of each value.
class Fnv {
 public:
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (x >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t trapSequenceHash(const std::vector<std::vector<Place>>& traps) {
  Fnv h;
  for (const std::vector<Place>& trap : traps) {
    h.mix(trap.size());
    for (const Place& p : trap) {
      h.mix(static_cast<std::uint64_t>(p.instance));
      h.mix(static_cast<std::uint64_t>(p.location));
    }
  }
  return h.value();
}

std::uint64_t witnessHash(const std::vector<int>& witness) {
  Fnv h;
  for (const int loc : witness) h.mix(static_cast<std::uint64_t>(loc));
  return h.value();
}

struct GoldenRun {
  const char* name;
  System system;
  DFinderVerdict verdict;
  std::size_t witnessSize;
  std::uint64_t witnessHash;
  std::size_t traps;
  std::uint64_t trapHash;
  std::uint64_t conflicts;
  std::uint64_t decisions;
};

TEST(GoldenSearch, VerdictWitnessTrapsAndSolverEffortArePinned) {
  // Values recorded with the binary-heap VSIDS order this solver's sorted
  // order replaced. Any change to the decision order, the conflict
  // analysis or the trap queries moves the SAT effort, so a drift here
  // means the search itself changed, not just its speed. A certified
  // system carries no witness: the last round's witness was excluded by a
  // trap, so only the potential deadlock pins one.
  const std::uint64_t kNoWitness = witnessHash({});
  const GoldenRun runs[] = {
      {"philo128", models::philosophersAtomic(128), DFinderVerdict::kDeadlockFree, 0,
       kNoWitness, 257, 0xaf887b43615c6760ull, 257, 98941},
      {"twostep64", models::philosophersTwoStep(64), DFinderVerdict::kPotentialDeadlock, 128,
       0x55e6b65657a52783ull, 97, 0xc406eeed2f17a0bfull, 66, 21254},
      {"gas16x16", models::gasStation(16, 16), DFinderVerdict::kDeadlockFree, 0, kNoWitness, 2,
       0xdd9f8a05d1dc7e63ull, 1, 2},
      {"token256", models::tokenRing(256), DFinderVerdict::kDeadlockFree, 0, kNoWitness, 1,
       0xf33b5cd1d8062799ull, 0, 0},
  };
  for (const GoldenRun& g : runs) {
    const DFinderResult r = checkDeadlockFreedom(g.system);
    EXPECT_EQ(r.verdict, g.verdict) << g.name;
    EXPECT_EQ(r.witnessLocations.size(), g.witnessSize) << g.name;
    EXPECT_EQ(witnessHash(r.witnessLocations), g.witnessHash) << g.name;
    EXPECT_EQ(r.traps.size(), g.traps) << g.name;
    EXPECT_EQ(trapSequenceHash(r.traps), g.trapHash) << g.name;
    EXPECT_EQ(r.satConflicts, g.conflicts) << g.name;
    EXPECT_EQ(r.satDecisions, g.decisions) << g.name;
  }
}

TEST(GoldenSearch, IncrementalRemoveReAddCycleIsPinned) {
  // The recertification edit the benchmark times: drop the last
  // connector of philosophers-128, then add it back.
  const System full = models::philosophersAtomic(128);
  const Connector last = full.connector(full.connectorCount() - 1);
  IncrementalVerifier verifier(full);
  const IncrementalVerifier::StepResult removed =
      verifier.removeConnector(full.connectorCount() - 1);
  EXPECT_EQ(removed.verdict, DFinderVerdict::kPotentialDeadlock);
  EXPECT_EQ(removed.witnessLocations.size(), full.instanceCount());
  EXPECT_EQ(removed.trapsKept, 0u);
  EXPECT_EQ(removed.trapsRechecked, 0u);
  EXPECT_EQ(removed.trapsDropped, 0u);
  EXPECT_EQ(removed.trapsNew, 65u);
  const IncrementalVerifier::StepResult added = verifier.addConnector(last);
  EXPECT_EQ(added.verdict, DFinderVerdict::kDeadlockFree);
  EXPECT_TRUE(added.witnessLocations.empty());
  EXPECT_EQ(added.trapsKept, 64u);
  EXPECT_EQ(added.trapsRechecked, 2u);
  EXPECT_EQ(added.trapsDropped, 1u);
  EXPECT_EQ(added.trapsNew, 255u);
  EXPECT_EQ(verifier.traps().size(), 319u);
  EXPECT_EQ(trapSequenceHash(verifier.traps()), 0x407558500d7e31c0ull);
}

// ---- PR 10: randomized incremental-vs-full -------------------------------

TEST(IncrementalRandomized, AddRemoveAgreesWithFullRecomputation) {
  // Random edit scripts over seeded systems: every incremental verdict
  // must match a from-scratch checkDeadlockFreedom of the edited system,
  // and every retained trap must still be a genuine initially-marked trap.
  const System sources[] = {models::philosophersAtomic(4), models::tokenRing(6)};
  for (const System& full : sources) {
    Rng rng(0xd1f1ce + full.connectorCount());
    System base;
    for (const System::Instance& inst : full.instances()) {
      base.addInstance(inst.name, inst.type);
    }
    IncrementalVerifier verifier(std::move(base));
    std::vector<Connector> pool(full.connectors().begin(), full.connectors().end());
    std::vector<Connector> absent = pool;  // not yet in the system
    std::vector<Connector> present;
    for (int step = 0; step < 12; ++step) {
      IncrementalVerifier::StepResult res;
      const bool doAdd = present.empty() || (!absent.empty() && rng.chance(2, 3));
      if (doAdd) {
        const std::size_t k = rng.index(absent.size());
        res = verifier.addConnector(absent[k]);
        present.push_back(absent[k]);
        absent.erase(absent.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        const std::size_t k = rng.index(present.size());
        res = verifier.removeConnector(k);
        absent.push_back(present[k]);
        present.erase(present.begin() + static_cast<std::ptrdiff_t>(k));
      }
      const DFinderResult fullCheck = checkDeadlockFreedom(verifier.system());
      EXPECT_EQ(res.verdict, fullCheck.verdict) << "step " << step;
      // Retained + rediscovered traps are invariants of the edited net.
      const InteractionNet net =
          buildInteractionNet(verifier.system(), verifier.invariants());
      for (const std::vector<Place>& trap : verifier.traps()) {
        EXPECT_TRUE(isTrap(net, trap)) << "step " << step;
        EXPECT_TRUE(initiallyMarked(net, trap)) << "step " << step;
      }
    }
  }
}

TEST(IncrementalRandomized, RemovalPreservesEveryTrap) {
  const System full = models::philosophersAtomic(5);
  System base;
  for (const System::Instance& inst : full.instances()) {
    base.addInstance(inst.name, inst.type);
  }
  IncrementalVerifier verifier(std::move(base));
  for (const Connector& c : full.connectors()) verifier.addConnector(c);
  const std::size_t before = verifier.traps().size();
  const IncrementalVerifier::StepResult res = verifier.removeConnector(0);
  EXPECT_EQ(res.trapsDropped, 0u);
  EXPECT_EQ(res.trapsKept, before);
}

// ---- PR 10: analysis-strengthening corner cases --------------------------

/// A type whose variable x has the exact interval [0, 3]: x starts at 0
/// and one transition assigns the constant 3 (the join stabilizes without
/// widening to top). Guards passed in are attached to a second transition
/// on a separate port so each case probes one guard.
std::shared_ptr<AtomicType> intervalEndpointType(const Expr& guard) {
  auto t = std::make_shared<AtomicType>("E");
  const int run = t->addLocation("run");
  const int x = t->addVariable("x", 0);
  const int set = t->addPort("set");
  const int probe = t->addPort("probe");
  t->addTransition(run, set, Expr::top(),
                   {expr::Assign{expr::VarRef{0, x}, Expr::lit(3)}}, run);
  t->addTransition(run, probe, guard, {}, run);
  t->setInitialLocation(run);
  t->validate();
  return t;
}

/// Runs strengthenWithAnalysis over a one-instance system of
/// `intervalEndpointType(guard)` with conservative (location-only style)
/// invariants; returns whether the probe guard survived.
bool probeGuardSurvives(const Expr& guard) {
  System sys;
  sys.addInstance("e", intervalEndpointType(guard));
  sys.validate();
  std::vector<ComponentInvariant> invs(1);
  invs[0].reachableLocations.assign(1, true);
  invs[0].guardFeasible.assign(2, true);
  strengthenWithAnalysis(sys, invs);
  EXPECT_TRUE(invs[0].guardFeasible[0]);  // the setter is never prunable
  return invs[0].guardFeasible[1];
}

TEST(StrengthenCorners, GuardsFeasibleOnlyAtIntervalEndpointsSurvive) {
  const int x = 0;
  // Feasible exactly at the upper endpoint x == 3: must NOT be pruned.
  EXPECT_TRUE(probeGuardSurvives(Expr::local(x) == Expr::lit(3)));
  EXPECT_TRUE(probeGuardSurvives(Expr::local(x) >= Expr::lit(3)));
  // Feasible exactly at the lower endpoint x == 0: must NOT be pruned.
  EXPECT_TRUE(probeGuardSurvives(Expr::local(x) == Expr::lit(0)));
  EXPECT_TRUE(probeGuardSurvives(Expr::local(x) <= Expr::lit(0)));
  // One past each endpoint: provably false, must be pruned.
  EXPECT_FALSE(probeGuardSurvives(Expr::local(x) == Expr::lit(4)));
  EXPECT_FALSE(probeGuardSurvives(Expr::local(x) > Expr::lit(3)));
  EXPECT_FALSE(probeGuardSurvives(Expr::local(x) < Expr::lit(0)));
  EXPECT_FALSE(probeGuardSurvives(Expr::local(x) == Expr::lit(-1)));
}

TEST(StrengthenCorners, MayRaiseGuardIsNeverPruned) {
  // 1 / x raises at x == 0, so even though `1 / x < 0` is false on every
  // non-raising path, pruning would hide the EvalError: keep the guard.
  const int x = 0;
  EXPECT_TRUE(probeGuardSurvives(Expr::lit(1) / Expr::local(x) < Expr::lit(0)));
}

TEST(StrengthenCorners, PruningIdenticalCompiledAndTree) {
  const int x = 0;
  const Expr guards[] = {Expr::local(x) == Expr::lit(3), Expr::local(x) == Expr::lit(4),
                         Expr::local(x) > Expr::lit(3),  Expr::local(x) >= Expr::lit(3),
                         Expr::local(x) <= Expr::lit(0), Expr::local(x) < Expr::lit(0),
                         Expr::lit(1) / Expr::local(x) < Expr::lit(0)};
  for (const Expr& g : guards) {
    bool compiled, tree;
    {
      CompileSwitch on(true);
      compiled = probeGuardSurvives(g);
    }
    {
      CompileSwitch off(false);
      tree = probeGuardSurvives(g);
    }
    EXPECT_EQ(compiled, tree) << g.toString();
  }
}

// ---- PR 10: verification-fed lints ---------------------------------------

TEST(VerifyLint, FlagsUnreachableLocation) {
  auto t = std::make_shared<AtomicType>("L");
  t->addLocation("a");
  t->addLocation("island");  // no incoming transition
  const int p = t->addPort("p");
  t->addTransition(0, p, Expr::top(), {}, 0);
  t->setInitialLocation(0);
  System sys;
  sys.addInstance("i", t);
  sys.validate();
  const std::vector<analyze::Diagnostic> diags = lintVerify(sys);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, analyze::LintKind::kUnreachableLocation);
  EXPECT_NE(diags[0].message.find("island"), std::string::npos);
  EXPECT_NE(diags[0].where.find("i"), std::string::npos);
}

TEST(VerifyLint, FlagsNeverEnabledInteraction) {
  // The connector's only interaction needs port `never`, whose single
  // transition is guarded provably false: the interaction can never fire.
  auto t = std::make_shared<AtomicType>("N");
  const int run = t->addLocation("run");
  const int never = t->addPort("never");
  const int go = t->addPort("go");
  t->addTransition(run, never, Expr::lit(0), {}, run);
  t->addTransition(run, go, Expr::top(), {}, run);
  t->setInitialLocation(run);
  System sys;
  const int a = sys.addInstance("a", t);
  const int b = sys.addInstance("b", t);
  Connector dead("dead");
  dead.addEnd(PortRef{a, never});
  dead.addEnd(PortRef{b, go});
  sys.addConnector(std::move(dead));
  Connector live("live");
  live.addEnd(PortRef{a, go});
  live.addEnd(PortRef{b, go});
  sys.addConnector(std::move(live));
  sys.validate();
  const std::vector<analyze::Diagnostic> diags = lintVerify(sys);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, analyze::LintKind::kInteractionNeverEnabled);
  EXPECT_NE(diags[0].where.find("dead"), std::string::npos);
}

TEST(VerifyLint, CleanModelsProduceNoDiagnostics) {
  for (const System& sys : equivalenceZoo()) {
    const std::vector<analyze::Diagnostic> diags = lintVerify(sys);
    EXPECT_TRUE(diags.empty()) << (diags.empty() ? "" : toString(diags.front()));
  }
}

// Parameterized consistency sweep: D-Finder never returns kDeadlockFree
// on a system whose exhaustive exploration has a deadlock.
class DFinderSoundness : public ::testing::TestWithParam<int> {};

TEST_P(DFinderSoundness, NeverCertifiesADeadlockedSystem) {
  const int n = GetParam();
  const System sys = models::philosophersTwoStep(n, /*counters=*/false);
  const DFinderResult df = checkDeadlockFreedom(sys);
  const ReachResult mono = explore(sys);
  ASSERT_TRUE(mono.complete);
  ASSERT_FALSE(mono.deadlocks.empty());
  EXPECT_EQ(df.verdict, DFinderVerdict::kPotentialDeadlock);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DFinderSoundness, ::testing::Values(2, 3, 4, 5));

// ---- Generated systems: exhaustive reachability is the oracle -------------

constexpr std::uint64_t kOracleSeeds = 300;
constexpr std::uint64_t kOracleStateBudget = 20'000;

std::vector<int> locationsOf(const GlobalState& state) {
  std::vector<int> locations;
  locations.reserve(state.components.size());
  for (const AtomicState& c : state.components) locations.push_back(c.location);
  return locations;
}

/// True iff every trap has an occupied place in `locations`.
bool keepsEveryToken(const std::vector<std::vector<Place>>& traps,
                     const std::vector<int>& locations) {
  const auto occupied = [&locations](const Place& p) {
    return locations[static_cast<std::size_t>(p.instance)] == p.location;
  };
  for (const std::vector<Place>& trap : traps) {
    if (std::none_of(trap.begin(), trap.end(), occupied)) return false;
  }
  return true;
}

/// The DIS part of the encoding, decided directly on a control state: for
/// some choice of one resting offer set per component, no feasible
/// interaction has every participant offering its port. Brute force over
/// the choices (generated systems have at most five components).
bool satisfiesDis(const System& sys, const std::vector<ComponentInvariant>& invs,
                  const std::vector<int>& locations) {
  std::vector<const std::vector<std::vector<int>>*> sets;
  for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
    sets.push_back(&invs[i].restingOffers[static_cast<std::size_t>(locations[i])]);
    if (sets.back()->empty()) return false;  // never rests there
  }
  std::vector<std::size_t> choice(sys.instanceCount(), 0);
  const auto offers = [&](const PortRef& p) {
    const auto i = static_cast<std::size_t>(p.instance);
    const std::vector<int>& ports = (*sets[i])[choice[i]];
    return std::binary_search(ports.begin(), ports.end(), p.port);
  };
  while (true) {
    bool enabled = false;
    for (const Connector& c : sys.connectors()) {
      for (const InteractionMask mask : c.feasibleMasks()) {
        bool all = true;
        for (std::size_t e = 0; e < c.endCount() && all; ++e) {
          if ((mask & (InteractionMask{1} << e)) != 0) all = offers(c.end(e).port);
        }
        enabled = enabled || all;
      }
    }
    if (!enabled) return true;
    std::size_t k = 0;
    while (k < choice.size() && ++choice[k] == sets[k]->size()) choice[k++] = 0;
    if (k == choice.size()) return false;
  }
}

/// True iff `locations` is a model of CI ∧ II ∧ DIS as `df` encoded them.
bool isModel(const System& sys, const DFinderResult& df, const std::vector<int>& locations) {
  for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
    const std::vector<bool>& reachable = df.componentInvariants[i].reachableLocations;
    const auto l = static_cast<std::size_t>(locations[i]);
    if (locations[i] < 0 || l >= reachable.size() || !reachable[l]) return false;
  }
  return keepsEveryToken(df.traps, locations) &&
         satisfiesDis(sys, df.componentInvariants, locations);
}

/// How often each oracle property had something to check.
struct OracleTally {
  std::uint64_t certified = 0;   // kDeadlockFree: no reachable deadlock
  std::uint64_t flagged = 0;     // kPotentialDeadlock: the witness is a model
  std::uint64_t withTraps = 0;   // adopted traps: each holds on every state
  std::uint64_t deadlocked = 0;  // reachable deadlocks: each is a model
  std::uint64_t pruned = 0;      // a guard ruled out at a reachable location
  std::uint64_t dataOffers = 0;  // a feasible port a resting component may not offer
};

/// Checks one generated system's D-Finder result against its exhaustively
/// explored state space: adopted traps are initially-marked traps that
/// hold on every reachable state; every reachable deadlock and the
/// witness of a potential deadlock are models of CI ∧ II ∧ DIS; a
/// certified system has no reachable deadlock.
void checkAgainstReachability(const System& sys, OracleTally& tally) {
  const DFinderResult df = checkDeadlockFreedom(sys);
  const InteractionNet net = buildInteractionNet(sys, df.componentInvariants);
  for (const std::vector<Place>& trap : df.traps) {
    EXPECT_TRUE(isTrap(net, trap));
    EXPECT_TRUE(initiallyMarked(net, trap));
  }
  ReachOptions opt;
  opt.maxStates = kOracleStateBudget;
  opt.invariant = [&df](const GlobalState& g) { return keepsEveryToken(df.traps, locationsOf(g)); };
  const ReachResult mono = explore(sys, opt);
  ASSERT_TRUE(mono.complete) << "state budget exhausted after " << mono.states << " states";
  EXPECT_FALSE(mono.invariantViolation.has_value()) << "an adopted trap lost its token";

  for (const GlobalState& d : mono.deadlocks) {
    EXPECT_TRUE(isModel(sys, df, locationsOf(d))) << "a reachable deadlock escapes the encoding";
  }
  if (df.verdict == DFinderVerdict::kDeadlockFree) {
    EXPECT_TRUE(mono.deadlocks.empty()) << "certified, but a deadlock is reachable";
    ++tally.certified;
  } else {
    ASSERT_EQ(df.witnessLocations.size(), sys.instanceCount());
    EXPECT_TRUE(isModel(sys, df, df.witnessLocations)) << "the witness is not a model";
    ++tally.flagged;
  }
  if (!df.traps.empty()) ++tally.withTraps;
  if (!mono.deadlocks.empty()) ++tally.deadlocked;
  bool pruned = false;
  bool dataOffers = false;
  for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
    const AtomicType& type = *sys.instance(i).type;
    const ComponentInvariant& inv = df.componentInvariants[i];
    for (std::size_t ti = 0; ti < type.transitionCount(); ++ti) {
      const Transition& t = type.transition(static_cast<int>(ti));
      const auto from = static_cast<std::size_t>(t.from);
      if (!inv.reachableLocations[from]) continue;
      pruned = pruned || !inv.guardFeasible[ti];
      if (t.port == kInternalPort || !inv.guardFeasible[ti]) continue;
      for (const std::vector<int>& ports : inv.restingOffers[from]) {
        dataOffers = dataOffers || !std::binary_search(ports.begin(), ports.end(), t.port);
      }
    }
  }
  if (pruned) ++tally.pruned;
  if (dataOffers) ++tally.dataOffers;
}

class DFinderOracle : public ::testing::TestWithParam<bool> {};

TEST_P(DFinderOracle, GeneratedSystemsAgreeWithExhaustiveReachability) {
  const CompileSwitch path(GetParam());
  OracleTally tally;
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    checkAgainstReachability(randomSystem(seed), tally);
  }
  RecordProperty("certified", std::to_string(tally.certified));
  RecordProperty("flagged", std::to_string(tally.flagged));
  RecordProperty("with_traps", std::to_string(tally.withTraps));
  RecordProperty("deadlocked", std::to_string(tally.deadlocked));
  RecordProperty("pruned", std::to_string(tally.pruned));
  RecordProperty("data_offers", std::to_string(tally.dataOffers));
  // No property may hold vacuously: each had a tenth of the seeds to bite on.
  const std::uint64_t floor = kOracleSeeds / 10;
  EXPECT_GE(tally.certified, floor);
  EXPECT_GE(tally.flagged, floor);
  EXPECT_GE(tally.withTraps, floor);
  EXPECT_GE(tally.deadlocked, floor);
  EXPECT_GE(tally.pruned, floor);
  EXPECT_GE(tally.dataOffers, floor);
}

INSTANTIATE_TEST_SUITE_P(Paths, DFinderOracle, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Compiled" : "Interpreted";
                         });

TEST(DFinderOraclePaths, CompiledAndInterpretedResultsAreBitIdentical) {
  // Beyond agreeing with reachability, the two evaluation paths must reach
  // the same verdict by the same search on every generated system.
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const System sys = randomSystem(seed);
    DFinderResult compiled, interpreted;
    {
      const CompileSwitch on(true);
      compiled = checkDeadlockFreedom(sys);
    }
    {
      const CompileSwitch off(false);
      interpreted = checkDeadlockFreedom(sys);
    }
    EXPECT_EQ(compiled.verdict, interpreted.verdict);
    EXPECT_EQ(compiled.witnessLocations, interpreted.witnessLocations);
    EXPECT_EQ(compiled.traps, interpreted.traps);
    EXPECT_EQ(compiled.satConflicts, interpreted.satConflicts);
    EXPECT_EQ(compiled.satDecisions, interpreted.satDecisions);
    for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
      EXPECT_EQ(compiled.componentInvariants[i].guardFeasible,
                interpreted.componentInvariants[i].guardFeasible);
      EXPECT_EQ(compiled.componentInvariants[i].restingOffers,
                interpreted.componentInvariants[i].restingOffers);
    }
  }
}

/// Guards strengthenWithAnalysis proves dead in `sys`, starting from
/// conservative invariants (every location reachable, every guard
/// feasible), so the count is the analyzer's facts alone.
std::size_t guardsProvedDead(const System& sys) {
  std::vector<ComponentInvariant> invs(sys.instanceCount());
  for (std::size_t i = 0; i < invs.size(); ++i) {
    const AtomicType& type = *sys.instance(i).type;
    invs[i].reachableLocations.assign(type.locationCount(), true);
    invs[i].guardFeasible.assign(type.transitionCount(), true);
  }
  return strengthenWithAnalysis(sys, invs);
}

TEST(StrengthenCorners, PrunedGuardTotalIsPinned) {
  // The pruning feed over the built-in families and the generated oracle
  // systems: the total must not move, and must not depend on the
  // evaluation path. 671 is the total both paths reached while the
  // compiled path still read its facts from a bytecode analyzer.
  constexpr std::size_t kPinned = 671;
  for (const bool compiled : {true, false}) {
    SCOPED_TRACE(compiled ? "compiled" : "interpreted");
    const CompileSwitch path(compiled);
    std::size_t total = 0;
    const System builtins[] = {
        models::philosophersAtomic(4), models::philosophersTwoStep(3), models::gasStation(2, 3),
        models::producerConsumer(3),   models::producerConsumerBounded(3, 7),
        models::tokenRing(5),          models::gcdSystem(12, 18),
        models::skewedPairs(4, 1, 4)};
    for (const System& sys : builtins) total += guardsProvedDead(sys);
    for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
      total += guardsProvedDead(randomSystem(seed));
    }
    EXPECT_EQ(total, kPinned);
  }
}

}  // namespace
}  // namespace cbip::verify
