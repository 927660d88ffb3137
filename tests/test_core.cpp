// Tests for the core component model: atomic components, connectors,
// priorities, system validation and operational semantics; plus the
// reading of the boolean environment switches.
#include <gtest/gtest.h>

#include "core/semantics.hpp"
#include "core/system.hpp"
#include "models/models.hpp"
#include "util/env.hpp"
#include "util/require.hpp"

namespace cbip {
namespace {

using expr::Assign;
using expr::VarRef;

AtomicTypePtr counterType(Value limit) {
  auto t = std::make_shared<AtomicType>("Counter");
  const int run = t->addLocation("run");
  const int n = t->addVariable("n", 0);
  const int tick = t->addPort("tick", {n});
  t->addTransition(run, tick, Expr::local(n) < Expr::lit(limit),
                   {Assign{VarRef{0, n}, Expr::local(n) + Expr::lit(1)}}, run);
  t->setInitialLocation(run);
  return t;
}

TEST(AtomicType, BuilderAndLookups) {
  auto t = counterType(3);
  EXPECT_EQ(t->name(), "Counter");
  EXPECT_EQ(t->locationCount(), 1u);
  EXPECT_EQ(t->variableCount(), 1u);
  EXPECT_EQ(t->portCount(), 1u);
  EXPECT_EQ(t->portIndex("tick"), 0);
  EXPECT_EQ(t->variableIndex("n"), 0);
  EXPECT_EQ(t->locationIndex("run"), 0);
  EXPECT_THROW(t->portIndex("nope"), ModelError);
  EXPECT_FALSE(t->findPort("nope").has_value());
}

TEST(AtomicType, ValidationCatchesBadIndices) {
  AtomicType t("Bad");
  const int l = t.addLocation("l");
  t.addTransition(l, 5, l);  // port 5 does not exist
  EXPECT_THROW(t.validate(), ModelError);
}

TEST(AtomicType, ValidationCatchesDuplicateNames) {
  AtomicType t("Dup");
  t.addLocation("l");
  t.addLocation("l");
  EXPECT_THROW(t.validate(), ModelError);
}

TEST(AtomicState, GuardsControlEnabledness) {
  auto t = counterType(2);
  AtomicState s = initialState(*t);
  EXPECT_TRUE(portEnabled(*t, s, 0));
  fire(*t, s, t->transition(0));
  EXPECT_EQ(s.vars[0], 1);
  fire(*t, s, t->transition(0));
  EXPECT_EQ(s.vars[0], 2);
  EXPECT_FALSE(portEnabled(*t, s, 0));  // n < 2 now false
}

TEST(AtomicState, InternalTransitionsRunToQuiescence) {
  auto t = std::make_shared<AtomicType>("Tau");
  const int a = t->addLocation("a");
  const int x = t->addVariable("x", 5);
  t->addTransition(a, kInternalPort, Expr::local(x) > Expr::lit(0),
                   {Assign{VarRef{0, x}, Expr::local(x) - Expr::lit(1)}}, a);
  t->setInitialLocation(a);
  t->validate();
  AtomicState s = initialState(*t);
  runInternal(*t, s);
  EXPECT_EQ(s.vars[0], 0);
}

TEST(AtomicState, DivergentTauThrows) {
  auto t = std::make_shared<AtomicType>("Diverge");
  const int a = t->addLocation("a");
  t->addTransition(a, kInternalPort, a);
  t->setInitialLocation(a);
  AtomicState s = initialState(*t);
  EXPECT_THROW(runInternal(*t, s, 100), EvalError);
}

TEST(Connector, RendezvousHasOnlyFullInteraction) {
  const Connector c = rendezvous("r", {PortRef{0, 0}, PortRef{1, 0}, PortRef{2, 0}});
  const auto masks = c.feasibleMasks();
  ASSERT_EQ(masks.size(), 1u);
  EXPECT_EQ(masks[0], 0b111u);
}

TEST(Connector, BroadcastHasAllTriggerContainingSubsets) {
  const Connector c = broadcast("b", PortRef{0, 0}, {PortRef{1, 0}, PortRef{2, 0}});
  const auto masks = c.feasibleMasks();
  // subsets containing end 0 (the trigger): {0}, {0,1}, {0,2}, {0,1,2}
  ASSERT_EQ(masks.size(), 4u);
  for (const InteractionMask m : masks) EXPECT_TRUE(m & 1u);
}

TEST(Connector, TooManyEndsRejected) {
  Connector c("big");
  for (int i = 0; i < 62; ++i) c.addSynchron(PortRef{i, 0});
  EXPECT_THROW(c.addSynchron(PortRef{62, 0}), ModelError);
  // Wide rendezvous is fine; wide trigger connectors are rejected at
  // interaction enumeration (the mask sweep would explode).
  Connector wide("wideTrigger");
  for (int i = 0; i < 25; ++i) wide.addEnd(PortRef{i, 0}, /*trigger=*/true);
  EXPECT_THROW(wide.feasibleMasks(), ModelError);
}

TEST(System, ValidateRejectsSameInstanceTwiceInConnector) {
  System sys;
  auto t = counterType(5);
  const int a = sys.addInstance("a", t);
  sys.addConnector(rendezvous("bad", {PortRef{a, 0}, PortRef{a, 0}}));
  EXPECT_THROW(sys.validate(), ModelError);
}

TEST(System, ValidateRejectsUnknownPriorityConnector) {
  System sys;
  auto t = counterType(5);
  sys.addInstance("a", t);
  sys.addConnector(rendezvous("c", {PortRef{0, 0}}));
  sys.addPriority(PriorityRule{"c", "ghost", std::nullopt});
  EXPECT_THROW(sys.validate(), ModelError);
}

TEST(Semantics, SingletonConnectorStepsComponent) {
  System sys;
  const int a = sys.addInstance("a", counterType(2));
  sys.addConnector(rendezvous("tick", {PortRef{a, 0}}));
  sys.validate();
  GlobalState g = initialState(sys);
  auto enabled = enabledInteractions(sys, g);
  ASSERT_EQ(enabled.size(), 1u);
  executeDefault(sys, g, enabled[0]);
  EXPECT_EQ(g.components[0].vars[0], 1);
  executeDefault(sys, g, enabledInteractions(sys, g)[0]);
  EXPECT_TRUE(isDeadlocked(sys, g));  // counter exhausted
}

TEST(Semantics, RendezvousRequiresBothSides) {
  System sys;
  const int a = sys.addInstance("a", counterType(1));
  const int b = sys.addInstance("b", counterType(2));
  sys.addConnector(rendezvous("sync", {PortRef{a, 0}, PortRef{b, 0}}));
  sys.validate();
  GlobalState g = initialState(sys);
  executeDefault(sys, g, enabledInteractions(sys, g).at(0));
  // a reached its limit; even though b could still tick, the rendezvous
  // is disabled.
  EXPECT_TRUE(isDeadlocked(sys, g));
  EXPECT_EQ(g.components[0].vars[0], 1);
  EXPECT_EQ(g.components[1].vars[0], 1);
}

TEST(Semantics, BroadcastDeliversToEnabledSubset) {
  // Sender + 2 receivers, receiver 1 disabled by its guard.
  System sys;
  auto sender = std::make_shared<AtomicType>("S");
  {
    const int l = sender->addLocation("l");
    const int p = sender->addPort("p");
    sender->addTransition(l, p, l);
    sender->setInitialLocation(l);
  }
  auto receiver = std::make_shared<AtomicType>("R");
  {
    const int l = receiver->addLocation("l");
    const int en = receiver->addVariable("en", 0);
    const int p = receiver->addPort("p");
    receiver->addTransition(l, p, Expr::local(en) == Expr::lit(1), {}, l);
    receiver->setInitialLocation(l);
  }
  const int s = sys.addInstance("s", sender);
  const int r0 = sys.addInstance("r0", receiver);
  const int r1 = sys.addInstance("r1", receiver);
  sys.addConnector(broadcast("b", PortRef{s, 0}, {PortRef{r0, 0}, PortRef{r1, 0}}));
  sys.setMaximalProgress(true);
  sys.validate();

  GlobalState g = initialState(sys);
  g.components[static_cast<std::size_t>(r0)].vars[0] = 1;  // enable r0 only
  auto enabled = enabledInteractions(sys, g);
  // Masks {s} and {s, r0} are enabled; r1's guard blocks the others.
  ASSERT_EQ(enabled.size(), 2u);
  enabled = applyPriorities(sys, g, std::move(enabled));
  ASSERT_EQ(enabled.size(), 1u);  // maximal progress keeps {s, r0}
  EXPECT_EQ(enabled[0].mask, 0b011u);
}

TEST(Semantics, PriorityRuleFiltersLowConnector) {
  System sys;
  const int a = sys.addInstance("a", counterType(10));
  const int b = sys.addInstance("b", counterType(10));
  sys.addConnector(rendezvous("low", {PortRef{a, 0}}));
  sys.addConnector(rendezvous("high", {PortRef{b, 0}}));
  sys.addPriority(PriorityRule{"low", "high", std::nullopt});
  sys.validate();
  GlobalState g = initialState(sys);
  auto enabled = applyPriorities(sys, g, enabledInteractions(sys, g));
  ASSERT_EQ(enabled.size(), 1u);
  EXPECT_EQ(sys.connector(static_cast<std::size_t>(enabled[0].connector)).name(), "high");
}

TEST(Semantics, ConditionalPriorityOnlyWhenGuardHolds) {
  System sys;
  const int a = sys.addInstance("a", counterType(10));
  const int b = sys.addInstance("b", counterType(10));
  sys.addConnector(rendezvous("low", {PortRef{a, 0}}));
  sys.addConnector(rendezvous("high", {PortRef{b, 0}}));
  // low < high only while b.n < 2.
  sys.addPriority(PriorityRule{"low", "high", Expr::var(b, 0) < Expr::lit(2)});
  sys.validate();
  GlobalState g = initialState(sys);
  auto filtered = applyPriorities(sys, g, enabledInteractions(sys, g));
  EXPECT_EQ(filtered.size(), 1u);
  g.components[static_cast<std::size_t>(b)].vars[0] = 2;  // guard now false
  filtered = applyPriorities(sys, g, enabledInteractions(sys, g));
  EXPECT_EQ(filtered.size(), 2u);
}

TEST(Semantics, DataTransferThroughConnector) {
  System sys = models::producerConsumer(2);
  GlobalState g = initialState(sys);
  // put, put, get, get: consumer must see items 0 then 1.
  auto fire = [&sys, &g](const std::string& name) {
    for (const EnabledInteraction& ei : enabledInteractions(sys, g)) {
      if (sys.connector(static_cast<std::size_t>(ei.connector)).name() == name) {
        executeDefault(sys, g, ei);
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(fire("put"));
  ASSERT_TRUE(fire("put"));
  ASSERT_FALSE(fire("put"));  // buffer full at capacity 2
  ASSERT_TRUE(fire("get"));
  ASSERT_TRUE(fire("get"));
  const int cons = sys.instanceIndex("consumer");
  EXPECT_EQ(g.components[static_cast<std::size_t>(cons)].vars[1], 0 + 1);  // sum
  EXPECT_EQ(g.components[static_cast<std::size_t>(cons)].vars[2], 2);      // items
}

TEST(Semantics, SuccessorsEnumerateTransitionNondeterminism) {
  // One component with two enabled transitions on the same port.
  auto t = std::make_shared<AtomicType>("Choice");
  const int l = t->addLocation("l");
  const int m = t->addLocation("m");
  const int n = t->addLocation("n");
  const int p = t->addPort("p");
  t->addTransition(l, p, m);
  t->addTransition(l, p, n);
  t->setInitialLocation(l);
  System sys;
  sys.addInstance("c", t);
  sys.addConnector(rendezvous("go", {PortRef{0, 0}}));
  sys.validate();
  const auto succ = successors(sys, initialState(sys));
  ASSERT_EQ(succ.size(), 2u);
  EXPECT_NE(succ[0].components[0].location, succ[1].components[0].location);
}

TEST(Semantics, InteractionLabelIsReadable) {
  System sys = models::philosophersAtomic(2);
  const auto enabled = enabledInteractions(sys, initialState(sys));
  ASSERT_FALSE(enabled.empty());
  const std::string label = interactionLabel(sys, enabled[0]);
  EXPECT_NE(label.find("eat0"), std::string::npos);
  EXPECT_NE(label.find("p0.eat"), std::string::npos);
}

/// Index of the connector named `name`; fails the test if there is none.
int connectorNamed(const System& sys, const std::string& name) {
  for (std::size_t ci = 0; ci < sys.connectorCount(); ++ci) {
    if (sys.connector(ci).name() == name) return static_cast<int>(ci);
  }
  ADD_FAILURE() << "no connector " << name;
  return 0;
}

TEST(InteractionLabel, FormatIsPinned) {
  // Label text is part of every recorded trace, and the golden-trace tests
  // hash only (connector, mask), so the text is pinned here.
  const auto label = [](const System& sys, int connector, InteractionMask mask) {
    const std::string direct = interactionLabel(sys, connector, mask);
    EXPECT_EQ(interactionLabel(sys, EnabledInteraction{connector, mask, {}, {}}), direct);
    return direct;
  };
  auto t = std::make_shared<AtomicType>("T");
  const int l = t->addLocation("l");
  const int snd = t->addPort("snd");
  const int rcv = t->addPort("rcv");
  t->addTransition(l, snd, l);
  t->addTransition(l, rcv, l);
  t->setInitialLocation(l);
  System sys;
  const int a = sys.addInstance("a", t);
  const int b = sys.addInstance("b", t);
  const int c = sys.addInstance("c", t);
  sys.addConnector(rendezvous("sync", {PortRef{a, snd}, PortRef{b, rcv}}));
  sys.addConnector(broadcast("cast", PortRef{a, snd}, {PortRef{b, rcv}, PortRef{c, rcv}}));
  sys.validate();
  EXPECT_EQ(label(sys, 0, 0b11), "sync{a.snd, b.rcv}");
  EXPECT_EQ(label(sys, 1, 0b001), "cast{a.snd}");
  EXPECT_EQ(label(sys, 1, 0b101), "cast{a.snd, c.rcv}");
  EXPECT_EQ(label(sys, 1, 0b111), "cast{a.snd, b.rcv, c.rcv}");

  const System philo = models::philosophersAtomic(3);
  EXPECT_EQ(label(philo, connectorNamed(philo, "eat1"), 0b111), "eat1{p1.eat, f1.use, f2.use}");
  const System gas = models::gasStation(2, 3);
  EXPECT_EQ(label(gas, connectorNamed(gas, "finish_c2_p1"), 0b11),
            "finish_c2_p1{c2.finish, pump1.finish}");
}

TEST(GlobalState, HashAndFormat) {
  System sys = models::philosophersAtomic(2);
  GlobalState a = initialState(sys);
  GlobalState b = initialState(sys);
  EXPECT_EQ(hashState(a), hashState(b));
  executeDefault(sys, b, enabledInteractions(sys, b)[0]);
  EXPECT_NE(hashState(a), hashState(b));
  EXPECT_NE(formatState(sys, a).find("p0@thinking"), std::string::npos);
}

TEST(Models, GasStationRuns) {
  System sys = models::gasStation(2, 3);
  GlobalState g = initialState(sys);
  for (int i = 0; i < 50; ++i) {
    auto enabled = enabledInteractions(sys, g);
    ASSERT_FALSE(enabled.empty()) << "gas station deadlocked at step " << i;
    executeDefault(sys, g, enabled[0]);
  }
}

TEST(Models, TokenRingMaintainsMutex) {
  System sys = models::tokenRing(4);
  GlobalState g = initialState(sys);
  for (int i = 0; i < 100; ++i) {
    auto enabled = enabledInteractions(sys, g);
    ASSERT_FALSE(enabled.empty());
    executeDefault(sys, g, enabled[i % enabled.size()]);
    EXPECT_TRUE(models::tokenRingMutex(sys, g));
  }
}

TEST(EnvFlag, SetNonEmptyAndNotZeroIsOn) {
  EXPECT_FALSE(envFlagOn(nullptr));
  EXPECT_FALSE(envFlagOn(""));
  EXPECT_FALSE(envFlagOn("0"));
  EXPECT_TRUE(envFlagOn("1"));
  EXPECT_TRUE(envFlagOn("yes"));
  EXPECT_TRUE(envFlagOn("00"));
}

}  // namespace
}  // namespace cbip
