// Tests for the three-layer S/R-BIP distributed runtime (E4/E5/E9) and
// the discrete-event network substrate.
#include <gtest/gtest.h>

#include "distributed/srbip.hpp"
#include "models/models.hpp"
#include "net/network.hpp"
#include "util/require.hpp"
#include "verify/reachability.hpp"

namespace cbip::dist {
namespace {

// ---- network substrate ----

namespace testnodes {

class Echo final : public net::Node {
 public:
  explicit Echo(net::NodeId peer) : peer_(peer) {}
  void onStart(net::Context& ctx) override {
    if (peer_ >= 0) ctx.send(peer_, 1, {0});
  }
  void onMessage(const net::Message& m, net::Context& ctx) override {
    received.push_back(m.payload[0]);
    if (m.payload[0] < 5) ctx.send(m.from, 1, {m.payload[0] + 1});
  }
  std::vector<std::int64_t> received;

 private:
  net::NodeId peer_;
};

}  // namespace testnodes

TEST(Network, PingPongTerminatesAndCounts) {
  net::Network net(1);
  auto a = std::make_unique<testnodes::Echo>(1);
  auto b = std::make_unique<testnodes::Echo>(-1);
  auto* bPtr = b.get();
  net.addNode(std::move(a));
  net.addNode(std::move(b));
  const net::RunStats stats = net.run(net::RunLimits{});
  EXPECT_TRUE(stats.quiescent);
  EXPECT_EQ(stats.deliveredMessages, 6u);  // 0..5
  EXPECT_EQ(bPtr->received, (std::vector<std::int64_t>{0, 2, 4}));
}

TEST(Network, FifoPerChannelWithRandomLatency) {
  // A node that sends a burst of sequenced messages; the receiver must
  // see them in order despite randomized per-hop latency.
  class Burst final : public net::Node {
   public:
    void onStart(net::Context& ctx) override {
      for (int i = 0; i < 20; ++i) ctx.send(1, 1, {i});
    }
    void onMessage(const net::Message&, net::Context&) override {}
  };
  class Sink final : public net::Node {
   public:
    void onMessage(const net::Message& m, net::Context&) override {
      seen.push_back(m.payload[0]);
    }
    std::vector<std::int64_t> seen;
  };
  net::Network net(99, net::Latency{1, 10});
  net.addNode(std::make_unique<Burst>());
  auto sink = std::make_unique<Sink>();
  auto* sinkPtr = sink.get();
  net.addNode(std::move(sink));
  net.run(net::RunLimits{});
  ASSERT_EQ(sinkPtr->seen.size(), 20u);
  for (std::size_t i = 0; i < sinkPtr->seen.size(); ++i) {
    EXPECT_EQ(sinkPtr->seen[i], static_cast<std::int64_t>(i));
  }
}

TEST(Network, SeededRunsReproduce) {
  auto run = [](std::uint64_t seed) {
    System sys = models::philosophersAtomic(3, false);
    DistributedOptions opt;
    opt.seed = seed;
    opt.latency = net::Latency{1, 6};  // randomized latency: seeds matter
    opt.commitTarget = 30;
    const DistributedResult r = runDistributed(sys, blockPerConnector(sys), opt);
    std::vector<int> connectors;
    for (const Commit& c : r.commits) connectors.push_back(c.connector);
    return connectors;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// ---- S/R-BIP runtime ----

struct Case {
  const char* name;
  CrpKind crp;
};

// Printing the case by name keeps the discovered test names stable; the
// default byte dump would embed the (address-randomized) name pointer.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class CrpSweep : public ::testing::TestWithParam<Case> {};

TEST_P(CrpSweep, PhilosophersReachTargetAndReplay) {
  const System sys = models::philosophersAtomic(4);
  DistributedOptions opt;
  opt.crp = GetParam().crp;
  opt.commitTarget = 60;
  opt.seed = 13;
  const DistributedResult r = runDistributed(sys, blockPerConnector(sys), opt);
  EXPECT_TRUE(r.reachedTarget) << GetParam().name;
  EXPECT_FALSE(r.deadlocked);
  EXPECT_GE(r.commits.size(), 60u);
  // E4: the distributed trace is a run of the centralized semantics.
  EXPECT_TRUE(replayAgainstReference(sys, r.commits)) << GetParam().name;
}

TEST_P(CrpSweep, DataTransferSurvivesDistribution) {
  const System sys = models::producerConsumer(3);
  DistributedOptions opt;
  opt.crp = GetParam().crp;
  opt.commitTarget = 40;
  opt.seed = 5;
  const DistributedResult r = runDistributed(sys, blockPerConnector(sys), opt);
  EXPECT_TRUE(r.reachedTarget) << GetParam().name;
  EXPECT_TRUE(replayAgainstReference(sys, r.commits)) << GetParam().name;
}

TEST_P(CrpSweep, TriangleIsLiveUnderRealConflicts) {
  // All three interactions conflict pairwise on shared components: the
  // CRP is exercised on every commit.
  const System sys = conflictTriangle();
  DistributedOptions opt;
  opt.crp = GetParam().crp;
  opt.commitTarget = 50;
  opt.seed = 23;
  const DistributedResult r = runDistributed(sys, blockPerConnector(sys), opt);
  EXPECT_TRUE(r.reachedTarget) << GetParam().name;
  EXPECT_TRUE(replayAgainstReference(sys, r.commits)) << GetParam().name;
}

TEST_P(CrpSweep, GasStationWithGuardsAndData) {
  const System sys = models::gasStation(2, 3);
  DistributedOptions opt;
  opt.crp = GetParam().crp;
  opt.commitTarget = 50;
  opt.seed = 31;
  const DistributedResult r = runDistributed(sys, roundRobinBlocks(sys, 3), opt);
  EXPECT_TRUE(r.reachedTarget) << GetParam().name;
  EXPECT_TRUE(replayAgainstReference(sys, r.commits)) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Crps, CrpSweep,
    ::testing::Values(Case{"centralized", CrpKind::kCentralized},
                      Case{"tokenring", CrpKind::kTokenRing},
                      Case{"philosophers", CrpKind::kPhilosophers}));

TEST(Distributed, SingleBlockNeedsNoCrpTraffic) {
  const System sys = models::philosophersAtomic(3);
  DistributedOptions opt;
  opt.commitTarget = 40;
  const DistributedResult r = runDistributed(sys, singleBlock(sys), opt);
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_TRUE(replayAgainstReference(sys, r.commits));
}

TEST(Distributed, PartitionValidationRejectsDuplicates) {
  const System sys = models::philosophersAtomic(2);
  Partition bad = {{0, 1}, {1, 2, 3}};
  EXPECT_THROW(runDistributed(sys, bad, DistributedOptions{}), ModelError);
}

TEST(Distributed, RejectsTriggerConnectors) {
  System sys;
  auto t = std::make_shared<AtomicType>("T");
  const int l = t->addLocation("l");
  const int p = t->addPort("p");
  t->addTransition(l, p, l);
  t->setInitialLocation(l);
  sys.addInstance("a", t);
  sys.addInstance("b", t);
  sys.addConnector(broadcast("b", PortRef{0, 0}, {PortRef{1, 0}}));
  EXPECT_THROW(runDistributed(sys, singleBlock(sys), DistributedOptions{}), ModelError);
}

TEST(Distributed, RejectsPriorities) {
  System sys = models::philosophersAtomic(2);
  sys.addPriority(PriorityRule{"eat0", "eat1", std::nullopt});
  EXPECT_THROW(runDistributed(sys, singleBlock(sys), DistributedOptions{}), ModelError);
}

TEST(Distributed, MoreBlocksMoreParallelismOnDisjointWork) {
  // n independent pairs: with one block everything serializes through a
  // single IP node; with one block per connector the virtual makespan
  // drops (E9's parallelism-vs-partition trade-off).
  System sys;
  auto t = std::make_shared<AtomicType>("P");
  const int l = t->addLocation("l");
  const int p = t->addPort("p");
  t->addTransition(l, p, l);
  t->setInitialLocation(l);
  const int pairs = 4;
  for (int i = 0; i < pairs; ++i) {
    const int a = sys.addInstance("a" + std::to_string(i), t);
    const int b = sys.addInstance("b" + std::to_string(i), t);
    sys.addConnector(rendezvous("sync" + std::to_string(i), {PortRef{a, 0}, PortRef{b, 0}}));
  }
  sys.validate();
  DistributedOptions opt;
  opt.commitTarget = 200;
  const DistributedResult serial = runDistributed(sys, singleBlock(sys), opt);
  const DistributedResult parallel = runDistributed(sys, blockPerConnector(sys), opt);
  ASSERT_TRUE(serial.reachedTarget);
  ASSERT_TRUE(parallel.reachedTarget);
  EXPECT_LT(parallel.virtualTime, serial.virtualTime);
}

TEST(Distributed, CommitCountsPerComponentAreContiguous) {
  // Safety invariant of the offer-count protocol: for every component the
  // committed counts form 0,1,2,... with no gap or duplicate. We recover
  // each component's count sequence by replaying.
  const System sys = conflictTriangle();
  for (const CrpKind crp :
       {CrpKind::kCentralized, CrpKind::kTokenRing, CrpKind::kPhilosophers}) {
    DistributedOptions opt;
    opt.crp = crp;
    opt.commitTarget = 40;
    opt.seed = 77;
    const DistributedResult r = runDistributed(sys, blockPerConnector(sys), opt);
    ASSERT_TRUE(r.reachedTarget);
    std::vector<int> perComponent(sys.instanceCount(), 0);
    for (const Commit& c : r.commits) {
      for (const ConnectorEnd& e :
           sys.connector(static_cast<std::size_t>(c.connector)).ends()) {
        ++perComponent[static_cast<std::size_t>(e.port.instance)];
      }
    }
    int total = 0;
    for (const int n : perComponent) total += n;
    EXPECT_EQ(total, static_cast<int>(r.commits.size()) * 2);  // binary connectors
  }
}

// ---- naive refinement (Fig 5.4 bottom, E5) ----

TEST(NaiveRefinement, TriangleDeadlocks) {
  // Centrally the triangle is deadlock-free...
  const System sys = conflictTriangle();
  EXPECT_TRUE(verify::explore(sys).deadlocks.empty());
  // ...but the per-interaction refinement without conflict resolution
  // commits each component to its own interaction and blocks forever.
  DistributedOptions opt;
  opt.commitTarget = 10;
  const DistributedResult r = runNaiveRefinement(sys, opt);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_TRUE(r.commits.empty());
}

TEST(NaiveRefinement, ChainMakesProgress) {
  // Without a conflict cycle the naive protocol can run: a = {c0,c1},
  // b = {c1,c2} with c0/c1 initiating.
  System sys;
  auto t = std::make_shared<AtomicType>("Peer");
  const int l = t->addLocation("l");
  const int left = t->addPort("left");
  const int right = t->addPort("right");
  t->addTransition(l, left, l);
  t->addTransition(l, right, l);
  t->setInitialLocation(l);
  for (int i = 0; i < 3; ++i) sys.addInstance("c" + std::to_string(i), t);
  sys.addConnector(rendezvous("a", {PortRef{0, right}, PortRef{1, left}}));
  sys.addConnector(rendezvous("b", {PortRef{1, right}, PortRef{2, left}}));
  sys.validate();
  DistributedOptions opt;
  opt.commitTarget = 20;
  const DistributedResult r = runNaiveRefinement(sys, opt);
  EXPECT_TRUE(r.reachedTarget);
}

TEST(NaiveRefinement, ThreeLayerRuntimeFixesTheTriangle) {
  // The same system, same conflicts — with the interaction-protocol +
  // CRP layers there is no deadlock (the point of Fig 5.4 / [7]).
  const System sys = conflictTriangle();
  DistributedOptions opt;
  opt.commitTarget = 10;
  opt.crp = CrpKind::kCentralized;
  const DistributedResult r = runDistributed(sys, blockPerConnector(sys), opt);
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_FALSE(r.deadlocked);
}

}  // namespace
}  // namespace cbip::dist
