// Tests for the incremental enabled-interaction cache: the dirty-set
// maintenance, over every connector or over a subset of them, must agree
// exactly with a from-scratch rescan at every step of randomized runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "compile_switch.hpp"
#include "core/semantics.hpp"
#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "models/models.hpp"
#include "obs/obs.hpp"
#include "shard/engine_sharded.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace cbip {
namespace {

/// Settles initial tau steps the way the engines do before offering.
void settle(const System& sys, GlobalState& g) {
  for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
    runInternal(*sys.instance(i).type, g.components[i]);
  }
}

/// The interactions of `all` on the connectors of `subset` (ascending).
std::vector<EnabledInteraction> filtered(const std::vector<EnabledInteraction>& all,
                                         const std::vector<int>& subset) {
  std::vector<EnabledInteraction> out;
  for (const EnabledInteraction& ei : all) {
    if (std::binary_search(subset.begin(), subset.end(), ei.connector)) out.push_back(ei);
  }
  return out;
}

/// Drives `steps` random interactions, cross-checking the cache against a
/// from-scratch `enabledInteractions()` scan after every execution. An
/// EvalError must come from both or from neither; when both raise, the
/// step is stored in `raisedAt` (a null `raisedAt` makes any raise a
/// failure). With `subset` (ascending connector indices) the cache covers
/// only those connectors and is compared against the scan filtered to
/// them, while the run picks from every enabled interaction.
void crossCheck(const System& sys, std::uint64_t seed, int steps, int* raisedAt = nullptr,
                const std::optional<std::vector<int>>& subset = std::nullopt) {
  GlobalState g = initialState(sys);
  settle(sys, g);
  EnabledInteractionCache cache = subset ? EnabledInteractionCache(sys, *subset)
                                         : EnabledInteractionCache(sys);
  bool cacheRaised = false;
  try {
    cache.reset(g);
  } catch (const EvalError&) {
    cacheRaised = true;
  }
  Rng rng(seed);
  for (int step = 0;; ++step) {
    std::vector<EnabledInteraction> fresh;
    bool freshRaised = false;
    try {
      fresh = enabledInteractions(sys, g);
    } catch (const EvalError&) {
      freshRaised = true;
    }
    if (cacheRaised || freshRaised) {
      ASSERT_EQ(cacheRaised, freshRaised) << "only one side raised at step " << step;
      ASSERT_NE(raisedAt, nullptr) << "unexpected EvalError at step " << step;
      *raisedAt = step;
      return;
    }
    const std::vector<EnabledInteraction> expected = subset ? filtered(fresh, *subset) : fresh;
    ASSERT_EQ(cache.enabled(), expected) << "divergence at step " << step;
    ASSERT_EQ(cache.empty(), expected.empty());
    if (step == steps || fresh.empty()) return;  // done, or deadlock
    const EnabledInteraction& ei = fresh[rng.index(fresh.size())];
    std::vector<int> choice;
    choice.reserve(ei.choices.size());
    for (const std::vector<int>& options : ei.choices) {
      choice.push_back(static_cast<int>(rng.index(options.size())));
    }
    execute(sys, g, ei, choice);
    try {
      cache.updateAfterExecute(g, ei);
    } catch (const EvalError&) {
      cacheRaised = true;
    }
  }
}

/// Runs `check` on the compiled programs and on the interpreter oracle.
void inBothModes(const std::function<void()>& check) {
  for (const bool compiled : {true, false}) {
    SCOPED_TRACE(compiled ? "compiled" : "interpreted");
    const CompileSwitch path(compiled);
    check();
  }
}

TEST(EnabledInteractionCache, AgreesOnPhilosophersAtomic) {
  crossCheck(models::philosophersAtomic(5), 11, 300);
}

TEST(EnabledInteractionCache, AgreesOnEveryScanPath) {
  // The incremental maintenance must stay exact on both scan paths: the
  // compiled programs (default) and the tree-walking interpreter
  // (CBIP_NO_COMPILE).
  for (const bool compiled : {true, false}) {
    SCOPED_TRACE(compiled ? "compiled" : "interpreted");
    const CompileSwitch path(compiled);
    crossCheck(models::philosophersAtomic(5), 11, 200);
    crossCheck(models::gasStation(2, 3), 5, 200);
  }
}

TEST(SequentialEngine, BatchScanOnAndOffProduceIdenticalRuns) {
  // On = the compiled engine and its compiled offer refresh; off = the
  // interpreter oracle and its scan.
  for (const char* model : {"phil", "ring", "gas"}) {
    const System sys = std::string(model) == "phil"   ? models::philosophersAtomic(6)
                       : std::string(model) == "ring" ? models::tokenRing(8)
                                                      : models::gasStation(2, 4);
    RunResult runs[2];
    for (int compiled = 0; compiled < 2; ++compiled) {
      const CompileSwitch path(compiled == 1);
      RandomPolicy policy(99);
      SequentialEngine engine(sys, policy);
      RunOptions opt;
      opt.maxSteps = 400;
      runs[compiled] = engine.run(opt);
    }
    EXPECT_EQ(runs[0].reason, runs[1].reason) << model;
    EXPECT_EQ(runs[0].steps, runs[1].steps) << model;
    EXPECT_EQ(runs[0].finalState, runs[1].finalState) << model;
    ASSERT_EQ(runs[0].trace.events.size(), runs[1].trace.events.size()) << model;
    for (std::size_t i = 0; i < runs[0].trace.events.size(); ++i) {
      EXPECT_EQ(runs[0].trace.events[i].label, runs[1].trace.events[i].label) << model;
    }
  }
}

TEST(EnabledInteractionCache, AgreesOnPhilosophersTwoStep) {
  // Runs into the circular-wait deadlock on some seeds; the cache must
  // agree on the empty set there too.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    crossCheck(models::philosophersTwoStep(4), seed, 200);
  }
}

TEST(EnabledInteractionCache, AgreesOnGasStation) {
  crossCheck(models::gasStation(2, 3), 5, 300);
}

TEST(EnabledInteractionCache, AgreesOnProducerConsumer) {
  crossCheck(models::producerConsumer(3), 17, 300);
}

TEST(EnabledInteractionCache, AgreesOnTokenRing) {
  crossCheck(models::tokenRing(6), 23, 300);
}

TEST(EnabledInteractionCache, AgreesUnderDirtySupersets) {
  // update() with more instances dirty than necessary must stay exact.
  const System sys = models::philosophersAtomic(4);
  GlobalState g = initialState(sys);
  settle(sys, g);
  EnabledInteractionCache cache(sys);
  cache.reset(g);
  std::vector<int> all;
  for (std::size_t i = 0; i < sys.instanceCount(); ++i) all.push_back(static_cast<int>(i));
  Rng rng(29);
  for (int step = 0; step < 100; ++step) {
    const std::vector<EnabledInteraction> fresh = enabledInteractions(sys, g);
    ASSERT_EQ(cache.enabled(), fresh);
    ASSERT_FALSE(fresh.empty());
    executeDefault(sys, g, fresh[rng.index(fresh.size())]);
    cache.update(g, all);
  }
}

TEST(EnabledSpans, SpliceMatchesRebuildFromScratch) {
  // Each position's span holds `length[pos]` elements stamped with the
  // position, its generation and the element's index, so a stale, lost or
  // misplaced element shows. Every field is overwritten, as the builder
  // contract asks of recycled shells.
  Rng rng(31);
  std::vector<int> length;
  std::vector<int> generation;
  const auto stamp = [&](EnabledInteraction& ei, std::size_t pos, int k) {
    ei.connector = static_cast<int>(pos);
    ei.mask = static_cast<InteractionMask>(generation[pos]);
    ei.ends.assign(1, k);
    ei.choices.assign(1, std::vector<int>(static_cast<std::size_t>(k % 3), generation[pos]));
  };
  const auto build = [&](std::size_t pos, EnabledSpans::Shells& shells) {
    for (int k = 0; k < length[pos]; ++k) stamp(shells.next(), pos, k);
  };
  const auto randomLength = [&] {
    return rng.chance(1, 3) ? 0 : static_cast<int>(rng.range(1, 4));
  };
  for (int round = 0; round < 60 && !HasFailure(); ++round) {
    const std::size_t positions = 1 + rng.index(64);
    length.assign(positions, 0);
    generation.assign(positions, 0);
    for (int& len : length) len = randomLength();
    EnabledSpans spans;
    // From scratch: every span built in position order, back to back.
    const auto expectFromScratch = [&] {
      std::vector<EnabledInteraction> fresh;
      for (std::size_t pos = 0; pos < positions; ++pos) {
        EXPECT_FALSE(spans.queued(pos));
        EXPECT_EQ(spans.offset(pos), fresh.size()) << "position " << pos;
        EXPECT_EQ(spans.count(pos), static_cast<std::size_t>(length[pos])) << "position " << pos;
        for (int k = 0; k < length[pos]; ++k) stamp(fresh.emplace_back(), pos, k);
      }
      EXPECT_EQ(spans.items(), fresh);
    };
    spans.rebuild(positions, build);
    expectFromScratch();
    for (int splice = 0; splice < 30 && !HasFailure(); ++splice) {
      SCOPED_TRACE("round " + std::to_string(round) + " splice " + std::to_string(splice));
      switch (rng.index(4)) {
        case 0:  // every position
          for (std::size_t pos = 0; pos < positions; ++pos) spans.queue(pos);
          break;
        case 1:  // only the last
          spans.queue(positions - 1);
          break;
        default:  // random positions in random order, sometimes twice; the
                  // first and last are forced in now and then
          if (rng.chance(1, 4)) spans.queue(0);
          if (rng.chance(1, 4)) spans.queue(positions - 1);
          for (std::size_t i = rng.index(positions + 1); i > 0; --i) {
            spans.queue(rng.index(positions));
          }
      }
      // Random lengths, or, in mixed-sign rounds, queued spans that
      // alternately grow and shrink so untouched runs shift both ways.
      const bool mixed = rng.chance(1, 2);
      bool grow = rng.chance(1, 2);
      for (std::size_t pos = 0; pos < positions; ++pos) {
        if (!spans.queued(pos)) continue;
        if (!mixed) {
          length[pos] = randomLength();
        } else if (grow) {
          length[pos] += static_cast<int>(rng.range(1, 3));
        } else {
          length[pos] = length[pos] == 0 ? 0 : static_cast<int>(rng.index(length[pos]));
        }
        grow = !grow;
        ++generation[pos];
      }
      spans.splice(build);
      EXPECT_EQ(spans.queuedCount(), 0u);
      expectFromScratch();
    }
  }
}

TEST(EnabledSpans, RecycledShellsKeepTheirCapacity) {
  // Builders that fill wide vectors, then narrow ones: every shell the
  // narrow splices recycle still holds the wide capacity, and shells are
  // only ever moved between the set and the free list, never re-made.
  constexpr std::size_t kWide = 32;
  const std::size_t positions = 8;
  std::vector<int> length(positions, 2);
  std::size_t width = kWide;
  const auto build = [&](std::size_t pos, EnabledSpans::Shells& shells) {
    for (int k = 0; k < length[pos]; ++k) {
      EnabledInteraction& ei = shells.next();
      ei.connector = static_cast<int>(pos);
      ei.mask = 1;
      ei.ends.assign(width, k);
      ei.choices.resize(1);
      ei.choices[0].assign(width, k);
    }
  };
  EnabledSpans spans(positions);
  spans.rebuild(positions, build);
  EXPECT_EQ(spans.freeShells(), 0u);
  const auto queueAll = [&] {
    for (std::size_t pos = 0; pos < positions; ++pos) spans.queue(pos);
  };
  // Re-deriving every span stages it into new shells while the old set is
  // still in place; the old shells then become free.
  queueAll();
  spans.splice(build);
  EXPECT_EQ(spans.freeShells(), spans.items().size());
  const std::size_t shells = 2 * spans.items().size();
  width = 1;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE(round);
    // Shrink to 7 elements, then grow back to 16.
    for (std::size_t pos = 0; pos < positions; ++pos) {
      length[pos] = round % 2 == 0 ? static_cast<int>(pos % 3) : 2;
    }
    queueAll();
    spans.splice(build);
    EXPECT_EQ(spans.items().size() + spans.freeShells(), shells);
    for (const EnabledInteraction& ei : spans.items()) {
      EXPECT_EQ(ei.ends.size(), 1u);
      EXPECT_GE(ei.ends.capacity(), kWide);
      ASSERT_EQ(ei.choices.size(), 1u);
      EXPECT_GE(ei.choices[0].capacity(), kWide);
    }
  }
}

// ---- Hand-built offer cases ------------------------------------------------

using expr::Assign;
using expr::VarRef;

/// Workers with several guarded transitions per port, coordinators of
/// every skip class, a broadcast, and a guard that raises on a port no
/// connector uses:
///   * W: `go` has three guarded transitions (some false, so choice lists
///     of one or two), `back` leads to a location whose tau step may fire
///     right after, and `side` (on no connector) divides by zero;
///   * op: an action-free self-loop on every `go_i` (skipped);
///   * s: a self-loop *with* an action whose exported counter guards the
///     broadcast `cast` (must be refreshed);
///   * d: an action-free self-loop whose end receives a down assignment
///     read by the guard of `watch` (must be refreshed).
System offerCases(int workers) {
  auto w = std::make_shared<AtomicType>("W");
  {
    const int idle = w->addLocation("idle");
    const int busy = w->addLocation("busy");
    const int done = w->addLocation("done");
    const int x = w->addVariable("x", 0);
    const int zero = w->addVariable("zero", 0);
    const int go = w->addPort("go", {x});
    const int back = w->addPort("back");
    const int side = w->addPort("side");
    const Expr vx = Expr::local(x);
    w->addTransition(idle, go, vx % Expr::lit(3) != Expr::lit(2), {}, busy);
    w->addTransition(idle, go, vx % Expr::lit(2) == Expr::lit(0),
                     {Assign{VarRef{0, x}, vx + Expr::lit(1)}}, busy);
    w->addTransition(idle, go, vx > Expr::lit(100), {}, busy);
    w->addTransition(busy, back, Expr::top(), {Assign{VarRef{0, x}, vx + Expr::lit(1)}}, done);
    w->addTransition(done, kInternalPort, vx % Expr::lit(4) != Expr::lit(3), {}, idle);
    w->addTransition(done, back, Expr::top(), {Assign{VarRef{0, x}, vx + Expr::lit(2)}}, idle);
    w->addTransition(idle, side, Expr::lit(1) / Expr::local(zero) > Expr::lit(0), {}, idle);
    w->setInitialLocation(idle);
  }
  auto op = std::make_shared<AtomicType>("Op");
  {
    const int idle = op->addLocation("idle");
    const int tick = op->addPort("tick");
    op->addTransition(idle, tick, idle);
    op->setInitialLocation(idle);
  }
  auto sender = std::make_shared<AtomicType>("Sender");
  {
    const int a = sender->addLocation("a");
    const int n = sender->addVariable("n", 0);
    const int send = sender->addPort("send", {n});
    sender->addTransition(a, send, Expr::top(),
                          {Assign{VarRef{0, n}, Expr::local(n) + Expr::lit(1)}}, a);
    sender->setInitialLocation(a);
  }
  auto dest = std::make_shared<AtomicType>("Dest");
  {
    const int a = dest->addLocation("a");
    const int v = dest->addVariable("v", 0);
    const int p = dest->addPort("p", {v});
    dest->addTransition(a, p, a);
    dest->setInitialLocation(a);
  }
  System sys;
  const int opIdx = sys.addInstance("op", op);
  const int sIdx = sys.addInstance("s", sender);
  const int dIdx = sys.addInstance("d", dest);
  std::vector<int> ws;
  for (int i = 0; i < workers; ++i) ws.push_back(sys.addInstance("w" + std::to_string(i), w));
  const int go = w->portIndex("go");
  const int back = w->portIndex("back");
  for (int i = 0; i < workers; ++i) {
    sys.addConnector(rendezvous("go" + std::to_string(i), {PortRef{opIdx, 0}, PortRef{ws[i], go}}));
    sys.addConnector(rendezvous("back" + std::to_string(i), {PortRef{ws[i], back}}));
  }
  std::vector<PortRef> receivers;
  for (int i = 0; i < workers; ++i) receivers.push_back(PortRef{ws[i], go});
  Connector cast = broadcast("cast", PortRef{sIdx, 0}, receivers);
  cast.setGuard(Expr::var(0, 0) % Expr::lit(3) != Expr::lit(1));
  sys.addConnector(std::move(cast));
  Connector set("set");
  const int eD = set.addSynchron(PortRef{dIdx, 0});
  set.addSynchron(PortRef{ws[0], back});
  set.addDown(eD, 0, Expr::var(eD, 0) + Expr::lit(1));
  sys.addConnector(std::move(set));
  Connector watch("watch");
  const int eW = watch.addSynchron(PortRef{dIdx, 0});
  watch.addSynchron(PortRef{ws[workers - 1], back});
  watch.setGuard(Expr::var(eW, 0) % Expr::lit(2) == Expr::lit(0));
  sys.addConnector(std::move(watch));
  sys.validate();
  return sys;
}

TEST(EnabledInteractionCache, AgreesOnHandBuiltOfferCases) {
  const System sys = offerCases(3);
  inBothModes([&] {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) crossCheck(sys, seed, 300);
  });
}

TEST(EnabledInteractionCache, ChoiceListsFollowGuards) {
  // x = 0: the first two `go` transitions hold, the third does not.
  const System sys = offerCases(2);
  inBothModes([&] {
    EnabledInteractionCache cache(sys);
    GlobalState g = initialState(sys);
    cache.reset(g);
    const int go0 = 0;
    bool seen = false;
    for (const EnabledInteraction& ei : cache.enabled()) {
      if (ei.connector != go0) continue;
      seen = true;
      ASSERT_EQ(ei.choices.size(), 2u);
      EXPECT_EQ(ei.choices[1], (std::vector<int>{0, 1}));
    }
    EXPECT_TRUE(seen);
  });
}

/// A coordinator on every worker's `go` connector, whose `tick` is an
/// action-free self-loop (or, with `counting`, a self-loop that counts).
System coordinated(int workers, bool counting) {
  auto w = std::make_shared<AtomicType>("W");
  const int idle = w->addLocation("idle");
  const int busy = w->addLocation("busy");
  const int go = w->addPort("go");
  const int back = w->addPort("back");
  w->addTransition(idle, go, busy);
  w->addTransition(busy, back, idle);
  w->setInitialLocation(idle);
  auto op = std::make_shared<AtomicType>("Op");
  const int l = op->addLocation("l");
  const int n = op->addVariable("n", 0);
  const int tick = op->addPort("tick");
  std::vector<Assign> count;
  if (counting) count.push_back(Assign{VarRef{0, n}, Expr::local(n) + Expr::lit(1)});
  op->addTransition(l, tick, Expr::top(), std::move(count), l);
  op->setInitialLocation(l);
  System sys;
  const int opIdx = sys.addInstance("op", op);
  for (int i = 0; i < workers; ++i) {
    const int wi = sys.addInstance("w" + std::to_string(i), w);
    sys.addConnector(rendezvous("go" + std::to_string(i), {PortRef{opIdx, tick}, PortRef{wi, go}}));
    sys.addConnector(rendezvous("back" + std::to_string(i), {PortRef{wi, back}}));
  }
  sys.validate();
  return sys;
}

/// Connectors built by the update after firing `go0` from the initial state.
std::uint64_t recomputesAfterFirstGo(const System& sys) {
  GlobalState g = initialState(sys);
  EnabledInteractionCache cache(sys);
  cache.reset(g);
  const EnabledInteraction go0 = cache.enabled().front();
  EXPECT_EQ(go0.connector, 0);
  executeDefault(sys, g, go0);
  const std::uint64_t before = obs::snapshot().counter("cache.recomputes");
  cache.updateAfterExecute(g, go0);
  EXPECT_EQ(cache.enabled(), enabledInteractions(sys, g));
  return obs::snapshot().counter("cache.recomputes") - before;
}

TEST(EnabledInteractionCache, StationaryCoordinatorIsSkipped) {
  if (!obs::enabled()) GTEST_SKIP() << "needs the obs counters";
  inBothModes([] {
    // Only w0 moved: its `back0` is built and `go0` is emptied unbuilt.
    // The coordinator's other `go_i` are not touched.
    EXPECT_EQ(recomputesAfterFirstGo(coordinated(4, false)), 1u);
    // A counting coordinator changes state, so all its connectors refresh.
    EXPECT_EQ(recomputesAfterFirstGo(coordinated(4, true)), 4u);
  });
}

TEST(EnabledInteractionCache, RaisingGuardOnUnconnectedPortNeverRuns) {
  // `side` divides by zero whenever evaluated; it is on no connector.
  const System sys = offerCases(2);
  inBothModes([&] {
    EnabledInteractionCache cache(sys);
    const GlobalState g = initialState(sys);
    EXPECT_NO_THROW(cache.reset(g));
    EXPECT_NO_THROW(static_cast<void>(enabledInteractions(sys, g)));
    crossCheck(sys, 3, 200);
  });
}

TEST(EnabledInteractionCache, SubsetAgreesWithFilteredScan) {
  // Every other connector, and the upper half: the instances at their ends
  // also sit on connectors outside the subset, whose steps dirty them.
  const System models[] = {models::philosophersAtomic(5), models::gasStation(2, 3),
                           models::producerConsumer(3), models::tokenRing(6), offerCases(3)};
  for (const System& sys : models) {
    std::vector<int> alternate;
    std::vector<int> upper;
    for (std::size_t ci = 0; ci < sys.connectorCount(); ++ci) {
      if (ci % 2 == 0) alternate.push_back(static_cast<int>(ci));
      if (2 * ci >= sys.connectorCount()) upper.push_back(static_cast<int>(ci));
    }
    inBothModes([&] {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        crossCheck(sys, seed, 200, nullptr, alternate);
        crossCheck(sys, seed, 200, nullptr, upper);
      }
    });
  }
  // The premise: some instance of the alternate subset is also on a
  // connector outside it.
  const System phil = models::philosophersAtomic(5);
  bool straddles = false;
  for (std::size_t i = 0; i < phil.instanceCount(); ++i) {
    bool in = false;
    bool out = false;
    for (const int ci : phil.connectorsOf(i)) (ci % 2 == 0 ? in : out) = true;
    straddles = straddles || (in && out);
  }
  EXPECT_TRUE(straddles);
}

TEST(EnabledInteractionCache, SubsetNeverEvaluatesInstancesOutsideIt) {
  // `k`'s `dec` guard divides by zero and `dec` is on a connector, so the
  // full cache raises. A cache over `tick` alone must never evaluate it,
  // even when `k` is reported dirty: the sharded engine's workers may read
  // only the instances on their own connectors.
  auto countdown = std::make_shared<AtomicType>("Countdown");
  const int l = countdown->addLocation("l");
  const int c = countdown->addVariable("c", 0);
  const int dec = countdown->addPort("dec");
  countdown->addTransition(l, dec, Expr::lit(10) / Expr::local(c) > Expr::lit(0), {}, l);
  countdown->setInitialLocation(l);
  auto ticker = std::make_shared<AtomicType>("Ticker");
  const int t = ticker->addLocation("t");
  const int tick = ticker->addPort("tick");
  ticker->addTransition(t, tick, t);
  ticker->setInitialLocation(t);
  System sys;
  const int k = sys.addInstance("k", countdown);
  const int o = sys.addInstance("o", ticker);
  sys.addConnector(rendezvous("dec", {PortRef{k, dec}}));
  const int tickCi = sys.addConnector(rendezvous("tick", {PortRef{o, tick}}));
  sys.validate();
  inBothModes([&] {
    const GlobalState g = initialState(sys);
    EnabledInteractionCache full(sys);
    EXPECT_THROW(full.reset(g), EvalError);
    EnabledInteractionCache cache(sys, {tickCi});
    EXPECT_NO_THROW(cache.reset(g));
    const std::vector<int> dirty = {k, o, k};
    EXPECT_NO_THROW(cache.update(g, dirty));
    ASSERT_EQ(cache.enabled().size(), 1u);
    EXPECT_EQ(cache.enabled().front().connector, tickCi);
    EXPECT_EQ(cache.span(0).size(), 1u);
  });
}

TEST(EnabledInteractionCache, RaisingGuardOnConnectedPortRaisesOnBothPaths) {
  // `dec` guards on 10 / c and counts c down from 3: the update after the
  // third fire must raise, and so must a from-scratch scan of that state.
  auto t = std::make_shared<AtomicType>("Countdown");
  const int l = t->addLocation("l");
  const int c = t->addVariable("c", 3);
  const int dec = t->addPort("dec");
  t->addTransition(l, dec, Expr::lit(10) / Expr::local(c) > Expr::lit(0),
                   {Assign{VarRef{0, c}, Expr::local(c) - Expr::lit(1)}}, l);
  t->setInitialLocation(l);
  System sys;
  const int inst = sys.addInstance("k", t);
  sys.addConnector(rendezvous("dec", {PortRef{inst, dec}}));
  sys.validate();
  inBothModes([&] {
    int raisedAt = -1;
    crossCheck(sys, 1, 10, &raisedAt);
    EXPECT_EQ(raisedAt, 3);
  });
}

TEST(EnabledInteractionCache, FirstEvalErrorFollowsPortMajorOrder) {
  // Two instances of one type, both ports on connectors. `a`'s port q
  // guard divides by zero and `b`'s port p guard takes a modulo by zero.
  // Port-major order runs every instance's port p before any port q, so
  // `b`'s error comes first; instance-major order would raise `a`'s.
  auto t = std::make_shared<AtomicType>("T");
  const int l = t->addLocation("l");
  const int x = t->addVariable("x", 1);
  const int y = t->addVariable("y", 1);
  const int p = t->addPort("p");
  const int q = t->addPort("q");
  t->addTransition(l, p, Expr::lit(10) % Expr::local(x) >= Expr::lit(0), {}, l);
  t->addTransition(l, q, Expr::lit(10) / Expr::local(y) >= Expr::lit(0), {}, l);
  t->setInitialLocation(l);
  System sys;
  const int a = sys.addInstance("a", t);
  const int b = sys.addInstance("b", t);
  for (const int inst : {a, b}) {
    for (const int port : {p, q}) {
      sys.addConnector(rendezvous("c" + std::to_string(inst) + std::to_string(port),
                                  {PortRef{inst, port}}));
    }
  }
  sys.validate();
  GlobalState g = initialState(sys);
  g.components[static_cast<std::size_t>(a)].vars[static_cast<std::size_t>(y)] = 0;
  g.components[static_cast<std::size_t>(b)].vars[static_cast<std::size_t>(x)] = 0;
  inBothModes([&] {
    EnabledInteractionCache cache(sys);
    std::string error;
    try {
      cache.reset(g);
    } catch (const EvalError& e) {
      error = e.what();
    }
    EXPECT_EQ(error, "modulo by zero");
  });
}

TEST(EnabledInteractionCache, ShortStateRaisesOnBothPaths) {
  // A component state with fewer variables than its type, under a guard
  // on a connected port that reads the missing variable.
  auto t = std::make_shared<AtomicType>("T");
  const int l = t->addLocation("l");
  t->addVariable("x", 0);
  const int y = t->addVariable("y", 1);
  const int p = t->addPort("p");
  t->addTransition(l, p, Expr::local(y) > Expr::lit(0), {}, l);
  t->setInitialLocation(l);
  System sys;
  const int inst = sys.addInstance("k", t);
  sys.addConnector(rendezvous("p", {PortRef{inst, p}}));
  sys.validate();
  GlobalState g = initialState(sys);
  g.components[static_cast<std::size_t>(inst)].vars.resize(1);
  inBothModes([&] {
    EnabledInteractionCache cache(sys);
    EXPECT_THROW(cache.reset(g), EvalError);
  });
}

TEST(TraceLabels, EveryEngineRendersEachFiredPairOnce) {
  // Each `cast` broadcasts to receivers that flip in and out of reach, so
  // it fires under several masks in one run, and runs never deadlock. The
  // two groups are disjoint, so K=2 shards keep each cast shard-local,
  // where the shard's policy picks its mask.
  auto sender = std::make_shared<AtomicType>("S");
  const int snd = sender->addPort("snd");
  sender->addTransition(sender->addLocation("l"), snd, 0);
  sender->setInitialLocation(0);
  auto receiver = std::make_shared<AtomicType>("R");
  const int in = receiver->addLocation("in");
  const int out = receiver->addLocation("out");
  const int rcv = receiver->addPort("rcv");
  const int flip = receiver->addPort("flip");
  receiver->addTransition(in, rcv, in);
  receiver->addTransition(in, flip, out);
  receiver->addTransition(out, flip, in);
  receiver->setInitialLocation(in);
  System sys;
  for (const std::string g : {"a", "b"}) {
    const int s = sys.addInstance("s" + g, sender);
    std::vector<PortRef> receivers;
    for (int i = 0; i < 3; ++i) {
      const int r = sys.addInstance("r" + g + std::to_string(i), receiver);
      receivers.push_back(PortRef{r, rcv});
      sys.addConnector(rendezvous("flip" + g + std::to_string(i), {PortRef{r, flip}}));
    }
    sys.addConnector(broadcast("cast" + g, PortRef{s, snd}, receivers));
  }
  sys.validate();
  RandomPolicy seqPolicy(5);
  RandomPolicy mtPolicy(5);
  SequentialEngine seq(sys, seqPolicy);
  MultiThreadEngine mt(sys, mtPolicy);
  shard::ShardedEngine sharded(sys, 2);
  sharded.defaultOptions().seed = 5;
  const std::vector<std::pair<Engine*, RandomPolicy*>> engines{
      {&seq, &seqPolicy}, {&mt, &mtPolicy}, {&sharded, nullptr}};
  EngineOptions options;
  options.maxSteps = 400;
  for (const auto& [engine, policy] : engines) {
    SCOPED_TRACE(engine->name());
    std::vector<std::string> firstLabels;
    for (const int run : {1, 2}) {
      SCOPED_TRACE(run);
      if (policy != nullptr) *policy = RandomPolicy(5);
      const std::uint64_t before = obs::snapshot().counter("trace.labels.rendered");
      const RunResult r = engine->run(options);
      const std::uint64_t rendered =
          obs::snapshot().counter("trace.labels.rendered") - before;
      ASSERT_EQ(r.trace.events.size(), options.maxSteps);
      std::set<std::pair<int, InteractionMask>> pairs;
      std::vector<int> masksOf(sys.connectorCount(), 0);
      for (const TraceEvent& e : r.trace.events) {
        EXPECT_EQ(e.label, interactionLabel(sys, e.connector, e.mask));
        if (pairs.emplace(e.connector, e.mask).second) {
          ++masksOf[static_cast<std::size_t>(e.connector)];
        }
      }
      EXPECT_GE(*std::max_element(masksOf.begin(), masksOf.end()), 2);
      if (run == 1) {
        firstLabels = r.trace.labels();
        if (obs::enabled()) {
          EXPECT_EQ(rendered, pairs.size());
        }
      } else {
        // Same seed, same engine: the same trace, rendered from the memo.
        EXPECT_EQ(r.trace.labels(), firstLabels);
        if (obs::enabled()) {
          EXPECT_EQ(rendered, 0u);
        }
      }
    }
  }
}

TEST(System, ConnectorsOfReverseIndex) {
  const System sys = models::philosophersAtomic(3);
  std::vector<std::vector<int>> expected(sys.instanceCount());
  for (std::size_t ci = 0; ci < sys.connectorCount(); ++ci) {
    for (const ConnectorEnd& e : sys.connector(ci).ends()) {
      std::vector<int>& list = expected[static_cast<std::size_t>(e.port.instance)];
      if (list.empty() || list.back() != static_cast<int>(ci)) {
        list.push_back(static_cast<int>(ci));
      }
    }
  }
  for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
    EXPECT_EQ(sys.connectorsOf(i), expected[i]) << "instance " << i;
  }
}

TEST(System, ConnectorsOfInvalidatedByMutation) {
  System sys = models::philosophersAtomic(2);
  const std::size_t before = sys.connectorsOf(0).size();
  // Adding a connector on instance 0 must show up in the reverse index.
  Connector extra("extra");
  extra.addSynchron(PortRef{0, 0});
  sys.addConnector(std::move(extra));
  EXPECT_EQ(sys.connectorsOf(0).size(), before + 1);
  EXPECT_THROW(static_cast<void>(sys.connectorsOf(sys.instanceCount())), ModelError);
}

}  // namespace
}  // namespace cbip
