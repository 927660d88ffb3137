// perfbench: end-to-end and per-layer benchmark of the cbip library.
//
// One process runs one workload (a model family at a fixed size) for a
// fixed wall-clock window, checks every output it times, and prints each
// metric by name with its unit. The last line of stdout is one JSON object
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {name: {"value": x, "unit": u}, ...}}
// holding the end-to-end metrics (--trace 0) or the per-layer rows
// (--trace 1). Everything else on stdout starts with "# ".
//
// The benchmark only calls the library's public functions (models, core,
// engine, shard, verify, obs). README.md explains the workloads, the
// layer -> end-to-end map and the fast-side estimator used below.

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/atomic.hpp"
#include "core/semantics.hpp"
#include "core/system.hpp"
#include "engine/engine.hpp"
#include "expr/compile.hpp"
#include "models/models.hpp"
#include "obs/obs.hpp"
#include "shard/engine_sharded.hpp"
#include "shard/partition.hpp"
#include "verify/dfinder.hpp"
#include "verify/incremental.hpp"
#include "verify/invariants.hpp"

namespace {

using namespace cbip;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kShards = 2;  // both workers share one vCPU, see CpuRotor

std::uint64_t nsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ---- estimators -------------------------------------------------------------

// Host interference only ever adds time, so the fast side of many identical
// slices estimates the program's own cost. The gated sample is the fastest
// order statistic that still has ten samples beyond it (index 10 of the
// ascending sort); with fewer than 21 samples that would lie past the
// median, so the median is used instead. Returns the sample's index, so a
// traced run can read the layer breakdown of that very slice.
std::size_t fastSideIndex(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return order[std::min<std::size_t>(10, (v.size() - 1) / 2)];
}

double fastSide(const std::vector<double>& v) { return v[fastSideIndex(v)]; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

// ---- host-speed probe and CPU rotation --------------------------------------

// A fixed ALU loop: its time says which host regime a run saw. Printed as
// information only.
double aluProbeMs() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 2'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(nsBetween(t0, Clock::now())) / 1e6;
}

// Moves the measuring thread to the next allowed CPU before each burst, so
// one run samples every vCPU instead of staying on one that a neighbour
// slows down. Threads inherit their creator's mask, so the sharded
// engine's workers share that one CPU too: on this class of host, waking a
// worker on another, idle vCPU costs more than a step and varies with the
// neighbours' load (see README.md). The program's behaviour is unchanged.
class CpuRotor {
 public:
  CpuRotor() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  void pinNext() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  void release() {
    if (cpus_.size() >= 2) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// ---- workloads --------------------------------------------------------------

// Engine slices are sized to a few milliseconds where the model allows:
// host interference on this class of machine arrives in bursts of a few
// milliseconds, so short slices often run clean and the fast side pins
// the program's cost. skewed cannot go below its ~25 ms engine start-up
// (initial settling and full enabled-set reset over 10^5 components).
struct Workload {
  const char* name;
  System (*build)();
  std::uint64_t seqSteps;     // steps per seq slice
  std::uint64_t traceSteps;   // steps per seq_trace slice (and traced step loop)
  std::uint64_t shardSteps;   // steps per sharded slice
  std::uint64_t oracleSteps;  // seq prefix replayed on the interpreter oracle
};

const Workload kWorkloads[] = {
    {"philo", [] { return models::philosophersAtomic(128); }, 1000, 500, 256, 2000},
    {"gas", [] { return models::gasStation(16, 16); }, 250, 200, 256, 2000},
    {"prodcons", [] { return models::producerConsumer(256); }, 800, 600, 256, 4000},
    {"skewed", [] { return models::skewedPairs(50000, 6250, 4); }, 10000, 10000, 16, 2000},
};

verify::DFinderOptions serialVerify() {
  verify::DFinderOptions options;
  options.workers = 1;
  return options;
}

// Set-up part times, ms; they sum to totalS.
struct SetupTimes {
  double buildMs = 0, warmMs = 0, seqCtorMs = 0, partitionMs = 0, shardCtorMs = 0,
         verifierCtorMs = 0, totalS = 0;
};

// Everything a workload's timed slices need, built in the order a user
// would: model, warmed indices, every engine (including partitioning), the
// incremental verifier. Never moved once built (the engines hold pointers
// into it).
struct Setup {
  System system;
  RandomPolicy policy{0};
  std::unique_ptr<SequentialEngine> seq;
  std::optional<shard::Partition> partition;
  std::unique_ptr<shard::ShardedEngine> sharded;
  std::unique_ptr<verify::IncrementalVerifier> verifier;
  SetupTimes times;
};

std::unique_ptr<Setup> setUp(const Workload& w) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  s->system = w.build();
  const auto t1 = Clock::now();
  s->system.warmIndices();
  const auto t2 = Clock::now();
  s->seq = std::make_unique<SequentialEngine>(s->system, s->policy);  // validates
  const auto t3 = Clock::now();
  shard::PartitionOptions po;
  po.shards = kShards;
  s->partition.emplace(shard::partitionSystem(s->system, po));
  const auto t4 = Clock::now();
  s->sharded = std::make_unique<shard::ShardedEngine>(s->system, *s->partition);
  const auto t5 = Clock::now();
  s->verifier = std::make_unique<verify::IncrementalVerifier>(s->system, serialVerify());
  const auto t6 = Clock::now();
  const auto ms = [](Clock::time_point a, Clock::time_point b) {
    return static_cast<double>(nsBetween(a, b)) / 1e6;
  };
  s->times = SetupTimes{ms(t0, t1), ms(t1, t2), ms(t2, t3), ms(t3, t4),
                        ms(t4, t5), ms(t5, t6), ms(t0, t6) / 1e3};
  return s;
}

// ---- output -----------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

class Report {
 public:
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("# CHECK FAILED: %s\n", what.c_str());
    }
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  void info(const std::string& line) { std::printf("# %s\n", line.c_str()); }

  void finish() const {
    std::printf("# failed_ops %llu / %llu = %.6g\n", static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_),
                attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                           : 0.0);
    for (const auto& [name, m] : metrics_) {
      std::printf("# %-32s %18.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
              m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, Metric> metrics_;
};

// ---- timed tasks ------------------------------------------------------------

// One slice of identical work: same start state, same seed. `ns` covers
// only the library call(s); checks run after the clock stops.
struct Slice {
  std::uint64_t ns = 0;
  std::uint64_t ops = 0;  // steps, calls or edits the slice performed
  bool ok = true;
};

struct Task {
  std::string name;
  double cost;  // scheduling weight, see runWindow
  std::function<Slice()> run;
  std::vector<double> nsPerOp;  // one entry per slice
  std::uint64_t spentNs = 0;
};

// Interleaves bursts of every task across the whole window so each task's
// samples span the window's host regimes. The next burst goes to the task
// with the least (time spent x slices taken x cost): each task's share of
// the window grows with the square root of its slice length over its cost,
// so long operations get more samples while short ones still get hundreds. A
// burst repeats slices of one task on one CPU for about kBurstNs, so most
// samples start with warm caches. Every task runs
// at least kMinSlices times.
constexpr std::uint64_t kBurstNs = 20'000'000;
constexpr std::size_t kMinSlices = 3;
// Set-up is the longest task on prodcons (~40 ms): a cost of 9 cuts its
// share of the window to a third of what its length alone would give.
constexpr double kSetupCost = 9;

void runWindow(std::vector<Task>& tasks, double seconds, CpuRotor& rotor, Report& report) {
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  const auto key = [](const Task& t) {
    return static_cast<double>(t.spentNs) * static_cast<double>(t.nsPerOp.size()) * t.cost;
  };
  for (;;) {
    Task* next = &tasks.front();
    for (Task& t : tasks) {
      if (key(t) < key(*next)) next = &t;
    }
    bool starving = false;
    for (const Task& t : tasks) starving = starving || t.nsPerOp.size() < kMinSlices;
    if (!starving && Clock::now() >= deadline) break;
    rotor.pinNext();
    for (std::uint64_t burstNs = 0; burstNs < kBurstNs;) {
      const Slice s = next->run();
      report.check(s.ok && s.ops > 0, next->name + " slice output");
      next->spentNs += s.ns;
      burstNs += s.ns;
      next->nsPerOp.push_back(static_cast<double>(s.ns) /
                              static_cast<double>(std::max<std::uint64_t>(s.ops, 1)));
    }
  }
}

// ---- engine slices ----------------------------------------------------------

// `refHash` holds the final-state hash of the task's first slice; every
// later slice must reproduce it.
Slice seqSlice(Setup& s, std::uint64_t seed, std::uint64_t steps, bool trace,
               std::optional<std::uint64_t>& refHash) {
  s.policy = RandomPolicy(seed);
  RunOptions o;
  o.maxSteps = steps;
  o.recordTrace = trace;
  const auto t0 = Clock::now();
  const RunResult r = s.seq->run(o);
  const auto t1 = Clock::now();
  const std::uint64_t h = hashState(r.finalState);
  if (!refHash) refHash = h;
  const bool ok = r.reason == StopReason::kStepLimit && r.steps == steps && h == *refHash &&
                  (!trace || r.trace.events.size() == steps);
  return Slice{nsBetween(t0, t1), r.steps, ok};
}

Slice shardedSlice(Setup& s, std::uint64_t seed, std::uint64_t steps,
                   std::optional<std::uint64_t>& refHash, shard::ShardedStats* statsOut) {
  shard::ShardedOptions o;
  o.maxSteps = steps;
  o.recordTrace = false;
  o.seed = seed;
  const auto t0 = Clock::now();
  const RunResult r = s.sharded->run(o);
  const auto t1 = Clock::now();
  const shard::ShardedStats& st = s.sharded->lastRunStats();
  std::uint64_t shardSum = 0;
  for (const auto& sh : st.shards) shardSum += sh.steps;
  const std::uint64_t h = hashState(r.finalState);
  if (!refHash) refHash = h;
  const bool ok = r.reason == StopReason::kStepLimit && r.steps == steps &&
                  st.steps == r.steps && shardSum == st.steps && h == *refHash;
  if (statsOut != nullptr) *statsOut = st;
  // Online rebalancing migrates components inside the engine; start the
  // next slice from the original partition so every slice is identical.
  if (st.componentsMoved > 0) {
    s.sharded = std::make_unique<shard::ShardedEngine>(s.system, *s.partition);
  }
  return Slice{nsBetween(t0, t1), r.steps, ok};
}

// The benchmark's own step loop, built from public calls with a clock read
// at each layer boundary. Mirrors SequentialEngine::run with trace
// recording on; the traced run checks it reproduces the engine's final
// state and step count.
struct StepBreakdown {
  std::uint64_t resetNs = 0;   // initial tau settling + full cache reset
  std::uint64_t pickNs = 0;    // priority filter + policy pick + copy-out
  std::uint64_t executeNs = 0;
  std::uint64_t updateNs = 0;  // EnabledInteractionCache::updateAfterExecute
  std::uint64_t labelNs = 0;   // interactionLabel + trace append
  std::uint64_t wallNs = 0;
  std::uint64_t steps = 0;
  std::uint64_t enabledSum = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t tryfireCalls = 0;
  std::uint64_t tryfireHits = 0;
  std::uint64_t hash = 0;
};

StepBreakdown tracedSteps(const System& system, std::uint64_t seed, std::uint64_t maxSteps) {
  StepBreakdown b;
  RandomPolicy policy(seed);
  Trace trace;
  const bool mustFilter = system.maximalProgress() || !system.priorities().empty();
  std::vector<EnabledInteraction> filtered;
  const obs::Snapshot before = obs::snapshot();
  const auto w0 = Clock::now();
  GlobalState state = initialState(system);
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    runInternal(*system.instance(i).type, state.components[i]);
  }
  EnabledInteractionCache cache(system);
  cache.reset(state);
  b.resetNs = nsBetween(w0, Clock::now());
  for (std::uint64_t step = 0; step < maxSteps; ++step) {
    const auto t0 = Clock::now();
    const std::vector<EnabledInteraction>* enabled = &cache.enabled();
    if (enabled->empty()) break;
    b.enabledSum += enabled->size();
    if (mustFilter) {
      filtered = applyPriorities(system, state, *enabled);
      enabled = &filtered;
    }
    const auto [idx, choice] = policy.pick(system, state, *enabled);
    const EnabledInteraction ei = (*enabled)[idx];
    const auto t1 = Clock::now();
    execute(system, state, ei, choice);
    const auto t2 = Clock::now();
    cache.updateAfterExecute(state, ei);
    const auto t3 = Clock::now();
    trace.events.push_back(TraceEvent{step, ei.connector, ei.mask, interactionLabel(system, ei)});
    const auto t4 = Clock::now();
    b.pickNs += nsBetween(t0, t1);
    b.executeNs += nsBetween(t1, t2);
    b.updateNs += nsBetween(t2, t3);
    b.labelNs += nsBetween(t3, t4);
    ++b.steps;
  }
  b.wallNs = nsBetween(w0, Clock::now());
  const obs::Snapshot after = obs::snapshot();
  const auto delta = [&](const char* name) { return after.counter(name) - before.counter(name); };
  b.recomputes = delta("cache.recomputes");
  b.tryfireCalls = delta("vm.tryfire.calls");
  b.tryfireHits = delta("vm.tryfire.hits");
  b.hash = hashState(state);
  return b;
}

// ---- verification slices ----------------------------------------------------

Slice certifySlice(const Setup& s) {
  const verify::DFinderOptions options = serialVerify();
  const auto t0 = Clock::now();
  const verify::DFinderVerdict verdict = verify::checkDeadlockFreedom(s.system, options).verdict;
  const auto t1 = Clock::now();
  return Slice{nsBetween(t0, t1), 1, verdict == verify::DFinderVerdict::kDeadlockFree};
}

struct CertifyBreakdown {
  std::uint64_t invariantsNs = 0, netNs = 0, refineNs = 0, wallNs = 0;
  std::uint64_t rounds = 0, trapQueries = 0, traps = 0;
  std::uint64_t satSolves = 0, satDecisions = 0, satConflicts = 0, satPropagations = 0;
  bool certified = false;
};

// checkDeadlockFreedom split at its public seams: component invariants,
// interaction net, refinement (SAT + trap queries) over the prebuilt net.
CertifyBreakdown tracedCertify(const System& system) {
  const verify::DFinderOptions options = serialVerify();
  CertifyBreakdown b;
  const obs::Snapshot before = obs::snapshot();
  const auto t0 = Clock::now();
  {
    std::vector<verify::ComponentInvariant> invs = verify::componentInvariants(system, options);
    const auto t1 = Clock::now();
    const verify::InteractionNet net = verify::buildInteractionNet(system, invs);
    const auto t2 = Clock::now();
    const verify::DFinderResult r =
        verify::checkDeadlockFreedomWith(system, std::move(invs), {}, options, &net);
    const auto t3 = Clock::now();
    b.invariantsNs = nsBetween(t0, t1);
    b.netNs = nsBetween(t1, t2);
    b.refineNs = nsBetween(t2, t3);
    b.certified = r.verdict == verify::DFinderVerdict::kDeadlockFree;
  }
  b.wallNs = nsBetween(t0, Clock::now());
  const obs::Snapshot after = obs::snapshot();
  const auto delta = [&](const char* name) { return after.counter(name) - before.counter(name); };
  b.rounds = delta("dfinder.rounds");
  b.trapQueries = delta("dfinder.trap.queries");
  b.traps = delta("dfinder.traps");
  b.satSolves = delta("sat.solves");
  b.satDecisions = delta("sat.decisions");
  b.satConflicts = delta("sat.conflicts");
  b.satPropagations = delta("sat.propagations");
  return b;
}

// Trap bookkeeping of one remove + re-add cycle: kept, rechecked, dropped
// and new traps of the removal, then of the re-add.
using TrapCounts = std::array<std::size_t, 8>;

// Removes the last connector and adds it back: two edits. The removal
// verdict must equal a from-scratch check of the edited system, the
// re-added system must certify, and the cycle must do the trap work in
// `refCounts` (taken from this cycle when empty), which shows the cycles
// are identical.
Slice recertifySlice(Setup& s, verify::DFinderVerdict removedVerdict, const Connector& edited,
                     std::optional<TrapCounts>& refCounts,
                     verify::IncrementalVerifier::StepResult* added) {
  const std::size_t last = s.system.connectorCount() - 1;
  const auto t0 = Clock::now();
  const auto removed = s.verifier->removeConnector(last);
  *added = s.verifier->addConnector(edited);
  const auto t1 = Clock::now();
  const TrapCounts counts{removed.trapsKept, removed.trapsRechecked, removed.trapsDropped,
                          removed.trapsNew,  added->trapsKept,      added->trapsRechecked,
                          added->trapsDropped, added->trapsNew};
  if (!refCounts) refCounts = counts;
  const bool ok = removed.verdict == removedVerdict &&
                  added->verdict == verify::DFinderVerdict::kDeadlockFree && counts == *refCounts;
  return Slice{nsBetween(t0, t1), 2, ok};
}

// ---- main -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload philo|gas|prodcons|skewed "
               "--seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// Peak resident set of this process image. VmHWM restarts at exec, unlike
// getrusage's ru_maxrss, which keeps the launching process's peak.
double peakRssMiB() {
  long kib = -1;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (kib <= 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

int run(const Args& args) {
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) usage(("unknown workload '" + args.workload + "'").c_str());
  const Workload& w = *wp;
  Report report;
  CpuRotor rotor;
  report.info("workload " + args.workload + " seed " + std::to_string(args.seed) +
              " seconds " + fmt("%g", args.seconds) + " trace " + (args.trace ? "1" : "0") +
              " (baseline seed 1, held-out seed 2)");
  std::vector<double> probe;
  for (int i = 0; i < 5; ++i) probe.push_back(aluProbeMs());

  // The fixture every timed slice runs on. Set-up itself is timed as a task
  // of the window below, on fresh copies.
  std::unique_ptr<Setup> s = setUp(w);

  // Output checks outside any timed slice.
  {
    // A seq prefix must end in the interpreter oracle's final state.
    RunOptions o;
    o.maxSteps = w.oracleSteps;
    o.recordTrace = false;
    s->policy = RandomPolicy(args.seed);
    const RunResult compiled = s->seq->run(o);
    expr::setCompilationEnabled(false);
    s->policy = RandomPolicy(args.seed);
    const RunResult oracle = s->seq->run(o);
    expr::setCompilationEnabled(true);
    report.check(compiled.reason == StopReason::kStepLimit && compiled.steps == w.oracleSteps &&
                     compiled.steps == oracle.steps && compiled.finalState == oracle.finalState,
                 "seq prefix vs interpreter oracle");
  }
  // The recertify removal verdict, from scratch.
  const Connector edited = s->system.connector(s->system.connectorCount() - 1);
  verify::DFinderVerdict removedVerdict;
  {
    System cut = s->system;
    cut.removeConnector(cut.connectorCount() - 1);
    removedVerdict = verify::checkDeadlockFreedom(cut, serialVerify()).verdict;
  }
  // Warm-up edit cycles: the re-checks discover traps until one cycle does
  // the same trap work as the one before (the third cycle on philo). Its
  // counts are the reference every timed cycle must repeat.
  verify::IncrementalVerifier::StepResult lastAdd;
  std::optional<TrapCounts> recertRef;
  {
    bool repeating = false;
    for (int i = 0; i < 8 && !repeating; ++i) {
      std::optional<TrapCounts> cycle;
      report.check(recertifySlice(*s, removedVerdict, edited, cycle, &lastAdd).ok,
                   "recertify warm-up");
      repeating = cycle == recertRef;
      recertRef = cycle;
    }
    report.check(repeating, "recertify warm-up reaches a repeating cycle");
  }

  std::optional<std::uint64_t> seqRef, traceRef, shardRef;
  std::vector<Task> tasks;
  const auto addTask = [&](std::string name, std::function<Slice()> fn,
                           double cost = 1) {
    tasks.push_back(Task{std::move(name), cost, std::move(fn), {}, 0});
  };
  const std::uint64_t seed = args.seed;
  std::vector<SetupTimes> setups;
  std::vector<StepBreakdown> steps;
  std::vector<shard::ShardedStats> shardStats;
  std::vector<CertifyBreakdown> certs;

  // A fresh set-up must match the fixture; it is destroyed after timing.
  addTask("setup", [&] {
    const std::unique_ptr<Setup> fresh = setUp(w);
    setups.push_back(fresh->times);
    const bool ok = fresh->system.instanceCount() == s->system.instanceCount() &&
                    fresh->system.connectorCount() == s->system.connectorCount() &&
                    fresh->partition->assignment() == s->partition->assignment();
    return Slice{static_cast<std::uint64_t>(fresh->times.totalS * 1e9), 1, ok};
  }, kSetupCost);
  addTask("seq_trace", [&] { return seqSlice(*s, seed, w.traceSteps, true, traceRef); });
  addTask("recertify",
          [&] { return recertifySlice(*s, removedVerdict, edited, recertRef, &lastAdd); });
  if (!args.trace) {
    addTask("seq", [&] { return seqSlice(*s, seed, w.seqSteps, false, seqRef); });
    addTask("sharded", [&] { return shardedSlice(*s, seed, w.shardSteps, shardRef, nullptr); });
    addTask("certify", [&] { return certifySlice(*s); });
  } else {
    // The engine's own result for the traced loop to reproduce.
    s->policy = RandomPolicy(seed);
    RunOptions o;
    o.maxSteps = w.traceSteps;
    o.recordTrace = false;
    const RunResult engineRef = s->seq->run(o);
    const std::uint64_t engineHash = hashState(engineRef.finalState);
    addTask("step", [&, engineHash, engineSteps = engineRef.steps] {
      StepBreakdown b = tracedSteps(s->system, seed, w.traceSteps);
      steps.push_back(b);
      return Slice{b.wallNs, b.steps, b.steps == engineSteps && b.hash == engineHash};
    });
    addTask("sharded", [&] {
      shard::ShardedStats st;
      const Slice sl = shardedSlice(*s, seed, w.shardSteps, shardRef, &st);
      shardStats.push_back(st);
      return sl;
    });
    addTask("certify", [&] {
      CertifyBreakdown b = tracedCertify(s->system);
      certs.push_back(b);
      return Slice{b.wallNs, 1, b.certified};
    });
  }
  runWindow(tasks, args.seconds, rotor, report);
  rotor.release();
  for (int i = 0; i < 5; ++i) probe.push_back(aluProbeMs());

  std::map<std::string, const Task*> byName;
  for (const Task& t : tasks) {
    byName[t.name] = &t;
    report.info(t.name + fmt(": %.0f slices, fast-side %.1f ns/op, median %.1f ns/op",
                             static_cast<double>(t.nsPerOp.size()), fastSide(t.nsPerOp),
                             median(t.nsPerOp)));
  }
  report.info(fmt("host.alu_probe_ms min %.3f median %.3f max %.3f (information only)",
                  *std::min_element(probe.begin(), probe.end()), median(probe),
                  *std::max_element(probe.begin(), probe.end())));
  const auto perSecond = [&](const char* task) { return 1e9 / fastSide(byName[task]->nsPerOp); };
  const auto millis = [&](const char* task) { return fastSide(byName[task]->nsPerOp) / 1e6; };

  if (!args.trace) {
    report.set("setup_s", millis("setup") / 1e3, "s");
    report.set("seq.steps_per_s", perSecond("seq"), "steps/s");
    report.set("seq_trace.steps_per_s", perSecond("seq_trace"), "steps/s");
    report.set("sharded.steps_per_s", perSecond("sharded"), "steps/s");
    report.set("certify_ms", millis("certify"), "ms");
    report.set("recertify_ms", millis("recertify"), "ms");
    report.set("peak_rss_mb", peakRssMiB(), "MiB");
    report.finish();
    return 0;
  }

  // ---- per-layer rows (traced run) ----
  // Each breakdown is that of the sample the fast-side estimator picks, so
  // its rows sum to that sample's time.
  const SetupTimes& st0 = setups[fastSideIndex(byName["setup"]->nsPerOp)];
  report.set("models.build_ms", st0.buildMs, "ms");
  report.set("core.warm_ms", st0.warmMs, "ms");
  report.set("engine.ctor_ms", st0.seqCtorMs, "ms");
  report.set("shard.partition_ms", st0.partitionMs, "ms");
  report.set("shard.ctor_ms", st0.shardCtorMs, "ms");
  report.set("verify.ctor_ms", st0.verifierCtorMs, "ms");

  // Step layers, per step.
  const Task& stepTask = *byName["step"];
  const StepBreakdown& b = steps[fastSideIndex(stepTask.nsPerOp)];
  const double n = static_cast<double>(b.steps);
  const std::uint64_t named = b.resetNs + b.pickNs + b.executeNs + b.updateNs + b.labelNs;
  report.set("core.cache_reset_ns", static_cast<double>(b.resetNs) / n, "ns");
  report.set("engine.pick_ns", static_cast<double>(b.pickNs) / n, "ns");
  report.set("core.execute_ns", static_cast<double>(b.executeNs) / n, "ns");
  report.set("core.cache_update_ns", static_cast<double>(b.updateNs) / n, "ns");
  report.set("engine.label_ns", static_cast<double>(b.labelNs) / n, "ns");
  report.set("engine.unattributed_ns", static_cast<double>(b.wallNs - named) / n, "ns");
  report.set("engine.traced_step_ns", static_cast<double>(b.wallNs) / n, "ns");
  report.set("core.enabled_per_step", static_cast<double>(b.enabledSum) / n, "count");
  report.set("core.recomputes_per_step", static_cast<double>(b.recomputes) / n, "count");
  report.set("expr.tryfire_calls_per_step", static_cast<double>(b.tryfireCalls) / n, "count");
  report.set("expr.tryfire_hit_ratio",
             b.tryfireCalls ? static_cast<double>(b.tryfireHits) / b.tryfireCalls : 0.0, "ratio");
  const double untracedStepNs = fastSide(byName["seq_trace"]->nsPerOp);
  const double tracedStepNs = fastSide(stepTask.nsPerOp);
  report.set("engine.tracing_overhead_ratio", tracedStepNs / untracedStepNs, "ratio");
  report.info(fmt("tracing overhead: traced step loop %.1f ns/step vs SequentialEngine "
                  "(recordTrace) %.1f ns/step: %+.1f%%",
                  tracedStepNs, untracedStepNs, 100.0 * (tracedStepNs / untracedStepNs - 1)));
  report.info(fmt("seq step attributed to named layers: %.1f%%",
                  100.0 * static_cast<double>(named) / static_cast<double>(b.wallNs)));

  // Shard phases: summed over shards, per step, of the fast-side slice.
  const shard::ShardedStats& st = shardStats[fastSideIndex(byName["sharded"]->nsPerOp)];
  std::uint64_t plan = 0, cross = 0, local = 0, idle = 0, lockWait = 0, granted = 0, unused = 0;
  for (const auto& sh : st.shards) {
    plan += sh.planNs;
    cross += sh.crossNs;
    local += sh.localNs;
    idle += sh.idleNs;
    lockWait += sh.lockWaitNs;
    granted += sh.quotaGranted;
    unused += sh.quotaUnused;
  }
  const double sn = static_cast<double>(st.steps);
  report.set("shard.plan_ns", static_cast<double>(plan) / sn, "ns");
  report.set("shard.cross_ns", static_cast<double>(cross) / sn, "ns");
  report.set("shard.local_ns", static_cast<double>(local) / sn, "ns");
  report.set("shard.idle_ns", static_cast<double>(idle) / sn, "ns");
  report.set("shard.lock_wait_ns", static_cast<double>(lockWait) / sn, "ns");
  report.set("shard.epochs_per_step", static_cast<double>(st.epochs) / sn, "count");
  report.set("shard.quota_unused_frac",
             granted ? static_cast<double>(unused) / static_cast<double>(granted) : 0.0, "ratio");
  report.set("shard.cross_accept_ratio",
             st.crossCandidates
                 ? static_cast<double>(st.crossAccepted) / static_cast<double>(st.crossCandidates)
                 : 0.0,
             "ratio");
  report.set("shard.steal_events", static_cast<double>(st.stealEvents), "count");
  report.set("shard.components_moved", static_cast<double>(st.componentsMoved), "count");

  // Certification phases of the fast-side certify slice.
  const CertifyBreakdown& c = certs[fastSideIndex(byName["certify"]->nsPerOp)];
  const std::uint64_t cnamed = c.invariantsNs + c.netNs + c.refineNs;
  report.set("verify.invariants_ms", static_cast<double>(c.invariantsNs) / 1e6, "ms");
  report.set("verify.net_ms", static_cast<double>(c.netNs) / 1e6, "ms");
  report.set("verify.refine_ms", static_cast<double>(c.refineNs) / 1e6, "ms");
  report.set("verify.unattributed_ms", static_cast<double>(c.wallNs - cnamed) / 1e6, "ms");
  report.set("verify.rounds", static_cast<double>(c.rounds), "count");
  report.set("verify.trap_queries", static_cast<double>(c.trapQueries), "count");
  report.set("verify.trap_yield",
             c.trapQueries ? static_cast<double>(c.traps) / static_cast<double>(c.trapQueries)
                           : 0.0,
             "ratio");
  report.set("sat.solves", static_cast<double>(c.satSolves), "count");
  report.set("sat.decisions", static_cast<double>(c.satDecisions), "count");
  report.set("sat.conflicts", static_cast<double>(c.satConflicts), "count");
  report.set("sat.propagations", static_cast<double>(c.satPropagations), "count");
  report.info(fmt("certify attributed to named layers: %.1f%%",
                  100.0 * static_cast<double>(cnamed) / static_cast<double>(c.wallNs)));
  report.set("verify.recert_traps_kept", static_cast<double>(lastAdd.trapsKept), "count");
  report.set("verify.recert_traps_rechecked", static_cast<double>(lastAdd.trapsRechecked),
             "count");
  report.set("verify.recert_traps_dropped", static_cast<double>(lastAdd.trapsDropped), "count");
  report.set("verify.recert_traps_new", static_cast<double>(lastAdd.trapsNew), "count");
  report.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
