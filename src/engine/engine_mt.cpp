#include "engine/engine_mt.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cbip {

namespace {

// Telemetry (src/obs): counts only, never steers.
const obs::Counter g_mtSteps("engine.mt.steps");
const obs::Histogram g_mtBatchSize("engine.mt.batch_size");

/// One worker thread per component instance. The worker owns the mutable
/// AtomicState; the engine only ever sees copies it reports back. A
/// command's variables, the working state and the snapshots all pass
/// through buffers that are copy-assigned in place, so once they have
/// reached their sizes a step allocates nothing.
class Worker {
 public:
  Worker(const AtomicType& type, AtomicState initial, std::uint64_t grain)
      : type_(&type), state_(std::move(initial)), grain_(grain) {
    runInternal(*type_, state_);
    thread_ = std::jthread([this](std::stop_token st) { loop(st); });
  }

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Stops the thread and joins it (after any in-flight command) — also
  /// when the engine unwinds from an EvalError mid-run.
  ~Worker() { stop(); }

  /// Copies the worker's state into `out`; only called by the engine when
  /// no command is in flight for this worker. Rethrows the exception the
  /// last command raised (an EvalError in an action or a tau divergence),
  /// so it surfaces from MultiThreadEngine::run instead of escaping the
  /// worker thread.
  void snapshot(AtomicState& out) {
    const std::scoped_lock lock(mutex_);
    if (error_) std::rethrow_exception(error_);
    out = state_;
  }

  /// Fires global transition `transition` of the type on the worker
  /// thread, starting from the component variables after the connector's
  /// "down" transfer.
  void dispatch(int transition, std::span<const Value> varsAfterDown) {
    {
      const std::scoped_lock lock(mutex_);
      require(!pending_ && !busy_, "Worker: command already in flight");
      // work_ is the worker thread's only while busy_, so it is filled here.
      transition_ = transition;
      work_.location = state_.location;
      work_.vars.assign(varsAfterDown.begin(), varsAfterDown.end());
      pending_ = true;
    }
    cv_.notify_all();
  }

  /// Blocks until the last dispatched command finished.
  void wait() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return !pending_ && !busy_; });
  }

  void stop() {
    {
      // Under the lock, so the worker cannot test its wait predicate
      // between the request and the notify and miss both.
      const std::scoped_lock lock(mutex_);
      thread_.request_stop();
    }
    cv_.notify_all();
  }

 private:
  void loop(const std::stop_token& st) {
    while (true) {
      int transition = 0;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this, &st] { return pending_ || st.stop_requested(); });
        if (!pending_) return;  // stop requested
        pending_ = false;
        busy_ = true;
        transition = transition_;
      }
      // Execute outside the lock: this is the parallel section. An
      // exception is parked for snapshot() to rethrow on the engine
      // thread; the state keeps its pre-command value.
      std::exception_ptr error;
      try {
        fire(*type_, work_, transition);
        runInternal(*type_, work_);
        spin();
      } catch (...) {
        error = std::current_exception();
      }
      {
        const std::scoped_lock lock(mutex_);
        if (error) {
          error_ = error;
        } else {
          std::swap(state_, work_);  // the old state's storage serves the next command
        }
        busy_ = false;
      }
      cv_.notify_all();
    }
  }

  void spin() const {
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < grain_; ++i) sink = sink + i;
  }

  const AtomicType* type_;
  AtomicState state_;
  AtomicState work_;  // the command's working state
  std::uint64_t grain_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int transition_ = 0;
  bool pending_ = false;  // a dispatched command waits for the worker
  bool busy_ = false;
  std::exception_ptr error_;
  std::jthread thread_;
};

}  // namespace

MultiThreadEngine::MultiThreadEngine(const System& system, SchedulingPolicy& policy)
    : system_(&system), policy_(&policy) {
  system.validate();
  // Warm every lazy index and program while still single-threaded: run()
  // only evaluates them from the engine thread, but the build must not
  // race with a concurrently constructed sibling engine sharing the
  // System. Compiled programs are skipped when the interpreter escape
  // hatch is active: that path must not depend on the compiler building.
  system.warmIndices();
}

RunResult MultiThreadEngine::run(const EngineOptions& options) {
  MtOptions full = defaults_;
  static_cast<EngineOptions&>(full) = options;
  return run(full);
}

RunResult MultiThreadEngine::run(const MtOptions& options) {
  stats_ = RunStats{};
  const auto wall0 = std::chrono::steady_clock::now();
  const System& system = *system_;
  const std::size_t n = system.instanceCount();

  // Compilation may have been switched on after construction (the
  // differential tests toggle it): re-warm now, while still
  // single-threaded, so workers only ever read.
  system.warmIndices();
  require(system.indicesWarm(), "MultiThreadEngine: indices must be warm before workers start");

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers.push_back(std::make_unique<Worker>(
        *system.instance(i).type, initialState(*system.instance(i).type), options.workGrain));
  }

  const bool hasPriorities = system.maximalProgress() || !system.priorities().empty();
  const std::size_t maxBatch =
      hasPriorities ? 1 : (options.maxBatch == 0 ? n : options.maxBatch);

  RunResult result;
  GlobalState snapshot;
  snapshot.components.resize(n);
  for (std::size_t i = 0; i < n; ++i) workers[i]->snapshot(snapshot.components[i]);

  EnabledInteractionCache cache(system);
  cache.reset(snapshot);

  // Per-cycle buffers, reused so that elements keep their storage: the
  // enabled set's copy (the batch [0, chosen), then the candidates left),
  // the batch's transition choices, and the instances a batch touches.
  std::vector<EnabledInteraction> pool;
  std::vector<std::vector<int>> choices;
  std::vector<bool> used(n);
  std::vector<int> dispatched;

  std::uint64_t executed = 0;
  result.reason = StopReason::kStepLimit;
  while (executed < options.maxSteps) {
    // One scheduling cycle (RunStats::scanRounds): scan, pick a batch,
    // dispatch, re-synchronize.
    ++stats_.scanRounds;
    const std::span<const EnabledInteraction> cached = cache.enabled();
    if (cached.empty()) {
      result.reason = StopReason::kDeadlock;
      break;
    }
    // Batch selection reorders the set, so it works on a copy.
    if (pool.size() < cached.size()) pool.resize(cached.size());
    std::copy(cached.begin(), cached.end(), pool.begin());
    std::size_t live = cached.size();
    if (hasPriorities) {
      pool.resize(live);
      pool = applyPriorities(system, snapshot, std::move(pool));
      live = pool.size();
    }

    // Select a batch of pairwise-independent interactions: move each pick
    // to the end of the batch [0, chosen), then drop, in order, the
    // candidates after it that share an instance with it. The footprint of
    // an interaction is every end of its connector (guards may read
    // non-participating ends).
    const auto footprint = [&](std::size_t k) -> const std::vector<ConnectorEnd>& {
      return system.connector(static_cast<std::size_t>(pool[k].connector)).ends();
    };
    std::fill(used.begin(), used.end(), false);
    std::size_t chosen = 0;
    while (chosen < live && chosen < maxBatch && executed + chosen < options.maxSteps) {
      const auto [idx, choice] = policy_->pick(
          system, snapshot, std::span(pool).subspan(chosen, live - chosen));
      require(idx < live - chosen, "SchedulingPolicy returned out-of-range interaction");
      for (std::size_t k = chosen + idx; k > chosen; --k) swap(pool[k], pool[k - 1]);
      if (choices.size() == chosen) choices.emplace_back();
      choices[chosen].assign(choice.begin(), choice.end());
      for (const ConnectorEnd& e : footprint(chosen)) {
        used[static_cast<std::size_t>(e.port.instance)] = true;
      }
      std::size_t kept = ++chosen;
      for (std::size_t k = chosen; k < live; ++k) {
        if (std::none_of(footprint(k).begin(), footprint(k).end(), [&](const ConnectorEnd& e) {
              return used[static_cast<std::size_t>(e.port.instance)];
            })) {
          swap(pool[kept++], pool[k]);
        }
      }
      live = kept;
    }
    g_mtSteps.add(chosen);
    g_mtBatchSize.observe(static_cast<std::int64_t>(chosen));

    // Connector data transfer centrally, then parallel dispatch.
    dispatched.clear();
    for (std::size_t b = 0; b < chosen; ++b) {
      const EnabledInteraction& ei = pool[b];
      const Connector& c = system.connector(static_cast<std::size_t>(ei.connector));
      connectorTransfer(system, snapshot, ei);
      for (std::size_t k = 0; k < ei.ends.size(); ++k) {
        const ConnectorEnd& end = c.end(static_cast<std::size_t>(ei.ends[k]));
        const int inst = end.port.instance;
        const int transition = ei.choices[k][static_cast<std::size_t>(choices[b][k])];
        workers[static_cast<std::size_t>(inst)]->dispatch(
            transition, snapshot.components[static_cast<std::size_t>(inst)].vars);
        dispatched.push_back(inst);
      }
      if (options.recordTrace) {
        result.trace.events.push_back(labels_.event(system, executed, ei.connector, ei.mask));
      }
      ++executed;
    }

    // Barrier: wait for all dispatched workers, then refresh their states
    // (rethrowing the first failure in dispatch order).
    for (int inst : dispatched) workers[static_cast<std::size_t>(inst)]->wait();
    for (int inst : dispatched) {
      workers[static_cast<std::size_t>(inst)]->snapshot(
          snapshot.components[static_cast<std::size_t>(inst)]);
    }
    // Only the dispatched instances changed, so they are the dirty set.
    cache.update(snapshot, dispatched);
  }

  workers.clear();  // stops and joins every worker thread
  result.steps = executed;
  result.finalState = std::move(snapshot);
  stats_.steps = executed;
  stats_.wallNs = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall0)
          .count());
  return result;
}

}  // namespace cbip
