#include "obs/obs.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/env.hpp"

namespace cbip::obs {

std::uint64_t Snapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const Snapshot::Histogram* Snapshot::histogram(std::string_view name) const {
  for (const Histogram& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string toJson(const Snapshot& snapshot) {
  // Metric names are identifier-ish ([a-z0-9._]) by convention, but a
  // JSON export must not rely on convention.
  const auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  };
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i != 0) os << ',';
    os << '"' << escape(snapshot.counters[i].first) << "\":" << snapshot.counters[i].second;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i != 0) os << ',';
    os << '"' << escape(snapshot.gauges[i].first) << "\":" << snapshot.gauges[i].second;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const Snapshot::Histogram& h = snapshot.histograms[i];
    if (i != 0) os << ',';
    os << '"' << escape(h.name) << "\":{\"buckets\":[";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b != 0) os << ',';
      os << h.buckets[b];
    }
    os << "],\"sum\":" << h.sum << ",\"count\":" << h.count() << '}';
  }
  os << "}}";
  return os.str();
}

#if !defined(CBIP_NO_OBS)

namespace {

/// Applies the CBIP_NO_OBS environment override to detail::g_enabled.
/// Runs during this TU's static init; until then the constant-initialized
/// default (enabled) holds, which only ever affects counts recorded by
/// other static initializers — never correctness.
const struct EnabledEnvInit {
  EnabledEnvInit() {
    detail::g_enabled.store(!envFlagOn(std::getenv("CBIP_NO_OBS")), std::memory_order_relaxed);
  }
} g_enabledEnvInit;

/// One thread's accumulation cells, indexed by metric cell id. Only the
/// owning thread writes (relaxed read-modify-write of its own cells);
/// snapshot() reads concurrently with relaxed loads under the registry
/// mutex, which also guards the block list itself.
struct Block {
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells;
  std::size_t size = 0;
};

class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  int registerMetric(const std::string& name, int cells, detail::Kind kind) {
    const std::scoped_lock lock(mutex_);
    if (const auto it = byName_.find(name); it != byName_.end()) return it->second;
    const int id = static_cast<int>(cellCount_);
    byName_.emplace(name, id);
    metrics_.push_back(Metric{name, id, cells, kind});
    cellCount_ += static_cast<std::size_t>(cells);
    retired_.resize(cellCount_, 0);
    return id;
  }

  int registerGauge(const std::string& name) {
    const std::scoped_lock lock(mutex_);
    if (const auto it = gaugeByName_.find(name); it != gaugeByName_.end()) return it->second;
    const int id = static_cast<int>(gauges_.size());
    gaugeByName_.emplace(name, id);
    gauges_.push_back(std::make_unique<NamedGauge>(name));
    return id;
  }

  void gaugeSet(int id, std::int64_t value) {
    // The gauge vector only grows, and handles hold ids of completed
    // registrations; the pointer chase keeps set() lock-free.
    NamedGauge* g = nullptr;
    {
      const std::scoped_lock lock(mutex_);
      g = gauges_[static_cast<std::size_t>(id)].get();
    }
    g->value.store(value, std::memory_order_relaxed);
  }

  void attach(Block* block) {
    const std::scoped_lock lock(mutex_);
    live_.push_back(block);
  }

  /// Thread retirement: fold the exiting thread's cells into the retired
  /// totals so no recorded value is ever lost.
  void retire(Block* block) {
    const std::scoped_lock lock(mutex_);
    for (std::size_t i = 0; i < block->size && i < retired_.size(); ++i) {
      retired_[i] += block->cells[i].load(std::memory_order_relaxed);
    }
    std::erase(live_, block);
  }

  /// Grows `block` to cover cell `id`; called by the owning thread only.
  /// The swap happens under the mutex so a concurrent snapshot never sees
  /// a half-copied block; the owner's unlocked reads of its own pointer
  /// are safe because only the owner ever replaces it.
  void grow(Block* block, int id) {
    const std::scoped_lock lock(mutex_);
    std::size_t want = std::max<std::size_t>(cellCount_, static_cast<std::size_t>(id) + 1);
    want = std::max<std::size_t>(want, block->size * 2);
    want = std::max<std::size_t>(want, 64);
    auto cells = std::make_unique<std::atomic<std::uint64_t>[]>(want);
    for (std::size_t i = 0; i < want; ++i) cells[i].store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < block->size; ++i) {
      cells[i].store(block->cells[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    block->cells = std::move(cells);
    block->size = want;
  }

  Snapshot snapshot() {
    const std::scoped_lock lock(mutex_);
    std::vector<std::uint64_t> totals(retired_);
    totals.resize(cellCount_, 0);
    for (const Block* b : live_) {
      for (std::size_t i = 0; i < b->size && i < totals.size(); ++i) {
        totals[i] += b->cells[i].load(std::memory_order_relaxed);
      }
    }
    Snapshot out;
    for (const Metric& m : metrics_) {
      const auto at = [&](int cell) {
        return totals[static_cast<std::size_t>(m.firstCell + cell)];
      };
      switch (m.kind) {
        case detail::Kind::kCounter:
        case detail::Kind::kTimerNs:
        case detail::Kind::kTimerCalls:
          out.counters.emplace_back(m.name, at(0));
          break;
        case detail::Kind::kHistogram: {
          Snapshot::Histogram h;
          h.name = m.name;
          h.buckets.resize(Histogram::kBuckets);
          for (int b = 0; b < Histogram::kBuckets; ++b) {
            h.buckets[static_cast<std::size_t>(b)] = at(b);
          }
          h.sum = at(Histogram::kBuckets);
          out.histograms.push_back(std::move(h));
          break;
        }
      }
    }
    for (const auto& g : gauges_) {
      out.gauges.emplace_back(g->name, g->value.load(std::memory_order_relaxed));
    }
    const auto byFirst = [](const auto& a, const auto& b) { return a.first < b.first; };
    std::sort(out.counters.begin(), out.counters.end(), byFirst);
    std::sort(out.gauges.begin(), out.gauges.end(), byFirst);
    std::sort(out.histograms.begin(), out.histograms.end(),
              [](const auto& a, const auto& b) { return a.name < b.name; });
    return out;
  }

  void resetAll() {
    const std::scoped_lock lock(mutex_);
    std::fill(retired_.begin(), retired_.end(), 0);
    for (Block* b : live_) {
      for (std::size_t i = 0; i < b->size; ++i) b->cells[i].store(0, std::memory_order_relaxed);
    }
    for (const auto& g : gauges_) g->value.store(0, std::memory_order_relaxed);
  }

 private:
  struct Metric {
    std::string name;
    int firstCell = 0;
    int cells = 1;
    detail::Kind kind = detail::Kind::kCounter;
  };
  struct NamedGauge {
    explicit NamedGauge(std::string n) : name(std::move(n)) {}
    std::string name;
    std::atomic<std::int64_t> value{0};
  };

  std::mutex mutex_;
  std::map<std::string, int> byName_;
  std::vector<Metric> metrics_;
  std::size_t cellCount_ = 0;
  std::vector<std::uint64_t> retired_;
  std::vector<Block*> live_;
  std::map<std::string, int> gaugeByName_;
  std::vector<std::unique_ptr<NamedGauge>> gauges_;
};

/// Per-thread cell block, attached on construction and folded into the
/// retired totals on thread exit. Constructing it touches the registry
/// singleton first, so the registry outlives every block (reverse
/// destruction order of completed constructions).
struct ThreadCells {
  ThreadCells() { Registry::instance().attach(&block); }
  ~ThreadCells() { Registry::instance().retire(&block); }
  Block block;
};

ThreadCells& threadCells() {
  thread_local ThreadCells cells;
  return cells;
}

/// Writes the final snapshot to $CBIP_OBS_EXPORT at process exit, so any
/// binary linking the library (the google-benchmark suites in
/// particular) can hand its counters to bench/run_benches.sh without
/// per-binary plumbing. Constructing the registry here first guarantees
/// it is still alive when this destructor runs.
struct AtExitExporter {
  AtExitExporter() { Registry::instance(); }
  ~AtExitExporter() {
    const char* path = std::getenv("CBIP_OBS_EXPORT");
    if (path == nullptr || path[0] == '\0') return;
    std::ofstream out(path);
    if (out) out << toJson(Registry::instance().snapshot()) << '\n';
  }
};
const AtExitExporter g_exporter;

}  // namespace

std::uint64_t nowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {

constinit std::atomic<bool> g_enabled{true};

int registerMetric(const std::string& name, int cells, Kind kind) {
  return Registry::instance().registerMetric(name, cells, kind);
}

int registerGauge(const std::string& name) { return Registry::instance().registerGauge(name); }

void add(int id, std::uint64_t delta) {
  ThreadCells& tc = threadCells();
  if (static_cast<std::size_t>(id) >= tc.block.size) {
    Registry::instance().grow(&tc.block, id);
  }
  std::atomic<std::uint64_t>& cell = tc.block.cells[static_cast<std::size_t>(id)];
  // Owner-only writer: a relaxed load+store is a data-race-free increment
  // (snapshot readers see either value; monotonicity is preserved).
  cell.store(cell.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

void gaugeSet(int id, std::int64_t value) { Registry::instance().gaugeSet(id, value); }

}  // namespace detail

void Histogram::observe(std::int64_t value) const {
  if (!enabled()) return;
  const std::uint64_t v = value <= 0 ? 0 : static_cast<std::uint64_t>(value);
  const int width = v == 0 ? 0 : std::bit_width(v);
  const int bucket = width >= kBuckets ? kBuckets - 1 : width;
  detail::add(id_ + bucket, 1);
  detail::add(id_ + kBuckets, v);
}

Snapshot snapshot() { return Registry::instance().snapshot(); }

void resetAll() { Registry::instance().resetAll(); }

#endif  // !CBIP_NO_OBS

}  // namespace cbip::obs
