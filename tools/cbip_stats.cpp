// cbip-stats: run a model on any engine and dump the telemetry snapshot.
//
// The observability front door (src/obs): loads a builtin model or a
// .bip file, runs it through the chosen engine, and prints one JSON
// object with the run outcome, the sharded engine's per-shard load
// statistics, and the full obs counters snapshot. With --trace it also
// writes a Chrome trace-event timeline of the sharded epochs — load the
// file via chrome://tracing or drop it into ui.perfetto.dev.
//
//   cbip-stats --model philosophers --n 16 --engine sharded --shards 4
//              --steps 2000 --trace epochs.json
//
// Builtin models (tools/cli.hpp): philosophers (atomic-grab,
// deadlock-free), philosophers2 (two-step, can deadlock), gas (gas
// station), prodcons (bounded buffer), tokenring, skewed. Any other
// --model value is treated as a path to a .bip model file.
//
// Exit codes: 0 = ran, 2 = bad usage (including a non-numeric --n,
// --shards, --steps or --seed) / load failure.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "cli.hpp"
#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "shard/engine_sharded.hpp"

namespace {

using namespace cbip;

struct Options {
  std::string model = "philosophers";
  int n = 8;
  std::string engine = "sharded";
  std::size_t shards = 2;
  std::uint64_t steps = 1000;
  std::uint64_t seed = 0;
  bool rebalance = true;        // sharded only: the whole adaptive layer
  std::string jsonPath = "-";   // "-" = stdout
  std::string tracePath;        // empty = no trace
};

int usage() {
  std::cerr << "usage: cbip-stats [--model <name|file.bip>] [--n N] "
               "[--engine seq|mt|sharded]\n"
               "                  [--shards K] [--steps N] [--seed S] "
               "[--rebalance on|off]\n"
               "                  [--json <path|->] [--trace <path>]\n";
  return 2;
}

void appendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--model" && (v = value())) opt.model = v;
    else if (arg == "--n" && (v = value())) {
      if (!cli::parseCount(v, opt.n)) return usage();
    }
    else if (arg == "--engine" && (v = value())) opt.engine = v;
    else if (arg == "--shards" && (v = value())) {
      if (!cli::parseCount(v, opt.shards) || opt.shards == 0) return usage();
    }
    else if (arg == "--steps" && (v = value())) {
      if (!cli::parseCount(v, opt.steps)) return usage();
    }
    else if (arg == "--seed" && (v = value())) {
      if (!cli::parseCount(v, opt.seed)) return usage();
    }
    else if (arg == "--rebalance" && (v = value())) {
      const std::string mode = v;
      if (mode != "on" && mode != "off") return usage();
      opt.rebalance = mode == "on";
    }
    else if (arg == "--json" && (v = value())) opt.jsonPath = v;
    else if (arg == "--trace" && (v = value())) opt.tracePath = v;
    else return usage();
  }
  if (opt.engine != "seq" && opt.engine != "mt" && opt.engine != "sharded") return usage();

  std::optional<System> system = cli::loadModel("cbip-stats", opt.model, opt.n);
  if (!system) return 2;

  // Fresh counters for this run; the at-exit exporter and the snapshot
  // below then report exactly this run's activity.
  obs::resetAll();
  obs::TraceLog trace;
  if (!opt.tracePath.empty()) obs::setTraceSink(&trace);

  // All three engines are driven through the shared Engine interface:
  // engine-specific knobs (seed, shard count, rebalancing) are preset on
  // the concrete engine's defaultOptions() template, then the run itself
  // only sees the portable EngineOptions core.
  RandomPolicy policy(opt.seed);
  std::optional<SequentialEngine> seqEngine;
  std::optional<MultiThreadEngine> mtEngine;
  std::optional<shard::ShardedEngine> shardedEngine;
  Engine* engine = nullptr;
  if (opt.engine == "seq") {
    engine = &seqEngine.emplace(*system, policy);
  } else if (opt.engine == "mt") {
    engine = &mtEngine.emplace(*system, policy);
  } else {
    shard::ShardedEngine& se = shardedEngine.emplace(*system, opt.shards);
    se.defaultOptions().seed = opt.seed;
    se.defaultOptions().rebalance = opt.rebalance;
    se.defaultOptions().workStealing = opt.rebalance;
    engine = &se;
  }

  RunResult result;
  std::optional<shard::ShardedStats> shardStats;
  try {
    EngineOptions options;
    options.maxSteps = opt.steps;
    options.recordTrace = false;
    result = engine->run(options);
    if (shardedEngine) shardStats = shardedEngine->lastRunStats();
  } catch (const std::exception& e) {
    obs::setTraceSink(nullptr);
    std::cerr << "cbip-stats: run failed: " << e.what() << "\n";
    return 2;
  }
  obs::setTraceSink(nullptr);
  const RunStats& runStats = engine->lastRunStats();

  std::string out = "{\"model\":\"";
  appendEscaped(out, opt.model);
  out += "\",\"engine\":\"" + opt.engine + "\"";
  out += ",\"steps\":" + std::to_string(result.steps);
  out += ",\"reason\":\"" + std::string(to_string(result.reason)) + "\"";
  // Portable RunStats core — present for every engine (scan_rounds means
  // steps on seq, scheduler cycles on mt, epochs on sharded).
  out += ",\"stats\":{\"steps\":" + std::to_string(runStats.steps);
  out += ",\"scan_rounds\":" + std::to_string(runStats.scanRounds);
  out += ",\"wall_ns\":" + std::to_string(runStats.wallNs) + "}";
  if (shardStats) {
    const shard::ShardedStats& st = *shardStats;
    out += ",\"rebalance\":{\"enabled\":" + std::string(opt.rebalance ? "true" : "false");
    out += ",\"decisions\":" + std::to_string(st.rebalanceDecisions);
    out += ",\"components_moved\":" + std::to_string(st.componentsMoved);
    out += ",\"steal_events\":" + std::to_string(st.stealEvents) + "}";
    out += ",\"sharded\":{\"epochs\":" + std::to_string(st.epochs);
    out += ",\"stalled_epochs\":" + std::to_string(st.stalledEpochs);
    out += ",\"cross_candidates\":" + std::to_string(st.crossCandidates);
    out += ",\"cross_accepted\":" + std::to_string(st.crossAccepted);
    out += ",\"cross_conflicts\":" + std::to_string(st.crossConflicts);
    out += ",\"shards\":[";
    for (std::size_t s = 0; s < st.shards.size(); ++s) {
      const shard::ShardedStats::Shard& sh = st.shards[s];
      if (s != 0) out += ",";
      out += "{\"steps\":" + std::to_string(sh.steps);
      out += ",\"local_steps\":" + std::to_string(sh.localSteps);
      out += ",\"cross_steps\":" + std::to_string(sh.crossSteps);
      out += ",\"stolen_steps\":" + std::to_string(sh.stolenSteps);
      out += ",\"migrated_in\":" + std::to_string(sh.migratedIn);
      out += ",\"migrated_out\":" + std::to_string(sh.migratedOut);
      out += ",\"idle_epochs\":" + std::to_string(sh.idleEpochs);
      out += ",\"quota_granted\":" + std::to_string(sh.quotaGranted);
      out += ",\"quota_unused\":" + std::to_string(sh.quotaUnused);
      out += ",\"plan_ns\":" + std::to_string(sh.planNs);
      out += ",\"cross_ns\":" + std::to_string(sh.crossNs);
      out += ",\"local_ns\":" + std::to_string(sh.localNs);
      out += ",\"idle_ns\":" + std::to_string(sh.idleNs);
      out += ",\"lock_wait_ns\":" + std::to_string(sh.lockWaitNs) + "}";
    }
    out += "]}";
  }
  out += ",\"obs\":" + obs::toJson(obs::snapshot()) + "}";

  if (opt.jsonPath == "-") {
    std::cout << out << "\n";
  } else {
    std::ofstream jf(opt.jsonPath);
    if (!jf) {
      std::cerr << "cbip-stats: cannot write " << opt.jsonPath << "\n";
      return 2;
    }
    jf << out << "\n";
  }
  if (!opt.tracePath.empty()) {
    std::ofstream tf(opt.tracePath);
    if (!tf) {
      std::cerr << "cbip-stats: cannot write " << opt.tracePath << "\n";
      return 2;
    }
    trace.write(tf);
  }
  return 0;
}
