// cbip: the command-line front door. One executable with three
// subcommands over one model loader and one flag loop:
//
//   cbip lint <model.bip>...
//   cbip verify [--model <name|file.bip>] [--n N]
//               [--expect deadlock-free|potential-deadlock] [--workers K] [file.bip]
//   cbip stats [--model <name|file.bip>] [--n N] [--engine seq|mt|sharded]
//              [--shards K] [--steps N] [--seed S] [--rebalance on|off]
//              [--json <path|->] [--trace <path>]
//
// verify and stats take a builtin model family sized by --n —
// philosophers (atomic-grab, deadlock-free), philosophers2 (two-step, can
// deadlock), gas (gas station), prodcons (bounded buffer), tokenring,
// skewed (n pairs, 1/8 hot, the rest dead after 4 steps each) — or else
// a path to a .bip file with a system section.
//
// lint runs the abstract-interpretation linter (src/analyze/lint.hpp)
// and the verification-fed lints (src/verify/lint.hpp) over each file,
// printing one line per diagnostic:
//
//     path: atom T, transition #2 (a --p--> b): [dead-transition] guard ...
//
// Atoms that a file never instantiates are linted in isolation too, so a
// library file of atom definitions is a valid lint target. CI runs it over
// examples/models/ as a zero-diagnostic gate.
//
// verify runs the compositional deadlock-freedom check
// (src/verify/dfinder.hpp) and prints the verdict, the traps and SAT
// statistics and, on a potential deadlock, the witness control locations.
// --expect turns the run into a gate. --workers K sets the width of the
// component-invariant portfolio (1 = serial); the verdict never depends
// on it.
//
// stats runs the model on one engine and prints one JSON object: the run
// outcome, the sharded engine's per-shard load statistics and the obs
// counters snapshot (src/obs). --trace also writes a Chrome trace-event
// timeline of the sharded epochs (chrome://tracing or ui.perfetto.dev).
// --rebalance switches the sharded engine's whole adaptive layer
// (rebalancing and work stealing).
//
// Exit codes: 0 = success (lint: no diagnostics; verify: the verdict
// matches --expect, or there is no --expect); 1 = lint diagnostics, or a
// verdict mismatch; 2 = bad usage (an unknown subcommand or flag, a
// missing or malformed value) or a load, I/O, lint or run failure.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "analyze/lint.hpp"
#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "frontends/bipdsl/bipdsl.hpp"
#include "models/models.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "shard/engine_sharded.hpp"
#include "util/require.hpp"
#include "verify/dfinder.hpp"
#include "verify/lint.hpp"

namespace {

using namespace cbip;

struct Options {
  std::vector<std::string> paths;  // the arguments that are not flags
  std::string model;
  int n = 8;
  std::string expect;  // verify: "", "deadlock-free" or "potential-deadlock"
  int workers = 0;
  std::string engine = "sharded";
  std::size_t shards = 2;
  std::uint64_t steps = 1000;
  std::uint64_t seed = 0;
  bool rebalance = true;       // sharded only: the whole adaptive layer
  std::string jsonPath = "-";  // "-" = stdout
  std::string tracePath;       // empty = no trace
};

constexpr std::string_view kLint = "cbip lint";
constexpr std::string_view kVerify = "cbip verify";
constexpr std::string_view kStats = "cbip stats";

int usage() {
  std::cerr << "usage: cbip lint <model.bip>...\n"
               "       cbip verify [--model <name|file.bip>] [--n N]\n"
               "                   [--expect deadlock-free|potential-deadlock]\n"
               "                   [--workers K] [file.bip]\n"
               "       cbip stats [--model <name|file.bip>] [--n N] [--engine seq|mt|sharded]\n"
               "                  [--shards K] [--steps N] [--seed S] [--rebalance on|off]\n"
               "                  [--json <path|->] [--trace <path>]\n";
  return 2;
}

/// Parses all of `text` as a non-negative decimal integer into `out`.
/// Returns false on a sign, a non-digit, trailing characters, an empty
/// string or a value out of T's range.
template <typename T>
bool parseCount(std::string_view text, T& out) {
  if (text.empty() || text.front() == '-') return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// The one flag loop: reads the arguments after the subcommand into
/// `opt`. Each flag in `allowed` takes one value; an argument that is not
/// a flag is a path. False on any other flag, a missing value or a
/// malformed value.
bool parseArgs(int argc, char** argv, std::initializer_list<std::string_view> allowed,
               Options& opt) {
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (!flag.starts_with('-')) {
      opt.paths.emplace_back(flag);
      continue;
    }
    if (i + 1 == argc || std::find(allowed.begin(), allowed.end(), flag) == allowed.end()) {
      return false;
    }
    const std::string_view v = argv[++i];
    const auto oneOf = [v](std::initializer_list<std::string_view> values) {
      return std::find(values.begin(), values.end(), v) != values.end();
    };
    bool ok = true;
    if (flag == "--model") opt.model = v;
    else if (flag == "--n") ok = parseCount(v, opt.n);
    else if (flag == "--workers") ok = parseCount(v, opt.workers);
    else if (flag == "--shards") ok = parseCount(v, opt.shards) && opt.shards > 0;
    else if (flag == "--steps") ok = parseCount(v, opt.steps);
    else if (flag == "--seed") ok = parseCount(v, opt.seed);
    else if (flag == "--json") opt.jsonPath = v;
    else if (flag == "--trace") opt.tracePath = v;
    else if (flag == "--rebalance") {
      ok = oneOf({"on", "off"});
      opt.rebalance = v == "on";
    } else if (flag == "--engine") {
      ok = oneOf({"seq", "mt", "sharded"});
      opt.engine = v;
    } else if (flag == "--expect") {
      ok = oneOf({"deadlock-free", "potential-deadlock"});
      opt.expect = v;
    }
    if (!ok) return false;
  }
  return true;
}

/// The one model loader: parses and validates the .bip file at `path`
/// into its system and its atom table. A path that is not a regular file
/// (a directory, say) fails to open. On failure prints
/// "<tool>: <reason>" to stderr and returns nullopt.
std::optional<dsl::ParseResult> loadFile(std::string_view tool, const std::string& path) {
  std::error_code ec;
  std::ifstream in;
  if (std::filesystem::is_regular_file(path, ec)) in.open(path);
  if (!in.is_open()) {
    std::cerr << tool << ": cannot open model file " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    dsl::ParseResult parsed = dsl::parseModel(buf.str());
    parsed.system.validate();
    return parsed;
  } catch (const ModelError& e) {
    std::cerr << tool << ": " << path << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

/// The system of `opt.model`: a builtin family sized by `opt.n`, or else
/// a .bip file that must have a system section.
std::optional<System> loadSystem(std::string_view tool, const Options& opt) {
  const std::string& model = opt.model;
  const int n = opt.n;
  try {
    std::optional<System> builtin;
    if (model == "philosophers") builtin = models::philosophersAtomic(n);
    else if (model == "philosophers2") builtin = models::philosophersTwoStep(n);
    else if (model == "gas") builtin = models::gasStation(n, n);
    else if (model == "prodcons") builtin = models::producerConsumer(n);
    else if (model == "tokenring") builtin = models::tokenRing(n);
    else if (model == "skewed") builtin = models::skewedPairs(n, std::max(1, n / 8), 4);
    if (builtin) {
      builtin->validate();
      return builtin;
    }
  } catch (const ModelError& e) {
    std::cerr << tool << ": " << model << ": " << e.what() << "\n";
    return std::nullopt;
  }
  std::optional<dsl::ParseResult> parsed = loadFile(tool, model);
  if (!parsed) return std::nullopt;
  if (parsed->system.instanceCount() == 0) {
    std::cerr << tool << ": " << model << ": bip: program has no system section\n";
    return std::nullopt;
  }
  return std::move(parsed->system);
}

/// Lints one file: prints its diagnostics, adds their count to
/// `diagnostics`, and returns the file's exit code.
int lintFile(const std::string& path, std::size_t& diagnostics) {
  const std::optional<dsl::ParseResult> parsed = loadFile(kLint, path);
  if (!parsed) return 2;
  const System& system = parsed->system;
  std::vector<analyze::Diagnostic> diags;
  try {
    diags = analyze::lintSystem(system);
    // Verification-fed lints need at least one instance to have
    // invariants about.
    if (system.instanceCount() > 0) {
      const std::vector<analyze::Diagnostic> more = verify::lintVerify(system);
      diags.insert(diags.end(), more.begin(), more.end());
    }
    // lintSystem only sees instantiated types.
    for (const auto& [name, type] : parsed->atoms) {
      const auto& instances = system.instances();
      if (std::any_of(instances.begin(), instances.end(),
                      [&](const System::Instance& inst) { return inst.type == type; })) {
        continue;
      }
      const std::vector<analyze::Diagnostic> more = analyze::lintType(*type);
      diags.insert(diags.end(), more.begin(), more.end());
    }
  } catch (const std::exception& e) {
    std::cerr << kLint << ": " << path << ": lint failed: " << e.what() << "\n";
    return 2;
  }
  for (const analyze::Diagnostic& d : diags) {
    std::cout << path << ": " << analyze::toString(d) << "\n";
  }
  diagnostics += diags.size();
  return diags.empty() ? 0 : 1;
}

int lintCommand(const Options& opt) {
  if (opt.paths.empty()) return usage();
  int worst = 0;
  std::size_t diagnostics = 0;
  for (const std::string& path : opt.paths) worst = std::max(worst, lintFile(path, diagnostics));
  if (worst == 0) {
    std::cout << kLint << ": " << opt.paths.size() << " model(s) clean\n";
  } else if (diagnostics > 0) {
    std::cout << kLint << ": " << diagnostics << " diagnostic(s)\n";
  }
  return worst;
}

int verifyCommand(Options opt) {
  if (opt.paths.size() > 1 || (!opt.paths.empty() && !opt.model.empty())) return usage();
  if (!opt.paths.empty()) opt.model = opt.paths.front();
  if (opt.model.empty()) return usage();
  std::optional<System> system = loadSystem(kVerify, opt);
  if (!system) return 2;

  verify::DFinderOptions options;
  options.workers = opt.workers;
  verify::DFinderResult result;
  try {
    result = verify::checkDeadlockFreedom(*system, options);
  } catch (const std::exception& e) {
    std::cerr << kVerify << ": check failed: " << e.what() << "\n";
    return 2;
  }

  const bool free = result.verdict == verify::DFinderVerdict::kDeadlockFree;
  std::cout << kVerify << ": " << opt.model << " (" << system->instanceCount()
            << " components): " << (free ? "DEADLOCK_FREE" : "POTENTIAL_DEADLOCK") << "\n"
            << "  traps=" << result.traps.size() << " vars=" << result.booleanVariables
            << " conflicts=" << result.satConflicts << " decisions=" << result.satDecisions
            << "\n";
  if (!free && !result.witnessLocations.empty()) {
    std::cout << "  witness:";
    for (std::size_t i = 0; i < result.witnessLocations.size(); ++i) {
      const System::Instance& inst = system->instance(i);
      std::cout << " " << inst.name << "@"
                << inst.type->locationName(result.witnessLocations[i]);
    }
    std::cout << "\n";
  }

  if (opt.expect.empty()) return 0;
  const bool match = free == (opt.expect == "deadlock-free");
  if (!match) std::cerr << kVerify << ": verdict mismatch: expected " << opt.expect << "\n";
  return match ? 0 : 1;
}

void appendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

int statsCommand(Options opt) {
  if (!opt.paths.empty()) return usage();
  if (opt.model.empty()) opt.model = "philosophers";
  std::optional<System> system = loadSystem(kStats, opt);
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
  RunResult result;
  std::optional<shard::ShardedStats> shardStats;
  try {
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
    EngineOptions options;
    options.maxSteps = opt.steps;
    options.recordTrace = false;
    result = engine->run(options);
    if (shardedEngine) shardStats = shardedEngine->lastRunStats();
  } catch (const std::exception& e) {
    obs::setTraceSink(nullptr);
    std::cerr << kStats << ": run failed: " << e.what() << "\n";
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
      std::cerr << kStats << ": cannot write " << opt.jsonPath << "\n";
      return 2;
    }
    jf << out << "\n";
  }
  if (!opt.tracePath.empty()) {
    std::ofstream tf(opt.tracePath);
    if (!tf) {
      std::cerr << kStats << ": cannot write " << opt.tracePath << "\n";
      return 2;
    }
    trace.write(tf);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view sub = argc > 1 ? argv[1] : "";
  Options opt;
  if (sub == "lint") return parseArgs(argc, argv, {}, opt) ? lintCommand(opt) : usage();
  if (sub == "verify") {
    return parseArgs(argc, argv, {"--model", "--n", "--expect", "--workers"}, opt)
               ? verifyCommand(opt)
               : usage();
  }
  if (sub == "stats") {
    return parseArgs(argc, argv,
                     {"--model", "--n", "--engine", "--shards", "--steps", "--seed",
                      "--rebalance", "--json", "--trace"},
                     opt)
               ? statsCommand(opt)
               : usage();
  }
  return usage();
}
