// cbip-verify: the D-Finder certification front door.
//
// Loads a builtin model or a .bip file and runs the compositional
// deadlock-freedom check (src/verify/dfinder.hpp), printing the verdict,
// the certification ingredients (traps, SAT statistics) and — on a
// potential deadlock — the witness control locations:
//
//   cbip-verify --model philosophers --n 256 --expect deadlock-free
//   cbip-verify examples/models/mutex.bip
//
// Builtin models (tools/cli.hpp): philosophers (atomic-grab,
// deadlock-free), philosophers2 (two-step, can deadlock), gas (gas
// station), prodcons, tokenring, skewed. Any other --model value (or a
// bare positional argument) is treated as a path to a .bip model file.
//
// --expect turns the run into a gate: exit 0 when the verdict matches,
// 1 when it does not. CI uses this to fail on any regression from
// DEADLOCK_FREE over examples/models/ and the 256-component bench
// models. --workers K sets the width of the component-invariant
// portfolio (1 = serial); the verdict never depends on it.
//
// Exit codes: 0 = verdict matches --expect (or no --expect), 1 =
// verdict mismatch, 2 = bad usage (including a non-numeric --n or
// --workers) / load failure.
#include <iostream>
#include <optional>
#include <string>

#include "cli.hpp"
#include "verify/dfinder.hpp"

namespace {

using namespace cbip;

struct Options {
  std::string model;
  int n = 8;
  std::string expect;  // "", "deadlock-free" or "potential-deadlock"
  int workers = 0;
};

int usage() {
  std::cerr << "usage: cbip-verify [--model <name|file.bip>] [--n N]\n"
               "                   [--expect deadlock-free|potential-deadlock]\n"
               "                   [--workers K] [file.bip]\n";
  return 2;
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
    else if (arg == "--expect" && (v = value())) opt.expect = v;
    else if (arg == "--workers" && (v = value())) {
      if (!cli::parseCount(v, opt.workers)) return usage();
    }
    else if (!arg.empty() && arg[0] != '-' && opt.model.empty()) opt.model = arg;
    else return usage();
  }
  if (opt.model.empty()) return usage();
  if (!opt.expect.empty() && opt.expect != "deadlock-free" &&
      opt.expect != "potential-deadlock") {
    return usage();
  }

  std::optional<System> system = cli::loadModel("cbip-verify", opt.model, opt.n);
  if (!system) return 2;

  verify::DFinderOptions options;
  options.workers = opt.workers;
  verify::DFinderResult result;
  try {
    result = verify::checkDeadlockFreedom(*system, options);
  } catch (const std::exception& e) {
    std::cerr << "cbip-verify: check failed: " << e.what() << "\n";
    return 2;
  }

  const bool free = result.verdict == verify::DFinderVerdict::kDeadlockFree;
  std::cout << "cbip-verify: " << opt.model << " (" << system->instanceCount()
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
  if (!match) {
    std::cerr << "cbip-verify: verdict mismatch: expected " << opt.expect << "\n";
  }
  return match ? 0 : 1;
}
