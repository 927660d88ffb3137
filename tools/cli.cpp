#include "cli.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "frontends/bipdsl/bipdsl.hpp"
#include "models/models.hpp"
#include "util/require.hpp"

namespace cbip::cli {

namespace {

std::optional<System> builtinModel(const std::string& model, int n) {
  if (model == "philosophers") return models::philosophersAtomic(n);
  if (model == "philosophers2") return models::philosophersTwoStep(n);
  if (model == "gas") return models::gasStation(n, n);
  if (model == "prodcons") return models::producerConsumer(n);
  if (model == "tokenring") return models::tokenRing(n);
  if (model == "skewed") return models::skewedPairs(n, std::max(1, n / 8), 4);
  return std::nullopt;
}

}  // namespace

std::optional<System> loadModel(const char* tool, const std::string& model, int n) {
  try {
    if (std::optional<System> builtin = builtinModel(model, n)) {
      builtin->validate();
      return builtin;
    }
    std::ifstream in(model);
    if (!in) {
      std::cerr << tool << ": cannot open model file " << model << "\n";
      return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    dsl::ParseResult parsed = dsl::parseModel(buf.str());
    parsed.system.validate();
    return std::move(parsed.system);
  } catch (const ModelError& e) {
    std::cerr << tool << ": " << model << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

}  // namespace cbip::cli
