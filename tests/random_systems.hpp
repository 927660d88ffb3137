// Seeded generator of small BIP systems: the ground truth the D-Finder
// check is tested against. Every system is small enough for explore() to
// enumerate its state space exhaustively, and varied enough to reach each
// part of the check.
//
// A system has 2-5 instances of 1-3 control types. Each type has 2-4
// locations, 1-3 ports and one counter c that every action keeps inside
// [0, kCounterBound): actions either leave c alone, step it modulo the
// bound, or reset it to a constant. Its transitions are
//   * port transitions between random locations, guarded by true or by a
//     comparison of c with a constant in [0, kCounterBound] — at the ends
//     of that range some comparisons hold for no reachable value, so the
//     component invariant's guardFeasible and strengthenWithAnalysis have
//     guards to prune;
//   * taus, always-true or guarded, each to a higher-numbered location, so
//     tau settling always terminates.
// Connectors are strong rendezvous or broadcasts (the first end is the
// trigger) over the ports of 2-3 distinct instances.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "util/rng.hpp"

namespace cbip {

inline constexpr Value kCounterBound = 3;

/// c == k, c < k or c >= k for a constant k in [0, kCounterBound].
inline Expr randomCounterGuard(Rng& rng) {
  const Expr c = Expr::local(0);
  const Expr k = Expr::lit(rng.range(0, kCounterBound));
  switch (rng.below(3)) {
    case 0: return c == k;
    case 1: return c < k;
    default: return c >= k;
  }
}

/// No action, c := (c + 1) % kCounterBound, or c := k.
inline std::vector<expr::Assign> randomCounterAction(Rng& rng) {
  const expr::VarRef c{0, 0};
  switch (rng.below(3)) {
    case 0: return {};
    case 1: return {expr::Assign{c, (Expr::local(0) + Expr::lit(1)) % Expr::lit(kCounterBound)}};
    default: return {expr::Assign{c, Expr::lit(rng.range(0, kCounterBound - 1))}};
  }
}

inline std::shared_ptr<AtomicType> randomType(Rng& rng, const std::string& name) {
  auto t = std::make_shared<AtomicType>(name);
  const int locations = static_cast<int>(rng.range(2, 4));
  for (int l = 0; l < locations; ++l) t->addLocation("l" + std::to_string(l));
  t->addVariable("c", 0);
  const int ports = static_cast<int>(rng.range(1, 3));
  for (int p = 0; p < ports; ++p) t->addPort("p" + std::to_string(p));
  const auto guard = [&rng] { return rng.chance(1, 2) ? Expr::top() : randomCounterGuard(rng); };
  for (int l = 0; l < locations; ++l) {
    const auto count = rng.range(1, 2);
    for (std::int64_t k = 0; k < count; ++k) {
      const int port = static_cast<int>(rng.below(static_cast<std::uint64_t>(ports)));
      const int to = static_cast<int>(rng.below(static_cast<std::uint64_t>(locations)));
      t->addTransition(l, port, guard(), randomCounterAction(rng), to);
    }
  }
  for (int l = 0; l + 1 < locations; ++l) {
    if (!rng.chance(1, 4)) continue;
    const int to = static_cast<int>(rng.range(l + 1, locations - 1));
    t->addTransition(l, kInternalPort, guard(), randomCounterAction(rng), to);
  }
  t->setInitialLocation(0);
  return t;
}

/// The generated system for `seed`; the same seed always yields the same
/// system.
inline System randomSystem(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::shared_ptr<AtomicType>> types;
  const auto typeCount = rng.range(1, 3);
  for (std::int64_t k = 0; k < typeCount; ++k) {
    types.push_back(randomType(rng, "T" + std::to_string(k)));
  }
  System sys;
  const auto instances = static_cast<std::size_t>(rng.range(2, 5));
  for (std::size_t i = 0; i < instances; ++i) {
    sys.addInstance("c" + std::to_string(i), types[rng.index(types.size())]);
  }
  const auto connectors = rng.range(1, static_cast<std::int64_t>(instances) + 1);
  for (std::int64_t k = 0; k < connectors; ++k) {
    const std::vector<std::size_t> order = rng.permutation(instances);
    const auto ends = std::min<std::size_t>(static_cast<std::size_t>(rng.range(2, 3)), instances);
    const bool broadcast = rng.chance(1, 2);
    Connector c("k" + std::to_string(k));
    for (std::size_t e = 0; e < ends; ++e) {
      const int instance = static_cast<int>(order[e]);
      const std::size_t ports = sys.instance(order[e]).type->portCount();
      c.addEnd(PortRef{instance, static_cast<int>(rng.index(ports))}, broadcast && e == 0);
    }
    sys.addConnector(std::move(c));
  }
  sys.validate();
  return sys;
}

}  // namespace cbip
