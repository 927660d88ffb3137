// Model zoo: the systems used across tests, examples and benchmarks.
//
// These are the monograph's own running examples and the standard
// D-Finder benchmark family ([4], Section 5.6):
//   * dining philosophers — atomic-grab variant (deadlock-free) and
//     two-step variant (the classic circular-wait deadlock);
//   * gas station (operator / pumps / customers);
//   * producer–consumer through a bounded-buffer component with real
//     data transfer on connectors;
//   * token ring mutual exclusion;
//   * the GCD "program as dynamic system" of Fig 6.1.
//
// Each factory takes a `counters` flag: when true the components carry
// unbounded bookkeeping counters (meals eaten, packets consumed, ...),
// which is the natural executable model; when false those counters are
// omitted so the global state space is finite and exhaustive exploration
// terminates. D-Finder itself handles the counter variants through its
// cone-of-influence abstraction — only the monolithic checker needs the
// finite builds.
#pragma once

#include "core/system.hpp"

namespace cbip::models {

/// Philosophers where eat/release grab and drop *both* forks atomically
/// (3-party rendezvous). Deadlock-free for every n >= 2.
System philosophersAtomic(int n, bool counters = true);

/// Philosophers taking the left fork then the right fork in separate
/// interactions. Has the classic all-hold-left deadlock.
System philosophersTwoStep(int n, bool counters = true);

/// Gas station: `pumps` pumps, `customers` customers, one operator.
/// Customers prepay with the operator, grab a free pump, pump, finish.
System gasStation(int pumps, int customers, bool counters = true);

/// Producer -> bounded buffer (capacity `capacity`) -> consumer; items
/// carry increasing sequence numbers through connector data transfer.
System producerConsumer(int capacity);

/// Finite-state producer/consumer: sequence numbers wrap modulo `modulo`
/// and the consumer keeps only the last received value.
System producerConsumerBounded(int capacity, int modulo);

/// Token-ring mutual exclusion over n stations: exactly one token;
/// station i can `enter` its critical section only while holding it.
System tokenRing(int n, bool counters = true);

/// The GCD program of Fig 6.1 as a single atomic component stepping with
/// internal transitions; exposes `done` when x == y.
/// Component variables: x, y.
System gcdSystem(Value x0, Value y0);

/// Skewed-load scaling family for the sharded engine: `pairs` disconnected
/// (worker, mate) pairs, each joined by a single binary rendezvous. The
/// mate guards the rendezvous with `budget != 0` and decrements the budget
/// on every step, so a pair stays runnable exactly as long as its budget
/// is nonzero. The first `hotPairs` pairs start with budget -1 (decrements
/// forever, never hits zero) and the rest with `coldBudget` (>= 0; 0 means
/// dead on arrival), so after coldBudget steps per cold pair all remaining
/// load concentrates on the hot pairs — which sit at the low instance ids
/// and therefore cluster in the low shards under the greedy partitioner.
/// This is the workload the online rebalancer and work stealing exist for;
/// bench_sharded scales it to 10^5..10^6 components.
/// Instance layout: worker_i = 2i, mate_i = 2i+1.
System skewedPairs(int pairs, int hotPairs, Value coldBudget = 0);

// --- helpers used by property tests ---

/// True iff at most one station of a tokenRing system is in its critical
/// section (the characteristic mutual-exclusion property).
bool tokenRingMutex(const System& system, const GlobalState& state);

}  // namespace cbip::models
