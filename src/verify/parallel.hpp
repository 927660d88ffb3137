// Parallel portfolio substrate for the verification layer.
//
// D-Finder's component invariants decompose into independent,
// deterministic sub-solves, one per distinct atomic type. parallelFor runs
// such a batch across a transient std::jthread pool — workers pull
// indices from a shared atomic counter, write results only to their own
// slot, and are all joined before the call returns, so the caller merges
// in index order and the outcome is bit-identical to the serial run (the
// same discipline as the sharded engine's epoch workers: no shared
// mutable state between tasks, a full barrier before anything is read).
// workers = 1 runs the batch inline, in index order.
#pragma once

#include <cstddef>
#include <functional>

namespace cbip::verify {

/// Runs fn(0), ..., fn(n - 1), each exactly once. When n > 1 the calls
/// are distributed over min(workers, n) jthreads (workers <= 0 means
/// hardware concurrency); otherwise they run inline in index order. Tasks
/// must be independent — each may write only to its own output slot. All
/// workers are joined before the call returns; if tasks threw, the
/// exception of the lowest-index task is rethrown (deterministically,
/// regardless of thread timing).
void parallelFor(std::size_t n, int workers, const std::function<void(std::size_t)>& fn);

}  // namespace cbip::verify
