// Parallel portfolio substrate for the verification layer.
//
// D-Finder's work decomposes into batches of independent, deterministic
// sub-solves: one component invariant per distinct atomic type, one trap
// SAT query per witness of a refinement round. parallelFor runs such a
// batch across a transient std::jthread pool — workers pull indices from
// a shared atomic counter, write results only to their own slot, and are
// all joined before the call returns, so the caller merges in index
// order and the outcome is bit-identical to the serial run (the same
// discipline as the sharded engine's epoch workers: no shared mutable
// state between tasks, a full barrier before anything is read).
//
// The escape hatch, mirroring CBIP_NO_COMPILE: setting the
// CBIP_NO_PARALLEL_VERIFY environment variable (or calling
// setParallelVerifyEnabled(false)) runs every batch inline, in index
// order, on the calling thread. Verdicts, witnesses and traps must be
// bit-identical either way; the differential tests rely on this switch.
#pragma once

#include <cstddef>
#include <functional>

namespace cbip::verify {

/// True when verification batches may fan out across worker threads;
/// defaults to true unless the CBIP_NO_PARALLEL_VERIFY environment
/// variable is set to a non-empty value other than "0".
bool parallelVerifyEnabled();

/// Overrides the parallel-verify switch (differential tests and
/// benchmarks toggle this to compare the threaded and serial portfolios
/// in one process).
void setParallelVerifyEnabled(bool on);

/// Runs fn(0), ..., fn(n - 1), each exactly once. While the hatch is on
/// and n > 1 the calls are distributed over min(workers, n) jthreads
/// (workers <= 0 means hardware concurrency); otherwise they run inline
/// in index order. Tasks must be independent — each may write only to
/// its own output slot. All workers are joined before the call returns;
/// if tasks threw, the exception of the lowest-index task is rethrown
/// (deterministically, regardless of thread timing).
void parallelFor(std::size_t n, int workers, const std::function<void(std::size_t)>& fn);

}  // namespace cbip::verify
