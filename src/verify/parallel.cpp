#include "verify/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace cbip::verify {

namespace {

// Telemetry (src/obs): counts only, never steers the verdict.
const obs::Counter g_batches("verify.parallel.batches");
const obs::Counter g_tasks("verify.parallel.tasks");
const obs::Counter g_inline("verify.parallel.inline_tasks");

}  // namespace

void parallelFor(std::size_t n, int workers, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::size_t pool = workers > 0 ? static_cast<std::size_t>(workers)
                                 : std::max(1U, std::thread::hardware_concurrency());
  pool = std::min(pool, n);
  if (n == 1 || pool <= 1) {
    g_inline.add(n);
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  g_batches.add();
  g_tasks.add(n);
  // Workers pull indices from a shared counter and record any exception in
  // the slot of the task that threw; after the join barrier the
  // lowest-index exception is rethrown so failure, like success, is
  // independent of thread timing.
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(pool);
    for (std::size_t w = 0; w < pool; ++w) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) return;
          try {
            fn(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
  }  // jthread destructors join: full barrier before results are read.
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace cbip::verify
