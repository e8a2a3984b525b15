#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/sched.h"

namespace loglens {

size_t parallel_threads() {
  return std::max<size_t>(std::thread::hardware_concurrency(), 1);
}

void parallel_for(size_t n, size_t grain,
                  const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  grain = std::max<size_t>(grain, 1);
  const size_t blocks = (n - 1) / grain + 1;
  const size_t threads = std::min(parallel_threads(), blocks);

  std::atomic<size_t> next{0};
  std::vector<std::exception_ptr> errors(threads);
  auto work = [&](size_t worker) {
    try {
      for (size_t b = next.fetch_add(1, std::memory_order_relaxed); b < blocks;
           b = next.fetch_add(1, std::memory_order_relaxed)) {
        body(b * grain, std::min(n, (b + 1) * grain));
      }
    } catch (...) {
      errors[worker] = std::current_exception();
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(threads - 1);
  for (size_t t = 1; t < threads; ++t) {
    try {
      helpers.push_back(sched::spawn_named("parallel-" + std::to_string(t),
                                           [&work, t] { work(t); }));
    } catch (const std::system_error&) {
      break;  // no more threads to be had: the ones running finish the range
    }
  }
  work(0);
  {
    // The joins block for real; under a ScheduleController the helpers
    // still need to be scheduled to finish, so step outside its view.
    sched::BlockingRegion joining;
    for (auto& h : helpers) h.join();
  }
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace loglens
