// Fork-join parallelism for batch work off the streaming path (model
// building): one call cuts an index range into blocks, runs them on
// short-lived threads, and returns when every block has run.
//
// Threads come from sched::spawn_named, so the schedule explorer and the
// sanitizers see them like every other thread of the process. Callers that
// need output independent of the thread count write each block's results
// into index-addressed slots and combine them afterwards in index order.
#pragma once

#include <cstddef>
#include <functional>

namespace loglens {

// Threads parallel_for may use: std::thread::hardware_concurrency(), at
// least 1.
size_t parallel_threads();

// Calls body(begin, end) for the consecutive blocks of `grain` indices that
// cover [0, n) (the last block may be shorter). min(parallel_threads(),
// blocks) threads, the caller's among them, claim blocks in index order
// until none is left; a range of at most `grain` indices runs on the caller
// alone. The first exception a block throws is rethrown once every thread
// has joined.
void parallel_for(size_t n, size_t grain,
                  const std::function<void(size_t begin, size_t end)>& body);

}  // namespace loglens
