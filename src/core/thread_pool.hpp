// Persistent worker pool for shard-parallel loops.
//
// One pool serves many dispatch rounds: run(n_shards, fn) hands shard
// indices [0, n_shards) to the workers and blocks until every shard has
// finished. The calling thread participates as a worker, so a pool built
// for N threads holds N-1 OS threads. Shards are claimed under the pool
// mutex — shards are coarse (typically one per thread), so the lock is
// cold and the claim path stays trivially race-free across generations.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace lbist::core {

/// The persistent shard-parallel worker pool of the file comment.
class ThreadPool {
 public:
  /// `threads` is the total parallelism including the caller; the pool
  /// spawns `threads - 1` workers. `threads == 0` uses the hardware
  /// concurrency (at least 1).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + caller).
  [[nodiscard]] unsigned threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs fn(shard) for every shard in [0, n_shards). Shards are claimed
  /// dynamically, so uneven shard costs still balance. Blocks until all
  /// shards complete; fn must not call run() on the same pool.
  ///
  /// A throwing shard never escapes a worker thread (which would
  /// std::terminate the process): every exception is captured, the
  /// remaining shards still run to completion, and after the round the
  /// exception from the lowest-numbered throwing shard is rethrown on
  /// the caller — a deterministic merge point regardless of which
  /// thread executed the shard. Callers that need per-shard failure
  /// granularity catch inside fn and record structured results instead.
  void run(unsigned n_shards, const std::function<void(unsigned)>& fn);

 private:
  void workerLoop();
  void runShardCaptured(const std::function<void(unsigned)>& fn,
                        unsigned shard);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* job_ = nullptr;
  // Exceptions captured this round, keyed by shard; rethrow picks the
  // lowest shard so the surfaced error is thread-schedule independent.
  std::vector<std::pair<unsigned, std::exception_ptr>> errors_;
  unsigned n_shards_ = 0;
  unsigned next_shard_ = 0;
  unsigned pending_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace lbist::core
