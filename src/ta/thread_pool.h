// A small, lazily-started worker pool for the parallel execution layer
// (docs/PARALLEL.md). It has two users: the diffcheck sweep, which shards
// iteration ranges, and the kValidateBatch fan-out, which shards documents.
// Every automaton operation is serial.
//
// The pool owns up to hardware_concurrency() - 1 persistent threads, spawned
// on the first Run() that needs them; a process that never requests
// num_threads > 1 never starts a thread. Run(n, body) executes body(0) ...
// body(n-1) — the *worker shares* of one parallel operation — across the
// caller thread plus however many pool threads are idle, and blocks until
// every share finished. Shares are claimed from a single atomic cursor, so an
// idle pool thread steals whichever share the caller has not reached yet.
//
// Deadlock discipline: Run() never waits for a pool thread to pick a share
// up — the calling thread claims shares itself until none remain, then waits
// only for shares already *in flight* on other threads. Nested Run() calls
// (a batch fan-out inside a sweep share) therefore always make progress:
// worst case the nested caller executes every nested share serially.
//
// The pool is deliberately oblivious to budgets, deadlines, and counters:
// callers pass each share its own forked TaOpContext and merge on join
// (see TaOpContext::Fork / MergeChild in src/ta/op_context.h).

#ifndef PEBBLETC_TA_THREAD_POOL_H_
#define PEBBLETC_TA_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/ta/op_context.h"

namespace pebbletc {

class TaThreadPool {
 public:
  /// The process-wide pool. Construction is cheap (no threads yet); threads
  /// start on the first Run() with num_workers > 1.
  static TaThreadPool& Instance();

  /// max(1, std::thread::hardware_concurrency()).
  static uint32_t HardwareWorkers();

  /// Runs body(0..num_workers-1), caller participating, and returns when all
  /// shares completed. num_workers <= 1 calls body(0) inline with no
  /// synchronization at all (the serial path stays the serial path).
  /// `body` must not throw.
  void Run(uint32_t num_workers, const std::function<void(uint32_t)>& body);

  /// Threads currently started (for tests / diagnostics).
  uint32_t started_threads() const;

  ~TaThreadPool();
  TaThreadPool(const TaThreadPool&) = delete;
  TaThreadPool& operator=(const TaThreadPool&) = delete;

 private:
  TaThreadPool() = default;

  // One parallel operation: `next` is the share-claim cursor, `done` counts
  // completed shares. The job leaves the queue once every share is claimed;
  // completion is signalled through its own condvar so concurrent Run()s
  // do not wake each other spuriously.
  struct Job {
    std::function<void(uint32_t)> body;
    uint32_t total = 0;
    std::atomic<uint32_t> next{0};
    std::atomic<uint32_t> done{0};
    std::mutex mu;
    std::condition_variable all_done;
  };

  void EnsureThreads(uint32_t want);
  void WorkerLoop();
  // Claims and runs shares of `job` until none remain; returns the number of
  // shares this thread executed.
  static uint32_t RunShares(Job& job);

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::shared_ptr<Job>> queue_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

/// Resolves the worker count an operation should actually use for `ctx`:
/// budgets.num_threads, with 0 mapped to hardware concurrency. A context
/// carrying a fault injector is always serial — injection ordinals are only
/// deterministic on the serial path — and so is a null context.
inline uint32_t TaEffectiveThreads(const TaOpContext* ctx) {
  if (ctx == nullptr || ctx->fault != nullptr) return 1;
  const uint32_t n = ctx->budgets.num_threads;
  return n == 0 ? TaThreadPool::HardwareWorkers() : n;
}

}  // namespace pebbletc

#endif  // PEBBLETC_TA_THREAD_POOL_H_
