#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/mpmc_queue.hpp"

namespace llmpq {

/// Below this many multiply-accumulates the fork/join overhead of the pool
/// outweighs the parallel speedup of qgemm() and gemv_argmax(); measured
/// on small CPU hosts.
inline constexpr std::size_t kParallelWorkThreshold = 64 * 1024;

/// attend()'s counterpart, in attended (position, feature) pairs. On a
/// 4-core AVX-512 host an isolated fork pays from ~100K pairs (8 decode
/// rows over 30 positions at hidden 768: ~58 us serial, ~43 us forked),
/// but in the engine the pool is shared with the other stages' qgemm, so
/// chat-sized passes (contexts of 30 tokens or fewer, <= 184K pairs) stay
/// serial with margin while a 4-row decode over 520 positions (1.6M
/// pairs: ~890 us serial, ~340 us forked) forks.
inline constexpr std::size_t kAttnParallelWorkThreshold = 512 * 1024;

/// Fixed-size thread pool used for embarrassingly parallel sweeps (profiling
/// grids, per-ordering planner solves) and the threaded qgemm kernel. Tasks
/// are type-erased closures; use submit() to get a future, or parallel_for
/// for an indexed loop with static chunking (OpenMP-style "parallel for
/// schedule(static)").
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads =
                          std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Process-wide pool shared by every pipeline stage and planner sweep
  /// (lazily created; sized from LLMPQ_THREADS or hardware_concurrency).
  /// Sharing one pool keeps total CPU oversubscription bounded no matter
  /// how many stages call into threaded kernels concurrently.
  static ThreadPool& shared();

  /// Throws Error if the pool has been shut down — a dropped task whose
  /// future never becomes ready would deadlock the caller otherwise.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    if (!tasks_.push([task] { (*task)(); }))
      throw Error("ThreadPool::submit: pool has been shut down");
    return fut;
  }

  /// Runs fn(i) for i in [0, n) across the pool; blocks until all complete.
  /// Exceptions from tasks propagate (the first one observed is rethrown).
  /// The calling thread participates, so this is safe to invoke from
  /// multiple threads concurrently (each call makes progress on its own).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Stops accepting tasks, drains the queue and joins the workers.
  /// Idempotent; called by the destructor. Subsequent submit() calls throw.
  void shutdown();

  /// True when the calling thread is a pool worker (of any ThreadPool).
  /// Nested parallel kernels use this to fall back to serial execution
  /// instead of blocking on futures their own pool may never run.
  static bool inside_worker();

  /// The threaded kernels' fork rule: run serially on a 1-thread pool,
  /// from inside a pool worker, or when `work` is below `threshold`.
  bool run_serial(std::size_t work, std::size_t threshold) const {
    return size() <= 1 || inside_worker() || work < threshold;
  }

 private:
  void worker_loop();

  MpmcQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
};

}  // namespace llmpq
