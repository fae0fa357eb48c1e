//===- core/WorkerPool.h - Persistent priority worker pool -----*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent fixed-size worker pool draining one bounded MPMC priority
/// queue — the execution substrate shared by the CompileService (one task
/// per compile job) and core::compileBatch (one task per batch slot on a
/// caller-owned pool). Higher priorities run first; equal priorities run in
/// submission order, so a FIFO workload stays a FIFO. The queue bound
/// applies backpressure: post() blocks while the queue is full instead of
/// letting producers grow it without limit.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_WORKERPOOL_H
#define WEAVER_CORE_WORKERPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace weaver {
namespace core {

/// WorkerPool configuration.
struct PoolOptions {
  /// Worker threads; 0 selects std::thread::hardware_concurrency()
  /// (minimum 1).
  int NumThreads = 0;
  /// Maximum queued (not yet running) tasks; post() blocks at the bound.
  /// 0 means unbounded.
  size_t QueueCapacity = 0;
};

/// Fixed-size thread pool over a bounded priority queue.
class WorkerPool {
public:
  explicit WorkerPool(PoolOptions Options = {});
  /// Drains the queue and joins the workers (shutdown(/*Drain=*/true)).
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  /// Enqueues \p Task; blocks while the queue is at capacity. Returns
  /// false (dropping the task) once shutdown has begun. Must not be
  /// called from a worker of this pool when the queue is bounded: a full
  /// queue would then deadlock against the blocked worker.
  bool post(std::function<void()> Task, int Priority = 0);

  /// Outcome of a non-blocking tryPost.
  enum class PostResult { Posted, Full, Stopped };

  /// Non-blocking post: never waits on the queue bound. Returns Full
  /// (dropping the task) when the queue is at capacity — the admission
  /// layer turns that into load shedding instead of a blocked accept
  /// loop — and Stopped once shutdown has begun.
  PostResult tryPost(std::function<void()> Task, int Priority = 0);

  /// Stops the pool and joins all workers. Drain=true runs every queued
  /// task first; Drain=false discards the queue (running tasks always
  /// finish). Idempotent; post() fails afterwards.
  void shutdown(bool Drain = true);

  /// Immutable after construction (shutdown empties Workers, but the
  /// configured width stays meaningful for diagnostics).
  int numThreads() const { return NumWorkers; }
  /// Tasks currently waiting in the queue (diagnostic snapshot).
  size_t queueDepth() const;

private:
  struct Item {
    int Priority = 0;
    uint64_t Seq = 0;
    std::function<void()> Task;
    /// Max-heap on priority; ties resolve to the oldest submission.
    bool operator<(const Item &Other) const {
      if (Priority != Other.Priority)
        return Priority < Other.Priority;
      return Seq > Other.Seq;
    }
  };

  void workerLoop();

  mutable std::mutex Mutex;
  std::condition_variable NotEmpty; ///< signalled on enqueue/shutdown
  std::condition_variable NotFull;  ///< signalled on dequeue/shutdown
  std::priority_queue<Item> Queue;
  size_t Capacity;
  int NumWorkers = 0;
  uint64_t NextSeq = 0;
  bool Stopping = false;  ///< no further posts accepted
  bool Discarding = false; ///< workers must not pop the remaining queue
  std::vector<std::thread> Workers;
};

} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_WORKERPOOL_H
