/// \file worker_pool.hpp
/// \brief The morsel-driven worker pool behind multi-core query execution.
///
/// A `WorkerPool` owns a fixed set of worker threads pulling tasks from
/// *strands* — FIFO task queues with the actor guarantee that at most one
/// worker runs a given strand's tasks at any moment, in post order. The
/// engine gives every dispatch target of a compiled pipeline tree (each
/// fan-out branch, each key partition of a stateful operator) its own
/// strand, so a stateful operator instance is only ever touched by one
/// task at a time and per-strand buffer order is preserved, while distinct
/// strands run concurrently across the pool.
///
/// Posts from outside the pool (the ingest thread) block while the target
/// strand holds `strand_capacity` queued tasks — the bounded morsel queue
/// that backpressures ingest against slow operators. Posts *from worker
/// threads* (a branch task fanning out to key partitions) never block:
/// a worker that blocked on a full queue could deadlock the pool, and the
/// memory these posts pin is already bounded by the buffer pools backing
/// the batches they carry.
///
/// Graceful degradation: a `ShedPolicy` other than the default `kBlock`
/// turns saturation into load shedding instead of backpressure —
/// `kDropOldest` evicts the oldest queued morsel of the full strand,
/// `kDropLate` refuses the incoming one. Shed morsels are counted
/// (`tasks_shed`), never silently lost from the accounting. Only data
/// morsels shed: an end-of-stream post blocks for room instead, so every
/// target's `Finish` runs.
///
/// The locking discipline (one pool mutex guarding every strand's queue)
/// is machine-checked: the CI clang build runs `-Wthread-safety` over the
/// `NM_GUARDED_BY`/`NM_REQUIRES` annotations below.

#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "nebula/fault.hpp"

namespace nebulameos::nebula {

/// \brief Fixed pool of worker threads executing strand-serialized tasks.
class WorkerPool {
 public:
  /// \brief One FIFO task queue: tasks run in post order, never
  /// concurrently with each other, on whichever worker picks the strand
  /// up. Created via `WorkerPool::MakeStrand`; must not outlive the pool.
  class Strand {
   public:
    Strand(const Strand&) = delete;
    Strand& operator=(const Strand&) = delete;

    /// Enqueues \p task. Blocks while the strand is at capacity, unless
    /// the caller is itself a pool worker (worker posts never block).
    /// Tasks posted after the pool started shutting down are dropped.
    /// Returns false when the post discarded one of this strand's morsels
    /// unrun: \p task itself (refused by `kDropLate`, or posted during
    /// shutdown) or the oldest queued one (evicted by `kDropOldest`).
    /// Either way the strand's queue grew by one task less than posted.
    /// A task that is not \p sheddable (end-of-stream) is never refused:
    /// at capacity it blocks as under `kBlock`. It is never evicted
    /// either, as long as it is the strand's last post.
    bool Post(std::function<void()> task, bool sheddable = true);

   private:
    friend class WorkerPool;
    explicit Strand(WorkerPool* pool) : pool_(pool) {}

    WorkerPool* pool_;
    std::deque<std::function<void()>> tasks_ NM_GUARDED_BY(pool_->mutex_);
    /// Queued in ready_ or running on a worker.
    bool scheduled_ NM_GUARDED_BY(pool_->mutex_) = false;
  };

  /// Spawns \p workers threads. \p strand_capacity bounds each strand's
  /// queued (not yet started) tasks for non-worker posters; 0 = unbounded.
  /// \p shed_policy decides what a non-worker post does at the bound:
  /// block until capacity frees (default), or shed a morsel (see file
  /// comment). Worker posts always enqueue regardless.
  explicit WorkerPool(size_t workers, size_t strand_capacity = 0,
                      ShedPolicy shed_policy = ShedPolicy::kBlock);

  /// Runs every remaining task to completion, then joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Creates a new strand bound to this pool.
  std::unique_ptr<Strand> MakeStrand();

  /// Blocks until every posted task (including tasks posted by tasks)
  /// has finished executing and released its captures.
  void Drain() NM_EXCLUDES(mutex_);

  /// True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;

  size_t num_workers() const { return threads_.size(); }

  /// Morsels shed at saturated strand queues (0 under `kBlock`).
  uint64_t tasks_shed() const {
    return tasks_shed_.load(std::memory_order_relaxed);
  }

 private:
  bool Post(Strand* strand, std::function<void()> task, bool sheddable)
      NM_EXCLUDES(mutex_);
  void WorkerMain() NM_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  CondVar ready_cv_;    // workers: a strand became ready
  CondVar space_cv_;    // bounded posters: capacity freed
  CondVar drained_cv_;  // Drain: pending_ hit zero
  /// Strands with queued tasks, FIFO.
  std::deque<Strand*> ready_ NM_GUARDED_BY(mutex_);
  /// Posted tasks not yet completed.
  size_t pending_ NM_GUARDED_BY(mutex_) = 0;
  size_t strand_capacity_;
  ShedPolicy shed_policy_;
  std::atomic<uint64_t> tasks_shed_{0};
  bool stop_ NM_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;  // immutable after construction
};

}  // namespace nebulameos::nebula
