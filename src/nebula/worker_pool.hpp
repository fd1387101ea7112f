/// \file worker_pool.hpp
/// \brief The engine-wide worker pool every query executes on.
///
/// A `WorkerPool` owns a set of worker threads pulling from one FIFO ready
/// queue. An entry is either a *strand* — a FIFO task queue with the actor
/// guarantee that at most one worker runs its tasks at any moment, in post
/// order — or a free-standing *task*, which the engine uses for a query's
/// ingest: one step fills, seals and pushes one buffer and then yields. A
/// yielding task keeps its worker while every ready entry has a worker on
/// its way, and otherwise re-queues behind them (post→run fairness across
/// queries). The engine gives every dispatch target of a parallel query
/// (each fan-out branch, each key partition of a stateful operator, each
/// attached branch) its own strand, so a stateful operator instance is only
/// ever touched by one task at a time and per-strand buffer order is
/// preserved, while distinct strands run concurrently across the pool.
///
/// Workers start on demand: a post that finds no idle worker for what is
/// ready starts one, up to `max_workers`. A lone sequential query therefore
/// runs on exactly one pool thread. Idle workers are woken after the lock
/// is released, so a woken worker does not block on it again at once.
///
/// No pool task blocks on engine-internal progress — strand room, another
/// task, another query's drain. Backpressure is explicit instead, and a
/// post never blocks. Each post names its `Poster`, an ingest step
/// (`Poster::kIngest`) or a strand task fanning out to key partitions
/// (`Poster::kWorker`). At `strand_capacity` queued tasks:
///
/// - a post that does not shed enqueues and reports `kFull`, and the
///   query's ingest *parks* (`ParkUntilRoom`) on that strand before its
///   next step instead of re-posting itself; the task whose completion
///   brings the strand back below capacity re-arms it. Worker posts never
///   shed, and ingest posts do not under `ShedPolicy::kBlock`. An
///   ingest-fed strand so holds at most `strand_capacity` queued tasks,
///   plus whatever further batches the same ingest step hands it (a root
///   operator that emits several batches for one buffer, or end-of-stream
///   under a shed policy). A worker-fed strand may in addition take one
///   batch per task still queued upstream of it, so it is bounded too;
/// - under `kDropOldest` an ingest post evicts the oldest queued morsel of
///   the full strand, under `kDropLate` it refuses the incoming one, and
///   either way reports `kShed`. Only data morsels shed: an end-of-stream
///   post (`sheddable = false`) always enqueues, so every target's
///   `Finish` runs.
///
/// Bounded queues bound the buffers their batches pin, so buffer
/// allocation need not block either (`ExecutionContext::Allocate`).
///
/// The one wait the pool tolerates is a `Source::Fill` that itself waits
/// (a paced source sleeping until its next record is due, a gated test or
/// benchmark source): such a `Fill` holds its worker for the duration, and
/// the pool starts another worker for whatever else is ready.
///
/// The locking discipline (one pool mutex guarding the ready queue and
/// every strand's queue) is machine-checked: the CI clang build runs
/// `-Wthread-safety` over the `NM_GUARDED_BY`/`NM_REQUIRES` annotations
/// below.

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

/// \brief Grow-on-demand pool of worker threads executing strand-serialized
/// tasks and free-standing yielding tasks.
class WorkerPool {
 public:
  /// Who posts to a strand — decides whether a post to a full strand may
  /// shed.
  enum class Poster {
    kIngest,  ///< a query's ingest step: sheds under a shed policy
    kWorker,  ///< a strand task fanning out: never sheds
  };

  /// What a strand post did.
  enum class PostResult {
    kQueued,  ///< enqueued
    /// Enqueued, and the strand now holds `strand_capacity` tasks or
    /// more: the ingest feeding it should `ParkUntilRoom` before its next
    /// step. Ingest posts under a shed policy shed instead.
    kFull,
    /// One of this strand's morsels was discarded unrun: the posted task
    /// (refused by `kDropLate`, or posted during shutdown) or the oldest
    /// queued one (evicted by `kDropOldest`). The strand's queue grew by
    /// one task less than posted.
    kShed,
  };

  /// A free-standing task. It runs again for as long as it returns true:
  /// at once on the same worker while every ready entry has a worker on
  /// its way, else re-queued at the back of the ready queue.
  using Task = std::function<bool()>;

  /// \brief One FIFO task queue: tasks run in post order, never
  /// concurrently with each other, on whichever worker picks the strand
  /// up. Created via `WorkerPool::MakeStrand`; must stay alive until its
  /// queued tasks have run.
  class Strand {
   public:
    Strand(const Strand&) = delete;
    Strand& operator=(const Strand&) = delete;

    /// Enqueues \p task, or sheds at the strand bound (see the file
    /// comment); never blocks. A task that is not \p sheddable
    /// (end-of-stream) is never refused, and never evicted either, as long
    /// as it is the strand's last post.
    PostResult Post(std::function<void()> task, Poster poster,
                    bool sheddable = true);

    /// Tasks queued and not yet started.
    size_t queued() const;

   private:
    friend class WorkerPool;
    explicit Strand(WorkerPool* pool) : pool_(pool) {}

    WorkerPool* pool_;
    std::deque<std::function<void()>> tasks_ NM_GUARDED_BY(pool_->mutex_);
    /// Queued in ready_ or running on a worker.
    bool scheduled_ NM_GUARDED_BY(pool_->mutex_) = false;
    /// The ingest parked until this strand drops below capacity.
    Task parked_ NM_GUARDED_BY(pool_->mutex_);
  };

  /// Starts up to \p max_workers threads (at least 1), one at a time as
  /// posts need them. \p strand_capacity bounds each strand's queued (not
  /// yet started) tasks; 0 = unbounded. \p shed_policy decides what an
  /// ingest post does at the bound (see file comment).
  explicit WorkerPool(size_t max_workers, size_t strand_capacity = 0,
                      ShedPolicy shed_policy = ShedPolicy::kBlock);

  /// Runs every remaining task to completion, then joins the workers.
  /// Tasks posted while it does are dropped.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Creates a new strand bound to this pool.
  std::unique_ptr<Strand> MakeStrand();

  /// Queues a free-standing task (see `Task`).
  void Post(Task task) NM_EXCLUDES(mutex_);

  /// Parks \p resume until \p strand holds fewer than `strand_capacity`
  /// queued tasks: the worker finishing the task that frees the room
  /// queues it. Returns false — nothing parked, the caller goes on —
  /// when the strand already has room. One parked task per strand.
  bool ParkUntilRoom(Strand* strand, Task resume) NM_EXCLUDES(mutex_);

  /// Morsels shed at saturated strand queues (0 under `kBlock`).
  uint64_t tasks_shed() const {
    return tasks_shed_.load(std::memory_order_relaxed);
  }

 private:
  /// One ready-queue entry: a strand with queued tasks, or a task.
  struct Ready {
    Strand* strand = nullptr;
    Task task;  ///< set when `strand` is null
  };

  PostResult Post(Strand* strand, std::function<void()> task, Poster poster,
                  bool sheddable) NM_EXCLUDES(mutex_);
  /// Queues \p entry for a worker. Like `WakeFor`, returns true when the
  /// caller must wake an idle worker (`ready_cv_.NotifyOne()`) once it has
  /// released the lock.
  bool Schedule(Ready entry) NM_REQUIRES(mutex_);
  /// Queues \p entry from a worker that is about to take the ready front
  /// itself; returns as `Schedule`.
  bool Requeue(Ready entry) NM_REQUIRES(mutex_);
  /// Sees to it that a worker is on its way for each of the first
  /// \p entries ready entries: claims an idle worker (returns true: the
  /// caller wakes it), or starts one while the pool is below
  /// `max_workers_`.
  bool WakeFor(size_t entries) NM_REQUIRES(mutex_);
  void WorkerMain() NM_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  CondVar ready_cv_;  // workers: an entry became ready
  /// Strands with queued tasks and free-standing tasks, FIFO.
  std::deque<Ready> ready_ NM_GUARDED_BY(mutex_);
  /// Workers waiting on ready_cv_, and how many of them were woken and
  /// have not yet returned to the queue (a spurious wake-up may make this
  /// an underestimate, which only costs an extra wake-up).
  size_t idle_ NM_GUARDED_BY(mutex_) = 0;
  size_t notified_ NM_GUARDED_BY(mutex_) = 0;
  /// Workers started that have not yet reached the queue.
  size_t starting_ NM_GUARDED_BY(mutex_) = 0;
  size_t max_workers_;
  size_t strand_capacity_;
  ShedPolicy shed_policy_;
  std::atomic<uint64_t> tasks_shed_{0};
  bool stop_ NM_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_ NM_GUARDED_BY(mutex_);
};

}  // namespace nebulameos::nebula
