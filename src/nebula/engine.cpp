#include "nebula/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <thread>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "nebula/analysis/pipeline_verifier.hpp"
#include "nebula/analysis/plan_verifier.hpp"
#include "nebula/worker_pool.hpp"

namespace nebulameos::nebula {

namespace {

// Queued (not yet started) morsels a dispatch target's strand holds before
// the query's ingest parks on it — or, under a shed policy, before an
// ingest post sheds (see worker_pool.hpp).
constexpr size_t kStrandCapacity = 8;

// Worker count resolution: an explicit option wins; otherwise the
// NM_WORKER_THREADS environment variable (the CI/TSan toggle that forces
// every test through the concurrent path unchanged); otherwise 1. A
// malformed value is an error rather than a silent default, so a typo in
// a CI job cannot quietly run the suite single-threaded.
Result<size_t> ResolveWorkerThreads(size_t configured) {
  if (configured > 0) return configured;
  const char* env = std::getenv("NM_WORKER_THREADS");
  if (env == nullptr || *env == '\0') return size_t{1};
  // Bounded so a stray large value cannot ask for millions of threads.
  constexpr int64_t kMaxWorkers = 1024;
  const Result<int64_t> parsed = ParseInt64(env);
  if (!parsed.ok() || *parsed <= 0 || *parsed > kMaxWorkers) {
    return Status::InvalidArgument("NM_WORKER_THREADS='" + std::string(env) +
                                   "' is not a worker count in 1.." +
                                   std::to_string(kMaxWorkers));
  }
  return static_cast<size_t>(*parsed);
}

CompileOptions MakeCompileOptions(const EngineOptions& options,
                                  size_t partitions) {
  CompileOptions copts;
  copts.compiled_kernels = options.compiled_kernels;
  copts.partitions = partitions;
  copts.faults = options.faults;
  return copts;
}

// splitmix64 finalizer: partition router hash for integer keys. The raw
// key must not pick the partition directly — sequential ids would then
// map adjacent keys to adjacent partitions and skew under stride
// patterns.
uint64_t HashKeyInt(int64_t v) {
  uint64_t x = static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// FNV-1a: partition router hash for text keys.
uint64_t HashKeyText(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Depth-first visit of every segment of a compiled pipeline tree.
template <typename Fn>
void ForEachSegment(const CompiledPipeline& seg, const Fn& fn) {
  fn(seg);
  for (const CompiledPipeline& branch : seg.branches) {
    ForEachSegment(branch, fn);
  }
}

}  // namespace

struct NodeEngine::RunningQuery {
  int id = 0;
  SourcePtr source;
  CompiledPipeline pipeline;  // operator tree; sinks at the leaves
  std::unique_ptr<ExecutionContext> ctx;

  std::atomic<bool> cancel{false};
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};

  // --- Execution on the engine's pool ---
  NodeEngine* engine = nullptr;
  // Every target but the root has a strand when the query is parallel
  // (`worker_threads` > 1); otherwise every target runs inline inside the
  // ingest step.
  bool parallel = false;
  // Tasks queued or running, plus one for the ingest from `Start` until it
  // stops. The decrement that reaches zero completes the query.
  std::atomic<int64_t> pending{0};
  // Morsels shed at this query's strands.
  std::atomic<uint64_t> tasks_shed{0};
  // Ingest state, touched only by ingest steps (one at a time, handed on
  // through the pool's mutex).
  Status ingest_status;
  bool source_done = false;
  // Published by `Complete`, under the engine's completion mutex.
  Status run_status NM_GUARDED_BY(engine->done_mutex_);

  // Ingest-side counters (source output).
  std::atomic<uint64_t> events_ingested{0};
  std::atomic<uint64_t> bytes_ingested{0};
  std::atomic<int64_t> started_at{0};
  std::atomic<int64_t> finished_at{0};

  // Plan renderings captured at submission (the plan is consumed).
  QueryPlanText plan_text;

  // --- Observability (docs/ARCHITECTURE.md "Observability") ---
  // The query's instrument registry. Instruments are resolved once at
  // submission or admission (BindTargets) and recorded through raw
  // pointers on the hot path — relaxed atomics, no lock, no map lookup.
  std::unique_ptr<metrics::MetricsRegistry> metrics;
  bool metrics_on = false;
  // Verify-each: check the batch contract (sealed buffer, ascending
  // in-bounds selection) at every segment entry, and strand ownership
  // whenever strands are made. Set from `OptimizerOptions::verify_each`.
  bool verify_batches = false;
  // Engine-level flow counters and the rate gauges `PublishRates` derives
  // from them whenever the metrics are read.
  metrics::Counter* m_events_ingested = nullptr;
  metrics::Counter* m_bytes_ingested = nullptr;
  metrics::Counter* m_events_emitted = nullptr;
  metrics::Counter* m_bytes_emitted = nullptr;
  metrics::Gauge* m_ingest_rate = nullptr;
  metrics::Gauge* m_emit_rate = nullptr;
  // The previous read's window end and counter values: each read's rates
  // cover the window since then (since `Start` for the first read).
  Mutex rate_mutex;
  int64_t rate_window_start NM_GUARDED_BY(rate_mutex) = 0;
  uint64_t rate_last_in NM_GUARDED_BY(rate_mutex) = 0;
  uint64_t rate_last_out NM_GUARDED_BY(rate_mutex) = 0;

  // --- Dispatch targets ---
  // One record per pipeline a sealed batch is handed to: each static
  // fan-out branch, each key-partition clone, each attached branch, plus
  // the root segment (which runs on the posting thread). The records
  // mirror the compiled tree, so the hot path reaches a target's strand
  // and instruments through its own pointers, and admitting a branch
  // writes only the new branch's record — never one the running host
  // reads.
  struct DynamicBranch;
  struct Target {
    CompiledPipeline* seg = nullptr;
    DynamicBranch* owner = nullptr;  ///< set on an attached branch
    /// Keeps the target's stateful operators single-threaded and its
    /// buffer order intact; null on the root and in sequential queries,
    /// whose targets run inline.
    std::unique_ptr<WorkerPool::Strand> strand;
    /// Backpressure instruments, keyed by segment path: partition clones
    /// carry their segment's path and share its gauge and histogram, so
    /// metric names do not depend on the worker count.
    metrics::Gauge* queue_depth = nullptr;    ///< queued tasks at the last read
    metrics::Histogram* task_wait = nullptr;  ///< post → run latency
    std::vector<std::unique_ptr<Target>> branches;    ///< seg->branches
    std::vector<std::unique_ptr<Target>> partitions;  ///< seg->partitions

    std::string Path() const { return seg->path.empty() ? "root" : seg->path; }
  };
  Target root;  ///< mirrors `pipeline`

  // --- Dynamic branches (shared-query serving) ---
  // A shared host's root segment ends without a sink; its tail posts to
  // whatever branches are attached *at that moment*. Each branch carries
  // its own compiled suffix (ending in a sink) and dispatch target, under
  // the `b<id>` path.
  struct DynamicBranch {
    int id = 0;
    CompiledPipeline pipeline;
    Target target;  ///< `target.owner` points back here
    std::atomic<bool> detached{false};
    /// Why the engine force-detached the branch (OK for a clean detach).
    /// Guarded by the host's dyn_mutex.
    Status failure;
  };
  bool shared_host = false;  ///< submitted via `SubmitShared`
  // Guards the branch vectors, `next_branch_id`, strand creation and the
  // full-strand list. Never held across engine waits.
  mutable Mutex dyn_mutex;
  std::vector<std::unique_ptr<DynamicBranch>> dyn_branches
      NM_GUARDED_BY(dyn_mutex);
  // Strands a post filled to capacity: the ingest parks on each before
  // its next step, which bounds every strand of the query.
  std::vector<WorkerPool::Strand*> full_strands NM_GUARDED_BY(dyn_mutex);
  // Detached branches parked until host teardown: queued tasks may still
  // reference a branch's target, and its strand may still be under a
  // worker's post-task bookkeeping, so nothing of a branch dies before
  // the host — and the engine joins its pool before any host dies.
  std::vector<std::unique_ptr<DynamicBranch>> retired_dyn
      NM_GUARDED_BY(dyn_mutex);
  int next_branch_id NM_GUARDED_BY(dyn_mutex) = 1;

  // Task failure handling: *every* strand error is recorded with the
  // dispatch-target path it occurred on, and `failed` makes later tasks
  // short-circuit. The query's final status is the first *root cause*:
  // the earliest non-Cancelled error (a worker that trips over a
  // neighbour's teardown reports Cancelled — a symptom, not the cause),
  // annotated with its path and the count of secondary errors it masked.
  struct TaskError {
    std::string path;
    Status status;
  };
  std::atomic<bool> failed{false};
  Mutex error_mutex;
  std::vector<TaskError> errors NM_GUARDED_BY(error_mutex);

  void RecordFailure(const Status& st) { RecordFailure("root", st); }

  void RecordFailure(const std::string& path, const Status& st) {
    {
      MutexLock lock(error_mutex);
      errors.push_back({path, st});
    }
    failed.store(true, std::memory_order_relaxed);
  }

  Status FirstRootCause() NM_EXCLUDES(error_mutex) {
    MutexLock lock(error_mutex);
    if (errors.empty()) return Status::OK();
    const TaskError* root = &errors.front();
    for (const TaskError& e : errors) {
      if (e.status.code() != StatusCode::kCancelled) {
        root = &e;
        break;
      }
    }
    std::string msg = "[" + root->path + "] " + root->status.message();
    if (errors.size() > 1) {
      msg += " (+" + std::to_string(errors.size() - 1) +
             " secondary error(s))";
    }
    return Status(root->status.code(), std::move(msg));
  }

  // Mirrors `seg`'s compiled tree into `t` and, with metrics on, resolves
  // every instrument out of the registry: per-operator latency/batch-size
  // histograms (DAG-path prefix, fused kernels expanding per stage),
  // per-channel wire counters, and the target's strand gauge/histogram
  // pair. Shared partition sinks re-bind to the same names — the registry
  // returns the same pointers.
  void BindTargets(Target* t, CompiledPipeline* seg) {
    t->seg = seg;
    if (metrics_on) {
      const std::string prefix = seg->path.empty() ? "" : seg->path + "/";
      const std::string path_key = t->Path();
      for (OperatorPtr& op : seg->operators) {
        op->BindMetrics(metrics.get(), prefix);
      }
      if (seg->sink) seg->sink->BindMetrics(metrics.get(), prefix);
      for (size_t i = 0; i < seg->channels.size(); ++i) {
        const std::shared_ptr<NetworkChannel>& ch = seg->channels[i];
        const std::string base = "channel." + path_key + "." +
                                 std::to_string(i) + "." +
                                 std::to_string(ch->from_node()) + "->" +
                                 std::to_string(ch->to_node());
        ch->BindMetrics(metrics->GetCounter(base + ".wire_bytes"),
                        metrics->GetCounter(base + ".frames"),
                        metrics->GetCounter(base + ".events"),
                        metrics->GetHistogram(base + ".transfer_micros"));
        ch->BindFaultMetrics(metrics->GetCounter(base + ".frames_dropped"),
                             metrics->GetCounter(base + ".retransmits"),
                             metrics->GetCounter(base + ".frames_shed"));
      }
      t->queue_depth =
          metrics->GetGauge("worker.strand." + path_key + ".queue_depth");
      t->task_wait = metrics->GetHistogram("worker.strand." + path_key +
                                           ".task_wait_micros");
    }
    for (CompiledPipeline& branch : seg->branches) {
      t->branches.push_back(std::make_unique<Target>());
      BindTargets(t->branches.back().get(), &branch);
    }
    for (CompiledPipeline& part : seg->partitions) {
      t->partitions.push_back(std::make_unique<Target>());
      BindTargets(t->partitions.back().get(), &part);
    }
  }

  // Gives `t` and every target below it a strand, once.
  void MakeStrand(Target* t,
                  std::vector<std::pair<std::string, const void*>>* owners) {
    if (!t->strand) t->strand = engine->pool_->MakeStrand();
    owners->emplace_back(t->Path(), t->strand.get());
    for (auto& branch : t->branches) MakeStrand(branch.get(), owners);
    for (auto& part : t->partitions) MakeStrand(part.get(), owners);
  }

  // The one place strands are made: static branches and partition clones
  // at submission, attached branches at admission (the root runs inside
  // the ingest step). Verify-each proves the actor guarantee over all of
  // them — no strand serves two targets.
  Status MakeStrands() NM_REQUIRES(dyn_mutex) {
    std::vector<std::pair<std::string, const void*>> owners;
    for (auto& branch : root.branches) MakeStrand(branch.get(), &owners);
    for (auto& part : root.partitions) MakeStrand(part.get(), &owners);
    for (auto& br : dyn_branches) MakeStrand(&br->target, &owners);
    if (!verify_batches) return Status::OK();
    return analysis::VerifyStrandOwnership(owners);
  }

  // The branches attached right now. Copied under the lock and posted to
  // outside it, so admission and teardown contend only with this
  // per-buffer copy, never with branch execution.
  std::vector<Target*> AttachedTargets() const NM_EXCLUDES(dyn_mutex) {
    MutexLock lock(dyn_mutex);
    std::vector<Target*> targets;
    targets.reserve(dyn_branches.size());
    for (const auto& br : dyn_branches) targets.push_back(&br->target);
    return targets;
  }

  // Root posts come from the ingest step and may shed; posts from a strand
  // task (a branch fanning out to its key partitions) never do.
  WorkerPool::Poster PosterOf(const Target* from) const {
    return from == &root ? WorkerPool::Poster::kIngest
                         : WorkerPool::Poster::kWorker;
  }

  // The one hand-off to a dispatch target: one unit of `t`'s work — its
  // chain over `*batch`, or end-of-stream when `batch` is null — runs
  // inline without a strand, else as a task on `t`'s strand. Strand FIFO
  // order makes end-of-stream safe: every batch for the target was posted
  // before it, so Finish observes the complete stream. End-of-stream is
  // never shed. A post that fills the strand notes it, and the ingest
  // parks on it before its next step. Data hand-offs record their
  // post→run wait (zeros inline, where nothing ever queues — so the
  // instrument exists and reads 0 at one worker, matching the multi-worker
  // metric names).
  Status Post(WorkerPool::Poster poster, Target* t, const exec::Batch* batch) {
    const bool timed = metrics_on && batch != nullptr;
    if (!t->strand) {
      if (timed) t->task_wait->Record(0);
      return Run(t, batch);
    }
    const int64_t posted_at = timed ? MonotonicNowMicros() : 0;
    pending.fetch_add(1, std::memory_order_relaxed);
    std::optional<exec::Batch> task_batch;
    if (batch != nullptr) task_batch = *batch;
    const WorkerPool::PostResult result = t->strand->Post(
        [this, t, task_batch = std::move(task_batch), timed,
         posted_at]() mutable {
          if (timed) t->task_wait->Record(MonotonicNowMicros() - posted_at);
          // Cancelled queries drop queued morsels: cancel is not
          // end-of-stream, so no further state should be built.
          if (!failed.load(std::memory_order_relaxed) &&
              !cancel.load(std::memory_order_relaxed)) {
            (void)Run(t, task_batch ? &*task_batch : nullptr);
          }
          // The buffer recycles before the query can complete.
          task_batch.reset();
          TaskDone();
        },
        poster, /*sheddable=*/batch != nullptr);
    if (result == WorkerPool::PostResult::kShed) {
      // A shed task — this one refused, or the strand's oldest evicted —
      // never runs its `TaskDone`, so the post gives it here.
      tasks_shed.fetch_add(1, std::memory_order_relaxed);
      TaskDone();
    } else if (result == WorkerPool::PostResult::kFull) {
      MutexLock lock(dyn_mutex);
      full_strands.push_back(t->strand.get());
    }
    return Status::OK();
  }

  void TaskDone() {
    if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) Complete();
  }

  // Runs once, on the thread whose task finished last after the ingest
  // stopped. Ingest errors join the same all-errors model the strand
  // tasks record into, after them, so the reported status is uniformly
  // "first root cause, tagged with its task path, plus a secondary-error
  // count".
  void Complete() NM_EXCLUDES(engine->done_mutex_) {
    if (!ingest_status.ok()) RecordFailure(ingest_status);
    const Status status = FirstRootCause();
    if (!status.ok()) {
      NM_LOG_ERROR() << "query " << id << " failed: " << status.ToString();
    }
    finished_at.store(MonotonicNowMicros());
    MutexLock lock(engine->done_mutex_);
    run_status = status;
    finished.store(true);
    engine->done_cv_.NotifyAll();
  }

  Status AwaitCompletion() NM_EXCLUDES(engine->done_mutex_) {
    MutexLock lock(engine->done_mutex_);
    while (!finished.load()) engine->done_cv_.Wait(engine->done_mutex_);
    return run_status;
  }

  WorkerPool::Task IngestTask() {
    return [this] { return Ingest(); };
  }

  WorkerPool::Strand* NextFullStrand() NM_EXCLUDES(dyn_mutex) {
    MutexLock lock(dyn_mutex);
    if (full_strands.empty()) return nullptr;
    WorkerPool::Strand* strand = full_strands.back();
    full_strands.pop_back();
    return strand;
  }

  // One ingest step: fill one buffer, seal it and push it through the
  // root segment; returns true to run again (a yield, worker_pool.hpp). A
  // step never waits on the engine: while a strand of the query is full it
  // parks instead, and the task that frees the room re-posts it. After the
  // stream ends, one last step sends end-of-stream; on cancellation or
  // failure the ingest just stops. Either way the stopped ingest gives up
  // its pending count, so the query completes once its last task has run.
  bool Ingest() {
    if (parallel) {
      while (WorkerPool::Strand* strand = NextFullStrand()) {
        if (engine->pool_->ParkUntilRoom(strand, IngestTask())) return false;
      }
    }
    if (!source_done && !cancel.load() &&
        !failed.load(std::memory_order_relaxed)) {
      ingest_status = IngestBuffer(ctx->Allocate(source->schema()));
      if (ingest_status.ok()) return true;
    }
    // Cancellation is not end-of-stream: a cancelled query must not flush
    // its window/CEP state as if the stream completed, so the finish
    // cascade is skipped — partial panes are simply dropped with the query.
    if (ingest_status.ok() && !cancel.load()) {
      ingest_status = FinishSegment(&root);
    }
    TaskDone();
    return false;
  }

  Status IngestBuffer(TupleBufferPtr buf) {
    auto more = source->Fill(buf.get());
    if (!more.ok()) return more.status();
    events_ingested.fetch_add(buf->size());
    bytes_ingested.fetch_add(buf->SizeBytes());
    if (metrics_on) {
      m_events_ingested->Add(buf->size());
      m_bytes_ingested->Add(buf->SizeBytes());
    }
    if (!*more) source_done = true;
    if (buf->empty()) return Status::OK();
    buf->Seal();
    return PushThrough(&root, 0, exec::Batch(std::move(buf)));
  }

  // Publishes every target's queued-task count, read from its strand,
  // into its `queue_depth` gauge. Partition clones share their segment's
  // gauge, which shows the segment's and the clones' tasks together.
  static void PublishDepth(const Target& t) {
    size_t queued = t.strand ? t.strand->queued() : 0;
    for (const auto& part : t.partitions) {
      queued += part->strand ? part->strand->queued() : 0;
    }
    t.queue_depth->Set(static_cast<double>(queued));
    for (const auto& branch : t.branches) PublishDepth(*branch);
  }

  void PublishDepths() NM_EXCLUDES(dyn_mutex) {
    PublishDepth(root);
    MutexLock lock(dyn_mutex);
    for (const auto& br : dyn_branches) PublishDepth(br->target);
    for (const auto& br : retired_dyn) PublishDepth(br->target);
  }

  // Runs one unit of `t`'s work on the calling thread, with the one error
  // hook. An attached branch fails alone: it is force-detached with a
  // descriptive status (FailBranch) while its siblings and the shared
  // ingest keep running. Any other target fails the query: a strand task
  // records the error under the target's path; inline, the error returns
  // to the dispatching caller and fails the ingest.
  Status Run(Target* t, const exec::Batch* batch) {
    DynamicBranch* br = t->owner;
    if (br != nullptr && br->detached.load(std::memory_order_relaxed)) {
      return Status::OK();
    }
    const Status st =
        batch != nullptr ? PushThrough(t, 0, *batch) : FinishSegment(t);
    if (st.ok()) return st;
    if (br != nullptr) {
      FailBranch(br, st);
      return Status::OK();
    }
    if (t->strand) RecordFailure(t->Path(), st);
    return st;
  }

  // Fault isolation for shared hosts: the failed branch is detached and
  // parked, and its owner reads the failure through `BranchStatus`. Does
  // NOT set `failed`: that flag kills the whole host.
  void FailBranch(DynamicBranch* br, const Status& st) NM_EXCLUDES(dyn_mutex) {
    br->detached.store(true, std::memory_order_relaxed);
    MutexLock lock(dyn_mutex);
    br->failure = Status(st.code(), "branch " + br->pipeline.path +
                                        " detached: " + st.message());
    NM_LOG_ERROR() << "query " << id << " " << br->failure.ToString();
    for (auto it = dyn_branches.begin(); it != dyn_branches.end(); ++it) {
      if (it->get() != br) continue;
      retired_dyn.push_back(std::move(*it));
      dyn_branches.erase(it);
      break;
    }
  }

  // Hands `batch` — or end-of-stream, when null — to every target fed by
  // the end of `t`'s chain: its key partitions (end-of-stream only; data
  // is routed by key), its fan-out branches, or, at a shared host's
  // sink-less tail, the branches attached right now. Every branch
  // receives the *same* sealed batch: buffers are immutable after seal
  // and filters refine selection vectors instead of mutating, so the
  // hand-off is zero-copy.
  Status PostDownstream(Target* t, const exec::Batch* batch) {
    const WorkerPool::Poster poster = PosterOf(t);
    for (auto& part : t->partitions) {
      NM_RETURN_NOT_OK(Post(poster, part.get(), batch));
    }
    for (auto& branch : t->branches) {
      NM_RETURN_NOT_OK(Post(poster, branch.get(), batch));
    }
    if (t->seg->sink || !t->partitions.empty() || !t->branches.empty()) {
      return Status::OK();
    }
    for (Target* attached : AttachedTargets()) {
      NM_RETURN_NOT_OK(Post(poster, attached, batch));
    }
    return Status::OK();
  }

  // Routes each selected row of `batch` to the partition owning its key
  // (hash of the key field modulo the partition count) as a selection
  // vector over the *shared* sealed buffer — the hand-off copies row
  // indices, never rows.
  Status DispatchPartitions(Target* t, const exec::Batch& batch) {
    const CompiledPipeline* seg = t->seg;
    const size_t num_parts = t->partitions.size();
    const bool text_key = seg->partition_key_type == DataType::kText16 ||
                          seg->partition_key_type == DataType::kText32;
    std::vector<exec::SelectionVector> sels(num_parts);
    for (size_t i = 0; i < batch.NumRows(); ++i) {
      const size_t row = batch.RowAt(i);
      const RecordView rec = batch.data->At(row);
      const uint64_t h =
          text_key ? HashKeyText(rec.GetText(seg->partition_key_index))
                   : HashKeyInt(rec.GetInt64(seg->partition_key_index));
      sels[h % num_parts].push_back(static_cast<uint32_t>(row));
    }
    for (size_t p = 0; p < num_parts; ++p) {
      if (sels[p].empty()) continue;
      const exec::Batch part(
          batch.data,
          std::make_shared<exec::SelectionVector>(std::move(sels[p])));
      NM_RETURN_NOT_OK(Post(PosterOf(t), t->partitions[p].get(), &part));
    }
    return Status::OK();
  }

  // End of a segment's operator chain: route the batch onward — to the
  // key partitions, to the downstream targets, or into the sink at a
  // leaf.
  Status DispatchTail(Target* t, const exec::Batch& batch) {
    if (!t->partitions.empty()) return DispatchPartitions(t, batch);
    SinkOperator* sink = t->seg->sink.get();
    if (sink == nullptr) return PostDownstream(t, &batch);
    if (!metrics_on) {
      return sink->ProcessBatch(batch, [](const exec::Batch&) {});
    }
    const uint64_t rows = batch.NumRows();
    const int64_t start = MonotonicNowMicros();
    const Status st = sink->ProcessBatch(batch, [](const exec::Batch&) {});
    sink->RecordProcess(MonotonicNowMicros() - start, rows);
    m_events_emitted->Add(rows);
    const size_t buffer_rows = batch.data->size();
    if (buffer_rows > 0) {
      m_bytes_emitted->Add(rows * (batch.data->SizeBytes() / buffer_rows));
    }
    return st;
  }

  // Pushes a batch through segment operators [from..] and onward via
  // `DispatchTail`. With metrics on, each operator's process-latency
  // histogram records its *self* time: wall time of ProcessBatch minus
  // the time spent inside the forward continuation (which runs the rest
  // of the chain). Fused batch-kernel operators time their stages
  // internally instead and leave the base histograms unbound, so the
  // outer RecordProcess no-ops for them.
  Status PushThrough(Target* t, size_t from, const exec::Batch& batch) {
    // Verify-each checks every batch entering an operator or the tail, so
    // an operator that emits an unsealed buffer fails at its own output.
    if (verify_batches) NM_RETURN_NOT_OK(analysis::VerifyBatch(batch));
    if (from >= t->seg->operators.size()) {
      return DispatchTail(t, batch);
    }
    Operator* op = t->seg->operators[from].get();
    if (!metrics_on) {
      Status inner = Status::OK();
      auto forward = [this, t, from, &inner](const exec::Batch& out) {
        Status st = PushThrough(t, from + 1, out);
        if (!st.ok() && inner.ok()) inner = st;
      };
      Status s = op->ProcessBatch(batch, forward);
      if (!s.ok()) return s;
      return inner;
    }
    const uint64_t rows_in = batch.NumRows();
    int64_t child_micros = 0;
    Status inner = Status::OK();
    auto forward = [this, t, from, &inner,
                    &child_micros](const exec::Batch& out) {
      const int64_t t0 = MonotonicNowMicros();
      Status st = PushThrough(t, from + 1, out);
      child_micros += MonotonicNowMicros() - t0;
      if (!st.ok() && inner.ok()) inner = st;
    };
    const int64_t start = MonotonicNowMicros();
    Status s = op->ProcessBatch(batch, forward);
    op->RecordProcess(MonotonicNowMicros() - start - child_micros, rows_in);
    if (!s.ok()) return s;
    return inner;
  }

  // End-of-stream: cascade Finish through the segment's chain (flushed
  // state flows through the rest of the chain and into the downstream
  // targets), then finish every downstream target.
  Status FinishSegment(Target* t) {
    for (size_t i = 0; i < t->seg->operators.size(); ++i) {
      Status inner = Status::OK();
      auto forward = [this, t, i, &inner](const exec::Batch& out) {
        Status st = PushThrough(t, i + 1, out);
        if (!st.ok() && inner.ok()) inner = st;
      };
      Status s = t->seg->operators[i]->Finish(forward);
      if (!s.ok()) return s;
      if (!inner.ok()) return inner;
    }
    return PostDownstream(t, nullptr);
  }

  // Opens every operator and sink in the tree. Partition clones share
  // their leaf sink, so it is opened once per clone — Open only stores
  // the context, which is identical each time.
  Status OpenAll(CompiledPipeline* seg) {
    for (OperatorPtr& op : seg->operators) {
      NM_RETURN_NOT_OK(op->Open(ctx.get()));
    }
    if (seg->sink) NM_RETURN_NOT_OK(seg->sink->Open(ctx.get()));
    for (CompiledPipeline& branch : seg->branches) {
      NM_RETURN_NOT_OK(OpenAll(&branch));
    }
    for (CompiledPipeline& part : seg->partitions) {
      NM_RETURN_NOT_OK(OpenAll(&part));
    }
    return Status::OK();
  }

  // Read-time rates: the ingest/emit counter deltas since the previous
  // read, divided by the window since then. The first window starts at
  // `Start`; a finished query's window ends at its finish time, so an
  // empty window (a read before `Start`, a re-read after the finish)
  // leaves the gauges as they were.
  void PublishRates() NM_EXCLUDES(rate_mutex) {
    const int64_t begun = started_at.load();
    if (begun == 0) return;
    MutexLock lock(rate_mutex);
    // `finished` is stored after `finished_at` and after the last counter
    // update, so a finished query's window and counters are final.
    const int64_t end =
        finished.load() ? finished_at.load() : MonotonicNowMicros();
    const int64_t start = rate_window_start != 0 ? rate_window_start : begun;
    if (end <= start) return;
    const uint64_t in = m_events_ingested->value();
    const uint64_t out = m_events_emitted->value();
    const double secs = static_cast<double>(end - start) / 1e6;
    m_ingest_rate->Set(static_cast<double>(in - rate_last_in) / secs);
    m_emit_rate->Set(static_cast<double>(out - rate_last_out) / secs);
    rate_window_start = end;
    rate_last_in = in;
    rate_last_out = out;
  }

  // Counters every view of the query shares: ingest, wall time, pooled
  // buffers and shed morsels.
  QueryStats HostStats() const {
    QueryStats stats;
    stats.events_ingested = events_ingested.load();
    stats.bytes_ingested = bytes_ingested.load();
    if (finished.load()) {
      stats.elapsed_micros = finished_at.load() - started_at.load();
    } else if (started.load()) {
      stats.elapsed_micros = MonotonicNowMicros() - started_at.load();
    }
    stats.buffers_acquired = ctx->TotalBuffersAcquired();
    stats.tasks_shed = tasks_shed.load(std::memory_order_relaxed);
    return stats;
  }

  // Depth-first over a pipeline tree: operators keyed by DAG path, one
  // SinkStats entry per leaf, emitted totals summed across sinks. Fused
  // batch-kernel operators expand to one entry per fused stage, so the
  // sequence matches the logical plan shape either way. Partition clones
  // carry their segment's path and identical operator sequences, so their
  // entries sum element-wise into one per-path sequence — and they share
  // one sink, counted once.
  static void AppendFlow(const CompiledPipeline& seg, QueryStats* stats) {
    const std::string prefix = seg.path.empty() ? "" : seg.path + "/";
    for (const OperatorPtr& op : seg.operators) {
      op->AppendStats(prefix, &stats->operator_stats);
    }
    const CompiledPipeline* leaf = &seg;
    if (!seg.partitions.empty()) {
      std::vector<std::pair<std::string, OperatorStats>> summed;
      for (const CompiledPipeline& part : seg.partitions) {
        std::vector<std::pair<std::string, OperatorStats>> one;
        for (const OperatorPtr& op : part.operators) {
          op->AppendStats(prefix, &one);
        }
        if (summed.empty()) {
          summed = std::move(one);
        } else {
          for (size_t i = 0; i < summed.size() && i < one.size(); ++i) {
            summed[i].second.Add(one[i].second);
          }
        }
      }
      for (auto& entry : summed) {
        stats->operator_stats.push_back(std::move(entry));
      }
      leaf = &seg.partitions.front();
    }
    if (leaf->sink) {
      const OperatorStats sink_flow = leaf->sink->stats();
      stats->operator_stats.emplace_back(prefix + leaf->sink->name(),
                                         sink_flow);
      SinkStats sink_stats;
      sink_stats.path = seg.path;
      sink_stats.name = leaf->sink->name();
      sink_stats.events_emitted = sink_flow.events_in;
      sink_stats.bytes_emitted = sink_flow.bytes_in;
      stats->events_emitted += sink_stats.events_emitted;
      stats->bytes_emitted += sink_stats.bytes_emitted;
      stats->sink_stats.push_back(std::move(sink_stats));
    }
    for (const CompiledPipeline& branch : seg.branches) {
      AppendFlow(branch, stats);
    }
  }
};

NodeEngine::NodeEngine(EngineOptions options) : options_(options) {
  // Malformed environment overrides are reported by the next Submit
  // rather than ignored: a CI job whose toggle is mistyped must fail, not
  // pass silently under the defaults.
  Result<size_t> workers = ResolveWorkerThreads(options.worker_threads);
  if (workers.ok()) {
    worker_threads_ = *workers;
  } else {
    env_status_ = workers.status();
  }
  // NM_FAULT_PROFILE overrides the configured channel fault profile — the
  // CI fault-injection gate runs the whole suite lossy through this.
  Result<std::optional<FaultProfile>> env = EnvFaultProfile();
  if (!env.ok()) {
    if (env_status_.ok()) env_status_ = env.status();
  } else if (env->has_value()) {
    options_.faults.profile = **env;
  }
  // One pool for every query: as wide as the machine, or as one query's
  // parallelism when that asks for more. Ingest parks (or, under a shed
  // policy, sheds) once a target falls kStrandCapacity batches behind.
  static const size_t cores = std::thread::hardware_concurrency();
  pool_ = std::make_unique<WorkerPool>(std::max(cores, worker_threads_),
                                       kStrandCapacity,
                                       options_.faults.retry.shed_policy);
}

NodeEngine::~NodeEngine() {
  std::vector<int> ids;
  {
    MutexLock lock(mutex_);
    for (const auto& [id, rq] : queries_) ids.push_back(id);
  }
  for (int id : ids) (void)Cancel(id);
  // Joined before any query dies: a worker may still be in the post-task
  // bookkeeping of a strand the last completed task belonged to.
  pool_.reset();
}

Result<NodeEngine::RunningQuery*> NodeEngine::Find(int query_id) const {
  MutexLock lock(mutex_);
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return Status::NotFound("unknown query id");
  return it->second.get();
}

Result<int> NodeEngine::Submit(LogicalPlan plan) {
  NM_RETURN_NOT_OK(env_status_);
  NM_RETURN_NOT_OK(plan.Validate());
  auto rq = std::make_unique<RunningQuery>();
  rq->plan_text.logical = plan.Explain();
  // Placed plans submit verbatim: placement annotations are tied to the
  // exact plan shape they were computed for, and rewrite passes create
  // and move nodes without carrying annotations — rewriting here would
  // silently shift the lowered channel boundaries. (The placement flow
  // rewrites to fixpoint *before* annotating.)
  if (options_.optimizer.enable && !plan.IsPlaced()) {
    const PlanRewriter rewriter = PlanRewriter::Default(options_.optimizer);
    NM_RETURN_NOT_OK(rewriter.Rewrite(&plan));
  }
  rq->plan_text.optimized = plan.Explain();
  NM_RETURN_NOT_OK(Compile(rq.get(), plan, worker_threads_));
  return Install(std::move(rq), &plan);
}

Result<int> NodeEngine::Submit(Query query) {
  NM_ASSIGN_OR_RETURN(LogicalPlan plan, std::move(query).Build());
  return Submit(std::move(plan));
}

Status NodeEngine::Compile(RunningQuery* rq, const LogicalPlan& plan,
                           size_t partitions) const {
  if (options_.optimizer.verify_each) {
    analysis::VerifyContext vctx;
    vctx.topology = options_.topology;
    vctx.shared_prefix = rq->shared_host;
    NM_RETURN_NOT_OK(analysis::VerifyPlan(plan, vctx));
  }
  NM_ASSIGN_OR_RETURN(rq->pipeline,
                      CompilePlan(plan.source()->schema(), plan,
                                  options_.topology,
                                  MakeCompileOptions(options_, partitions)));
  return Status::OK();
}

Result<int> NodeEngine::Install(std::unique_ptr<RunningQuery> rq,
                                LogicalPlan* plan) {
  if (options_.optimizer.verify_each) {
    analysis::PipelineVerifyContext pctx;
    pctx.expect_dynamic_tail = rq->shared_host;
    NM_RETURN_NOT_OK(analysis::VerifyPipeline(rq->pipeline, pctx));
    rq->verify_batches = true;
  }
  rq->source = plan->TakeSource();
  rq->ctx = std::make_unique<ExecutionContext>(options_.tuples_per_buffer,
                                               options_.pool_size);
  NM_RETURN_NOT_OK(rq->OpenAll(&rq->pipeline));
  rq->metrics_on = options_.metrics_enabled;
  if (rq->metrics_on) {
    rq->metrics = std::make_unique<metrics::MetricsRegistry>();
    rq->m_events_ingested = rq->metrics->GetCounter("engine.events_ingested");
    rq->m_bytes_ingested = rq->metrics->GetCounter("engine.bytes_ingested");
    rq->m_events_emitted = rq->metrics->GetCounter("engine.events_emitted");
    rq->m_bytes_emitted = rq->metrics->GetCounter("engine.bytes_emitted");
    rq->m_ingest_rate = rq->metrics->GetGauge("engine.ingest_events_per_sec");
    rq->m_emit_rate = rq->metrics->GetGauge("engine.emit_events_per_sec");
  }
  rq->BindTargets(&rq->root, &rq->pipeline);
  rq->engine = this;
  if (worker_threads_ > 1) {
    rq->parallel = true;
    MutexLock lock(rq->dyn_mutex);
    NM_RETURN_NOT_OK(rq->MakeStrands());
  }
  MutexLock lock(mutex_);
  const int id = next_id_++;
  rq->id = id;
  queries_[id] = std::move(rq);
  return id;
}

Result<int> NodeEngine::SubmitShared(LogicalPlan plan, int delivery_node) {
  NM_RETURN_NOT_OK(env_status_);
  if (plan.source() == nullptr) {
    return Status::InvalidArgument("shared plan has no source");
  }
  for (const LogicalOperatorPtr& op : plan.ops()) {
    if (op->kind() == LogicalOperator::Kind::kSink ||
        op->kind() == LogicalOperator::Kind::kFanOut) {
      return Status::InvalidArgument(
          "shared prefix must be a sink-less linear chain; consumers "
          "attach via AttachBranch");
    }
  }
  auto rq = std::make_unique<RunningQuery>();
  rq->shared_host = true;
  rq->plan_text.logical = plan.Explain();
  // Submitted verbatim: the serving manager already optimized the prefix,
  // and rewriting here could change the shape branch suffixes were
  // structurally matched against. Never partitioned: the stateful tails
  // live in the branches.
  rq->plan_text.optimized = rq->plan_text.logical;
  NM_RETURN_NOT_OK(Compile(rq.get(), plan, 1));
  // Fleet delivery: ship the shared stream once to the node the branches
  // run on. Every attached branch then consumes node-local data, so the
  // uplink cost stays flat no matter how many client queries share the
  // host.
  if (delivery_node != LogicalOperator::kUnplaced &&
      options_.topology != nullptr) {
    int end_node = plan.source_placement();
    for (const LogicalOperatorPtr& op : plan.ops()) {
      if (op->placement() != LogicalOperator::kUnplaced) {
        end_node = op->placement();
      }
    }
    if (end_node != LogicalOperator::kUnplaced && end_node != delivery_node) {
      NM_ASSIGN_OR_RETURN(std::shared_ptr<NetworkChannel> channel,
                          NetworkChannel::Connect(*options_.topology,
                                                  end_node, delivery_node));
      channel->ConfigureFaults(options_.faults.profile, options_.faults.retry);
      const Schema& schema = rq->pipeline.output_schema;
      NM_ASSIGN_OR_RETURN(OperatorPtr channel_sink,
                          NetworkChannelSink::Make(schema, channel));
      NM_ASSIGN_OR_RETURN(OperatorPtr channel_source,
                          NetworkChannelSource::Make(schema, channel));
      rq->pipeline.operators.push_back(std::move(channel_sink));
      rq->pipeline.operators.push_back(std::move(channel_source));
      rq->pipeline.channels.push_back(std::move(channel));
    }
  }
  return Install(std::move(rq), &plan);
}

Result<int> NodeEngine::AttachBranch(
    int host_id, std::vector<LogicalOperatorPtr> suffix_ops) {
  NM_ASSIGN_OR_RETURN(RunningQuery * rq, Find(host_id));
  if (!rq->shared_host) {
    return Status::FailedPrecondition(
        "query is not a shared host (SubmitShared)");
  }
  if (suffix_ops.empty() ||
      suffix_ops.back()->kind() != LogicalOperator::Kind::kSink) {
    return Status::InvalidArgument("branch suffix must end in a sink");
  }
  for (const LogicalOperatorPtr& op : suffix_ops) {
    if (op->kind() == LogicalOperator::Kind::kFanOut) {
      return Status::InvalidArgument(
          "branch suffix must be linear; attach one branch per leaf");
    }
  }
  auto br = std::make_unique<RunningQuery::DynamicBranch>();
  {
    MutexLock lock(rq->dyn_mutex);
    br->id = rq->next_branch_id++;
  }
  // Compiled single-node against the prefix's output schema: the suffix
  // runs where the shared stream was delivered, so branch placement
  // annotations (matched structurally by the serving layer) never open a
  // second channel.
  LogicalPlan suffix_plan;
  for (LogicalOperatorPtr& op : suffix_ops) suffix_plan.Append(std::move(op));
  NM_ASSIGN_OR_RETURN(br->pipeline,
                      CompilePlan(rq->pipeline.output_schema, suffix_plan,
                                  nullptr, MakeCompileOptions(options_, 1)));
  if (br->pipeline.sink == nullptr || !br->pipeline.branches.empty()) {
    return Status::InvalidArgument(
        "branch suffix must compile to one linear chain ending in a sink");
  }
  br->pipeline.path = "b" + std::to_string(br->id);
  if (options_.optimizer.verify_each) {
    analysis::PipelineVerifyContext pctx;
    pctx.root_path = br->pipeline.path;
    NM_RETURN_NOT_OK(analysis::VerifyPipeline(br->pipeline, pctx));
  }
  NM_RETURN_NOT_OK(rq->OpenAll(&br->pipeline));
  br->target.owner = br.get();
  rq->BindTargets(&br->target, &br->pipeline);
  // Publication point: the next tail snapshot sees the branch, so it joins
  // the stream at a buffer boundary.
  MutexLock lock(rq->dyn_mutex);
  const int branch_id = br->id;
  rq->dyn_branches.push_back(std::move(br));
  if (rq->parallel) NM_RETURN_NOT_OK(rq->MakeStrands());
  return branch_id;
}

Status NodeEngine::DetachBranch(int host_id, int branch_id) {
  NM_ASSIGN_OR_RETURN(RunningQuery * rq, Find(host_id));
  MutexLock lock(rq->dyn_mutex);
  for (auto it = rq->dyn_branches.begin(); it != rq->dyn_branches.end();
       ++it) {
    if ((*it)->id != branch_id) continue;
    // Flag first: tasks already queued on the branch's strand check the
    // flag and fall through without touching operator state. The branch
    // itself parks in `retired_dyn` rather than dying here — its strand
    // may still be in a worker's hands — and is destroyed with the host.
    (*it)->detached.store(true, std::memory_order_relaxed);
    rq->retired_dyn.push_back(std::move(*it));
    rq->dyn_branches.erase(it);
    return Status::OK();
  }
  // Already retired — either detached earlier or force-detached by the
  // engine after a branch failure. Detaching is idempotent either way
  // (the failure stays readable through BranchStatus).
  for (const auto& br : rq->retired_dyn) {
    if (br->id == branch_id) return Status::OK();
  }
  return Status::NotFound("unknown branch id");
}

Status NodeEngine::BranchStatus(int host_id, int branch_id) const {
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(host_id));
  MutexLock lock(rq->dyn_mutex);
  for (const auto& br : rq->dyn_branches) {
    if (br->id == branch_id) return Status::OK();
  }
  for (const auto& br : rq->retired_dyn) {
    if (br->id == branch_id) return br->failure;
  }
  return Status::NotFound("unknown branch id");
}

Result<QueryStats> NodeEngine::BranchStats(int host_id, int branch_id) const {
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(host_id));
  // Branches are never destroyed before their host, so the pointer stays
  // valid after the lock is released.
  const CompiledPipeline* branch = nullptr;
  {
    MutexLock lock(rq->dyn_mutex);
    for (const auto& candidate : rq->dyn_branches) {
      if (candidate->id == branch_id) {
        branch = &candidate->pipeline;
        break;
      }
    }
  }
  if (branch == nullptr) return Status::NotFound("unknown branch id");
  // Shared ingest: every branch of the host rides the same source stream.
  QueryStats stats = rq->HostStats();
  RunningQuery::AppendFlow(*branch, &stats);
  return stats;
}

Result<QueryPlanText> NodeEngine::Explain(int query_id) const {
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(query_id));
  return rq->plan_text;
}

Status NodeEngine::Start(int query_id) {
  NM_ASSIGN_OR_RETURN(RunningQuery * rq, Find(query_id));
  if (rq->started.exchange(true)) {
    return Status::FailedPrecondition("query already started");
  }
  rq->started_at.store(MonotonicNowMicros());
  rq->pending.store(1);  // the ingest's, until it stops
  pool_->Post(rq->IngestTask());
  return Status::OK();
}

Status NodeEngine::Wait(int query_id) {
  NM_ASSIGN_OR_RETURN(RunningQuery * rq, Find(query_id));
  if (!rq->started.load()) {
    return Status::FailedPrecondition("query not started");
  }
  return rq->AwaitCompletion();
}

Status NodeEngine::Cancel(int query_id) {
  NM_ASSIGN_OR_RETURN(RunningQuery * rq, Find(query_id));
  rq->cancel.store(true);
  if (!rq->started.load()) return Status::OK();
  return Wait(query_id);
}

Status NodeEngine::RunToCompletion(int query_id) {
  NM_RETURN_NOT_OK(Start(query_id));
  return Wait(query_id);
}

Result<QueryStats> NodeEngine::Stats(int query_id) const {
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(query_id));
  QueryStats stats = rq->HostStats();
  RunningQuery::AppendFlow(rq->pipeline, &stats);
  // Shared hosts carry their attached branches' flow too, so the host
  // view sums emitted counts across every client riding the prefix.
  for (const RunningQuery::Target* t : rq->AttachedTargets()) {
    RunningQuery::AppendFlow(*t->seg, &stats);
  }
  return stats;
}

Result<metrics::MetricsSnapshot> NodeEngine::Metrics(int query_id) const {
  NM_ASSIGN_OR_RETURN(RunningQuery * rq, Find(query_id));
  if (!rq->metrics) {
    return Status::FailedPrecondition(
        "metrics disabled (EngineOptions::metrics_enabled = false)");
  }
  rq->PublishRates();
  rq->PublishDepths();
  return rq->metrics->Snapshot();
}

Result<DeploymentReport> NodeEngine::Deployment(int query_id) const {
  NM_ASSIGN_OR_RETURN(const RunningQuery* rq, Find(query_id));
  // Every channel lowered anywhere in the pipeline tree, depth-first.
  std::vector<std::shared_ptr<NetworkChannel>> channels;
  ForEachSegment(rq->pipeline, [&channels](const CompiledPipeline& seg) {
    channels.insert(channels.end(), seg.channels.begin(),
                    seg.channels.end());
  });
  return MeasureDeployment(channels);
}

size_t NodeEngine::NumQueries() const {
  MutexLock lock(mutex_);
  return queries_.size();
}

}  // namespace nebulameos::nebula
