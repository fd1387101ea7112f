/// \file operator.hpp
/// \brief The physical operator interface and execution context.
///
/// Queries compile into chains of `Operator`s executed inside one pipeline
/// (operator fusion: a batch flows through the whole chain without
/// queueing, as in NebulaStream's compiled pipelines). Operators are
/// constructed with their *input schema* — expression binding happens at
/// build time, so malformed queries fail at submission, not mid-stream.
///
/// One contract: batches in, sealed batches out. `ProcessBatch` receives
/// an `exec::Batch` (a sealed buffer plus an optional selection vector)
/// and hands every result to its `EmitFn` as a batch over a sealed
/// buffer; `Finish` flushes end-of-stream state the same way. Operators
/// that write fresh rows build them through `RowEmitter`, which seals.
///
/// `ExecutionContext` provides pooled buffer allocation (one
/// `BufferManager` per distinct output schema) and is shared by all
/// operators of a running query.

#pragma once

#include <atomic>
#include <map>

#include "common/function_ref.hpp"
#include "common/mutex.hpp"
#include "nebula/buffer_manager.hpp"
#include "nebula/exec/batch.hpp"
#include "nebula/expr.hpp"
#include "nebula/metrics/metrics.hpp"

namespace nebulameos::nebula {

/// \brief Per-operator flow counters (events and bytes in/out).
struct OperatorStats {
  uint64_t events_in = 0;
  uint64_t events_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  /// Records shed instead of processed: late arrivals a stateful operator
  /// refused (its monotonicity guard) or frames dropped by a degradation
  /// policy. 0 for operators that never shed.
  uint64_t events_shed = 0;

  /// Fraction of input events that produced output (1.0 when no input).
  double Selectivity() const {
    return events_in == 0
               ? 1.0
               : static_cast<double>(events_out) /
                     static_cast<double>(events_in);
  }

  /// Element-wise accumulation — the aggregation step behind summing one
  /// logical operator's counters over its per-partition clones.
  void Add(const OperatorStats& other) {
    events_in += other.events_in;
    events_out += other.events_out;
    bytes_in += other.bytes_in;
    bytes_out += other.bytes_out;
    events_shed += other.events_shed;
  }
};

/// \brief The live, updatable form of `OperatorStats`: relaxed atomics so
/// an operator owned by one worker strand can count flow while another
/// thread snapshots `Stats()` mid-run without a data race. Each counter is
/// written by at most one thread at a time (the strand guarantee), so
/// relaxed increments are exact; readers see a near-current snapshot.
class FlowCounters {
 public:
  void AddIn(uint64_t events, uint64_t bytes) {
    events_in_.fetch_add(events, std::memory_order_relaxed);
    bytes_in_.fetch_add(bytes, std::memory_order_relaxed);
  }

  void AddOut(uint64_t events, uint64_t bytes) {
    events_out_.fetch_add(events, std::memory_order_relaxed);
    bytes_out_.fetch_add(bytes, std::memory_order_relaxed);
  }

  void AddShed(uint64_t events) {
    events_shed_.fetch_add(events, std::memory_order_relaxed);
  }

  OperatorStats Snapshot() const {
    OperatorStats s;
    s.events_in = events_in_.load(std::memory_order_relaxed);
    s.events_out = events_out_.load(std::memory_order_relaxed);
    s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
    s.events_shed = events_shed_.load(std::memory_order_relaxed);
    return s;
  }

  // Value-copyable (atomics are not), so structs holding counters stay
  // movable. Only safe while no other thread is mutating `other`.
  FlowCounters() = default;
  FlowCounters(const FlowCounters& other) { *this = other; }
  FlowCounters& operator=(const FlowCounters& other) {
    events_in_.store(other.events_in_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    events_out_.store(other.events_out_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    bytes_in_.store(other.bytes_in_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    bytes_out_.store(other.bytes_out_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    events_shed_.store(other.events_shed_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<uint64_t> events_in_{0};
  std::atomic<uint64_t> events_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> events_shed_{0};
};

/// \brief Shared runtime services for one query execution.
class ExecutionContext {
 public:
  /// \p tuples_per_buffer and \p pool_size shape every pool this context
  /// creates (one pool per distinct schema).
  explicit ExecutionContext(size_t tuples_per_buffer = 1024,
                            size_t pool_size = 128)
      : tuples_per_buffer_(tuples_per_buffer), pool_size_(pool_size) {}

  /// Allocates an empty buffer shaped for \p schema: pooled, or transient
  /// when the pool is exhausted. Never blocks — operators run as worker-pool
  /// tasks, which must not wait for buffers other tasks hold. The buffers
  /// in flight stay bounded because the engine bounds every strand queue
  /// (worker_pool.hpp).
  TupleBufferPtr Allocate(const Schema& schema);

  size_t tuples_per_buffer() const { return tuples_per_buffer_; }

  /// Total buffers handed out across every pool of this context — the
  /// pool-accounting number behind the zero-copy fan-out acceptance: a
  /// branch hand-off shares the batch instead of drawing a copy, so this
  /// must not scale with branch count.
  uint64_t TotalBuffersAcquired() const;

 private:
  size_t tuples_per_buffer_;
  size_t pool_size_;
  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<BufferManager>> pools_
      NM_GUARDED_BY(mutex_);
};

/// \brief Base class of all physical operators.
class Operator {
 public:
  /// Downstream hand-off: the operator calls this for each output batch,
  /// whose buffer is sealed (it may be the input buffer with a refined
  /// selection — zero-copy). A non-owning `FunctionRef` (not
  /// `std::function`): the emit callable lives on the caller's stack for
  /// the duration of the call, and the compiled pipeline's inner loop
  /// crosses this hop once per batch per operator — it must not pay a
  /// type-erased copy each time.
  using EmitFn = FunctionRef<void(const exec::Batch&)>;

  virtual ~Operator() = default;

  /// Operator display name ("Filter", "WindowAgg", ...).
  virtual std::string name() const = 0;

  /// Schema of the buffers this operator emits.
  virtual const Schema& output_schema() const = 0;

  /// Called once before processing; stores the execution context.
  virtual Status Open(ExecutionContext* ctx) {
    ctx_ = ctx;
    return Status::OK();
  }

  /// Processes one input batch, emitting zero or more sealed batches.
  /// \p input may carry a selection vector over a shared, sealed buffer:
  /// operators read the selected rows (`input.RowAt(i)`) or refine the
  /// selection, and never write to the input buffer.
  virtual Status ProcessBatch(const exec::Batch& input,
                              const EmitFn& emit) = 0;

  /// End-of-stream: flush any remaining state (window panes, open runs).
  virtual Status Finish(const EmitFn& /*emit*/) { return Status::OK(); }

  /// Flow counters snapshot (safe to call while the operator runs on a
  /// different thread; see `FlowCounters`).
  OperatorStats stats() const { return stats_.Snapshot(); }

  /// Appends this operator's flow counters to \p out keyed by
  /// `prefix + name()`. Fused batch-kernel operators expand to one entry
  /// per fused logical stage, in chain order, so plan-shaped consumers
  /// (`QueryStats::operator_stats`, the placement pass) see the same
  /// sequence whether or not the chain was fused. Thread-safe: counters
  /// are snapshotted atomically per entry.
  virtual void AppendStats(
      const std::string& prefix,
      std::vector<std::pair<std::string, OperatorStats>>* out) const {
    out->emplace_back(prefix + name(), stats_.Snapshot());
  }

  /// Resolves this operator's instruments from \p registry under the DAG
  /// prefix the engine also uses for `AppendStats` keys: the default binds
  /// the process-latency and batch-size histograms
  /// `op.<prefix><name()>.process_micros` / `.batch_rows` that the engine
  /// records into around each `ProcessBatch` call (self-time: downstream
  /// time is subtracted). Fused batch-kernel operators override this to
  /// bind one histogram pair per fused stage under the original chained
  /// names ("Filter", "Map", ...) and time stages themselves — metric
  /// names then match the unfused chain, the same parity contract
  /// `AppendStats` keeps. Called once before the query starts; instrument
  /// pointers stay valid as long as the registry (the running query).
  virtual void BindMetrics(metrics::MetricsRegistry* registry,
                           const std::string& prefix) {
    process_micros_ =
        registry->GetHistogram("op." + prefix + name() + ".process_micros");
    batch_rows_ =
        registry->GetHistogram("op." + prefix + name() + ".batch_rows");
  }

  /// Records one timed `ProcessBatch` call (engine-side; no-op until
  /// `BindMetrics` ran). Lock-free.
  void RecordProcess(int64_t self_micros, uint64_t rows_in) {
    if (process_micros_ == nullptr) return;
    process_micros_->Record(self_micros);
    batch_rows_->Record(static_cast<int64_t>(rows_in));
  }

 protected:
  /// Records an input batch (selected rows only) in the stats.
  void CountIn(const exec::Batch& batch) {
    stats_.AddIn(batch.NumRows(), batch.SizeBytes());
  }

  /// Records an output batch (selected rows only) in the stats.
  void CountOut(const exec::Batch& batch) {
    stats_.AddOut(batch.NumRows(), batch.SizeBytes());
  }

  /// Seals \p buffer, counts it out and emits it as a full batch.
  void EmitSealed(TupleBufferPtr buffer, const EmitFn& emit) {
    buffer->Seal();
    const exec::Batch out(std::move(buffer));
    CountOut(out);
    emit(out);
  }

  /// \brief Writes fresh output rows into pooled buffers of
  /// `output_schema()` and emits each buffer through `EmitSealed`: the
  /// first `Append` allocates, a full buffer rolls over, `Flush` emits a
  /// non-empty tail. Each buffer takes its watermark and sequence number
  /// from \p stamp when one is given (row-preserving operators such as
  /// the lookup join); results without a source buffer (window panes,
  /// matches) keep the pool's reset metadata.
  class RowEmitter {
   public:
    RowEmitter(Operator* op, const EmitFn& emit,
               const TupleBuffer* stamp = nullptr)
        : op_(op), emit_(emit), stamp_(stamp) {}

    /// Writer for the next output row.
    RecordWriter Append() {
      if (out_ == nullptr || out_->full()) {
        if (out_ != nullptr) op_->EmitSealed(std::move(out_), emit_);
        out_ = op_->ctx_->Allocate(op_->output_schema());
        if (stamp_ != nullptr) {
          out_->set_watermark(stamp_->watermark());
          out_->set_sequence_number(stamp_->sequence_number());
        }
      }
      return out_->Append();
    }

    /// Emits the partly filled tail, if any.
    void Flush() {
      if (out_ != nullptr) op_->EmitSealed(std::move(out_), emit_);
    }

   private:
    Operator* op_;
    EmitFn emit_;
    const TupleBuffer* stamp_;
    TupleBufferPtr out_;
  };

  /// Records \p events records shed by a monotonicity guard or
  /// degradation policy, mirroring into the `late_shed` instrument when
  /// one is bound (`BindLateShed`).
  void CountShed(uint64_t events) {
    stats_.AddShed(events);
    if (late_shed_counter_ != nullptr) late_shed_counter_->Add(events);
  }

  /// Stateful operators with a monotonicity guard call this from their
  /// `BindMetrics` override to surface `op.<prefix><name>.late_shed`.
  void BindLateShed(metrics::MetricsRegistry* registry,
                    const std::string& prefix) {
    late_shed_counter_ =
        registry->GetCounter("op." + prefix + name() + ".late_shed");
  }

  ExecutionContext* ctx_ = nullptr;
  FlowCounters stats_;
  metrics::Histogram* process_micros_ = nullptr;  ///< null until bound
  metrics::Histogram* batch_rows_ = nullptr;      ///< null until bound
  metrics::Counter* late_shed_counter_ = nullptr;  ///< null until bound
};

using OperatorPtr = std::unique_ptr<Operator>;

}  // namespace nebulameos::nebula
