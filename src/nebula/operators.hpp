/// \file operators.hpp
/// \brief Concrete stream operators: filter, map, project, window
/// aggregation (tumbling/sliding and threshold), and sinks.
///
/// Every operator is built through a fallible `Make` that receives the
/// *input schema*, binds its expressions, and derives the output schema.
/// All of them follow the one contract of operator.hpp: `ProcessBatch`
/// reads the input batch through its selection vector, and every emitted
/// batch sits on a sealed buffer — the filter refines the selection of
/// its input, the others write fresh rows and seal them.

#pragma once

#include <atomic>
#include <cstdio>
#include <limits>

#include "nebula/operator.hpp"
#include "nebula/topology.hpp"
#include "nebula/window.hpp"

namespace nebulameos::nebula {

// --- Filter -------------------------------------------------------------------

/// \brief Emits only records for which the predicate evaluates true.
///
/// The interpreted fallback for predicates the batch compiler refuses.
/// Still selection-aware: `ProcessBatch` evaluates per record but emits
/// the input buffer with a refined selection vector — no survivor copies.
class FilterOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input, ExprPtr predicate);

  std::string name() const override { return "Filter"; }
  const Schema& output_schema() const override { return schema_; }
  Status ProcessBatch(const exec::Batch& input, const EmitFn& emit) override;

 private:
  FilterOperator(Schema schema, ExprPtr predicate,
                 std::shared_ptr<CseCache> cse_cache)
      : schema_(std::move(schema)),
        predicate_(std::move(predicate)),
        cse_cache_(std::move(cse_cache)) {}
  Schema schema_;
  ExprPtr predicate_;
  /// Shared-subexpression memo of the `PlanCse`-rewritten predicate; null
  /// when nothing repeats. Strand-serialized with the operator, so the
  /// per-record epoch bump needs no synchronization.
  std::shared_ptr<CseCache> cse_cache_;
  /// Selection scratch: only a *partial* result takes ownership of it
  /// (one allocation); fully-selective and empty results allocate nothing.
  exec::SelectionVector scratch_sel_;
};

// --- Map ----------------------------------------------------------------------

/// One computed field: `expr AS name` (replaces `name` when it exists).
struct MapSpec {
  std::string name;
  ExprPtr expr;
};

/// \brief Resolved layout of a map: the output schema plus, per output
/// field, either the input field to copy (`copy_from[i] >= 0`) or the
/// bound spec expression to evaluate (`exprs[expr_of[i]]`). Shared by the
/// interpreted `MapOperator` and the compiled `exec::CompiledMap`, so the
/// two paths cannot disagree about the layout.
struct MapLayout {
  Schema output_schema;
  std::vector<int> copy_from;
  std::vector<int> expr_of;
  std::vector<ExprPtr> exprs;  ///< bound against the input schema
};

/// Binds \p specs against \p input and derives the map layout.
Result<MapLayout> PlanMapLayout(const Schema& input,
                                std::vector<MapSpec> specs);

/// \brief Adds or replaces computed fields (interpreted fallback).
class MapOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input,
                                  std::vector<MapSpec> specs);

  std::string name() const override { return "Map"; }
  const Schema& output_schema() const override {
    return layout_.output_schema;
  }
  Status ProcessBatch(const exec::Batch& input, const EmitFn& emit) override;

 private:
  MapOperator() = default;

  void WriteRecord(const RecordView& rec, RecordWriter* w) const;

  Schema input_schema_;
  MapLayout layout_;
  /// Shared-subexpression memo spanning *all* spec expressions (a subtree
  /// repeated across two computed fields evaluates once per record); null
  /// when nothing repeats.
  std::shared_ptr<CseCache> cse_cache_;
};

// --- Project ------------------------------------------------------------------

/// \brief Keeps only the named fields, in the given order (interpreted
/// fallback).
class ProjectOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input,
                                  std::vector<std::string> fields);

  std::string name() const override { return "Project"; }
  const Schema& output_schema() const override { return output_schema_; }
  Status ProcessBatch(const exec::Batch& input, const EmitFn& emit) override;

 private:
  ProjectOperator() = default;

  void WriteRecord(const RecordView& rec, RecordWriter* w) const;

  Schema output_schema_;
  std::vector<size_t> indices_;
};

// --- Window rows --------------------------------------------------------------

/// \brief Field layout shared by the time and threshold window operators:
/// where a record's key, event time and aggregate inputs are read, and how
/// a window row ([key] + window_start + window_end + aggregates + custom
/// fields) is written.
struct WindowFields {
  using KeyValue = std::variant<int64_t, std::string>;
  using Customs = std::vector<std::unique_ptr<CustomAggregator>>;

  /// Resolves the fields against \p input and builds the output schema.
  static Result<WindowFields> Make(
      const Schema& input, const std::string& key_field,
      const std::string& time_field,
      const std::vector<AggregateSpec>& aggregates,
      const std::vector<CustomAggregatorFactory>& customs);

  /// The grouping key of \p rec (0 when unkeyed).
  KeyValue KeyOf(const RecordView& rec) const;
  /// A fresh instance of every custom aggregator, bound to `input`.
  Customs MakeCustoms(
      const std::vector<CustomAggregatorFactory>& factories) const;
  /// Writes one window row; \p customs is null when there are none.
  void WriteRow(RecordWriter w, const KeyValue& key, Timestamp start,
                Timestamp end, const std::vector<AggState>& states,
                Customs* customs) const;

  Schema input;
  Schema output;
  bool keyed = false;
  size_t key_index = 0;
  DataType key_type = DataType::kInt64;
  size_t time_index = 0;
  std::vector<size_t> agg_field_index;
  std::vector<AggKind> agg_kinds;
  size_t custom_first_field = 0;
};

// --- Windowed aggregation -------------------------------------------------------

/// \brief Configuration of a keyed time-window aggregation.
struct WindowAggOptions {
  std::string key_field;   ///< "" = global (unkeyed)
  std::string time_field;  ///< event-time field (kTimestamp or kInt64)
  WindowSpec window;       ///< tumbling or sliding
  std::vector<AggregateSpec> aggregates;
  std::vector<CustomAggregatorFactory> custom_aggregators;
  Duration allowed_lateness = 0;  ///< watermark slack
};

/// \brief Event-time keyed window aggregation with watermark-based firing.
///
/// Output schema: [key] + window_start + window_end + aggregate fields +
/// custom-aggregator fields. Windows fire when the watermark (max event
/// time − allowed lateness) passes their end; `Finish` flushes the rest.
/// Rows come out in (window start, key) order.
///
/// Slices: state is kept per (slice start, key), where slices are
/// g = gcd(size, slide) long (g = size for tumbling windows), so every
/// window is a whole number of slices. A record costs one slice lookup and
/// one `AggState::Add` per aggregate, however many windows overlap it; a
/// window fires by merging its size/g slices in start order
/// (`AggState::Merge`). A slice is dropped once the last window containing
/// it has fired, so between batches a key's live slices span at most
/// size + slide + allowed_lateness of event time. A window's sum is the
/// sum of its slice sums, so a sliding window's sum/avg over non-integer
/// values can differ in the last bits from a record-by-record fold; every
/// other result, and every result of a tumbling window (one slice per
/// window), is the same.
///
/// Custom aggregators are holistic (a trajectory is not the merge of
/// partial trajectories), so when there are any, each record is also fed
/// to one instance per (window start, key) it falls in.
///
/// Monotonicity guard: a record whose every window already fired (its
/// latest window's end ≤ the highest watermark this operator fired up to)
/// cannot be applied without re-emitting a closed window, so it is shed
/// and counted (`events_shed` / `op.<path>.WindowAgg.late_shed`) instead
/// of faulting or double-firing. Records late within `allowed_lateness`
/// still join the windows that have not fired.
class WindowAggOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input,
                                  WindowAggOptions options);

  std::string name() const override { return "WindowAgg"; }
  const Schema& output_schema() const override { return fields_.output; }
  Status ProcessBatch(const exec::Batch& input, const EmitFn& emit) override;
  Status Finish(const EmitFn& emit) override;
  void BindMetrics(metrics::MetricsRegistry* registry,
                   const std::string& prefix) override {
    Operator::BindMetrics(registry, prefix);
    BindLateShed(registry, prefix);
  }

 private:
  using KeyValue = WindowFields::KeyValue;
  /// One slice's partial aggregates per key, in key order.
  using SliceGroup = std::map<KeyValue, std::vector<AggState>>;
  /// Cursor over one slice group while a window merges its slices.
  struct SliceCursor {
    SliceGroup::const_iterator at;
    SliceGroup::const_iterator end;
  };

  WindowAggOperator() = default;

  void FoldCustoms(const RecordView& rec, Timestamp t, const KeyValue& key);
  void FireWindow(Timestamp start, RowEmitter* out);
  Status FireUpTo(Timestamp watermark, const EmitFn& emit);

  WindowFields fields_;
  WindowAggOptions options_;
  WindowAssigner assigner_{WindowAssigner::Make(TumblingWindowSpec{1}).value()};
  Duration slice_ = 1;  ///< gcd(size, slide)
  /// Live slices by start.
  std::map<Timestamp, SliceGroup> slices_;
  /// Custom-aggregator instances per (window start, key); empty unless
  /// the operator has custom aggregators.
  std::map<std::pair<Timestamp, KeyValue>, WindowFields::Customs> customs_;
  Timestamp max_event_time_ = std::numeric_limits<Timestamp>::min();
  /// Highest watermark `FireUpTo` ran with; windows ending at or before it
  /// have fired for good (guard against late-record window resurrection).
  Timestamp fired_through_ = std::numeric_limits<Timestamp>::min();
  std::vector<Timestamp> scratch_starts_;
  std::vector<SliceCursor> scratch_cursors_;
  std::vector<AggState> scratch_merged_;
};

// --- Threshold window -------------------------------------------------------------

/// \brief Configuration of a keyed threshold-window aggregation.
struct ThresholdWindowOptions {
  ExprPtr predicate;       ///< window is open (per key) while this holds
  Duration min_duration = 0;
  std::string key_field;   ///< "" = global
  std::string time_field;
  std::vector<AggregateSpec> aggregates;
  std::vector<CustomAggregatorFactory> custom_aggregators;
};

/// \brief Data-driven windows: one window per maximal run of records
/// satisfying the predicate (per key); runs shorter than `min_duration`
/// are dropped.
///
/// Output schema: [key] + window_start + window_end + aggregates + customs.
class ThresholdWindowOperator : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input,
                                  ThresholdWindowOptions options);

  std::string name() const override { return "ThresholdWindow"; }
  const Schema& output_schema() const override { return fields_.output; }
  Status ProcessBatch(const exec::Batch& input, const EmitFn& emit) override;
  Status Finish(const EmitFn& emit) override;
  void BindMetrics(metrics::MetricsRegistry* registry,
                   const std::string& prefix) override {
    Operator::BindMetrics(registry, prefix);
    BindLateShed(registry, prefix);
  }

 private:
  struct OpenWindow {
    Timestamp start = 0;
    Timestamp last = 0;
    std::vector<AggState> states;
    WindowFields::Customs customs;
  };
  using KeyValue = WindowFields::KeyValue;

  ThresholdWindowOperator() = default;

  OpenWindow MakeWindow(Timestamp start) const;

  WindowFields fields_;
  ThresholdWindowOptions options_;
  std::map<KeyValue, OpenWindow> open_;
  /// Per key, the `last` timestamp of the most recently closed window. A
  /// satisfying record at or before it would resurrect a window already
  /// emitted, so the monotonicity guard sheds it instead (counted).
  std::map<KeyValue, Timestamp> closed_through_;
};

// --- Network channel pair ---------------------------------------------------

/// Wire frame header size: `[record_count u64][buffer_seq u64]
/// [watermark i64][channel_seq u64]`, followed by the raw record bytes.
/// `buffer_seq`/`watermark` restore the buffer metadata downstream;
/// `channel_seq` is the contiguous per-channel delivery sequence the
/// retransmit/reorder-repair protocol runs on.
inline constexpr size_t kWireFrameHeaderBytes = 4 * sizeof(uint64_t);

/// \brief Upstream half of a lowered node transition: serializes the
/// selected rows of each input batch into a wire frame (32-byte header,
/// see `kWireFrameHeaderBytes`, then the raw record bytes) and sends it
/// over the `NetworkChannel` under a contiguous channel sequence number.
/// The channel retains a bounded copy of each unacknowledged frame so the
/// paired source can request retransmits; `Finish` flushes any frames the
/// fault injector is still holding (reorder slot, delay queue).
///
/// `CompilePlan` always places the paired `NetworkChannelSource`
/// immediately downstream; the batch this operator emits (its input) is
/// only the scheduling hand-off that drives the pair within the fused
/// pipeline — the *data* the rest of the chain sees travels through the
/// serialized frame. Stats: `bytes_in` counts record payload,
/// `bytes_out` counts serialized wire bytes.
class NetworkChannelSink : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& input,
                                  std::shared_ptr<NetworkChannel> channel);

  std::string name() const override { return "NetworkChannelSink"; }
  const Schema& output_schema() const override { return schema_; }
  Status ProcessBatch(const exec::Batch& input, const EmitFn& emit) override;
  Status Finish(const EmitFn& emit) override;

  const std::shared_ptr<NetworkChannel>& channel() const { return channel_; }

 private:
  NetworkChannelSink(Schema schema, std::shared_ptr<NetworkChannel> channel)
      : schema_(std::move(schema)), channel_(std::move(channel)) {}
  Schema schema_;
  std::shared_ptr<NetworkChannel> channel_;
  uint64_t next_seq_ = 0;  ///< next channel sequence number to assign
};

/// \brief Downstream half of a node transition: drains its channel,
/// deserializes each wire frame into freshly allocated buffers (restoring
/// buffer sequence numbers and watermarks) and emits them sealed. The
/// input batch it receives from the paired `NetworkChannelSink` is
/// ignored — it only schedules the drain.
///
/// Delivery hardening: frames land in a reorder-repair buffer keyed by
/// channel sequence and are released strictly in sequence order;
/// duplicates are suppressed, acknowledged frames are released from the
/// sender's retransmit queue, and a gap (dropped frame) is repaired by
/// requesting a retransmit — as soon as more frames wait behind it than
/// the channel's fault profile can move a frame
/// (`FaultProfile::ReorderHorizon`: 0, or 3 sends when delays are
/// armed), and at `Finish` for any missing tail. A reliable or
/// reorder-only channel therefore repairs a gap on the first frame that
/// reveals it, and never requests a frame that is merely late. An
/// unrecoverable gap (channel dead, frame shed from the retransmit queue,
/// or retransmit attempts exhausted) follows the channel's shed policy:
/// `kBlock` fails the query with a `Status` naming the channel, the drop
/// policies skip the gap and count the frames as lost. Watermarks are
/// clamped per channel so repair-buffer release never regresses them.
/// Stats: `bytes_in` counts wire bytes, `bytes_out` the reconstructed
/// record payload.
class NetworkChannelSource : public Operator {
 public:
  static Result<OperatorPtr> Make(const Schema& schema,
                                  std::shared_ptr<NetworkChannel> channel);

  std::string name() const override { return "NetworkChannelSource"; }
  const Schema& output_schema() const override { return schema_; }
  Status ProcessBatch(const exec::Batch& input, const EmitFn& emit) override;
  Status Finish(const EmitFn& emit) override;

 private:
  /// One parsed frame waiting in the reorder-repair buffer.
  struct PendingFrame {
    uint64_t count = 0;       ///< record count (parsed header)
    uint64_t buffer_seq = 0;  ///< original buffer sequence number
    int64_t watermark = 0;
    std::vector<uint8_t> frame;  ///< full wire frame (payload after header)
  };

  NetworkChannelSource(Schema schema, std::shared_ptr<NetworkChannel> channel)
      : schema_(std::move(schema)), channel_(std::move(channel)) {}

  /// Receives everything currently deliverable, repairs gaps (always under
  /// buffer pressure; also the missing tail when \p at_end), and emits
  /// released frames in sequence order.
  Status Drain(const EmitFn& emit, bool at_end);
  /// Parses one wire frame into the repair buffer (suppressing
  /// duplicates).
  Status StashFrame(std::vector<uint8_t> frame);
  /// Releases the in-sequence prefix of the repair buffer and
  /// acknowledges it.
  Status ReleaseReady(const EmitFn& emit);
  /// Deserializes one released frame into pooled buffers and emits them.
  Status EmitFrame(const PendingFrame& pending, const EmitFn& emit);

  Schema schema_;
  std::shared_ptr<NetworkChannel> channel_;
  /// Reorder-repair buffer keyed by channel sequence: the frames behind
  /// the gap at `next_seq_`. Holds at most the profile's reorder horizon
  /// between drains — one frame more proves the gap a drop and triggers
  /// its retransmit.
  std::map<uint64_t, PendingFrame> pending_;
  uint64_t next_seq_ = 0;  ///< next channel sequence to release
  /// Per-channel watermark clamp: emitted watermarks are monotonic even
  /// when the repair path reconstructs frames whose stored watermarks ran
  /// backwards.
  int64_t last_watermark_ = std::numeric_limits<int64_t>::min();
};

// --- Sinks -------------------------------------------------------------------

/// \brief Terminal operator; consumes buffers. Concrete sinks override
/// `Consume`, which receives a batch so sinks read through the selection
/// vector directly — the leaf of the zero-copy path never materializes.
class SinkOperator : public Operator {
 public:
  const Schema& output_schema() const override { return schema_; }
  Status ProcessBatch(const exec::Batch& input, const EmitFn& emit) override;

 protected:
  explicit SinkOperator(Schema schema) : schema_(std::move(schema)) {}
  /// Consumes the selected rows (`batch.data->At(batch.RowAt(i))`).
  virtual Status Consume(const exec::Batch& batch) = 0;
  Schema schema_;
};

/// \brief Collects result rows as `Value` vectors (thread-safe reads).
class CollectSink : public SinkOperator {
 public:
  explicit CollectSink(Schema schema, size_t max_rows = 1 << 22)
      : SinkOperator(std::move(schema)), max_rows_(max_rows) {}

  std::string name() const override { return "CollectSink"; }

  /// Snapshot of collected rows.
  std::vector<std::vector<Value>> Rows() const;
  /// Number of rows collected so far.
  size_t RowCount() const;

 protected:
  Status Consume(const exec::Batch& batch) override;

 private:
  mutable Mutex mutex_;
  std::vector<std::vector<Value>> rows_ NM_GUARDED_BY(mutex_);
  size_t max_rows_;
};

/// \brief Counts events and bytes only (benchmark sink).
class CountingSink : public SinkOperator {
 public:
  explicit CountingSink(Schema schema) : SinkOperator(std::move(schema)) {}
  std::string name() const override { return "CountingSink"; }

  uint64_t events() const { return events_.load(); }
  uint64_t bytes() const { return bytes_.load(); }

 protected:
  Status Consume(const exec::Batch& batch) override;

 private:
  std::atomic<uint64_t> events_{0};
  std::atomic<uint64_t> bytes_{0};
};

/// \brief Writes rows as CSV (header + one line per record).
class CsvSink : public SinkOperator {
 public:
  static Result<std::shared_ptr<CsvSink>> Open(Schema schema,
                                               const std::string& path);
  ~CsvSink() override;
  std::string name() const override { return "CsvSink"; }

 protected:
  Status Consume(const exec::Batch& batch) override;

 private:
  CsvSink(Schema schema, FILE* file)
      : SinkOperator(std::move(schema)), file_(file) {}
  Mutex mutex_;
  FILE* file_ NM_GUARDED_BY(mutex_);
};

}  // namespace nebulameos::nebula
