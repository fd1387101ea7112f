/// \file source.hpp
/// \brief Stream sources: generator-driven, in-memory replay, and CSV.
///
/// A source fills tuple buffers on demand. Sources are pull-based — the
/// query's pipeline thread asks for the next buffer — which gives natural
/// backpressure on constrained devices. Event time comes from the records
/// themselves; sources stamp each buffer's watermark with the maximum event
/// time they have produced.

#pragma once

#include <algorithm>
#include <functional>

#include "nebula/expr.hpp"
#include "nebula/tuple_buffer.hpp"

namespace nebulameos::nebula {

/// \brief Shared event-time and sequence bookkeeping for sources.
///
/// Every source stamps each outgoing buffer with a monotonically
/// increasing sequence number and — when an event-time field is
/// configured — a watermark equal to the maximum event time produced so
/// far. This helper centralises that state (previously copy-pasted across
/// the concrete sources): resolve the time field once, observe each
/// written record, stamp each buffer.
class StreamStamper {
 public:
  StreamStamper() = default;

  /// Resolves \p time_field against \p schema ("" or an unknown name
  /// disables watermarking).
  StreamStamper(const Schema& schema, const std::string& time_field) {
    if (time_field.empty()) return;
    auto idx = schema.IndexOf(time_field);
    if (idx.ok()) time_index_ = static_cast<int>(*idx);
  }

  /// Tracks the event time of a just-written record.
  void Observe(const RecordView& rec) {
    if (time_index_ >= 0) {
      max_time_ = std::max(max_time_, rec.GetInt64(time_index_));
    }
  }

  /// Stamps \p buffer with the next sequence number and, when
  /// watermarking, the current high-water event time.
  void Stamp(TupleBuffer* buffer) {
    buffer->set_sequence_number(next_sequence_++);
    if (time_index_ >= 0) buffer->set_watermark(max_time_);
  }

 private:
  int time_index_ = -1;
  Timestamp max_time_ = 0;
  uint64_t next_sequence_ = 0;
};

/// \brief Abstract pull-based source.
class Source {
 public:
  virtual ~Source() = default;

  /// Schema of produced records.
  virtual const Schema& schema() const = 0;

  /// Fills \p buffer with up to its capacity of records.
  /// Returns false when the stream is exhausted (buffer may still contain a
  /// final partial batch). Runs on a worker of the engine's pool, one call
  /// per ingest step: a `Fill` that waits (pacing, a gate) holds that
  /// worker for the duration of the wait.
  virtual Result<bool> Fill(TupleBuffer* buffer) = 0;

  /// Human-readable name for logs and plans.
  virtual std::string name() const { return "Source"; }

  /// Declares this source an instance of a *named logical source*
  /// (NebulaStream's cross-query identity): two sources carrying the same
  /// logical name assert they produce the same stream, which lets the
  /// serving layer merge independently submitted plans over one physical
  /// ingest. Sources without a logical name are never shared.
  void SetLogicalName(std::string name) { logical_name_ = std::move(name); }
  /// The declared logical-source name ("" = unnamed, unshareable).
  const std::string& logical_name() const { return logical_name_; }

  /// Sharing signature: empty for unnamed sources (never shareable),
  /// otherwise the logical name qualified by the produced schema so two
  /// same-named sources with diverging schemas cannot be merged.
  virtual std::string Signature() const {
    if (logical_name_.empty()) return std::string();
    return logical_name_ + "|" + schema().ToString();
  }

 private:
  std::string logical_name_;
};

using SourcePtr = std::unique_ptr<Source>;

/// \brief Source driven by a record-producing callback.
///
/// The generator writes one record per call and returns false when the
/// stream ends. An optional event-time field is tracked for watermarking.
class GeneratorSource : public Source {
 public:
  /// Writes one record; returns false to end the stream.
  using GenerateFn = std::function<bool(RecordWriter*)>;

  /// \p max_events bounds the stream (0 = unbounded, generator decides);
  /// \p time_field names the event-time field used for buffer watermarks
  /// ("" = no watermarking).
  GeneratorSource(Schema schema, GenerateFn generate, uint64_t max_events = 0,
                  std::string time_field = "");

  const Schema& schema() const override { return schema_; }
  Result<bool> Fill(TupleBuffer* buffer) override;
  std::string name() const override { return "GeneratorSource"; }

  /// Events produced so far.
  uint64_t produced() const { return produced_; }

 private:
  Schema schema_;
  GenerateFn generate_;
  uint64_t max_events_;
  uint64_t produced_ = 0;
  StreamStamper stamper_;
  bool done_ = false;
};

/// \brief Replays records stored in memory (supports repeating the data set
/// multiple times — used by throughput benchmarks).
class MemorySource : public Source {
 public:
  /// \p rounds full repetitions of \p data (>=1).
  MemorySource(Schema schema, std::vector<std::vector<Value>> data,
               size_t rounds = 1, std::string time_field = "");

  const Schema& schema() const override { return schema_; }
  Result<bool> Fill(TupleBuffer* buffer) override;
  std::string name() const override { return "MemorySource"; }

 private:
  Schema schema_;
  std::vector<std::vector<Value>> data_;
  size_t rounds_;
  size_t round_ = 0;
  size_t pos_ = 0;
  StreamStamper stamper_;
};

/// \brief Rate-paces an inner source to a target events/second (token
/// bucket over the wall clock).
///
/// Benchmarks use this to reproduce *offered load*: the paper reports the
/// rates its edge device ingested; pacing the simulator to those rates
/// shows whether the engine sustains them (and with how much headroom).
class PacedSource : public Source {
 public:
  /// Wraps \p inner, emitting at most \p events_per_second.
  PacedSource(SourcePtr inner, double events_per_second);

  const Schema& schema() const override { return inner_->schema(); }
  Result<bool> Fill(TupleBuffer* buffer) override;
  std::string name() const override { return "PacedSource"; }

 private:
  SourcePtr inner_;
  double events_per_second_;
  int64_t started_at_ = 0;
  uint64_t released_ = 0;
};

/// \brief Reads CSV rows (header optional) into records by schema order.
class CsvSource : public Source {
 public:
  /// Opens \p path; fails when the file is missing. \p skip_header drops
  /// the first line.
  static Result<SourcePtr> Open(Schema schema, const std::string& path,
                                bool skip_header = true,
                                std::string time_field = "");

  ~CsvSource() override;
  const Schema& schema() const override { return schema_; }
  Result<bool> Fill(TupleBuffer* buffer) override;
  std::string name() const override { return "CsvSource"; }

 private:
  CsvSource(Schema schema, FILE* file, const std::string& time_field)
      : schema_(std::move(schema)),
        file_(file),
        stamper_(schema_, time_field) {}

  Schema schema_;
  FILE* file_;
  StreamStamper stamper_;
};

}  // namespace nebulameos::nebula
