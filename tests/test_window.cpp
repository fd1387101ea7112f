// Tests for windowing: assigner, aggregate state, window operators
// (tumbling/sliding/threshold) — the paper's window extensions.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "nebula/operators.hpp"

namespace nebulameos::nebula {
namespace {

Schema EventSchema() {
  return Schema::Build()
      .AddInt64("key")
      .AddTimestamp("ts")
      .AddDouble("value")
      .Finish();
}

// Feeds rows through an operator and collects emitted rows.
class WindowHarness {
 public:
  explicit WindowHarness(OperatorPtr op) : op_(std::move(op)) {
    EXPECT_TRUE(op_->Open(&ctx_).ok());
  }

  void Feed(std::initializer_list<std::tuple<int64_t, Timestamp, double>> rows) {
    auto buf = std::make_shared<TupleBuffer>(EventSchema(), rows.size());
    for (const auto& [key, ts, value] : rows) {
      RecordWriter w = buf->Append();
      w.SetInt64(0, key);
      w.SetInt64(1, ts);
      w.SetDouble(2, value);
    }
    EXPECT_TRUE(op_->ProcessBatch(exec::Batch(buf), collector_).ok());
  }

  void FeedBatch(const exec::Batch& batch) {
    EXPECT_TRUE(op_->ProcessBatch(batch, collector_).ok());
  }

  void Finish() { EXPECT_TRUE(op_->Finish(collector_).ok()); }

  // Stored callable: Operator::EmitFn is a non-owning FunctionRef, so the
  // referenced callable must outlive the ProcessBatch/Finish call.
  std::function<void(const exec::Batch&)> MakeCollector() {
    return [this](const exec::Batch& out) {
      for (size_t i = 0; i < out.NumRows(); ++i) {
        const RecordView rec = out.data->At(out.RowAt(i));
        std::vector<Value> row;
        for (size_t f = 0; f < out.data->schema().num_fields(); ++f) {
          switch (out.data->schema().field(f).type) {
            case DataType::kBool:
              row.emplace_back(rec.GetBool(f));
              break;
            case DataType::kInt64:
            case DataType::kTimestamp:
              row.emplace_back(rec.GetInt64(f));
              break;
            case DataType::kDouble:
              row.emplace_back(rec.GetDouble(f));
              break;
            default:
              row.emplace_back(rec.GetText(f));
          }
        }
        rows_.push_back(std::move(row));
      }
    };
  }

  const std::vector<std::vector<Value>>& rows() const { return rows_; }
  Operator* op() { return op_.get(); }

 private:
  ExecutionContext ctx_;
  OperatorPtr op_;
  std::vector<std::vector<Value>> rows_;
  std::function<void(const exec::Batch&)> collector_ = MakeCollector();
};

TEST(WindowAssigner, TumblingSingleWindow) {
  auto assigner = WindowAssigner::Make(TumblingWindowSpec{Seconds(10)});
  ASSERT_TRUE(assigner.ok());
  std::vector<Timestamp> starts;
  assigner->AssignWindows(Seconds(25), &starts);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], Seconds(20));
  // Exactly on a boundary belongs to the window starting there.
  assigner->AssignWindows(Seconds(30), &starts);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], Seconds(30));
}

TEST(WindowAssigner, SlidingMultipleWindows) {
  auto assigner =
      WindowAssigner::Make(SlidingWindowSpec{Seconds(10), Seconds(5)});
  ASSERT_TRUE(assigner.ok());
  std::vector<Timestamp> starts;
  assigner->AssignWindows(Seconds(12), &starts);
  // Windows [10,20) and [5,15) contain t=12.
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], Seconds(10));
  EXPECT_EQ(starts[1], Seconds(5));
}

TEST(WindowAssigner, Validation) {
  EXPECT_FALSE(WindowAssigner::Make(TumblingWindowSpec{0}).ok());
  EXPECT_FALSE(
      WindowAssigner::Make(SlidingWindowSpec{Seconds(5), Seconds(10)}).ok());
  EXPECT_FALSE(WindowAssigner::Make(ThresholdWindowSpec{}).ok());
}

TEST(AggState, AllKinds) {
  AggState state;
  state.Add(3.0, 10);
  state.Add(1.0, 20);
  state.Add(5.0, 30);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kCount), 3.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kSum), 9.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kAvg), 3.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kMin), 1.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kMax), 5.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kFirst), 3.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kLast), 5.0);
}

TEST(AggState, MergeMatchesOneFold) {
  // Values split across two states fold like one state fed in order,
  // including equal-timestamp ties across the states for first (earliest
  // arrival) and last (latest arrival), and merges with empty states.
  AggState one;
  AggState early;
  AggState late;
  const std::vector<std::pair<double, Timestamp>> values = {
      {4.0, 10}, {2.0, 30}, {5.0, 10}, {7.0, 20}, {9.0, 30}};
  for (size_t i = 0; i < values.size(); ++i) {
    one.Add(values[i].first, values[i].second);
    (i < 2 ? early : late).Add(values[i].first, values[i].second);
  }
  AggState merged;
  merged.Merge(AggState{});
  merged.Merge(early);
  merged.Merge(late);
  merged.Merge(AggState{});
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                       AggKind::kMin, AggKind::kMax, AggKind::kFirst,
                       AggKind::kLast}) {
    EXPECT_EQ(merged.Result(kind), one.Result(kind));
  }
  EXPECT_EQ(merged.Result(AggKind::kFirst), 4.0);
  EXPECT_EQ(merged.Result(AggKind::kLast), 9.0);
}

TEST(AggState, FirstLastByEventTime) {
  AggState state;
  state.Add(3.0, 30);  // arrives first but is temporally last
  state.Add(1.0, 10);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kFirst), 1.0);
  EXPECT_DOUBLE_EQ(state.Result(AggKind::kLast), 3.0);
}

WindowAggOptions TumblingOptions(Duration size) {
  WindowAggOptions opts;
  opts.key_field = "key";
  opts.time_field = "ts";
  opts.window = TumblingWindowSpec{size};
  opts.aggregates = {AggregateSpec::Avg("value", "avg_value"),
                     AggregateSpec::Count("n")};
  return opts;
}

TEST(WindowAggOperator, TumblingKeyedAggregation) {
  auto op = WindowAggOperator::Make(EventSchema(), TumblingOptions(Seconds(10)));
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(1), 2.0},
          {1, Seconds(2), 4.0},
          {2, Seconds(3), 10.0},
          {1, Seconds(12), 6.0}});
  h.Finish();
  // Expected panes: (key=1, [0,10)) avg 3 n 2; (key=2, [0,10)) avg 10 n 1;
  // (key=1, [10,20)) avg 6 n 1 — emitted in (window, key) order.
  ASSERT_EQ(h.rows().size(), 3u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][0]), 1);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][1]), 0);            // window_start
  EXPECT_EQ(ValueAsInt64(h.rows()[0][2]), Seconds(10));  // window_end
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[0][3]), 3.0);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][4]), 2);
  EXPECT_EQ(ValueAsInt64(h.rows()[1][0]), 2);
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[1][3]), 10.0);
  EXPECT_EQ(ValueAsInt64(h.rows()[2][0]), 1);
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[2][3]), 6.0);
}

TEST(WindowAggOperator, WatermarkFiresClosedPanes) {
  auto op = WindowAggOperator::Make(EventSchema(), TumblingOptions(Seconds(10)));
  ASSERT_TRUE(op.ok());
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(1), 2.0}});
  EXPECT_TRUE(h.rows().empty());  // window still open
  h.Feed({{1, Seconds(11), 4.0}});
  // Watermark = 11s > window end 10s: the first pane fires without Finish.
  ASSERT_EQ(h.rows().size(), 1u);
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[0][3]), 2.0);
  h.Finish();
  EXPECT_EQ(h.rows().size(), 2u);
}

TEST(WindowAggOperator, SlidingOverlapCountsTwice) {
  WindowAggOptions opts = TumblingOptions(0);
  opts.window = SlidingWindowSpec{Seconds(10), Seconds(5)};
  auto op = WindowAggOperator::Make(EventSchema(), opts);
  ASSERT_TRUE(op.ok());
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(7), 2.0}});
  h.Finish();
  // Event at 7s belongs to windows [0,10) and [5,15).
  ASSERT_EQ(h.rows().size(), 2u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][1]), 0);
  EXPECT_EQ(ValueAsInt64(h.rows()[1][1]), Seconds(5));
}

TEST(WindowAggOperator, GlobalWindowWithoutKey) {
  WindowAggOptions opts;
  opts.time_field = "ts";
  opts.window = TumblingWindowSpec{Seconds(10)};
  opts.aggregates = {AggregateSpec::Sum("value", "total")};
  auto op = WindowAggOperator::Make(EventSchema(), opts);
  ASSERT_TRUE(op.ok());
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(1), 2.0}, {2, Seconds(2), 3.0}});
  h.Finish();
  ASSERT_EQ(h.rows().size(), 1u);
  // Unkeyed output: window_start, window_end, total.
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[0][2]), 5.0);
}

TEST(WindowAggOperator, Validation) {
  WindowAggOptions opts = TumblingOptions(Seconds(10));
  opts.time_field = "";
  EXPECT_FALSE(WindowAggOperator::Make(EventSchema(), opts).ok());
  opts = TumblingOptions(Seconds(10));
  opts.key_field = "missing";
  EXPECT_FALSE(WindowAggOperator::Make(EventSchema(), opts).ok());
  opts = TumblingOptions(Seconds(10));
  opts.window = ThresholdWindowSpec{Lit(true), 0};
  EXPECT_FALSE(WindowAggOperator::Make(EventSchema(), opts).ok());
  opts = TumblingOptions(Seconds(10));
  opts.aggregates = {AggregateSpec::Avg("missing", "x")};
  EXPECT_FALSE(WindowAggOperator::Make(EventSchema(), opts).ok());
}

ThresholdWindowOptions ThresholdOptions(double threshold,
                                        Duration min_duration) {
  ThresholdWindowOptions opts;
  opts.predicate = Gt(Attribute("value"), Lit(threshold));
  opts.min_duration = min_duration;
  opts.key_field = "key";
  opts.time_field = "ts";
  opts.aggregates = {AggregateSpec::Max("value", "peak"),
                     AggregateSpec::Count("n")};
  return opts;
}

TEST(ThresholdWindowOperator, OpensAndClosesOnPredicate) {
  auto op = ThresholdWindowOperator::Make(EventSchema(),
                                          ThresholdOptions(5.0, 0));
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(1), 3.0},    // below: no window
          {1, Seconds(2), 7.0},    // opens
          {1, Seconds(3), 9.0},    // extends
          {1, Seconds(4), 2.0},    // closes -> emit
          {1, Seconds(5), 8.0}});  // reopens (still open at end)
  ASSERT_EQ(h.rows().size(), 1u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][1]), Seconds(2));  // window_start
  EXPECT_EQ(ValueAsInt64(h.rows()[0][2]), Seconds(3));  // window_end
  EXPECT_DOUBLE_EQ(ValueAsDouble(h.rows()[0][3]), 9.0);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][4]), 2);
  h.Finish();  // flushes the reopened window
  ASSERT_EQ(h.rows().size(), 2u);
  EXPECT_EQ(ValueAsInt64(h.rows()[1][1]), Seconds(5));
}

TEST(ThresholdWindowOperator, MinDurationFilters) {
  auto op = ThresholdWindowOperator::Make(EventSchema(),
                                          ThresholdOptions(5.0, Seconds(5)));
  ASSERT_TRUE(op.ok());
  WindowHarness h(std::move(*op));
  // A 1-second burst: too short.
  h.Feed({{1, Seconds(1), 7.0}, {1, Seconds(2), 3.0}});
  EXPECT_TRUE(h.rows().empty());
  // A 6-second run: long enough.
  h.Feed({{1, Seconds(10), 7.0},
          {1, Seconds(13), 8.0},
          {1, Seconds(16), 9.0},
          {1, Seconds(17), 1.0}});
  ASSERT_EQ(h.rows().size(), 1u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][1]), Seconds(10));
  EXPECT_EQ(ValueAsInt64(h.rows()[0][2]), Seconds(16));
}

TEST(ThresholdWindowOperator, PerKeyIndependence) {
  auto op = ThresholdWindowOperator::Make(EventSchema(),
                                          ThresholdOptions(5.0, 0));
  ASSERT_TRUE(op.ok());
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(1), 7.0},
          {2, Seconds(2), 9.0},
          {1, Seconds(3), 1.0},    // closes key 1 only
          {2, Seconds(4), 9.5}});  // key 2 still open
  ASSERT_EQ(h.rows().size(), 1u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0][0]), 1);
  h.Finish();
  EXPECT_EQ(h.rows().size(), 2u);
}

TEST(ThresholdWindowOperator, Validation) {
  ThresholdWindowOptions opts = ThresholdOptions(5.0, 0);
  opts.predicate = nullptr;
  EXPECT_FALSE(ThresholdWindowOperator::Make(EventSchema(), opts).ok());
  opts = ThresholdOptions(5.0, 0);
  opts.time_field = "missing";
  EXPECT_FALSE(ThresholdWindowOperator::Make(EventSchema(), opts).ok());
}

// A custom aggregator counting records (plugin hook check).
class CountingCustomAgg : public CustomAggregator {
 public:
  void Add(const RecordView&, Timestamp) override { ++count_; }
  std::vector<Field> OutputFields() const override {
    return {{"custom_count", DataType::kInt64}};
  }
  void WriteResult(RecordWriter* out, size_t first_index) override {
    out->SetInt64(first_index, count_);
  }
  Status Bind(const Schema&) override { return Status::OK(); }

 private:
  int64_t count_ = 0;
};

TEST(WindowAggOperator, CustomAggregatorExtendsOutput) {
  WindowAggOptions opts = TumblingOptions(Seconds(10));
  opts.custom_aggregators = {
      []() { return std::make_unique<CountingCustomAgg>(); }};
  auto op = WindowAggOperator::Make(EventSchema(), opts);
  ASSERT_TRUE(op.ok());
  EXPECT_TRUE((*op)->output_schema().HasField("custom_count"));
  WindowHarness h(std::move(*op));
  h.Feed({{1, Seconds(1), 2.0}, {1, Seconds(2), 4.0}});
  h.Finish();
  ASSERT_EQ(h.rows().size(), 1u);
  EXPECT_EQ(ValueAsInt64(h.rows()[0].back()), 2);
}

// --- Slicing against a brute-force fold --------------------------------------
//
// Seeded property test: WindowAggOperator against a reference that keeps
// every record of every window and folds each window from scratch when it
// fires. The reference applies the operator's contract directly: a record
// joins window [s, s + size) iff that window had not fired when the
// record's batch arrived (a record joining none is shed); after each batch
// the windows ending at or before the watermark (max event time − allowed
// lateness) fire in (window start, key) order; `Finish` fires the rest.

Schema SliceSchema() {
  return Schema::Build()
      .AddInt64("ikey")
      .AddText16("tkey")
      .AddTimestamp("ts")
      .AddDouble("value")
      .AddInt64("ivalue")
      .Finish();
}

struct RefRecord {
  int64_t key;
  Timestamp ts;
  double value;
  int64_t ivalue;
};

enum class KeyMode { kInt64, kText, kNone };

using RefKey = std::variant<int64_t, std::string>;

RefKey KeyFor(KeyMode mode, int64_t key) {
  if (mode == KeyMode::kText) return "train-" + std::to_string(key);
  return mode == KeyMode::kInt64 ? key : 0;
}

// Order-sensitive holistic aggregate: counts its records and hashes their
// (ts, ivalue) sequence in arrival order.
class SequenceCustomAgg : public CustomAggregator {
 public:
  void Add(const RecordView& rec, Timestamp t) override {
    ++count_;
    hash_ = hash_ * 1000003u + static_cast<uint64_t>(t) * 31u +
            static_cast<uint64_t>(rec.GetInt64(ivalue_));
  }
  std::vector<Field> OutputFields() const override {
    return {{"seq_count", DataType::kInt64}, {"seq_hash", DataType::kInt64}};
  }
  void WriteResult(RecordWriter* out, size_t first_index) override {
    out->SetInt64(first_index, count_);
    out->SetInt64(first_index + 1, static_cast<int64_t>(hash_));
  }
  Status Bind(const Schema& schema) override {
    NM_ASSIGN_OR_RETURN(ivalue_, schema.IndexOf("ivalue"));
    return Status::OK();
  }

  static uint64_t HashOf(const std::vector<RefRecord>& recs) {
    uint64_t hash = 0;
    for (const RefRecord& r : recs) {
      hash = hash * 1000003u + static_cast<uint64_t>(r.ts) * 31u +
             static_cast<uint64_t>(r.ivalue);
    }
    return hash;
  }

 private:
  size_t ivalue_ = 0;
  int64_t count_ = 0;
  uint64_t hash_ = 0;
};

struct RefWindow {
  RefKey key;
  Timestamp start;
  std::vector<RefRecord> records;  // joined records, in arrival order
};

class ReferenceWindows {
 public:
  ReferenceWindows(KeyMode mode, Duration size, Duration slide,
                   Duration lateness)
      : mode_(mode), size_(size), slide_(slide), lateness_(lateness) {}

  void Feed(const std::vector<RefRecord>& batch) {
    for (const RefRecord& r : batch) {
      max_ts_ = std::max(max_ts_, r.ts);
      const Timestamp latest = r.ts - ((r.ts % slide_) + slide_) % slide_;
      bool joined = false;
      for (Timestamp s = latest; s > r.ts - size_; s -= slide_) {
        if (s + size_ <= fired_) continue;
        open_[{s, KeyFor(mode_, r.key)}].push_back(r);
        joined = true;
      }
      if (!joined) ++shed_;
    }
    if (max_ts_ != std::numeric_limits<Timestamp>::min()) {
      Fire(max_ts_ - lateness_);
    }
  }

  void Fire(Timestamp watermark) {
    fired_ = std::max(fired_, watermark);
    for (auto it = open_.begin(); it != open_.end();) {
      if (it->first.first + size_ > fired_) {
        ++it;
        continue;
      }
      fired_windows_.push_back(
          {it->first.second, it->first.first, std::move(it->second)});
      it = open_.erase(it);
    }
  }

  const std::vector<RefWindow>& fired() const { return fired_windows_; }
  uint64_t shed() const { return shed_; }

 private:
  KeyMode mode_;
  Duration size_;
  Duration slide_;
  Duration lateness_;
  Timestamp max_ts_ = std::numeric_limits<Timestamp>::min();
  Timestamp fired_ = std::numeric_limits<Timestamp>::min();
  std::map<std::pair<Timestamp, RefKey>, std::vector<RefRecord>> open_;
  std::vector<RefWindow> fired_windows_;
  uint64_t shed_ = 0;
};

std::vector<AggregateSpec> EveryAggregate() {
  return {AggregateSpec::Count("n"),
          AggregateSpec::Sum("value", "sum_v"),
          AggregateSpec::Avg("value", "avg_v"),
          AggregateSpec::Min("value", "min_v"),
          AggregateSpec::Max("value", "max_v"),
          AggregateSpec::First("value", "first_v"),
          AggregateSpec::Last("value", "last_v"),
          AggregateSpec::Sum("ivalue", "sum_i"),
          AggregateSpec::Avg("ivalue", "avg_i"),
          AggregateSpec::Min("ivalue", "min_i"),
          AggregateSpec::Max("ivalue", "max_i"),
          AggregateSpec::First("ivalue", "first_i"),
          AggregateSpec::Last("ivalue", "last_i")};
}

// Checks one emitted row against the brute-force fold of its window.
void ExpectRowMatches(const std::vector<Value>& row, const RefWindow& want,
                      KeyMode mode, Duration size, bool custom,
                      const std::string& where) {
  SCOPED_TRACE(where);
  size_t f = 0;
  if (mode == KeyMode::kInt64) {
    EXPECT_EQ(ValueAsInt64(row[f++]), std::get<int64_t>(want.key));
  } else if (mode == KeyMode::kText) {
    EXPECT_EQ(std::get<std::string>(row[f++]), std::get<std::string>(want.key));
  }
  EXPECT_EQ(ValueAsInt64(row[f++]), want.start);
  EXPECT_EQ(ValueAsInt64(row[f++]), want.start + size);

  const std::vector<RefRecord>& recs = want.records;
  ASSERT_FALSE(recs.empty());
  double sum_v = 0.0;
  double sum_i = 0.0;
  double min_v = recs[0].value;
  double max_v = recs[0].value;
  double min_i = static_cast<double>(recs[0].ivalue);
  double max_i = min_i;
  size_t first = 0;
  size_t last = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    sum_v += recs[i].value;
    sum_i += static_cast<double>(recs[i].ivalue);
    min_v = std::min(min_v, recs[i].value);
    max_v = std::max(max_v, recs[i].value);
    min_i = std::min(min_i, static_cast<double>(recs[i].ivalue));
    max_i = std::max(max_i, static_cast<double>(recs[i].ivalue));
    if (recs[i].ts < recs[first].ts) first = i;   // earliest arrival wins
    if (recs[i].ts >= recs[last].ts) last = i;    // latest arrival wins
  }
  const double n = static_cast<double>(recs.size());
  const auto near = [](double got, double want_value) {
    return std::abs(got - want_value) <= 1e-12 * std::abs(want_value);
  };
  EXPECT_EQ(ValueAsInt64(row[f++]), static_cast<int64_t>(recs.size()));
  const double got_sum_v = ValueAsDouble(row[f++]);
  EXPECT_TRUE(near(got_sum_v, sum_v)) << got_sum_v << " vs " << sum_v;
  const double got_avg_v = ValueAsDouble(row[f++]);
  EXPECT_TRUE(near(got_avg_v, sum_v / n)) << got_avg_v << " vs " << sum_v / n;
  EXPECT_EQ(ValueAsDouble(row[f++]), min_v);
  EXPECT_EQ(ValueAsDouble(row[f++]), max_v);
  EXPECT_EQ(ValueAsDouble(row[f++]), recs[first].value);
  EXPECT_EQ(ValueAsDouble(row[f++]), recs[last].value);
  EXPECT_EQ(ValueAsDouble(row[f++]), sum_i);
  EXPECT_EQ(ValueAsDouble(row[f++]), sum_i / n);
  EXPECT_EQ(ValueAsDouble(row[f++]), min_i);
  EXPECT_EQ(ValueAsDouble(row[f++]), max_i);
  EXPECT_EQ(ValueAsDouble(row[f++]), static_cast<double>(recs[first].ivalue));
  EXPECT_EQ(ValueAsDouble(row[f++]), static_cast<double>(recs[last].ivalue));
  if (custom) {
    EXPECT_EQ(ValueAsInt64(row[f++]), static_cast<int64_t>(recs.size()));
    EXPECT_EQ(ValueAsInt64(row[f++]),
              static_cast<int64_t>(SequenceCustomAgg::HashOf(recs)));
  }
  EXPECT_EQ(f, row.size());
}

struct SliceCase {
  const char* name;
  WindowSpec window;
  Duration size;
  Duration slide;
};

// Runs one seeded stream through the operator and the reference.
void RunSliceCase(const SliceCase& c, KeyMode mode, Duration lateness,
                  bool custom, uint64_t seed) {
  const std::string where = std::string(c.name) + " key=" +
                            std::to_string(static_cast<int>(mode)) +
                            " lateness=" + std::to_string(lateness) +
                            " custom=" + std::to_string(custom) +
                            " seed=" + std::to_string(seed);
  SCOPED_TRACE(where);
  WindowAggOptions opts;
  opts.key_field = mode == KeyMode::kInt64  ? "ikey"
                   : mode == KeyMode::kText ? "tkey"
                                            : "";
  opts.time_field = "ts";
  opts.window = c.window;
  opts.aggregates = EveryAggregate();
  opts.allowed_lateness = lateness;
  if (custom) {
    opts.custom_aggregators = {
        []() { return std::make_unique<SequenceCustomAgg>(); }};
  }
  auto op = WindowAggOperator::Make(SliceSchema(), opts);
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  WindowHarness h(std::move(*op));
  ReferenceWindows ref(mode, c.size, c.slide, lateness);

  std::mt19937_64 rng(seed);
  const auto chance = [&rng](double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  };
  const auto pick = [&rng](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  // Starts before 0 so windows straddle negative timestamps; 250 ms steps
  // make equal timestamps (first/last ties) common.
  Timestamp cursor = -Seconds(45);
  const Duration step = Millis(250);
  for (int b = 0; b < 40; ++b) {
    const size_t rows = static_cast<size_t>(pick(0, 24));
    auto buf = std::make_shared<TupleBuffer>(SliceSchema(), rows + 1);
    std::vector<RefRecord> records;
    for (size_t i = 0; i < rows; ++i) {
      if (chance(0.03)) cursor += Seconds(pick(20, 60));  // empty windows
      cursor += step * pick(0, 4);
      RefRecord r{pick(0, 4), cursor,
                  std::uniform_real_distribution<double>(0.1, 100.0)(rng),
                  pick(-50, 50)};
      // Out of order: some within allowed lateness, some beyond it.
      if (chance(0.15)) r.ts -= step * pick(0, (lateness + Seconds(12)) / step);
      RecordWriter w = buf->Append();
      w.SetInt64(0, r.key);
      w.SetText(1, std::get<std::string>(KeyFor(KeyMode::kText, r.key)));
      w.SetInt64(2, r.ts);
      w.SetDouble(3, r.value);
      w.SetInt64(4, r.ivalue);
      records.push_back(r);
    }
    // Partial selections: the operator must read only the selected rows.
    exec::SelectionPtr selection;
    std::vector<RefRecord> selected = records;
    if (chance(0.4)) {
      auto sel = std::make_shared<exec::SelectionVector>();
      selected.clear();
      for (size_t i = 0; i < rows; ++i) {
        if (chance(0.6)) {
          sel->push_back(static_cast<uint32_t>(i));
          selected.push_back(records[i]);
        }
      }
      selection = std::move(sel);
    }
    h.FeedBatch(exec::Batch(buf, selection));
    ref.Feed(selected);
    ASSERT_EQ(h.rows().size(), ref.fired().size()) << "after batch " << b;
  }
  h.Finish();
  ref.Fire(std::numeric_limits<Timestamp>::max());
  ASSERT_EQ(h.rows().size(), ref.fired().size());
  EXPECT_EQ(h.op()->stats().events_shed, ref.shed());
  for (size_t i = 0; i < h.rows().size(); ++i) {
    ExpectRowMatches(h.rows()[i], ref.fired()[i], mode, c.size, custom,
                     "row " + std::to_string(i));
  }
}

TEST(WindowAggOperator, SlicesMatchBruteForceWindows) {
  const std::vector<SliceCase> cases = {
      {"tumbling 10s", TumblingWindowSpec{Seconds(10)}, Seconds(10),
       Seconds(10)},
      {"sliding 10s/5s", SlidingWindowSpec{Seconds(10), Seconds(5)},
       Seconds(10), Seconds(5)},
      {"sliding 10s/4s", SlidingWindowSpec{Seconds(10), Seconds(4)},
       Seconds(10), Seconds(4)},
  };
  for (const SliceCase& c : cases) {
    for (KeyMode mode : {KeyMode::kInt64, KeyMode::kText, KeyMode::kNone}) {
      for (Duration lateness : {Duration{0}, Seconds(3)}) {
        for (bool custom : {false, true}) {
          for (uint64_t seed = 1; seed <= 3; ++seed) {
            RunSliceCase(c, mode, lateness, custom, seed);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nebulameos::nebula
