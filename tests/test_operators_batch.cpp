// Selection parity of the operator contract (nebula/operator.hpp): an
// operator that reads rows must produce the same output rows and flow
// counters whether its input arrives as a dense buffer or as a partial
// selection over a larger shared buffer, and every batch it emits must
// sit on a sealed buffer.

#include <gtest/gtest.h>

#include <functional>

#include "nebula/cep.hpp"
#include "nebula/join.hpp"
#include "nebula/operators.hpp"
#include "nebula/source.hpp"
#include "nebula/topology.hpp"
#include "nebulameos/topk_nearest.hpp"

namespace nebulameos::nebula {
namespace {

using Row = std::vector<Value>;
using Chain = std::vector<OperatorPtr>;

constexpr size_t kRows = 300;
constexpr size_t kRowsPerBatch = 50;
constexpr int64_t kKeys = 4;

Schema EventSchema() {
  return Schema::Build()
      .AddInt64("key")
      .AddTimestamp("ts")
      .AddDouble("value")
      .AddDouble("lon")
      .AddDouble("lat")
      .Finish();
}

void WriteEvent(TupleBuffer* buf, int64_t key, Timestamp ts, double value,
                double lon, double lat) {
  RecordWriter w = buf->Append();
  w.SetInt64(0, key);
  w.SetInt64(1, ts);
  w.SetDouble(2, value);
  w.SetDouble(3, lon);
  w.SetDouble(4, lat);
}

// Event i of the shared input stream. Every 37th event runs 90 s behind,
// so the monotonicity guards shed some rows and `events_shed` is part of
// the comparison.
void WriteRealEvent(TupleBuffer* buf, size_t i) {
  const auto n = static_cast<int64_t>(i);
  Timestamp ts = Seconds(2 * n);
  if (i % 37 == 36) ts -= Seconds(90);
  WriteEvent(buf, n % kKeys, ts, static_cast<double>((n * 7) % 11),
             0.001 * static_cast<double>((n * 3) % 17 + 10 * (n % kKeys)),
             0.001 * static_cast<double>(n % 13));
}

// Batch `b` of the stream, either dense or as the odd rows of a buffer
// whose even rows are decoys no operator may read.
exec::Batch MakeBatch(size_t b, bool partial) {
  const size_t first = b * kRowsPerBatch;
  if (!partial) {
    auto buf = std::make_shared<TupleBuffer>(EventSchema(), kRowsPerBatch);
    for (size_t i = first; i < first + kRowsPerBatch; ++i) {
      WriteRealEvent(buf.get(), i);
    }
    buf->Seal();
    return exec::Batch(std::move(buf));
  }
  auto buf = std::make_shared<TupleBuffer>(EventSchema(), 2 * kRowsPerBatch);
  auto selection = std::make_shared<exec::SelectionVector>();
  for (size_t i = first; i < first + kRowsPerBatch; ++i) {
    WriteEvent(buf.get(), 7, Seconds(2 * static_cast<int64_t>(i)) + 1,
               1000.0, 50.0, 50.0);
    selection->push_back(static_cast<uint32_t>(buf->size()));
    WriteRealEvent(buf.get(), i);
  }
  buf->Seal();
  return exec::Batch(std::move(buf), std::move(selection));
}

struct Outcome {
  std::vector<Row> rows;
  std::vector<OperatorStats> stats;
  size_t emitted_batches = 0;
  size_t unsealed_batches = 0;
};

void Collect(const exec::Batch& batch, Outcome* out) {
  const Schema& schema = batch.data->schema();
  for (size_t i = 0; i < batch.NumRows(); ++i) {
    const RecordView rec = batch.data->At(batch.RowAt(i));
    Row row;
    for (size_t f = 0; f < schema.num_fields(); ++f) {
      switch (schema.field(f).type) {
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
    out->rows.push_back(std::move(row));
  }
}

// Runs `batch` through chain[from..]; batches leaving the last operator
// are collected.
void Push(Chain& chain, size_t from, const exec::Batch& batch, Outcome* out) {
  if (from > 0) {
    ++out->emitted_batches;
    if (!batch.data->sealed()) ++out->unsealed_batches;
  }
  if (from == chain.size()) {
    Collect(batch, out);
    return;
  }
  auto next = [&chain, from, out](const exec::Batch& b) {
    Push(chain, from + 1, b, out);
  };
  const Status st = chain[from]->ProcessBatch(batch, next);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// Feeds the whole stream through a fresh chain, then finishes it. Small
// output buffers make the operators roll over mid-batch.
Outcome Drive(const std::function<Chain()>& make_chain, bool partial) {
  ExecutionContext ctx(/*tuples_per_buffer=*/16, /*pool_size=*/64);
  Chain chain = make_chain();
  for (OperatorPtr& op : chain) EXPECT_TRUE(op->Open(&ctx).ok());
  Outcome out;
  for (size_t b = 0; b < kRows / kRowsPerBatch; ++b) {
    Push(chain, 0, MakeBatch(b, partial), &out);
  }
  for (size_t i = 0; i < chain.size(); ++i) {
    auto next = [&chain, i, &out](const exec::Batch& b) {
      Push(chain, i + 1, b, &out);
    };
    const Status st = chain[i]->Finish(next);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  for (const OperatorPtr& op : chain) out.stats.push_back(op->stats());
  return out;
}

void ExpectSelectionParity(const std::function<Chain()>& make_chain) {
  const Outcome dense = Drive(make_chain, /*partial=*/false);
  const Outcome partial = Drive(make_chain, /*partial=*/true);
  EXPECT_FALSE(dense.rows.empty());
  EXPECT_EQ(dense.rows, partial.rows);
  EXPECT_GT(dense.emitted_batches, 0u);
  EXPECT_EQ(dense.unsealed_batches, 0u);
  EXPECT_EQ(partial.unsealed_batches, 0u);
  ASSERT_EQ(dense.stats.size(), partial.stats.size());
  for (size_t i = 0; i < dense.stats.size(); ++i) {
    const OperatorStats& d = dense.stats[i];
    const OperatorStats& p = partial.stats[i];
    EXPECT_EQ(d.events_in, p.events_in) << "operator " << i;
    EXPECT_EQ(d.events_out, p.events_out) << "operator " << i;
    EXPECT_EQ(d.bytes_in, p.bytes_in) << "operator " << i;
    EXPECT_EQ(d.bytes_out, p.bytes_out) << "operator " << i;
    EXPECT_EQ(d.events_shed, p.events_shed) << "operator " << i;
  }
}

Chain One(Result<OperatorPtr> op) {
  EXPECT_TRUE(op.ok()) << op.status().ToString();
  Chain chain;
  chain.push_back(std::move(*op));
  return chain;
}

TEST(SelectionParity, TemporalLookupJoin) {
  ExpectSelectionParity([] {
    // Right rows every 10 s for keys 0-2; key 3 never matches.
    std::vector<Row> right;
    for (int64_t key = 0; key < kKeys - 1; ++key) {
      for (int64_t s = 0; s < 2 * static_cast<int64_t>(kRows); s += 10) {
        Row row;
        row.emplace_back(key);
        row.emplace_back(Seconds(s));
        row.emplace_back(static_cast<double>(key * 100 + s));
        right.push_back(std::move(row));
      }
    }
    const Schema right_schema = Schema::Build()
                                    .AddInt64("key")
                                    .AddTimestamp("ts")
                                    .AddDouble("intensity")
                                    .Finish();
    TemporalLookupJoinOptions options;
    options.lookup = std::make_shared<MemorySource>(
        right_schema, std::move(right), 1, "ts");
    options.left_key = "key";
    options.right_key = "key";
    options.left_time = "ts";
    options.right_time = "ts";
    options.max_age = Seconds(3);
    return One(TemporalLookupJoinOperator::Make(EventSchema(),
                                                std::move(options)));
  });
}

TEST(SelectionParity, TopKNearest) {
  ExpectSelectionParity([] {
    integration::TopKNearestOptions options;
    options.k = 2;
    options.window = Minutes(1);
    options.key_field = "key";
    options.time_field = "ts";
    options.metric = meos::Metric::kCartesian;
    return One(integration::TopKNearestOperator::Make(EventSchema(), options));
  });
}

TEST(SelectionParity, WindowAgg) {
  ExpectSelectionParity([] {
    WindowAggOptions options;
    options.key_field = "key";
    options.time_field = "ts";
    options.window = SlidingWindowSpec{Seconds(40), Seconds(20)};
    options.aggregates = {AggregateSpec::Count("n"),
                          AggregateSpec::Avg("value", "avg_value")};
    return One(WindowAggOperator::Make(EventSchema(), std::move(options)));
  });
}

TEST(SelectionParity, ThresholdWindow) {
  ExpectSelectionParity([] {
    ThresholdWindowOptions options;
    options.predicate = Gt(Attribute("value"), Lit(3.0));
    options.key_field = "key";
    options.time_field = "ts";
    options.aggregates = {AggregateSpec::Count("n"),
                          AggregateSpec::Max("value", "max_value")};
    return One(
        ThresholdWindowOperator::Make(EventSchema(), std::move(options)));
  });
}

TEST(SelectionParity, Cep) {
  ExpectSelectionParity([] {
    Pattern pattern;
    pattern.steps = {
        PatternStep{"a", Gt(Attribute("value"), Lit(5.0)), false, false},
        PatternStep{"b", Lt(Attribute("value"), Lit(2.0)), false, false}};
    pattern.within = Seconds(60);
    pattern.key_field = "key";
    pattern.time_field = "ts";
    return One(CepOperator::Make(
        EventSchema(), std::move(pattern),
        {Measure::First("a", "value", "a_value"),
         Measure::First("b", "value", "b_value")}));
  });
}

// The sink serializes the selected rows straight from the batch; its
// `bytes_out` counts wire bytes, so equal stats mean equal frame sizes.
TEST(SelectionParity, NetworkChannelPair) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  ExpectSelectionParity([&topo] {
    auto channel = NetworkChannel::Connect(topo, /*from=*/2, /*to=*/1);
    EXPECT_TRUE(channel.ok()) << channel.status().ToString();
    auto sink = NetworkChannelSink::Make(EventSchema(), *channel);
    auto source = NetworkChannelSource::Make(EventSchema(), *channel);
    EXPECT_TRUE(sink.ok() && source.ok());
    Chain chain;
    chain.push_back(std::move(*sink));
    chain.push_back(std::move(*source));
    return chain;
  });
}

}  // namespace
}  // namespace nebulameos::nebula
