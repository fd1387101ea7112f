// Tests for the metrics subsystem (src/nebula/metrics): instrument
// semantics, power-of-two histogram bucketing and percentile math,
// registry snapshot value-copy isolation, exports, the engine's read-time
// ingest/emit rate gauges, and multi-threaded record/snapshot and
// concurrent-reader torture tests that the CI `sanitize-thread` job runs
// under TSan as the subsystem's race gate.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "nebula/engine.hpp"
#include "nebula/metrics/metrics.hpp"

namespace nebulameos::nebula::metrics {
namespace {

TEST(MetricsCounterTest, AddAndIncrement) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsGaugeTest, SetOverwrites) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(MetricsHistogramTest, BucketBoundaries) {
  // Bucket 0 holds everything <= 0; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(HistogramBucketOf(-5), 0u);
  EXPECT_EQ(HistogramBucketOf(0), 0u);
  EXPECT_EQ(HistogramBucketOf(1), 1u);
  EXPECT_EQ(HistogramBucketOf(2), 2u);
  EXPECT_EQ(HistogramBucketOf(3), 2u);
  EXPECT_EQ(HistogramBucketOf(4), 3u);
  EXPECT_EQ(HistogramBucketOf(1023), 10u);
  EXPECT_EQ(HistogramBucketOf(1024), 11u);
  for (size_t b = 1; b + 1 < kHistogramBuckets; ++b) {
    EXPECT_EQ(HistogramBucketOf(HistogramBucketLow(b)), b) << b;
    EXPECT_EQ(HistogramBucketOf(HistogramBucketHigh(b)), b) << b;
    EXPECT_LT(HistogramBucketHigh(b), HistogramBucketLow(b + 1)) << b;
  }
  // The top bucket is the int64 catch-all.
  EXPECT_EQ(HistogramBucketOf(std::numeric_limits<int64_t>::max()),
            kHistogramBuckets - 1);
}

TEST(MetricsHistogramTest, RecordsIntoBucketsWithMinMaxSum) {
  Histogram h;
  h.Record(1);
  h.Record(3);
  h.Record(3);
  h.Record(100);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 107);
  EXPECT_EQ(snap.min, 1);
  EXPECT_EQ(snap.max, 100);
  EXPECT_DOUBLE_EQ(snap.Mean(), 107.0 / 4.0);
  EXPECT_EQ(snap.buckets[HistogramBucketOf(1)], 1u);
  EXPECT_EQ(snap.buckets[HistogramBucketOf(3)], 2u);
  EXPECT_EQ(snap.buckets[HistogramBucketOf(100)], 1u);
}

TEST(MetricsHistogramTest, EmptySnapshotIsInert) {
  Histogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.P50(), 0.0);
  EXPECT_DOUBLE_EQ(snap.P99(), 0.0);
}

TEST(MetricsHistogramTest, SingleValuePercentilesCollapseToIt) {
  Histogram h;
  h.Record(37);
  const HistogramSnapshot snap = h.Snapshot();
  // min == max == 37 clamps every interpolated percentile exactly.
  EXPECT_DOUBLE_EQ(snap.P50(), 37.0);
  EXPECT_DOUBLE_EQ(snap.P95(), 37.0);
  EXPECT_DOUBLE_EQ(snap.P99(), 37.0);
}

TEST(MetricsHistogramTest, PercentilesAreOrderedAndBucketAccurate) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  const double p50 = snap.P50();
  const double p95 = snap.P95();
  const double p99 = snap.P99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  // Rank 500 lands in bucket [256, 511]; rank 950 and 990 in [512, 1000].
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 511.0);
  EXPECT_GE(p95, 512.0);
  EXPECT_GE(p99, p95);
  // Degenerate inputs clamp instead of extrapolating.
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), 1000.0);
}

TEST(MetricsHistogramTest, NonPositiveValuesLandInBucketZero) {
  Histogram h;
  h.Record(0);
  h.Record(-17);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.min, -17);
  EXPECT_EQ(snap.max, 0);
}

TEST(MetricsRegistryTest, InstrumentsAreStableAndNamed) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("engine.events");
  Gauge* g = registry.GetGauge("worker.depth");
  Histogram* h = registry.GetHistogram("op.Filter.process_micros");
  // Same name, same instrument: bind-once semantics.
  EXPECT_EQ(registry.GetCounter("engine.events"), c);
  EXPECT_EQ(registry.GetGauge("worker.depth"), g);
  EXPECT_EQ(registry.GetHistogram("op.Filter.process_micros"), h);
  c->Add(3);
  g->Set(2.0);
  h->Record(10);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_FALSE(snap.Empty());
  EXPECT_EQ(snap.counters.at("engine.events"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("worker.depth"), 2.0);
  EXPECT_EQ(snap.histograms.at("op.Filter.process_micros").count, 1u);
}

TEST(MetricsRegistryTest, SnapshotIsAValueCopy) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  Histogram* h = registry.GetHistogram("h");
  c->Add(5);
  h->Record(8);
  const MetricsSnapshot before = registry.Snapshot();
  // Later recording must not alter the copy already taken.
  c->Add(100);
  h->Record(1'000'000);
  EXPECT_EQ(before.counters.at("c"), 5u);
  EXPECT_EQ(before.histograms.at("h").count, 1u);
  EXPECT_EQ(before.histograms.at("h").max, 8);
  const MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.counters.at("c"), 105u);
  EXPECT_EQ(after.histograms.at("h").count, 2u);
}

TEST(MetricsExportTest, JsonCarriesPercentilesAndEscapes) {
  MetricsRegistry registry;
  registry.GetCounter("engine.events_ingested")->Add(7);
  registry.GetGauge("engine.ingest_events_per_sec")->Set(1.5);
  Histogram* h = registry.GetHistogram("op.\"Filter\".process_micros");
  h->Record(10);
  h->Record(20);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"engine.events_ingested\": 7"), std::string::npos);
  EXPECT_NE(json.find("engine.ingest_events_per_sec"), std::string::npos);
  EXPECT_NE(json.find("\\\"Filter\\\""), std::string::npos);  // escaped quote
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

TEST(MetricsExportTest, PrometheusTextSanitizesNames) {
  MetricsRegistry registry;
  registry.GetCounter("channel.root.0.2->1.wire_bytes")->Add(9);
  registry.GetHistogram("op.Filter.process_micros")->Record(5);
  const std::string text = registry.Snapshot().ToPrometheusText();
  // Arrows and dots sanitize to underscores; no raw '>' survives in names.
  EXPECT_NE(text.find("channel_root_0_2__1_wire_bytes 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE channel_root_0_2__1_wire_bytes counter"),
            std::string::npos);
  EXPECT_NE(text.find("op_Filter_process_micros_count 1"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
}

// --- Read-time rate gauges (NodeEngine::Metrics) ----------------------

Schema RateSchema() {
  return Schema::Build()
      .AddInt64("key")
      .AddTimestamp("ts")
      .AddDouble("value")
      .Finish();
}

// Fans `rounds` repetitions of `n` rows out to two counting sinks, so
// every row is emitted twice and, at N > 1 workers, both branches run on
// strands.
Result<int> SubmitFanOut(NodeEngine* engine, int n, size_t rounds) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < n; ++i) {
    std::vector<Value>& row = rows.emplace_back();
    row.emplace_back(int64_t{i % 7});
    row.emplace_back(Seconds(i));
    row.emplace_back(static_cast<double>(i));
  }
  SplitQuery split = Query::From(std::make_unique<MemorySource>(
                                     RateSchema(), std::move(rows), rounds,
                                     "ts"))
                         .Split(2);
  std::move(split[0]).To(std::make_shared<CountingSink>(RateSchema()));
  std::move(split[1]).To(std::make_shared<CountingSink>(RateSchema()));
  NM_ASSIGN_OR_RETURN(LogicalPlan plan, std::move(split).Build());
  return engine->Submit(std::move(plan));
}

TEST(MetricsRateTest, FirstReadAfterRunCoversTheWholeRun) {
  NodeEngine engine;
  auto id = SubmitFanOut(&engine, 2000, 10);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Before Start there is no window: the gauges keep their initial 0.
  auto before = engine.Metrics(*id);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->gauges.at("engine.ingest_events_per_sec"), 0.0);
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  auto stats = engine.Stats(*id);
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->elapsed_micros, 0);
  EXPECT_EQ(stats->events_emitted, 2 * stats->events_ingested);

  // The first read's window runs from Start to the finish, so its rates
  // are the run's lifetime averages.
  auto first = engine.Metrics(*id);
  ASSERT_TRUE(first.ok());
  const double ingest = first->gauges.at("engine.ingest_events_per_sec");
  const double emit = first->gauges.at("engine.emit_events_per_sec");
  const double eps = stats->EventsPerSecond();
  EXPECT_GT(eps, 0.0);
  EXPECT_NEAR(ingest, eps, 1e-9 * eps);
  const double emit_eps = static_cast<double>(stats->events_emitted) /
                          (static_cast<double>(stats->elapsed_micros) / 1e6);
  EXPECT_NEAR(emit, emit_eps, 1e-9 * emit_eps);

  // The window closed at the finish: a second read finds it empty and
  // leaves both gauges as they were.
  auto second = engine.Metrics(*id);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->gauges.at("engine.ingest_events_per_sec"), ingest);
  EXPECT_EQ(second->gauges.at("engine.emit_events_per_sec"), emit);
}

// Two threads read the metrics in a loop while a 4-worker query runs:
// the per-query rate mutex serializes their window updates (the TSan job
// runs this suite), and every published rate is finite and non-negative.
TEST(MetricsRateTest, ConcurrentReadersWhileFourWorkersRun) {
  EngineOptions options;
  options.worker_threads = 4;
  NodeEngine engine(options);
  auto id = SubmitFanOut(&engine, 2000, 100);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(engine.Start(*id).ok());
  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::atomic<int> bad{0};
  auto reader = [&] {
    do {
      auto snap = engine.Metrics(*id);
      if (!snap.ok()) {
        bad.fetch_add(1);
        continue;
      }
      for (const char* name :
           {"engine.ingest_events_per_sec", "engine.emit_events_per_sec"}) {
        const double rate = snap->gauges.at(name);
        if (!std::isfinite(rate) || rate < 0.0) bad.fetch_add(1);
      }
      reads.fetch_add(1);
    } while (!done.load());
  };
  std::thread a(reader);
  std::thread b(reader);
  const Status status = engine.Wait(*id);
  done.store(true);
  a.join();
  b.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(reads.load(), 2);
  auto stats = engine.Stats(*id);
  auto snap = engine.Metrics(*id);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->counters.at("engine.events_ingested"),
            stats->events_ingested);
  EXPECT_EQ(snap->counters.at("engine.events_emitted"),
            stats->events_emitted);
}

// The race gate: four writers hammer one histogram/counter pair through
// the same instrument pointers the engine binds, while the main thread
// snapshots concurrently. TSan (CI `sanitize-thread`) must stay silent,
// and the final snapshot must account for every record exactly.
TEST(MetricsConcurrencyTest, ParallelRecordAndSnapshotTorture) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("torture.events");
  Histogram* histogram = registry.GetHistogram("torture.latency");
  Gauge* gauge = registry.GetGauge("torture.depth");
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram->Record((t * kPerThread + i) % 4096);
        counter->Increment();
        gauge->Set(static_cast<double>(i));
      }
    });
  }
  // Concurrent readers: value-copy snapshots while writers are live.
  uint64_t last_seen = 0;
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = registry.Snapshot();
    const uint64_t seen = snap.counters.at("torture.events");
    EXPECT_GE(seen, last_seen);  // counters are monotone
    last_seen = seen;
  }
  for (std::thread& w : writers) w.join();
  const MetricsSnapshot final_snap = registry.Snapshot();
  const uint64_t total =
      static_cast<uint64_t>(kThreads) * static_cast<uint64_t>(kPerThread);
  EXPECT_EQ(final_snap.counters.at("torture.events"), total);
  const HistogramSnapshot& h = final_snap.histograms.at("torture.latency");
  EXPECT_EQ(h.count, total);
  uint64_t bucket_sum = 0;
  for (const uint64_t b : h.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, total);
  EXPECT_EQ(h.min, 0);
  EXPECT_EQ(h.max, 4095);
}

}  // namespace
}  // namespace nebulameos::nebula::metrics
