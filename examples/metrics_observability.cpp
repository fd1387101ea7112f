/// \file metrics_observability.cpp
/// \brief Observability walkthrough: run a query, then read the
/// per-operator / per-strand / engine instruments out of a
/// `MetricsSnapshot` and dump both export formats.
///
/// Also doubles as the CI smoke check (`scripts/check.sh` runs it and
/// greps the JSON): exits non-zero unless the snapshot carries a
/// populated ingest counter, at least one operator latency histogram, a
/// queue-depth gauge and a positive ingest rate.

#include <cstdio>

#include "nebula/engine.hpp"

using namespace nebulameos;          // NOLINT
using namespace nebulameos::nebula;  // NOLINT

int main() {
  // A generator stream of noisy sensor readings, filtered and rescaled —
  // enough operators that the per-operator histograms have shape.
  Schema schema = Schema::Build()
                      .AddInt64("id")
                      .AddTimestamp("ts")
                      .AddDouble("reading")
                      .Finish();
  auto tick = std::make_shared<int64_t>(0);
  auto source = std::make_unique<GeneratorSource>(
      schema,
      [tick](RecordWriter* w) {
        const int64_t i = (*tick)++;
        w->SetInt64(0, i % 16);
        w->SetInt64(1, i * kMicrosPerSecond);
        w->SetDouble(2, static_cast<double>(i % 100));
        return true;
      },
      /*max_events=*/50'000, "ts");

  auto sink = std::make_shared<CollectSink>(Schema::Build()
                                                .AddInt64("id")
                                                .AddTimestamp("ts")
                                                .AddDouble("reading")
                                                .AddDouble("scaled")
                                                .Finish());
  auto plan = Query::From(std::move(source))
                  .Filter(Gt(Attribute("reading"), Lit(25.0)))
                  .Map("scaled", Mul(Attribute("reading"), Lit(1.5)))
                  .To(sink)
                  .Build();
  if (!plan.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }

  // Collection is on by default. Each `Metrics` read also refreshes the
  // engine.{ingest,emit}_events_per_sec gauges: the rates since the
  // previous read (here, since Start: the first read covers the run).
  NodeEngine engine;
  auto id = engine.Submit(std::move(*plan));
  if (!id.ok()) {
    std::fprintf(stderr, "submit failed: %s\n",
                 id.status().ToString().c_str());
    return 1;
  }
  if (Status st = engine.RunToCompletion(*id); !st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    return 1;
  }

  auto snap = engine.Metrics(*id);
  if (!snap.ok()) {
    std::fprintf(stderr, "metrics failed: %s\n",
                 snap.status().ToString().c_str());
    return 1;
  }

  // Smoke assertions: a completed query must have ingested events, timed
  // at least one operator, and registered its strand gauge. check.sh
  // relies on a non-zero exit here.
  const auto ingested = snap->counters.find("engine.events_ingested");
  if (ingested == snap->counters.end() || ingested->second == 0) {
    std::fprintf(stderr, "SMOKE FAIL: engine.events_ingested missing/zero\n");
    return 1;
  }
  bool timed_op = false;
  for (const auto& [name, hist] : snap->histograms) {
    if (name.rfind("op.", 0) == 0 && hist.count > 0) timed_op = true;
  }
  if (!timed_op) {
    std::fprintf(stderr, "SMOKE FAIL: no populated op.* histogram\n");
    return 1;
  }
  bool has_strand_gauge = false;
  for (const auto& [name, value] : snap->gauges) {
    (void)value;
    if (name.rfind("worker.strand.", 0) == 0) has_strand_gauge = true;
  }
  if (!has_strand_gauge) {
    std::fprintf(stderr, "SMOKE FAIL: no worker.strand.* gauge\n");
    return 1;
  }
  if (snap->gauges.at("engine.ingest_events_per_sec") <= 0.0) {
    std::fprintf(stderr,
                 "SMOKE FAIL: engine.ingest_events_per_sec not > 0\n");
    return 1;
  }

  std::printf("rows surviving the filter: %zu\n\n", sink->Rows().size());
  std::printf("--- snapshot as JSON ---\n%s\n", snap->ToJson().c_str());
  std::printf("--- snapshot as Prometheus text ---\n%s",
              snap->ToPrometheusText().c_str());
  return 0;
}
