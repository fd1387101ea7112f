/// \file bench_fault_tolerance.cpp
/// \brief Fault-tolerance benchmark: one placed edge→cloud query run
/// under increasing frame-loss rates. For each rate the bench verifies
/// the delivered row set is *identical* to the fault-free reference
/// (retransmit repair), then reports throughput, retransmit counts, and
/// the priced recovery latency. Writes `BENCH_faults.json`.
///
/// Usage: bench_fault_tolerance [rows] [json_path]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/time.hpp"
#include "nebula/engine.hpp"

using namespace nebulameos;          // NOLINT
using namespace nebulameos::nebula;  // NOLINT

namespace {

constexpr int kEdge = 2;   // train-0 in the SNCB reference topology
constexpr int kCloud = 1;  // cloud worker

Schema EventSchema() {
  return Schema::Build()
      .AddInt64("key")
      .AddTimestamp("ts")
      .AddDouble("value")
      .Finish();
}

std::vector<std::vector<Value>> MakeRows(size_t n) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value{static_cast<int64_t>(i % 16)},
                    Value{Seconds(static_cast<int64_t>(i))},
                    Value{static_cast<double>(i % 100)}});
  }
  return rows;
}

Result<LogicalPlan> MakePlan(size_t rows, std::shared_ptr<CollectSink>* sink) {
  auto plan =
      Query::From(std::make_unique<MemorySource>(EventSchema(),
                                                 MakeRows(rows), 1, "ts"))
          .Filter(Ge(Attribute("value"), Lit(10.0)))
          .Map("scaled", Mul(Attribute("value"), Lit(0.5)))
          .Build();
  if (!plan.ok()) return plan;
  NM_ASSIGN_OR_RETURN(const Schema schema, plan->OutputSchema());
  *sink = std::make_shared<CollectSink>(schema);
  plan->SetSink(*sink);
  plan->set_source_placement(kEdge);
  plan->mutable_ops()[0]->set_placement(kEdge);
  plan->mutable_ops()[1]->set_placement(kEdge);
  plan->mutable_ops()[2]->set_placement(kCloud);
  return plan;
}

struct LossRun {
  double drop_rate = 0.0;
  bool exact = false;          ///< row set identical to fault-free reference
  uint64_t rows_out = 0;
  uint64_t frames = 0;
  uint64_t frames_dropped = 0;
  uint64_t retransmits = 0;
  uint64_t wire_bytes = 0;
  double transfer_seconds = 0.0;  ///< priced, backoff included
  double events_per_second = 0.0;
  std::string health;
};

Result<LossRun> RunAtLossRate(size_t rows, double drop_rate,
                              const std::vector<std::vector<Value>>& reference) {
  const Topology topo = Topology::SncbReference(1, 1e7, Millis(1));
  std::shared_ptr<CollectSink> sink;
  NM_ASSIGN_OR_RETURN(LogicalPlan plan, MakePlan(rows, &sink));

  EngineOptions options;
  options.optimizer.enable = false;
  options.topology = &topo;
  options.tuples_per_buffer = 64;  // many frames per run
  options.faults.profile.drop_rate = drop_rate;
  options.faults.profile.reorder_rate = drop_rate / 2.0;
  options.faults.profile.seed = 0xfa017;
  NodeEngine engine(options);
  NM_ASSIGN_OR_RETURN(const int id, engine.Submit(std::move(plan)));
  NM_RETURN_NOT_OK(engine.RunToCompletion(id));
  NM_ASSIGN_OR_RETURN(const QueryStats stats, engine.Stats(id));
  NM_ASSIGN_OR_RETURN(const DeploymentReport report, engine.Deployment(id));

  LossRun run;
  run.drop_rate = drop_rate;
  std::vector<std::vector<Value>> delivered = sink->Rows();
  std::sort(delivered.begin(), delivered.end());
  run.exact = delivered == reference;
  run.rows_out = delivered.size();
  run.frames = report.frames;
  run.frames_dropped = report.frames_dropped;
  run.retransmits = report.retransmits;
  run.wire_bytes = report.wire_bytes;
  run.transfer_seconds = report.total_transfer_seconds;
  run.events_per_second = stats.EventsPerSecond();
  run.health = ToString(report.health);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t rows =
      PositiveArgOrExit(argc, argv, 1, 200000, "[rows] [json-path]");
  const char* json_path = argc > 2 ? argv[2] : "BENCH_faults.json";

  // Fault-free reference row set.
  const Topology topo = Topology::SncbReference(1, 1e7, Millis(1));
  std::shared_ptr<CollectSink> ref_sink;
  auto ref_plan = MakePlan(rows, &ref_sink);
  if (!ref_plan.ok()) return 1;
  {
    EngineOptions options;
    options.optimizer.enable = false;
    options.topology = &topo;
    options.tuples_per_buffer = 64;
    NodeEngine engine(options);
    auto id = engine.Submit(std::move(*ref_plan));
    if (!id.ok() || !engine.RunToCompletion(*id).ok()) return 1;
  }
  std::vector<std::vector<Value>> reference = ref_sink->Rows();
  std::sort(reference.begin(), reference.end());

  const double loss_rates[] = {0.0, 0.01, 0.05, 0.1, 0.2};
  std::vector<LossRun> runs;
  bool all_exact = true;
  for (double rate : loss_rates) {
    auto run = RunAtLossRate(rows, rate, reference);
    if (!run.ok()) {
      std::fprintf(stderr, "run at drop=%.2f failed: %s\n", rate,
                   run.status().message().c_str());
      return 1;
    }
    all_exact = all_exact && run->exact;
    std::printf(
        "drop=%.2f  rows=%llu exact=%s  frames=%llu dropped=%llu "
        "retransmits=%llu  transfer=%.3fs  %.0f events/s  health=%s\n",
        run->drop_rate, static_cast<unsigned long long>(run->rows_out),
        run->exact ? "yes" : "NO",
        static_cast<unsigned long long>(run->frames),
        static_cast<unsigned long long>(run->frames_dropped),
        static_cast<unsigned long long>(run->retransmits),
        run->transfer_seconds, run->events_per_second,
        run->health.c_str());
    runs.push_back(*run);
  }

  FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"fault_tolerance\",\n");
  std::fprintf(json, "  \"rows\": %llu,\n",
               static_cast<unsigned long long>(rows));
  std::fprintf(json, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const LossRun& r = runs[i];
    std::fprintf(
        json,
        "    {\"drop_rate\": %.3f, \"exact\": %s, \"rows_out\": %llu, "
        "\"frames\": %llu, \"frames_dropped\": %llu, \"retransmits\": %llu, "
        "\"wire_bytes\": %llu, \"transfer_seconds\": %.6f, "
        "\"events_per_second\": %.1f, \"health\": \"%s\"}%s\n",
        r.drop_rate, r.exact ? "true" : "false",
        static_cast<unsigned long long>(r.rows_out),
        static_cast<unsigned long long>(r.frames),
        static_cast<unsigned long long>(r.frames_dropped),
        static_cast<unsigned long long>(r.retransmits),
        static_cast<unsigned long long>(r.wire_bytes), r.transfer_seconds,
        r.events_per_second, r.health.c_str(),
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);

  if (!all_exact) {
    std::fprintf(stderr,
                 "FAIL: a lossy run delivered a different row set than the "
                 "fault-free reference\n");
    return 1;
  }
  std::printf("fault tolerance: OK (%s)\n", json_path);
  return 0;
}
