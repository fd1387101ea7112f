/// \file bench_fleet_serving.cpp
/// \brief Fleet-scale serving benchmark: N trains each submit K=3
/// structurally prefix-equal placed queries. Shared mode routes them
/// through a `SharedQueryManager` (one ingest host and one uplink channel
/// per train); the baseline submits the same 3N placed plans as
/// independent engine queries. Reports queries-per-node and total wire
/// bytes at 10/100/1000 trains and writes `BENCH_fleet.json`.
///
/// Usage: bench_fleet_serving [rows_per_train_at_10] [json_path]

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/time.hpp"
#include "nebula/serving/fleet.hpp"
#include "nebula/serving/merge.hpp"

using namespace nebulameos;                   // NOLINT
using namespace nebulameos::nebula;           // NOLINT
using namespace nebulameos::nebula::serving;  // NOLINT

namespace {

constexpr int kQueriesPerTrain = 3;

Schema EventSchema() {
  return Schema::Build()
      .AddInt64("train")
      .AddTimestamp("ts")
      .AddDouble("value")
      .Finish();
}

std::vector<std::vector<Value>> MakeRows(int train, size_t n) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value{static_cast<int64_t>(train)},
                    Value{Seconds(static_cast<int64_t>(i))},
                    Value{static_cast<double>(i % 10)}});
  }
  return rows;
}

std::unique_ptr<MemorySource> TrainSource(int train, size_t rows) {
  auto src = std::make_unique<MemorySource>(EventSchema(),
                                            MakeRows(train, rows),
                                            /*rounds=*/1, "ts");
  src->SetLogicalName("fleet_positions");
  return src;
}

/// The k-th query of a train: all K share the `Filter(value >= 2)` ingest
/// prefix; the suffix tightens the alert threshold differently per k.
Result<LogicalPlan> TrainQuery(int train, int k, size_t rows,
                               std::shared_ptr<SinkOperator> sink) {
  const double thresholds[kQueriesPerTrain] = {2.0, 5.0, 8.0};
  Query q = Query::From(TrainSource(train, rows))
                .Filter(Ge(Attribute("value"), Lit(2.0)));
  if (k == 0) return std::move(q).To(std::move(sink)).Build();
  return std::move(q)
      .Filter(Ge(Attribute("value"), Lit(thresholds[k])))
      .To(std::move(sink))
      .Build();
}

struct ModeResult {
  size_t clients = 0;
  size_t hosted_plans = 0;
  double queries_per_node = 0.0;
  uint64_t wire_bytes = 0;
  uint64_t rows_out = 0;
  double seconds = 0.0;
  bool ok = true;
};

/// Shared serving: one engine + manager, K queries per train merged onto
/// one host per train; per-train alert streams union at the coordinator.
ModeResult RunShared(const FleetDeployment& fleet, size_t rows_per_train) {
  ModeResult result;
  const int64_t t0 = MonotonicNowMicros();

  NodeEngine engine(fleet.MakeEngineOptions());
  SharedQueryManager manager(&engine);
  MergeNode merge(EventSchema(), "ts");

  std::vector<int> vids;
  for (int train = 0; train < fleet.num_trains(); ++train) {
    for (int k = 0; k < kQueriesPerTrain; ++k) {
      const int stream = train * kQueriesPerTrain + k;
      auto plan = TrainQuery(train, k, rows_per_train, merge.InputFor(stream));
      if (!plan.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     plan.status().message().c_str());
        result.ok = false;
        return result;
      }
      auto vid = fleet.SubmitTrainQuery(&manager, train, std::move(*plan));
      if (!vid.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     vid.status().message().c_str());
        result.ok = false;
        return result;
      }
      vids.push_back(*vid);
    }
  }

  result.clients = manager.NumClientQueries();
  result.hosted_plans = manager.NumHostedPlans();
  result.queries_per_node = result.hosted_plans == 0
                                ? 0.0
                                : static_cast<double>(result.clients) /
                                      static_cast<double>(result.hosted_plans);

  for (int vid : vids) {
    Status st = manager.Start(vid);
    if (!st.ok()) {
      std::fprintf(stderr, "start failed: %s\n", st.message().c_str());
      result.ok = false;
      return result;
    }
  }
  for (int vid : vids) {
    Status st = manager.Wait(vid);
    if (!st.ok()) {
      std::fprintf(stderr, "wait failed: %s\n", st.message().c_str());
      result.ok = false;
      return result;
    }
  }
  merge.CloseAllInputs();

  // One deployment report per *host* — the shared uplink ships once for
  // all of a train's branches, so summing per client would double count.
  for (int host : manager.Hosts()) {
    auto report = engine.Deployment(host);
    if (report.ok()) result.wire_bytes += report->wire_bytes;
  }
  result.rows_out = merge.RowCount();
  result.seconds = static_cast<double>(MonotonicNowMicros() - t0) / 1e6;
  return result;
}

/// Baseline: the same 3N placed plans as independent engine queries, each
/// with its own ingest pipeline and its own uplink channel.
ModeResult RunIndependent(const FleetDeployment& fleet,
                          size_t rows_per_train) {
  ModeResult result;
  const int64_t t0 = MonotonicNowMicros();

  NodeEngine engine(fleet.MakeEngineOptions());
  std::vector<int> ids;
  std::vector<std::shared_ptr<CountingSink>> sinks;
  for (int train = 0; train < fleet.num_trains(); ++train) {
    for (int k = 0; k < kQueriesPerTrain; ++k) {
      auto sink = std::make_shared<CountingSink>(EventSchema());
      auto plan = TrainQuery(train, k, rows_per_train, sink);
      if (!plan.ok()) {
        result.ok = false;
        return result;
      }
      AnnotateEdgePushdownPlacement(&*plan, fleet.edge_node(train),
                                    fleet.cloud_node());
      auto id = engine.Submit(std::move(*plan));
      if (!id.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     id.status().message().c_str());
        result.ok = false;
        return result;
      }
      ids.push_back(*id);
      sinks.push_back(std::move(sink));
    }
  }

  result.clients = ids.size();
  result.hosted_plans = ids.size();
  result.queries_per_node = 1.0;

  for (int id : ids) {
    Status st = engine.RunToCompletion(id);
    if (!st.ok()) {
      std::fprintf(stderr, "run failed: %s\n", st.message().c_str());
      result.ok = false;
      return result;
    }
    auto report = engine.Deployment(id);
    if (report.ok()) result.wire_bytes += report->wire_bytes;
  }
  for (const auto& sink : sinks) result.rows_out += sink->events();
  result.seconds = static_cast<double>(MonotonicNowMicros() - t0) / 1e6;
  return result;
}

struct FleetRun {
  int trains = 0;
  size_t rows_per_train = 0;
  ModeResult shared;
  ModeResult independent;
};

}  // namespace

int main(int argc, char** argv) {
  const size_t base_rows =
      PositiveArgOrExit(argc, argv, 1, 2000, "[base-rows] [json-path]");
  const char* json_path = argc > 2 ? argv[2] : "BENCH_fleet.json";

  const int fleet_sizes[] = {10, 100, 1000};
  std::vector<FleetRun> runs;
  bool all_ok = true;

  for (int trains : fleet_sizes) {
    // Keep total event volume roughly flat as the fleet grows.
    const size_t rows =
        trains <= 10 ? base_rows
                     : (trains <= 100 ? std::max<size_t>(base_rows / 4, 40)
                                      : std::max<size_t>(base_rows / 20, 40));
    FleetDeployment fleet(FleetOptions{trains});

    FleetRun run;
    run.trains = trains;
    run.rows_per_train = rows;
    run.shared = RunShared(fleet, rows);
    run.independent = RunIndependent(fleet, rows);
    all_ok = all_ok && run.shared.ok && run.independent.ok;

    // Row-set equivalence: sharing must not change what the queries emit.
    if (run.shared.rows_out != run.independent.rows_out) {
      std::fprintf(stderr,
                   "row mismatch at %d trains: shared=%llu independent=%llu\n",
                   trains,
                   static_cast<unsigned long long>(run.shared.rows_out),
                   static_cast<unsigned long long>(run.independent.rows_out));
      all_ok = false;
    }
    runs.push_back(run);
  }

  std::printf(
      "%8s %8s %8s %8s %14s %16s %16s %10s\n", "trains", "clients", "hosts",
      "q/node", "rows_out", "shared_wire_B", "indep_wire_B", "reduction");
  for (const FleetRun& run : runs) {
    const double reduction =
        run.independent.wire_bytes == 0
            ? 0.0
            : 1.0 - static_cast<double>(run.shared.wire_bytes) /
                        static_cast<double>(run.independent.wire_bytes);
    std::printf("%8d %8zu %8zu %8.2f %14llu %16llu %16llu %9.1f%%\n",
                run.trains, run.shared.clients, run.shared.hosted_plans,
                run.shared.queries_per_node,
                static_cast<unsigned long long>(run.shared.rows_out),
                static_cast<unsigned long long>(run.shared.wire_bytes),
                static_cast<unsigned long long>(run.independent.wire_bytes),
                reduction * 100.0);
  }

  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"fleet_serving\",\n");
  std::fprintf(f, "  \"queries_per_train\": %d,\n  \"fleets\": [\n",
               kQueriesPerTrain);
  for (size_t i = 0; i < runs.size(); ++i) {
    const FleetRun& run = runs[i];
    const double reduction =
        run.independent.wire_bytes == 0
            ? 0.0
            : 1.0 - static_cast<double>(run.shared.wire_bytes) /
                        static_cast<double>(run.independent.wire_bytes);
    std::fprintf(f, "    {\n      \"trains\": %d,\n", run.trains);
    std::fprintf(f, "      \"rows_per_train\": %zu,\n", run.rows_per_train);
    std::fprintf(f,
                 "      \"shared\": {\"clients\": %zu, \"hosted_plans\": %zu, "
                 "\"queries_per_node\": %.4f, \"wire_bytes\": %llu, "
                 "\"rows_out\": %llu, \"seconds\": %.4f},\n",
                 run.shared.clients, run.shared.hosted_plans,
                 run.shared.queries_per_node,
                 static_cast<unsigned long long>(run.shared.wire_bytes),
                 static_cast<unsigned long long>(run.shared.rows_out),
                 run.shared.seconds);
    std::fprintf(f,
                 "      \"independent\": {\"clients\": %zu, \"hosted_plans\": "
                 "%zu, \"queries_per_node\": %.4f, \"wire_bytes\": %llu, "
                 "\"rows_out\": %llu, \"seconds\": %.4f},\n",
                 run.independent.clients, run.independent.hosted_plans,
                 run.independent.queries_per_node,
                 static_cast<unsigned long long>(run.independent.wire_bytes),
                 static_cast<unsigned long long>(run.independent.rows_out),
                 run.independent.seconds);
    std::fprintf(f, "      \"wire_reduction\": %.4f\n    }%s\n", reduction,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);

  if (!all_ok) return 1;
  // The headline claims: sharing collapses K queries onto one host per
  // train and ships the uplink stream once instead of K times.
  for (const FleetRun& run : runs) {
    if (run.shared.queries_per_node < 2.9 ||
        run.shared.wire_bytes >= run.independent.wire_bytes) {
      std::fprintf(stderr, "sharing claim failed at %d trains\n", run.trains);
      return 1;
    }
  }
  return 0;
}
