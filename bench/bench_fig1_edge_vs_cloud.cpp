/// \file bench_fig1_edge_vs_cloud.cpp
/// \brief Experiment Fig. 1 / A3 — the architectural claim behind the
/// paper's Figure 1: running NebulaMEOS on the train's edge device and
/// shipping only results "reduces the reliance on strong or constant
/// network connections" and "lowers latency since events do not need to be
/// sent to a cloud".
///
/// Method (end-to-end, not priced): the shared-ingest fan-out plan
/// (Q1-style alerts + Q2-style noise archive over one SNCB stream) runs
/// once unplaced to *measure* per-operator flow, then three placements of
/// the same plan execute for real on the SNCB reference topology — every
/// node transition lowered to a serializing network-channel pair:
///
///   * ship-raw      — source on the train, everything else in the cloud
///                     (the raw sensor stream crosses the uplink once);
///   * edge-pushdown — every operator on the train, sinks in the cloud;
///   * optimized     — the optimizer's placement pass chooses one cut per
///                     fan-out branch from the measured flow.
///
/// The reported uplink bytes are *measured from channel traffic*
/// (`NodeEngine::Deployment`), not priced after the fact. Results land in
/// `BENCH_fig1.json` (override with argv[2]); the process fails when edge
/// placement does not strictly beat ship-raw — the paper's headline claim.

#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "queries/queries.hpp"

using namespace nebulameos;           // NOLINT
using namespace nebulameos::nebula;   // NOLINT
using namespace nebulameos::queries;  // NOLINT

namespace {

constexpr int kEdgeNode = 2;   // train-0
constexpr int kCloudNode = 1;  // cloud worker

struct VariantResult {
  std::string name;
  DeploymentReport report;
  double elapsed_seconds = 0.0;
  uint64_t events_emitted = 0;
};

// Builds the fan-out plan and brings it to the optimizer's fixpoint, so
// every variant (and the measuring run) shares one plan shape and the
// measured stats align with the placed plans operator-for-operator.
Result<LogicalPlan> BuildRewrittenPlan(const DemoEnvironment& env,
                                       uint64_t events) {
  QueryOptions options;
  options.max_events = events;
  options.sink = SinkMode::kCounting;
  NM_ASSIGN_OR_RETURN(BuiltFanOutQuery built,
                      BuildSharedIngestFanOut(env, options));
  const PlanRewriter rewriter = PlanRewriter::Default();
  NM_RETURN_NOT_OK(rewriter.Rewrite(&built.plan));
  return std::move(built.plan);
}

Result<VariantResult> RunPlaced(NodeEngine* engine, LogicalPlan plan,
                                const std::string& name) {
  VariantResult result;
  result.name = name;
  NM_ASSIGN_OR_RETURN(const int id, engine->Submit(std::move(plan)));
  NM_RETURN_NOT_OK(engine->RunToCompletion(id));
  NM_ASSIGN_OR_RETURN(const QueryStats stats, engine->Stats(id));
  NM_ASSIGN_OR_RETURN(result.report, engine->Deployment(id));
  result.elapsed_seconds = static_cast<double>(stats.elapsed_micros) / 1e6;
  result.events_emitted = stats.events_emitted;
  return result;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t events =
      PositiveArgOrExit(argc, argv, 1, 400'000, "[events] [json-path]");
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_fig1.json";

  auto env = DemoEnvironment::Create();
  if (!env.ok()) {
    std::fprintf(stderr, "environment: %s\n", env.status().ToString().c_str());
    return 1;
  }
  // 1 MB/s cellular uplink with 60 ms latency per train.
  const Topology topo = Topology::SncbReference(6, 1e6, Millis(60));

  std::printf("Fig.1/A3: placed execution of the shared-ingest fan-out "
              "(%llu events, 1 MB/s uplink)\n\n",
              static_cast<unsigned long long>(events));

  // --- Measuring run: unplaced, single node, records per-operator flow.
  EngineOptions engine_options;
  engine_options.topology = &topo;
  NodeEngine engine(engine_options);
  QueryStats measured;
  {
    auto plan = BuildRewrittenPlan(**env, events);
    if (!plan.ok()) {
      std::fprintf(stderr, "build: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    auto id = engine.Submit(std::move(*plan));
    if (!id.ok() || !engine.RunToCompletion(*id).ok()) {
      std::fprintf(stderr, "measuring run failed\n");
      return 1;
    }
    measured = *engine.Stats(*id);
  }

  // --- The three placements, executed over real network channels.
  std::vector<VariantResult> results;
  for (const std::string& name :
       {std::string("ship_raw"), std::string("edge_pushdown"),
        std::string("optimized")}) {
    auto plan = BuildRewrittenPlan(**env, events);
    if (!plan.ok()) {
      std::fprintf(stderr, "build: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    Status placed = Status::OK();
    if (name == "ship_raw") {
      AnnotateCloudPlacement(&*plan, kEdgeNode, kCloudNode);
    } else if (name == "edge_pushdown") {
      AnnotateEdgePushdownPlacement(&*plan, kEdgeNode, kCloudNode);
    } else {
      PlacementPassOptions options;
      options.topology = &topo;
      options.edge_node = kEdgeNode;
      options.cloud_node = kCloudNode;
      options.measured = measured.operator_stats;
      options.source_bytes = measured.bytes_ingested;
      bool changed = false;
      placed = MakePlacementPass(std::move(options))->Apply(&*plan, &changed);
    }
    if (!placed.ok()) {
      std::fprintf(stderr, "placement: %s\n", placed.ToString().c_str());
      return 1;
    }
    auto result = RunPlaced(&engine, std::move(*plan), name);
    if (!result.ok()) {
      std::fprintf(stderr, "%s run failed: %s\n", name.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    results.push_back(std::move(*result));
  }

  std::printf("%-14s %14s %14s %10s %12s %12s %10s\n", "placement",
              "uplink MB", "wire MB", "frames", "transfer s", "elapsed s",
              "emitted");
  std::printf("--------------------------------------------------------------"
              "-----------------------------\n");
  for (const VariantResult& r : results) {
    std::printf("%-14s %14.3f %14.3f %10llu %12.2f %12.2f %10llu\n",
                r.name.c_str(),
                static_cast<double>(r.report.uplink_bytes) / 1e6,
                static_cast<double>(r.report.wire_bytes) / 1e6,
                static_cast<unsigned long long>(r.report.frames),
                r.report.total_transfer_seconds, r.elapsed_seconds,
                static_cast<unsigned long long>(r.events_emitted));
  }
  const VariantResult& ship_raw = results[0];
  const VariantResult& pushdown = results[1];
  const VariantResult& optimized = results[2];
  const double reduction =
      Ratio(ship_raw.report.uplink_bytes, optimized.report.uplink_bytes);
  std::printf("\nuplink reduction, optimized vs ship-raw: %.1fx\n", reduction);

  if (FILE* json = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"fig1_edge_vs_cloud\",\n"
                 "  \"events\": %llu,\n"
                 "  \"uplink_bytes_per_sec\": 1000000,\n"
                 "  \"placements\": [\n",
                 static_cast<unsigned long long>(events));
    for (size_t i = 0; i < results.size(); ++i) {
      const VariantResult& r = results[i];
      std::fprintf(
          json,
          "    {\"name\": \"%s\", \"uplink_bytes\": %llu, "
          "\"wire_bytes\": %llu, \"frames\": %llu, "
          "\"transfer_seconds\": %.6f, \"elapsed_seconds\": %.6f, "
          "\"events_emitted\": %llu}%s\n",
          r.name.c_str(),
          static_cast<unsigned long long>(r.report.uplink_bytes),
          static_cast<unsigned long long>(r.report.wire_bytes),
          static_cast<unsigned long long>(r.report.frames),
          r.report.total_transfer_seconds, r.elapsed_seconds,
          static_cast<unsigned long long>(r.events_emitted),
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n"
                 "  \"uplink_reduction_optimized_vs_ship_raw\": %.3f\n"
                 "}\n",
                 reduction);
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
    return 1;
  }

  // The paper's claim, self-checked: pushing operators to the edge must
  // strictly beat shipping the raw stream, and the optimizer's per-branch
  // cut must be at least as good as full pushdown.
  if (pushdown.report.uplink_bytes >= ship_raw.report.uplink_bytes ||
      optimized.report.uplink_bytes >= ship_raw.report.uplink_bytes) {
    std::fprintf(stderr,
                 "FAIL: edge placement did not reduce uplink traffic\n");
    return 1;
  }
  if (optimized.report.uplink_bytes > pushdown.report.uplink_bytes) {
    std::fprintf(stderr,
                 "FAIL: optimized cut ships more than full pushdown\n");
    return 1;
  }
  return 0;
}
