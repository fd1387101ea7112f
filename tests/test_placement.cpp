// Tier-2 tests of the placement pass, its network-channel lowering and
// the deployment report measured from channel traffic: single cuts on
// linear chains (smallest flow, ship-raw, deepest tied cut), per-branch
// cuts on fan-out plans, prefix cuts when every branch would ship more
// than the raw stream, placement on/off result equivalence, per-link
// and uplink bytes, multi-hop routing, transfer time, same-node and
// missing-route deployments, and the paper's Figure 1 claim on the
// shared-ingest fan-out. Expected bytes always come from an unplaced
// run's measured flow at the cut.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "nebula/engine.hpp"
#include "queries/queries.hpp"

namespace nebulameos::nebula {
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

std::vector<std::vector<Value>> MakeRows(int n) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(int64_t{i % 3}), Value(Seconds(i)),
                    Value(static_cast<double>(i))});
  }
  return rows;
}

SourcePtr MakeSource(int n) {
  return std::make_unique<MemorySource>(EventSchema(), MakeRows(n), 1, "ts");
}

// The canonical two-branch plan: shared selective filter, branch 0 keeps
// high values narrowed to two fields, branch 1 aggregates per key.
Result<LogicalPlan> MakeFanOutPlan(int n,
                                   std::shared_ptr<CollectSink>* high_sink,
                                   std::shared_ptr<CollectSink>* agg_sink) {
  *high_sink = std::make_shared<CollectSink>(
      Schema::Build().AddInt64("key").AddDouble("value").Finish());
  *agg_sink = std::make_shared<CollectSink>(Schema::Build()
                                                .AddInt64("key")
                                                .AddTimestamp("window_start")
                                                .AddTimestamp("window_end")
                                                .AddInt64("n")
                                                .Finish());
  SplitQuery split = Query::From(MakeSource(n))
                         .Filter(Ge(Attribute("value"), Lit(2.0)))
                         .Split(2);
  std::move(split[0])
      .Filter(Ge(Attribute("value"), Lit(6.0)))
      .Project({"key", "value"})
      .To(*high_sink);
  std::move(split[1])
      .KeyBy("key")
      .TumblingWindow(Seconds(100), "ts")
      .Aggregate({AggregateSpec::Count("n")})
      .To(*agg_sink);
  return std::move(split).Build();
}

// A run's stats plus the deployment report measured from its channels.
struct PlacedRun {
  QueryStats stats;
  DeploymentReport report;
};

// Runs `plan` (a build error passes through) to completion on a fresh
// engine, optimizer off so the compiled shape matches the logical plan
// 1:1. With a topology, placed plans lower their node transitions to
// network channels; without one they run single-node and report no
// traffic.
Result<PlacedRun> Execute(Result<LogicalPlan> plan,
                          const Topology* topology = nullptr) {
  NM_RETURN_NOT_OK(plan.status());
  EngineOptions options;
  options.optimizer.enable = false;
  options.topology = topology;
  NodeEngine engine(options);
  NM_ASSIGN_OR_RETURN(const int id, engine.Submit(std::move(*plan)));
  NM_RETURN_NOT_OK(engine.RunToCompletion(id));
  PlacedRun run;
  NM_ASSIGN_OR_RETURN(run.stats, engine.Stats(id));
  NM_ASSIGN_OR_RETURN(run.report, engine.Deployment(id));
  return run;
}

Result<QueryStats> MeasureRun(Result<LogicalPlan> plan) {
  NM_ASSIGN_OR_RETURN(PlacedRun run, Execute(std::move(plan)));
  return run.stats;
}

// Terminates `query` with a counting sink over its own output schema.
Result<LogicalPlan> WithSink(Query query) {
  NM_ASSIGN_OR_RETURN(LogicalPlan plan, std::move(query).Build());
  NM_ASSIGN_OR_RETURN(const Schema schema, plan.OutputSchema());
  plan.SetSink(std::make_shared<CountingSink>(schema));
  return plan;
}

// Measured bytes_out of the operator keyed \p name.
uint64_t BytesOut(const QueryStats& stats, const std::string& name) {
  for (const auto& [key, op] : stats.operator_stats) {
    if (key == name) return op.bytes_out;
  }
  ADD_FAILURE() << "no operator " << name;
  return 0;
}

bool FaultsInjected() { return std::getenv("NM_FAULT_PROFILE") != nullptr; }

// Measured channel traffic against the flow an unplaced run measured at
// the cut: equal fault-free. Under an injected NM_FAULT_PROFILE (the
// CHECK_FAULTS=1 gate) channels re-ship duplicated and retransmitted
// frames, so measured traffic can only meet or exceed it.
void ExpectShipped(uint64_t measured, uint64_t expected) {
  if (FaultsInjected()) {
    EXPECT_GE(measured, expected);
  } else {
    EXPECT_EQ(measured, expected);
  }
}

// Transfer seconds against the per-frame route model (bytes/bandwidth +
// latency per hop); fault recovery only adds backoff on top.
void ExpectTransferSeconds(double measured, double expected) {
  if (FaultsInjected()) {
    EXPECT_GE(measured + 1e-9, expected);
  } else {
    EXPECT_NEAR(measured, expected, 1e-9);
  }
}

// Runs `plan` unplaced and applies the placement pass to `fresh` (a
// second build of the same plan) from the measured flow.
Status PlaceFromMeasuredRun(Result<LogicalPlan> plan, LogicalPlan* fresh,
                            const Topology& topo, QueryStats* measured) {
  NM_ASSIGN_OR_RETURN(*measured, MeasureRun(std::move(plan)));
  PlacementPassOptions options;
  options.topology = &topo;
  options.edge_node = kEdge;
  options.cloud_node = kCloud;
  options.measured = measured->operator_stats;
  options.source_bytes = measured->bytes_ingested;
  bool changed = false;
  return MakePlacementPass(std::move(options))->Apply(fresh, &changed);
}

TEST(PlacementPass, PerBranchCutsOnFanOutPlan) {
  // Measure a run of the plan shape first.
  std::shared_ptr<CollectSink> high, agg;
  auto measured_plan = MakeFanOutPlan(10, &high, &agg);
  ASSERT_TRUE(measured_plan.ok()) << measured_plan.status().ToString();
  auto stats = MeasureRun(std::move(*measured_plan));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  PlacementPassOptions options;
  options.topology = &topo;
  options.edge_node = kEdge;
  options.cloud_node = kCloud;
  options.measured = stats->operator_stats;
  options.source_bytes = stats->bytes_ingested;

  auto plan = MakeFanOutPlan(10, &high, &agg);
  ASSERT_TRUE(plan.ok());
  RewritePassPtr pass = MakePlacementPass(std::move(options));
  bool changed = false;
  ASSERT_TRUE(pass->Apply(&*plan, &changed).ok());
  EXPECT_TRUE(changed);

  // Both branches ship less than the shared prefix's output, so the
  // prefix and every branch operator stay on the edge; only sinks move.
  EXPECT_EQ(plan->source_placement(), kEdge);
  const auto& ops = plan->ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0]->placement(), kEdge);  // shared filter
  EXPECT_EQ(ops[1]->placement(), kEdge);  // fan-out node
  const auto& fan = static_cast<const FanOutNode&>(*ops[1]);
  const auto& alerts = fan.branches()[0];
  ASSERT_EQ(alerts.size(), 3u);
  EXPECT_EQ(alerts[0]->placement(), kEdge);   // Filter(value >= 6)
  EXPECT_EQ(alerts[1]->placement(), kEdge);   // Project
  EXPECT_EQ(alerts[2]->placement(), kCloud);  // Sink
  const auto& archive = fan.branches()[1];
  ASSERT_EQ(archive.size(), 3u);
  EXPECT_EQ(archive[0]->placement(), kEdge);   // KeyBy marker
  EXPECT_EQ(archive[1]->placement(), kEdge);   // WindowAgg
  EXPECT_EQ(archive[2]->placement(), kCloud);  // Sink
  // Explain renders the annotations.
  EXPECT_NE(plan->Explain().find("@node2"), std::string::npos);
  // A second application is a fixpoint no-op.
  changed = false;
  ASSERT_TRUE(pass->Apply(&*plan, &changed).ok());
  EXPECT_FALSE(changed);
}

TEST(PlacementPass, PrefixCutWhenEveryBranchExpands) {
  // Both branches immediately widen every record, so each branch's best
  // cut is its own entry — shipping the prefix output once (one prefix
  // cut) beats shipping it once per branch.
  auto build = [](std::shared_ptr<CollectSink>* s0,
                  std::shared_ptr<CollectSink>* s1) {
    const Schema wide = Schema::Build()
                            .AddInt64("key")
                            .AddTimestamp("ts")
                            .AddDouble("value")
                            .AddDouble("scaled")
                            .Finish();
    *s0 = std::make_shared<CollectSink>(wide);
    *s1 = std::make_shared<CollectSink>(wide);
    SplitQuery split = Query::From(MakeSource(10))
                           .Filter(Ge(Attribute("value"), Lit(2.0)))
                           .Split(2);
    std::move(split[0])
        .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
        .To(*s0);
    std::move(split[1])
        .Map("scaled", Mul(Attribute("value"), Lit(3.0)))
        .To(*s1);
    return std::move(split).Build();
  };
  std::shared_ptr<CollectSink> s0, s1;
  auto measured_plan = build(&s0, &s1);
  ASSERT_TRUE(measured_plan.ok());
  auto stats = MeasureRun(std::move(*measured_plan));
  ASSERT_TRUE(stats.ok());

  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  PlacementPassOptions options;
  options.topology = &topo;
  options.edge_node = kEdge;
  options.cloud_node = kCloud;
  options.measured = stats->operator_stats;
  options.source_bytes = stats->bytes_ingested;

  auto plan = build(&s0, &s1);
  ASSERT_TRUE(plan.ok());
  RewritePassPtr pass = MakePlacementPass(std::move(options));
  bool changed = false;
  ASSERT_TRUE(pass->Apply(&*plan, &changed).ok());
  EXPECT_TRUE(changed);
  // Cut after the shared filter: fan-out and both branches in the cloud.
  const auto& ops = plan->ops();
  EXPECT_EQ(ops[0]->placement(), kEdge);   // shared filter
  EXPECT_EQ(ops[1]->placement(), kCloud);  // fan-out
  const auto& fan = static_cast<const FanOutNode&>(*ops[1]);
  for (const auto& branch : fan.branches()) {
    for (const auto& op : branch) {
      EXPECT_EQ(op->placement(), kCloud);
    }
  }
  // Idempotence holds on this path too, even though the solver first
  // tries per-branch cuts before the prefix cut overwrites them.
  changed = false;
  ASSERT_TRUE(pass->Apply(&*plan, &changed).ok());
  EXPECT_FALSE(changed);
}

TEST(Placement, SubmitDoesNotRewritePlacedPlans) {
  // Two adjacent filters would normally fuse; on a placed plan the
  // rewriter must not run — placement annotations are tied to the exact
  // plan shape they were computed for.
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto plan = Query::From(MakeSource(10))
                  .Filter(Ge(Attribute("value"), Lit(2.0)))
                  .Filter(Ge(Attribute("value"), Lit(4.0)))
                  .To(sink)
                  .Build();
  ASSERT_TRUE(plan.ok());
  AnnotateEdgePushdownPlacement(&*plan, kEdge, kCloud);
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  EngineOptions options;  // optimizer ON (the default)
  options.topology = &topo;
  NodeEngine engine(options);
  auto id = engine.Submit(std::move(*plan));
  ASSERT_TRUE(id.ok());
  auto text = engine.Explain(*id);
  ASSERT_TRUE(text.ok());
  // Both filters survive, still carrying their placement annotations.
  const std::string& optimized = text->optimized;
  size_t first = optimized.find("Filter(");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(optimized.find("Filter(", first + 1), std::string::npos);
  EXPECT_NE(optimized.find("@node2"), std::string::npos);
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  EXPECT_EQ(sink->events(), 6u);  // values 4..9
}

TEST(PlacementPass, RejectsMismatchedMeasurements) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  PlacementPassOptions options;
  options.topology = &topo;
  options.edge_node = kEdge;
  options.cloud_node = kCloud;
  options.source_bytes = 240;  // no measured operator entries at all
  std::shared_ptr<CollectSink> high, agg;
  auto plan = MakeFanOutPlan(10, &high, &agg);
  ASSERT_TRUE(plan.ok());
  bool changed = false;
  const Status st =
      MakePlacementPass(std::move(options))->Apply(&*plan, &changed);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(Placement, PlacedAndUnplacedRunsAgree) {
  // Reference: the fan-out plan without any placement.
  std::shared_ptr<CollectSink> high_ref, agg_ref;
  auto ref_plan = MakeFanOutPlan(40, &high_ref, &agg_ref);
  ASSERT_TRUE(ref_plan.ok());
  ASSERT_TRUE(MeasureRun(std::move(*ref_plan)).ok());

  // Placed: full edge pushdown, executed over real network channels.
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  std::shared_ptr<CollectSink> high, agg;
  auto placed_plan = MakeFanOutPlan(40, &high, &agg);
  ASSERT_TRUE(placed_plan.ok());
  AnnotateEdgePushdownPlacement(&*placed_plan, kEdge, kCloud);
  ASSERT_TRUE(Execute(std::move(*placed_plan), &topo).ok());

  // Every row of every sink must match: the channels serialized,
  // shipped and reconstructed the exact same records (watermarks
  // included — the window aggregate fires identically). Compared as row
  // sets: partitioned execution (worker_threads > 1) interleaves per-key
  // window emissions in no specified order.
  auto sorted = [](std::vector<std::vector<Value>> rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(sorted(high->Rows()), sorted(high_ref->Rows()));
  EXPECT_EQ(sorted(agg->Rows()), sorted(agg_ref->Rows()));
  EXPECT_FALSE(agg->Rows().empty());
}

// A 1%-selective filter: 40 of 4000 rows pass (values 3960..3999).
Result<LogicalPlan> SelectiveFilterPlan() {
  return WithSink(Query::From(MakeSource(4000))
                      .Filter(Ge(Attribute("value"), Lit(3960.0))));
}

// The filter of SelectiveFilterPlan, then a map widening every record.
Result<LogicalPlan> FilterThenWideningMapPlan() {
  return WithSink(Query::From(MakeSource(4000))
                      .Filter(Ge(Attribute("value"), Lit(3960.0)))
                      .Map("scaled", Mul(Attribute("value"), Lit(2.0))));
}

TEST(Placement, ChannelCountersMatchMeasuredFlowOnLinearChain) {
  auto measured = MeasureRun(FilterThenWideningMapPlan());
  ASSERT_TRUE(measured.ok()) << measured.status().ToString();
  const uint64_t filtered = BytesOut(*measured, "Filter");
  ASSERT_GT(filtered, 0u);

  // Executed deployment of the cut after the filter.
  auto plan = FilterThenWideningMapPlan();
  ASSERT_TRUE(plan.ok());
  plan->set_source_placement(kEdge);
  plan->mutable_ops()[0]->set_placement(kEdge);   // Filter
  plan->mutable_ops()[1]->set_placement(kCloud);  // Map
  plan->mutable_ops()[2]->set_placement(kCloud);  // Sink
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  auto placed = Execute(std::move(*plan), &topo);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  const DeploymentReport& report = placed->report;

  // The channel carries exactly the filter's measured output, on the one
  // train -> cloud link.
  ASSERT_EQ(report.link_bytes.size(), 1u);
  ExpectShipped(report.link_bytes.at({kEdge, kCloud}), filtered);
  ExpectShipped(report.uplink_bytes, filtered);
  // The wire adds exactly one frame header per shipped frame.
  ASSERT_GT(report.frames, 0u);
  EXPECT_EQ(report.wire_bytes,
            report.uplink_bytes + report.frames * kWireFrameHeaderBytes);
}

TEST(PlacementPass, CutPicksSmallestFlow) {
  // Filter (raw -> 1%), then a map widening the survivors: the cheapest
  // cut ships the filter's output.
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  auto plan = FilterThenWideningMapPlan();
  ASSERT_TRUE(plan.ok());
  QueryStats measured;
  ASSERT_TRUE(PlaceFromMeasuredRun(FilterThenWideningMapPlan(), &*plan, topo,
                                   &measured)
                  .ok());
  ASSERT_LT(BytesOut(measured, "Filter"), BytesOut(measured, "Map"));
  EXPECT_EQ(plan->source_placement(), kEdge);
  EXPECT_EQ(plan->ops()[0]->placement(), kEdge);   // filter on the edge
  EXPECT_EQ(plan->ops()[1]->placement(), kCloud);  // map in the cloud
  EXPECT_EQ(plan->ops()[2]->placement(), kCloud);  // sink in the cloud
  auto placed = Execute(std::move(*plan), &topo);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  ExpectShipped(placed->report.uplink_bytes, BytesOut(measured, "Filter"));
}

TEST(PlacementPass, ShipsRawWhenEveryOperatorExpands) {
  // A map that widens every record: shipping the raw stream is cheaper
  // than shipping the map's output, so only the source stays on the edge.
  auto build = [] {
    return WithSink(Query::From(MakeSource(100))
                        .Map("scaled", Mul(Attribute("value"), Lit(2.0))));
  };
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  auto plan = build();
  ASSERT_TRUE(plan.ok());
  QueryStats measured;
  ASSERT_TRUE(PlaceFromMeasuredRun(build(), &*plan, topo, &measured).ok());
  ASSERT_GT(BytesOut(measured, "Map"), measured.bytes_ingested);
  EXPECT_EQ(plan->source_placement(), kEdge);
  EXPECT_EQ(plan->ops()[0]->placement(), kCloud);  // map in the cloud
  EXPECT_EQ(plan->ops()[1]->placement(), kCloud);  // sink in the cloud
  auto placed = Execute(std::move(*plan), &topo);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  ExpectShipped(placed->report.uplink_bytes, measured.bytes_ingested);
}

// Regression: byte-count ties used to break toward the earliest cut,
// keeping operators in the cloud when a deeper cut ships the same bytes.
TEST(PlacementPass, PrefersDeepestTiedCut) {
  // The map overwrites a field in place, so it emits exactly the bytes
  // the filter does: cutting after either ships the same bytes, so the
  // map belongs on the edge too.
  auto build = [] {
    return WithSink(Query::From(MakeSource(100))
                        .Filter(Ge(Attribute("value"), Lit(2.0)))
                        .Map("value", Mul(Attribute("value"), Lit(2.0))));
  };
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  auto plan = build();
  ASSERT_TRUE(plan.ok());
  QueryStats measured;
  ASSERT_TRUE(PlaceFromMeasuredRun(build(), &*plan, topo, &measured).ok());
  ASSERT_EQ(BytesOut(measured, "Filter"), BytesOut(measured, "Map"));
  EXPECT_EQ(plan->ops()[0]->placement(), kEdge);   // filter on the edge
  EXPECT_EQ(plan->ops()[1]->placement(), kEdge);   // tied map pushed down too
  EXPECT_EQ(plan->ops()[2]->placement(), kCloud);  // sink in the cloud
  auto placed = Execute(std::move(*plan), &topo);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  ExpectShipped(placed->report.uplink_bytes, BytesOut(measured, "Map"));
}

TEST(Deployment, EdgePushdownShipsOnlyResults) {
  auto unplaced = Execute(SelectiveFilterPlan());
  ASSERT_TRUE(unplaced.ok()) << unplaced.status().ToString();
  const uint64_t filtered = BytesOut(unplaced->stats, "Filter");
  ASSERT_GT(filtered, 0u);
  auto plan = SelectiveFilterPlan();
  ASSERT_TRUE(plan.ok());
  AnnotateEdgePushdownPlacement(&*plan, kEdge, kCloud);
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  auto placed = Execute(std::move(*plan), &topo);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  // Only the filter's output crosses the uplink.
  ExpectShipped(placed->report.uplink_bytes, filtered);
  ExpectShipped(placed->report.link_bytes.at({kEdge, kCloud}), filtered);
}

TEST(Deployment, CloudPlacementShipsRawStream) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  auto cloud_plan = SelectiveFilterPlan();
  ASSERT_TRUE(cloud_plan.ok());
  AnnotateCloudPlacement(&*cloud_plan, kEdge, kCloud);
  auto cloud = Execute(std::move(*cloud_plan), &topo);
  ASSERT_TRUE(cloud.ok()) << cloud.status().ToString();
  ExpectShipped(cloud->report.uplink_bytes, cloud->stats.bytes_ingested);
  // Edge pushdown wins by the filter's selectivity.
  auto pushdown_plan = SelectiveFilterPlan();
  ASSERT_TRUE(pushdown_plan.ok());
  AnnotateEdgePushdownPlacement(&*pushdown_plan, kEdge, kCloud);
  auto pushdown = Execute(std::move(*pushdown_plan), &topo);
  ASSERT_TRUE(pushdown.ok()) << pushdown.status().ToString();
  EXPECT_GT(cloud->report.uplink_bytes, pushdown->report.uplink_bytes * 50);
  EXPECT_GT(cloud->report.total_transfer_seconds,
            pushdown->report.total_transfer_seconds);
}

// Source on `from`, the sink (the plan's only operator) on `to`.
Result<LogicalPlan> SourceToSinkPlan(int rows, int from, int to) {
  NM_ASSIGN_OR_RETURN(LogicalPlan plan,
                      WithSink(Query::From(MakeSource(rows))));
  plan.set_source_placement(from);
  plan.mutable_ops()[0]->set_placement(to);
  return plan;
}

TEST(Deployment, TransferTimeUsesBandwidthAndLatency) {
  Topology topo;
  ASSERT_TRUE(topo.AddNode({1, NodeKind::kEdgeWorker, "edge", 1.0}).ok());
  ASSERT_TRUE(topo.AddNode({2, NodeKind::kCloudWorker, "cloud", 1.0}).ok());
  ASSERT_TRUE(topo.AddLink({1, 2, 1000.0, Millis(500)}).ok());
  auto plan = SourceToSinkPlan(20, 1, 2);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto run = Execute(std::move(*plan), &topo);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const DeploymentReport& report = run->report;
  ExpectShipped(report.uplink_bytes, run->stats.bytes_ingested);
  if (!FaultsInjected()) {
    EXPECT_EQ(report.frames, 1u);  // one buffer
  }
  // Each frame: wire bytes at 1000 B/s + 0.5 s latency.
  ExpectTransferSeconds(report.total_transfer_seconds,
                        static_cast<double>(report.wire_bytes) / 1000.0 +
                            static_cast<double>(report.frames) * 0.5);
}

TEST(Deployment, MissingRouteErrors) {
  Topology topo;
  ASSERT_TRUE(topo.AddNode({1, NodeKind::kEdgeWorker, "edge", 1.0}).ok());
  ASSERT_TRUE(topo.AddNode({2, NodeKind::kCloudWorker, "cloud", 1.0}).ok());
  // No link between 1 and 2: the placed plan cannot deploy.
  auto unrouted = SourceToSinkPlan(10, 1, 2);
  ASSERT_TRUE(unrouted.ok());
  EXPECT_FALSE(Execute(std::move(*unrouted), &topo).ok());
  // A placement naming a node the topology lacks cannot either.
  auto unknown = SourceToSinkPlan(10, 1, 99);
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(Execute(std::move(*unknown), &topo).ok());
  // The placement pass refuses to cut toward an unreachable cloud.
  PlacementPassOptions options;
  options.topology = &topo;
  options.edge_node = 1;
  options.cloud_node = 2;
  auto plan = SourceToSinkPlan(10, 1, 2);
  ASSERT_TRUE(plan.ok());
  bool changed = false;
  EXPECT_FALSE(MakePlacementPass(std::move(options))->Apply(&*plan, &changed)
                   .ok());
}

// Regression: deployments failed whenever two placed operators lacked a
// *direct* link — any placement on the coordinator failed because
// SncbReference only links trains to the cloud worker.
TEST(Deployment, RoutesOverMultiHopPaths) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  // Train (2) to coordinator (0): no direct link, relayed by node 1.
  auto plan = SourceToSinkPlan(1000, kEdge, 0);
  ASSERT_TRUE(plan.ok());
  auto run = Execute(std::move(*plan), &topo);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const DeploymentReport& report = run->report;
  const uint64_t raw = run->stats.bytes_ingested;
  // Both hops carried the stream; the cellular hop counts as uplink once.
  ASSERT_EQ(report.link_bytes.size(), 2u);
  ExpectShipped(report.link_bytes.at({kEdge, 1}), raw);
  ExpectShipped(report.link_bytes.at({1, 0}), raw);
  ExpectShipped(report.uplink_bytes, raw);
  // Each frame crosses 1 MB/s + 50 ms, then 1 GB/s + 1 ms.
  const double wire = static_cast<double>(report.wire_bytes);
  const double frames = static_cast<double>(report.frames);
  ExpectTransferSeconds(report.total_transfer_seconds,
                        wire / 1e6 + frames * 0.05 + wire / 1e9 +
                            frames * 0.001);
}

TEST(Deployment, SameNodeTransfersAreFree) {
  // A cloud node: the plan verifier keeps sinks off edge workers.
  Topology topo;
  ASSERT_TRUE(topo.AddNode({1, NodeKind::kCloudWorker, "cloud", 1.0}).ok());
  auto plan = SourceToSinkPlan(1000, 1, 1);
  ASSERT_TRUE(plan.ok());
  auto run = Execute(std::move(*plan), &topo);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->report.uplink_bytes, 0u);
  EXPECT_EQ(run->report.frames, 0u);
  EXPECT_TRUE(run->report.link_bytes.empty());
  EXPECT_DOUBLE_EQ(run->report.total_transfer_seconds, 0.0);
}

// The paper's Figure 1 claim on a small shared-ingest fan-out stream (the
// Fig.1 bench's plan): pushing operators to the train ships strictly
// fewer uplink bytes than shipping the raw stream, and the placement
// pass's cut ships no more than full pushdown.
TEST(Deployment, Fig1EdgePlacementShipsLessThanRaw) {
  auto env = queries::DemoEnvironment::Create();
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  auto build = [&env]() -> Result<LogicalPlan> {
    queries::QueryOptions qopts;
    qopts.max_events = 4000;
    qopts.sink = queries::SinkMode::kCounting;
    NM_ASSIGN_OR_RETURN(queries::BuiltFanOutQuery built,
                        queries::BuildSharedIngestFanOut(**env, qopts));
    NM_RETURN_NOT_OK(PlanRewriter::Default().Rewrite(&built.plan));
    return std::move(built.plan);
  };
  const Topology topo = Topology::SncbReference(6, 1e6, Millis(60));
  auto raw_plan = build();
  ASSERT_TRUE(raw_plan.ok()) << raw_plan.status().ToString();
  AnnotateCloudPlacement(&*raw_plan, kEdge, kCloud);
  auto ship_raw = Execute(std::move(*raw_plan), &topo);
  ASSERT_TRUE(ship_raw.ok()) << ship_raw.status().ToString();

  auto pushdown_plan = build();
  ASSERT_TRUE(pushdown_plan.ok());
  AnnotateEdgePushdownPlacement(&*pushdown_plan, kEdge, kCloud);
  auto pushdown = Execute(std::move(*pushdown_plan), &topo);
  ASSERT_TRUE(pushdown.ok()) << pushdown.status().ToString();

  auto cut_plan = build();
  ASSERT_TRUE(cut_plan.ok());
  QueryStats measured;
  const Status placed = PlaceFromMeasuredRun(build(), &*cut_plan, topo,
                                             &measured);
  ASSERT_TRUE(placed.ok()) << placed.ToString();
  auto cut = Execute(std::move(*cut_plan), &topo);
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();

  EXPECT_GT(ship_raw->report.uplink_bytes, 0u);
  EXPECT_LT(pushdown->report.uplink_bytes, ship_raw->report.uplink_bytes);
  EXPECT_LT(cut->report.uplink_bytes, ship_raw->report.uplink_bytes);
  EXPECT_LE(cut->report.uplink_bytes, pushdown->report.uplink_bytes);
}

TEST(Placement, UnplacedQueryReportsNoTraffic) {
  std::shared_ptr<CollectSink> high, agg;
  auto plan = MakeFanOutPlan(10, &high, &agg);
  ASSERT_TRUE(plan.ok());
  NodeEngine engine;
  auto id = engine.Submit(std::move(*plan));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  auto report = engine.Deployment(*id);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->uplink_bytes, 0u);
  EXPECT_EQ(report->frames, 0u);
  EXPECT_TRUE(report->link_bytes.empty());
}

}  // namespace
}  // namespace nebulameos::nebula
