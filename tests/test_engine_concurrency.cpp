// Tier-2 concurrency equivalence suite for morsel-driven execution:
// every demonstration query (Q1–Q8 plus the Q4 join variant), the
// shared-ingest fan-out and a placed plan over network channels must
// produce the same results with `worker_threads` 2 and 4 as with the
// sequential engine (1) — same ingested/emitted record counts and the
// same sink row *sets* (rows are compared sorted: partitioned keyed
// state and concurrent branches emit in no specified order, which is
// exactly the freedom the morsel scheduler exploits). It also checks the
// engine's one worker pool: many queries run on few threads, and more
// parallel queries than workers all finish.
//
// Run under ThreadSanitizer (scripts/check.sh tsan mode, or the CI
// `sanitize-thread` job) this suite doubles as the data-race gate for
// the worker pool, the hash partition router, the shared-batch fan-out
// hand-off and the atomic flow counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <thread>

#include "queries/queries.hpp"

namespace nebulameos::queries {
namespace {

using nebula::CollectSink;
using nebula::EngineOptions;
using nebula::LogicalPlan;
using nebula::NodeEngine;
using nebula::QueryStats;
using nebula::Value;

// One run's observable outcome: flow totals, every sink's rows as a
// sorted multiset, and the query's final metrics snapshot.
struct RunOutcome {
  uint64_t events_ingested = 0;
  uint64_t events_emitted = 0;
  std::vector<std::vector<std::vector<Value>>> sinks;
  nebula::metrics::MetricsSnapshot metrics;
};

// Every registered metric name, across all three instrument kinds.
std::set<std::string> MetricNames(const nebula::metrics::MetricsSnapshot& m) {
  std::set<std::string> names;
  for (const auto& [name, value] : m.counters) names.insert(name);
  for (const auto& [name, value] : m.gauges) names.insert(name);
  for (const auto& [name, value] : m.histograms) names.insert(name);
  return names;
}

std::vector<std::vector<Value>> Sorted(std::vector<std::vector<Value>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Threads of this process right now (Linux: /proc/self/task), 0 where
// that is not available.
size_t ThreadCount() {
#if defined(__linux__)
  std::error_code ec;
  size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
#else
  return 0;
#endif
}

// The engine pool's bound for queries of `workers` parallelism.
size_t PoolBound(size_t workers) {
  return std::max<size_t>({std::thread::hardware_concurrency(), workers, 1});
}

class EngineConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto env = DemoEnvironment::Create();
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    shared_env_ = *env;
    env_ = env->get();
  }

  static QueryOptions SmallRun(uint64_t events = 60'000) {
    QueryOptions options;
    options.max_events = events;
    options.sink = SinkMode::kCollect;
    return options;
  }

  // Submits `plan` to a fresh engine with `workers` threads, runs it to
  // completion and snapshots the outcome.
  static RunOutcome RunPlan(
      LogicalPlan plan,
      const std::vector<std::shared_ptr<CollectSink>>& sinks, size_t workers,
      const nebula::Topology* topology = nullptr) {
    EngineOptions options;
    options.worker_threads = workers;
    options.topology = topology;
    NodeEngine engine(options);
    auto id = engine.Submit(std::move(plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    const auto st = engine.RunToCompletion(*id);
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto stats = engine.Stats(*id);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    RunOutcome outcome;
    outcome.events_ingested = stats->events_ingested;
    outcome.events_emitted = stats->events_emitted;
    auto metrics = engine.Metrics(*id);
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    if (metrics.ok()) outcome.metrics = *std::move(metrics);
    for (const auto& sink : sinks) outcome.sinks.push_back(Sorted(sink->Rows()));
    return outcome;
  }

  static RunOutcome RunQueryWithWorkers(int number, size_t workers) {
    auto built = BuildQuery(number, *env_, SmallRun());
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return RunPlan(std::move(built->plan), {built->collect}, workers);
  }

  // The core assertion: worker counts 2 and 4 reproduce the sequential
  // outcome exactly (as row sets).
  static void ExpectEquivalent(const RunOutcome& sequential,
                               const RunOutcome& concurrent,
                               const std::string& label) {
    EXPECT_EQ(sequential.events_ingested, concurrent.events_ingested)
        << label;
    EXPECT_EQ(sequential.events_emitted, concurrent.events_emitted) << label;
    ASSERT_EQ(sequential.sinks.size(), concurrent.sinks.size()) << label;
    for (size_t s = 0; s < sequential.sinks.size(); ++s) {
      EXPECT_EQ(sequential.sinks[s], concurrent.sinks[s])
          << label << " sink " << s;
    }
    // Metric names are a property of the plan, not of the worker count:
    // strand instruments key by segment path (partition clones share
    // their segment's), fused kernel stages by their original chained
    // names — so dashboards survive scaling the pool.
    EXPECT_EQ(MetricNames(sequential.metrics), MetricNames(concurrent.metrics))
        << label;
  }

  // Instrumentation floor for any completed run: engine flow counters
  // moved, at least one per-operator latency histogram recorded samples,
  // and every dispatch-target path published its queue-depth gauge and
  // task-wait histogram (the backpressure signal).
  static void ExpectInstrumented(const RunOutcome& run,
                                 const std::string& label) {
    EXPECT_GT(run.metrics.counters.at("engine.events_ingested"), 0u) << label;
    // Some queries legitimately emit nothing on the test's event budget
    // (their filters never fire); the counter must still exist.
    EXPECT_EQ(run.metrics.counters.count("engine.events_emitted"), 1u)
        << label;
    bool operator_latency_recorded = false;
    for (const auto& [name, hist] : run.metrics.histograms) {
      if (name.rfind("op.", 0) == 0 &&
          name.find(".process_micros") != std::string::npos && hist.count > 0) {
        operator_latency_recorded = true;
        break;
      }
    }
    EXPECT_TRUE(operator_latency_recorded) << label;
    size_t strand_gauges = 0;
    for (const auto& [name, value] : run.metrics.gauges) {
      if (name.rfind("worker.strand.", 0) == 0 &&
          name.find(".queue_depth") != std::string::npos) {
        ++strand_gauges;
        EXPECT_GE(value, 0.0) << label << " " << name;
        // The matching task-wait histogram rides the same path key.
        const std::string wait_name =
            name.substr(0, name.size() - std::string(".queue_depth").size()) +
            ".task_wait_micros";
        EXPECT_EQ(run.metrics.histograms.count(wait_name), 1u)
            << label << " " << wait_name;
      }
    }
    EXPECT_GE(strand_gauges, 1u) << label;
  }

  static void CheckQueryAcrossWorkerCounts(int number) {
    const RunOutcome sequential = RunQueryWithWorkers(number, 1);
    EXPECT_GT(sequential.events_ingested, 0u) << QueryName(number);
    ExpectInstrumented(sequential,
                       std::string(QueryName(number)) + " @ 1 worker");
    for (const size_t workers : {size_t{2}, size_t{4}}) {
      const RunOutcome concurrent = RunQueryWithWorkers(number, workers);
      const std::string label = std::string(QueryName(number)) + " @ " +
                                std::to_string(workers) + " workers";
      ExpectEquivalent(sequential, concurrent, label);
      ExpectInstrumented(concurrent, label);
    }
  }

  static DemoEnvironment* env_;
  static std::shared_ptr<DemoEnvironment> shared_env_;
};

DemoEnvironment* EngineConcurrencyTest::env_ = nullptr;
std::shared_ptr<DemoEnvironment> EngineConcurrencyTest::shared_env_;

TEST_F(EngineConcurrencyTest, Q1AlertFiltering) {
  CheckQueryAcrossWorkerCounts(1);
}

TEST_F(EngineConcurrencyTest, Q2NoiseMonitoring) {
  CheckQueryAcrossWorkerCounts(2);
}

TEST_F(EngineConcurrencyTest, Q3DynamicSpeedLimit) {
  CheckQueryAcrossWorkerCounts(3);
}

TEST_F(EngineConcurrencyTest, Q4WeatherSpeedZones) {
  CheckQueryAcrossWorkerCounts(4);
}

TEST_F(EngineConcurrencyTest, Q5BatteryMonitoring) {
  CheckQueryAcrossWorkerCounts(5);
}

TEST_F(EngineConcurrencyTest, Q6HeavyLoad) {
  CheckQueryAcrossWorkerCounts(6);
}

TEST_F(EngineConcurrencyTest, Q7UnscheduledStops) {
  CheckQueryAcrossWorkerCounts(7);
}

TEST_F(EngineConcurrencyTest, Q8BrakeMonitoring) {
  CheckQueryAcrossWorkerCounts(8);
}

// The lookup-join variant exercises the partitioning *guard*: a join in
// the suffix keeps the chain sequential, and results must still agree.
TEST_F(EngineConcurrencyTest, Q4WeatherJoinVariant) {
  auto run = [&](size_t workers) {
    auto built = BuildQ4WeatherJoin(*env_, SmallRun());
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return RunPlan(std::move(built->plan), {built->collect}, workers);
  };
  const RunOutcome sequential = run(1);
  EXPECT_GT(sequential.events_ingested, 0u);
  ExpectEquivalent(sequential, run(2), "Q4 join @ 2 workers");
  ExpectEquivalent(sequential, run(4), "Q4 join @ 4 workers");
}

// The shared-ingest fan-out: both branches must see the full shared
// prefix output concurrently and agree with the sequential run — the
// zero-copy shared-batch hand-off under real parallelism.
TEST_F(EngineConcurrencyTest, SharedIngestFanOut) {
  auto run = [&](size_t workers) {
    auto built = BuildSharedIngestFanOut(*env_, SmallRun());
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return RunPlan(std::move(built->plan), built->collects, workers);
  };
  const RunOutcome sequential = run(1);
  ASSERT_EQ(sequential.sinks.size(), 2u);
  EXPECT_GT(sequential.events_ingested, 0u);
  ExpectInstrumented(sequential, "fan-out @ 1 worker");
  const RunOutcome four = run(4);
  ExpectEquivalent(sequential, run(2), "fan-out @ 2 workers");
  ExpectEquivalent(sequential, four, "fan-out @ 4 workers");
  ExpectInstrumented(four, "fan-out @ 4 workers");
  // Both branch strands publish their own backpressure instruments.
  EXPECT_EQ(four.metrics.gauges.count("worker.strand.0.queue_depth"), 1u);
  EXPECT_EQ(four.metrics.gauges.count("worker.strand.1.queue_depth"), 1u);
  // With a real pool, branch dispatches recorded actual task waits.
  const auto& wait =
      four.metrics.histograms.at("worker.strand.0.task_wait_micros");
  EXPECT_GT(wait.count, 0u);
}

// A placed fan-out plan executing over simulated network channels: the
// channel sink/source pairs sit inside branch strands, so frames are
// produced and drained on worker threads. Results must match the
// sequential placed run.
TEST_F(EngineConcurrencyTest, PlacedPlanAcrossNetworkChannels) {
  using nebula::AnnotateEdgePushdownPlacement;
  using nebula::Topology;
  constexpr int kEdge = 2;   // train-0 in the SNCB reference topology
  constexpr int kCloud = 1;  // cloud worker
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  auto run = [&](size_t workers) {
    auto built = BuildSharedIngestFanOut(*env_, SmallRun(30'000));
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    AnnotateEdgePushdownPlacement(&built->plan, kEdge, kCloud);
    return RunPlan(std::move(built->plan), built->collects, workers, &topo);
  };
  const RunOutcome sequential = run(1);
  ASSERT_EQ(sequential.sinks.size(), 2u);
  EXPECT_GT(sequential.events_ingested, 0u);
  ExpectInstrumented(sequential, "placed fan-out @ 1 worker");
  const RunOutcome four = run(4);
  ExpectEquivalent(sequential, run(2), "placed fan-out @ 2 workers");
  ExpectEquivalent(sequential, four, "placed fan-out @ 4 workers");
  ExpectInstrumented(four, "placed fan-out @ 4 workers");
  // The lowered network channels published wire counters and carried
  // traffic, at both worker counts under the same names.
  for (const RunOutcome* run_ptr : {&sequential, &four}) {
    uint64_t wire_bytes = 0;
    uint64_t frames = 0;
    bool transfer_hist = false;
    for (const auto& [name, value] : run_ptr->metrics.counters) {
      if (name.rfind("channel.", 0) != 0) continue;
      if (name.find(".wire_bytes") != std::string::npos) wire_bytes += value;
      if (name.find(".frames") != std::string::npos) frames += value;
    }
    for (const auto& [name, hist] : run_ptr->metrics.histograms) {
      if (name.rfind("channel.", 0) == 0 &&
          name.find(".transfer_micros") != std::string::npos &&
          hist.count > 0) {
        transfer_hist = true;
      }
    }
    EXPECT_GT(wire_bytes, 0u);
    EXPECT_GT(frames, 0u);
    EXPECT_TRUE(transfer_hist);
  }
}

// Regression for cancellation during active processing on a DAG plan:
// with 4 workers, strand tasks are in flight when `Cancel` lands. The
// engine must drain those tasks before operator state is torn down (no
// use-after-free — the TSan job re-runs this test) and must *not* flush
// window/CEP state as if the stream had completed. Repeated a few times
// to vary where in the stream the cancel lands.
TEST_F(EngineConcurrencyTest, CancelDuringProcessingDrainsInFlightWork) {
  for (int round = 0; round < 3; ++round) {
    auto built = BuildSharedIngestFanOut(*env_, SmallRun(50'000'000));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EngineOptions options;
    options.worker_threads = 4;
    NodeEngine engine(options);
    auto id = engine.Submit(std::move(built->plan));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(engine.Start(*id).ok());
    // Let real work get in flight before cancelling.
    while (engine.Stats(*id)->events_ingested == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(engine.Cancel(*id).ok());
    // The cancelled query stays inspectable and its counters consistent.
    auto stats = engine.Stats(*id);
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(stats->events_ingested, 0u);
    EXPECT_LT(stats->events_ingested, 50'000'000u);
  }
}

// Many queries, few threads: 64 one-worker queries started at once on one
// engine share its pool — no thread per query — and each produces exactly
// its sequential run's rows. While they run, the process never holds more
// threads than the pool bound, this test's own two (main and waiter) and
// a slack of 2 (a sanitizer runtime's helper thread).
TEST_F(EngineConcurrencyTest, ManyQueriesShareOneBoundedPool) {
  constexpr int kQueries = 64;
  constexpr uint64_t kEvents = 10'000;
  std::vector<RunOutcome> reference;
  for (int number = 1; number <= 8; ++number) {
    auto built = BuildQuery(number, *env_, SmallRun(kEvents));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    reference.push_back(
        RunPlan(std::move(built->plan), {built->collect}, /*workers=*/1));
  }
  EngineOptions options;
  options.worker_threads = 1;
  NodeEngine engine(options);
  std::vector<int> ids;
  std::vector<std::shared_ptr<CollectSink>> sinks;
  for (int q = 0; q < kQueries; ++q) {
    auto built = BuildQuery(q % 8 + 1, *env_, SmallRun(kEvents));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto id = engine.Submit(std::move(built->plan));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
    sinks.push_back(built->collect);
  }
  for (const int id : ids) ASSERT_TRUE(engine.Start(id).ok());
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    for (const int id : ids) EXPECT_TRUE(engine.Wait(id).ok());
    done.store(true);
  });
  size_t peak = ThreadCount();
  while (!done.load()) {
    peak = std::max(peak, ThreadCount());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  waiter.join();
  EXPECT_LE(peak, PoolBound(1) + 2 + 2);
  for (int q = 0; q < kQueries; ++q) {
    const RunOutcome& expected = reference[static_cast<size_t>(q % 8)];
    auto stats = engine.Stats(ids[static_cast<size_t>(q)]);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->events_ingested, expected.events_ingested) << q;
    EXPECT_EQ(Sorted(sinks[static_cast<size_t>(q)]->Rows()),
              expected.sinks[0])
        << QueryName(q % 8 + 1) << " #" << q;
  }
}

// No deadlock and no cross-query waits: more 4-worker queries than the
// pool has workers run at once, each with a fan-out, a keyed stateful
// suffix in both branches (partitioned 4 ways) and one-buffer pools, far
// below a strand's capacity (8). One branch is slow, so its strand backs
// up and pins the root Map's output buffers: every query keeps exhausting
// its pools while the others hold workers — an allocation that waited for
// a buffer here would leave every worker waiting. All finish with the row
// sets of the interpreted one-worker oracle.
TEST(EnginePool, MoreParallelQueriesThanWorkersAllFinish) {
  using namespace nebula;  // NOLINT(build/namespaces)
  constexpr size_t kWorkers = 4;
  constexpr int kRows = 2000;
  const Schema schema = Schema::Build()
                            .AddInt64("key")
                            .AddTimestamp("ts")
                            .AddDouble("value")
                            .Finish();
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < kRows; ++i) {
    rows.emplace_back();
    rows.back().emplace_back(int64_t{i % 8});
    rows.back().emplace_back(Seconds(i));
    rows.back().emplace_back(static_cast<double>(i));
  }
  const ExprPtr slow_pass = MakeLambdaExpr(
      "slow_pass", {Attribute("value")}, DataType::kBool,
      [](const std::vector<Value>&) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        return Value(true);
      });
  // Builds the plan with a CollectSink at each of its two leaves.
  auto make_plan = [&](std::vector<std::shared_ptr<CollectSink>>* sinks)
      -> Result<LogicalPlan> {
    SplitQuery split =
        Query::From(std::make_unique<MemorySource>(schema, rows, 1, "ts"))
            .Map("v2", Mul(Attribute("value"), Lit(2.0)))
            .Split(2);
    std::move(split[0])
        .Filter(slow_pass)
        .Map("w", Add(Attribute("v2"), Lit(1.0)))
        .KeyBy("key")
        .TumblingWindow(Seconds(100), "ts")
        .Aggregate({AggregateSpec::Sum("w", "sum_w")});
    std::move(split[1])
        .KeyBy("key")
        .TumblingWindow(Seconds(100), "ts")
        .Aggregate(
            {AggregateSpec::Max("v2", "max_v2"), AggregateSpec::Count("n")});
    NM_ASSIGN_OR_RETURN(LogicalPlan plan, std::move(split).Build());
    NM_ASSIGN_OR_RETURN(auto leaf_schemas, plan.OutputSchemas());
    std::vector<std::shared_ptr<SinkOperator>> leaves;
    for (const auto& [path, leaf_schema] : leaf_schemas) {
      sinks->push_back(std::make_shared<CollectSink>(leaf_schema));
      leaves.push_back(sinks->back());
    }
    NM_RETURN_NOT_OK(plan.SetLeafSinks(std::move(leaves)));
    return plan;
  };
  auto run = [&](NodeEngine* engine, int copies) {
    std::vector<int> ids;
    std::vector<std::vector<std::shared_ptr<CollectSink>>> sinks(copies);
    for (int q = 0; q < copies; ++q) {
      auto plan = make_plan(&sinks[q]);
      EXPECT_TRUE(plan.ok()) << plan.status().ToString();
      auto id = engine->Submit(std::move(*plan));
      EXPECT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(*id);
    }
    for (const int id : ids) EXPECT_TRUE(engine->Start(id).ok());
    std::vector<std::vector<std::vector<std::vector<Value>>>> out(copies);
    for (int q = 0; q < copies; ++q) {
      EXPECT_TRUE(engine->Wait(ids[q]).ok()) << q;
      for (const auto& sink : sinks[q]) out[q].push_back(Sorted(sink->Rows()));
    }
    return out;
  };
  EngineOptions oracle_options;
  oracle_options.worker_threads = 1;
  oracle_options.tuples_per_buffer = 16;
  oracle_options.compiled_kernels = false;
  NodeEngine oracle_engine(oracle_options);
  const auto oracle = run(&oracle_engine, 1).front();
  ASSERT_EQ(oracle.size(), 2u);
  ASSERT_FALSE(oracle[0].empty());
  EngineOptions options;
  options.worker_threads = kWorkers;
  options.tuples_per_buffer = 16;
  options.pool_size = 1;
  NodeEngine engine(options);
  const int queries = static_cast<int>(PoolBound(kWorkers)) + 2;
  const auto outcomes = run(&engine, queries);
  for (int q = 0; q < queries; ++q) {
    EXPECT_EQ(outcomes[q], oracle) << "query " << q;
  }
}

}  // namespace
}  // namespace nebulameos::queries
