// Tier-2 tests of the fleet-scale serving layer (src/nebula/serving):
// plan-level structural identity, shared-host grouping with prefix
// shrink, runtime branch admission and teardown, branch-scoped
// stats/metrics, the coordinator merge layer's ordering contract, and the
// fleet deployment conventions (per-train sharing, shared uplink).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "nebula/serving/fleet.hpp"
#include "nebula/serving/merge.hpp"
#include "nebula/serving/shared_query_manager.hpp"

namespace nebulameos::nebula::serving {
namespace {

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

// A MemorySource declared as an instance of the named logical source
// "trains" — the identity that makes independently submitted plans
// shareable.
SourcePtr NamedSource(int n, size_t rounds = 1) {
  auto src =
      std::make_unique<MemorySource>(EventSchema(), MakeRows(n), rounds, "ts");
  src->SetLogicalName("trains");
  return src;
}

std::vector<std::vector<Value>> Sorted(std::vector<std::vector<Value>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// --- A gated source for deterministic mid-stream admission -------------
//
// Emits rows only up to the released budget; `Fill` blocks at the gate,
// so the test fully controls which rows were in flight when a branch was
// admitted or detached.

struct GateState {
  std::mutex mutex;
  std::condition_variable cv;
  size_t released = 0;
  bool closed = false;

  void Release(size_t n) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      released += n;
    }
    cv.notify_all();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      closed = true;
    }
    cv.notify_all();
  }
};

class GateSource final : public Source {
 public:
  GateSource(std::vector<std::vector<Value>> rows,
             std::shared_ptr<GateState> gate)
      : schema_(EventSchema()),
        rows_(std::move(rows)),
        gate_(std::move(gate)),
        stamper_(schema_, "ts") {}

  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "GateSource"; }

  Result<bool> Fill(TupleBuffer* buffer) override {
    size_t allowed = 0;
    {
      std::unique_lock<std::mutex> lock(gate_->mutex);
      gate_->cv.wait(lock,
                     [&] { return gate_->released > pos_ || gate_->closed; });
      allowed = std::min(gate_->released, rows_.size());
    }
    if (pos_ >= allowed) return false;  // closed with nothing released
    while (!buffer->full() && pos_ < allowed) {
      const std::vector<Value>& row = rows_[pos_++];
      RecordWriter w = buffer->Append();
      w.SetInt64(0, std::get<int64_t>(row[0]));
      w.SetInt64(1, std::get<int64_t>(row[1]));
      w.SetDouble(2, std::get<double>(row[2]));
      stamper_.Observe(w.View());
    }
    stamper_.Stamp(buffer);
    return pos_ < rows_.size();
  }

 private:
  Schema schema_;
  std::vector<std::vector<Value>> rows_;
  std::shared_ptr<GateState> gate_;
  size_t pos_ = 0;
  StreamStamper stamper_;
};

bool WaitForRows(const CollectSink& sink, size_t n) {
  for (int i = 0; i < 5000; ++i) {
    if (sink.RowCount() >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// --- Plan-level structural identity ------------------------------------

TEST(PlanStructuralIdentity, EqualOpsCompareAndHashEqual) {
  FilterNode a(Ge(Attribute("value"), Lit(2.0)));
  FilterNode b(Ge(Attribute("value"), Lit(2.0)));
  EXPECT_TRUE(StructurallyEqual(a, b));
  EXPECT_EQ(StructuralHash(a), StructuralHash(b));
}

TEST(PlanStructuralIdentity, DivergentPayloadsDiffer) {
  FilterNode a(Ge(Attribute("value"), Lit(2.0)));
  FilterNode b(Ge(Attribute("value"), Lit(3.0)));
  EXPECT_FALSE(StructurallyEqual(a, b));
  EXPECT_NE(StructuralHash(a), StructuralHash(b));
}

// Field-name lists must hash with separators: {"ab","c"} and {"a","bc"}
// concatenate identically but are different projections.
TEST(PlanStructuralIdentity, CollisionProneFieldNamesDoNotCollide) {
  ProjectNode a({"ab", "c"});
  ProjectNode b({"a", "bc"});
  EXPECT_FALSE(StructurallyEqual(a, b));
  EXPECT_NE(StructuralHash(a), StructuralHash(b));
}

TEST(PlanStructuralIdentity, PlacementDivergencePreventsEquality) {
  KeyByNode a("key");
  KeyByNode b("key");
  EXPECT_TRUE(StructurallyEqual(a, b));
  a.set_placement(2);
  b.set_placement(3);
  EXPECT_FALSE(StructurallyEqual(a, b));
  EXPECT_NE(StructuralHash(a), StructuralHash(b));
}

TEST(PlanStructuralIdentity, CloneIsStructurallyEqual) {
  MapNode original({{"scaled", Mul(Attribute("value"), Lit(2.0))}});
  original.set_placement(4);
  LogicalOperatorPtr clone = CloneOperator(original);
  ASSERT_NE(clone, nullptr);
  EXPECT_TRUE(StructurallyEqual(original, *clone));
  EXPECT_EQ(StructuralHash(original), StructuralHash(*clone));
}

// --- Shared-host grouping ----------------------------------------------

// Acceptance (a): two structurally prefix-equal queries execute the
// shared prefix once per buffer — the shared host ingests the source
// stream once where independent submission ingests it twice.
TEST(SharedQueryManager, SharedPrefixIngestsSourceOnce) {
  const int n = 60;
  auto make_archive_query = [&](std::shared_ptr<SinkOperator> sink) {
    return Query::From(NamedSource(n))
        .Filter(Ge(Attribute("value"), Lit(2.0)))
        .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
        .To(std::move(sink));
  };
  auto make_alert_query = [&](std::shared_ptr<SinkOperator> sink) {
    return Query::From(NamedSource(n))
        .Filter(Ge(Attribute("value"), Lit(2.0)))
        .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
        .Filter(Ge(Attribute("scaled"), Lit(10.0)))
        .To(std::move(sink));
  };
  const Schema out_schema = Schema::Build()
                                .AddInt64("key")
                                .AddTimestamp("ts")
                                .AddDouble("value")
                                .AddDouble("scaled")
                                .Finish();

  // Independent baseline: two dedicated queries, each pulling the source.
  uint64_t independent_ingested = 0;
  std::vector<std::vector<Value>> archive_ref, alert_ref;
  {
    EngineOptions options;
    options.worker_threads = 1;
    NodeEngine engine(options);
    auto archive = std::make_shared<CollectSink>(out_schema);
    auto alerts = std::make_shared<CollectSink>(out_schema);
    std::vector<Query> queries;
    queries.push_back(make_archive_query(archive));
    queries.push_back(make_alert_query(alerts));
    for (Query& query : queries) {
      auto id = engine.Submit(std::move(query));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_TRUE(engine.Start(*id).ok());
      ASSERT_TRUE(engine.Wait(*id).ok());
      independent_ingested += engine.Stats(*id)->events_ingested;
    }
    archive_ref = Sorted(archive->Rows());
    alert_ref = Sorted(alerts->Rows());
  }
  EXPECT_EQ(independent_ingested, static_cast<uint64_t>(2 * n));

  // Shared submission: one host, the source ingested once.
  EngineOptions options;
  options.worker_threads = 1;
  NodeEngine engine(options);
  SharedQueryManager manager(&engine);
  auto archive = std::make_shared<CollectSink>(out_schema);
  auto alerts = std::make_shared<CollectSink>(out_schema);
  auto vid_a = manager.Submit(make_archive_query(archive));
  auto vid_b = manager.Submit(make_alert_query(alerts));
  ASSERT_TRUE(vid_a.ok()) << vid_a.status().ToString();
  ASSERT_TRUE(vid_b.ok()) << vid_b.status().ToString();
  EXPECT_EQ(manager.NumClientQueries(), 2u);
  EXPECT_EQ(manager.NumHostedPlans(), 1u);

  ASSERT_TRUE(manager.Start(*vid_a).ok());
  ASSERT_TRUE(manager.Wait(*vid_a).ok());
  ASSERT_TRUE(manager.Wait(*vid_b).ok());

  // Both clients see identical results to their dedicated runs.
  EXPECT_EQ(Sorted(archive->Rows()), archive_ref);
  EXPECT_EQ(Sorted(alerts->Rows()), alert_ref);
  EXPECT_EQ(static_cast<size_t>(n - 2), archive->RowCount());

  // Half the ingest of independent submission, and the shared Filter ran
  // once over the stream (not once per client).
  auto stats = manager.Stats(*vid_a);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->events_ingested, static_cast<uint64_t>(n));
  EXPECT_EQ(2 * stats->events_ingested, independent_ingested);
  ASSERT_EQ(manager.Hosts().size(), 1u);
  auto host_stats = engine.Stats(manager.Hosts()[0]);
  ASSERT_TRUE(host_stats.ok());
  uint64_t filter_events_in = 0;
  for (const auto& [op_name, op_stats] : host_stats->operator_stats) {
    if (op_name == "Filter") filter_events_in += op_stats.events_in;
  }
  EXPECT_EQ(filter_events_in, static_cast<uint64_t>(n));
}

// Submitting a shorter plan shrinks an unstarted group's prefix: the cut
// operators move into the existing members' suffixes and every client
// still computes its full plan.
TEST(SharedQueryManager, PrefixShrinksToCommonPart) {
  const int n = 30;
  const Schema out_schema = Schema::Build()
                                .AddInt64("key")
                                .AddTimestamp("ts")
                                .AddDouble("value")
                                .AddDouble("scaled")
                                .Finish();
  EngineOptions options;
  options.worker_threads = 1;
  NodeEngine engine(options);
  SharedQueryManager manager(&engine);
  auto deep = std::make_shared<CollectSink>(out_schema);
  auto shallow = std::make_shared<CollectSink>(out_schema);
  // Longer plan first: prefix starts as [Map, Filter].
  auto vid_deep =
      manager.Submit(Query::From(NamedSource(n))
                         .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                         .Filter(Ge(Attribute("scaled"), Lit(10.0)))
                         .To(deep));
  // Shorter plan second: common prefix is [Map] — the Filter must move
  // into the first member's suffix.
  auto vid_shallow =
      manager.Submit(Query::From(NamedSource(n))
                         .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                         .To(shallow));
  ASSERT_TRUE(vid_deep.ok()) << vid_deep.status().ToString();
  ASSERT_TRUE(vid_shallow.ok()) << vid_shallow.status().ToString();
  EXPECT_EQ(manager.NumHostedPlans(), 1u);
  ASSERT_TRUE(manager.Start(*vid_shallow).ok());
  ASSERT_TRUE(manager.Wait(*vid_deep).ok());
  EXPECT_EQ(shallow->RowCount(), static_cast<size_t>(n));
  EXPECT_EQ(deep->RowCount(), static_cast<size_t>(n - 5));
}

// Plans that fail a sharing gate run dedicated — and never merge.
TEST(SharedQueryManager, UnnamedSourcesNeverShare) {
  const int n = 10;
  EngineOptions options;
  options.worker_threads = 1;
  NodeEngine engine(options);
  SharedQueryManager manager(&engine);
  auto sink_a = std::make_shared<CountingSink>(EventSchema());
  auto sink_b = std::make_shared<CountingSink>(EventSchema());
  auto unnamed = [&] {
    return std::make_unique<MemorySource>(EventSchema(), MakeRows(n), 1, "ts");
  };
  auto vid_a = manager.Submit(
      Query::From(unnamed()).Filter(Ge(Attribute("value"), Lit(0.0))).To(sink_a));
  auto vid_b = manager.Submit(
      Query::From(unnamed()).Filter(Ge(Attribute("value"), Lit(0.0))).To(sink_b));
  ASSERT_TRUE(vid_a.ok() && vid_b.ok());
  EXPECT_EQ(manager.NumClientQueries(), 2u);
  EXPECT_EQ(manager.NumHostedPlans(), 2u);
  ASSERT_TRUE(manager.Start(*vid_a).ok());
  ASSERT_TRUE(manager.Start(*vid_b).ok());
  ASSERT_TRUE(manager.Wait(*vid_a).ok());
  ASSERT_TRUE(manager.Wait(*vid_b).ok());
  EXPECT_EQ(sink_a->events(), static_cast<uint64_t>(n));
  EXPECT_EQ(sink_b->events(), static_cast<uint64_t>(n));
}

// --- Runtime admission and teardown ------------------------------------

// Acceptance (b): a query admitted to a *running* host joins at the next
// buffer boundary; cancelling one branch leaves the survivors' row sets
// exactly equal to fresh dedicated submissions. Exercised at 1 and 4
// workers (the TSan job re-runs this suite).
TEST(SharedQueryManager, MidStreamAdmissionAndBranchCancel) {
  const int n = 16;
  const size_t half = 8;
  const Schema schema = EventSchema();
  const std::vector<std::vector<Value>> rows = MakeRows(n);

  // Reference: a fresh dedicated run over the full stream.
  std::vector<std::vector<Value>> full_ref;
  {
    EngineOptions options;
    options.worker_threads = 1;
    NodeEngine engine(options);
    auto sink = std::make_shared<CollectSink>(schema);
    auto id = engine.Submit(Query::From(NamedSource(n))
                                .Filter(Ge(Attribute("value"), Lit(0.0)))
                                .To(sink));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(engine.Start(*id).ok());
    ASSERT_TRUE(engine.Wait(*id).ok());
    full_ref = Sorted(sink->Rows());
  }
  ASSERT_EQ(full_ref.size(), static_cast<size_t>(n));

  for (const size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto gate = std::make_shared<GateState>();
    auto source = std::make_unique<GateSource>(rows, gate);
    source->SetLogicalName("trains");

    EngineOptions options;
    options.worker_threads = workers;
    NodeEngine engine(options);
    SharedQueryManager manager(&engine);
    auto sink_a = std::make_shared<CollectSink>(schema);
    auto sink_b = std::make_shared<CollectSink>(schema);
    auto sink_c = std::make_shared<CollectSink>(schema);

    auto vid_a = manager.Submit(Query::From(std::move(source))
                                    .Filter(Ge(Attribute("value"), Lit(0.0)))
                                    .To(sink_a));
    auto vid_b = manager.Submit(Query::From(NamedSource(n))
                                    .Filter(Ge(Attribute("value"), Lit(0.0)))
                                    .To(sink_b));
    ASSERT_TRUE(vid_a.ok() && vid_b.ok());
    EXPECT_EQ(manager.NumHostedPlans(), 1u);
    ASSERT_TRUE(manager.Start(*vid_a).ok());

    // First half flows; both branches fully consumed it.
    gate->Release(half);
    ASSERT_TRUE(WaitForRows(*sink_a, half));
    ASSERT_TRUE(WaitForRows(*sink_b, half));

    // Admit C mid-stream (host is running — no restart), drop B.
    auto vid_c = manager.Submit(Query::From(NamedSource(n))
                                    .Filter(Ge(Attribute("value"), Lit(0.0)))
                                    .To(sink_c));
    ASSERT_TRUE(vid_c.ok()) << vid_c.status().ToString();
    EXPECT_EQ(manager.NumHostedPlans(), 1u);
    ASSERT_TRUE(manager.Cancel(*vid_b).ok());

    gate->Release(n - half);
    gate->Close();
    ASSERT_TRUE(manager.Wait(*vid_a).ok());
    ASSERT_TRUE(manager.Wait(*vid_c).ok());

    // Survivor A matches a fresh dedicated submission row for row.
    EXPECT_EQ(Sorted(sink_a->Rows()), full_ref);
    // C joined after the first half: it sees exactly the second half of
    // the stream (rows half..n in arrival order).
    std::vector<std::vector<Value>> second_half(
        rows.begin() + static_cast<long>(half), rows.end());
    EXPECT_EQ(Sorted(sink_c->Rows()), Sorted(second_half));
    // B stopped at its detach point: exactly the first half.
    EXPECT_EQ(sink_b->RowCount(), half);

    // Branch-scoped stats: each surviving client sees its own sink flow.
    auto stats_a = manager.Stats(*vid_a);
    auto stats_c = manager.Stats(*vid_c);
    ASSERT_TRUE(stats_a.ok() && stats_c.ok());
    ASSERT_EQ(stats_a->sink_stats.size(), 1u);
    EXPECT_EQ(stats_a->sink_stats[0].events_emitted,
              static_cast<uint64_t>(n));
    ASSERT_EQ(stats_c->sink_stats.size(), 1u);
    EXPECT_EQ(stats_c->sink_stats[0].events_emitted,
              static_cast<uint64_t>(n - half));
  }
}

// Cancelling the last member tears the host itself down, even while the
// source is still producing.
TEST(SharedQueryManager, LastBranchCancelTearsDownHost) {
  EngineOptions options;
  options.worker_threads = 1;
  NodeEngine engine(options);
  SharedQueryManager manager(&engine);
  auto sink_a = std::make_shared<CountingSink>(EventSchema());
  auto sink_b = std::make_shared<CountingSink>(EventSchema());
  // Effectively unbounded: 1M rounds of 30 rows keeps the host running
  // until it is cancelled.
  auto vid_a = manager.Submit(Query::From(NamedSource(30, 1000000))
                                  .Filter(Ge(Attribute("value"), Lit(0.0)))
                                  .To(sink_a));
  auto vid_b = manager.Submit(Query::From(NamedSource(30, 1000000))
                                  .Filter(Ge(Attribute("value"), Lit(0.0)))
                                  .To(sink_b));
  ASSERT_TRUE(vid_a.ok() && vid_b.ok());
  ASSERT_TRUE(manager.Start(*vid_a).ok());
  while (sink_a->events() == 0 || sink_b->events() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(manager.Hosts().size(), 1u);
  const int host = manager.Hosts()[0];

  // First cancel detaches only — the host keeps serving the survivor.
  ASSERT_TRUE(manager.Cancel(*vid_a).ok());
  const uint64_t at_detach = sink_b->events();
  while (sink_b->events() <= at_detach) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(manager.NumClientQueries(), 1u);

  // Last cancel tears the host down (blocks until the host completed).
  ASSERT_TRUE(manager.Cancel(*vid_b).ok());
  EXPECT_EQ(manager.NumClientQueries(), 0u);
  auto host_stats = engine.Stats(host);
  ASSERT_TRUE(host_stats.ok());
  EXPECT_GT(host_stats->events_ingested, 0u);
}

// Clients wait on their own threads: two of them wait on members of one
// running host while a third cancels every member, the last of which
// tears the host down — three threads waiting on one engine query at once.
// Every call returns OK. Run at 1 and 4 workers (the TSan job re-runs
// this suite at both).
TEST(SharedQueryManager, ConcurrentClientWaitsAndCancel) {
  for (const size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EngineOptions options;
    options.worker_threads = workers;
    NodeEngine engine(options);
    SharedQueryManager manager(&engine);
    std::vector<std::shared_ptr<CountingSink>> sinks;
    std::vector<int> vids;
    for (int k = 0; k < 3; ++k) {
      sinks.push_back(std::make_shared<CountingSink>(EventSchema()));
      // Effectively unbounded: runs until the last member is cancelled.
      auto vid = manager.Submit(Query::From(NamedSource(30, 1000000))
                                    .Filter(Ge(Attribute("value"), Lit(0.0)))
                                    .To(sinks.back()));
      ASSERT_TRUE(vid.ok()) << vid.status().ToString();
      vids.push_back(*vid);
    }
    ASSERT_EQ(manager.NumHostedPlans(), 1u);
    ASSERT_TRUE(manager.Start(vids[0]).ok());
    while (sinks[0]->events() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Status wait_a = Status::Internal("not run");
    Status wait_b = Status::Internal("not run");
    Status cancels = Status::Internal("not run");
    std::thread waiter_a([&] { wait_a = manager.Wait(vids[0]); });
    std::thread waiter_b([&] { wait_b = manager.Wait(vids[1]); });
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      cancels = manager.Cancel(vids[2]);
      if (cancels.ok()) cancels = manager.Cancel(vids[0]);
      if (cancels.ok()) cancels = manager.Cancel(vids[1]);  // the last
    });
    waiter_a.join();
    waiter_b.join();
    canceller.join();
    EXPECT_TRUE(wait_a.ok()) << wait_a.ToString();
    EXPECT_TRUE(wait_b.ok()) << wait_b.ToString();
    EXPECT_TRUE(cancels.ok()) << cancels.ToString();
    EXPECT_EQ(manager.NumClientQueries(), 0u);
  }
}

// One engine pool serves every query, so a query whose source waits holds
// one worker and nothing else: another query on the same engine runs and
// completes while the first is held at its gate.
TEST(EnginePool, GatedQueryDoesNotDelayAnotherQuerysWait) {
  EngineOptions options;
  options.worker_threads = 2;  // a pool of at least 2 workers on any host
  NodeEngine engine(options);
  auto gate = std::make_shared<GateState>();
  auto held_sink = std::make_shared<CollectSink>(EventSchema());
  auto free_sink = std::make_shared<CollectSink>(EventSchema());
  auto held = engine.Submit(
      Query::From(std::make_unique<GateSource>(MakeRows(8), gate))
          .To(held_sink));
  auto other = engine.Submit(Query::From(NamedSource(100)).To(free_sink));
  ASSERT_TRUE(held.ok() && other.ok());
  ASSERT_TRUE(engine.Start(*held).ok());
  ASSERT_TRUE(engine.Start(*other).ok());
  auto other_done =
      std::async(std::launch::async, [&] { return engine.Wait(*other); });
  const bool in_time = other_done.wait_for(std::chrono::seconds(30)) ==
                       std::future_status::ready;
  EXPECT_TRUE(in_time) << "a gated query delayed another query's Wait";
  EXPECT_EQ(held_sink->RowCount(), 0u);
  gate->Release(8);
  gate->Close();
  ASSERT_TRUE(other_done.get().ok());
  EXPECT_EQ(free_sink->RowCount(), 100u);
  ASSERT_TRUE(engine.Wait(*held).ok());
  EXPECT_EQ(held_sink->RowCount(), 8u);
}

// A running host only admits plans that extend its *entire* prefix; a
// diverging plan founds a new group instead of disturbing the host.
TEST(SharedQueryManager, RunningHostRejectsDivergentPrefixIntoNewGroup) {
  EngineOptions options;
  options.worker_threads = 1;
  NodeEngine engine(options);
  SharedQueryManager manager(&engine);
  auto sink_a = std::make_shared<CountingSink>(EventSchema());
  auto vid_a = manager.Submit(Query::From(NamedSource(20))
                                  .Filter(Ge(Attribute("value"), Lit(5.0)))
                                  .To(sink_a));
  ASSERT_TRUE(vid_a.ok());
  ASSERT_TRUE(manager.Start(*vid_a).ok());
  // Different filter constant: shares the source name but not the prefix.
  auto sink_b = std::make_shared<CountingSink>(EventSchema());
  auto vid_b = manager.Submit(Query::From(NamedSource(20))
                                  .Filter(Ge(Attribute("value"), Lit(9.0)))
                                  .To(sink_b));
  ASSERT_TRUE(vid_b.ok());
  EXPECT_EQ(manager.NumHostedPlans(), 2u);
  ASSERT_TRUE(manager.Start(*vid_b).ok());
  ASSERT_TRUE(manager.Wait(*vid_a).ok());
  ASSERT_TRUE(manager.Wait(*vid_b).ok());
  EXPECT_EQ(sink_a->events(), 15u);
  EXPECT_EQ(sink_b->events(), 11u);
}

// Branch-scoped metrics: a client's snapshot carries its own branch
// instruments and never another branch's.
TEST(SharedQueryManager, MetricsAreScopedToOwnBranch) {
  EngineOptions options;
  options.worker_threads = 1;
  NodeEngine engine(options);
  SharedQueryManager manager(&engine);
  auto sink_a = std::make_shared<CountingSink>(EventSchema());
  auto sink_b = std::make_shared<CountingSink>(EventSchema());
  auto vid_a = manager.Submit(Query::From(NamedSource(20))
                                  .Filter(Ge(Attribute("value"), Lit(0.0)))
                                  .To(sink_a));
  auto vid_b = manager.Submit(Query::From(NamedSource(20))
                                  .Filter(Ge(Attribute("value"), Lit(0.0)))
                                  .To(sink_b));
  ASSERT_TRUE(vid_a.ok() && vid_b.ok());
  ASSERT_TRUE(manager.Start(*vid_a).ok());
  ASSERT_TRUE(manager.Wait(*vid_a).ok());
  auto snapshot = manager.Metrics(*vid_a);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  bool saw_own_branch = false;
  for (const auto& [name, value] : snapshot->histograms) {
    EXPECT_TRUE(name.rfind("op.b2/", 0) != 0) << name;
    if (name.rfind("op.b1/", 0) == 0) saw_own_branch = true;
  }
  EXPECT_TRUE(saw_own_branch);
  // The other client's snapshot holds the mirror view.
  auto other = manager.Metrics(*vid_b);
  ASSERT_TRUE(other.ok());
  bool saw_other_branch = false;
  for (const auto& [name, value] : other->histograms) {
    EXPECT_TRUE(name.rfind("op.b1/", 0) != 0) << name;
    if (name.rfind("op.b2/", 0) == 0) saw_other_branch = true;
  }
  EXPECT_TRUE(saw_other_branch);
}

// --- Coordinator merge layer -------------------------------------------

// Acceptance (c): the merge unions per-stream outputs into one
// deterministic `(ts, stream_id, seq)` total order, releasing rows only
// once no open stream can still produce an earlier timestamp.
TEST(MergeNode, WatermarkReleaseAndDeterministicOrder) {
  MergeNode merge(EventSchema(), "ts");
  auto input0 = merge.InputFor(0);
  auto input1 = merge.InputFor(1);

  auto run = [&](std::shared_ptr<SinkOperator> sink, int offset) {
    std::vector<std::vector<Value>> rows;
    for (int i = 0; i < 5; ++i) {
      // Streams 0 and 1 share timestamps 0,10,20,... — ties must resolve
      // by stream id, deterministically.
      rows.push_back({Value(int64_t{offset}), Value(Seconds(10 * i)),
                      Value(static_cast<double>(i))});
    }
    EngineOptions options;
    options.worker_threads = 1;
    NodeEngine engine(options);
    auto src = std::make_unique<MemorySource>(EventSchema(), rows, 1, "ts");
    auto id = engine.Submit(Query::From(std::move(src)).To(std::move(sink)));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(engine.Start(*id).ok());
    ASSERT_TRUE(engine.Wait(*id).ok());
  };

  run(input0, 0);
  // Stream 1 is still open and silent: nothing may release yet.
  EXPECT_EQ(merge.RowCount(), 0u);
  EXPECT_EQ(merge.PendingCount(), 5u);

  run(input1, 1);
  // Both watermarks reached Seconds(40): every row is releasable.
  EXPECT_EQ(merge.RowCount(), 10u);
  merge.CloseAllInputs();
  EXPECT_EQ(merge.PendingCount(), 0u);

  const auto rows = merge.Rows();
  ASSERT_EQ(rows.size(), 10u);
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    const bool ordered =
        rows[i].ts < rows[i + 1].ts ||
        (rows[i].ts == rows[i + 1].ts &&
         rows[i].stream_id < rows[i + 1].stream_id);
    EXPECT_TRUE(ordered) << "row " << i;
  }
  // Ties resolve stream 0 before stream 1 at every shared timestamp.
  for (size_t i = 0; i < rows.size(); i += 2) {
    EXPECT_EQ(rows[i].stream_id, 0);
    EXPECT_EQ(rows[i + 1].stream_id, 1);
    EXPECT_EQ(rows[i].ts, rows[i + 1].ts);
  }
}

TEST(MergeNode, CloseReleasesHeldRows) {
  MergeNode merge(EventSchema(), "ts");
  auto input0 = merge.InputFor(0);
  merge.InputFor(1);  // open, never produces
  EngineOptions options;
  options.worker_threads = 1;
  NodeEngine engine(options);
  auto id = engine.Submit(
      Query::From(std::make_unique<MemorySource>(EventSchema(), MakeRows(4), 1,
                                                 "ts"))
          .To(input0));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.Start(*id).ok());
  ASSERT_TRUE(engine.Wait(*id).ok());
  EXPECT_EQ(merge.RowCount(), 0u);
  merge.CloseInput(1);
  // Stream 0 is still open but its own watermark covers its rows.
  EXPECT_EQ(merge.RowCount(), 4u);
}

// --- Fleet deployment ---------------------------------------------------

// Per-train queries share within a train (one host, one uplink) but never
// across trains (placements differ); the coordinator merge unions the
// per-train alert streams.
TEST(FleetDeployment, PerTrainSharingWithSharedUplinkAndMerge) {
  FleetOptions fleet_options;
  fleet_options.num_trains = 2;
  FleetDeployment fleet(fleet_options);
  EngineOptions base;
  base.worker_threads = 1;
  NodeEngine engine(fleet.MakeEngineOptions(base));
  SharedQueryManager manager(&engine);
  MergeNode merge(EventSchema(), "ts");

  const int n = 24;
  const int queries_per_train = 2;
  std::vector<int> vids;
  for (int train = 0; train < fleet.num_trains(); ++train) {
    for (int k = 0; k < queries_per_train; ++k) {
      auto sink = merge.InputFor(train * queries_per_train + k);
      auto vid = fleet.SubmitTrainQuery(
          &manager, train,
          Query::From(NamedSource(n))
              .Filter(Ge(Attribute("value"), Lit(2.0)))
              .To(std::move(sink)));
      ASSERT_TRUE(vid.ok()) << vid.status().ToString();
      vids.push_back(*vid);
    }
  }
  // Two trains x two queries: four clients on two hosts.
  EXPECT_EQ(manager.NumClientQueries(), 4u);
  EXPECT_EQ(manager.NumHostedPlans(), 2u);

  for (const int vid : vids) ASSERT_TRUE(manager.Start(vid).ok());
  for (const int vid : vids) ASSERT_TRUE(manager.Wait(vid).ok());
  merge.CloseAllInputs();

  // Every query's alert stream reached the coordinator merge.
  EXPECT_EQ(merge.RowCount(),
            static_cast<size_t>(4 * (n - 2)));

  // The shared uplink shipped the stream once per train: both clients of
  // one train observe the same measured deployment.
  auto report_a = manager.Deployment(vids[0]);
  auto report_b = manager.Deployment(vids[1]);
  ASSERT_TRUE(report_a.ok() && report_b.ok());
  EXPECT_GT(report_a->wire_bytes, 0u);
  EXPECT_GT(report_a->uplink_bytes, 0u);
  EXPECT_EQ(report_a->wire_bytes, report_b->wire_bytes);
  EXPECT_EQ(report_a->frames, report_b->frames);
}


// --- Branch dispatch parity --------------------------------------------
//
// Static fan-out branches and attached serving branches run on one
// dispatch-target mechanism. The same prefix and suffixes built both ways
// — a Split(2) plan via Submit, and SubmitShared plus two AttachBranch
// calls — must give identical rows per leaf and identical metric names
// once the branch paths are mapped onto each other (0 <-> b1, 1 <-> b2).

struct ParityRun {
  std::vector<std::vector<Value>> filtered;
  std::vector<std::vector<Value>> windows;
  std::set<std::string> metric_names;
};

// A static-branch metric name under its attached-branch path.
std::string AsAttachedName(const std::string& name) {
  static const std::pair<std::string, std::string> kPaths[] = {
      {"op.0/", "op.b1/"},
      {"op.1/", "op.b2/"},
      {"worker.strand.0.", "worker.strand.b1."},
      {"worker.strand.1.", "worker.strand.b2."}};
  for (const auto& [from, to] : kPaths) {
    if (name.rfind(from, 0) == 0) return to + name.substr(from.size());
  }
  return name;
}

void RunBranchParity(bool attached, size_t workers, ParityRun* out) {
  constexpr int kRows = 400;
  EngineOptions options;
  options.worker_threads = workers;
  options.tuples_per_buffer = 16;
  // SubmitShared compiles verbatim; the static plan must too for the
  // operator chains (and so the metric names) to line up.
  options.optimizer.enable = false;
  NodeEngine engine(options);
  auto filtered_sink = std::make_shared<CollectSink>(EventSchema());
  auto window_sink = std::make_shared<CollectSink>(Schema::Build()
                                                       .AddInt64("key")
                                                       .AddTimestamp("window_start")
                                                       .AddTimestamp("window_end")
                                                       .AddInt64("n")
                                                       .Finish());
  const auto prefix = [] { return Ge(Attribute("value"), Lit(2.0)); };
  const auto filter_suffix = [] { return Lt(Attribute("value"), Lit(300.0)); };
  int id = 0;
  if (!attached) {
    SplitQuery split =
        Query::From(NamedSource(kRows)).Filter(prefix()).Split(2);
    std::move(split[0]).Filter(filter_suffix()).To(filtered_sink);
    std::move(split[1])
        .KeyBy("key")
        .TumblingWindow(Seconds(10), "ts")
        .Aggregate({AggregateSpec::Count("n")})
        .To(window_sink);
    auto plan = std::move(split).Build();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto submitted = engine.Submit(std::move(*plan));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    id = *submitted;
  } else {
    // Each leaf as a linear plan; op 0 is the shared prefix filter.
    auto filtered = Query::From(NamedSource(kRows))
                        .Filter(prefix())
                        .Filter(filter_suffix())
                        .To(filtered_sink)
                        .Build();
    auto windowed = Query::From(NamedSource(1))
                        .Filter(prefix())
                        .KeyBy("key")
                        .TumblingWindow(Seconds(10), "ts")
                        .Aggregate({AggregateSpec::Count("n")})
                        .To(window_sink)
                        .Build();
    ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
    ASSERT_TRUE(windowed.ok()) << windowed.status().ToString();
    const auto suffix = [](LogicalPlan* plan) {
      std::vector<LogicalOperatorPtr>& ops = plan->mutable_ops();
      return std::vector<LogicalOperatorPtr>(
          std::make_move_iterator(ops.begin() + 1),
          std::make_move_iterator(ops.end()));
    };
    LogicalPlan host_plan;
    host_plan.SetSource(filtered->TakeSource());
    host_plan.Append(std::move(filtered->mutable_ops()[0]));
    auto host = engine.SubmitShared(std::move(host_plan));
    ASSERT_TRUE(host.ok()) << host.status().ToString();
    id = *host;
    auto b1 = engine.AttachBranch(id, suffix(&*filtered));
    auto b2 = engine.AttachBranch(id, suffix(&*windowed));
    ASSERT_TRUE(b1.ok()) << b1.status().ToString();
    ASSERT_TRUE(b2.ok()) << b2.status().ToString();
    ASSERT_EQ(*b1, 1);
    ASSERT_EQ(*b2, 2);
  }
  ASSERT_TRUE(engine.RunToCompletion(id).ok());
  out->filtered = Sorted(filtered_sink->Rows());
  out->windows = Sorted(window_sink->Rows());
  auto snapshot = engine.Metrics(id);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const auto add = [&](const std::string& name) {
    out->metric_names.insert(attached ? name : AsAttachedName(name));
  };
  for (const auto& entry : snapshot->counters) add(entry.first);
  for (const auto& entry : snapshot->gauges) add(entry.first);
  for (const auto& entry : snapshot->histograms) add(entry.first);
}

TEST(BranchDispatchParity, StaticFanOutMatchesAttachedBranches) {
  for (const size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ParityRun fanout;
    ParityRun shared;
    ASSERT_NO_FATAL_FAILURE(RunBranchParity(false, workers, &fanout));
    ASSERT_NO_FATAL_FAILURE(RunBranchParity(true, workers, &shared));
    EXPECT_FALSE(fanout.filtered.empty());
    EXPECT_FALSE(fanout.windows.empty());
    EXPECT_EQ(fanout.filtered, shared.filtered);
    EXPECT_EQ(fanout.windows, shared.windows);
    EXPECT_EQ(fanout.metric_names, shared.metric_names);
    EXPECT_EQ(shared.metric_names.count("worker.strand.b1.queue_depth"), 1u);
    EXPECT_EQ(shared.metric_names.count("worker.strand.b2.task_wait_micros"),
              1u);
  }
}

}  // namespace
}  // namespace nebulameos::nebula::serving
