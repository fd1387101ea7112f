// Tier-2 tests of the compiled-kernel execution layer: expression kernels
// matching the interpreter bit-for-bit, CompilePlan fusing Filter→Map→
// Project runs into one BatchKernelOperator, zero-copy selection-vector
// flow (fully-selective passthrough, shared-buffer fan-out, pool
// accounting), interpreter fallback for non-compilable expressions, and
// the placed/unplaced × compiled/interpreted equivalence regression on
// the shared-ingest fan-out.

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/random.hpp"
#include "nebula/engine.hpp"
#include "nebula/exec/kernels.hpp"
#include "queries/queries.hpp"

namespace nebulameos::nebula {
namespace {

Schema EventSchema() {
  return Schema::Build()
      .AddInt64("key")
      .AddTimestamp("ts")
      .AddDouble("value")
      .AddBool("flag")
      .AddText16("label")
      .Finish();
}

std::shared_ptr<TupleBuffer> MakeBuffer(int n) {
  auto buf = std::make_shared<TupleBuffer>(EventSchema(), n);
  for (int i = 0; i < n; ++i) {
    RecordWriter w = buf->Append();
    w.SetInt64(0, i - n / 2);  // negatives included
    w.SetInt64(1, Seconds(i));
    w.SetDouble(2, (i % 7) * 1.5 - 3.0);
    w.SetBool(3, i % 3 == 0);
    w.SetText(4, i % 2 == 0 ? "even" : "odd");
  }
  return buf;
}

std::vector<std::vector<Value>> MakeRows(int n) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(int64_t{i % 5}), Value(Seconds(i)),
                    Value(static_cast<double>(i)), Value(i % 2 == 0),
                    Value(std::string(i % 2 == 0 ? "even" : "odd"))});
  }
  return rows;
}

SourcePtr MakeSource(int n) {
  return std::make_unique<MemorySource>(EventSchema(), MakeRows(n), 1, "ts");
}

// --- Kernel vs interpreter equivalence --------------------------------------

TEST(CompiledExpr, KernelsMatchInterpreterExactly) {
  RegisterBuiltinFunctions();
  const Schema schema = EventSchema();
  auto buf = MakeBuffer(64);
  const std::vector<ExprPtr> exprs = {
      Add(Attribute("key"), Lit(3)),                          // int64 + int64
      Arith(ArithOp::kMod, Attribute("key"), Lit(3)),         // int mod
      Arith(ArithOp::kMod, Attribute("key"), Lit(0)),         // mod by zero
      Div(Attribute("key"), Lit(2)),                          // int div → double
      Div(Attribute("value"), Lit(0.0)),                      // div by zero
      Mul(Sub(Attribute("value"), Lit(1.5)), Attribute("value")),
      Add(Attribute("key"), Attribute("value")),              // int widens
      Lt(Attribute("value"), Lit(2.0)),
      Ge(Attribute("key"), Lit(0)),
      Eq(Attribute("flag"), Lit(true)),                       // bool compare
      And(Gt(Attribute("value"), Lit(-1.0)), Not(Attribute("flag"))),
      Or(Attribute("flag"), Ne(Attribute("key"), Lit(0))),
      Fn("clamp", {Attribute("value"), Lit(-1.0), Lit(2.5)}),
      Fn("abs", {Attribute("key")}),
  };
  for (const ExprPtr& expr : exprs) {
    ASSERT_TRUE(expr->Bind(schema).ok()) << expr->ToString();
    exec::KernelPtr kernel = expr->CompileKernel(schema);
    ASSERT_NE(kernel, nullptr) << expr->ToString();
    const exec::RowSpan span = exec::SpanOf(*buf, nullptr);
    std::vector<double> out(buf->size());
    kernel->EvalAsDouble(span, out.data());
    for (size_t i = 0; i < buf->size(); ++i) {
      const double interpreted = ValueAsDouble(expr->Eval(buf->At(i)));
      EXPECT_EQ(out[i], interpreted)
          << expr->ToString() << " at row " << i;
    }
  }
}

TEST(CompiledExpr, KernelsHonorSelectionVectors) {
  const Schema schema = EventSchema();
  auto buf = MakeBuffer(32);
  ExprPtr expr = Mul(Attribute("value"), Lit(2.0));
  ASSERT_TRUE(expr->Bind(schema).ok());
  exec::KernelPtr kernel = expr->CompileKernel(schema);
  ASSERT_NE(kernel, nullptr);
  const exec::SelectionVector sel = {1, 5, 9, 30};
  const exec::RowSpan span = exec::SpanOf(*buf, &sel);
  std::vector<double> out(sel.size());
  kernel->EvalAsDouble(span, out.data());
  for (size_t i = 0; i < sel.size(); ++i) {
    EXPECT_EQ(out[i], ValueAsDouble(expr->Eval(buf->At(sel[i]))));
  }
}

TEST(CompiledExpr, TextExpressionsRefuseToCompile) {
  const Schema schema = EventSchema();
  ExprPtr text_eq = Eq(Attribute("label"), Lit(std::string("even")));
  ASSERT_TRUE(text_eq->Bind(schema).ok());
  EXPECT_EQ(text_eq->CompileKernel(schema), nullptr);
  // A numeric comparison over a text field widens through the interpreter
  // only: the field leaf refuses.
  ExprPtr mixed = Gt(Attribute("label"), Lit(1.0));
  ASSERT_TRUE(mixed->Bind(schema).ok());
  EXPECT_EQ(mixed->CompileKernel(schema), nullptr);
  // And a lambda-registered function without a scalar hook refuses.
  ASSERT_TRUE(RegisterLambdaFunction(
                  "test_boxed_identity", 1, DataType::kDouble,
                  [](const std::vector<Value>& v) { return v[0]; })
                  .ok() ||
              ExpressionRegistry::Global().Contains("test_boxed_identity"));
  ExprPtr boxed = Fn("test_boxed_identity", {Attribute("value")});
  ASSERT_TRUE(boxed->Bind(schema).ok());
  EXPECT_EQ(boxed->CompileKernel(schema), nullptr);
}

// --- Batch-entry parity ------------------------------------------------------

Schema ProbeSchema() {
  return Schema::Build()
      .AddDouble("lon")
      .AddDouble("lat")
      .AddTimestamp("ts")
      .AddInt64("cond")
      .AddDouble("intensity")
      .AddDouble("value")
      .Finish();
}

// Rows spread over and around every registered zone's box, with weather
// condition codes 0..5 (5 names no condition) and signed values.
std::shared_ptr<TupleBuffer> MakeProbeBuffer(
    const integration::GeofenceRegistry& zones, int n) {
  auto buf = std::make_shared<TupleBuffer>(ProbeSchema(), n);
  Rng rng(17);
  for (int i = 0; i < n; ++i) {
    const meos::GeoBox box =
        zones.zones()[static_cast<size_t>(i) % zones.NumZones()].BoundingBox();
    const double mx = 0.2 * (box.xmax - box.xmin);
    const double my = 0.2 * (box.ymax - box.ymin);
    RecordWriter w = buf->Append();
    w.SetDouble(0, rng.Uniform(box.xmin - mx, box.xmax + mx));
    w.SetDouble(1, rng.Uniform(box.ymin - my, box.ymax + my));
    w.SetInt64(2, Seconds(i));
    w.SetInt64(3, i % 6);
    w.SetDouble(4, rng.Uniform());
    w.SetDouble(5, rng.Uniform(-4.0, 4.0));
  }
  return buf;
}

// One registered function called with its first argument supplied by the
// caller — a field for the per-row columns, a literal for the constant
// variant — and the rest fixed.
struct ParityCase {
  std::string first_field;
  ExprPtr first_constant;
  std::function<ExprPtr(ExprPtr first)> make;
};

std::vector<ParityCase> ParityCases() {
  auto lon_lat = [](std::string name, std::vector<ExprPtr> rest) {
    return [name, rest](ExprPtr lon) {
      std::vector<ExprPtr> args = {std::move(lon), Attribute("lat")};
      args.insert(args.end(), rest.begin(), rest.end());
      return Fn(name, std::move(args));
    };
  };
  auto text = [](const char* v) { return Lit(std::string(v)); };
  std::vector<ParityCase> cases = {
      {"lon", Lit(4.35),
       lon_lat("edwithin", {text("station:Brussels-Midi"), Lit(20000.0)})},
      {"lon", Lit(4.35),
       lon_lat("edwithin", {text("workshop:Schaarbeek:gate"), Lit(9000.0)})},
      {"lon", Lit(4.35),
       [](ExprPtr lon) {
         return Fn("tpoint_at_stbox",
                   {std::move(lon), Attribute("lat"), Attribute("ts"),
                    Lit(3.0), Lit(50.0), Lit(5.0), Lit(51.0), Lit(int64_t{0}),
                    Lit(Seconds(200))});
       }},
      {"lon", Lit(4.35), lon_lat("in_zone", {text("weather:cell-1")})},
      {"lon", Lit(4.35), lon_lat("zone_speed_limit", {Lit(120.0)})},
      {"lon", Lit(4.35), lon_lat("nearest_poi_distance", {text("workshop")})},
      {"lon", Lit(4.35), lon_lat("nearest_poi_id", {text("workshop")})},
      {"lon", Lit(4.35), lon_lat("haversine_m", {Lit(4.35), Lit(50.85)})},
      {"lon", Lit(4.35), lon_lat("weather_cell", {})},
      {"cond", Lit(int64_t{2}),
       [](ExprPtr cond) {
         return Fn("weather_speed_limit",
                   {std::move(cond), Attribute("intensity"), Lit(120.0)});
       }},
      {"value", Lit(-2.5),
       [](ExprPtr v) { return Fn("abs", {std::move(v)}); }},
      {"value", Lit(2.25),
       [](ExprPtr v) { return Fn("sqrt", {std::move(v)}); }},
      {"value", Lit(0.5),
       [](ExprPtr v) {
         return Fn("least", {std::move(v), Attribute("intensity")});
       }},
      {"value", Lit(0.5),
       [](ExprPtr v) {
         return Fn("greatest", {std::move(v), Attribute("intensity")});
       }},
      {"value", Lit(3.0),
       [](ExprPtr v) {
         return Fn("clamp", {std::move(v), Lit(-1.0), Attribute("intensity")});
       }},
  };
  for (const char* kind : {"", "maintenance", "station", "workshop",
                           "noise_sensitive", "high_risk", "weather"}) {
    cases.push_back(
        {"lon", Lit(4.35), lon_lat("in_zone_kind", {text(kind)})});
    cases.push_back({"lon", Lit(4.35), lon_lat("zone_id", {text(kind)})});
  }
  return cases;
}

// Compiles `expr` once and compares its batch result over each selection
// in turn (every row when null) with the interpreter, row by row. One
// kernel runs every batch, so its scratch columns shrink and grow.
void ExpectBatchMatchesInterpreter(
    const ExprPtr& expr, const TupleBuffer& buf,
    const std::vector<const exec::SelectionVector*>& sels) {
  ASSERT_TRUE(expr->Bind(buf.schema()).ok()) << expr->ToString();
  exec::KernelPtr kernel = expr->CompileKernel(buf.schema());
  ASSERT_NE(kernel, nullptr) << expr->ToString();
  for (const exec::SelectionVector* sel : sels) {
    const exec::RowSpan span = exec::SpanOf(buf, sel);
    std::vector<double> out(span.count);
    kernel->EvalAsDouble(span, out.data());
    for (size_t i = 0; i < span.count; ++i) {
      const size_t row = sel != nullptr ? (*sel)[i] : i;
      EXPECT_EQ(out[i], ValueAsDouble(expr->Eval(buf.At(row))))
          << expr->ToString() << " at row " << row;
    }
  }
}

TEST(CompiledExpr, EveryScalarFunctionBatchMatchesTheInterpreter) {
  auto env = queries::DemoEnvironment::Create();
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  auto buf = MakeProbeBuffer(*(*env)->geofences(), 700);
  exec::SelectionVector partial;
  for (uint32_t i = 1; i < buf->size(); i += 3) partial.push_back(i);

  const std::vector<ParityCase> cases = ParityCases();
  std::set<std::string> covered;
  for (const ParityCase& c : cases) {
    const ExprPtr columns = c.make(Attribute(c.first_field));
    covered.insert(static_cast<const FunctionExpression&>(*columns).name());
    // A partial batch, then every row, then a partial batch again.
    const std::vector<const exec::SelectionVector*> sels = {&partial, nullptr,
                                                            &partial};
    ExpectBatchMatchesInterpreter(columns, *buf, sels);
    ExpectBatchMatchesInterpreter(c.make(c.first_constant), *buf, sels);
  }
  // Every registered function outside this binary's own test functions is
  // in the table, so a newly registered one cannot skip the parity check.
  for (const std::string& name :
       ExpressionRegistry::Global().RegisteredNames()) {
    if (name.rfind("test", 0) == 0) continue;
    EXPECT_EQ(covered.count(name), 1u) << name << " has no parity case";
  }
}

// --- Fusion shape -----------------------------------------------------------

Result<LogicalPlan> MakeChainPlan(int n,
                                  std::shared_ptr<CollectSink>* sink) {
  *sink = std::make_shared<CollectSink>(Schema::Build()
                                            .AddInt64("key")
                                            .AddDouble("scaled")
                                            .Finish());
  return Query::From(MakeSource(n))
      .Filter(Ge(Attribute("value"), Lit(2.0)))
      .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
      .Project({"key", "scaled"})
      .To(*sink)
      .Build();
}

TEST(CompilePlanFusion, FilterMapProjectFuseIntoOneBatchPass) {
  std::shared_ptr<CollectSink> sink;
  auto plan = MakeChainPlan(10, &sink);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  CompileOptions compiled;
  auto fused = CompilePlan(plan->source()->schema(), *plan, nullptr, compiled);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(fused->operators.size(), 1u);
  EXPECT_EQ(fused->operators[0]->name(), "BatchKernels(Filter+Map+Project)");
  // Stats expand per fused stage under the original operator names, in
  // chain order — the contract the placement pass depends on.
  std::vector<std::pair<std::string, OperatorStats>> stats;
  fused->operators[0]->AppendStats("0/", &stats);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].first, "0/Filter");
  EXPECT_EQ(stats[1].first, "0/Map");
  EXPECT_EQ(stats[2].first, "0/Project");

  CompileOptions interpreted;
  interpreted.compiled_kernels = false;
  auto unfused =
      CompilePlan(plan->source()->schema(), *plan, nullptr, interpreted);
  ASSERT_TRUE(unfused.ok());
  ASSERT_EQ(unfused->operators.size(), 3u);
  // Both lowerings agree on the leaf schema.
  EXPECT_TRUE(fused->output_schema == unfused->output_schema);
}

TEST(CompilePlanFusion, NonCompilableNodeBreaksTheRunAndFallsBack) {
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto plan = Query::From(MakeSource(10))
                  .Filter(Ge(Attribute("value"), Lit(1.0)))
                  .Filter(Eq(Attribute("label"), Lit(std::string("even"))))
                  .Filter(Ge(Attribute("value"), Lit(2.0)))
                  .To(sink)
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pipe = CompilePlan(plan->source()->schema(), *plan);
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();
  // compiled run | interpreted text filter | compiled run.
  ASSERT_EQ(pipe->operators.size(), 3u);
  EXPECT_EQ(pipe->operators[0]->name(), "BatchKernels(Filter)");
  EXPECT_EQ(pipe->operators[1]->name(), "Filter");
  EXPECT_EQ(pipe->operators[2]->name(), "BatchKernels(Filter)");
}

// --- Zero-copy batch flow ---------------------------------------------------

TEST(BatchKernels, FullySelectiveFilterPassesTheInputBufferThrough) {
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto plan = Query::From(MakeSource(16))
                  .Filter(Ge(Attribute("value"), Lit(-100.0)))  // all pass
                  .To(sink)
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pipe = CompilePlan(plan->source()->schema(), *plan);
  ASSERT_TRUE(pipe.ok());
  ASSERT_EQ(pipe->operators.size(), 1u);
  ExecutionContext ctx;
  ASSERT_TRUE(pipe->operators[0]->Open(&ctx).ok());
  auto input = MakeBuffer(16);
  input->Seal();
  exec::Batch captured;
  auto capture = [&captured](const exec::Batch& out) { captured = out; };
  ASSERT_TRUE(
      pipe->operators[0]->ProcessBatch(exec::Batch(input), capture).ok());
  // Same buffer object, full selection — zero copies, zero pool draws.
  EXPECT_EQ(captured.data.get(), input.get());
  EXPECT_TRUE(captured.IsFull());
  EXPECT_EQ(ctx.TotalBuffersAcquired(), 0u);
}

TEST(BatchKernels, PartialFilterSharesTheBufferWithASelection) {
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto plan = Query::From(MakeSource(16))
                  .Filter(Ge(Attribute("value"), Lit(1.5)))
                  .To(sink)
                  .Build();
  ASSERT_TRUE(plan.ok());
  auto pipe = CompilePlan(plan->source()->schema(), *plan);
  ASSERT_TRUE(pipe.ok());
  ExecutionContext ctx;
  ASSERT_TRUE(pipe->operators[0]->Open(&ctx).ok());
  auto input = MakeBuffer(16);
  input->Seal();
  exec::Batch captured;
  auto capture = [&captured](const exec::Batch& out) { captured = out; };
  ASSERT_TRUE(
      pipe->operators[0]->ProcessBatch(exec::Batch(input), capture).ok());
  ASSERT_NE(captured.data, nullptr);
  EXPECT_EQ(captured.data.get(), input.get());  // shared, not copied
  ASSERT_FALSE(captured.IsFull());
  // The selection names exactly the surviving rows.
  for (size_t i = 0; i < captured.NumRows(); ++i) {
    EXPECT_GE(captured.data->At(captured.RowAt(i)).GetDouble(2), 1.5);
  }
  size_t expected = 0;
  for (size_t i = 0; i < input->size(); ++i) {
    if (input->At(i).GetDouble(2) >= 1.5) ++expected;
  }
  EXPECT_EQ(captured.NumRows(), expected);
  EXPECT_EQ(ctx.TotalBuffersAcquired(), 0u);
}

TEST(EngineZeroCopy, FanOutBranchCountDoesNotMultiplyBufferDraws) {
  auto run = [](size_t branches) {
    SplitQuery split = Query::From(MakeSource(5000)).Split(branches);
    std::vector<std::shared_ptr<CountingSink>> sinks;
    for (size_t b = 0; b < branches; ++b) {
      sinks.push_back(std::make_shared<CountingSink>(EventSchema()));
      std::move(split[b])
          .Filter(Ge(Attribute("value"), Lit(10.0)))
          .To(sinks.back());
    }
    auto plan = std::move(split).Build();
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    NodeEngine engine;
    auto id = engine.Submit(std::move(*plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(engine.RunToCompletion(*id).ok());
    auto stats = engine.Stats(*id);
    EXPECT_TRUE(stats.ok());
    EXPECT_EQ(stats->events_ingested, 5000u);
    return stats->buffers_acquired;
  };
  const uint64_t two = run(2);
  const uint64_t four = run(4);
  // Branch hand-offs share the sealed batch; only the source draws
  // buffers, so doubling the branches must not change the draw count.
  EXPECT_EQ(two, four);
  EXPECT_GT(two, 0u);
  // And the total is the source's own buffers, not branches × buffers.
  EXPECT_LE(two, 5000u / 1024 + 2);
}

// --- Result equivalence through the engine ----------------------------------

using RowMatrix = std::vector<std::vector<Value>>;

void ExpectRowsEqual(const RowMatrix& a, const RowMatrix& b,
                     const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << what << " row " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_TRUE(a[i][j] == b[i][j]) << what << " row " << i << " col " << j;
    }
  }
}

TEST(EngineCompiled, CompiledAndInterpretedRowsAgree) {
  auto run = [](bool compiled) {
    EngineOptions options;
    options.compiled_kernels = compiled;
    NodeEngine engine(options);
    std::shared_ptr<CollectSink> sink;
    auto plan = MakeChainPlan(200, &sink);
    EXPECT_TRUE(plan.ok());
    auto id = engine.Submit(std::move(*plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(engine.RunToCompletion(*id).ok());
    return sink->Rows();
  };
  ExpectRowsEqual(run(true), run(false), "chain");
}

TEST(EngineCompiled, FallbackExpressionsKeepResultsIdentical) {
  // Text filter (interpreted) sandwiched between compilable stages.
  auto run = [](bool compiled) {
    EngineOptions options;
    options.compiled_kernels = compiled;
    NodeEngine engine(options);
    auto sink = std::make_shared<CollectSink>(EventSchema());
    auto plan = Query::From(MakeSource(100))
                    .Filter(Ge(Attribute("value"), Lit(5.0)))
                    .Filter(Eq(Attribute("label"), Lit(std::string("even"))))
                    .Filter(Arith(ArithOp::kMod, Attribute("key"), Lit(2)))
                    .To(sink)
                    .Build();
    EXPECT_TRUE(plan.ok());
    auto id = engine.Submit(std::move(*plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(engine.RunToCompletion(*id).ok());
    return sink->Rows();
  };
  const RowMatrix compiled = run(true);
  ExpectRowsEqual(compiled, run(false), "fallback");
  ASSERT_FALSE(compiled.empty());
}

TEST(EngineCompiled, EmptyFilterOutputStillFlushesWindows) {
  // A filter that drops everything feeds a window: no survivors, no
  // watermark-only buffers, and the run still terminates cleanly with
  // zero panes.
  auto run = [](bool compiled) {
    EngineOptions options;
    options.compiled_kernels = compiled;
    NodeEngine engine(options);
    auto sink = std::make_shared<CollectSink>(Schema::Build()
                                                  .AddInt64("key")
                                                  .AddTimestamp("window_start")
                                                  .AddTimestamp("window_end")
                                                  .AddInt64("n")
                                                  .Finish());
    auto plan = Query::From(MakeSource(100))
                    .Filter(Lt(Attribute("value"), Lit(-1.0)))  // drops all
                    .KeyBy("key")
                    .TumblingWindow(Seconds(10), "ts")
                    .Aggregate({AggregateSpec::Count("n")})
                    .To(sink)
                    .Build();
    EXPECT_TRUE(plan.ok());
    auto id = engine.Submit(std::move(*plan));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(engine.RunToCompletion(*id).ok());
    return sink->RowCount();
  };
  EXPECT_EQ(run(true), 0u);
  EXPECT_EQ(run(false), 0u);
}

// --- Shared-ingest regression: placed/unplaced × compiled/interpreted -------

struct SinkTotals {
  std::vector<uint64_t> events;
  std::vector<uint64_t> bytes;
};

Result<SinkTotals> RunSharedIngest(const queries::DemoEnvironment& env,
                                   bool compiled, bool placed,
                                   const Topology* topo) {
  queries::QueryOptions qopts;
  qopts.max_events = 4000;
  qopts.sink = queries::SinkMode::kCounting;
  NM_ASSIGN_OR_RETURN(queries::BuiltFanOutQuery built,
                      queries::BuildSharedIngestFanOut(env, qopts));
  if (placed) {
    AnnotateEdgePushdownPlacement(&built.plan, /*edge_node=*/2,
                                  /*cloud_node=*/1);
  }
  EngineOptions options;
  options.optimizer.enable = false;  // identical plan shape in all configs
  options.compiled_kernels = compiled;
  options.topology = placed ? topo : nullptr;
  NodeEngine engine(options);
  NM_ASSIGN_OR_RETURN(const int id, engine.Submit(std::move(built.plan)));
  NM_RETURN_NOT_OK(engine.RunToCompletion(id));
  NM_ASSIGN_OR_RETURN(QueryStats stats, engine.Stats(id));
  SinkTotals totals;
  for (const SinkStats& sink : stats.sink_stats) {
    totals.events.push_back(sink.events_emitted);
    totals.bytes.push_back(sink.bytes_emitted);
  }
  return totals;
}

TEST(SharedIngestRegression, PlacedAndCompiledVariantsEmitIdentically) {
  auto env = queries::DemoEnvironment::Create();
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  auto baseline = RunSharedIngest(**env, /*compiled=*/false,
                                  /*placed=*/false, &topo);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->events.size(), 2u);  // alerts + archive
  for (const bool compiled : {false, true}) {
    for (const bool placed : {false, true}) {
      if (!compiled && !placed) continue;
      auto run = RunSharedIngest(**env, compiled, placed, &topo);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->events, baseline->events)
          << "compiled=" << compiled << " placed=" << placed;
      EXPECT_EQ(run->bytes, baseline->bytes)
          << "compiled=" << compiled << " placed=" << placed;
    }
  }
}

// --- Common-subexpression elimination in fused runs --------------------

TEST(KernelCse, PlanCseSharesRepeatedSubtreesWithoutChangingEval) {
  std::vector<ExprPtr> roots;
  roots.push_back(Ge(Mul(Attribute("value"), Lit(2.0)), Lit(4.0)));
  roots.push_back(Mul(Attribute("value"), Lit(2.0)));
  CsePlan cse = PlanCse(std::move(roots));
  EXPECT_EQ(cse.num_shared, 1u);
  ASSERT_NE(cse.cache, nullptr);
  ASSERT_EQ(cse.roots.size(), 2u);
  // Interpreted Eval of the wrapped trees, one cache epoch per record, is
  // bit-identical to the original expressions on every record.
  const Schema schema = EventSchema();
  ExprPtr pred = Ge(Mul(Attribute("value"), Lit(2.0)), Lit(4.0));
  ExprPtr scale = Mul(Attribute("value"), Lit(2.0));
  for (const ExprPtr& e : {cse.roots[0], cse.roots[1], pred, scale}) {
    ASSERT_TRUE(e->Bind(schema).ok());
  }
  auto buf = MakeBuffer(16);
  for (size_t i = 0; i < buf->size(); ++i) {
    const RecordView rec = buf->At(i);
    cse.cache->Invalidate();
    EXPECT_EQ(cse.roots[0]->Eval(rec), pred->Eval(rec));
    EXPECT_EQ(cse.roots[1]->Eval(rec), scale->Eval(rec));
  }
}

TEST(KernelCse, TrivialOrUnsharedSubtreesAreNotCached) {
  // Bare field references repeat but never cache (a wrapper would cost
  // more than the read); distinct subtrees share nothing.
  std::vector<ExprPtr> roots;
  roots.push_back(Ge(Attribute("value"), Lit(1.0)));
  roots.push_back(Mul(Attribute("value"), Lit(3.0)));
  CsePlan cse = PlanCse(std::move(roots));
  EXPECT_EQ(cse.num_shared, 0u);
  EXPECT_EQ(cse.cache, nullptr);
}

TEST(KernelCse, FusedRunCarriesTheSharedCache) {
  const Schema out_schema = Schema::Build()
                                .AddInt64("key")
                                .AddTimestamp("ts")
                                .AddDouble("value")
                                .AddBool("flag")
                                .AddText16("label")
                                .AddDouble("scaled")
                                .Finish();
  auto sink = std::make_shared<CollectSink>(out_schema);
  auto plan = Query::From(MakeSource(10))
                  .Filter(Ge(Mul(Attribute("value"), Lit(2.0)), Lit(4.0)))
                  .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                  .To(sink)
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto pipe = CompilePlan(plan->source()->schema(), *plan);
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();
  ASSERT_EQ(pipe->operators.size(), 1u);
  auto* fused = dynamic_cast<exec::BatchKernelOperator*>(
      pipe->operators[0].get());
  ASSERT_NE(fused, nullptr);
  EXPECT_NE(fused->cse_cache(), nullptr);

  // A run with nothing repeated attaches no cache.
  auto sink2 = std::make_shared<CountingSink>(EventSchema());
  auto plan2 = Query::From(MakeSource(10))
                   .Filter(Ge(Attribute("value"), Lit(1.0)))
                   .To(sink2)
                   .Build();
  ASSERT_TRUE(plan2.ok());
  auto pipe2 = CompilePlan(plan2->source()->schema(), *plan2);
  ASSERT_TRUE(pipe2.ok());
  ASSERT_EQ(pipe2->operators.size(), 1u);
  auto* unshared = dynamic_cast<exec::BatchKernelOperator*>(
      pipe2->operators[0].get());
  ASSERT_NE(unshared, nullptr);
  EXPECT_EQ(unshared->cse_cache(), nullptr);
}

// A registered scalar function that counts its evaluations — the probe
// proving the shared subtree runs once per row, not once per stage.
// `ProbeCalls` counts every evaluation, `InterpretedProbeCalls` only the
// interpreted (`Eval`) ones.
std::atomic<uint64_t>& ProbeCalls() {
  static std::atomic<uint64_t> calls{0};
  return calls;
}

std::atomic<uint64_t>& InterpretedProbeCalls() {
  static std::atomic<uint64_t> calls{0};
  return calls;
}

class CseProbeFn final : public FunctionExpression {
 public:
  explicit CseProbeFn(std::vector<ExprPtr> args)
      : FunctionExpression("test.cse_probe", std::move(args),
                           DataType::kDouble) {}

 protected:
  Value EvalFn(const std::vector<Value>& args) const override {
    ProbeCalls().fetch_add(1);
    InterpretedProbeCalls().fetch_add(1);
    return Value(std::get<double>(args[0]) * 3.0);
  }
  bool ScalarEvaluable() const override { return true; }
  double EvalScalar(const double* args) const override {
    ProbeCalls().fetch_add(1);
    return args[0] * 3.0;
  }
};

bool RegisterCseProbe() {
  static const bool registered = [] {
    return ExpressionRegistry::Global()
        .Register("test.cse_probe",
                  [](std::vector<ExprPtr> args) -> Result<ExprPtr> {
                    return ExprPtr(
                        std::make_shared<CseProbeFn>(std::move(args)));
                  })
        .ok();
  }();
  return registered;
}

ExprPtr Probe() { return Fn("test.cse_probe", {Attribute("value")}); }

// Runs `plan` on one worker and returns its sink's rows, sorted.
std::vector<std::vector<Value>> RunSorted(Result<LogicalPlan> plan,
                                          const CollectSink& sink,
                                          bool compiled) {
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  EngineOptions options;
  options.worker_threads = 1;
  options.compiled_kernels = compiled;
  NodeEngine engine(options);
  auto id = engine.Submit(std::move(*plan));
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(engine.Start(*id).ok());
  EXPECT_TRUE(engine.Wait(*id).ok());
  auto rows = sink.Rows();
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(KernelCse, SharedFunctionEvaluatesOncePerRowInCompiledRun) {
  ASSERT_TRUE(RegisterCseProbe());

  const int n = 64;
  const Schema out_schema = Schema::Build()
                                .AddInt64("key")
                                .AddTimestamp("ts")
                                .AddDouble("value")
                                .AddBool("flag")
                                .AddText16("label")
                                .AddDouble("tripled")
                                .Finish();
  auto run = [&](bool compiled) {
    auto sink = std::make_shared<CollectSink>(out_schema);
    return RunSorted(Query::From(MakeSource(n))
                         .Filter(Ge(Probe(), Lit(6.0)))
                         .Map("tripled", Probe())
                         .To(sink)
                         .Build(),
                     *sink, compiled);
  };

  ProbeCalls().store(0);
  const auto compiled_rows = run(/*compiled=*/true);
  // The filter predicate and the map spec share one probe subtree: the
  // compiled run computes it once per ingested row, never once per stage.
  EXPECT_EQ(ProbeCalls().load(), static_cast<uint64_t>(n));

  // And sharing does not change results: the interpreted run agrees.
  const auto interpreted_rows = run(/*compiled=*/false);
  EXPECT_EQ(compiled_rows, interpreted_rows);
  for (const auto& row : compiled_rows) {
    EXPECT_EQ(std::get<double>(row[5]), std::get<double>(row[2]) * 3.0);
    EXPECT_GE(std::get<double>(row[5]), 6.0);
  }
}

TEST(KernelCse, SharedFunctionEvaluatesOncePerRowOnInterpretedFallback) {
  ASSERT_TRUE(RegisterCseProbe());

  // The probe is shared by the filter and two map specs, but the map also
  // emits a text field, so it refuses to compile: the fused run is the
  // filter alone, and the map falls back to its original, interpreted
  // node with its own per-record CSE.
  const int n = 64;
  const Schema out_schema = Schema::Build()
                                .AddInt64("key")
                                .AddTimestamp("ts")
                                .AddDouble("value")
                                .AddBool("flag")
                                .AddText16("label")
                                .AddDouble("tripled")
                                .AddDouble("bumped")
                                .AddText16("tag")
                                .Finish();
  auto run = [&](bool compiled) {
    auto sink = std::make_shared<CollectSink>(out_schema);
    return RunSorted(Query::From(MakeSource(n))
                         .Filter(Ge(Probe(), Lit(6.0)))
                         .MapAll({{"tripled", Probe()},
                                  {"bumped", Add(Probe(), Lit(1.0))},
                                  {"tag", Attribute("label")}})
                         .To(sink)
                         .Build(),
                     *sink, compiled);
  };

  ProbeCalls().store(0);
  InterpretedProbeCalls().store(0);
  const auto compiled_rows = run(/*compiled=*/true);
  const uint64_t survivors = compiled_rows.size();
  ASSERT_GT(survivors, 0u);
  ASSERT_LT(survivors, static_cast<uint64_t>(n));
  // The interpreted map evaluates the probe once per surviving row, not
  // once per occurrence; the compiled filter once per ingested row.
  EXPECT_EQ(InterpretedProbeCalls().load(), survivors);
  EXPECT_EQ(ProbeCalls().load(), static_cast<uint64_t>(n) + survivors);

  const auto interpreted_rows = run(/*compiled=*/false);
  EXPECT_EQ(compiled_rows, interpreted_rows);
  for (const auto& row : compiled_rows) {
    EXPECT_EQ(std::get<double>(row[5]), std::get<double>(row[2]) * 3.0);
    EXPECT_EQ(std::get<double>(row[6]), std::get<double>(row[5]) + 1.0);
    EXPECT_EQ(std::get<std::string>(row[7]), std::get<std::string>(row[4]));
  }
}

}  // namespace
}  // namespace nebulameos::nebula
