#include "queries/queries.hpp"

#include "sncb/weather.hpp"

namespace nebulameos::queries {

using integration::RegisterMeosPlugin;
using integration::SetActiveGeofences;
using nebula::AggregateSpec;
using nebula::And;
using nebula::Attribute;
using nebula::CollectSink;
using nebula::CountingSink;
using nebula::DataType;
using nebula::Fn;
using nebula::Ge;
using nebula::Gt;
using nebula::Le;
using nebula::Lit;
using nebula::Lt;
using nebula::Measure;
using nebula::Mul;
using nebula::Ne;
using nebula::Not;
using nebula::Pattern;
using nebula::PatternStep;
using nebula::Query;
using nebula::Schema;
using nebula::Sub;

namespace {

// Emits the builder's plan and terminates it with a sink of the requested
// mode, shaped by the plan's inferred output schema.
Result<BuiltQuery> Finish(Query query, SinkMode mode) {
  NM_ASSIGN_OR_RETURN(nebula::LogicalPlan plan, std::move(query).Build());
  NM_ASSIGN_OR_RETURN(Schema sink_schema, plan.OutputSchema());
  if (mode == SinkMode::kCollect) {
    auto sink = std::make_shared<CollectSink>(sink_schema);
    plan.SetSink(sink);
    return BuiltQuery(std::move(plan), sink, nullptr);
  }
  auto sink = std::make_shared<CountingSink>(sink_schema);
  plan.SetSink(sink);
  return BuiltQuery(std::move(plan), nullptr, sink);
}

// Applies offered-load pacing when requested.
nebula::SourcePtr MaybePace(nebula::SourcePtr source,
                            const QueryOptions& options) {
  if (options.pace_events_per_second <= 0.0) return source;
  return std::make_unique<nebula::PacedSource>(
      std::move(source), options.pace_events_per_second);
}

}  // namespace

Result<std::shared_ptr<DemoEnvironment>> DemoEnvironment::Create() {
  auto env = std::shared_ptr<DemoEnvironment>(new DemoEnvironment());
  env->network_ = sncb::BuildBelgianNetwork();
  env->geofences_ = std::make_shared<integration::GeofenceRegistry>();
  sncb::PopulateSncbGeofences(env->network_, env->geofences_.get());
  NM_RETURN_NOT_OK(RegisterMeosPlugin(env->geofences_));
  SetActiveGeofences(env->geofences_);
  // Q4's weather-conditioned advisory limit as a runtime-registered
  // numeric function, so Q4's Map→Filter→Project fuses into one compiled
  // kernel run: weather_speed_limit(condition, intensity, default_kmh).
  if (!nebula::ExpressionRegistry::Global().Contains("weather_speed_limit")) {
    NM_RETURN_NOT_OK(nebula::RegisterScalarFunction(
        "weather_speed_limit", 3, DataType::kDouble, [](const double* v) {
          // A value outside the condition codes (NaN included) names no
          // condition and, like an unknown code, leaves the default.
          const bool known = v[0] >= 0.0 && v[0] < 5.0;
          return sncb::WeatherSpeedLimitKmh(
              static_cast<sncb::WeatherCondition>(
                  known ? static_cast<int64_t>(v[0]) : int64_t{-1}),
              v[1], v[2]);
        }));
  }
  // weather_cell(lon, lat): the weather-grid cell of a position (join key
  // for the Q4 join variant).
  if (!nebula::ExpressionRegistry::Global().Contains("weather_cell")) {
    NM_RETURN_NOT_OK(nebula::RegisterScalarFunction(
        "weather_cell", 2, DataType::kInt64, [](const double* v) {
          return static_cast<double>(sncb::WeatherCellOf(v[0], v[1]));
        }));
  }
  return env;
}

// --- Q1 ------------------------------------------------------------------

Result<BuiltQuery> BuildQ1AlertFiltering(const DemoEnvironment& env,
                                         const QueryOptions& options) {
  sncb::SncbSources sources(&env.network(), options.fleet);
  Query q =
      Query::From(MaybePace(sources.Geofencing(options.max_events), options))
          .Filter(And(Ne(Attribute("event_type"), Lit(std::string("normal"))),
                      Not(Fn("in_zone_kind",
                             {Attribute("lon"), Attribute("lat"),
                              Lit(std::string("maintenance"))}))))
          .Project({"train_id", "ts", "lon", "lat", "speed_ms", "event_type"});
  return Finish(std::move(q), options.sink);
}

// --- Q2 ------------------------------------------------------------------

Result<BuiltQuery> BuildQ2NoiseMonitoring(const DemoEnvironment& env,
                                          const QueryOptions& options) {
  sncb::SncbSources sources(&env.network(), options.fleet);
  Query q =
      Query::From(MaybePace(sources.Geofencing(options.max_events), options))
          .Filter(Fn("in_zone_kind", {Attribute("lon"), Attribute("lat"),
                                      Lit(std::string("noise_sensitive"))}))
          .Map("zone", Fn("zone_id", {Attribute("lon"), Attribute("lat"),
                                      Lit(std::string("noise_sensitive"))}))
          .KeyBy("zone")
          .TumblingWindow(Seconds(30), "ts")
          .Aggregate({AggregateSpec::Avg("noise_db", "avg_noise_db"),
                      AggregateSpec::Max("noise_db", "max_noise_db"),
                      AggregateSpec::Count("events")});
  return Finish(std::move(q), options.sink);
}

// --- Q3 ------------------------------------------------------------------

Result<BuiltQuery> BuildQ3DynamicSpeedLimit(const DemoEnvironment& env,
                                            const QueryOptions& options) {
  sncb::SncbSources sources(&env.network(), options.fleet);
  Query q =
      Query::From(MaybePace(sources.Geofencing(options.max_events), options))
          .Map("speed_kmh", Mul(Attribute("speed_ms"), Lit(3.6)))
          .Map("limit_kmh", Fn("zone_speed_limit", {Attribute("lon"),
                                                    Attribute("lat"),
                                                    Lit(120.0)}))
          // 5 km/h enforcement tolerance suppresses marginal readings.
          .Filter(Gt(Attribute("speed_kmh"),
                     Add(Attribute("limit_kmh"), Lit(5.0))))
          .Project({"train_id", "ts", "lon", "lat", "speed_kmh", "limit_kmh"});
  return Finish(std::move(q), options.sink);
}

// --- Q4 ------------------------------------------------------------------

Result<BuiltQuery> BuildQ4WeatherSpeedZones(const DemoEnvironment& env,
                                            const QueryOptions& options) {
  sncb::SncbSources sources(&env.network(), options.fleet);
  Query q =
      Query::From(MaybePace(sources.Geofencing(options.max_events), options))
          .Map("zone_limit_kmh", Fn("zone_speed_limit", {Attribute("lon"),
                                                         Attribute("lat"),
                                                         Lit(120.0)}))
          .Map("limit_kmh",
               Fn("weather_speed_limit", {Attribute("weather_condition"),
                                          Attribute("weather_intensity"),
                                          Attribute("zone_limit_kmh")}))
          .Map("speed_kmh", Mul(Attribute("speed_ms"), Lit(3.6)))
          // Advise only where the weather actually lowers the limit (plain
          // overspeed against the zone limit is Q3's job).
          .Filter(And(Gt(Attribute("speed_kmh"), Attribute("limit_kmh")),
                      Lt(Attribute("limit_kmh"),
                         Attribute("zone_limit_kmh"))))
          .Project({"train_id", "ts", "lon", "lat", "speed_kmh", "limit_kmh",
                    "weather_condition", "weather_intensity"});
  return Finish(std::move(q), options.sink);
}

Result<BuiltQuery> BuildQ4WeatherJoin(const DemoEnvironment& env,
                                      const QueryOptions& options) {
  sncb::SncbSources sources(&env.network(), options.fleet);
  // The weather side: 24 h of observations for every grid cell, from the
  // same seeded provider the fleet experiences.
  nebula::TemporalLookupJoinOptions join;
  join.lookup = std::shared_ptr<nebula::Source>(sncb::MakeWeatherObservationStream(
      options.fleet.seed, sncb::EffectiveStartTime(options.fleet), Hours(24)));
  join.left_key = "cell";
  join.right_key = "cell";
  join.left_time = "ts";
  join.right_time = "ts";
  join.max_age = Hours(1);
  Query q =
      Query::From(MaybePace(sources.Geofencing(options.max_events), options))
          .Map("cell", Fn("weather_cell", {Attribute("lon"),
                                           Attribute("lat")}))
          .JoinLookup(std::move(join))
          .Map("zone_limit_kmh", Fn("zone_speed_limit", {Attribute("lon"),
                                                         Attribute("lat"),
                                                         Lit(120.0)}))
          .Map("limit_kmh",
               Fn("weather_speed_limit", {Attribute("condition"),
                                          Attribute("intensity"),
                                          Attribute("zone_limit_kmh")}))
          .Map("speed_kmh", Mul(Attribute("speed_ms"), Lit(3.6)))
          .Filter(And(Gt(Attribute("speed_kmh"), Attribute("limit_kmh")),
                      Lt(Attribute("limit_kmh"),
                         Attribute("zone_limit_kmh"))))
          .Project({"train_id", "ts", "lon", "lat", "speed_kmh", "limit_kmh",
                    "condition", "intensity"});
  return Finish(std::move(q), options.sink);
}

// --- Q5 ------------------------------------------------------------------

Result<BuiltQuery> BuildQ5BatteryMonitoring(const DemoEnvironment& env,
                                            const QueryOptions& options) {
  sncb::SncbSources sources(&env.network(), options.fleet);
  Query q =
      Query::From(MaybePace(sources.Battery(options.max_events), options))
          .Map("deviation_v",
               Fn("abs", {Sub(Attribute("battery_v"),
                              Attribute("battery_nominal_v"))}))
          .KeyBy("train_id")
          .ThresholdWindow(And(Attribute("on_battery"),
                               Gt(Attribute("deviation_v"), Lit(0.35))),
                           Seconds(30), "ts")
          .Aggregate({AggregateSpec::Avg("deviation_v", "avg_deviation_v"),
                      AggregateSpec::Max("deviation_v", "max_deviation_v"),
                      AggregateSpec::Max("battery_temp_c", "max_temp_c"),
                      AggregateSpec::Avg("lon", "lon"),
                      AggregateSpec::Avg("lat", "lat"),
                      AggregateSpec::Count("samples")})
          .Map("workshop_id", Fn("nearest_poi_id",
                                 {Attribute("lon"), Attribute("lat"),
                                  Lit(std::string("workshop"))}))
          .Map("workshop_dist_m",
               Fn("nearest_poi_distance", {Attribute("lon"), Attribute("lat"),
                                           Lit(std::string("workshop"))}));
  return Finish(std::move(q), options.sink);
}

// --- Q6 ------------------------------------------------------------------

Result<BuiltQuery> BuildQ6HeavyLoad(const DemoEnvironment& env,
                                    const QueryOptions& options) {
  sncb::SncbSources sources(&env.network(), options.fleet);
  Query q =
      Query::From(MaybePace(sources.Passenger(options.max_events), options))
          .KeyBy("train_id")
          .SlidingWindow(Minutes(5), Minutes(1), "ts")
          .Aggregate({AggregateSpec::Avg("passengers", "avg_passengers"),
                      AggregateSpec::Max("passengers", "max_passengers"),
                      AggregateSpec::Avg("seats", "seats"),
                      AggregateSpec::Avg("cabin_temp_c", "avg_cabin_temp_c"),
                      AggregateSpec::Count("samples")})
          .Filter(Gt(Attribute("avg_passengers"), Attribute("seats")));
  return Finish(std::move(q), options.sink);
}

// --- Q7 ------------------------------------------------------------------

Result<BuiltQuery> BuildQ7UnscheduledStops(const DemoEnvironment& env,
                                           const QueryOptions& options) {
  sncb::SncbSources sources(&env.network(), options.fleet);
  // Halted outside any station or workshop zone.
  auto stopped_outside =
      And(Lt(Attribute("speed_ms"), Lit(0.5)),
          And(Not(Fn("in_zone_kind", {Attribute("lon"), Attribute("lat"),
                                      Lit(std::string("station"))})),
              Not(Fn("in_zone_kind", {Attribute("lon"), Attribute("lat"),
                                      Lit(std::string("workshop"))}))));
  Pattern pattern;
  pattern.steps = {
      PatternStep{"moving", Gt(Attribute("speed_ms"), Lit(5.0)), false, false},
      PatternStep{"halted", stopped_outside, false, true},
      PatternStep{"resumed", Gt(Attribute("speed_ms"), Lit(5.0)), false,
                  false},
  };
  pattern.within = Minutes(30);
  pattern.key_field = "train_id";
  pattern.time_field = "ts";
  // One pending run per train: every moving tick would otherwise spawn a
  // run, multiplying state and duplicating each stop alert.
  pattern.suppress_duplicate_starts = true;
  std::vector<Measure> measures = {
      Measure::Count("halted", "stop_events"),
      Measure::First("halted", "lon", "stop_lon"),
      Measure::First("halted", "lat", "stop_lat"),
  };
  // A genuine unscheduled stop lasts >= 30 s; at one reading per 250 ms
  // that is >= 120 halted events.
  Query q = Query::From(MaybePace(sources.Position(options.max_events), options))
                .Detect(std::move(pattern), std::move(measures))
                .Filter(Ge(Attribute("stop_events"), Lit(120)));
  return Finish(std::move(q), options.sink);
}

// --- Q8 ------------------------------------------------------------------

Result<BuiltQuery> BuildQ8BrakeMonitoring(const DemoEnvironment& env,
                                          const QueryOptions& options) {
  sncb::SncbSources sources(&env.network(), options.fleet);
  // Emergency braking shows as pressure collapsing below 2.2 bar; a
  // recovery above 3 bar separates distinct events (hysteresis: ordinary
  // service braking sits between ~2.9 and ~4.4 bar).
  auto emergency = Le(Attribute("brake_bar"), Lit(2.2));
  auto recovered = Gt(Attribute("brake_bar"), Lit(3.0));
  Pattern pattern;
  pattern.steps = {
      PatternStep{"e1", emergency, false, false},
      PatternStep{"rec", recovered, false, false},
      PatternStep{"e2", emergency, false, false},
  };
  pattern.within = Minutes(15);
  pattern.key_field = "train_id";
  pattern.time_field = "ts";
  // One alert per emergency pair, not one per low-pressure tick.
  pattern.suppress_duplicate_starts = true;
  std::vector<Measure> measures = {
      Measure::Min("e1", "brake_bar", "first_min_bar"),
      Measure::Min("e2", "brake_bar", "second_min_bar"),
      Measure::First("e1", "lon", "first_lon"),
      Measure::First("e1", "lat", "first_lat"),
  };
  Query q = Query::From(MaybePace(sources.Geofencing(options.max_events), options))
                .Detect(std::move(pattern), std::move(measures));
  return Finish(std::move(q), options.sink);
}

// --- Shared-ingest fan-out ----------------------------------------------------

namespace {

// The shared prefix of the fan-out plan: one geofencing ingest plus the
// speed enrichment both workloads read. (The fluent steps mutate the
// builder in place and return a reference to it.)
Query&& AddSharedIngestPrefix(Query&& q) {
  return std::move(q).Map("speed_kmh", Mul(Attribute("speed_ms"), Lit(3.6)));
}

// Branch 0 — Q1-style geofence alerting: onboard alerts outside
// maintenance zones, narrowed for the alert channel.
Query&& AddAlertBranchSteps(Query&& q) {
  return std::move(q)
      .Filter(And(Ne(Attribute("event_type"), Lit(std::string("normal"))),
                  Not(Fn("in_zone_kind",
                         {Attribute("lon"), Attribute("lat"),
                          Lit(std::string("maintenance"))}))))
      .Project({"train_id", "ts", "lon", "lat", "speed_kmh", "event_type"});
}

// Branch 1 — Q2-style archival: per-zone tumbling-window noise stats in
// noise-sensitive neighbourhoods.
Query&& AddArchiveBranchSteps(Query&& q) {
  return std::move(q)
      .Filter(Fn("in_zone_kind", {Attribute("lon"), Attribute("lat"),
                                  Lit(std::string("noise_sensitive"))}))
      .Map("zone", Fn("zone_id", {Attribute("lon"), Attribute("lat"),
                                  Lit(std::string("noise_sensitive"))}))
      .KeyBy("zone")
      .TumblingWindow(Seconds(30), "ts")
      .Aggregate({AggregateSpec::Avg("noise_db", "avg_noise_db"),
                  AggregateSpec::Max("noise_db", "max_noise_db"),
                  AggregateSpec::Count("events")});
}

}  // namespace

Result<BuiltQuery> BuildSharedIngestBranch(const DemoEnvironment& env,
                                           const QueryOptions& options,
                                           int branch) {
  if (branch != 0 && branch != 1) {
    return Status::InvalidArgument("shared-ingest branch must be 0 or 1");
  }
  sncb::SncbSources sources(&env.network(), options.fleet);
  Query q = AddSharedIngestPrefix(
      Query::From(MaybePace(sources.Geofencing(options.max_events), options)));
  if (branch == 0) {
    AddAlertBranchSteps(std::move(q));
  } else {
    AddArchiveBranchSteps(std::move(q));
  }
  return Finish(std::move(q), options.sink);
}

Result<BuiltFanOutQuery> BuildSharedIngestFanOut(const DemoEnvironment& env,
                                                 const QueryOptions& options) {
  sncb::SncbSources sources(&env.network(), options.fleet);
  nebula::SplitQuery split =
      AddSharedIngestPrefix(Query::From(
          MaybePace(sources.Geofencing(options.max_events), options)))
          .Split(2);
  AddAlertBranchSteps(std::move(split[0]));
  AddArchiveBranchSteps(std::move(split[1]));
  NM_ASSIGN_OR_RETURN(nebula::LogicalPlan plan, std::move(split).Build());
  NM_ASSIGN_OR_RETURN(auto leaf_schemas, plan.OutputSchemas());
  BuiltFanOutQuery built{std::move(plan), {}, {}};
  std::vector<std::shared_ptr<nebula::SinkOperator>> sinks;
  for (const auto& [path, schema] : leaf_schemas) {
    (void)path;
    if (options.sink == SinkMode::kCollect) {
      auto sink = std::make_shared<CollectSink>(schema);
      built.collects.push_back(sink);
      sinks.push_back(std::move(sink));
    } else {
      auto sink = std::make_shared<CountingSink>(schema);
      built.countings.push_back(sink);
      sinks.push_back(std::move(sink));
    }
  }
  NM_RETURN_NOT_OK(built.plan.SetLeafSinks(std::move(sinks)));
  return built;
}

// --- Dispatch ----------------------------------------------------------------

Result<BuiltQuery> BuildQuery(int number, const DemoEnvironment& env,
                              const QueryOptions& options) {
  switch (number) {
    case 1:
      return BuildQ1AlertFiltering(env, options);
    case 2:
      return BuildQ2NoiseMonitoring(env, options);
    case 3:
      return BuildQ3DynamicSpeedLimit(env, options);
    case 4:
      return BuildQ4WeatherSpeedZones(env, options);
    case 5:
      return BuildQ5BatteryMonitoring(env, options);
    case 6:
      return BuildQ6HeavyLoad(env, options);
    case 7:
      return BuildQ7UnscheduledStops(env, options);
    case 8:
      return BuildQ8BrakeMonitoring(env, options);
    default:
      return Status::InvalidArgument("query number must be 1..8");
  }
}

const char* QueryName(int number) {
  switch (number) {
    case 1:
      return "Q1 Alert Filtering";
    case 2:
      return "Q2 Noise Monitoring";
    case 3:
      return "Q3 Dynamic Speed Limit";
    case 4:
      return "Q4 Weather-Based Speed Zones";
    case 5:
      return "Q5 Battery Monitoring";
    case 6:
      return "Q6 Heavy Passenger Load";
    case 7:
      return "Q7 Unscheduled Stops";
    case 8:
      return "Q8 Brake Monitoring";
    default:
      return "unknown";
  }
}

PaperThroughput PaperReportedThroughput(int number) {
  switch (number) {
    case 1:
    case 2:
    case 3:
    case 4:
      return {2.24, 20.0};
    case 5:
      return {0.61, 8.0};
    case 6:
      return {3.68, 32.0};
    case 7:
      return {0.40, 10.0};
    case 8:
      return {2.24, 20.0};
    default:
      return {};
  }
}

}  // namespace nebulameos::queries
