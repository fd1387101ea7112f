/// \file maritime_monitoring.cpp
/// \brief A second IoT domain from the paper's motivation: maritime
/// traffic management.
///
/// Shows that nothing in the library is rail-specific: an AIS-like vessel
/// stream (synthetic, seeded) monitored with the same public API —
/// geofenced port approach zones, a speed-restriction expression inside
/// the anchorage, and a threshold window that flags loitering (sustained
/// near-zero speed outside the anchorage, the maritime analogue of Q7).
///
/// Run: `example_maritime_monitoring [events]` (default 120000).

#include <cstdio>

#include "common/cli.hpp"
#include "common/random.hpp"
#include "nebula/engine.hpp"
#include "nebulameos/plugin.hpp"

using namespace nebulameos;           // NOLINT
using namespace nebulameos::nebula;   // NOLINT

int main(int argc, char** argv) {
  const uint64_t events = PositiveArgOrExit(argc, argv, 1, 120'000, "[events]");

  // Port of Antwerp-ish geofences: approach channel (polygon), anchorage
  // (circle), harbour office POI.
  auto geofences = std::make_shared<integration::GeofenceRegistry>();
  auto channel = meos::Polygon::Make(
      {{3.9, 51.32}, {4.15, 51.32}, {4.25, 51.24}, {4.0, 51.22}});
  if (!channel.ok()) return 1;
  geofences->AddPolygonZone("approach-channel",
                            integration::ZoneKind::kHighRisk, *channel,
                            /*speed_limit_kmh=*/22.0);  // ~12 knots
  geofences->AddCircleZone("anchorage", integration::ZoneKind::kStation,
                           meos::Circle{{3.85, 51.35}, 3000.0});
  geofences->AddPoi("harbour-office", "workshop", {4.40, 51.23});
  Status st = integration::RegisterMeosPlugin(geofences);
  if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return 1;
  integration::SetActiveGeofences(geofences);

  // Synthetic AIS stream: 12 vessels heading for the port at 8-16 knots,
  // some drifting (loitering) outside the anchorage.
  Schema schema = Schema::Build()
                      .AddInt64("mmsi")
                      .AddTimestamp("ts")
                      .AddDouble("lon")
                      .AddDouble("lat")
                      .AddDouble("speed_kn")
                      .Finish();
  struct Vessel {
    double lon, lat, heading, speed_kn;
    bool loitering;
  };
  auto rng = std::make_shared<Rng>(2026);
  auto vessels = std::make_shared<std::vector<Vessel>>();
  for (int i = 0; i < 12; ++i) {
    vessels->push_back({3.5 + rng->Uniform(0.0, 0.3),
                        51.25 + rng->Uniform(0.0, 0.15),
                        rng->Uniform(0.0, 0.4), 8.0 + rng->Uniform(0.0, 8.0),
                        i % 5 == 0});  // every 5th vessel drifts
  }
  const Timestamp t0 = MakeTimestamp(2023, 6, 1, 6, 0, 0);
  auto tick = std::make_shared<uint64_t>(0);
  auto source = std::make_unique<GeneratorSource>(
      schema,
      [rng, vessels, tick, t0](RecordWriter* w) {
        const uint64_t i = (*tick)++;
        const size_t v = i % vessels->size();
        Vessel& vessel = (*vessels)[v];
        const double dt = 2.0;  // seconds between a vessel's reports
        if (vessel.loitering) {
          vessel.speed_kn = rng->Uniform(0.0, 0.3);  // adrift, engines off
        } else {
          vessel.speed_kn = std::clamp(
              vessel.speed_kn + rng->Normal() * 0.3, 0.5, 16.0);
        }
        const double meters = vessel.speed_kn * 0.5144 * dt;
        vessel.lon += std::cos(vessel.heading) * meters / 70000.0;
        vessel.lat += std::sin(vessel.heading) * meters / 111320.0;
        w->SetInt64(0, 200'000'000 + static_cast<int64_t>(v));
        w->SetInt64(1, t0 + static_cast<Timestamp>(i / vessels->size()) *
                              Seconds(2));
        w->SetDouble(2, vessel.lon);
        w->SetDouble(3, vessel.lat);
        w->SetDouble(4, vessel.speed_kn);
        return true;
      },
      events, "ts");

  // Query: flag vessels loitering (speed < 0.5 kn sustained >= 3 min)
  // outside the anchorage — then annotate the distance to the harbour
  // office for dispatch.
  auto loitering =
      And(Lt(Attribute("speed_kn"), Lit(0.5)),
          Not(Fn("in_zone", {Attribute("lon"), Attribute("lat"),
                             Lit(std::string("anchorage"))})));
  auto plan = Query::From(std::move(source))
                  .KeyBy("mmsi")
                  .ThresholdWindow(loitering, Minutes(3), "ts")
                  .Aggregate({AggregateSpec::Avg("lon", "lon"),
                              AggregateSpec::Avg("lat", "lat"),
                              AggregateSpec::Count("reports")})
                  .Map("office_dist_m",
                       Fn("nearest_poi_distance",
                          {Attribute("lon"), Attribute("lat"),
                           Lit(std::string("workshop"))}))
                  .Build();
  if (!plan.ok()) {
    std::fprintf(stderr, "build: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  auto out = plan->OutputSchema();
  if (!out.ok()) {
    std::fprintf(stderr, "compile: %s\n", out.status().ToString().c_str());
    return 1;
  }
  auto sink = std::make_shared<CollectSink>(*out);
  plan->SetSink(sink);

  NodeEngine engine;
  auto id = engine.Submit(std::move(*plan));
  if (!id.ok() || !engine.RunToCompletion(*id).ok()) {
    std::fprintf(stderr, "run failed\n");
    return 1;
  }
  const auto rows = sink->Rows();
  std::printf("maritime monitoring: %zu loitering alerts from %llu AIS "
              "reports\n",
              rows.size(), static_cast<unsigned long long>(events));
  for (size_t i = 0; i < rows.size() && i < 5; ++i) {
    const auto& r = rows[i];
    std::printf("  vessel %lld adrift %llds at (%.3f, %.3f), harbour office "
                "%.1f km away\n",
                static_cast<long long>(ValueAsInt64(r[0])),
                static_cast<long long>(
                    (ValueAsInt64(r[2]) - ValueAsInt64(r[1])) /
                    kMicrosPerSecond),
                ValueAsDouble(r[3]), ValueAsDouble(r[4]),
                ValueAsDouble(r[6]) / 1000.0);
  }
  return 0;
}
