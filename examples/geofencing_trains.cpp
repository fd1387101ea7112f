/// \file geofencing_trains.cpp
/// \brief The paper's §3.1 demonstration: the four geofencing queries over
/// the live SNCB fleet stream, with sample alerts printed as the stream
/// flows.
///
/// Run: `example_geofencing_trains [events]` (default 150000).

#include <cstdio>

#include "common/cli.hpp"
#include "queries/queries.hpp"

using namespace nebulameos;           // NOLINT
using namespace nebulameos::nebula;   // NOLINT
using namespace nebulameos::queries;  // NOLINT

namespace {

void PrintSample(const std::vector<std::vector<Value>>& rows, size_t n,
                 const std::function<std::string(const std::vector<Value>&)>&
                     format) {
  const size_t step = rows.size() <= n ? 1 : rows.size() / n;
  for (size_t i = 0; i < rows.size(); i += step) {
    std::printf("    %s\n", format(rows[i]).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t events = PositiveArgOrExit(argc, argv, 1, 150'000, "[events]");

  auto env = DemoEnvironment::Create();
  if (!env.ok()) {
    std::fprintf(stderr, "environment: %s\n", env.status().ToString().c_str());
    return 1;
  }
  QueryOptions options;
  options.max_events = events;
  options.sink = SinkMode::kCollect;

  std::printf("NebulaMEOS geofencing demo — %llu events from 6 trains\n\n",
              static_cast<unsigned long long>(events));

  // Q1: alerts that survive the maintenance-zone filter.
  {
    auto built = BuildQ1AlertFiltering(**env, options);
    NodeEngine engine;
    auto id = engine.Submit(std::move(built->plan));
    (void)engine.RunToCompletion(*id);
    const auto rows = built->collect->Rows();
    std::printf("Q1 location-based alert filtering: %zu alerts kept\n",
                rows.size());
    PrintSample(rows, 3, [](const std::vector<Value>& r) {
      return "train " + ValueToString(r[0]) + " @ " +
             FormatTimestamp(ValueAsInt64(r[1])) + "  (" +
             ValueToString(r[2]) + ", " + ValueToString(r[3]) + ")  " +
             ValueToString(r[5]);
    });
  }
  // Q2: noise statistics per noise-sensitive zone.
  {
    auto built = BuildQ2NoiseMonitoring(**env, options);
    NodeEngine engine;
    auto id = engine.Submit(std::move(built->plan));
    (void)engine.RunToCompletion(*id);
    const auto rows = built->collect->Rows();
    std::printf("\nQ2 noise monitoring: %zu 30s zone-windows\n", rows.size());
    PrintSample(rows, 3, [&](const std::vector<Value>& r) {
      const auto* zone = (*env)->geofences()->FindZone(ValueAsInt64(r[0]));
      return std::string(zone ? zone->name : "?") + "  avg " +
             ValueToString(r[3]) + " dB, max " + ValueToString(r[4]) +
             " dB over " + ValueToString(r[5]) + " readings";
    });
  }
  // Q3: dynamic speed-limit violations.
  {
    auto built = BuildQ3DynamicSpeedLimit(**env, options);
    NodeEngine engine;
    auto id = engine.Submit(std::move(built->plan));
    (void)engine.RunToCompletion(*id);
    const auto rows = built->collect->Rows();
    std::printf("\nQ3 dynamic speed limit: %zu violations\n", rows.size());
    PrintSample(rows, 3, [](const std::vector<Value>& r) {
      return "train " + ValueToString(r[0]) + "  " + ValueToString(r[4]) +
             " km/h in a " + ValueToString(r[5]) + " km/h zone";
    });
  }
  // Q4: weather-conditioned advisories.
  {
    auto built = BuildQ4WeatherSpeedZones(**env, options);
    NodeEngine engine;
    auto id = engine.Submit(std::move(built->plan));
    (void)engine.RunToCompletion(*id);
    const auto rows = built->collect->Rows();
    std::printf("\nQ4 weather-based speed zones: %zu advisories\n",
                rows.size());
    PrintSample(rows, 3, [](const std::vector<Value>& r) {
      static const char* kNames[] = {"clear", "rain", "heavy_rain", "snow",
                                     "fog"};
      const int64_t c = ValueAsInt64(r[6]);
      return "train " + ValueToString(r[0]) + "  " + ValueToString(r[4]) +
             " km/h, advised " + ValueToString(r[5]) + " km/h (" +
             std::string(kNames[c % 5]) + ")";
    });
  }
  return 0;
}
