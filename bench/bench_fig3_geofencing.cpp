/// \file bench_fig3_geofencing.cpp
/// \brief Experiment Fig. 3a-3d — the geofencing queries' visualizations.
///
/// Figure 3 shows one panel per query: routes annotated with alerts/flags
/// produced as the stream flows. This harness runs Q1-Q4 in collect mode
/// and regenerates each panel's data series: the alert events with their
/// positions, plus summary statistics. Series are written as CSV under
/// ./fig3_output/ (one file per panel) so any plotting tool can render the
/// panels; a compact summary is printed here.

#include <sys/stat.h>

#include <cstdio>

#include "common/cli.hpp"
#include "queries/queries.hpp"

using namespace nebulameos;           // NOLINT
using namespace nebulameos::nebula;   // NOLINT
using namespace nebulameos::queries;  // NOLINT

namespace {

std::vector<std::vector<Value>> RunCollect(const DemoEnvironment& env,
                                           int number, uint64_t events) {
  QueryOptions options;
  options.max_events = events;
  options.sink = SinkMode::kCollect;
  auto built = BuildQuery(number, env, options);
  if (!built.ok()) {
    std::fprintf(stderr, "build Q%d: %s\n", number,
                 built.status().ToString().c_str());
    return {};
  }
  NodeEngine engine;
  auto id = engine.Submit(std::move(built->plan));
  if (!id.ok() || !engine.RunToCompletion(*id).ok()) return {};
  return built->collect->Rows();
}

void WriteCsv(const std::string& path, const std::vector<std::string>& header,
              const std::vector<std::vector<Value>>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::string line;
  for (size_t i = 0; i < header.size(); ++i) {
    if (i > 0) line += ',';
    line += header[i];
  }
  std::fprintf(f, "%s\n", line.c_str());
  for (const auto& row : rows) {
    line.clear();
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += ',';
      line += ValueToString(row[i]);
    }
    std::fprintf(f, "%s\n", line.c_str());
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t events = PositiveArgOrExit(argc, argv, 1, 300'000, "[events]");
  auto env = DemoEnvironment::Create();
  if (!env.ok()) {
    std::fprintf(stderr, "environment: %s\n", env.status().ToString().c_str());
    return 1;
  }
  ::mkdir("fig3_output", 0755);

  std::printf("Fig.3a-3d: geofencing query visualizations (%llu events)\n\n",
              static_cast<unsigned long long>(events));

  // Panel (a): alert filtering — surviving alerts by train.
  {
    const auto rows = RunCollect(**env, 1, events);
    WriteCsv("fig3_output/fig3a_alert_filtering.csv",
             {"train_id", "ts", "lon", "lat", "speed_ms", "event_type"}, rows);
    int64_t by_train[8] = {0};
    for (const auto& row : rows) {
      ++by_train[ValueAsInt64(row[0]) % 8];
    }
    std::printf("(a) alert filtering: %zu surviving alerts | per train:",
                rows.size());
    for (int t = 0; t < 6; ++t) {
      std::printf(" %lld", static_cast<long long>(by_train[t]));
    }
    std::printf("\n");
  }
  // Panel (b): noise monitoring — per-zone windows.
  {
    const auto rows = RunCollect(**env, 2, events);
    WriteCsv("fig3_output/fig3b_noise_monitoring.csv",
             {"zone", "window_start", "window_end", "avg_noise_db",
              "max_noise_db", "events"},
             rows);
    double peak = 0.0;
    for (const auto& row : rows) {
      peak = std::max(peak, ValueAsDouble(row[4]));
    }
    std::printf("(b) noise monitoring: %zu zone-windows | peak %.1f dB\n",
                rows.size(), peak);
  }
  // Panel (c): dynamic speed limit — violations.
  {
    const auto rows = RunCollect(**env, 3, events);
    WriteCsv("fig3_output/fig3c_speed_monitoring.csv",
             {"train_id", "ts", "lon", "lat", "speed_kmh", "limit_kmh"}, rows);
    double worst = 0.0;
    for (const auto& row : rows) {
      worst = std::max(worst,
                       ValueAsDouble(row[4]) - ValueAsDouble(row[5]));
    }
    std::printf("(c) dynamic speed limit: %zu violations | worst excess "
                "%.1f km/h\n",
                rows.size(), worst);
  }
  // Panel (d): weather-based speed zones.
  {
    const auto rows = RunCollect(**env, 4, events);
    WriteCsv("fig3_output/fig3d_weather_speed_zones.csv",
             {"train_id", "ts", "lon", "lat", "speed_kmh", "limit_kmh",
              "weather_condition", "weather_intensity"},
             rows);
    int64_t by_condition[5] = {0};
    for (const auto& row : rows) {
      ++by_condition[ValueAsInt64(row[6]) % 5];
    }
    std::printf("(d) weather speed zones: %zu advisories | clear/rain/heavy/"
                "snow/fog: %lld/%lld/%lld/%lld/%lld\n",
                rows.size(), static_cast<long long>(by_condition[0]),
                static_cast<long long>(by_condition[1]),
                static_cast<long long>(by_condition[2]),
                static_cast<long long>(by_condition[3]),
                static_cast<long long>(by_condition[4]));
  }
  std::printf("\nseries written to fig3_output/fig3{a,b,c,d}_*.csv\n");
  std::printf("Shape check: (a) alerts survive only outside maintenance "
              "zones; (c)/(d) flag only over-limit\nevents; (d) advisories "
              "concentrate in degraded weather.\n");
  return 0;
}
