/// \file bench_fig2_fleet_stream.cpp
/// \brief Experiment Fig. 2 — the SNCB data visualization.
///
/// Figure 2 renders the fleet's positions/routes over Belgium. This harness
/// regenerates the data behind that figure — per-train trajectory summaries
/// (events, distance, speed, spatiotemporal extent) — and measures the raw
/// fleet-stream generation/ingestion rate. The GeoJSON for an actual map
/// render is produced by examples/export_visualization.

#include <cstdio>

#include "common/cli.hpp"
#include "meos/agg.hpp"
#include "sncb/records.hpp"

using namespace nebulameos;        // NOLINT
using namespace nebulameos::sncb;  // NOLINT

int main(int argc, char** argv) {
  const uint64_t events = PositiveArgOrExit(argc, argv, 1, 600'000, "[events]");

  const RailNetwork network = BuildBelgianNetwork();
  FleetConfig config;
  FleetSimulator sim(&network, config);

  struct PerTrain {
    std::vector<meos::TInstant<meos::Point>> instants;
    double max_speed = 0.0;
    uint64_t events = 0;
  };
  std::vector<PerTrain> trains(config.num_trains);

  const int64_t t0 = MonotonicNowMicros();
  for (uint64_t i = 0; i < events; ++i) {
    const TrainEvent ev = sim.Next();
    PerTrain& train = trains[static_cast<size_t>(ev.train_id)];
    // Subsample each train's trajectory (1 in 7, per train — a global
    // stride would alias with the round-robin) to keep the summary light;
    // speed tracked on every event.
    if (train.events++ % 7 == 0) {
      train.instants.push_back({meos::Point{ev.lon, ev.lat}, ev.ts});
    }
    train.max_speed = std::max(train.max_speed, ev.speed_ms);
  }
  const double gen_seconds =
      static_cast<double>(MonotonicNowMicros() - t0) / 1e6;

  std::printf("Fig.2: SNCB fleet overview (%llu events, seed %llu)\n\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(config.seed));
  std::printf("%-8s %9s %12s %11s %11s  %-28s\n", "train", "points",
              "distance km", "avg km/h", "max km/h", "extent (lon/lat box)");
  std::printf("--------------------------------------------------------------"
              "-------------------\n");
  meos::ExtentAggregator fleet_extent;
  for (size_t t = 0; t < trains.size(); ++t) {
    auto seq = meos::TGeomPointSeq::Make(std::move(trains[t].instants));
    if (!seq.ok()) continue;
    const double km = meos::Length(*seq, meos::Metric::kWgs84) / 1000.0;
    const double hours = ToSeconds(seq->DurationMicros()) / 3600.0;
    const meos::STBox extent = meos::BoundingBox(*seq);
    fleet_extent.Add(*seq);
    std::printf("%-8zu %9zu %12.1f %11.1f %11.1f  [%.2f,%.2f]x[%.2f,%.2f]\n",
                t, seq->size(), km, hours > 0 ? km / hours : 0.0,
                trains[t].max_speed * 3.6, extent.xmin(), extent.xmax(),
                extent.ymin(), extent.ymax());
  }
  if (fleet_extent.extent()) {
    std::printf("\nfleet extent: %s\n",
                fleet_extent.extent()->ToString().c_str());
  }
  std::printf("stream generation rate: %.0f events/s (%.2f MB/s at the "
              "112-byte geofencing record)\n",
              static_cast<double>(events) / gen_seconds,
              static_cast<double>(events) * 112.0 / 1e6 / gen_seconds);
  std::printf("\nShape check: six trains shuttling on Belgian IC lines; all "
              "extents inside [2.5,6.1]x[49.4,51.5].\n");
  return 0;
}
