/// \file export_visualization.cpp
/// \brief Figure 2 data exporter: fleet trajectories and geofences as
/// GeoJSON for a Deck.gl-style map (the paper visualizes the same data with
/// Deck.gl fed over Kafka).
///
/// Run: `example_export_visualization [events] [out.geojson]`
/// (defaults: 120000 events, ./sncb_fleet.geojson). The output is a
/// FeatureCollection: one LineString per train (with per-vertex epoch
/// timestamps, Deck.gl TripsLayer convention) plus one Polygon per
/// geofence.

#include <cstdio>

#include "common/cli.hpp"
#include "meos/io.hpp"
#include "queries/queries.hpp"

using namespace nebulameos;        // NOLINT
using namespace nebulameos::sncb;  // NOLINT

int main(int argc, char** argv) {
  const uint64_t events =
      PositiveArgOrExit(argc, argv, 1, 120'000, "[events] [geojson-path]");
  std::string path = "sncb_fleet.geojson";
  if (argc > 2) path = argv[2];

  auto env = queries::DemoEnvironment::Create();
  if (!env.ok()) {
    std::fprintf(stderr, "environment: %s\n", env.status().ToString().c_str());
    return 1;
  }
  const RailNetwork& network = (*env)->network();
  FleetConfig config;
  FleetSimulator sim(&network, config);

  // Collect per-train trajectories (subsampled per train).
  std::vector<std::vector<meos::TInstant<meos::Point>>> tracks(
      config.num_trains);
  std::vector<uint64_t> counts(config.num_trains, 0);
  for (uint64_t i = 0; i < events; ++i) {
    const TrainEvent ev = sim.Next();
    if (counts[ev.train_id]++ % 8 == 0) {
      tracks[ev.train_id].push_back({meos::Point{ev.lon, ev.lat}, ev.ts});
    }
  }

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\"type\":\"FeatureCollection\",\"features\":[\n");
  bool first = true;
  // Train trajectories.
  for (int t = 0; t < config.num_trains; ++t) {
    auto seq = meos::TGeomPointSeq::Make(std::move(tracks[t]));
    if (!seq.ok()) continue;
    if (!first) std::fprintf(f, ",\n");
    first = false;
    std::fprintf(f, "%s",
                 meos::TPointToGeoJson(*seq, "train-" + std::to_string(t))
                     .c_str());
  }
  // Geofence polygons (stations/workshops as their bounding boxes).
  for (const auto& zone : (*env)->geofences()->zones()) {
    if (!first) std::fprintf(f, ",\n");
    first = false;
    const meos::GeoBox box = zone.BoundingBox();
    std::fprintf(
        f,
        "{\"type\":\"Feature\",\"id\":\"%s\",\"properties\":{\"kind\":\"%s\"},"
        "\"geometry\":{\"type\":\"Polygon\",\"coordinates\":[[[%f,%f],[%f,%f],"
        "[%f,%f],[%f,%f],[%f,%f]]]}}",
        zone.name.c_str(), integration::ZoneKindName(zone.kind), box.xmin,
        box.ymin, box.xmax, box.ymin, box.xmax, box.ymax, box.xmin, box.ymax,
        box.xmin, box.ymin);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);

  std::printf("wrote %s: %d train trajectories + %zu geofences from %llu "
              "events\n",
              path.c_str(), config.num_trains,
              (*env)->geofences()->zones().size(),
              static_cast<unsigned long long>(events));
  std::printf("render with any GeoJSON viewer (Deck.gl, geojson.io, kepler"
              ".gl) to reproduce Figure 2.\n");
  return 0;
}
