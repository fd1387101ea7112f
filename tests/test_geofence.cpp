// Tests for the geofence registry (src/nebulameos/geofence).

#include <gtest/gtest.h>

#include <limits>

#include "common/random.hpp"
#include "nebulameos/geofence.hpp"
#include "sncb/network.hpp"

namespace nebulameos::integration {
namespace {

Polygon Rect(double x0, double y0, double x1, double y1) {
  auto poly = Polygon::Make({{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}});
  EXPECT_TRUE(poly.ok());
  return *poly;
}

TEST(Zone, PolygonContainsAndDistance) {
  Zone zone;
  zone.shape = Rect(4.0, 50.0, 4.1, 50.1);
  EXPECT_TRUE(zone.Contains({4.05, 50.05}));
  EXPECT_FALSE(zone.Contains({4.2, 50.05}));
  EXPECT_DOUBLE_EQ(zone.DistanceTo({4.05, 50.05}), 0.0);
  EXPECT_GT(zone.DistanceTo({4.2, 50.05}), 1000.0);  // ~7 km east
}

TEST(Zone, CircleContainsMetricRadius) {
  Zone zone;
  zone.shape = Circle{{4.35, 50.85}, 500.0};
  EXPECT_TRUE(zone.Contains({4.35, 50.85}));
  // ~400 m north (0.0036 deg lat).
  EXPECT_TRUE(zone.Contains({4.35, 50.8536}));
  // 0.01 deg ≈ 1112 m north: outside the 500 m radius by ~612 m.
  EXPECT_FALSE(zone.Contains({4.35, 50.86}));
  EXPECT_NEAR(zone.DistanceTo({4.35, 50.86}), 1112.0 - 500.0, 30.0);
}

TEST(Zone, BoundingBoxCoversCircle) {
  Zone zone;
  zone.shape = Circle{{4.35, 50.85}, 500.0};
  const meos::GeoBox box = zone.BoundingBox();
  EXPECT_TRUE(box.Contains({4.35, 50.8545}));
  EXPECT_LT(box.xmin, 4.35);
  EXPECT_GT(box.xmax, 4.35);
}

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() {
    maintenance_id_ = registry_.AddPolygonZone(
        "maint-1", ZoneKind::kMaintenance, Rect(4.0, 50.0, 4.1, 50.1), 40.0);
    station_id_ = registry_.AddCircleZone(
        "station-1", ZoneKind::kStation, Circle{{4.35, 50.85}, 400.0}, 30.0);
    risk_id_ = registry_.AddCircleZone(
        "curve-1", ZoneKind::kHighRisk, Circle{{4.05, 50.05}, 8000.0}, 80.0);
    workshop_poi_ = registry_.AddPoi("ws-1", "workshop", {4.37, 50.88});
    registry_.AddPoi("depot-1", "depot", {4.50, 50.90});
  }

  GeofenceRegistry registry_;
  int64_t maintenance_id_ = 0;
  int64_t station_id_ = 0;
  int64_t risk_id_ = 0;
  int64_t workshop_poi_ = 0;
};

TEST_F(RegistryTest, FindByNameAndId) {
  ASSERT_NE(registry_.FindZone("maint-1"), nullptr);
  EXPECT_EQ(registry_.FindZone("maint-1")->id, maintenance_id_);
  EXPECT_EQ(registry_.FindZone(station_id_)->name, "station-1");
  EXPECT_EQ(registry_.FindZone("nope"), nullptr);
  EXPECT_EQ(registry_.FindZone(999), nullptr);
  ASSERT_NE(registry_.FindPoi("ws-1"), nullptr);
  EXPECT_EQ(registry_.FindPoi("nope"), nullptr);
}

TEST_F(RegistryTest, ZonesContainingWithKindFilter) {
  // (4.05, 50.05) is inside both the maintenance rect and the risk circle.
  auto all = registry_.ZonesContaining({4.05, 50.05});
  EXPECT_EQ(all.size(), 2u);
  auto maint =
      registry_.ZonesContaining({4.05, 50.05}, ZoneKind::kMaintenance);
  ASSERT_EQ(maint.size(), 1u);
  EXPECT_EQ(maint[0]->id, maintenance_id_);
  EXPECT_TRUE(
      registry_.ZonesContaining({4.05, 50.05}, ZoneKind::kStation).empty());
}

TEST_F(RegistryTest, InAnyZoneAndZoneIdAt) {
  EXPECT_TRUE(registry_.InAnyZone({4.05, 50.05}));
  EXPECT_TRUE(registry_.InAnyZone({4.05, 50.05}, ZoneKind::kHighRisk));
  EXPECT_FALSE(registry_.InAnyZone({5.5, 49.0}));
  EXPECT_EQ(registry_.ZoneIdAt({4.05, 50.05}, ZoneKind::kMaintenance),
            maintenance_id_);
  EXPECT_EQ(registry_.ZoneIdAt({5.5, 49.0}), -1);
}

TEST_F(RegistryTest, SpeedLimitTakesMinimum) {
  // Inside both maintenance (40) and high-risk (80): min wins.
  EXPECT_DOUBLE_EQ(registry_.SpeedLimitAt({4.05, 50.05}, 120.0), 40.0);
  // Outside all zones: default.
  EXPECT_DOUBLE_EQ(registry_.SpeedLimitAt({5.5, 49.0}, 120.0), 120.0);
}

TEST_F(RegistryTest, NearestPoiByKind) {
  double dist = 0.0;
  const Poi* poi = registry_.NearestPoi({4.36, 50.87}, "workshop", &dist);
  ASSERT_NE(poi, nullptr);
  EXPECT_EQ(poi->id, workshop_poi_);
  EXPECT_LT(dist, 2000.0);
  // Kind filter: no "garage" POIs.
  EXPECT_EQ(registry_.NearestPoi({4.36, 50.87}, "garage", &dist), nullptr);
  EXPECT_TRUE(std::isinf(dist));
  // Empty kind matches everything.
  EXPECT_NE(registry_.NearestPoi({4.49, 50.90}, "", &dist), nullptr);
}

const std::vector<std::optional<ZoneKind>>& AllKindFilters() {
  static const std::vector<std::optional<ZoneKind>> kinds = {
      std::nullopt,          ZoneKind::kMaintenance,
      ZoneKind::kStation,    ZoneKind::kWorkshop,
      ZoneKind::kNoiseSensitive, ZoneKind::kHighRisk,
      ZoneKind::kWeather};
  return kinds;
}

std::vector<int64_t> Ids(const std::vector<const Zone*>& zones) {
  std::vector<int64_t> ids;
  for (const Zone* z : zones) ids.push_back(z->id);
  return ids;
}

// Property: no probe answer depends on the grid index. For every probe
// point and every kind filter (and none), `InAnyZone`, `ZoneIdAt`,
// `ZonesContaining` and `SpeedLimitAt` with the index on equal the linear
// scan's answers, and the batch forms equal the scalar ones in both modes.
void ExpectIndexMatchesScan(GeofenceRegistry* registry,
                            const std::vector<Point>& probes) {
  const size_t n = probes.size();
  std::vector<double> xs(n), ys(n), batch(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = probes[i].x;
    ys[i] = probes[i].y;
  }
  for (const bool indexed : {true, false}) {
    registry->SetIndexEnabled(indexed);
    for (const auto& kind : AllKindFilters()) {
      registry->InAnyZone(xs.data(), ys.data(), n, kind, batch.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(batch[i], registry->InAnyZone(probes[i], kind) ? 1.0 : 0.0)
            << "indexed=" << indexed << " i=" << i;
      }
      registry->ZoneIdAt(xs.data(), ys.data(), n, kind, batch.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(batch[i],
                  static_cast<double>(registry->ZoneIdAt(probes[i], kind)))
            << "indexed=" << indexed << " i=" << i;
      }
    }
    registry->SpeedLimitAt(xs.data(), ys.data(), n, 120.0, batch.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i], registry->SpeedLimitAt(probes[i], 120.0))
          << "indexed=" << indexed << " i=" << i;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const Point& p = probes[i];
    SCOPED_TRACE(::testing::Message() << "probe " << i << " (" << p.x << ", "
                                      << p.y << ")");
    for (const auto& kind : AllKindFilters()) {
      registry->SetIndexEnabled(true);
      const bool in_indexed = registry->InAnyZone(p, kind);
      const int64_t id_indexed = registry->ZoneIdAt(p, kind);
      const auto all_indexed = Ids(registry->ZonesContaining(p, kind));
      registry->SetIndexEnabled(false);
      EXPECT_EQ(registry->InAnyZone(p, kind), in_indexed);
      EXPECT_EQ(registry->ZoneIdAt(p, kind), id_indexed);
      EXPECT_EQ(Ids(registry->ZonesContaining(p, kind)), all_indexed);
      // The lowest id: the first of the ascending containing list.
      EXPECT_EQ(id_indexed, all_indexed.empty() ? -1 : all_indexed.front());
    }
    registry->SetIndexEnabled(true);
    const double limit_indexed = registry->SpeedLimitAt(p, 120.0);
    registry->SetIndexEnabled(false);
    EXPECT_EQ(registry->SpeedLimitAt(p, 120.0), limit_indexed);
  }
  registry->SetIndexEnabled(true);
}

// Probes no index may answer with a zone: NaN, infinite, huge and mixed
// coordinates.
std::vector<Point> NonFiniteProbes() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Point> probes;
  for (const double bad : {nan, inf, -inf, 1e300, -1e300, 1e9, -1e9}) {
    probes.push_back({bad, 50.85});
    probes.push_back({4.35, bad});
    probes.push_back({bad, bad});
  }
  return probes;
}

// Seeded probes over \p registry: uniform points around and far beyond
// the zones (negative coordinates included), every zone box's corners and
// edge midpoints, exact grid-cell boundaries, and the non-finite probes.
std::vector<Point> SeededProbes(const GeofenceRegistry& registry,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> probes;
  for (int i = 0; i < 1500; ++i) {
    probes.push_back({rng.Uniform(2.0, 7.0), rng.Uniform(49.0, 52.0)});
  }
  for (int i = 0; i < 200; ++i) {
    probes.push_back({rng.Uniform(-200.0, 200.0), rng.Uniform(-100.0, 100.0)});
  }
  for (const Zone& z : registry.zones()) {
    const meos::GeoBox b = z.BoundingBox();
    const double mx = 0.5 * (b.xmin + b.xmax);
    const double my = 0.5 * (b.ymin + b.ymax);
    for (const Point& p : {Point{b.xmin, b.ymin}, Point{b.xmax, b.ymax},
                           Point{b.xmin, my}, Point{b.xmax, my},
                           Point{mx, b.ymin}, Point{mx, b.ymax},
                           Point{mx, my}}) {
      probes.push_back(p);
    }
  }
  // Grid-cell boundaries (the default 0.05-degree cells), and one cell
  // either side.
  for (int k = 40; k <= 130; ++k) {
    const double x = k * 0.05;
    probes.push_back({x, 50.85});
    probes.push_back({x, rng.Uniform(49.0, 52.0)});
    probes.push_back({4.35, 48.0 + 0.05 * (k - 40) * 0.5});
    probes.push_back({std::nextafter(x, 0.0), std::nextafter(50.4, 0.0)});
  }
  for (const Point& p : NonFiniteProbes()) probes.push_back(p);
  return probes;
}

TEST_F(RegistryTest, IndexAndLinearScanAgree) {
  std::vector<Point> probes;
  for (int i = 0; i < 200; ++i) {
    probes.push_back({3.9 + 0.002 * i, 49.95 + 0.0015 * i});
  }
  ExpectIndexMatchesScan(&registry_, probes);

  // The real inventory: every SNCB zone kind, weather polygons tiling the
  // country (adjacent cells share edges, so edge points lie in two zones
  // of one kind), seeded probes.
  const sncb::RailNetwork network = sncb::BuildBelgianNetwork();
  GeofenceRegistry sncb_registry;
  sncb::PopulateSncbGeofences(network, &sncb_registry);
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ExpectIndexMatchesScan(&sncb_registry, SeededProbes(sncb_registry, seed));
  }
}

TEST(RegistryIndex, NonFiniteAndFarProbesAnswerNoZone) {
  const sncb::RailNetwork network = sncb::BuildBelgianNetwork();
  GeofenceRegistry registry;
  sncb::PopulateSncbGeofences(network, &registry);
  const std::vector<Point> probes = NonFiniteProbes();
  for (const bool indexed : {true, false}) {
    registry.SetIndexEnabled(indexed);
    for (const Point& p : probes) {
      SCOPED_TRACE(::testing::Message() << "indexed=" << indexed << " ("
                                        << p.x << ", " << p.y << ")");
      for (const auto& kind : AllKindFilters()) {
        EXPECT_FALSE(registry.InAnyZone(p, kind));
        EXPECT_EQ(registry.ZoneIdAt(p, kind), -1);
        EXPECT_TRUE(registry.ZonesContaining(p, kind).empty());
      }
      EXPECT_EQ(registry.SpeedLimitAt(p, 120.0), 120.0);
    }
  }
}

TEST(RegistryIndex, EmptyRegistryAnswersNoZone) {
  GeofenceRegistry registry;
  std::vector<Point> probes = {{0.0, 0.0}, {4.35, 50.85}, {-3.0, -7.5}};
  for (const Point& p : NonFiniteProbes()) probes.push_back(p);
  for (const Point& p : probes) {
    EXPECT_FALSE(registry.InAnyZone(p));
    EXPECT_EQ(registry.ZoneIdAt(p), -1);
    EXPECT_EQ(registry.SpeedLimitAt(p, 90.0), 90.0);
  }
  ExpectIndexMatchesScan(&registry, probes);
}

TEST(RegistryIndex, ZonesAddedAfterAProbeAreIndexed) {
  GeofenceRegistry registry;
  registry.AddPolygonZone("a", ZoneKind::kStation, Rect(4.0, 50.0, 4.1, 50.1));
  const Point far{-3.55, -7.45};  // outside the first grid extent
  EXPECT_FALSE(registry.InAnyZone(far));
  const int64_t b = registry.AddCircleZone("b", ZoneKind::kHighRisk,
                                           Circle{far, 2000.0}, 50.0);
  EXPECT_TRUE(registry.InAnyZone(far));
  EXPECT_EQ(registry.ZoneIdAt(far, ZoneKind::kHighRisk), b);
  EXPECT_EQ(registry.SpeedLimitAt(far, 120.0), 50.0);
  EXPECT_TRUE(registry.InAnyZone({4.05, 50.05}, ZoneKind::kStation));
  ExpectIndexMatchesScan(&registry, {far, {4.05, 50.05}, {4.099, 50.001}});
}

TEST(RegistryIndex, OverlappingSameKindZonesAnswerTheLowestId) {
  GeofenceRegistry registry;
  const int64_t wide = registry.AddPolygonZone(
      "wide", ZoneKind::kMaintenance, Rect(4.0, 50.0, 4.5, 50.5), 60.0);
  const int64_t inner = registry.AddPolygonZone(
      "inner", ZoneKind::kMaintenance, Rect(4.2, 50.2, 4.3, 50.3), 30.0);
  const int64_t circle = registry.AddCircleZone(
      "circle", ZoneKind::kMaintenance, Circle{{4.25, 50.25}, 500.0}, 80.0);
  const Point p{4.25, 50.25};
  for (const bool indexed : {true, false}) {
    registry.SetIndexEnabled(indexed);
    EXPECT_EQ(registry.ZoneIdAt(p, ZoneKind::kMaintenance), wide);
    EXPECT_EQ(Ids(registry.ZonesContaining(p)),
              (std::vector<int64_t>{wide, inner, circle}));
    // The minimum limit wins, whatever the visiting order.
    EXPECT_EQ(registry.SpeedLimitAt(p, 120.0), 30.0);
    EXPECT_EQ(registry.ZoneIdAt({4.05, 50.05}), wide);
    EXPECT_EQ(registry.ZoneIdAt(p, ZoneKind::kStation), -1);
  }
  ExpectIndexMatchesScan(&registry, SeededProbes(registry, 7));
}

TEST(RegistryIndex, ZonesBeyondTheGridBudgetAreStillFound) {
  // Planar coordinates in metres at the default 0.05 cell size: the boxes
  // would span ~10^15 cells, so lookups take the linear scan — with the
  // same answers.
  GeofenceRegistry registry(Metric::kCartesian);
  const int64_t site = registry.AddPolygonZone(
      "site", ZoneKind::kWorkshop, Rect(0.0, 0.0, 2e6, 3e6), 25.0);
  const int64_t yard = registry.AddPolygonZone(
      "yard", ZoneKind::kStation, Rect(1e6, 1e6, 1.1e6, 1.1e6), 15.0);
  const Point inside{1.05e6, 1.05e6};
  EXPECT_EQ(registry.ZoneIdAt(inside), site);
  EXPECT_EQ(registry.ZoneIdAt(inside, ZoneKind::kStation), yard);
  EXPECT_EQ(registry.SpeedLimitAt(inside, 120.0), 15.0);
  EXPECT_FALSE(registry.InAnyZone({-5.0, 7.0}));
  std::vector<Point> probes = {inside, {5e5, 2.5e6}, {-5.0, 7.0},
                               {2e6, 3e6}};
  for (const Point& p : NonFiniteProbes()) probes.push_back(p);
  ExpectIndexMatchesScan(&registry, probes);
}

TEST(SncbGeofences, PopulatesAllKinds) {
  const sncb::RailNetwork network = sncb::BuildBelgianNetwork();
  GeofenceRegistry registry;
  sncb::PopulateSncbGeofences(network, &registry);
  EXPECT_GE(registry.NumZones(), 20u);
  EXPECT_GE(registry.NumPois(), 3u);
  int counts[6] = {0};
  for (const Zone& z : registry.zones()) {
    counts[static_cast<int>(z.kind)]++;
  }
  EXPECT_EQ(counts[static_cast<int>(ZoneKind::kStation)], 12);
  EXPECT_EQ(counts[static_cast<int>(ZoneKind::kWorkshop)], 3);
  EXPECT_EQ(counts[static_cast<int>(ZoneKind::kMaintenance)], 2);
  EXPECT_EQ(counts[static_cast<int>(ZoneKind::kNoiseSensitive)], 3);
  EXPECT_EQ(counts[static_cast<int>(ZoneKind::kHighRisk)], 3);
  EXPECT_EQ(counts[static_cast<int>(ZoneKind::kWeather)], 6);
  // Brussels-Midi station zone contains its own center.
  const Zone* bm = registry.FindZone("station:Brussels-Midi");
  ASSERT_NE(bm, nullptr);
  EXPECT_TRUE(bm->Contains({4.3355, 50.8357}));
}

TEST(ZoneKindName, AllNamed) {
  EXPECT_STREQ(ZoneKindName(ZoneKind::kMaintenance), "maintenance");
  EXPECT_STREQ(ZoneKindName(ZoneKind::kStation), "station");
  EXPECT_STREQ(ZoneKindName(ZoneKind::kWorkshop), "workshop");
  EXPECT_STREQ(ZoneKindName(ZoneKind::kNoiseSensitive), "noise_sensitive");
  EXPECT_STREQ(ZoneKindName(ZoneKind::kHighRisk), "high_risk");
  EXPECT_STREQ(ZoneKindName(ZoneKind::kWeather), "weather");
}

}  // namespace
}  // namespace nebulameos::integration
