// Tests for the SNCB substrate: rail network, weather provider, fleet
// simulator determinism and signal invariants, per-query schemas.

#include <gtest/gtest.h>

#include <limits>

#include "sncb/network.hpp"
#include "sncb/records.hpp"
#include "sncb/train_sim.hpp"
#include "sncb/weather.hpp"

namespace nebulameos::sncb {
namespace {

TEST(RailNetwork, BelgianNetworkShape) {
  const RailNetwork net = BuildBelgianNetwork();
  EXPECT_EQ(net.stations().size(), 12u);
  EXPECT_EQ(net.lines().size(), 6u);
  for (size_t i = 0; i < net.lines().size(); ++i) {
    EXPECT_GT(net.LineLengthMeters(i), 20'000.0) << net.lines()[i].name;
    EXPECT_LT(net.LineLengthMeters(i), 350'000.0) << net.lines()[i].name;
  }
}

TEST(RailNetwork, PositionAlongClampsAndInterpolates) {
  const RailNetwork net = BuildBelgianNetwork();
  const RailLine& line = net.lines()[0];
  const meos::Point start = net.PositionAlong(0, -100.0);
  EXPECT_DOUBLE_EQ(start.x, line.path.front().x);
  const meos::Point end = net.PositionAlong(0, 1e9);
  EXPECT_DOUBLE_EQ(end.x, line.path.back().x);
  // Midpoint is strictly between the ends.
  const meos::Point mid = net.PositionAlong(0, net.LineLengthMeters(0) / 2);
  EXPECT_NE(mid.x, start.x);
  EXPECT_NE(mid.x, end.x);
}

TEST(RailNetwork, PositionAlongIsArcLengthAccurate) {
  const RailNetwork net = BuildBelgianNetwork();
  // Walk in 1 km steps; consecutive points must be ~1 km apart.
  for (double m = 0.0; m + 1000.0 < net.LineLengthMeters(0); m += 25'000.0) {
    const meos::Point a = net.PositionAlong(0, m);
    const meos::Point b = net.PositionAlong(0, m + 1000.0);
    EXPECT_NEAR(meos::HaversineMeters(a, b), 1000.0, 25.0) << "at " << m;
  }
}

TEST(RailNetwork, StationsAlongFindsEndpoints) {
  const RailNetwork net = BuildBelgianNetwork();
  const auto stops = net.StationsAlong(0);
  // Line IC-1 passes Oostende, Brugge, Gent, Brussels, Leuven, Liège.
  EXPECT_GE(stops.size(), 5u);
  // Sorted by offset.
  for (size_t i = 1; i < stops.size(); ++i) {
    EXPECT_LT(stops[i - 1].first, stops[i].first);
  }
}

TEST(Weather, DeterministicPerZoneHour) {
  const WeatherProvider w(42);
  const Timestamp t = MakeTimestamp(2023, 6, 1, 9, 30, 0);
  const WeatherSample a = w.Sample(3, t);
  const WeatherSample b = w.Sample(3, t);
  EXPECT_EQ(a.condition, b.condition);
  EXPECT_DOUBLE_EQ(a.intensity, b.intensity);
  // Same hour, same condition.
  const WeatherSample c = w.Sample(3, t + Minutes(20));
  EXPECT_EQ(a.condition, c.condition);
}

TEST(Weather, ConditionsCoverSpectrumOverTime) {
  const WeatherProvider w(42);
  bool seen[5] = {false};
  for (int h = 0; h < 300; ++h) {
    const WeatherSample s =
        w.Sample(h % 6, MakeTimestamp(2023, 6, 1) + h * kMicrosPerHour);
    seen[static_cast<int>(s.condition)] = true;
    EXPECT_GE(s.intensity, 0.0);
    EXPECT_LE(s.intensity, 1.0);
  }
  for (int c = 0; c < 5; ++c) EXPECT_TRUE(seen[c]) << "condition " << c;
}

TEST(Weather, SpeedLimitMonotoneInSeverity) {
  const double base = 120.0;
  EXPECT_DOUBLE_EQ(
      WeatherSpeedLimitKmh(WeatherCondition::kClear, 1.0, base), base);
  const double rain = WeatherSpeedLimitKmh(WeatherCondition::kRain, 1.0, base);
  const double heavy =
      WeatherSpeedLimitKmh(WeatherCondition::kHeavyRain, 1.0, base);
  const double snow = WeatherSpeedLimitKmh(WeatherCondition::kSnow, 1.0, base);
  EXPECT_LT(rain, base);
  EXPECT_LT(heavy, rain);
  EXPECT_LT(snow, heavy);
  // Intensity scales toward the floor.
  EXPECT_GT(WeatherSpeedLimitKmh(WeatherCondition::kSnow, 0.2, base), snow);
}

TEST(Weather, CellMappingCoversBelgium) {
  EXPECT_EQ(WeatherCellOf(2.6, 49.5), 0);
  EXPECT_EQ(WeatherCellOf(5.9, 51.2), 5);
  // Clamped outside the grid.
  EXPECT_EQ(WeatherCellOf(-10.0, 45.0), 0);
  EXPECT_EQ(WeatherCellOf(10.0, 55.0), 5);
  // Non-finite and huge coordinates clamp too (NaN to the first row or
  // column), never through an out-of-range integer conversion.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(WeatherCellOf(nan, nan), 0);
  EXPECT_EQ(WeatherCellOf(inf, inf), 5);
  EXPECT_EQ(WeatherCellOf(-inf, 51.2), 3);
  EXPECT_EQ(WeatherCellOf(1e300, -1e300), 2);
  EXPECT_EQ(WeatherCellOf(5.9, nan), 2);
}

TEST(FleetSimulator, DeterministicStreams) {
  const RailNetwork net = BuildBelgianNetwork();
  FleetConfig config;
  config.seed = 7;
  FleetSimulator a(&net, config);
  FleetSimulator b(&net, config);
  for (int i = 0; i < 2000; ++i) {
    const TrainEvent ea = a.Next();
    const TrainEvent eb = b.Next();
    ASSERT_EQ(ea.train_id, eb.train_id);
    ASSERT_EQ(ea.ts, eb.ts);
    ASSERT_DOUBLE_EQ(ea.lon, eb.lon);
    ASSERT_DOUBLE_EQ(ea.speed_ms, eb.speed_ms);
    ASSERT_DOUBLE_EQ(ea.battery_v, eb.battery_v);
  }
}

TEST(FleetSimulator, DifferentSeedsDiverge) {
  const RailNetwork net = BuildBelgianNetwork();
  FleetConfig c1, c2;
  c1.seed = 1;
  c2.seed = 2;
  FleetSimulator a(&net, c1);
  FleetSimulator b(&net, c2);
  int differences = 0;
  for (int i = 0; i < 500; ++i) {
    if (a.Next().lon != b.Next().lon) ++differences;
  }
  EXPECT_GT(differences, 100);
}

TEST(FleetSimulator, SignalInvariants) {
  const RailNetwork net = BuildBelgianNetwork();
  FleetConfig config;
  FleetSimulator sim(&net, config);
  Timestamp last_ts[6] = {0};
  for (int i = 0; i < 50'000; ++i) {
    const TrainEvent ev = sim.Next();
    ASSERT_GE(ev.train_id, 0);
    ASSERT_LT(ev.train_id, 6);
    // Per-train timestamps strictly increase.
    ASSERT_GT(ev.ts, last_ts[ev.train_id]);
    last_ts[ev.train_id] = ev.ts;
    // Kinematics bounds.
    ASSERT_GE(ev.speed_ms, 0.0);
    ASSERT_LE(ev.speed_ms, config.cruise_speed_ms * 1.15);
    // Positions stay in the Belgian bounding box.
    ASSERT_GT(ev.lon, 2.3);
    ASSERT_LT(ev.lon, 6.3);
    ASSERT_GT(ev.lat, 49.3);
    ASSERT_LT(ev.lat, 51.6);
    // Sensor ranges.
    ASSERT_GT(ev.battery_v, 18.0);
    ASSERT_LT(ev.battery_v, 30.0);
    ASSERT_GE(ev.battery_soc, 0.0);
    ASSERT_LE(ev.battery_soc, 1.0);
    ASSERT_GT(ev.brake_pressure_bar, 0.5);
    ASSERT_LT(ev.brake_pressure_bar, 6.0);
    ASSERT_GE(ev.passengers, 0);
    ASSERT_LE(ev.passengers, config.seats * 5 / 4);
    ASSERT_GT(ev.noise_db, 30.0);
    ASSERT_LT(ev.noise_db, 110.0);
    if (ev.emergency_brake) {
      ASSERT_LE(ev.brake_pressure_bar, 2.2);
    }
  }
}

TEST(FleetSimulator, TrainsActuallyMoveAndStop) {
  const RailNetwork net = BuildBelgianNetwork();
  FleetSimulator sim(&net, {});
  bool seen_moving = false, seen_stopped = false, seen_cruise = false;
  for (int i = 0; i < 100'000; ++i) {
    const TrainEvent ev = sim.Next();
    if (ev.speed_ms > 1.0) seen_moving = true;
    if (ev.speed_ms == 0.0) seen_stopped = true;
    if (ev.speed_ms > 30.0) seen_cruise = true;
  }
  EXPECT_TRUE(seen_moving);
  EXPECT_TRUE(seen_stopped);
  EXPECT_TRUE(seen_cruise);
}

TEST(FleetSimulator, DegradedBatterySagsBelowCurve) {
  const RailNetwork net = BuildBelgianNetwork();
  FleetConfig config;
  FleetSimulator sim(&net, config);
  double max_dev_degraded = 0.0, max_dev_healthy = 0.0;
  for (int i = 0; i < 400'000; ++i) {
    const TrainEvent ev = sim.Next();
    if (!ev.on_battery) continue;
    const double dev = std::abs(
        ev.battery_v - FleetSimulator::NominalBatteryVoltage(ev.battery_soc));
    if (ev.train_id == config.degraded_battery_train) {
      max_dev_degraded = std::max(max_dev_degraded, dev);
    } else {
      max_dev_healthy = std::max(max_dev_healthy, dev);
    }
  }
  // The degraded train exceeds the 0.35 V alert band; healthy trains stay
  // well under it (sensor noise + load sag only).
  EXPECT_GT(max_dev_degraded, 0.8);
  EXPECT_LT(max_dev_healthy, 0.35);
}

TEST(FleetSimulator, DegradedBrakesEmergencyMoreOften) {
  const RailNetwork net = BuildBelgianNetwork();
  FleetConfig config;
  FleetSimulator sim(&net, config);
  int64_t emergencies[6] = {0};
  for (int i = 0; i < 600'000; ++i) {
    const TrainEvent ev = sim.Next();
    if (ev.emergency_brake) ++emergencies[ev.train_id];
  }
  int64_t others = 0;
  for (int t = 0; t < 6; ++t) {
    if (t != config.degraded_brake_train) others += emergencies[t];
  }
  EXPECT_GT(emergencies[config.degraded_brake_train], others);
}

TEST(FleetSimulator, NominalBatteryCurveShape) {
  // Monotone increasing in SOC, plausible 24 V-pack values.
  double prev = 0.0;
  for (double soc = 0.0; soc <= 1.0; soc += 0.1) {
    const double v = FleetSimulator::NominalBatteryVoltage(soc);
    EXPECT_GT(v, 22.0);
    EXPECT_LT(v, 28.0);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(Records, SchemaSizesMatchPaperRatios) {
  // Paper: 2.24 MB @ 20K e/s (112 B), 0.61 MB @ 8K (≈76 B),
  // 3.68 MB @ 32K (115 B), 0.40 MB @ 10K (40 B).
  EXPECT_EQ(GeofencingSchema().record_size(), 112u);
  EXPECT_EQ(BatterySchema().record_size(), 76u);
  EXPECT_EQ(PassengerSchema().record_size(), 115u);
  EXPECT_EQ(PositionSchema().record_size(), 40u);
}

TEST(Records, EncodeEventType) {
  TrainEvent ev;
  EXPECT_EQ(EncodeEventType(ev), "normal");
  ev.speeding_alert = true;
  EXPECT_EQ(EncodeEventType(ev), "speeding");
  ev.equipment_alert = true;
  EXPECT_EQ(EncodeEventType(ev), "speeding+equipment");
  ev.speeding_alert = false;
  ev.emergency_brake = true;
  EXPECT_EQ(EncodeEventType(ev), "equipment!");
}

TEST(Records, SourcesProduceSchemaConformantRecords) {
  const RailNetwork net = BuildBelgianNetwork();
  SncbSources sources(&net);
  auto source = sources.Geofencing(100);
  nebula::TupleBuffer buf(GeofencingSchema(), 100);
  auto more = source->Fill(&buf);
  ASSERT_TRUE(more.ok());
  ASSERT_EQ(buf.size(), 100u);
  for (size_t i = 0; i < buf.size(); ++i) {
    const auto rec = buf.At(i);
    EXPECT_GE(rec.GetInt64(0), 0);
    EXPECT_GT(rec.GetInt64(1), 0);
    EXPECT_GT(rec.GetDouble(2), 2.0);  // lon
    EXPECT_GT(rec.GetDouble(3), 49.0);  // lat
    EXPECT_FALSE(rec.GetText(10).empty());
  }
  EXPECT_GT(buf.watermark(), 0);
}

TEST(Records, SourcesShareOneSimulatorStream) {
  const RailNetwork net = BuildBelgianNetwork();
  SncbSources sources(&net);
  auto a = sources.Position(10);
  auto b = sources.Position(10);
  nebula::TupleBuffer buf_a(PositionSchema(), 10);
  nebula::TupleBuffer buf_b(PositionSchema(), 10);
  ASSERT_TRUE(a->Fill(&buf_a).ok());
  ASSERT_TRUE(b->Fill(&buf_b).ok());
  // The two sources continue the same fleet stream: timestamps advance.
  EXPECT_GT(buf_b.At(0).GetInt64(1), buf_a.At(9).GetInt64(1) - Seconds(1));
}

TEST(Records, MaxEventsBoundsSources) {
  const RailNetwork net = BuildBelgianNetwork();
  SncbSources sources(&net);
  auto source = sources.Battery(25);
  nebula::TupleBuffer buf(BatterySchema(), 100);
  auto more = source->Fill(&buf);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  EXPECT_EQ(buf.size(), 25u);
}

}  // namespace
}  // namespace nebulameos::sncb
