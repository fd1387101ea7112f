/// \file weather.hpp
/// \brief Synthetic weather provider — the OpenMeteo substitute.
///
/// Q4 joins the train stream with per-zone weather. The live OpenMeteo API
/// is replaced by a seeded generator producing hour-stable conditions per
/// weather zone (docs/ARCHITECTURE.md, "SNCB fleet simulation"): every
/// (zone, hour) hashes to a condition
/// and intensity, so runs are reproducible and the join path is exercised
/// identically.

#pragma once

#include <cstdint>
#include <string>

#include "common/random.hpp"
#include "common/time.hpp"

namespace nebulameos::sncb {

/// Weather conditions in increasing severity.
enum class WeatherCondition : int64_t {
  kClear = 0,
  kRain = 1,
  kHeavyRain = 2,
  kSnow = 3,
  kFog = 4,
};

/// Human-readable condition name.
const char* WeatherConditionName(WeatherCondition c);

/// Advisory speed limit (km/h) for a condition at intensity in [0,1]
/// (paper Q4: "suggest speed limits for zones with conditions such as heavy
/// rain, snow, or fog").
double WeatherSpeedLimitKmh(WeatherCondition c, double intensity,
                            double default_kmh);

/// \brief One weather observation.
struct WeatherSample {
  WeatherCondition condition = WeatherCondition::kClear;
  double intensity = 0.0;  ///< [0, 1]
  double temperature_c = 12.0;
};

/// Index of the weather grid cell containing (lon, lat) — the same 3x2
/// grid `PopulateSncbGeofences` registers as weather zones. Clamped to the
/// grid, so every position maps to a cell (a NaN coordinate to the first
/// row or column).
int64_t WeatherCellOf(double lon, double lat);

/// \brief Deterministic per-zone weather: conditions are stable within an
/// hour and evolve smoothly via seeded hashing.
class WeatherProvider {
 public:
  explicit WeatherProvider(uint64_t seed) : seed_(seed) {}

  /// The weather in \p zone_id at time \p t.
  WeatherSample Sample(int64_t zone_id, Timestamp t) const;

 private:
  uint64_t seed_;
};

}  // namespace nebulameos::sncb
