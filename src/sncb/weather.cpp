#include "sncb/weather.hpp"

#include <algorithm>
#include <cmath>

namespace nebulameos::sncb {

const char* WeatherConditionName(WeatherCondition c) {
  switch (c) {
    case WeatherCondition::kClear:
      return "clear";
    case WeatherCondition::kRain:
      return "rain";
    case WeatherCondition::kHeavyRain:
      return "heavy_rain";
    case WeatherCondition::kSnow:
      return "snow";
    case WeatherCondition::kFog:
      return "fog";
  }
  return "?";
}

double WeatherSpeedLimitKmh(WeatherCondition c, double intensity,
                            double default_kmh) {
  // Severity-scaled advisory limits; intensity interpolates toward the
  // worst case.
  double floor_kmh = default_kmh;
  switch (c) {
    case WeatherCondition::kClear:
      return default_kmh;
    case WeatherCondition::kRain:
      floor_kmh = 110.0;
      break;
    case WeatherCondition::kHeavyRain:
      floor_kmh = 80.0;
      break;
    case WeatherCondition::kSnow:
      floor_kmh = 60.0;
      break;
    case WeatherCondition::kFog:
      floor_kmh = 70.0;
      break;
  }
  const double limit =
      default_kmh - (default_kmh - floor_kmh) * std::clamp(intensity, 0.0, 1.0);
  return std::min(default_kmh, limit);
}

namespace {

// Truncates \p v into [0, max] in floating point before converting, so a
// NaN, infinite or far-away coordinate still lands in an edge cell.
int GridIndex(double v, int max) {
  return v >= 1.0 ? static_cast<int>(std::min(v, static_cast<double>(max)))
                  : 0;
}

}  // namespace

int64_t WeatherCellOf(double lon, double lat) {
  const int gx = GridIndex((lon - 2.5) / 1.2, 2);
  const int gy = GridIndex((lat - 49.4) / 1.0, 1);
  return gx + 3 * gy;
}

WeatherSample WeatherProvider::Sample(int64_t zone_id, Timestamp t) const {
  // Hour-stable hash -> condition; sub-hour phase modulates intensity.
  const int64_t hour = t / kMicrosPerHour;
  SplitMix64 mix(seed_ ^ (static_cast<uint64_t>(zone_id) * 0x9e3779b1ULL) ^
                 static_cast<uint64_t>(hour));
  const uint64_t h = mix.Next();
  WeatherSample sample;
  // 55% clear, 18% rain, 9% heavy rain, 9% snow, 9% fog.
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u < 0.55) {
    sample.condition = WeatherCondition::kClear;
  } else if (u < 0.73) {
    sample.condition = WeatherCondition::kRain;
  } else if (u < 0.82) {
    sample.condition = WeatherCondition::kHeavyRain;
  } else if (u < 0.91) {
    sample.condition = WeatherCondition::kSnow;
  } else {
    sample.condition = WeatherCondition::kFog;
  }
  // Intensity ramps within the hour so consecutive samples vary smoothly.
  const double phase =
      static_cast<double>(t % kMicrosPerHour) / static_cast<double>(kMicrosPerHour);
  const double base = static_cast<double>(mix.Next() >> 11) * 0x1.0p-53;
  sample.intensity =
      sample.condition == WeatherCondition::kClear
          ? 0.0
          : std::clamp(0.3 + 0.6 * base + 0.2 * std::sin(phase * 2.0 * M_PI),
                       0.0, 1.0);
  sample.temperature_c =
      sample.condition == WeatherCondition::kSnow
          ? -2.0 + 4.0 * base
          : 8.0 + 12.0 * base;
  return sample;
}

}  // namespace nebulameos::sncb
