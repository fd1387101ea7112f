/// \file gcep_trains.cpp
/// \brief The paper's §3.2 demonstration: the four geospatial
/// complex-event-processing queries — battery health, passenger overload,
/// unscheduled stops and brake degradation.
///
/// Run: `example_gcep_trains [events]` (default 400000).

#include <cstdio>

#include "common/cli.hpp"
#include "queries/queries.hpp"

using namespace nebulameos;           // NOLINT
using namespace nebulameos::nebula;   // NOLINT
using namespace nebulameos::queries;  // NOLINT

int main(int argc, char** argv) {
  const uint64_t events = PositiveArgOrExit(argc, argv, 1, 400'000, "[events]");

  auto env = DemoEnvironment::Create();
  if (!env.ok()) {
    std::fprintf(stderr, "environment: %s\n", env.status().ToString().c_str());
    return 1;
  }
  QueryOptions options;
  options.max_events = events;
  options.sink = SinkMode::kCollect;

  std::printf("NebulaMEOS GCEP demo — %llu events from 6 trains\n",
              static_cast<unsigned long long>(events));
  std::printf("(train 2 has a degrading battery; train 4 degrading "
              "brakes)\n\n");

  // Q5: battery-curve deviation windows with nearest-workshop annotation.
  {
    auto built = BuildQ5BatteryMonitoring(**env, options);
    NodeEngine engine;
    auto id = engine.Submit(std::move(built->plan));
    (void)engine.RunToCompletion(*id);
    const auto rows = built->collect->Rows();
    std::printf("Q5 battery monitoring: %zu deviation alerts\n", rows.size());
    for (size_t i = 0; i < rows.size() && i < 3; ++i) {
      const auto& r = rows[i];
      std::printf("    train %lld deviated %.2f V avg for %llds; nearest "
                  "workshop %.1f km\n",
                  static_cast<long long>(ValueAsInt64(r[0])),
                  ValueAsDouble(r[3]),
                  static_cast<long long>(
                      (ValueAsInt64(r[2]) - ValueAsInt64(r[1])) /
                      kMicrosPerSecond),
                  ValueAsDouble(r[10]) / 1000.0);
    }
  }
  // Q6: heavy passenger load.
  {
    auto built = BuildQ6HeavyLoad(**env, options);
    NodeEngine engine;
    auto id = engine.Submit(std::move(built->plan));
    (void)engine.RunToCompletion(*id);
    const auto rows = built->collect->Rows();
    std::printf("\nQ6 heavy passenger load: %zu overload windows "
                "(extra train suggested)\n",
                rows.size());
    for (size_t i = 0; i < rows.size() && i < 3; ++i) {
      const auto& r = rows[i];
      std::printf("    train %lld averaged %.0f passengers (seats %.0f) in "
                  "the 5 min before %s\n",
                  static_cast<long long>(ValueAsInt64(r[0])),
                  ValueAsDouble(r[3]), ValueAsDouble(r[5]),
                  FormatTimestamp(ValueAsInt64(r[2])).c_str());
    }
  }
  // Q7: unscheduled stops (probability raised for a short demo stream).
  {
    QueryOptions stop_options = options;
    stop_options.fleet.unscheduled_stop_prob = 4e-4;
    auto built = BuildQ7UnscheduledStops(**env, stop_options);
    NodeEngine engine;
    auto id = engine.Submit(std::move(built->plan));
    (void)engine.RunToCompletion(*id);
    const auto rows = built->collect->Rows();
    std::printf("\nQ7 unscheduled stops: %zu flagged\n", rows.size());
    for (size_t i = 0; i < rows.size() && i < 3; ++i) {
      const auto& r = rows[i];
      std::printf("    train %lld halted %lld readings at (%.4f, %.4f) — "
                  "outside any station/workshop\n",
                  static_cast<long long>(ValueAsInt64(r[0])),
                  static_cast<long long>(ValueAsInt64(r[3])),
                  ValueAsDouble(r[4]), ValueAsDouble(r[5]));
    }
  }
  // Q8: repeated emergency braking.
  {
    auto built = BuildQ8BrakeMonitoring(**env, options);
    NodeEngine engine;
    auto id = engine.Submit(std::move(built->plan));
    (void)engine.RunToCompletion(*id);
    const auto rows = built->collect->Rows();
    std::printf("\nQ8 brake monitoring: %zu repeated-emergency alerts\n",
                rows.size());
    for (size_t i = 0; i < rows.size() && i < 3; ++i) {
      const auto& r = rows[i];
      std::printf("    train %lld: two emergencies within %llds (pressure "
                  "floor %.1f bar) near (%.4f, %.4f)\n",
                  static_cast<long long>(ValueAsInt64(r[0])),
                  static_cast<long long>(
                      (ValueAsInt64(r[2]) - ValueAsInt64(r[1])) /
                      kMicrosPerSecond),
                  std::min(ValueAsDouble(r[3]), ValueAsDouble(r[4])),
                  ValueAsDouble(r[5]), ValueAsDouble(r[6]));
    }
  }
  return 0;
}
