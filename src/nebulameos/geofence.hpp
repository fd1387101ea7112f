/// \file geofence.hpp
/// \brief Geofence registry: named zones and points of interest with a
/// flat spatial grid index.
///
/// "A geofence is a boundary that limits a location. It can be created
/// dynamically in a radius from the center of the area or by setting the
/// boundaries to perimeters" (paper §3.1). The registry holds both forms —
/// circles and polygons — tagged by kind (maintenance zone, station,
/// workshop, noise-sensitive neighbourhood, high-risk segment, weather
/// zone), plus point POIs. Queries resolve zones by name or by containment.
///
/// Containment lookups go through a uniform grid over the zones' bounding
/// boxes (MEOS-style box pruning before exact geometry tests), stored flat
/// in CSR form: one offsets array and one array of zone indices, each
/// cell's list in ascending zone order, plus one byte per cell holding the
/// bitmask of the `ZoneKind`s present — a kind-filtered probe of a cell
/// without that kind costs one load. The grid spans only the cells the
/// zones cover and is rebuilt by every `Add*Zone`. A probe at a non-finite
/// coordinate, or outside that extent, is rejected before any integer
/// conversion and answers "no zone", exactly as the linear scan does. The
/// A1 ablation benchmark can disable the index (`SetIndexEnabled`).

#pragma once

#include <cstdint>
#include <optional>
#include <variant>

#include "meos/tgeompoint.hpp"

namespace nebulameos::integration {

using meos::Circle;
using meos::Metric;
using meos::Point;
using meos::Polygon;

/// Category of a geofence zone.
enum class ZoneKind {
  kMaintenance,
  kStation,
  kWorkshop,
  kNoiseSensitive,
  kHighRisk,
  kWeather,
};

/// Human-readable zone-kind name.
const char* ZoneKindName(ZoneKind kind);

/// \brief One registered geofence.
struct Zone {
  int64_t id = 0;
  std::string name;
  ZoneKind kind = ZoneKind::kMaintenance;
  std::variant<Polygon, Circle> shape;
  /// Advisory speed limit inside the zone (km/h); 0 = none.
  double speed_limit_kmh = 0.0;

  /// Bounding box of the shape (circles use a conservative WGS84 box).
  meos::GeoBox BoundingBox() const;

  /// True iff \p p lies inside the zone.
  bool Contains(const Point& p) const;

  /// Metric distance from \p p to the zone (0 inside).
  double DistanceTo(const Point& p) const;
};

/// \brief A named point of interest (e.g. a workshop's gate).
struct Poi {
  int64_t id = 0;
  std::string name;
  std::string kind;  ///< free-form tag, e.g. "workshop"
  Point location;
};

/// \brief Registry of zones and POIs with containment lookups.
///
/// Thread-compatible: build single-threaded (every `Add*Zone` re-indexes),
/// then share read-only across query threads — lookups never mutate.
class GeofenceRegistry {
 public:
  /// \p metric selects WGS84 (default) or planar coordinates;
  /// \p cell_deg is the grid-index cell size in coordinate units.
  explicit GeofenceRegistry(Metric metric = Metric::kWgs84,
                            double cell_deg = 0.05);

  /// Registers a polygon zone; returns its id. Every `Add*Zone` rebuilds
  /// the whole grid from all zones, so adding n zones one by one costs
  /// O(n x cells) in total.
  int64_t AddPolygonZone(std::string name, ZoneKind kind, Polygon polygon,
                         double speed_limit_kmh = 0.0);

  /// Registers a circular zone; returns its id. Rebuilds the grid, as
  /// `AddPolygonZone` does.
  int64_t AddCircleZone(std::string name, ZoneKind kind, Circle circle,
                        double speed_limit_kmh = 0.0);

  /// Registers a POI; returns its id.
  int64_t AddPoi(std::string name, std::string kind, Point location);

  /// Zone by name.
  const Zone* FindZone(const std::string& name) const;
  /// Zone by id.
  const Zone* FindZone(int64_t id) const;
  /// POI by name.
  const Poi* FindPoi(const std::string& name) const;

  /// All zones containing \p p, optionally restricted to \p kind, in
  /// ascending id order.
  std::vector<const Zone*> ZonesContaining(
      const Point& p, std::optional<ZoneKind> kind = std::nullopt) const;

  /// True iff some zone (of \p kind, when given) contains \p p.
  bool InAnyZone(const Point& p,
                 std::optional<ZoneKind> kind = std::nullopt) const;

  /// Lowest id of a zone containing \p p (kind-filtered), or -1.
  int64_t ZoneIdAt(const Point& p,
                   std::optional<ZoneKind> kind = std::nullopt) const;

  /// The lowest advisory speed limit among zones containing \p p, or
  /// \p default_kmh when none applies.
  double SpeedLimitAt(const Point& p, double default_kmh) const;

  /// Batch forms of the three probes above for compiled kernels: entry
  /// \p i of \p out answers the probe at (`xs[i]`, `ys[i]`) — `InAnyZone`
  /// as 0/1, `ZoneIdAt` as the id. No allocation; one call serves the batch.
  void InAnyZone(const double* xs, const double* ys, size_t n,
                 std::optional<ZoneKind> kind, double* out) const;
  void ZoneIdAt(const double* xs, const double* ys, size_t n,
                std::optional<ZoneKind> kind, double* out) const;
  void SpeedLimitAt(const double* xs, const double* ys, size_t n,
                    double default_kmh, double* out) const;

  /// Nearest POI of \p kind; distance (meters in WGS84) returned through
  /// \p out_distance when non-null.
  const Poi* NearestPoi(const Point& p, const std::string& kind,
                        double* out_distance = nullptr) const;

  /// Enables/disables the grid index (A1 ablation: linear scan vs pruned
  /// lookup).
  void SetIndexEnabled(bool enabled) { index_enabled_ = enabled; }
  bool index_enabled() const { return index_enabled_; }

  size_t NumZones() const { return zones_.size(); }
  size_t NumPois() const { return pois_.size(); }
  Metric metric() const { return metric_; }
  const std::vector<Zone>& zones() const { return zones_; }
  const std::vector<Poi>& pois() const { return pois_; }

 private:
  /// Rebuilds the flat grid over every zone's bounding box.
  void Reindex();

  /// Calls `visit(zone)` for every candidate zone that may contain \p p —
  /// the zones of \p p's grid cell, or every zone when the index is off —
  /// in ascending id order, skipping zones of another kind, until `visit`
  /// returns true. Allocation-free; the exact containment test is the
  /// visitor's.
  template <typename Visit>
  void VisitCandidates(const Point& p, std::optional<ZoneKind> kind,
                       const Visit& visit) const;

  Metric metric_;
  double cell_deg_;
  bool index_enabled_ = true;
  std::vector<Zone> zones_;
  std::vector<Poi> pois_;

  // The flat grid covers cells [cell_x0_, cell_x0_ + cells_x_) ×
  // [cell_y0_, cell_y0_ + cells_y_), where a coordinate's cell is
  // floor(coord / cell_deg_); cell (cx, cy) is row-major slot
  // (cy - cell_y0_) * cells_x_ + (cx - cell_x0_). When the zones' boxes are
  // non-finite or span more than a fixed cell budget, the grid stays empty
  // and `grid_linear_` routes every lookup through the linear scan.
  double cell_x0_ = 0.0;
  double cell_y0_ = 0.0;
  size_t cells_x_ = 0;
  size_t cells_y_ = 0;
  bool grid_linear_ = false;
  std::vector<uint32_t> cell_begin_;  ///< CSR offsets, one per cell + 1
  std::vector<uint32_t> cell_zones_;  ///< zone indices, ascending per cell
  std::vector<uint8_t> cell_kinds_;   ///< bit (1 << kind) per kind present
};

}  // namespace nebulameos::integration
