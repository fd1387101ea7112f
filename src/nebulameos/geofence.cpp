#include "nebulameos/geofence.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace nebulameos::integration {

const char* ZoneKindName(ZoneKind kind) {
  switch (kind) {
    case ZoneKind::kMaintenance:
      return "maintenance";
    case ZoneKind::kStation:
      return "station";
    case ZoneKind::kWorkshop:
      return "workshop";
    case ZoneKind::kNoiseSensitive:
      return "noise_sensitive";
    case ZoneKind::kHighRisk:
      return "high_risk";
    case ZoneKind::kWeather:
      return "weather";
  }
  return "?";
}

meos::GeoBox Zone::BoundingBox() const {
  if (const auto* poly = std::get_if<Polygon>(&shape)) {
    return poly->bbox();
  }
  const Circle& c = std::get<Circle>(shape);
  // Conservative degree margin for the metric radius.
  const double margin = meos::MetersToDegreeMargin(c.radius, c.center.y);
  meos::GeoBox box = meos::GeoBox::Empty();
  box.Extend(c.center);
  return box.Expanded(margin);
}

bool Zone::Contains(const Point& p) const {
  if (const auto* poly = std::get_if<Polygon>(&shape)) {
    return poly->Contains(p);
  }
  const Circle& c = std::get<Circle>(shape);
  return meos::PointCircleDistance(p, c, Metric::kWgs84) == 0.0;
}

double Zone::DistanceTo(const Point& p) const {
  if (const auto* poly = std::get_if<Polygon>(&shape)) {
    return meos::PointPolygonDistance(p, *poly, Metric::kWgs84);
  }
  return meos::PointCircleDistance(p, std::get<Circle>(shape),
                                   Metric::kWgs84);
}

GeofenceRegistry::GeofenceRegistry(Metric metric, double cell_deg)
    : metric_(metric), cell_deg_(cell_deg) {}

int64_t GeofenceRegistry::AddPolygonZone(std::string name, ZoneKind kind,
                                         Polygon polygon,
                                         double speed_limit_kmh) {
  Zone zone;
  zone.id = static_cast<int64_t>(zones_.size());
  zone.name = std::move(name);
  zone.kind = kind;
  zone.shape = std::move(polygon);
  zone.speed_limit_kmh = speed_limit_kmh;
  zones_.push_back(std::move(zone));
  Reindex();
  return zones_.back().id;
}

int64_t GeofenceRegistry::AddCircleZone(std::string name, ZoneKind kind,
                                        Circle circle,
                                        double speed_limit_kmh) {
  Zone zone;
  zone.id = static_cast<int64_t>(zones_.size());
  zone.name = std::move(name);
  zone.kind = kind;
  zone.shape = circle;
  zone.speed_limit_kmh = speed_limit_kmh;
  zones_.push_back(std::move(zone));
  Reindex();
  return zones_.back().id;
}

int64_t GeofenceRegistry::AddPoi(std::string name, std::string kind,
                                 Point location) {
  Poi poi;
  poi.id = static_cast<int64_t>(pois_.size());
  poi.name = std::move(name);
  poi.kind = std::move(kind);
  poi.location = location;
  pois_.push_back(std::move(poi));
  return pois_.back().id;
}

const Zone* GeofenceRegistry::FindZone(const std::string& name) const {
  for (const Zone& z : zones_) {
    if (z.name == name) return &z;
  }
  return nullptr;
}

const Zone* GeofenceRegistry::FindZone(int64_t id) const {
  if (id < 0 || static_cast<size_t>(id) >= zones_.size()) return nullptr;
  return &zones_[static_cast<size_t>(id)];
}

const Poi* GeofenceRegistry::FindPoi(const std::string& name) const {
  for (const Poi& p : pois_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

namespace {

// Grid budgets: zones whose boxes would need more cells (or more cell
// entries) than this are served by the linear scan instead.
constexpr double kMaxGridCells = double{1 << 22};
constexpr double kMaxGridEntries = double{1 << 24};

uint8_t KindBit(ZoneKind kind) {
  return static_cast<uint8_t>(1u << static_cast<unsigned>(kind));
}

}  // namespace

void GeofenceRegistry::Reindex() {
  cell_begin_.clear();
  cell_zones_.clear();
  cell_kinds_.clear();
  cells_x_ = 0;
  cells_y_ = 0;
  grid_linear_ = false;
  if (zones_.empty()) return;

  // Each zone's inclusive cell range, kept in floating point until the
  // extent is known to be finite and within budget.
  struct CellRange {
    double x0, y0, x1, y1;
  };
  std::vector<CellRange> ranges;
  ranges.reserve(zones_.size());
  double x0 = std::numeric_limits<double>::infinity();
  double y0 = x0;
  double x1 = -x0;
  double y1 = -x0;
  double entries = 0.0;
  for (const Zone& z : zones_) {
    const meos::GeoBox box = z.BoundingBox();
    const CellRange r{std::floor(box.xmin / cell_deg_),
                      std::floor(box.ymin / cell_deg_),
                      std::floor(box.xmax / cell_deg_),
                      std::floor(box.ymax / cell_deg_)};
    if (!std::isfinite(r.x0) || !std::isfinite(r.y0) ||
        !std::isfinite(r.x1) || !std::isfinite(r.y1) || r.x1 < r.x0 ||
        r.y1 < r.y0) {
      grid_linear_ = true;
      return;
    }
    entries += (r.x1 - r.x0 + 1.0) * (r.y1 - r.y0 + 1.0);
    x0 = std::min(x0, r.x0);
    y0 = std::min(y0, r.y0);
    x1 = std::max(x1, r.x1);
    y1 = std::max(y1, r.y1);
    ranges.push_back(r);
  }
  const double nx = x1 - x0 + 1.0;
  const double ny = y1 - y0 + 1.0;
  if (nx * ny > kMaxGridCells || entries > kMaxGridEntries) {
    grid_linear_ = true;
    return;
  }

  cell_x0_ = x0;
  cell_y0_ = y0;
  cells_x_ = static_cast<size_t>(nx);
  cells_y_ = static_cast<size_t>(ny);
  const size_t num_cells = cells_x_ * cells_y_;
  auto for_each_cell = [&](const CellRange& r, const auto& fn) {
    const auto cx0 = static_cast<size_t>(r.x0 - x0);
    const auto cx1 = static_cast<size_t>(r.x1 - x0);
    for (auto cy = static_cast<size_t>(r.y0 - y0);
         cy <= static_cast<size_t>(r.y1 - y0); ++cy) {
      for (size_t cx = cx0; cx <= cx1; ++cx) fn(cy * cells_x_ + cx);
    }
  };
  cell_begin_.assign(num_cells + 1, 0);
  cell_kinds_.assign(num_cells, 0);
  for (const CellRange& r : ranges) {
    for_each_cell(r, [&](size_t cell) { ++cell_begin_[cell + 1]; });
  }
  for (size_t c = 0; c < num_cells; ++c) cell_begin_[c + 1] += cell_begin_[c];
  cell_zones_.resize(cell_begin_.back());
  std::vector<uint32_t> fill(cell_begin_.begin(), cell_begin_.end() - 1);
  // Zones in ascending index order, so every cell's list stays ascending.
  for (size_t z = 0; z < zones_.size(); ++z) {
    const uint8_t bit = KindBit(zones_[z].kind);
    for_each_cell(ranges[z], [&](size_t cell) {
      cell_zones_[fill[cell]++] = static_cast<uint32_t>(z);
      cell_kinds_[cell] |= bit;
    });
  }
}

template <typename Visit>
void GeofenceRegistry::VisitCandidates(const Point& p,
                                       std::optional<ZoneKind> kind,
                                       const Visit& visit) const {
  if (!index_enabled_ || grid_linear_) {
    for (const Zone& z : zones_) {
      if (kind && z.kind != *kind) continue;
      if (visit(z)) return;
    }
    return;
  }
  // The range check runs in floating point: a NaN, infinite or far-away
  // coordinate fails it and is never converted to an index.
  const double fx = std::floor(p.x / cell_deg_) - cell_x0_;
  const double fy = std::floor(p.y / cell_deg_) - cell_y0_;
  if (!(fx >= 0.0 && fx < static_cast<double>(cells_x_) && fy >= 0.0 &&
        fy < static_cast<double>(cells_y_))) {
    return;
  }
  const size_t cell =
      static_cast<size_t>(fy) * cells_x_ + static_cast<size_t>(fx);
  if ((cell_kinds_[cell] & (kind ? KindBit(*kind) : uint8_t{0xff})) == 0) {
    return;
  }
  for (uint32_t i = cell_begin_[cell]; i < cell_begin_[cell + 1]; ++i) {
    const Zone& z = zones_[cell_zones_[i]];
    if (kind && z.kind != *kind) continue;
    if (visit(z)) return;
  }
}

std::vector<const Zone*> GeofenceRegistry::ZonesContaining(
    const Point& p, std::optional<ZoneKind> kind) const {
  std::vector<const Zone*> out;
  VisitCandidates(p, kind, [&](const Zone& z) {
    if (z.Contains(p)) out.push_back(&z);
    return false;
  });
  return out;
}

bool GeofenceRegistry::InAnyZone(const Point& p,
                                 std::optional<ZoneKind> kind) const {
  bool found = false;
  VisitCandidates(p, kind, [&](const Zone& z) {
    found = z.Contains(p);
    return found;
  });
  return found;
}

int64_t GeofenceRegistry::ZoneIdAt(const Point& p,
                                   std::optional<ZoneKind> kind) const {
  int64_t id = -1;
  VisitCandidates(p, kind, [&](const Zone& z) {
    if (!z.Contains(p)) return false;
    id = z.id;
    return true;
  });
  return id;
}

double GeofenceRegistry::SpeedLimitAt(const Point& p,
                                      double default_kmh) const {
  double limit = default_kmh;
  VisitCandidates(p, std::nullopt, [&](const Zone& z) {
    // A zone whose limit cannot lower the running minimum needs no exact
    // containment test.
    if (z.speed_limit_kmh > 0.0 && z.speed_limit_kmh < limit &&
        z.Contains(p)) {
      limit = z.speed_limit_kmh;
    }
    return false;
  });
  return limit;
}

void GeofenceRegistry::InAnyZone(const double* xs, const double* ys, size_t n,
                                 std::optional<ZoneKind> kind,
                                 double* out) const {
  for (size_t i = 0; i < n; ++i) {
    out[i] = InAnyZone(Point{xs[i], ys[i]}, kind) ? 1.0 : 0.0;
  }
}

void GeofenceRegistry::ZoneIdAt(const double* xs, const double* ys, size_t n,
                                std::optional<ZoneKind> kind,
                                double* out) const {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(ZoneIdAt(Point{xs[i], ys[i]}, kind));
  }
}

void GeofenceRegistry::SpeedLimitAt(const double* xs, const double* ys,
                                    size_t n, double default_kmh,
                                    double* out) const {
  for (size_t i = 0; i < n; ++i) {
    out[i] = SpeedLimitAt(Point{xs[i], ys[i]}, default_kmh);
  }
}

const Poi* GeofenceRegistry::NearestPoi(const Point& p,
                                        const std::string& kind,
                                        double* out_distance) const {
  const Poi* best = nullptr;
  double best_d = std::numeric_limits<double>::infinity();
  for (const Poi& poi : pois_) {
    if (!kind.empty() && poi.kind != kind) continue;
    const double d = meos::PointDistance(p, poi.location, metric_);
    if (d < best_d) {
      best_d = d;
      best = &poi;
    }
  }
  if (out_distance != nullptr) {
    *out_distance = best ? best_d : std::numeric_limits<double>::infinity();
  }
  return best;
}

}  // namespace nebulameos::integration
