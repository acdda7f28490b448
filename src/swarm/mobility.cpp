#include "swarm/mobility.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/strings.h"

namespace erasmus::swarm {

double distance(Point a, Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

RandomWaypointMobility::RandomWaypointMobility(MobilityConfig config)
    : config_(config), rng_(config.seed), segments_(config.devices) {
  if (config_.devices == 0) {
    throw std::invalid_argument("RandomWaypointMobility: need >= 1 device");
  }
  // Each test is written so that NaN fails it.
  const MobilityConfig& c = config_;
  require_value(c.field_size > 0.0 && std::isfinite(c.field_size),
                "RandomWaypointMobility: field size", "finite and > 0",
                c.field_size);
  require_value(c.radio_range >= 0.0 && std::isfinite(c.radio_range),
                "RandomWaypointMobility: radio range", "finite and >= 0",
                c.radio_range);
  require_value(c.speed_min >= 0.0, "RandomWaypointMobility: speed_min",
                ">= 0", c.speed_min);
  require_value(c.speed_max >= c.speed_min && std::isfinite(c.speed_max),
                "RandomWaypointMobility: speed_max", "finite and >= speed_min",
                c.speed_max);
  // Initial positions: uniform over the field; a zero-length first segment
  // anchors each trajectory at t = 0.
  for (auto& segs : segments_) {
    const Point p{rng_.next_double() * config_.field_size,
                  rng_.next_double() * config_.field_size};
    segs.push_back(Segment{sim::Time::zero(), sim::Time::zero(), p, p});
  }
}

void RandomWaypointMobility::extend(DeviceId node, sim::Time until) {
  auto& segs = segments_[node];
  while (segs.back().end < until) {
    const Segment& last = segs.back();
    const Point from = last.to;
    const Point to{rng_.next_double() * config_.field_size,
                   rng_.next_double() * config_.field_size};
    double speed = config_.speed_min +
                   rng_.next_double() * (config_.speed_max - config_.speed_min);
    const double dist = distance(from, to);
    sim::Duration travel;
    if (speed <= 1e-9) {
      // Stationary model: park at the current spot for a long "segment".
      travel = sim::Duration::hours(1000);
      segs.push_back(Segment{last.end, last.end + travel, from, from});
      continue;
    }
    travel = sim::Duration(
        static_cast<uint64_t>(std::max(dist / speed, 1e-3) * 1e9));
    segs.push_back(Segment{last.end, last.end + travel, from, to});
  }
}

Point RandomWaypointMobility::position(DeviceId node, sim::Time t) {
  if (node >= segments_.size()) {
    throw std::out_of_range("RandomWaypointMobility: bad device id");
  }
  extend(node, t);
  const auto& segs = segments_[node];
  // Binary search for the segment containing t.
  auto it = std::upper_bound(
      segs.begin(), segs.end(), t,
      [](sim::Time value, const Segment& s) { return value < s.end; });
  if (it == segs.end()) it = segs.end() - 1;
  const Segment& s = *it;
  if (s.end == s.start) return s.to;
  const double frac =
      static_cast<double>((t - s.start).ns()) /
      static_cast<double>((s.end - s.start).ns());
  const double f = std::clamp(frac, 0.0, 1.0);
  return Point{s.from.x + (s.to.x - s.from.x) * f,
               s.from.y + (s.to.y - s.from.y) * f};
}

bool RandomWaypointMobility::reaches(DeviceId node, sim::Time t) const {
  if (node >= segments_.size()) {
    throw std::out_of_range("RandomWaypointMobility: bad device id");
  }
  return segments_[node].back().end >= t;
}

bool RandomWaypointMobility::in_range(Point a, Point b) const {
  return distance(a, b) <= config_.radio_range;
}

bool RandomWaypointMobility::connected(DeviceId a, DeviceId b, sim::Time t) {
  return in_range(position(a, t), position(b, t));
}

Topology RandomWaypointMobility::snapshot(sim::Time t) {
  Topology topo(config_.devices);
  std::vector<Point> pos(config_.devices);
  // Positions are computed sequentially even with an executor: extend()
  // consumes the SHARED trajectory RNG lazily, and that consumption order
  // must be a pure function of the query sequence, never of threading.
  for (DeviceId v = 0; v < config_.devices; ++v) pos[v] = position(v, t);
  if (executor_ != nullptr && config_.devices > 1) {
    // Each row's neighbor list goes into its own slot; the merge below is
    // sequential in row order, so the adjacency bits are written in the
    // exact order the serial loop writes them. The range predicate is the
    // serial one (sqrt included): a squared-distance shortcut would flip
    // borderline edges and diverge every downstream result.
    const size_t n = config_.devices;
    std::vector<std::vector<DeviceId>> nbrs(n);
    executor_->run(n, [&](size_t a) {
      for (size_t b = a + 1; b < n; ++b) {
        if (in_range(pos[a], pos[b])) {
          nbrs[a].push_back(static_cast<DeviceId>(b));
        }
      }
    });
    for (DeviceId a = 0; a < n; ++a) {
      for (const DeviceId b : nbrs[a]) topo.add_edge(a, b);
    }
    return topo;
  }
  for (DeviceId a = 0; a < config_.devices; ++a) {
    for (DeviceId b = a + 1; b < config_.devices; ++b) {
      if (in_range(pos[a], pos[b])) topo.add_edge(a, b);
    }
  }
  return topo;
}

}  // namespace erasmus::swarm
