#include "swarm/mobility.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

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
  current_.reserve(config_.devices);
  for (auto& segs : segments_) {
    const Point p{rng_.next_double() * config_.field_size,
                  rng_.next_double() * config_.field_size};
    current_.push_back(Segment{sim::Time::zero(), sim::Time::zero(), p, p});
    segs.push_back(current_.back());
  }
}

Point RandomWaypointMobility::Segment::at(sim::Time t) const {
  if (end == start) return to;
  const double frac = static_cast<double>((t - start).ns()) /
                      static_cast<double>((end - start).ns());
  const double f = std::clamp(frac, 0.0, 1.0);
  return Point{from.x + (to.x - from.x) * f, from.y + (to.y - from.y) * f};
}

void RandomWaypointMobility::extend(DeviceId node, sim::Time until) {
  Segment& last = current_[node];
  if (last.end >= until) return;
  // A stationary device parks for this long per leg, and a leg too slow
  // for the clock is cut here.
  constexpr sim::Duration kHorizon = sim::Duration::hours(1000);
  auto& segs = segments_[node];
  // Legs that fell behind the floor since this device last extended.
  segs.erase(segs.begin(),
             std::find_if(segs.begin(), segs.end(),
                          [this](const Segment& leg) { return kept(leg); }));
  do {
    const Point from = last.to;
    const Point to{rng_.next_double() * config_.field_size,
                   rng_.next_double() * config_.field_size};
    const double speed =
        config_.speed_min +
        rng_.next_double() * (config_.speed_max - config_.speed_min);
    const double dist = distance(from, to);
    if (speed <= 1e-9) {
      // Stationary model: park at the current spot for a long "segment".
      last = Segment{last.end, last.end + kHorizon, from, from};
    } else if (const double travel_ns = std::max(dist / speed, 1e-3) * 1e9;
               travel_ns < 0x1p64 &&
               static_cast<uint64_t>(travel_ns) <=
                   sim::Time::max().ns() - last.end.ns()) {
      last = Segment{last.end,
                     last.end + sim::Duration(static_cast<uint64_t>(travel_ns)),
                     from, to};
    } else {
      // The travel time runs past the nanosecond clock (a few nm/s across
      // the field): cut the leg at the horizon, at the point the drawn
      // speed reaches by then, so the device never outruns that speed.
      // A run's clock stays far below its end, so such a travel time
      // dwarfs the horizon and `share` is below 1.
      const double share = speed * kHorizon.to_seconds() / dist;
      const Point stop{from.x + (to.x - from.x) * share,
                       from.y + (to.y - from.y) * share};
      last = Segment{last.end, last.end + kHorizon, from, stop};
    }
    if (kept(last)) segs.push_back(last);
  } while (last.end < until);
}

Point RandomWaypointMobility::position(DeviceId node, sim::Time t) {
  if (node >= current_.size()) {
    throw std::out_of_range("RandomWaypointMobility: bad device id");
  }
  extend(node, t);
  // Legs are contiguous, so no earlier leg holds a t at or after the
  // current leg's start: the search below would pick this leg too.
  const Segment& last = current_[node];
  if (t >= last.start) return last.at(t);
  // An earlier instant: binary search the history for the segment
  // containing t (the current leg ends after t, so one does; at or after
  // the floor, that segment is still kept).
  if (floor_ && t < *floor_) {
    throw std::logic_error(
        "RandomWaypointMobility: position at t = " + std::to_string(t.ns()) +
        " ns is before the floor at " + std::to_string(floor_->ns()) +
        " ns");
  }
  const auto& segs = segments_[node];
  const auto it = std::upper_bound(
      segs.begin(), segs.end(), t,
      [](sim::Time value, const Segment& s) { return value < s.end; });
  return it->at(t);
}

void RandomWaypointMobility::forget_before(sim::Time t) {
  if (!floor_ || *floor_ < t) floor_ = t;
}

bool RandomWaypointMobility::reaches(DeviceId node, sim::Time t) const {
  if (node >= current_.size()) {
    throw std::out_of_range("RandomWaypointMobility: bad device id");
  }
  return current_[node].end >= t;
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
