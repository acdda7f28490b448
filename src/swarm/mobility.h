// Random-waypoint mobility model over a square field.
//
// Each device moves toward a random waypoint at a random speed, picks a new
// waypoint on arrival, and is connected to every device within radio range
// (in_range(), the one range test every link path evaluates).
// Trajectories are generated lazily and kept back to the floor, so
// position(node, t) is well-defined for any t at or after the floor,
// already reached or not, and the model can be queried out of order within
// a protocol round (hops at different times). forget_before(t) raises the
// floor: the caller's promise that no later query asks before t. A leg
// that ends at or before the floor is dropped when it is drawn or when its
// device next extends, so a floored model keeps a few legs per device
// however long it runs; a model nobody floors keeps every leg.
//
// Each device's latest leg also sits in one contiguous current-leg table
// (48 B per device). reaches(), and position() at or after that leg's
// start, read only the table; only an earlier instant searches the kept
// history (and throws below the floor). The table is a copy of each
// device's last drawn leg, and the floor only decides which legs are
// kept: neither changes a draw.
//
// The `speed` knob is the mobility-rate axis of the paper's §6 argument:
// at speed 0 the topology is static and on-demand swarm RA works; as speed
// grows, tree edges break mid-protocol and coverage collapses -- while
// ERASMUS collection, needing only momentary per-hop connectivity, degrades
// far more slowly.
#pragma once

#include <optional>
#include <vector>

#include "common/parallel.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "swarm/topology.h"

namespace erasmus::swarm {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

double distance(Point a, Point b);

struct MobilityConfig {
  size_t devices = 20;
  double field_size = 100.0;   // square side, metres
  double radio_range = 30.0;   // connectivity radius, metres
  double speed_min = 0.5;      // metres/second
  double speed_max = 2.0;
  uint64_t seed = 42;
};

class RandomWaypointMobility {
 public:
  /// One straight leg of a trajectory: from `from` at `start` to `to` at
  /// `end`. A device's legs are time-ordered and contiguous.
  struct Segment {
    sim::Time start;
    sim::Time end;
    Point from;
    Point to;

    /// Where the leg puts its device at `t` (start <= t), clamped to `to`.
    Point at(sim::Time t) const;
  };

  explicit RandomWaypointMobility(MobilityConfig config);

  Point position(DeviceId node, sim::Time t);

  /// True when `node`'s trajectory already reaches `t`, i.e. position(node,
  /// t) would draw nothing from the shared RNG. A caller that skips a
  /// position query must first know it could not have extended anything:
  /// skipping an extension shifts every later draw (DETERMINISM.md R4).
  bool reaches(DeviceId node, sim::Time t) const;

  /// The range test, distance(a, b) <= radio_range. connected(),
  /// snapshot() and RadioLinks::reachable() all call it, so no two paths
  /// can round a borderline pair differently (DETERMINISM.md R5).
  bool in_range(Point a, Point b) const;

  bool connected(DeviceId a, DeviceId b, sim::Time t);

  /// Full adjacency snapshot at time t.
  Topology snapshot(sim::Time t);

  /// Parallelizes the O(n^2) range test inside snapshot() (positions and
  /// trajectory extension stay sequential -- they consume the shared RNG
  /// in device order). Each worker row computes into its own slot with
  /// the EXACT same floating-point predicate, and the edges are merged
  /// sequentially in row order, so the resulting Topology is bit-for-bit
  /// the serial one. nullptr (the default) keeps the serial loop.
  void set_executor(common::ParallelExecutor* executor) {
    executor_ = executor;
  }

  /// Raises the floor to `t` (it never falls): no later query may ask for
  /// an instant before `t`. A later position() query that needs a leg
  /// from before the floor throws std::logic_error.
  void forget_before(sim::Time t);

  const MobilityConfig& config() const { return config_; }
  /// The legs `node` keeps, time-ordered: every leg it has been given so
  /// far, back to the floor.
  const std::vector<Segment>& segments(DeviceId node) const {
    return segments_.at(node);
  }

 private:
  void extend(DeviceId node, sim::Time until);
  /// False for a leg that ends at or before the floor.
  bool kept(const Segment& leg) const {
    return !floor_ || leg.end > *floor_;
  }

  MobilityConfig config_;
  sim::Rng rng_;
  common::ParallelExecutor* executor_ = nullptr;  // not owned
  std::vector<Segment> current_;                // per node, the latest leg
  std::vector<std::vector<Segment>> segments_;  // per node, time-ordered
  std::optional<sim::Time> floor_;  // none: every leg is kept
};

}  // namespace erasmus::swarm
