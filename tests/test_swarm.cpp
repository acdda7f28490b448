// Tests for the swarm layer (§6): topology, mobility, the radio's
// neighbour grid and reachability, the on-demand vs. ERASMUS-collection
// protocol comparison and staggered scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "swarm/mobility.h"
#include "swarm/protocols.h"
#include "swarm/radio_links.h"
#include "swarm/topology.h"

namespace erasmus::swarm {
namespace {

using sim::Duration;
using sim::Time;

TEST(Topology, EdgesAreUndirected) {
  Topology t(4);
  t.add_edge(0, 1);
  EXPECT_TRUE(t.connected(0, 1));
  EXPECT_TRUE(t.connected(1, 0));
  EXPECT_FALSE(t.connected(0, 2));
  t.remove_edge(1, 0);
  EXPECT_FALSE(t.connected(0, 1));
}

TEST(Topology, SelfLoopsIgnoredAndBoundsChecked) {
  Topology t(3);
  t.add_edge(1, 1);
  EXPECT_FALSE(t.connected(1, 1));
  EXPECT_THROW(t.add_edge(0, 3), std::out_of_range);
  EXPECT_THROW(t.connected(3, 0), std::out_of_range);
  EXPECT_THROW(t.neighbors(99), std::out_of_range);
  EXPECT_THROW(t.neighbors(3), std::out_of_range);
}

TEST(Topology, NeighborsAndEdgeCount) {
  Topology t(5);
  t.add_edge(0, 1);
  t.add_edge(0, 2);
  t.add_edge(3, 4);
  EXPECT_EQ(t.neighbors(0), (std::vector<DeviceId>{1, 2}));
  EXPECT_EQ(t.edge_count(), 3u);
}

TEST(Topology, BfsTreeOnLine) {
  Topology t(4);
  t.add_edge(0, 1);
  t.add_edge(1, 2);
  t.add_edge(2, 3);
  const auto tree = t.bfs_tree(0);
  EXPECT_EQ(tree.reached, 4u);
  EXPECT_EQ(tree.max_depth(), 3u);
  EXPECT_EQ(*tree.parent[3], 2u);
  EXPECT_EQ(tree.children(1), (std::vector<DeviceId>{2}));
}

TEST(Topology, BfsTreeDisconnected) {
  Topology t(4);
  t.add_edge(0, 1);
  const auto tree = t.bfs_tree(0);
  EXPECT_EQ(tree.reached, 2u);
  EXPECT_FALSE(tree.parent[2].has_value());
  EXPECT_EQ(t.reachable_from(0), 2u);
  EXPECT_EQ(t.reachable_from(2), 1u);
}

TEST(Topology, SpanningTreeIgnoresUnreachableNodes) {
  // children()/max_depth() must skip nodes BFS never reached: an
  // unreachable node's depth slot is 0, which must not alias "child of
  // the root" or shrink/grow the depth.
  Topology t(6);
  t.add_edge(0, 1);
  t.add_edge(1, 2);
  // 3, 4, 5 form a separate island.
  t.add_edge(3, 4);
  t.add_edge(4, 5);
  const auto tree = t.bfs_tree(0);
  EXPECT_EQ(tree.reached, 3u);
  EXPECT_EQ(tree.max_depth(), 2u) << "island depths must not count";
  EXPECT_EQ(tree.children(0), (std::vector<DeviceId>{1}))
      << "unreachable nodes are nobody's children";
  EXPECT_EQ(tree.children(3), std::vector<DeviceId>{})
      << "an unreachable node has no children in the tree";
  for (DeviceId island : {3u, 4u, 5u}) {
    EXPECT_FALSE(tree.parent[island].has_value());
  }
}

TEST(Topology, SpanningTreeSingleNodeGraph) {
  Topology t(1);
  const auto tree = t.bfs_tree(0);
  EXPECT_EQ(tree.reached, 1u);
  EXPECT_EQ(tree.max_depth(), 0u);
  ASSERT_TRUE(tree.parent[0].has_value());
  EXPECT_EQ(*tree.parent[0], 0u) << "root is its own parent";
  EXPECT_EQ(tree.children(0), std::vector<DeviceId>{})
      << "the root must not list itself as a child";
  EXPECT_EQ(t.reachable_from(0), 1u);
  EXPECT_EQ(t.edge_count(), 0u);
}

TEST(Topology, EdgeRemovalMidTreeDropsSubtree) {
  // A tree built before churn keeps its (now stale) parents; rebuilding
  // after removing a tree edge loses exactly the severed subtree -- the
  // on-demand-protocol failure mode the overlay exists to avoid.
  Topology t(5);
  t.add_edge(0, 1);
  t.add_edge(1, 2);
  t.add_edge(2, 3);
  t.add_edge(3, 4);
  const auto before = t.bfs_tree(0);
  EXPECT_EQ(before.reached, 5u);
  EXPECT_EQ(before.max_depth(), 4u);

  t.remove_edge(1, 2);
  // The old snapshot is unchanged (it is a value, not a view)...
  EXPECT_EQ(*before.parent[2], 1u);
  // ...but a rebuild sees the severed subtree vanish.
  const auto after = t.bfs_tree(0);
  EXPECT_EQ(after.reached, 2u);
  EXPECT_EQ(after.max_depth(), 1u);
  EXPECT_FALSE(after.parent[2].has_value());
  EXPECT_FALSE(after.parent[4].has_value());
  EXPECT_EQ(after.children(1), std::vector<DeviceId>{});

  // Removing an already-absent edge is a no-op, not corruption.
  t.remove_edge(1, 2);
  EXPECT_EQ(t.bfs_tree(0).reached, 2u);
}

TEST(Mobility, DeterministicPerSeed) {
  MobilityConfig cfg;
  cfg.devices = 5;
  cfg.seed = 9;
  RandomWaypointMobility a(cfg), b(cfg);
  const Time t = Time::zero() + Duration::minutes(30);
  for (DeviceId v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(a.position(v, t).x, b.position(v, t).x);
    EXPECT_DOUBLE_EQ(a.position(v, t).y, b.position(v, t).y);
  }
}

TEST(Mobility, PositionsStayInField) {
  MobilityConfig cfg;
  cfg.devices = 8;
  cfg.field_size = 50.0;
  RandomWaypointMobility m(cfg);
  for (int minutes = 0; minutes < 120; minutes += 10) {
    for (DeviceId v = 0; v < 8; ++v) {
      const Point p = m.position(v, Time::zero() + Duration::minutes(minutes));
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 50.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 50.0);
    }
  }
}

TEST(Mobility, StationaryWhenSpeedZero) {
  MobilityConfig cfg;
  cfg.devices = 3;
  cfg.speed_min = 0.0;
  cfg.speed_max = 0.0;
  RandomWaypointMobility m(cfg);
  const Point p0 = m.position(1, Time::zero());
  const Point p1 = m.position(1, Time::zero() + Duration::hours(5));
  EXPECT_DOUBLE_EQ(p0.x, p1.x);
  EXPECT_DOUBLE_EQ(p0.y, p1.y);
}

TEST(Mobility, RejectsOutOfRangeConfigIncludingNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejects = [](MobilityConfig cfg, const char* value) {
    try {
      RandomWaypointMobility m(cfg);
      ADD_FAILURE() << "accepted " << value;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos)
          << "the error must name the value: " << e.what();
    }
  };
  const MobilityConfig ok;
  for (const auto& [field, text] :
       {std::pair{0.0, "0"}, {-5.0, "-5"}, {nan, "nan"}, {inf, "inf"}}) {
    MobilityConfig cfg = ok;
    cfg.field_size = field;
    rejects(cfg, text);
  }
  for (const auto& [range, text] :
       {std::pair{-60.0, "-60"}, {nan, "nan"}, {inf, "inf"}}) {
    MobilityConfig cfg = ok;
    cfg.radio_range = range;
    rejects(cfg, text);
  }
  for (const auto& [speed, text] : {std::pair{-1.0, "-1"}, {nan, "nan"}}) {
    MobilityConfig cfg = ok;
    cfg.speed_min = speed;
    rejects(cfg, text);
  }
  for (const auto& [speed, text] :
       {std::pair{0.25, "0.25"}, {nan, "nan"}, {inf, "inf"}}) {
    MobilityConfig cfg = ok;
    cfg.speed_max = speed;  // 0.25 < speed_min 0.5
    rejects(cfg, text);
  }
  // The edges stay legal: zero range, and a static swarm.
  MobilityConfig edge = ok;
  edge.radio_range = 0.0;
  edge.speed_min = 0.0;
  edge.speed_max = 0.0;
  EXPECT_NO_THROW(RandomWaypointMobility{edge});
}

TEST(Mobility, OutOfOrderQueriesConsistent) {
  MobilityConfig cfg;
  cfg.devices = 2;
  RandomWaypointMobility m(cfg);
  const Point late = m.position(0, Time::zero() + Duration::minutes(60));
  const Point early = m.position(0, Time::zero() + Duration::minutes(10));
  const Point late_again = m.position(0, Time::zero() + Duration::minutes(60));
  EXPECT_DOUBLE_EQ(late.x, late_again.x);
  EXPECT_DOUBLE_EQ(late.y, late_again.y);
  (void)early;
}

TEST(Mobility, SnapshotMatchesPairwiseConnectivity) {
  MobilityConfig cfg;
  cfg.devices = 6;
  cfg.radio_range = 40.0;
  RandomWaypointMobility m(cfg);
  const Time t = Time::zero() + Duration::minutes(7);
  const Topology topo = m.snapshot(t);
  for (DeviceId a = 0; a < 6; ++a) {
    for (DeviceId b = a + 1; b < 6; ++b) {
      EXPECT_EQ(topo.connected(a, b), m.connected(a, b, t));
    }
  }
}

TEST(Mobility, ReachesTellsWhetherAQueryWouldDraw) {
  MobilityConfig cfg;
  cfg.devices = 3;
  RandomWaypointMobility m(cfg);
  const Time later = Time::zero() + Duration::minutes(45);
  EXPECT_TRUE(m.reaches(1, Time::zero()));
  EXPECT_FALSE(m.reaches(1, later));
  m.position(1, later);
  EXPECT_TRUE(m.reaches(1, later));
  EXPECT_FALSE(m.reaches(2, later)) << "extension is per device";
  EXPECT_THROW(m.reaches(3, later), std::out_of_range);
}

// position() answers at or after a device's current leg from the leg
// table and earlier instants from the kept history; reaches() reads the
// table. Both must agree with a plain binary search over the kept legs,
// bit for bit, on seeded queries: t = 0, instants exactly at a leg's
// start and end, instants before the current leg, and a static swarm.
Point searched_position(const RandomWaypointMobility& m, DeviceId v, Time t) {
  const auto& legs = m.segments(v);
  auto it = std::upper_bound(
      legs.begin(), legs.end(), t,
      [](Time value, const auto& leg) { return value < leg.end; });
  if (it == legs.end()) --it;
  if (it->end == it->start) return it->to;
  const double frac = static_cast<double>((t - it->start).ns()) /
                      static_cast<double>((it->end - it->start).ns());
  const double f = std::clamp(frac, 0.0, 1.0);
  return Point{it->from.x + (it->to.x - it->from.x) * f,
               it->from.y + (it->to.y - it->from.y) * f};
}

TEST(Mobility, PositionAndReachesMatchASearchOverTheKeptLegs) {
  for (const double speed : {2.0, 0.0}) {
    SCOPED_TRACE(speed);
    MobilityConfig cfg;
    cfg.devices = 6;
    cfg.speed_min = speed / 4;
    cfg.speed_max = speed;
    RandomWaypointMobility m(cfg);
    sim::Rng rng(17);
    Time clock = Time::zero();
    size_t from_table = 0;
    size_t from_history = 0;
    for (int q = 0; q < 6000; ++q) {
      const auto v = static_cast<DeviceId>(rng.next_below(cfg.devices));
      const auto& legs = m.segments(v);
      Time t;
      switch (rng.next_below(6)) {
        case 0:  // the clock, moving forward as the radio's queries do
          clock = clock + Duration::millis(rng.next_below(60'000));
          t = clock;
          break;
        case 1:
          t = Time::zero();
          break;
        case 2:
          t = legs[rng.next_below(legs.size())].start;
          break;
        case 3:
          t = legs[rng.next_below(legs.size())].end;
          break;
        case 4:  // the current leg's end: still the table's leg
          t = legs.back().end;
          break;
        default:  // anywhere up to the clock
          t = Time(rng.next_below(clock.ns() + 1));
          break;
      }
      const bool reached = m.segments(v).back().end >= t;
      ASSERT_EQ(m.reaches(v, t), reached) << "query " << q;
      const Point p = m.position(v, t);
      ASSERT_TRUE(m.reaches(v, t));
      const Point want = searched_position(m, v, t);
      ASSERT_EQ(p.x, want.x) << "query " << q << " at " << t.ns();
      ASSERT_EQ(p.y, want.y) << "query " << q << " at " << t.ns();
      ++(t >= m.segments(v).back().start ? from_table : from_history);
    }
    EXPECT_GT(from_table, 1000u);
    if (speed > 0.0) {
      EXPECT_GT(from_history, 1000u);
    }
  }
}

// A floored model draws exactly what an unfloored twin draws: every query
// at or after the floor -- the floor itself, t = 0 under a zero floor, a
// floor exactly at a kept leg's end or a nanosecond short of it, history
// instants behind the current leg -- gets the twin's position and
// reaches() answer bit for bit. What it keeps is a tail of the twin's
// legs; a query that extends a device drops every leg that ends by the
// floor, so it keeps a few legs per device where the twin keeps them all.
// A query that needs a leg from before the floor throws, naming both
// instants.
TEST(Mobility, FlooredModelAnswersAsItsUnflooredTwin) {
  MobilityConfig cfg;
  cfg.devices = 8;
  RandomWaypointMobility floored(cfg);
  RandomWaypointMobility twin(cfg);
  sim::Rng rng(23);
  Time floor = Time::zero();
  const auto same = [&](DeviceId v, Time t) {
    const bool extends = !twin.reaches(v, t);
    ASSERT_EQ(floored.reaches(v, t), !extends) << t.ns();
    const Point p = floored.position(v, t);
    const Point want = twin.position(v, t);
    ASSERT_EQ(p.x, want.x) << "device " << v << " at " << t.ns();
    ASSERT_EQ(p.y, want.y) << "device " << v << " at " << t.ns();
    const auto& kept = floored.segments(v);
    if (extends && !kept.empty()) {
      ASSERT_GT(kept.front().end, floor);
    }
  };

  floored.forget_before(floor);
  for (DeviceId v = 0; v < cfg.devices; ++v) same(v, Time::zero());
  Time clock = Time::zero();
  size_t from_history = 0;
  size_t at_a_leg_end = 0;
  size_t most_kept = 0;
  for (int step = 0; step < 400; ++step) {
    clock = clock + Duration::millis(rng.next_below(120'000));
    for (int q = 0; q < 24; ++q) {
      const auto v = static_cast<DeviceId>(rng.next_below(cfg.devices));
      Time t;
      switch (rng.next_below(4)) {
        case 0:
          t = floor;
          break;
        case 1:
          t = clock;
          break;
        default:  // anywhere from the floor to the clock
          t = floor + Duration(rng.next_below((clock - floor).ns() + 1));
          break;
      }
      same(v, t);
      // The twin's last leg is the current leg both models share.
      from_history += t < twin.segments(v).back().start;
      if (step == 0 && q < 4) same(v, Time::zero());
    }
    // Raise the floor: exactly to a kept leg's end (which drops it), one
    // nanosecond short of it (which keeps it), or to the clock, as the
    // runner raises it to each barrier.
    const auto v = static_cast<DeviceId>(rng.next_below(cfg.devices));
    const auto& legs = floored.segments(v);
    const Time end = legs.empty() ? floor : legs.front().end;
    const uint64_t how = rng.next_below(3);
    if (how < 2 && end > floor && end <= clock) {
      floor = end - Duration(how);
      ++at_a_leg_end;
    } else {
      floor = clock;
    }
    floored.forget_before(floor);
    same(v, floor);
    // What a device keeps is a tail of the twin's legs, bit for bit, and
    // every leg it dropped ends by the floor.
    for (DeviceId d = 0; d < cfg.devices; ++d) {
      const auto& kept = floored.segments(d);
      const auto& all = twin.segments(d);
      ASSERT_LE(kept.size(), all.size());
      const size_t dropped = all.size() - kept.size();
      for (size_t i = 0; i < kept.size(); ++i) {
        const auto& want = all[dropped + i];
        ASSERT_TRUE(kept[i].start == want.start && kept[i].end == want.end &&
                    kept[i].from.x == want.from.x &&
                    kept[i].from.y == want.from.y &&
                    kept[i].to.x == want.to.x && kept[i].to.y == want.to.y)
            << "device " << d << ", leg " << i;
      }
      if (dropped > 0) {
        ASSERT_LE(all[dropped - 1].end, floor);
      }
      most_kept = std::max(most_kept, kept.size());
    }
  }
  EXPECT_GT(from_history, 500u);
  EXPECT_GT(at_a_leg_end, 50u);
  // The clock moves up to two minutes a step and the floor lags it by at
  // most a step: the legs of about four minutes, against the twin's whole
  // run.
  EXPECT_LE(most_kept, 16u);
  size_t twin_legs = 0;
  for (DeviceId d = 0; d < cfg.devices; ++d) {
    twin_legs += twin.segments(d).size();
  }
  EXPECT_GT(twin_legs, 50 * cfg.devices);

  // Below the floor: a device whose current leg starts after the floor
  // needs its history, which is gone.
  floored.position(0, floor + Duration::hours(2));
  ASSERT_GT(floored.segments(0).back().start, floor);
  const Time before = floor - Duration(1);
  try {
    floored.position(0, before);
    FAIL() << "a query below the floor must throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(before.ns())), std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(floor.ns())), std::string::npos)
        << what;
  }
  // The floor never falls, and the throw changed nothing.
  floored.forget_before(Time::zero());
  EXPECT_THROW(floored.position(0, before), std::logic_error);
  twin.position(0, floor + Duration::hours(2));
  same(0, floor);
  same(0, floor + Duration::hours(3));
}

// A speed of a few nm/s puts a leg's travel time past the nanosecond
// clock (~584 years). Such a leg is cut at the stationary horizon, at the
// point its speed reaches by then: the device never outruns its speed.
// (It used to convert an out-of-range double, and devices teleported.)
TEST(Mobility, SlowLegNeverOutrunsItsSpeed) {
  MobilityConfig cfg;
  cfg.devices = 20;
  cfg.field_size = 566.0;
  cfg.speed_min = 2e-9;
  cfg.speed_max = 3e-9;
  RandomWaypointMobility m(cfg);
  const Duration horizon = Duration::hours(1000);
  for (DeviceId v = 0; v < cfg.devices; ++v) {
    const Point start = m.position(v, Time::zero());
    for (const Duration elapsed :
         {Duration::minutes(10), Duration::hours(24), horizon,
          horizon + Duration::hours(24)}) {
      const Point p = m.position(v, Time::zero() + elapsed);
      EXPECT_LE(distance(start, p),
                cfg.speed_max * elapsed.to_seconds() * (1 + 1e-9))
          << "device " << v << " after " << elapsed.to_seconds() << " s";
    }
    // Nor does it stall: by the horizon it has covered its drawn speed
    // times the horizon.
    const Point p = m.position(v, Time::zero() + horizon);
    EXPECT_GE(distance(start, p),
              cfg.speed_min * horizon.to_seconds() * (1 - 1e-9));
  }
}

// The grid may over-approximate but never drop a pair the range predicate
// accepts: every block is ascending and contains every point within
// radio_range -- including pairs exactly radio_range apart straddling
// cell boundaries, and points on the field's edges and corners. The
// unordered visitor covers the same ids as the block.
TEST(NeighbourGrid, BlockIsAnAscendingSupersetOfTheInRangeSet) {
  constexpr double kField = 300.0;
  constexpr double kRange = 30.0;
  std::vector<Point> pts = {{0, 0},          {kField, 0},     {0, kField},
                            {kField, kField}, {kField / 2, 0}, {kField, 150},
                            {0, 150},        {150, kField}};
  // Exactly-in-range pairs: horizontal, vertical and 3-4-5 diagonal
  // offsets of 30 m, anchored just below, on and just above multiples of
  // the range (where a grid with cell side == range puts its borders).
  for (int k = 0; k <= 10; ++k) {
    for (const double eps : {-1e-9, 0.0, 1e-9}) {
      const double x = std::clamp(k * kRange + eps, 0.0, kField);
      for (const double y : {0.0, 77.0, kField - kRange}) {
        pts.push_back({x, y});
        pts.push_back({x + kRange, y});
        pts.push_back({y, x});
        pts.push_back({y, x + kRange});
        pts.push_back({x + 18.0, y + 24.0});
      }
    }
  }
  sim::Rng rng(99);
  for (int i = 0; i < 400; ++i) {
    pts.push_back({rng.next_double() * kField, rng.next_double() * kField});
  }
  std::vector<NeighbourGrid::Entry> entries;
  for (DeviceId id = 0; id < pts.size(); ++id) entries.push_back({id, pts[id]});
  NeighbourGrid grid(kField, kRange);
  grid.build(entries);

  size_t boundary_pairs = 0;
  std::vector<DeviceId> block;
  std::vector<DeviceId> visited;
  for (DeviceId a = 0; a < pts.size(); ++a) {
    block.clear();
    grid.block(pts[a], block);
    ASSERT_TRUE(std::is_sorted(block.begin(), block.end()));
    ASSERT_EQ(std::adjacent_find(block.begin(), block.end()), block.end());
    visited.clear();
    grid.for_each_in_block(pts[a],
                           [&](DeviceId id) { visited.push_back(id); });
    std::sort(visited.begin(), visited.end());
    ASSERT_EQ(visited, block);
    EXPECT_LT(block.size(), pts.size()) << "the grid prunes nothing";
    for (DeviceId b = 0; b < pts.size(); ++b) {
      if (distance(pts[a], pts[b]) > kRange) continue;
      if (distance(pts[a], pts[b]) == kRange) ++boundary_pairs;
      EXPECT_TRUE(std::binary_search(block.begin(), block.end(), b))
          << "(" << pts[a].x << "," << pts[a].y << ") misses (" << pts[b].x
          << "," << pts[b].y << ")";
      EXPECT_TRUE(grid.in_block(pts[a], pts[b]));
    }
  }
  EXPECT_GT(boundary_pairs, 100u) << "exact-range pairs must be exercised";
}

TEST(NeighbourGrid, DegenerateGeometryFallsBackToFewCells) {
  // No range, no field: one cell holding everyone.
  NeighbourGrid flat(0.0, 0.0);
  flat.build({{0, {0, 0}}, {1, {0, 0}}});
  std::vector<DeviceId> out;
  flat.block({0, 0}, out);
  EXPECT_EQ(out, (std::vector<DeviceId>{0, 1}));
  // A range far below the field still yields a bounded grid, and the
  // block still covers points within range.
  NeighbourGrid fine(1e6, 1e-3);
  fine.build({{0, {10.0, 10.0}}, {1, {10.0005, 10.0}}, {2, {9e5, 9e5}}});
  out.clear();
  fine.block({10.0, 10.0}, out);
  EXPECT_EQ(out, (std::vector<DeviceId>{0, 1}));
}

// block() reads the 3x3 block back from a bitmap over the id range
// instead of sorting the visit. It must append exactly the sorted visit,
// whatever the membership: one cell (side 1), points on borders, corners
// and outside the field, empty cells, the largest id, and rebuilds with
// other members (a smaller and a larger largest id).
TEST(NeighbourGrid, BlockEqualsTheSortedVisit) {
  sim::Rng rng(5);
  constexpr DeviceId kIds = 5000;
  for (const auto& [field, range] :
       {std::pair{300.0, 30.0}, {50.0, 100.0}, {1000.0, 60.0}}) {
    NeighbourGrid grid(field, range);
    size_t empty = 0;
    size_t filled = 0;
    for (const double share : {0.05, 0.5, 0.01}) {
      std::vector<NeighbourGrid::Entry> entries;
      std::vector<Point> probes = {{0, 0}, {field, field}, {0, field},
                                   {field / 2, 0}, {-5, field + 5}};
      const DeviceId top = share == 0.5 ? kIds - 1 : kIds / 2;
      for (DeviceId id = 0; id <= top; ++id) {
        if (id != top && !rng.chance(share)) continue;
        // Every tenth member sits on a cell-aligned column or the border.
        const double column = static_cast<double>(rng.next_below(5)) / 4;
        const double x =
            rng.chance(0.1) ? field * column : rng.next_double() * field;
        const Point p{x, rng.next_double() * field};
        entries.push_back({id, p});
        if (probes.size() < 200) probes.push_back(p);
      }
      for (int i = 0; i < 100; ++i) {
        probes.push_back(
            {rng.next_double() * field, rng.next_double() * field});
      }
      grid.build(entries);
      std::vector<DeviceId> visited;
      std::vector<DeviceId> block;
      for (const Point p : probes) {
        visited.clear();
        grid.for_each_in_block(p,
                               [&](DeviceId id) { visited.push_back(id); });
        std::sort(visited.begin(), visited.end());
        block.assign({kIds + 7});  // block() appends
        grid.block(p, block);
        ASSERT_EQ(block.front(), kIds + 7);
        ASSERT_EQ(std::vector<DeviceId>(block.begin() + 1, block.end()),
                  visited)
            << "field " << field << ", probe (" << p.x << "," << p.y << ")";
        ++(visited.empty() ? empty : filled);
      }
    }
    EXPECT_GT(filled, 100u);
    if (field > 5 * range) {
      EXPECT_GT(empty, 0u) << "no empty block probed";
    }
  }
}

// The reachability BFS as RadioLinks::reachable() ran it before the grid
// kept per-cell lists of the members not reached yet: every member of a
// reached device's 3x3 block is scanned, and a bitmap skips the reached
// ones. Kept as the reference NeighbourGrid::reach must agree with.
template <typename Edge>
std::vector<DeviceId> block_scan_bfs(const NeighbourGrid& grid,
                                     const std::vector<Point>& pos,
                                     DeviceId root, Edge edge) {
  std::vector<bool> seen(pos.size(), false);
  seen[root] = true;
  std::vector<DeviceId> reached{root};
  for (size_t head = 0; head < reached.size(); ++head) {
    const DeviceId v = reached[head];
    grid.for_each_in_block(pos[v], [&](DeviceId u) {
      if (seen[u] || !edge(v, u)) return;
      seen[u] = true;
      reached.push_back(u);
    });
  }
  std::sort(reached.begin(), reached.end());
  return reached;
}

// NeighbourGrid::reach against the block-scan BFS on explicit points:
// exactly-in-range pairs straddling cell borders (horizontal, vertical and
// 3-4-5 offsets of the range), random fill, sparse ids, a seeded
// directional veto, many roots, and rebuilds with fewer members -- the
// reuse buffers must not carry a previous search or grid over.
TEST(NeighbourGrid, ReachEqualsTheBlockScanBfs) {
  constexpr double kField = 300.0;
  constexpr double kRange = 30.0;
  std::vector<Point> pts;
  for (int k = 0; k <= 9; ++k) {
    for (const double eps : {-1e-9, 0.0, 1e-9}) {
      const double x = k * kRange + eps;
      for (const double y : {5.0, 77.0, 150.0}) {
        pts.push_back({x, y});
        pts.push_back({x + kRange, y});
        pts.push_back({y, x});
        pts.push_back({y, x + kRange});
        pts.push_back({x + 18.0, y + 24.0});
      }
    }
  }
  sim::Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.next_double() * kField, rng.next_double() * kField});
  }
  const DeviceId n = static_cast<DeviceId>(pts.size());
  NeighbourGrid grid(kField, kRange);
  size_t exact_edges = 0;
  size_t largest = 0;
  for (const double share : {1.0, 0.6, 0.3}) {
    std::vector<NeighbourGrid::Entry> entries;
    for (DeviceId id = 0; id < n; ++id) {
      if (share == 1.0 || rng.chance(share)) entries.push_back({id, pts[id]});
    }
    grid.build(entries);
    for (const bool vetoed : {false, true}) {
      // A directional veto: v may not reach u, while u may reach v.
      const auto allowed = [&](DeviceId v, DeviceId u) {
        return !vetoed || (v * 7 + u * 3) % 5 != 0;
      };
      const auto edge = [&](DeviceId v, DeviceId u) {
        if (distance(pts[v], pts[u]) == kRange) ++exact_edges;
        return distance(pts[v], pts[u]) <= kRange && allowed(v, u);
      };
      for (int r = 0; r < 12; ++r) {
        const DeviceId root = entries[rng.next_below(entries.size())].id;
        std::vector<DeviceId> got{n + 5};  // reach() appends
        grid.reach(root,
                   [&](const NeighbourGrid::Entry& v,
                       const NeighbourGrid::Entry& u) {
                     EXPECT_EQ(v.p.x, pts[v.id].x);
                     EXPECT_EQ(u.p.y, pts[u.id].y);
                     return edge(v.id, u.id);
                   },
                   got);
        ASSERT_EQ(got.front(), n + 5);
        ASSERT_EQ(got[1], root) << "the root comes first";
        got.erase(got.begin());
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, block_scan_bfs(grid, pts, root, edge))
            << "share " << share << ", vetoed " << vetoed << ", root "
            << root;
        largest = std::max(largest, got.size());
      }
    }
  }
  EXPECT_GT(exact_edges, 100u) << "exact-range pairs must be exercised";
  EXPECT_GT(largest, pts.size() / 2) << "a search must reach most points";
}

// RadioLinks::reachable() against the block-scan BFS over the same
// instant's positions, on seeded fleets: churn, dark devices, a dark or
// departed root, a half-fleet partition and a directional veto.
TEST(RadioLinks, ReachableEqualsTheBlockScanBfs) {
  for (const uint64_t seed : {3u, 19u, 42u}) {
    MobilityConfig cfg;
    cfg.devices = 400;
    cfg.field_size = 400.0;
    cfg.radio_range = 40.0;
    cfg.speed_min = 1.0;
    cfg.speed_max = 20.0;
    cfg.seed = seed;
    const DeviceId root = static_cast<DeviceId>(seed % cfg.devices);
    const DeviceId n = static_cast<DeviceId>(cfg.devices);
    RandomWaypointMobility mobility(cfg);
    sim::EventQueue clock;
    std::vector<bool> present(n, true);
    std::vector<bool> dark(n, false);
    int veto = 0;  // 0 none, 1 half-fleet partition, 2 directional
    const auto active = [&](DeviceId id) { return present[id] && !dark[id]; };
    const auto allowed = [&](DeviceId a, DeviceId b) {
      if (veto == 1) return (a < n / 2) == (b < n / 2);
      return veto == 0 || (a + 2 * b) % 7 != 0;
    };
    RadioLinks links(mobility, clock, root, active,
                     [&](DeviceId a, DeviceId b, Time) {
                       return allowed(a, b);
                     });
    sim::Rng script(seed);
    size_t root_away = 0;
    size_t most_reached = 0;
    for (int instant = 0; instant < 40; ++instant) {
      clock.advance_to(clock.now() +
                       Duration::seconds(script.next_below(600)));
      if (script.chance(0.5)) {
        for (int c = 0; c < 20; ++c) {
          const DeviceId id = static_cast<DeviceId>(script.next_below(n));
          present[id] = !present[id];
        }
        if (script.chance(0.2)) present[root] = !present[root];
        links.invalidate();
      }
      for (size_t c = script.next_below(10); c > 0; --c) {
        dark[script.next_below(n)] = !script.chance(0.3);
      }
      if (script.chance(0.1)) dark[root] = !dark[root];
      veto = static_cast<int>(script.next_below(3));

      const std::vector<DeviceId> got = links.reachable();
      // reachable() extended every trajectory to now: these draw nothing.
      std::vector<Point> pos(n);
      std::vector<NeighbourGrid::Entry> members;
      for (DeviceId id = 0; id < n; ++id) {
        pos[id] = mobility.position(id, clock.now());
        if (id == root || active(id)) members.push_back({id, pos[id]});
      }
      std::vector<DeviceId> want;
      if (active(root)) {
        NeighbourGrid grid(cfg.field_size, cfg.radio_range);
        grid.build(members);
        want = block_scan_bfs(grid, pos, root, [&](DeviceId v, DeviceId u) {
          return mobility.in_range(pos[v], pos[u]) && allowed(v, u);
        });
      } else {
        ++root_away;
      }
      ASSERT_EQ(got, want) << "seed " << seed << ", instant " << instant;
      most_reached = std::max(most_reached, got.size());
    }
    EXPECT_GT(most_reached, cfg.devices / 2) << "seed " << seed;
    EXPECT_GT(root_away, 0u) << "seed " << seed << ": the root must go away";
  }
}

// The in-process backend's reachability against the snapshot-and-prune
// tree it replaced: snapshot(), strip the edges of inactive devices and
// of vetoed pairs, BFS from the root, keep the active reached devices.
// One seeded script drives both mobility instances: clock steps from a
// repeated instant to hours, churn (the root included) followed by
// invalidate(), brown-outs without it -- among them devices the previous
// call reached, at the same instant -- and a half-fleet partition.
TEST(RadioLinks, ReachableMatchesThePrunedSnapshotTree) {
  MobilityConfig cfg;
  cfg.devices = 300;
  cfg.field_size = 600.0;
  cfg.radio_range = 60.0;
  cfg.speed_min = 1.0;
  cfg.speed_max = 25.0;
  cfg.seed = 11;
  constexpr DeviceId kRoot = 7;
  const DeviceId n = static_cast<DeviceId>(cfg.devices);
  RandomWaypointMobility links_mobility(cfg);
  RandomWaypointMobility snapshot_mobility(cfg);
  sim::EventQueue clock;
  std::vector<bool> present(n, true);
  std::vector<bool> dark(n, false);
  bool partitioned = false;
  const auto active = [&](DeviceId id) { return present[id] && !dark[id]; };
  const auto allowed = [&](DeviceId a, DeviceId b) {
    return !partitioned || (a < n / 2) == (b < n / 2);
  };
  RadioLinks links(links_mobility, clock, kRoot, active,
                   [&](DeviceId a, DeviceId b, Time) { return allowed(a, b); });
  const auto pruned_tree = [&] {
    Topology topo = snapshot_mobility.snapshot(clock.now());
    for (DeviceId id = 0; id < n; ++id) {
      if (active(id)) continue;
      for (const DeviceId nb : topo.neighbors(id)) topo.remove_edge(id, nb);
    }
    for (DeviceId id = 0; id < n; ++id) {
      for (const DeviceId nb : topo.neighbors(id)) {
        if (!allowed(id, nb)) topo.remove_edge(id, nb);
      }
    }
    const Topology::SpanningTree tree = topo.bfs_tree(kRoot);
    std::vector<DeviceId> want;
    for (DeviceId id = 0; id < n; ++id) {
      if (active(id) && tree.parent[id].has_value()) want.push_back(id);
    }
    return want;
  };

  static constexpr uint64_t kStepsNs[] = {
      0, 1'000'000'000ull, 30'000'000'000ull, 600'000'000'000ull,
      3 * 3'600'000'000'000ull};
  sim::Rng script(2026);
  size_t most_reached = 0;
  size_t root_away = 0;
  size_t cut = 0;
  size_t dark_at_same_instant = 0;
  for (int instant = 0; instant < 40; ++instant) {
    const uint64_t step = kStepsNs[script.next_below(5)];
    clock.advance_to(clock.now() + Duration(step));
    if (script.chance(0.5)) {
      for (int c = 0; c < 8; ++c) {
        const DeviceId id = static_cast<DeviceId>(script.next_below(n));
        present[id] = !present[id];
      }
      if (script.chance(0.25)) present[kRoot] = !present[kRoot];
      links.invalidate();  // membership changed, as set_present does
    }
    // A battery empties without telling the grid.
    const size_t drained = script.next_below(3);
    for (size_t c = 0; c < drained; ++c) {
      dark[script.next_below(n)] = true;
    }
    partitioned = script.chance(0.3);

    const std::vector<DeviceId> got = links.reachable();
    ASSERT_EQ(got, pruned_tree()) << "instant " << instant;
    most_reached = std::max(most_reached, got.size());
    if (!active(kRoot)) ++root_away;
    if (partitioned && !got.empty()) ++cut;

    // A device just reached browns out at the same instant: the next call
    // must not walk the grid that still holds it.
    if (!got.empty() && script.chance(0.5)) {
      const DeviceId id = got[script.next_below(got.size())];
      if (id == kRoot) continue;
      dark[id] = true;
      ++dark_at_same_instant;
      ASSERT_EQ(links.reachable(), pruned_tree())
          << "instant " << instant << " after device " << id << " went dark";
    }
  }
  EXPECT_GT(most_reached, 100u) << "the script must reach a large component";
  EXPECT_GT(root_away, 0u) << "the script must take the root away";
  EXPECT_GT(cut, 0u) << "the script must partition a live fleet";
  EXPECT_GT(dark_at_same_instant, 0u)
      << "the script must darken devices the current grid still holds";
  // Same trajectory RNG consumption: later positions agree everywhere.
  const Time later = clock.now() + Duration::minutes(20);
  for (DeviceId id = 0; id < n; ++id) {
    const Point p = links_mobility.position(id, later);
    const Point q = snapshot_mobility.position(id, later);
    EXPECT_EQ(p.x, q.x) << "device " << id;
    EXPECT_EQ(p.y, q.y) << "device " << id;
  }
}

// reachable() indexes the instant's grid, and a later candidates() at that
// instant reuses it. A twin over its own mobility makes the same
// positions pass and indexes at its first query, never calling
// reachable(): both must answer every broadcast alike -- also after
// brown-outs that follow the indexing, which only link_up() refuses --
// and leave the trajectory RNG in the same state.
TEST(RadioLinks, CandidatesAfterReachableMatchATwinThatNeverCallsIt) {
  MobilityConfig cfg;
  cfg.devices = 300;
  cfg.field_size = 600.0;
  cfg.radio_range = 60.0;
  cfg.speed_min = 1.0;
  cfg.speed_max = 25.0;
  cfg.seed = 5;
  constexpr DeviceId kRoot = 3;
  const DeviceId n = static_cast<DeviceId>(cfg.devices);
  RandomWaypointMobility links_mobility(cfg);
  RandomWaypointMobility twin_mobility(cfg);
  sim::EventQueue clock;
  std::vector<bool> present(n, true);
  std::vector<bool> dark(n, false);
  const auto active = [&](DeviceId id) { return present[id] && !dark[id]; };
  RadioLinks links(links_mobility, clock, kRoot, active);
  RadioLinks twin(twin_mobility, clock, kRoot, active);

  sim::Rng script(314);
  size_t stale_members = 0;
  size_t root_away = 0;
  std::vector<net::NodeId> got;
  std::vector<net::NodeId> want;
  for (int instant = 0; instant < 30; ++instant) {
    clock.advance_to(clock.now() +
                     Duration::seconds(1 + script.next_below(900)));
    if (script.chance(0.5)) {
      for (int c = 0; c < 8; ++c) {
        const DeviceId id = static_cast<DeviceId>(script.next_below(n));
        present[id] = !present[id];
      }
      if (script.chance(0.25)) present[kRoot] = !present[kRoot];
      links.invalidate();
      twin.invalidate();
    }
    // Dark before the indexing: neither grid holds these.
    for (size_t c = script.next_below(3); c > 0; --c) {
      dark[script.next_below(n)] = true;
    }
    if (!active(kRoot)) ++root_away;

    links.reachable();
    for (DeviceId id = 0; id < n; ++id) twin_mobility.position(id, clock.now());
    ASSERT_TRUE(twin.candidates(twin.verifier(), want));  // indexes

    // Dark after the indexing, at the same instant: both grids still
    // hold these, and the first candidates() of `links` comes after.
    std::vector<DeviceId> darkened;
    for (size_t c = 1 + script.next_below(4); c > 0; --c) {
      const DeviceId id = static_cast<DeviceId>(script.next_below(n));
      if (active(id)) darkened.push_back(id);
      dark[id] = true;
    }
    // Every node as a sender, the verifier last.
    for (net::NodeId src = 0; src <= links.verifier(); ++src) {
      ASSERT_TRUE(links.candidates(src, got));
      ASSERT_TRUE(twin.candidates(src, want));
      ASSERT_EQ(got, want) << "instant " << instant << " source " << src;
      for (const net::NodeId u : got) {
        if (std::find(darkened.begin(), darkened.end(), u) != darkened.end()) {
          ++stale_members;
        }
      }
    }
  }
  EXPECT_GT(stale_members, 0u)
      << "the script must query a grid holding a device darkened after "
         "its indexing";
  EXPECT_GT(root_away, 0u) << "the script must take the root away";
  const Time later = clock.now() + Duration::minutes(20);
  for (DeviceId id = 0; id < n; ++id) {
    const Point p = links_mobility.position(id, later);
    const Point q = twin_mobility.position(id, later);
    EXPECT_EQ(p.x, q.x) << "device " << id;
    EXPECT_EQ(p.y, q.y) << "device " << id;
  }
}

TEST(Protocols, StaticSwarmBothProtocolsReachEveryone) {
  MobilityConfig cfg;
  cfg.devices = 12;
  cfg.field_size = 60.0;
  cfg.radio_range = 30.0;  // dense enough to be connected
  cfg.speed_min = 0.0;
  cfg.speed_max = 0.0;     // static topology
  cfg.seed = 3;
  RandomWaypointMobility m(cfg);
  const size_t reachable =
      m.snapshot(Time::zero()).reachable_from(0);

  SwarmProtocolConfig pc;
  const auto od = run_ondemand_round(m, Time::zero(), 0, pc);
  const auto er = run_erasmus_collection_round(m, Time::zero(), 0, pc);
  EXPECT_EQ(od.attested, reachable);
  EXPECT_EQ(er.attested, reachable);
}

TEST(Protocols, ErasmusCollectionOrdersOfMagnitudeFaster) {
  MobilityConfig cfg;
  cfg.devices = 12;
  cfg.speed_min = 0.0;
  cfg.speed_max = 0.0;
  RandomWaypointMobility m(cfg);
  SwarmProtocolConfig pc;
  pc.hop_latency = Duration::millis(1);
  const auto od = run_ondemand_round(m, Time::zero(), 0, pc);
  const auto er = run_erasmus_collection_round(m, Time::zero(), 0, pc);
  ASSERT_GT(od.attested, 1u);
  EXPECT_GT(od.duration.ns(), er.duration.ns() * 10)
      << "on-demand pays per-device measurement time; collection does not";
  // The gap is the per-device measurement work (minus the tiny stored-
  // measurement read the collection round pays instead).
  EXPECT_GE((od.duration - er.duration).ns(),
            (pc.measurement_time - pc.collection_reply_time).ns());
}

TEST(Protocols, MobilityHurtsOnDemandMoreThanCollection) {
  MobilityConfig cfg;
  cfg.devices = 25;
  cfg.field_size = 120.0;
  cfg.radio_range = 40.0;
  cfg.speed_min = 8.0;   // fast swarm (vehicles/drones)
  cfg.speed_max = 15.0;
  SwarmProtocolConfig pc;
  pc.measurement_time = Duration::seconds(7);  // low-end device, Fig. 6

  double od_cov = 0, er_cov = 0;
  int rounds = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    MobilityConfig c = cfg;
    c.seed = seed;
    RandomWaypointMobility m(c);
    const Time t0 = Time::zero() + Duration::minutes(5);
    const auto od = run_ondemand_round(m, t0, 0, pc);
    const auto er = run_erasmus_collection_round(m, t0, 0, pc);
    od_cov += od.coverage();
    er_cov += er.coverage();
    ++rounds;
  }
  od_cov /= rounds;
  er_cov /= rounds;
  EXPECT_GT(er_cov, od_cov + 0.05)
      << "ERASMUS collection must tolerate mobility clearly better";
}

TEST(Protocols, StaggeredScheduleBoundsConcurrentBusy) {
  // §6: with ERASMUS it is trivial to ensure only a fraction of the swarm
  // measures at any time.
  const size_t aligned = max_concurrent_busy(
      20, Duration::minutes(10), Duration::seconds(7), /*staggered=*/false);
  const size_t staggered = max_concurrent_busy(
      20, Duration::minutes(10), Duration::seconds(7), /*staggered=*/true);
  EXPECT_EQ(aligned, 20u) << "aligned schedules all measure simultaneously";
  EXPECT_EQ(staggered, 1u) << "30 s stride >> 7 s measurement";
}

TEST(Protocols, StaggeringWithLongMeasurements) {
  // When the measurement takes longer than the stride, the bound is
  // ceil(measure / stride).
  const size_t busy = max_concurrent_busy(
      10, Duration::minutes(10), Duration::minutes(3), /*staggered=*/true);
  EXPECT_EQ(busy, 3u);
}

}  // namespace
}  // namespace erasmus::swarm
