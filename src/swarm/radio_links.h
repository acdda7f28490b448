// The fleet's link model, for both collection backends: who hears whom at
// an instant, and who could.
//
// Node ids [0, devices) are the mobility model's devices; node `devices`
// is the verifier endpoint, co-located with `root` (same position,
// distance zero). link_up() is the one connectivity predicate: an
// inactive device (departed, or battery dark) keys and hears nothing, a
// scheduled partition vetoes the pair, and otherwise the pair is
// connected when distance(a, b) <= radio_range at the clock's instant.
//
// candidates() answers net::Network's broadcast range query from a
// NeighbourGrid of the instant's positions: the sender's 3x3 cell block
// in ascending id, plus the verifier when the root's cell is in it. The
// grid only chooses whom to ask -- every candidate still goes through
// link_up() (docs/DETERMINISM.md R5). It declines while any device the
// full scan would query has a trajectory that does not reach the instant
// yet: the scan's position queries extend trajectories from one shared
// RNG, so skipping one would shift every later draw (R4). A declined
// broadcast scans all nodes, extending trajectories in exactly the order
// it always did.
//
// While the instant's grid stands (indexed at the clock's instant, no
// churn since), link_up() reads both ends' positions from that indexing's
// positions pass instead of querying the mobility model: the same range
// test on the same values, minus two trajectory searches per pair.
//
// reachable() is the in-process backend's reachability: every device's
// position in ascending id (the draw order of
// RandomWaypointMobility::snapshot), the grid indexed from those
// positions, then a BFS from the root that reads only them
// (NeighbourGrid::reach, which scans only devices not reached yet).
// link_up()'s dark/departed gates ran once per device at indexing, so
// each candidate pair costs the shared range test
// (RandomWaypointMobility::in_range) and the partition veto -- no
// mobility query, no per-pair link_up().
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "net/network.h"
#include "sim/event_queue.h"
#include "swarm/mobility.h"

namespace erasmus::swarm {

/// Uniform grid over a square field for "who could be within radio range
/// of p?" queries. Cells are slightly wider than the radio range, so a
/// pair the range predicate accepts always sits in the same or adjacent
/// cells: the grid over-approximates, it never drops an in-range pair.
class NeighbourGrid {
 public:
  struct Entry {
    DeviceId id = 0;
    Point p;
  };

  NeighbourGrid(double field_size, double radio_range);

  /// Replaces the grid's contents; `entries` must be in ascending id.
  void build(const std::vector<Entry>& entries);
  /// Appends the ids in the 3x3 cell block around `p` to `out`, ascending:
  /// marks them in a bitmap over the id range, then reads the set bits
  /// back in order (no sort), leaving the bitmap clear.
  void block(Point p, std::vector<DeviceId>& out);
  /// Calls `visit(id)` for each id in the 3x3 cell block around `p`, cell
  /// by cell: ascending within a cell only. For callers whose result does
  /// not depend on the visiting order.
  template <typename Visit>
  void for_each_in_block(Point p, Visit&& visit) const {
    for_each_block_row(p, [&](size_t first, size_t last) {
      const uint32_t end = cell_start_[last + 1];
      for (uint32_t i = cell_start_[first]; i < end; ++i) visit(ids_[i]);
    });
  }
  /// True when `q`'s cell is in the 3x3 block around `p`.
  bool in_block(Point p, Point q) const;

  /// Appends member `root` and every member it reaches to `reached`, in
  /// BFS order, over the pairs (v, u) in one 3x3 block that `edge(v, u)`
  /// accepts (Entries; v reached, u not yet). Each cell keeps its members
  /// not reached yet in front and swaps one behind them when it is
  /// reached, so a scan visits only those. Whatever the visiting order,
  /// the reached set is `edge`'s closure from the root.
  template <typename Edge>
  void reach(DeviceId root, Edge&& edge, std::vector<DeviceId>& reached) {
    // Cell c's members not reached yet: open_[cell_start_[c], open_end_[c]).
    open_end_.assign(cell_start_.begin() + 1, cell_start_.end());
    open_.resize(ids_.size());
    frontier_.clear();
    const auto take = [&](size_t c, uint32_t i) {
      frontier_.push_back(open_[i]);
      std::swap(open_[i], open_[--open_end_[c]]);
    };
    for (uint32_t i = 0; i < ids_.size(); ++i) open_[i] = {ids_[i], pts_[i]};
    for (uint32_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] == root) take(cell_of(pts_[i]), i);
    }
    for (size_t head = 0; head < frontier_.size(); ++head) {
      const Entry v = frontier_[head];
      for_each_block_row(v.p, [&](size_t first, size_t last) {
        for (size_t c = first; c <= last; ++c) {
          for (uint32_t i = cell_start_[c]; i < open_end_[c];) {
            // A taken member's slot now holds one not reached yet.
            if (edge(v, open_[i])) take(c, i); else ++i;
          }
        }
      });
    }
    for (const Entry& e : frontier_) reached.push_back(e.id);
  }

 private:
  /// Cell column (or row) of one coordinate, clamped to the grid.
  size_t index(double v) const;
  size_t cell_of(Point p) const { return index(p.y) * side_ + index(p.x); }
  /// Calls `visit(first, last)` for each row of the 3x3 cell block around
  /// `p`: that row's cells first..last, contiguous in ids_.
  template <typename VisitRow>
  void for_each_block_row(Point p, VisitRow&& visit) const {
    const size_t cx = index(p.x);
    const size_t cy = index(p.y);
    const size_t x0 = cx == 0 ? 0 : cx - 1;
    const size_t x1 = std::min(cx + 1, side_ - 1);
    const size_t y0 = cy == 0 ? 0 : cy - 1;
    const size_t y1 = std::min(cy + 1, side_ - 1);
    for (size_t y = y0; y <= y1; ++y) visit(y * side_ + x0, y * side_ + x1);
  }

  double cell_ = 1.0;
  size_t side_ = 1;
  std::vector<uint32_t> cell_start_;  // offsets into ids_, side_^2 + 1
  std::vector<DeviceId> ids_;         // by cell, ascending within a cell
  std::vector<Point> pts_;            // ids_'s positions
  std::vector<uint32_t> entry_cell_;  // build() reuse
  std::vector<uint64_t> marks_;       // block()'s bitmap, clear between calls
  // reach() reuse.
  std::vector<Entry> open_;
  std::vector<uint32_t> open_end_;
  std::vector<Entry> frontier_;
};

class RadioLinks {
 public:
  /// Is the device keying its radio (present, battery not dark)?
  using Active = std::function<bool(DeviceId)>;
  /// Partition veto: false while a scheduled partition separates a and b.
  using Allowed = std::function<bool(DeviceId a, DeviceId b, sim::Time at)>;

  /// `clock` supplies the instant both queries answer for.
  RadioLinks(RandomWaypointMobility& mobility, const sim::EventQueue& clock,
             DeviceId root, Active active, Allowed allowed = nullptr);

  /// The verifier endpoint's node id: one past the last device.
  net::NodeId verifier() const { return verifier_; }

  /// The radio's link filter (net::Network::LinkFilter). Reads the
  /// instant's positions pass while its grid is fresh; otherwise asks
  /// RandomWaypointMobility::connected().
  bool link_up(net::NodeId a, net::NodeId b);
  /// The radio's range query (net::Network::RangeQuery).
  bool candidates(net::NodeId src, std::vector<net::NodeId>& out);
  /// The devices with a multi-hop path to the root at the clock's
  /// instant, in ascending id; none when the root is inactive. The
  /// verifier endpoint is never part of a path. Re-indexes the instant's
  /// grid on every call; a later candidates() at the instant reuses it.
  std::vector<DeviceId> reachable();
  /// A device joined or left: rebuild before the next query. (Going dark
  /// needs no call -- it only shrinks the set the grid covers.)
  void invalidate() { fresh_ = false; }

 private:
  DeviceId device(net::NodeId node) const {
    return node == verifier_ ? root_ : static_cast<DeviceId>(node);
  }
  /// Could a full scan query this device's position? Every active device
  /// can, and so can the root even when inactive: it stands in for the
  /// verifier.
  bool scanned(DeviceId id) const { return id == root_ || active_(id); }
  /// Builds the grid of instant `now` from pos_, which must hold every
  /// scanned device's position at `now`, and marks it fresh.
  void index_grid(sim::Time now);

  RandomWaypointMobility& mobility_;
  const sim::EventQueue& clock_;
  DeviceId root_;
  net::NodeId verifier_;
  Active active_;
  Allowed allowed_;
  NeighbourGrid grid_;
  /// pending_ (and the grid, once built_) describe instant at_ under the
  /// current membership.
  bool fresh_ = false;
  bool built_ = false;
  sim::Time at_;
  /// Scanned devices whose trajectory stops before at_: the query
  /// declines until the scan has extended every one of them.
  std::vector<DeviceId> pending_;
  /// By device id, at the last indexing: every device after reachable(),
  /// the grid members after candidates().
  std::vector<Point> pos_;
  std::vector<NeighbourGrid::Entry> entries_;  // build reuse
};

}  // namespace erasmus::swarm
