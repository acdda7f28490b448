#include "swarm/radio_links.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace erasmus::swarm {

namespace {
/// Cell side over radio range. The margin dwarfs the rounding error of the
/// distance predicate and of the v / cell division, so a pair the
/// predicate accepts can never land two cells apart.
constexpr double kCellMargin = 1.0 + 1e-6;
/// A tiny radio range would make the grid huge; past this many cells
/// across, cells widen instead (still a superset, just less selective).
constexpr size_t kMaxSide = 1024;
}  // namespace

NeighbourGrid::NeighbourGrid(double field_size, double radio_range) {
  cell_ = std::max(radio_range * kCellMargin,
                   field_size / static_cast<double>(kMaxSide));
  if (!(cell_ > 0.0)) cell_ = 1.0;  // empty field or range: one cell
  const double cells = std::floor(field_size / cell_) + 1.0;
  side_ = cells >= 1.0 ? std::min(static_cast<size_t>(cells), kMaxSide + 1)
                       : 1;
}

size_t NeighbourGrid::index(double v) const {
  // Clamping is 1-Lipschitz, so neighbours stay within one cell of each
  // other even for positions rounded just outside the field.
  const double c = std::floor(v / cell_);
  if (!(c > 0.0)) return 0;
  if (c >= static_cast<double>(side_ - 1)) return side_ - 1;
  return static_cast<size_t>(c);
}

void NeighbourGrid::build(const std::vector<Entry>& entries) {
  // Counting sort by cell; stable, so ids stay ascending within a cell.
  cell_start_.assign(side_ * side_ + 1, 0);
  entry_cell_.resize(entries.size());
  marks_.assign(entries.empty() ? 0 : entries.back().id / 64 + 1, 0);
  for (size_t i = 0; i < entries.size(); ++i) {
    entry_cell_[i] = static_cast<uint32_t>(cell_of(entries[i].p));
    ++cell_start_[entry_cell_[i] + 1];
  }
  for (size_t c = 1; c < cell_start_.size(); ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  ids_.resize(entries.size());
  pts_.resize(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    // cell_start_[c] doubles as cell c's fill cursor, ending at c + 1's
    // start; the shift below restores the offsets.
    const uint32_t slot = cell_start_[entry_cell_[i]]++;
    ids_[slot] = entries[i].id;
    pts_[slot] = entries[i].p;
  }
  for (size_t c = cell_start_.size() - 1; c > 0; --c) {
    cell_start_[c] = cell_start_[c - 1];
  }
  cell_start_[0] = 0;
}

void NeighbourGrid::block(Point p, std::vector<DeviceId>& out) {
  size_t lo = marks_.size();
  size_t hi = 0;
  for_each_in_block(p, [&](DeviceId id) {
    const size_t word = id / 64;
    marks_[word] |= uint64_t{1} << (id % 64);
    lo = std::min(lo, word);
    hi = std::max(hi, word + 1);
  });
  for (size_t word = lo; word < hi; ++word) {
    for (uint64_t bits = std::exchange(marks_[word], 0); bits != 0;
         bits &= bits - 1) {
      out.push_back(static_cast<DeviceId>(word * 64 + std::countr_zero(bits)));
    }
  }
}

bool NeighbourGrid::in_block(Point p, Point q) const {
  const auto near = [](size_t a, size_t b) { return a + 1 >= b && b + 1 >= a; };
  return near(index(p.x), index(q.x)) && near(index(p.y), index(q.y));
}

RadioLinks::RadioLinks(RandomWaypointMobility& mobility,
                       const sim::EventQueue& clock, DeviceId root,
                       Active active, Allowed allowed)
    : mobility_(mobility), clock_(clock), root_(root),
      verifier_(static_cast<net::NodeId>(mobility.config().devices)),
      active_(std::move(active)), allowed_(std::move(allowed)),
      grid_(mobility.config().field_size, mobility.config().radio_range) {}

bool RadioLinks::link_up(net::NodeId a, net::NodeId b) {
  // Departed and dark devices are radio-silent. (An in-flight frame
  // addressed to a device that went dark after the send admit is instead
  // dropped by the RelayNode's dark gate.) The verifier is mains-powered
  // and co-located with the root: same position, distance zero.
  if (a != verifier_ && !active_(a)) return false;
  if (b != verifier_ && !active_(b)) return false;
  const DeviceId da = device(a);
  const DeviceId db = device(b);
  if (da == db) return true;
  const sim::Time now = clock_.now();
  // Scheduled partitions veto the link before mobility is consulted. The
  // partition schedule is pure config, so the veto -- and therefore the
  // mobility RNG draw order -- stays deterministic at any thread count.
  if (allowed_ && !allowed_(da, db, now)) return false;
  // The instant's positions pass holds both ends: each is active or the
  // root, so it is a grid member, and its trajectory reaches now -- the
  // two queries connected() would make could not draw (R4).
  if (fresh_ && built_ && at_ == now) {
    return mobility_.in_range(pos_[da], pos_[db]);
  }
  return mobility_.connected(da, db, now);
}

bool RadioLinks::candidates(net::NodeId src, std::vector<net::NodeId>& out) {
  out.clear();
  // A silent sender keys nothing: link_up() refuses every pair before
  // mobility is consulted, so no candidates and no query.
  if (src != verifier_ && !active_(src)) return true;
  const sim::Time now = clock_.now();
  if (!fresh_ || at_ != now) {
    fresh_ = true;
    built_ = false;
    at_ = now;
    pending_.clear();
    for (DeviceId id = 0; id < verifier_; ++id) {
      if (scanned(id) && !mobility_.reaches(id, now)) pending_.push_back(id);
    }
  }
  std::erase_if(pending_, [&](DeviceId id) {
    return !scanned(id) || mobility_.reaches(id, now);
  });
  if (!pending_.empty()) return false;
  if (!built_) {
    pos_.resize(verifier_);
    for (DeviceId id = 0; id < verifier_; ++id) {
      // Reaches now: draws nothing.
      if (scanned(id)) pos_[id] = mobility_.position(id, now);
    }
    index_grid(now);
  }
  const Point p = pos_[device(src)];
  grid_.block(p, out);
  // The verifier is the highest id, so appending keeps `out` ascending.
  if (grid_.in_block(p, pos_[root_])) out.push_back(verifier_);
  return true;
}

void RadioLinks::index_grid(sim::Time now) {
  // link_up()'s dark/departed gates, once per device: only the devices a
  // full scan could query enter the grid.
  entries_.clear();
  for (DeviceId id = 0; id < verifier_; ++id) {
    if (scanned(id)) entries_.push_back({id, pos_[id]});
  }
  grid_.build(entries_);
  fresh_ = true;
  built_ = true;
  at_ = now;
  pending_.clear();  // every scanned trajectory reaches now
}

std::vector<DeviceId> RadioLinks::reachable() {
  // Every device's position first, active or not, in ascending id -- the
  // draws snapshot() makes (R4). Nothing below queries a position.
  const sim::Time now = clock_.now();
  pos_.resize(verifier_);
  for (DeviceId id = 0; id < verifier_; ++id) {
    pos_[id] = mobility_.position(id, now);
  }
  // Indexed on every call, even when the instant's grid is fresh: a device
  // that went dark since that indexing must not enter the BFS below, which
  // applies no gate of its own.
  index_grid(now);
  std::vector<DeviceId> reached;
  if (!active_(root_)) return reached;
  // The root is active, so every grid member is. An edge needs the range
  // test and the partition veto (R5); the BFS's visiting order cannot
  // change the reached set, which is returned sorted.
  using Entry = NeighbourGrid::Entry;
  const auto edge = [&](const Entry& v, const Entry& u) {
    return mobility_.in_range(v.p, u.p) &&
           (!allowed_ || allowed_(v.id, u.id, now));
  };
  grid_.reach(root_, edge, reached);
  std::sort(reached.begin(), reached.end());
  return reached;
}

}  // namespace erasmus::swarm
