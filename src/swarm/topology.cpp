#include "swarm/topology.h"

#include <queue>
#include <stdexcept>

namespace erasmus::swarm {

void Topology::add_edge(DeviceId a, DeviceId b) {
  if (a >= n_ || b >= n_) throw std::out_of_range("Topology: bad device id");
  if (a == b) return;
  adj_[idx(a, b)] = true;
  adj_[idx(b, a)] = true;
}

void Topology::remove_edge(DeviceId a, DeviceId b) {
  if (a >= n_ || b >= n_) throw std::out_of_range("Topology: bad device id");
  adj_[idx(a, b)] = false;
  adj_[idx(b, a)] = false;
}

bool Topology::connected(DeviceId a, DeviceId b) const {
  if (a >= n_ || b >= n_) throw std::out_of_range("Topology: bad device id");
  return adj_[idx(a, b)];
}

std::vector<DeviceId> Topology::neighbors(DeviceId v) const {
  if (v >= n_) throw std::out_of_range("Topology: bad device id");
  std::vector<DeviceId> out;
  for (DeviceId u = 0; u < n_; ++u) {
    if (u != v && adj_[idx(v, u)]) out.push_back(u);
  }
  return out;
}

size_t Topology::edge_count() const {
  size_t count = 0;
  for (DeviceId a = 0; a < n_; ++a) {
    for (DeviceId b = a + 1; b < n_; ++b) {
      if (adj_[idx(a, b)]) ++count;
    }
  }
  return count;
}

uint32_t Topology::SpanningTree::max_depth() const {
  uint32_t d = 0;
  for (size_t v = 0; v < parent.size(); ++v) {
    if (parent[v]) d = std::max(d, depth[v]);
  }
  return d;
}

std::vector<DeviceId> Topology::SpanningTree::children(DeviceId v) const {
  std::vector<DeviceId> out;
  for (DeviceId u = 0; u < parent.size(); ++u) {
    if (u != root && parent[u] && *parent[u] == v) out.push_back(u);
  }
  return out;
}

Topology::SpanningTree Topology::bfs_tree(DeviceId root) const {
  if (root >= n_) throw std::out_of_range("Topology: bad root");
  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(n_, std::nullopt);
  tree.depth.assign(n_, 0);
  tree.parent[root] = root;
  tree.reached = 1;

  std::queue<DeviceId> frontier;
  frontier.push(root);
  while (!frontier.empty()) {
    const DeviceId v = frontier.front();
    frontier.pop();
    for (DeviceId u : neighbors(v)) {
      if (!tree.parent[u]) {
        tree.parent[u] = v;
        tree.depth[u] = tree.depth[v] + 1;
        ++tree.reached;
        frontier.push(u);
      }
    }
  }
  return tree;
}

size_t Topology::reachable_from(DeviceId root) const {
  return bfs_tree(root).reached;
}

}  // namespace erasmus::swarm
