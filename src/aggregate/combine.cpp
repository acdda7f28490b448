#include "aggregate/combine.h"

#include <limits>
#include <utility>

#include "attest/protocol.h"
#include "common/serde.h"

namespace erasmus::aggregate {

Bytes evidence_leaf(crypto::HashAlgo algo, net::NodeId origin,
                    ByteView response) {
  ByteWriter w;
  w.reserve(4 + response.size());
  w.u32(origin);
  w.raw(response);
  return crypto::Hash::digest(algo, w.take());
}

Bytes hash_tree_root(crypto::HashAlgo algo, std::vector<Bytes> leaves) {
  if (leaves.empty()) {
    return Bytes(crypto::Hash::create(algo)->digest_size(), 0);
  }
  while (leaves.size() > 1) {
    std::vector<Bytes> next;
    next.reserve((leaves.size() + 1) / 2);
    for (size_t i = 0; i + 1 < leaves.size(); i += 2) {
      next.push_back(
          crypto::Hash::digest(algo, concat(leaves[i], leaves[i + 1])));
    }
    if (leaves.size() % 2 != 0) next.push_back(std::move(leaves.back()));
    leaves = std::move(next);
  }
  return std::move(leaves.front());
}

Combiner::Combiner(crypto::HashAlgo hash, Bytes reference_digest)
    : hash_(hash), reference_(std::move(reference_digest)) {}

void Combiner::absorb(net::NodeId origin, ByteView response) {
  if (entries_.count(origin) != 0) return;
  Entry entry;
  entry.leaf = evidence_leaf(hash_, origin, response);
  if (!reference_.empty()) {
    const auto resp = attest::CollectResponse::deserialize(response);
    if (resp && !resp->measurements.empty()) {
      entry.healthy = true;
      for (const auto& m : resp->measurements) {
        if (!equal(m.digest, reference_)) {
          entry.healthy = false;
          break;
        }
      }
    }
  }
  raw_bytes_ += response.size();
  entries_.emplace(origin, std::move(entry));
}

AggregateFrame Combiner::build(uint32_t flood, net::NodeId head) const {
  AggregateFrame frame;
  frame.flood = flood;
  frame.head = head;
  frame.members.reserve(entries_.size());
  frame.bitmap.assign((entries_.size() + 7) / 8, 0);
  std::vector<Bytes> leaves;
  leaves.reserve(entries_.size());
  size_t i = 0;
  for (const auto& [origin, entry] : entries_) {
    frame.members.push_back(origin);
    if (entry.healthy) frame.bitmap[i / 8] |= uint8_t{1} << (i % 8);
    leaves.push_back(entry.leaf);
    ++i;
  }
  frame.root = hash_tree_root(hash_, std::move(leaves));
  frame.raw_bytes = static_cast<uint32_t>(
      std::min<uint64_t>(raw_bytes_, std::numeric_limits<uint32_t>::max()));
  return frame;
}

}  // namespace erasmus::aggregate
