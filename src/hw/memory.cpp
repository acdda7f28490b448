#include "hw/memory.h"

#include <map>
#include <utility>

namespace erasmus::hw {

namespace {

// Written so that no offset, however large, can wrap the sum past `size`.
void check_bounds(const std::string& region, size_t size, size_t offset,
                  size_t len) {
  if (offset > size || len > size - offset) {
    throw AccessViolation("DeviceMemory: out-of-bounds access to region '" +
                          region + "'");
  }
}

}  // namespace

const crypto::Digest& SharedImage::digest(crypto::HashAlgo algo) const {
  const size_t i = static_cast<size_t>(algo) - 1;
  std::call_once(hashed_.at(i), [&] {
    crypto::Hash::digest(algo, bytes_, digests_[i]);
  });
  return digests_[i];
}

const SharedImage& zero_image(size_t size) {
  // Map nodes never move, so the reference lives as long as the process.
  static std::mutex mu;
  static std::map<size_t, SharedImage> images;
  const std::lock_guard<std::mutex> lock(mu);
  auto it = images.find(size);
  if (it == images.end()) it = images.try_emplace(size, Bytes(size, 0)).first;
  return it->second;
}

RegionId DeviceMemory::add_region(std::string name, size_t size,
                                  RegionPolicy policy) {
  regions_.push_back(Region{std::move(name), Bytes(size, 0), nullptr, policy});
  return regions_.size() - 1;
}

RegionId DeviceMemory::add_image_region(std::string name,
                                        const SharedImage& image,
                                        RegionPolicy policy) {
  regions_.push_back(Region{std::move(name), Bytes{}, &image, policy});
  return regions_.size() - 1;
}

const SharedImage* DeviceMemory::shared_image(RegionId region) const {
  return region_at(region).image;
}

const DeviceMemory::Region& DeviceMemory::region_at(RegionId id) const {
  if (id >= regions_.size()) {
    throw std::out_of_range("DeviceMemory: bad region id");
  }
  return regions_[id];
}

DeviceMemory::Region& DeviceMemory::region_at(RegionId id) {
  return const_cast<Region&>(std::as_const(*this).region_at(id));
}

Bytes& DeviceMemory::private_bytes(Region& r) {
  if (r.image != nullptr) {
    r.data = r.image->bytes();
    r.image = nullptr;
  }
  return r.data;
}

void DeviceMemory::check(const Region& r, bool privileged, bool write,
                         size_t offset, size_t len) const {
  check_bounds(r.name, r.bytes().size(), offset, len);
  const Access granted = privileged ? r.policy.privileged
                                    : r.policy.unprivileged;
  const bool ok = write ? (granted == Access::kReadWrite)
                        : (granted != Access::kNone);
  if (!ok) {
    throw AccessViolation(std::string("DeviceMemory: ") +
                          (write ? "write" : "read") + " to region '" +
                          r.name + "' denied for " +
                          (privileged ? "privileged" : "unprivileged") +
                          " code");
  }
}

Bytes DeviceMemory::read(RegionId region, size_t offset, size_t len,
                         bool privileged) const {
  const Region& r = region_at(region);
  check(r, privileged, /*write=*/false, offset, len);
  const auto first = r.bytes().begin() + offset;
  return Bytes(first, first + len);
}

void DeviceMemory::write(RegionId region, size_t offset, ByteView data,
                         bool privileged) {
  Region& r = region_at(region);
  check(r, privileged, /*write=*/true, offset, data.size());
  std::copy(data.begin(), data.end(), private_bytes(r).begin() + offset);
}

void DeviceMemory::provision(RegionId region, size_t offset, ByteView data) {
  Region& r = region_at(region);
  check_bounds(r.name, r.bytes().size(), offset, data.size());
  std::copy(data.begin(), data.end(), private_bytes(r).begin() + offset);
}

ByteView DeviceMemory::view(RegionId region, bool privileged) const {
  const Region& r = region_at(region);
  check(r, privileged, /*write=*/false, 0, r.bytes().size());
  return ByteView(r.bytes());
}

crypto::Digest DeviceMemory::digest(RegionId region,
                                    crypto::HashAlgo algo) const {
  const ByteView bytes = view(region, /*privileged=*/true);
  // A region that maps its image holds exactly the image's bytes (any
  // write copies the image first).
  if (const SharedImage* image = regions_[region].image) {
    return image->digest(algo);
  }
  crypto::Digest out;
  crypto::Hash::digest(algo, bytes, out);
  return out;
}

size_t DeviceMemory::region_size(RegionId region) const {
  return region_at(region).bytes().size();
}

const std::string& DeviceMemory::region_name(RegionId region) const {
  return region_at(region).name;
}

size_t DeviceMemory::total_size() const {
  size_t total = 0;
  for (const auto& r : regions_) total += r.bytes().size();
  return total;
}

}  // namespace erasmus::hw
