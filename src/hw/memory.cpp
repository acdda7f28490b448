#include "hw/memory.h"

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

RegionId DeviceMemory::add_region(std::string name, size_t size,
                                  RegionPolicy policy) {
  regions_.push_back(Region{std::move(name), Bytes(size, 0), nullptr, policy});
  return regions_.size() - 1;
}

RegionId DeviceMemory::add_image_region(std::string name, const Bytes& image,
                                        RegionPolicy policy) {
  regions_.push_back(Region{std::move(name), Bytes{}, &image, policy});
  return regions_.size() - 1;
}

bool DeviceMemory::maps_shared_image(RegionId region) const {
  return region_at(region).image != nullptr;
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
    r.data = *r.image;
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
