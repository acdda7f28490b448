#include "attest/measurement_store.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "common/serde.h"

namespace erasmus::attest {

namespace {

size_t digest_size_of(crypto::MacAlgo algo) {
  // Digest and tag widths coincide for all three constructions.
  switch (algo) {
    case crypto::MacAlgo::kHmacSha1:
      return 20;
    case crypto::MacAlgo::kHmacSha256:
    case crypto::MacAlgo::kKeyedBlake2s:
      return 32;
  }
  throw std::invalid_argument("digest_size_of: unknown algorithm");
}

}  // namespace

MeasurementStore::MeasurementStore(hw::DeviceMemory& memory,
                                   hw::RegionId region, crypto::MacAlgo algo)
    : memory_(memory), region_(region), algo_(algo),
      digest_size_(digest_size_of(algo)), mac_size_(digest_size_of(algo)),
      record_size_(record_size_for(algo)),
      capacity_(memory.region_size(region) / record_size_) {
  if (capacity_ == 0) {
    throw std::invalid_argument(
        "MeasurementStore: region too small for one record");
  }
}

size_t MeasurementStore::record_size_for(crypto::MacAlgo algo) {
  return 1 + 8 + 2 * digest_size_of(algo);  // flag | u64 t | digest | mac
}

size_t MeasurementStore::offset_of(uint64_t index) const {
  return static_cast<size_t>(index % capacity_) * record_size_;
}

void MeasurementStore::write_record(uint64_t index, const Measurement& m,
                                    uint8_t flag) {
  if (m.digest.size() != digest_size_ || m.mac.size() != mac_size_) {
    throw std::invalid_argument("MeasurementStore: record size mismatch");
  }
  std::array<uint8_t, 1 + 8 + 2 * crypto::Digest::kMaxSize> rec;
  rec[0] = flag;
  const auto t = le64(m.timestamp);
  std::copy(t.begin(), t.end(), rec.begin() + 1);
  std::copy(m.digest.bytes().begin(), m.digest.bytes().end(),
            rec.begin() + 9);
  std::copy(m.mac.bytes().begin(), m.mac.bytes().end(),
            rec.begin() + 9 + digest_size_);
  memory_.write(region_, offset_of(index),
                ByteView(rec.data(), record_size_), /*privileged=*/false);
}

void MeasurementStore::put(uint64_t index, const Measurement& m) {
  write_record(index, m, kValidMarker);
}

std::optional<Measurement> MeasurementStore::get(uint64_t index) const {
  ByteReader r(memory_.view(region_, /*privileged=*/false)
                   .subspan(offset_of(index), record_size_));
  const uint8_t flag = r.u8();
  if (flag != kValidMarker) return std::nullopt;
  Measurement m;
  m.timestamp = r.u64();
  m.digest.assign(r.view(digest_size_));
  m.mac.assign(r.view(mac_size_));
  if (!r.ok()) return std::nullopt;
  return m;
}

std::vector<Measurement> MeasurementStore::latest(uint64_t latest_index,
                                                  size_t k) const {
  if (k > capacity_) k = capacity_;  // paper Fig. 2: if k > n then k = n
  std::vector<Measurement> out;
  out.reserve(k);
  for (size_t j = 0; j < k; ++j) {
    if (latest_index < j) break;  // fewer than k measurements exist yet
    if (auto m = get(latest_index - j)) out.push_back(*m);
  }
  return out;
}

uint64_t MeasurementStore::slot_for_time(uint64_t t, uint64_t tm_ticks) const {
  if (tm_ticks == 0) throw std::invalid_argument("slot_for_time: tm_ticks 0");
  return (t / tm_ticks) % capacity_;
}

uint64_t MeasurementStore::bytes_for(size_t k) const {
  if (k > capacity_) k = capacity_;
  return static_cast<uint64_t>(k) * record_size_;
}

void MeasurementStore::tamper_corrupt(uint64_t index, size_t byte_offset,
                                      uint8_t xor_mask) {
  if (byte_offset >= record_size_) {
    throw std::out_of_range("tamper_corrupt: offset outside record");
  }
  const size_t off = offset_of(index) + byte_offset;
  Bytes b = memory_.read(region_, off, 1, /*privileged=*/false);
  b[0] ^= xor_mask;
  memory_.write(region_, off, b, /*privileged=*/false);
}

void MeasurementStore::tamper_erase(uint64_t index) {
  const Bytes zeros(record_size_, 0);
  memory_.write(region_, offset_of(index), zeros, /*privileged=*/false);
}

void MeasurementStore::tamper_swap(uint64_t a, uint64_t b) {
  const Bytes ra = memory_.read(region_, offset_of(a), record_size_,
                                /*privileged=*/false);
  const Bytes rb = memory_.read(region_, offset_of(b), record_size_,
                                /*privileged=*/false);
  memory_.write(region_, offset_of(a), rb, /*privileged=*/false);
  memory_.write(region_, offset_of(b), ra, /*privileged=*/false);
}

void MeasurementStore::tamper_overwrite(uint64_t index,
                                        const Measurement& forged) {
  write_record(index, forged, kValidMarker);
}

}  // namespace erasmus::attest
