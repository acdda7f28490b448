// Rolling measurement storage (paper §3.2 and Fig. 3).
//
// A fixed section of the prover's *insecure* storage holds a windowed
// (circular) buffer of n measurements; the i-th measurement lives at slot
// L_{i mod n}. The store is deliberately unprotected: resident malware may
// modify, reorder or delete records -- but it cannot forge them without K,
// so any tampering is self-incriminating at the next collection.
//
// Record layout (fixed width per MAC algorithm):
//   u8  valid flag (0x5A when written; 0x00 in erased/virgin slots)
//   u64 timestamp (little-endian RROC ticks)
//   digest bytes
//   mac bytes
#pragma once

#include <optional>
#include <vector>

#include "attest/measurement.h"
#include "hw/memory.h"

namespace erasmus::attest {

class MeasurementStore {
 public:
  static constexpr uint8_t kValidMarker = 0x5A;

  /// Binds the store to a region of device memory. Capacity n is
  /// region_size / record_size; the region must fit at least one record.
  MeasurementStore(hw::DeviceMemory& memory, hw::RegionId region,
                   crypto::MacAlgo algo);

  /// Bytes one stored record takes under `algo` (the layout above): a
  /// region of n * record_size_for(algo) bytes holds exactly n records.
  static size_t record_size_for(crypto::MacAlgo algo);

  /// n: how many measurements fit before the window wraps.
  size_t capacity() const { return capacity_; }
  size_t record_size() const { return record_size_; }
  crypto::MacAlgo algo() const { return algo_; }

  /// Writes M at slot (index mod n). The paper computes the slot
  /// statelessly for regular schedules as i = floor(t / T_M) mod n; for
  /// irregular schedules the prover uses its measurement sequence number.
  void put(uint64_t index, const Measurement& m);

  /// Reads the record at slot (index mod n); nullopt when the slot was
  /// never written or its flag was wiped. NOTE: a successfully parsed
  /// record is NOT necessarily authentic -- verification happens at the
  /// verifier with K. Reads through an unprivileged view of the region
  /// (the same policy check as a read) and allocates nothing.
  std::optional<Measurement> get(uint64_t index) const;

  /// Collection-phase read: the k most recent records given the latest
  /// index i, i.e. slots (i - j) mod n for 0 <= j < k (paper Fig. 2).
  /// k is clamped to n. Slots that fail to parse are skipped (their absence
  /// is evidence of tampering for the verifier).
  std::vector<Measurement> latest(uint64_t latest_index, size_t k) const;

  /// Stateless slot computation for regular schedules (paper §3.2):
  /// i = floor(t / tm_ticks) mod n.
  uint64_t slot_for_time(uint64_t t, uint64_t tm_ticks) const;

  /// Bytes read from device storage to serve a k-record collection (for
  /// the cost model).
  uint64_t bytes_for(size_t k) const;

  // --- Tamper surface (used by malware models; all *unprivileged*) ---------

  /// Flips bits inside a stored record (MAC will no longer verify).
  void tamper_corrupt(uint64_t index, size_t byte_offset, uint8_t xor_mask);
  /// Erases a record entirely (clears the valid flag and contents).
  void tamper_erase(uint64_t index);
  /// Swaps two slots (reordering attack).
  void tamper_swap(uint64_t a, uint64_t b);
  /// Overwrites a slot with an arbitrary forged record.
  void tamper_overwrite(uint64_t index, const Measurement& forged);

 private:
  size_t offset_of(uint64_t index) const;
  void write_record(uint64_t index, const Measurement& m, uint8_t flag);

  hw::DeviceMemory& memory_;
  hw::RegionId region_;
  crypto::MacAlgo algo_;
  size_t digest_size_;
  size_t mac_size_;
  size_t record_size_;
  size_t capacity_;
};

}  // namespace erasmus::attest
