#include "attest/directory.h"

#include <stdexcept>
#include <unordered_set>

namespace erasmus::attest {

std::string to_string(MeasurementStatus s) {
  switch (s) {
    case MeasurementStatus::kHealthy:
      return "healthy";
    case MeasurementStatus::kInfected:
      return "infected";
    case MeasurementStatus::kBadMac:
      return "bad-mac";
    case MeasurementStatus::kOffSchedule:
      return "off-schedule";
  }
  return "unknown";
}

void DeviceRecord::set_golden(Bytes digest) {
  goldens.clear();
  goldens.emplace_back(0, std::move(digest));
}

void DeviceRecord::rotate_golden(Bytes digest, uint64_t from_ticks) {
  if (!goldens.empty() && from_ticks < goldens.back().first) {
    throw std::invalid_argument(
        "rotate_golden: epochs must be appended in time order");
  }
  goldens.emplace_back(from_ticks, std::move(digest));
}

const Bytes& DeviceRecord::golden_at(uint64_t t_ticks) const {
  // Latest epoch whose start is <= t_ticks (epochs sorted ascending).
  for (auto it = goldens.rbegin(); it != goldens.rend(); ++it) {
    if (it->first <= t_ticks) return it->second;
  }
  return goldens.front().second;
}

const Bytes& DeviceRecord::golden() const { return goldens.back().second; }

MeasurementVerdict judge_measurement(const DeviceRecord& rec,
                                     const Measurement& m) {
  MeasurementVerdict v{m, MeasurementStatus::kBadMac};
  if (!verify_measurement(rec.key.mac(), m)) {
    return v;
  }
  v.status = equal(m.digest, rec.golden_at(m.timestamp))
                 ? MeasurementStatus::kHealthy
                 : MeasurementStatus::kInfected;
  return v;
}

CollectionReport verify_collection(const DeviceRecord& rec,
                                   std::span<const Measurement> history,
                                   sim::Time now, size_t expected_k) {
  CollectionReport report;
  report.verdicts.reserve(history.size());

  // Expected timestamps, if a schedule is registered.
  std::unordered_set<uint64_t> expected_times;
  std::vector<uint64_t> expected_seq;
  if (rec.scheduler) {
    const uint64_t now_ticks = now.ns() / rec.tick.ns();
    expected_seq = expected_schedule(*rec.scheduler, rec.schedule_t0,
                                     now_ticks, rec.tick);
    expected_times.insert(expected_seq.begin(), expected_seq.end());
  }

  uint64_t prev_t = UINT64_MAX;  // responses are newest-first: decreasing
  bool order_ok = true;
  std::optional<uint64_t> newest_authentic;

  for (const auto& m : history) {
    MeasurementVerdict v = judge_measurement(rec, m);
    if (v.status != MeasurementStatus::kBadMac) {
      if (rec.scheduler && !expected_times.contains(m.timestamp)) {
        // Authentic MAC over a timestamp the schedule never produced: a
        // replayed/displaced record (e.g. the §3.4 clock attack).
        v.status = MeasurementStatus::kOffSchedule;
        report.tampering_detected = true;
      } else {
        if (!newest_authentic) newest_authentic = m.timestamp;
        if (v.status == MeasurementStatus::kInfected) {
          report.infection_detected = true;
        }
      }
      if (m.timestamp >= prev_t) order_ok = false;
      prev_t = m.timestamp;
    } else {
      report.tampering_detected = true;
    }
    report.verdicts.push_back(std::move(v));
  }

  if (!order_ok) {
    report.tampering_detected = true;
    report.note += "reordered history; ";
  }

  if (expected_k > 0 && history.size() < expected_k) {
    // Short response: fewer records than requested. Only incriminating once
    // the device has been up long enough to have produced them.
    if (!expected_seq.empty() && expected_seq.size() >= expected_k) {
      report.tampering_detected = true;
      report.missing += expected_k - history.size();
      report.note += "short response; ";
    }
  }

  // Gap analysis: within the span covered by the response, every expected
  // time must be present (a deleted record leaves a hole).
  if (rec.scheduler && !history.empty()) {
    std::unordered_set<uint64_t> returned;
    for (const auto& m : history) returned.insert(m.timestamp);
    const uint64_t oldest = history.back().timestamp;
    const uint64_t newest = history.front().timestamp;
    for (uint64_t t : expected_seq) {
      if (t > oldest && t < newest && !returned.contains(t)) {
        ++report.missing;
        report.tampering_detected = true;
      }
    }
    if (report.missing > 0) report.note += "schedule gap; ";
  }

  if (newest_authentic) {
    const sim::Time t(*newest_authentic * rec.tick.ns());
    report.freshness = now - t;
  } else {
    report.tampering_detected = true;
    report.note += "no authentic measurement; ";
  }

  return report;
}

CollectionReport verify_collection(const DeviceRecord& rec,
                                   const CollectResponse& resp, sim::Time now,
                                   size_t expected_k) {
  return verify_collection(rec, resp.measurements, now, expected_k);
}

OdRequest make_od_request(const DeviceRecord& rec, uint64_t now_ticks,
                          uint32_t k) {
  OdRequest req;
  req.treq = now_ticks;
  req.k = k;
  req.mac =
      rec.key.mac().tag({OdRequest::mac_input(req.treq, req.k)}).to_bytes();
  return req;
}

OdReport verify_od_response(const DeviceRecord& rec, const OdResponse& resp,
                            sim::Time now, uint64_t treq) {
  OdReport report;
  report.fresh = judge_measurement(rec, resp.fresh);
  // The fresh measurement must be authentic and taken at or after t_req.
  report.fresh_valid = report.fresh.status != MeasurementStatus::kBadMac &&
                       resp.fresh.timestamp >= treq;
  report.history = verify_collection(rec, resp.history, now);
  if (report.fresh.status == MeasurementStatus::kInfected) {
    report.history.infection_detected = true;
  }
  return report;
}

DeviceId DeviceDirectory::add(net::NodeId node, DeviceRecord record) {
  if (record.key.empty()) {
    throw std::invalid_argument("DeviceDirectory: record needs key K");
  }
  if (record.goldens.empty()) {
    throw std::invalid_argument(
        "DeviceDirectory: record needs a golden-digest epoch");
  }
  if (by_node_.contains(node)) {
    throw std::invalid_argument(
        "DeviceDirectory: node already has an enrolled device");
  }
  const auto id = static_cast<DeviceId>(entries_.size());
  entries_.push_back({node, &arena_.emplace_back(std::move(record))});
  by_node_.emplace(node, id);
  return id;
}

const DeviceRecord& DeviceDirectory::record(DeviceId id) const {
  return *entries_.at(id).record;
}

DeviceRecord& DeviceDirectory::owned_record(DeviceId id) {
  return *entries_.at(id).record;
}

net::NodeId DeviceDirectory::node(DeviceId id) const {
  return entries_.at(id).node;
}

std::optional<DeviceId> DeviceDirectory::by_node(net::NodeId node) const {
  const auto it = by_node_.find(node);
  if (it == by_node_.end()) return std::nullopt;
  return it->second;
}

}  // namespace erasmus::attest
