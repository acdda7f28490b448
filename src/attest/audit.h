// Verifier-side audit log: the longitudinal record QoA is judged by.
//
// Each collection round appends an entry; queries answer the operator's
// questions: when was the device first seen infected, what freshness are we
// actually achieving (empirical QoA vs. the configured T_M/T_C), how often
// was the device unreachable.
#pragma once

#include <optional>
#include <vector>

#include "attest/report.h"
#include "sim/time.h"

namespace erasmus::attest {

struct AuditEntry {
  sim::Time at;
  bool reachable = true;
  CollectionReport report;  // empty when unreachable
};

class AuditLog {
 public:
  void record(sim::Time at, CollectionReport report);
  void record_unreachable(sim::Time at);

  size_t size() const { return entries_.size(); }
  const std::vector<AuditEntry>& entries() const { return entries_; }

  /// Time of the first collection whose report shows an infection.
  std::optional<sim::Time> first_infection_seen() const;
  /// Time of the first collection whose report shows tampering.
  std::optional<sim::Time> first_tampering_seen() const;

  /// Fraction of rounds in which the device was reachable AND trustworthy.
  double trustworthy_fraction() const;
  /// Fraction of rounds the device answered at all.
  double reachable_fraction() const;

  /// Empirical QoA over the log.
  struct EmpiricalQoA {
    size_t rounds = 0;
    sim::Duration mean_freshness;
    sim::Duration max_freshness;
    sim::Duration mean_collection_interval;
  };
  EmpiricalQoA empirical_qoa() const;

 private:
  std::vector<AuditEntry> entries_;
};

}  // namespace erasmus::attest
