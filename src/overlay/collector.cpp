#include "overlay/collector.h"

#include <algorithm>

namespace erasmus::overlay {

namespace {

RelayTransportConfig transport_config(const RelayCollectorConfig& config,
                                      size_t fleet) {
  RelayTransportConfig tc = config.transport;
  tc.flood_memory = std::max(tc.flood_memory, flood_memory_for(fleet));
  return tc;
}

attest::ServiceConfig service_config(const RelayCollectorConfig& config,
                                     size_t fleet) {
  attest::ServiceConfig sc;
  sc.k = 1;  // per-round k is passed through collect_now()
  sc.response_timeout = config.response_timeout;
  sc.max_retries = config.max_retries;
  // One flood covers the whole swarm, so the dispatch window must too:
  // throttling would just delay sessions past reports that already
  // arrived.
  sc.window.fixed = fleet == 0 ? 1 : fleet;
  sc.keep_audit = false;  // round results are judged per round, not logged
  return sc;
}

}  // namespace

RelayCollector::RelayCollector(sim::EventQueue& queue, net::Network& network,
                               net::NodeId self,
                               attest::DeviceDirectory& directory,
                               size_t num_nodes, RelayCollectorConfig config)
    : queue_(queue), directory_(directory),
      transport_(network, self, num_nodes,
                 transport_config(config, directory.size())),
      service_(queue, transport_, directory,
               service_config(config, directory.size())) {
  service_.set_observer([this](
      const attest::AttestationService::SessionOutcome& outcome) {
    if (outcome.device >= statuses_.size()) return;
    DeviceStatus& status = statuses_[outcome.device];
    if (!outcome.reachable) return;  // retry budget exhausted: unreachable
    status.attested = true;
    status.healthy = outcome.report.device_trustworthy() &&
                     outcome.report.freshness.has_value();
    ++reports_;
    last_report_at_ = outcome.at;
  });
}

RelayCollector::RoundResult RelayCollector::run_round(uint32_t k,
                                                      sim::Duration deadline) {
  statuses_.assign(directory_.size(), {});
  for (attest::DeviceId id = 0; id < directory_.size(); ++id) {
    statuses_[id].device = id;
  }
  reports_ = 0;
  round_start_ = queue_.now();
  last_report_at_ = round_start_;

  std::vector<attest::DeviceId> all(directory_.size());
  for (attest::DeviceId id = 0; id < directory_.size(); ++id) all[id] = id;
  service_.collect_now(all, k);
  queue_.run_until(round_start_ + deadline);
  // Deadline semantics: whatever is still in flight did not make this
  // round. stop() aborts those sessions; their late reports surface as
  // stale/stray datagrams and never disturb the next round.
  if (service_.round_in_progress()) service_.stop();

  RoundResult result;
  result.statuses = std::move(statuses_);
  statuses_.clear();
  result.reports_received = reports_;
  result.elapsed = last_report_at_ - round_start_;
  return result;
}

}  // namespace erasmus::overlay
