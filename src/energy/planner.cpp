#include "energy/planner.h"

#include <algorithm>
#include <cmath>

#include "attest/qoa.h"
#include "common/strings.h"

namespace erasmus::energy {

namespace {

// Representative overlay wire sizes (overlay/wire.h frames). The model
// only needs them to be the right order of magnitude relative to each
// other; the runtime meter charges actual frame sizes. kDirect uses the
// runner's exact wire model (meter.h).
constexpr double kFloodBytes = 32.0;
constexpr double kScopedBytes = 48.0;

double report_bytes(const FleetModel& fleet, const Mission& mission,
                    sim::Duration tm) {
  // A report carries min(k, what the store holds) records: a long T_M
  // produces few measurements per collection interval, so its reports are
  // SHORT -- raising T_M shrinks the radio bill too, not just the CPU one.
  double records = static_cast<double>(fleet.k);
  if (!tm.is_zero()) {
    records = std::min(
        records, std::ceil(mission.round_interval.to_seconds() /
                           tm.to_seconds()));
  }
  records = std::max(1.0, records);
  return static_cast<double>(kDirectReportHeaderBytes) +
         records * static_cast<double>(fleet.record_bytes);
}

/// Probability one report survives the round trip (request down the tree,
/// report back up) without any retry.
double single_trip_success(const Mission& mission, double mean_hops) {
  const double per_hop = std::clamp(1.0 - mission.loss, 0.0, 1.0);
  return std::pow(per_hop, 2.0 * (mean_hops + 1.0));
}

}  // namespace

const char* to_string(BackendChoice b) {
  switch (b) {
    case BackendChoice::kDirect: return "direct";
    case BackendChoice::kOverlay: return "overlay";
    case BackendChoice::kScoped: return "scoped";
  }
  return "?";
}

double predict_reach(const FleetModel& fleet, const Mission& mission,
                     BackendChoice backend) {
  if (backend == BackendChoice::kDirect) return 1.0;
  const double p1 = single_trip_success(mission, fleet.mean_hops);
  // One retry (the runner default): a session fails only when both the
  // flood attempt and its retry miss.
  return std::clamp(1.0 - (1.0 - p1) * (1.0 - p1), 0.0, 1.0);
}

sim::Energy predict_device_energy(const FleetModel& fleet,
                                  const Mission& mission, sim::Duration tm,
                                  BackendChoice backend) {
  const CostModel cost = CostModel::for_device(
      fleet.profile, profile_for(fleet.arch), fleet.algo,
      fleet.attested_bytes);
  const sim::Duration horizon =
      mission.round_interval * mission.rounds;
  const uint64_t measurements = tm.is_zero() ? 0 : horizon / tm;

  const double rpt = report_bytes(fleet, mission, tm);
  double tx_bytes_per_round = 0.0;
  double rx_bytes_per_round = 0.0;
  if (backend == BackendChoice::kDirect) {
    rx_bytes_per_round = static_cast<double>(kDirectRequestBytes);
    tx_bytes_per_round = rpt;
  } else {
    // Flood discovery: re-broadcast once (the radio keys once per
    // broadcast), hear each neighbour's re-flood; reports cross
    // mean_hops relays, so the average device also forwards mean_hops
    // reports per round.
    tx_bytes_per_round = kFloodBytes + rpt * (1.0 + fleet.mean_hops);
    rx_bytes_per_round =
        kFloodBytes * fleet.mean_degree + rpt * fleet.mean_hops;
    const double p_fail =
        1.0 - single_trip_success(mission, fleet.mean_hops);
    if (backend == BackendChoice::kOverlay) {
      // A failed session re-floods: the whole per-round radio bill again,
      // for the failed fraction of the fleet.
      tx_bytes_per_round *= 1.0 + p_fail;
      rx_bytes_per_round *= 1.0 + p_fail;
    } else {
      // Scoped retry: a source-routed unicast down the cached path and
      // the report back up -- per-hop frames, no flood.
      const double hops = fleet.mean_hops + 1.0;
      tx_bytes_per_round += p_fail * hops * (kScopedBytes + rpt);
      rx_bytes_per_round += p_fail * hops * (kScopedBytes + rpt);
    }
  }

  sim::Energy total = from_nanojoules(cost.measurement_nj) *
                      static_cast<double>(measurements);
  total += from_nanojoules(cost.sleep_nj_per_s) * horizon.to_seconds();
  const double rounds = static_cast<double>(mission.rounds);
  total += from_nanojoules(cost.tx_nj_per_byte) *
           (tx_bytes_per_round * rounds);
  total += from_nanojoules(cost.rx_nj_per_byte) *
           (rx_bytes_per_round * rounds);
  return total;
}

double predict_qoa_per_joule(const FleetModel& fleet, const Mission& mission,
                             sim::Duration tm, BackendChoice backend) {
  const double joules =
      predict_device_energy(fleet, mission, tm, backend).joules();
  if (joules <= 0.0) return 0.0;
  const double p = attest::detection_prob_regular(mission.dwell, tm);
  const double qoa =
      static_cast<double>(mission.rounds) *
      predict_reach(fleet, mission, backend) * p;
  return qoa / joules;
}

Decision plan(const FleetModel& fleet, const Mission& mission,
              obs::TraceRecorder* trace) {
  require_probability("planner: mission loss", mission.loss);
  Decision d;
  std::string reasons;
  const auto add_reason = [&reasons](const char* r) {
    if (!reasons.empty()) reasons += '|';
    reasons += r;
  };

  // Backend: infrastructure unlocks the direct backhaul; a lossy field
  // deployment wants retries that do not re-flood.
  if (mission.infrastructure) {
    d.backend = BackendChoice::kDirect;
    add_reason("backend_direct_infrastructure");
  } else if (mission.loss > 0.02) {
    d.backend = BackendChoice::kScoped;
    add_reason("backend_scoped_lossy");
  } else {
    d.backend = BackendChoice::kOverlay;
    add_reason("backend_overlay_field");
  }

  // Window: AIMD adaptation manages relay-queue CONGESTION, and congestion
  // needs a fleet big enough to swamp the store-and-forward buffers. It is
  // not free energy-wise -- a small adaptive window dispatches a round as
  // many batches, and every batch is another swarm-wide flood -- so a
  // small fleet keeps the single-flood default window even on a lossy
  // medium (loss is the retry machinery's job, not the window's).
  if (d.backend != BackendChoice::kDirect && fleet.devices > 64) {
    d.adaptive_window = true;
    add_reason("window_adaptive_fleet");
  } else {
    add_reason("window_default");
  }

  // T_M: QoA/J peaks at tm = dwell (see header). Clamp into the sane
  // range, then walk tm up geometrically while the mission budget is
  // exceeded -- fewer measurements is the only knob that scales the bill.
  const sim::Duration floor = sim::Duration::minutes(1);
  sim::Duration tm = mission.dwell;
  if (tm < floor) {
    tm = floor;
    add_reason("tm_clamped_floor");
  } else if (tm > mission.round_interval) {
    tm = mission.round_interval;
    add_reason("tm_clamped_interval");
  } else {
    add_reason("tm_matched_dwell");
  }

  const uint64_t budget_nj = to_nanojoules(mission.device_budget);
  if (budget_nj > 0) {
    bool raised = false;
    while (to_nanojoules(predict_device_energy(fleet, mission, tm,
                                               d.backend)) > budget_nj &&
           tm < mission.round_interval) {
      tm = std::min(mission.round_interval,
                    sim::Duration(tm.ns() + tm.ns() / 4));
      raised = true;
    }
    if (raised) add_reason("tm_raised_for_budget");
    if (to_nanojoules(predict_device_energy(fleet, mission, tm,
                                            d.backend)) > budget_nj) {
      add_reason("budget_infeasible");
    }
  }

  d.tm = tm;
  d.detection_prob = attest::detection_prob_regular(mission.dwell, tm);
  d.predicted_device_energy =
      predict_device_energy(fleet, mission, tm, d.backend);
  d.predicted_qoa_per_joule =
      predict_qoa_per_joule(fleet, mission, tm, d.backend);
  d.reasons = std::move(reasons);

  if (trace && trace->enabled(obs::Subsystem::kEnergy)) {
    trace->instant(
        obs::Subsystem::kEnergy, sim::Time::zero(), "planner_decision",
        {{"tm_s", tm.to_seconds()},
         {"backend", to_string(d.backend)},
         {"adaptive_window", static_cast<uint64_t>(d.adaptive_window)},
         {"detection_prob", d.detection_prob},
         {"device_mj", d.predicted_device_energy.millijoules()},
         {"qoa_per_joule", d.predicted_qoa_per_joule},
         {"reasons", d.reasons}});
  }
  return d;
}

}  // namespace erasmus::energy
