// Reproduces paper Fig. 1: the QoA illustration. Two infections hit an
// unattended prover that self-measures every T_M and is collected every
// T_C:
//   * infection 1 (mobile): enters and leaves between two measurements --
//     undetected (the fundamental limit that smaller T_M narrows);
//   * infection 2 (persistent until after a measurement): measured soon
//     after entry, but corrective action waits for the next collection --
//     illustrating why small T_C matters.
//
// The bench then generalises the picture with a Monte-Carlo campaign over
// random infections, reporting detection rate and latency vs. (T_M, T_C).
#include <cstdio>

#include "analysis/bench_report.h"
#include "analysis/table.h"
#include "attest/prover.h"
#include "attest/qoa.h"
#include "attest/directory.h"
#include "common/hex.h"
#include "malware/campaign.h"
#include "malware/malware.h"

using namespace erasmus;
using sim::Duration;
using sim::Time;

namespace {

constexpr size_t kRecord = 1 + 8 + 32 + 32;

struct Device {
  sim::EventQueue queue;
  hw::SmartPlusArch arch;
  attest::Prover prover;
  attest::DeviceRecord record;

  Device(Duration tm)
      : arch(bytes_of("fig1-device-key-0123456789abcdef"), 4096, 2048,
             64 * kRecord),
        prover(queue, arch, arch.app_region(), arch.store_region(),
               std::make_unique<attest::RegularScheduler>(tm),
               attest::ProverConfig{}),
        record([&] {
          attest::DeviceRecord r;
          r.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256,
                                 bytes_of("fig1-device-key-0123456789abcdef"));
          r.set_golden(crypto::Hash::digest(
              crypto::HashAlgo::kSha256,
              arch.memory().view(arch.app_region(), true)));
          return r;
        }()) {}
};

void timeline_demo() {
  const Duration tm = Duration::minutes(10);
  const Duration tc = Duration::hours(1);
  Device dev(tm);
  dev.prover.start();

  malware::MobileMalware infection1(dev.queue, dev.prover);
  // Infection 1: 12:00 -> 17:00 past the hour (between measurements).
  infection1.schedule(Time::zero() + Duration::minutes(12),
                      Duration::minutes(5));

  std::printf("=== Fig. 1: QoA timeline (T_M = 10 min, T_C = 60 min) ===\n\n");
  std::printf("  time   event\n");
  std::printf("  -----  -----------------------------------------------\n");
  std::printf("  12:00  infection 1 enters (mobile malware)\n");
  std::printf("  17:00  infection 1 covers tracks and leaves\n");
  std::printf("  35:00  infection 2 enters\n");
  std::printf("  52:00  infection 2 leaves (after the 40:00 and 50:00 "
              "measurements)\n\n");

  // We reuse one Infector per prover (observer slot); infection 2 runs on
  // the same object after infection 1 finished.
  infection1.schedule(Time::zero() + Duration::minutes(35),
                      Duration::minutes(17));

  dev.queue.run_until(Time::zero() + tc);
  const auto res = dev.prover.handle_collect(attest::CollectRequest{6});
  const auto report =
      attest::verify_collection(dev.record, res.response, dev.queue.now());

  std::printf("Collection at 60:00 returned %zu measurements:\n",
              report.verdicts.size());
  for (auto it = report.verdicts.rbegin(); it != report.verdicts.rend();
       ++it) {
    std::printf("  t=%5llu s  digest=%-12s  -> %s\n",
                static_cast<unsigned long long>(it->m.timestamp),
                hex_abbrev(it->m.digest).c_str(),
                attest::to_string(it->status).c_str());
  }

  const auto& infections = infection1.history();
  std::printf("\nGround truth vs. verifier:\n");
  std::printf("  infection 1 measured while present: %s (paper: undetected)\n",
              infections[0].was_measured() ? "YES" : "no");
  std::printf("  infection 2 measured while present: %s (paper: detected at "
              "next collection)\n",
              infections[1].was_measured() ? "YES" : "no");
  std::printf("  verifier detected an infection:     %s\n",
              report.infection_detected ? "YES" : "no");
  std::printf("  freshness f at collection:          %s (expected <= T_M)\n\n",
              report.freshness ? sim::to_string(*report.freshness).c_str()
                               : "n/a");
}

void campaign_sweep(analysis::BenchReport& bench) {
  std::printf("=== QoA generalisation: random mobile-malware campaigns ===\n");
  std::printf("(240 h horizon, 60 infections of 5 min dwell; detection rate "
              "~ dwell/T_M, latency bounded by T_M + T_C)\n\n");
  analysis::Table table({"T_M (min)", "T_C (min)", "detected/total",
                         "rate", "mean latency (min)", "analytic d/T_M"});
  for (const auto& [tm_min, tc_min] :
       {std::pair{5, 30}, {10, 60}, {20, 60}, {30, 120}, {60, 240}}) {
    Device dev(Duration::minutes(tm_min));
    dev.prover.start();
    malware::CampaignConfig cfg;
    cfg.horizon = Duration::hours(240);
    cfg.tc = Duration::minutes(tc_min);
    cfg.infection_count = 60;
    cfg.dwell = Duration::minutes(5);
    cfg.seed = 1000 + tm_min;
    const auto result = malware::run_mobile_campaign(dev.queue, dev.prover,
                                                     dev.record, cfg);
    const double analytic = attest::detection_prob_regular(
        cfg.dwell, Duration::minutes(tm_min));
    bench.sample("detection_rate", result.detection_rate());
    for (const auto& latency : result.detection_latencies) {
      bench.sample("detection_latency_min", latency.to_seconds() / 60.0);
    }
    table.add_row(
        {std::to_string(tm_min), std::to_string(tc_min),
         std::to_string(result.detected) + "/" +
             std::to_string(result.infections),
         analysis::fmt(result.detection_rate(), 2),
         analysis::fmt(result.mean_detection_latency().to_seconds() / 60.0, 1),
         analysis::fmt(analytic > 1.0 ? 1.0 : analytic, 2)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Already sub-minute at full size: --quick is accepted (CI runs every
  // bench uniformly) and by contract never changes the simulated
  // configuration, so all emitted quantities keep their full-mode values.
  (void)analysis::bench_quick_mode(argc, argv);

  timeline_demo();
  analysis::BenchReport bench("fig1_qoa_timeline");
  campaign_sweep(bench);
  // A missing BENCH json would silently weaken the CI baseline gate.
  if (bench.write().empty()) return 1;
  return 0;
}
