// Ablation for §3.2 (rolling measurement storage): measurement-loss rate as
// a function of buffer capacity n and collection period T_C.
//
// The paper's safety condition is T_C <= n * T_M: collect at least as fast
// as the window wraps, or uncollected measurements are overwritten. This
// bench sweeps both sides of that boundary with a real prover+verifier loop
// and reports the fraction of measurements that never reached the verifier.
#include <cstdio>
#include <set>

#include "analysis/bench_report.h"
#include "analysis/table.h"
#include "attest/prover.h"
#include "attest/qoa.h"
#include "attest/directory.h"

using namespace erasmus;
using sim::Duration;
using sim::Time;

namespace {

constexpr size_t kRecord = 1 + 8 + 32 + 32;

struct LossResult {
  uint64_t produced = 0;
  uint64_t collected_unique = 0;

  double loss_rate() const {
    return produced == 0
               ? 0.0
               : 1.0 - static_cast<double>(collected_unique) /
                           static_cast<double>(produced);
  }
};

LossResult run(size_t n_slots, Duration tm, Duration tc, Duration horizon) {
  const Bytes key = bytes_of("buffer-ablation-key-0123456789ab");
  sim::EventQueue queue;
  hw::SmartPlusArch arch(key, 4096, 1024, n_slots * kRecord);
  attest::Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                        std::make_unique<attest::RegularScheduler>(tm),
                        attest::ProverConfig{});
  attest::DeviceRecord record;
  record.key = crypto::MacKey(crypto::MacAlgo::kHmacSha256, key);
  record.set_golden(crypto::Hash::digest(
      crypto::HashAlgo::kSha256,
      arch.memory().view(arch.app_region(), true)));

  prover.start();
  std::set<uint64_t> unique_timestamps;
  const size_t k = attest::QoAParams{tm, tc}.measurements_per_collection();
  for (Time at = Time::zero() + tc; at <= Time::zero() + horizon;
       at = at + tc) {
    queue.schedule_at(at, [&] {
      const auto res = prover.handle_collect(
          attest::CollectRequest{static_cast<uint32_t>(k)});
      const auto report =
          attest::verify_collection(record, res.response, queue.now());
      for (const auto& v : report.verdicts) {
        if (v.status != attest::MeasurementStatus::kBadMac) {
          unique_timestamps.insert(v.m.timestamp);
        }
      }
    });
  }
  queue.run_until(Time::zero() + horizon);

  LossResult result;
  result.produced = prover.stats().measurements;
  result.collected_unique = unique_timestamps.size();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // Already sub-minute at full size: --quick is accepted (CI runs every
  // bench uniformly) and by contract never changes the simulated
  // configuration, so all emitted quantities keep their full-mode values.
  (void)analysis::bench_quick_mode(argc, argv);

  const Duration tm = Duration::minutes(10);
  const Duration horizon = Duration::hours(48);

  std::printf("=== Ablation (Sect. 3.2): rolling buffer sizing ===\n");
  std::printf("T_M = 10 min, 48 h horizon. Safety condition: T_C <= n*T_M\n"
              "(k = ceil(T_C/T_M) collected per round).\n\n");

  analysis::BenchReport bench("ablation_buffer");
  analysis::Table table({"n (slots)", "T_C (min)", "n*T_M (min)", "safe?",
                         "produced", "collected", "loss rate"});
  for (const size_t n : {4, 6, 8, 12}) {
    for (const uint64_t tc_min : {30ull, 60ull, 90ull, 120ull}) {
      const Duration tc = Duration::minutes(tc_min);
      const attest::QoAParams qoa{tm, tc};
      const auto result = run(n, tm, tc, horizon);
      bench.sample(qoa.buffer_safe(n) ? "loss_rate_safe" : "loss_rate_unsafe",
                   result.loss_rate());
      table.add_row({std::to_string(n), std::to_string(tc_min),
                     std::to_string(n * 10), qoa.buffer_safe(n) ? "yes" : "NO",
                     std::to_string(result.produced),
                     std::to_string(result.collected_unique),
                     analysis::fmt(result.loss_rate(), 3)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Expected shape: loss ~0 whenever T_C <= n*T_M, growing once "
              "the window wraps faster than the verifier collects.\n\n");
  // A missing BENCH json would silently weaken the CI baseline gate.
  if (bench.write().empty()) return 1;
  return 0;
}
