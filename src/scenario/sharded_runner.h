// ShardedFleetRunner: a multi-threaded, deterministic large-fleet driver.
//
// The one fleet driver: it expands a swarm::FleetPlan (possibly
// heterogeneous: mixed architectures, mixed T_M, mixed policies) and
// partitions the fleet into `threads` shards, each with its OWN
// sim::EventQueue, advancing all shards in parallel between
// collection-round barriers. threads = 1 runs everything on the calling
// thread.
//
// Determinism argument (asserted by tests at 1/2/8 threads; the full
// write-up is docs/DETERMINISM.md):
//  * Between barriers devices are independent: a prover's events touch only
//    its own arch/store/timer, and its construction (spec, keys, schedule,
//    stagger offset) is a pure function of (plan, global id) -- never of
//    the shard layout. So any partition executes the same per-device event
//    sequence.
//  * Everything cross-device -- mobility queries (whose lazy trajectory
//    extension consumes a shared RNG and is therefore query-order
//    sensitive), collection, verification, churn, metrics -- runs at
//    barrier instants under coordinator control, sequenced in global
//    device-id order.
//  * Barrier-phase work that IS parallel (the kDirect batch serve, the
//    batched report verify) is restricted to one order-free shape: pure
//    functions into disjoint per-item slots, with domain and chunk counts
//    fixed by the fleet, never by the thread count. Results are then
//    folded back in sequentially, in the exact order the serial code
//    produced them.
// Hence metrics output is bit-for-bit identical for a fixed seed regardless
// of thread count, and `threads` is purely a wall-clock knob.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "adversary/adversary.h"
#include "attest/directory.h"
#include "attest/service.h"
#include "attest/transport.h"
#include "common/parallel.h"
#include "energy/meter.h"
#include "net/network.h"
#include "obs/phase.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "overlay/relay_node.h"
#include "overlay/relay_transport.h"
#include "scenario/metrics.h"
#include "swarm/provision.h"
#include "swarm/radio_links.h"

namespace erasmus::scenario {

/// How collection rounds reach the fleet at barriers.
enum class CollectionBackend : uint8_t {
  /// In-process DirectTransport: every device with a multi-hop path to
  /// the root is served synchronously at the barrier instant (reachability
  /// judged by the radio's link model, swarm::RadioLinks::reachable()).
  kDirect,
  /// The packet-level multi-hop overlay: the AttestationService floods
  /// over a simulated radio network and reports hop back store-and-forward
  /// through overlay::RelayNodes; reachability is whatever the flood
  /// actually harvested before the round deadline (§6).
  kOverlay,
};

/// Knobs of the kOverlay backend (ignored under kDirect).
struct OverlayBackendConfig {
  uint8_t ttl = 8;                 // flood depth bound
  size_t queue_depth = 16;         // per-relay store-and-forward buffer
  sim::Duration forward_spacing = sim::Duration::millis(1);
  sim::Duration net_latency = sim::Duration::millis(2);
  double net_loss = 0.0;
  /// Per-attempt response timeout (floored by the service at twice the
  /// transport's multi-hop estimate) and per-session retry budget.
  sim::Duration response_timeout = sim::Duration::seconds(10);
  int max_retries = 1;
  /// Listening window per collection barrier; sessions still unresolved
  /// here are aborted (device unreached this round). Keep well under the
  /// round interval.
  sim::Duration collect_deadline = sim::Duration::seconds(30);
  /// Retry over the cached parent path of the device's last report (a
  /// source-routed unicast) instead of re-flooding, while the route is
  /// younger than overlay::kRouteTtl. Emits the per-round "scoped_retry"
  /// table.
  bool scoped_retries = false;
  /// Hierarchical collection (src/aggregate): elect cluster heads per
  /// flood; heads absorb child reports and uplink ONE authenticated
  /// AggregateFrame (bitmap of healthy + hash-tree root). The runner
  /// verifies each head's MAC against the directory, closes healthy
  /// members' sessions and demand-fetches cleared ones; emits the
  /// per-round "aggregate" table. The combine_charge hook is installed
  /// by the runner (per-head meter); anything set here is overwritten.
  overlay::AggregationConfig aggregation;
};

using attest::WindowSpec;

struct ShardedFleetConfig {
  /// What to build: N per-device specs and their mobility.
  swarm::FleetPlan plan;
  /// Shard/worker count. 1 runs everything on the calling thread.
  size_t threads = 1;
  size_t rounds = 6;
  sim::Duration round_interval = sim::Duration::minutes(30);
  /// Collection root: the verifier is co-located with this device.
  swarm::DeviceId root = 0;
  /// Records requested per device per collection (the request carries it
  /// in 32 bits; a larger value is rejected).
  size_t k = 8;
  CollectionBackend backend = CollectionBackend::kDirect;
  OverlayBackendConfig overlay;
  /// Dispatch window policy at collection barriers (both backends):
  /// fleet-sized unless the scenario's `window=` knob says otherwise.
  WindowSpec window{WindowSpec::Mode::kFleet};
  /// Live energy metering (energy/meter.h). When metered, every device
  /// carries a DeviceMeter charged for CPU self-measurements (shard-side),
  /// radio bytes (coordinator-side, via the overlay network's energy tap or
  /// the kDirect served-session accounting) and the per-round sleep floor.
  /// A device that exhausts `battery` goes DARK: its prover stops, the
  /// link filter mutes its radio, its relay queue is purged, and it is
  /// excluded from kDirect topology -- it counts as present but
  /// unreachable. battery == 0 with metered == true means metered but
  /// unlimited (mains powered): full joule accounting, dark() never fires.
  struct EnergyBudgetConfig {
    bool metered = false;
    sim::Energy battery{};  // per-device capacity; 0 = unlimited
  } energy;
  /// Adversary engine (src/adversary): roaming malware itineraries,
  /// compromised relays, and scheduled partition/loss fault injection.
  /// Mode kOff with empty fault lists leaves every code path -- and every
  /// byte of output -- exactly as without the engine.
  adversary::EngineConfig adversary;
};

struct FleetRoundResult {
  size_t round = 0;
  sim::Time at;
  size_t present = 0;    // devices currently part of the fleet (churn)
  size_t reachable = 0;  // kDirect: multi-hop path to root exists;
                         // kOverlay: a report actually made it back
  size_t healthy = 0;    // reachable, verified trustworthy and fresh
  size_t flagged = 0;    // reachable but NOT healthy: infection/tampering
  size_t dark = 0;       // battery-exhausted devices to date (metered only)
};

class ShardedFleetRunner {
 public:
  explicit ShardedFleetRunner(ShardedFleetConfig config);

  size_t size() const { return stacks_.size(); }
  /// Bounds-checked: throws std::out_of_range naming the offending id.
  attest::Prover& prover(swarm::DeviceId id);
  /// The spec device `id` was built from (same bounds check).
  const swarm::DeviceSpec& spec(swarm::DeviceId id) const;
  /// The shared verifier-side state: one record per device, judged through
  /// the AttestationService at collection barriers.
  const attest::DeviceDirectory& directory() const { return directory_; }
  /// Floored at each collection barrier: ask at or after the latest one.
  swarm::RandomWaypointMobility& mobility() { return mobility_; }

  /// Schedules `fn(prover)` at virtual time `at` on the owning shard's
  /// queue (e.g. malware injection). Call before run().
  void schedule_on_device(swarm::DeviceId id, sim::Time at,
                          std::function<void(attest::Prover&)> fn);

  /// Invoked single-threaded at each barrier, before that round's
  /// collection -- the hook for churn and other cross-device scripting.
  void set_round_hook(
      std::function<void(ShardedFleetRunner&, size_t round, sim::Time at)>
          hook) {
    round_hook_ = std::move(hook);
  }

  /// Churn control (only call before run() or from the round hook).
  /// Leaving stops the prover's measurement timer and removes the device
  /// from topology/collection; rejoining restarts its schedule.
  void set_present(swarm::DeviceId id, bool present);
  bool present(swarm::DeviceId id) const { return present_.at(id); }
  size_t present_count() const;

  /// Starts all provers, advances shard queues in parallel to each round
  /// barrier, collects single-threaded, and emits one "rounds" row per
  /// round into `sink` (begin_run/end_run are the caller's job).
  std::vector<FleetRoundResult> run(MetricsSink& sink);

  /// Cumulative overlay counters, summed over every relay node plus the
  /// transport (kOverlay only; per-round rows are emitted as deltas).
  struct OverlayTotals {
    uint64_t floods_seen = 0;
    uint64_t floods_forwarded = 0;
    uint64_t requests_served = 0;
    uint64_t reports_relayed = 0;
    uint64_t reports_dropped = 0;
    uint64_t route_repairs = 0;
    uint64_t malformed_frames = 0;
    uint64_t duplicate_reports = 0;
    uint64_t stale_reports = 0;
    uint64_t scoped_sent = 0;       // transport: unicast retries launched
    uint64_t scoped_forwarded = 0;  // relays: scoped hops passed on
    uint64_t naks = 0;              // relays: broken-route notices raised
    // Hierarchical collection (zero with aggregation off):
    uint64_t heads_elected = 0;
    uint64_t reports_absorbed = 0;
    uint64_t aggregates_built = 0;
    uint64_t aggregates_relayed = 0;
    uint64_t aggregates_dark_purged = 0;
    uint64_t aggregates_received = 0;  // transport: accepted frames
    // Adversarial relay behaviour (zero without compromised relays):
    uint64_t dropped_adversarial = 0;    // relays: frames discarded on purpose
    uint64_t corrupted_adversarial = 0;  // relays: frames scribbled
    uint64_t sybil_injected = 0;         // relays: forged reports originated
    uint64_t spoofed_rejected = 0;       // transport: forged origins rejected
    std::vector<uint64_t> hops;  // transport hop histogram
  };
  OverlayTotals overlay_totals() const;
  const overlay::RelayTransport* relay_transport() const {
    return relay_transport_.get();
  }
  /// kDirect's in-process transport (batch-serve counters).
  const attest::DirectTransport& direct_transport() const {
    return direct_transport_;
  }
  /// The overlay radio (kOverlay only, else nullptr) -- byte/drop
  /// accounting for benches.
  const net::Network* overlay_network() const { return overlay_net_.get(); }
  /// The verifier-side service (window trajectory, round stats).
  const attest::AttestationService& service() const { return *service_; }
  /// The fleet's battery ledgers (nullptr when energy.metered is false) --
  /// joule totals and dark counts for scenarios and benches.
  const energy::FleetMeter* energy_meter() const {
    return energy_meter_.get();
  }
  /// The adversary engine (nullptr when adversary.mode is kOff and no
  /// fault events are scheduled) -- detection stats for scenarios/benches.
  const adversary::Engine* adversary_engine() const { return engine_.get(); }
  /// Wall-clock phase profile of run(): shard work vs barrier wait vs
  /// coordinator drain. Host-dependent -- report, never gate.
  const obs::PhaseProfiler& phases() const { return phases_; }

 private:
  struct Shard {
    std::unique_ptr<sim::EventQueue> queue;
  };

  /// Contiguous-block partition: device ids [0, n) split into
  /// shards_.size() nearly-equal runs (the first n % shards blocks get one
  /// extra device). Blocks, not modulo: per-device work correlates with id
  /// parity in mixed-T_M plans (cycle_tm alternates by id), so a modulo
  /// partition hands every shard the same heavy/light mix only by luck --
  /// blocks average it out. The partition is a pure function of (fleet
  /// size, shard count) and never leaks into any output: devices are built
  /// and collected in GLOBAL id order regardless of which shard owns them.
  size_t shard_of(swarm::DeviceId id) const;
  void advance_all(sim::Time barrier);
  FleetRoundResult collect_round(size_t round, sim::Time at);
  /// Per-round "window" row (both backends) and, with scoped retries on,
  /// the "scoped_retry" row -- emitted right after the round's collection.
  void emit_window_round(MetricsSink& sink, size_t round,
                         const overlay::RelayTransport::Stats& before);
  void build_overlay();
  void emit_overlay_round(MetricsSink& sink, size_t round,
                          const OverlayTotals& before);
  /// Verifier-side landing of one deduplicated aggregate frame: MAC
  /// verification against the HEAD's directory record (the transport is
  /// deliberately directory-free), then per-bit session resolution --
  /// healthy bits close sessions, cleared bits demand raw evidence.
  void on_aggregate(const aggregate::AggregateFrame& frame, uint8_t hops);
  /// Coordinator-side lifetime counters behind the per-round "aggregate"
  /// table (emitted as deltas, byte-identical at any thread count).
  /// Sessions a healthy bit closed are the service's aggregated_sessions.
  struct AggregateCounters {
    uint64_t clusters = 0;       // authenticated frames accepted
    uint64_t members = 0;        // members those frames vouched for
    uint64_t auth_failures = 0;  // bad head MAC (or out-of-range head)
  };
  void emit_aggregate_round(MetricsSink& sink, size_t round,
                            const AggregateCounters& before,
                            const overlay::RelayTransport::Stats&
                                transport_before);
  /// The whole "metrics" table, in its pinned row order: one row per
  /// count, read from the ledger that keeps it (histograms additionally
  /// into "metrics_hist", one row per bucket).
  void emit_metrics_round(MetricsSink& sink, size_t round);
  /// kRunner "channel_drain" trace instant with the round's deltas of the
  /// DirectTransport's batch-serve counters (kDirect batch serve only).
  /// Domain count is fixed by the FLEET (never the thread count), so
  /// these values are byte-identical at 1/2/8 threads.
  void trace_channel_drain(sim::Time at);
  /// Hooks each device's measurement observer: trace emission into its
  /// shard's buffer (kDevice category) and/or the meter's CPU charge. The
  /// observer runs shard-side and touches only shard-local state -- the
  /// lock-free discipline both TraceShard and DeviceMeter want.
  void attach_device_observers();
  /// Builds one DeviceMeter per device from its spec's cost profile
  /// (energy.metered only).
  void build_energy_meter();
  /// Is `id` an active collection participant? Present AND not dark.
  bool active(swarm::DeviceId id) const;
  /// Coordinator-side pass over the fleet: newly dark devices get their
  /// prover silenced (idempotent; shard-side transitions already stopped
  /// it) and a kEnergy "went_dark" trace instant at the exhausting
  /// charge's timestamp. Returns how many devices were newly swept.
  size_t sweep_dark();
  /// Per-round "energy" row (per-bucket mJ deltas, dark counts) and the
  /// battery_remaining observations.
  void emit_energy_round(MetricsSink& sink, size_t round);
  /// Builds the adversary engine (when configured) and schedules its
  /// itinerary legs on the owning shards plus fault events on the
  /// coordinator queue.
  void build_adversary();
  /// Per-round "adversary" row: campaign deltas (infections, migrations,
  /// evasions, captures, detections), current residency, the cumulative
  /// mean detection latency, and the round's adversarial relay losses.
  void emit_adversary_round(MetricsSink& sink, size_t round,
                            const OverlayTotals& before);

  ShardedFleetConfig config_;
  std::vector<swarm::DeviceSpec> specs_;  // indexed by global DeviceId
  swarm::RandomWaypointMobility mobility_;
  /// One persistent worker pool for EVERY parallel phase the runner owns:
  /// shard advances between barriers, the transport's domain-parallel
  /// collect serve and the service's batched verify (plus mobility's
  /// snapshot() rows, when a caller of mobility() asks for one). Sized to
  /// the shard count (1 = all phases inline on the calling thread, same
  /// code path, zero synchronization).
  std::unique_ptr<common::ParallelExecutor> executor_;
  std::vector<Shard> shards_;
  std::vector<swarm::DeviceStack> stacks_;  // indexed by global DeviceId
  std::vector<bool> present_;
  /// Battery ledgers (energy.metered only). Shard threads write only their
  /// own devices' meters between barriers; the coordinator writes only
  /// while shards are parked (see energy/meter.h).
  std::unique_ptr<energy::FleetMeter> energy_meter_;
  std::vector<bool> swept_dark_;  // went-dark already traced/counted
  /// The last "energy" row's totals: the energy metrics rows read these.
  energy::FleetMeter::Totals last_energy_totals_;
  size_t last_dark_ = 0;
  /// Remaining battery fraction, one observation per present device per
  /// round (finite batteries only; cumulative like every histogram).
  obs::Histogram battery_remaining_{{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}};
  std::function<void(ShardedFleetRunner&, size_t, sim::Time)> round_hook_;
  bool started_ = false;
  /// Adversary engine (nullptr when inert). Planned at construction;
  /// shard-side hooks touch only per-device slots, coordinator hooks run
  /// at barriers -- see adversary/adversary.h for the determinism
  /// contract.
  std::unique_ptr<adversary::Engine> engine_;
  adversary::Engine::Snapshot last_adversary_;  // previous round's row

  // Verifier side: one shared service over the whole fleet. Collection at
  // barriers is single-threaded on the coordinator, whose own queue (the
  // timeout clock, and under kOverlay the radio network's clock) is
  // advanced while the shard queues are parked at the barrier -- so
  // thread count never enters the picture and metrics stay byte-identical.
  sim::EventQueue coordinator_queue_;
  attest::DeviceDirectory directory_;
  attest::DirectTransport direct_transport_;
  /// The link model of both backends: kDirect's reachability, kOverlay's
  /// link filter and range query.
  std::unique_ptr<swarm::RadioLinks> radio_;
  // kOverlay wiring: a radio network on the coordinator queue; node ids
  // are device ids, the verifier endpoint is node `fleet size`.
  std::unique_ptr<net::Network> overlay_net_;
  /// The relays' shared store-and-forward occupancy samples.
  obs::Histogram relay_occupancy_{{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}};
  std::vector<std::unique_ptr<overlay::RelayNode>> relay_nodes_;
  std::unique_ptr<overlay::RelayTransport> relay_transport_;
  net::NodeId verifier_node_ = 0;
  AggregateCounters agg_counters_;
  std::unique_ptr<attest::AttestationService> service_;

  /// Observability: the process-global flight recorder (nullptr = tracing
  /// off) and the wall-clock phase profile. All updates happen on the
  /// coordinator thread except shard-buffered kDevice events.
  obs::TraceRecorder* trace_ = nullptr;
  obs::PhaseProfiler phases_;
  /// Batch-serve counters at the last channel_drain instant.
  attest::DirectTransport::BatchCounters last_channel_;
};

}  // namespace erasmus::scenario
