// Scenario `swarm_relay`: multi-hop overlay collection of a mobile swarm
// (§6, the packet-level version of swarm_patrol's rover).
//
// N devices self-measure while moving at vehicle speeds; at every round
// barrier the AttestationService floods a collect request through the
// overlay::RelayTransport and harvests whatever part of the swarm has a
// multi-hop path at that instant -- store-and-forward relays, bounded
// queues, TTL-bounded discovery and mobility-aware route repair included.
// One device picks up persistent malware mid-run and must be flagged
// through the relay path. Emits the standard per-round fleet rows plus
// per-round overlay counters and the hop-count distribution.
//
// `threads=8 devices=1000` uses all cores and produces byte-identical
// metrics to `threads=1`: provers advance on shard queues between
// barriers, while every packet of the overlay runs on the single-threaded
// coordinator clock.
#include <climits>
#include <cstdint>

#include "adversary/adversary.h"
#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;
using sim::Time;

class SwarmRelayScenario : public Scenario {
 public:
  std::string name() const override { return "swarm_relay"; }
  std::string description() const override {
    return "mobile swarm collected through the multi-hop overlay "
           "(flood discovery, store-and-forward relays, route repair); "
           "sharded multi-core fleet";
  }
  std::vector<ParamSpec> param_specs() const override {
    return {
        {"devices", "50", "fleet size"},
        {"threads", "1", "shard/worker threads (wall-clock only; metrics "
                         "are thread-count independent)"},
        {"seed", "2024", "mobility + key + loss seed"},
        {"arch", "smartplus", "security architecture (smartplus, hydra, "
                              "trustlite)"},
        {"tm", "10m", "self-measurement period T_M"},
        {"rounds", "4", "collection rounds"},
        {"interval", "30m", "time between collection rounds"},
        {"k", "8", "records collected per device per round"},
        {"ttl", "8", "flood TTL (reaches ttl+1 hops)"},
        {"queue_depth", "16", "per-relay store-and-forward buffer (reports)"},
        {"forward_spacing", "1ms", "relay serialization per report"},
        {"latency", "2ms", "per-hop radio latency"},
        {"loss", "0", "per-hop datagram loss probability"},
        {"deadline", "30s", "listening window per round"},
        {"timeout", "10s", "per-attempt response timeout"},
        {"retries", "1", "per-session retry budget (each retry re-floods "
                         "or, with scoped_retries=on, unicasts a cached "
                         "route)"},
        {"window", "fleet", "dispatch window: fleet|adaptive|N "
                            "(adaptive = AIMD with congestion damping)"},
        {"scoped_retries", "off", "retry over the cached parent path "
                                  "instead of re-flooding while the route "
                                  "is fresh (on|off)"},
        {"aggregate", "off", "hierarchical collection: off | on (depth-band "
                             "head election per flood) | planned (static "
                             "id-stride heads)"},
        {"aggregate_stride", "2", "head election stride: every stride-th "
                                  "flood depth (on) or device id (planned) "
                                  "heads a cluster"},
        {"aggregate_window", "200ms", "head hold-and-combine window before "
                                      "the aggregate frame is flushed"},
        {"field", "300", "field side (metres) -- topology density"},
        {"range", "60", "radio range (metres)"},
        {"speed_min", "6", "min speed (m/s)"},
        {"speed_max", "12", "max speed (m/s)"},
        {"infect_device", "13", "device infected mid-run (skipped when "
                                ">= devices)"},
        {"infect_at", "42m", "infection time into the run"},
        {"battery", "", "per-device battery with a REQUIRED unit (e.g. "
                        "500mJ, 2J); devices that exhaust it go dark. "
                        "Empty = unmetered; 0J = metered but unlimited "
                        "(joule accounting only)"},
        {"adversary", "off", "attacker family: off | roaming (mobile "
                             "malware hopping hosts) | relay (compromised "
                             "relays drop/corrupt relayed frames) | sybil "
                             "(compromised relays flood forged-origin "
                             "reports)"},
        {"adversary_dwell", "12m", "useful-work time the roaming malware "
                                   "needs on one host (REQUIRED unit; the "
                                   "paper's T_M-vs-dwell lever)"},
        {"migration", "aware", "roaming strategy: random | aware "
                               "(measurement-schedule aware) | dwell "
                               "(random host, randomized dwell)"},
        {"adversary_chains", "2", "independent roaming infection chains"},
        {"adversary_at", "5m", "earliest first-infection time into the run"},
        {"compromised", "0.15", "relay/sybil: fraction of relay nodes "
                                "compromised (at least one)"},
        {"sybil_reports", "4", "sybil: forged-origin reports injected per "
                               "first-sight flood"},
        {"relay_corrupt", "off", "relay: corrupt relayed frames instead of "
                                 "dropping them (on|off)"},
    };
  }

  int run(const ParamMap& params, MetricsSink& sink) const override {
    swarm::DeviceSpec base;
    base.arch = hw::arch_kind_from_string(
        params.get_str("arch", "smartplus"));
    base.profile = swarm::default_profile_for(base.arch);
    base.tm = params.get_duration("tm", Duration::minutes(10));
    base.app_ram_bytes = 2 * 1024;
    base.store_slots = 64;

    ShardedFleetConfig cfg;
    cfg.plan = swarm::FleetPlan::uniform(
        static_cast<size_t>(params.get_u64("devices", 50)),
        params.get_u64("seed", 2024), base);
    cfg.plan.mobility.field_size = params.get_double("field", 300.0);
    cfg.plan.mobility.radio_range = params.get_double("range", 60.0);
    cfg.plan.mobility.speed_min = params.get_double("speed_min", 6.0);
    cfg.plan.mobility.speed_max = params.get_double("speed_max", 12.0);
    cfg.plan.mobility.seed = params.get_u64("seed", 2024);
    cfg.threads = static_cast<size_t>(params.get_u64("threads", 1));
    cfg.rounds = static_cast<size_t>(params.get_u64("rounds", 4));
    cfg.round_interval =
        params.get_duration("interval", Duration::minutes(30));
    cfg.k = static_cast<size_t>(params.get_u64("k", 8));

    cfg.backend = CollectionBackend::kOverlay;
    cfg.overlay.ttl =
        static_cast<uint8_t>(params.get_u64("ttl", 8, UINT8_MAX));
    cfg.overlay.queue_depth =
        static_cast<size_t>(params.get_u64("queue_depth", 16));
    cfg.overlay.forward_spacing =
        params.get_duration("forward_spacing", Duration::millis(1));
    cfg.overlay.net_latency =
        params.get_duration("latency", Duration::millis(2));
    cfg.overlay.net_loss = params.get_double("loss", 0.0);
    cfg.overlay.collect_deadline =
        params.get_duration("deadline", Duration::seconds(30));
    cfg.overlay.response_timeout =
        params.get_duration("timeout", Duration::seconds(10));
    cfg.overlay.max_retries =
        static_cast<int>(params.get_u64("retries", 1, INT_MAX));
    cfg.window = WindowSpec::parse(params.get_str("window", "fleet"));
    cfg.overlay.scoped_retries = params.get_bool("scoped_retries", false);
    // Loud on anything but the three-valued grammar: a typo silently
    // falling back to per-device relaying would invalidate a 10k bench.
    const std::string agg = params.get_str("aggregate", "off");
    if (agg == "on") {
      cfg.overlay.aggregation.enabled = true;
      cfg.overlay.aggregation.election.mode =
          aggregate::ElectionMode::kDepthBand;
    } else if (agg == "planned") {
      cfg.overlay.aggregation.enabled = true;
      cfg.overlay.aggregation.election.mode = aggregate::ElectionMode::kPlanned;
    } else if (agg != "off") {
      throw std::invalid_argument(
          "aggregate: expected 'off', 'on' or 'planned', got '" + agg + "'");
    }
    cfg.overlay.aggregation.election.stride = static_cast<uint32_t>(
        params.get_u64("aggregate_stride", 2, UINT32_MAX));
    cfg.overlay.aggregation.window =
        params.get_duration("aggregate_window", Duration::millis(200));
    if (params.has("battery")) {
      cfg.energy.metered = true;
      cfg.energy.battery = params.get_energy("battery", {});
    }
    // Adversary knobs go through the loud parsers: `adversary=banana` and
    // a unitless `adversary_dwell=12` both throw with the offending value.
    cfg.adversary.mode =
        adversary::parse_mode(params.get_str("adversary", "off"));
    cfg.adversary.migration =
        adversary::parse_migration(params.get_str("migration", "aware"));
    cfg.adversary.dwell =
        params.get_duration("adversary_dwell", Duration::minutes(12));
    cfg.adversary.chains =
        static_cast<size_t>(params.get_u64("adversary_chains", 2));
    cfg.adversary.first_infection =
        params.get_duration("adversary_at", Duration::minutes(5));
    cfg.adversary.seed = params.get_u64("seed", 2024);
    cfg.adversary.compromised_fraction =
        params.get_double("compromised", 0.15);
    cfg.adversary.sybil_per_flood = static_cast<uint32_t>(
        params.get_u64("sybil_reports", 4, UINT32_MAX));
    cfg.adversary.corrupt_frames = params.get_bool("relay_corrupt", false);

    sink.note("devices", static_cast<uint64_t>(cfg.plan.devices()));
    sink.note("seed", params.get_u64("seed", 2024));
    sink.note("arch", hw::to_string(base.arch));
    sink.note("tm_min", base.tm.to_seconds() / 60.0);
    sink.note("rounds", static_cast<uint64_t>(cfg.rounds));
    sink.note("ttl", static_cast<uint64_t>(cfg.overlay.ttl));
    sink.note("queue_depth", static_cast<uint64_t>(cfg.overlay.queue_depth));
    sink.note("window", params.get_str("window", "fleet"));
    sink.note("scoped_retries", params.get_bool("scoped_retries", false));
    sink.note("aggregate", agg);
    sink.note("adversary", params.get_str("adversary", "off"));

    ShardedFleetRunner runner(cfg);

    // Range-check before narrowing: a 64-bit id must not wrap into range.
    const uint64_t infect_raw = params.get_u64("infect_device", 13);
    if (infect_raw < cfg.plan.devices()) {
      const auto infect = static_cast<swarm::DeviceId>(infect_raw);
      runner.schedule_on_device(
          infect,
          Time::zero() +
              params.get_duration("infect_at", Duration::minutes(42)),
          [](attest::Prover& p) {
            p.memory().write(p.attested_region(), 64, bytes_of("IMPLANT"),
                             false);
          });
    }

    const auto rounds = runner.run(sink);
    size_t flagged_rounds = 0;
    size_t collected = 0;
    for (const auto& r : rounds) {
      flagged_rounds += r.flagged > 0;
      collected += r.reachable;
    }
    sink.note("rounds_with_flagged_device",
              static_cast<uint64_t>(flagged_rounds));
    sink.note("device_collections", static_cast<uint64_t>(collected));

    if (const energy::FleetMeter* meter = runner.energy_meter()) {
      sink.note("fleet_spent_mj", meter->totals().spent_mj());
      sink.note("dark_devices_final",
                static_cast<uint64_t>(meter->dark_count()));
    }

    // End-of-run overlay totals: how the swarm was actually reached.
    const auto totals = runner.overlay_totals();
    sink.note("floods_forwarded_total", totals.floods_forwarded);
    sink.note("reports_relayed_total", totals.reports_relayed);
    sink.note("reports_dropped_total", totals.reports_dropped);
    sink.note("route_repairs_total", totals.route_repairs);
    if (cfg.overlay.scoped_retries) {
      sink.note("scoped_retries_total", totals.scoped_sent);
      sink.note("scoped_hops_total", totals.scoped_forwarded);
      sink.note("scoped_naks_total", totals.naks);
    }
    if (cfg.overlay.aggregation.enabled) {
      sink.note("heads_elected_total", totals.heads_elected);
      sink.note("reports_absorbed_total", totals.reports_absorbed);
      sink.note("aggregates_built_total", totals.aggregates_built);
      sink.note("aggregates_received_total", totals.aggregates_received);
      sink.note("aggregates_dark_purged_total",
                totals.aggregates_dark_purged);
      sink.note("demand_fetches_total", runner.service().stats().demand_fetches);
      sink.note("aggregated_sessions_total",
                runner.service().stats().aggregated_sessions);
    }
    // Campaign outcome: how the configured attacker actually fared.
    if (const adversary::Engine* engine = runner.adversary_engine()) {
      sink.note("chains_planned",
                static_cast<uint64_t>(engine->chain_count()));
      sink.note("chains_detected",
                static_cast<uint64_t>(engine->detected_chains()));
      sink.note("detection_probability", engine->detection_probability());
      sink.note("detection_latency_min",
                engine->mean_detection_latency().to_seconds() / 60.0);
      const adversary::Engine::Snapshot snap = engine->snapshot();
      sink.note("migrations_total", snap.migrations);
      sink.note("evasions_total", snap.evasions);
      sink.note("captures_total", snap.captures);
      sink.note("dropped_adversarial_total", totals.dropped_adversarial);
      sink.note("corrupted_adversarial_total", totals.corrupted_adversarial);
      sink.note("sybil_injected_total", totals.sybil_injected);
      sink.note("spoofed_rejected_total", totals.spoofed_rejected);
    }
    uint64_t weighted = 0;
    uint64_t reports = 0;
    for (size_t h = 0; h < totals.hops.size(); ++h) {
      weighted += totals.hops[h] * h;
      reports += totals.hops[h];
    }
    sink.note("mean_relay_hops",
              reports == 0 ? 0.0
                           : static_cast<double>(weighted) /
                                 static_cast<double>(reports));
    return 0;
  }
};

ERASMUS_SCENARIO(SwarmRelayScenario)

}  // namespace
}  // namespace erasmus::scenario
