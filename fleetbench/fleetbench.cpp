// fleetbench: runs and checks iterations of one benchmark workload.
//
//   fleetbench --workload NAME --seed N --seconds S --trace 0|1
//              [--out PATH] [--first-slot N]
//
// Runs one workload (workloads.h) at kThreads = 4, repeatedly in this
// process for S seconds of wall time (at least once, twice with --trace 1;
// no iteration starts unless the longest so far still fits). Each iteration
// builds a fresh ShardedFleetRunner and runs all of its rounds into a
// JsonSink, with its main thread pinned to the CPU of its slot (slot
// first-slot + i for the i-th iteration, or the i-th untraced/traced pair
// with --trace 1; CpuRotation).
//
//  * --trace 0: untraced iterations only.
//  * --trace 1: alternates untraced and traced iterations. A traced
//    iteration also times the build pass and the layer calls from outside
//    the runner and records wall-clock spans in memory (workload -> build /
//    setup / run -> round -> advance / collect / emit, plus the layer
//    probes).
//
// Every iteration is checked: the session conservation identities must
// hold and every layer probe must judge a clean device healthy. --out
// receives the process's record: the host, peak RSS, every iteration (its
// timings, round walls, metrics digest, layer values and failed checks),
// the spans and the self time per span name. fleetbench/run.py runs a
// series of these processes and turns their records into the benchmark's
// metrics. The exit code is 0 only when every check passed. Wall-clock
// spans go only to --out, never into the runner's sim-time flight
// recorder.
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attest/directory.h"
#include "common/strings.h"
#include "hw/factory.h"
#include "swarm/mobility.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace scenario = erasmus::scenario;
namespace swarm = erasmus::swarm;
namespace hw = erasmus::hw;
namespace sim = erasmus::sim;
using erasmus::format_double;
using erasmus::json_escape;

#ifndef FLEETBENCH_COMPILER
#define FLEETBENCH_COMPILER "unknown"
#endif
#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif

constexpr size_t kThreads = 4;
constexpr hw::ArchKind kArchs[] = {hw::ArchKind::kSmartPlus,
                                   hw::ArchKind::kHydra,
                                   hw::ArchKind::kTrustLite};
// Each layer probe repeats its call until this much wall time has passed.
constexpr double kProbeMs = 20.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  // CPU slot of this process's first iteration within its run: iteration
  // slots pick the CPU its main thread is pinned to (see CpuRotation).
  size_t first_slot = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--first-slot") {
      a.first_slot = std::stoull(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// --- CPU rotation ------------------------------------------------------------

// The host's CPUs differ in speed, and the difference moves between them
// over minutes: on the 4-vCPU host the benchmark was tuned on, a fixed
// single-threaded kernel ran 50% slower on one vCPU than on the others for
// minutes at a time. Setup and the coordinator phases are single-threaded,
// so left to the scheduler an iteration's time depended on which CPU its
// main thread happened to land on. Each iteration therefore pins its main
// thread to the next allowed CPU in turn, so a run samples every CPU in
// turn and its estimates are not swayed by one slow CPU. The runner's pool
// workers are released to every allowed CPU as soon as they exist (they
// inherit the main thread's mask when the runner creates them), so the
// parallel phases still spread over the whole host.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(all_), &all_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
      }
    }
  }

  /// CPU for iteration `slot` of a run, or -1 when affinity is unavailable.
  int cpu_for(size_t slot) const {
    return cpus_.empty() ? -1 : cpus_[slot % cpus_.size()];
  }

  /// Pins the calling thread to `cpu` (no-op for -1).
  static void pin_self(int cpu) {
    if (cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  /// Gives every thread of the process but the caller the full mask.
  void release_others() const {
    if (cpus_.empty()) return;
    const auto self = static_cast<pid_t>(syscall(SYS_gettid));
    std::error_code ec;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      const pid_t tid = std::stoi(task.path().filename().string());
      if (tid != self) sched_setaffinity(tid, sizeof(all_), &all_);
    }
  }

  /// Gives the calling thread the full mask back.
  void release_self() const {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_{};
  std::vector<int> cpus_;
};

// --- Spans -------------------------------------------------------------------

struct Span {
  std::string name;
  double start_ms = 0.0;  // relative to the process's span origin
  double end_ms = 0.0;
  int parent = -1;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent) {
    spans_.push_back({std::move(name), ms_between(origin_, start),
                      ms_between(origin_, end), parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Sets the end of a span opened with end == start.
  void close(int id, Clock::time_point end) {
    spans_[static_cast<size_t>(id)].end_ms = ms_between(origin_, end);
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the durations of
  /// its direct children, summed over spans of the same name.
  std::map<std::string, double> self_ms_by_name() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ms - spans_[i].start_ms;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -= s.end_ms - s.start_ms;
      }
    }
    std::map<std::string, double> by_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name] += self[i];
    }
    return by_name;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Forwards everything to the JsonSink and timestamps rows: always the
// "rounds" row (one per round: round walls are measured between them), and
// with `every_row` also the latest row of any table (where a round's emit
// phase ends).
class ClockedSink : public scenario::MetricsSink {
 public:
  ClockedSink(scenario::MetricsSink& inner, bool every_row)
      : inner_(inner), every_row_(every_row) {}

  void begin_run(std::string_view name) override { inner_.begin_run(name); }
  void note(std::string_view key, scenario::Value value) override {
    inner_.note(key, std::move(value));
  }
  void row(std::string_view table, const scenario::Row& r) override {
    inner_.row(table, r);
    ++rows;
    if (table == "rounds") {
      rounds_rows.push_back(Clock::now());
      last_row = rounds_rows.back();
    } else if (every_row_) {
      last_row = Clock::now();
    }
  }
  void end_run() override { inner_.end_run(); }

  std::vector<Clock::time_point> rounds_rows;
  Clock::time_point last_row{};
  uint64_t rows = 0;

 private:
  scenario::MetricsSink& inner_;
  bool every_row_;
};

// --- One iteration -----------------------------------------------------------

struct Iteration {
  bool traced = false;
  int cpu = -1;  // the main thread's CPU, -1 when not pinned
  double setup_ms = 0.0;
  double run_ms = 0.0;
  std::vector<double> round_wall_ms;
  std::string digest;
  uint64_t sessions = 0;
  uint64_t reached = 0;
  uint64_t unreachable = 0;
  uint64_t healthy = 0;
  uint64_t flagged = 0;
  std::vector<std::string> check_failures;
  // Per-layer values (counts always; timings only when traced).
  std::map<std::string, double> layer;
};

void check(Iteration& it, bool ok, const std::string& what) {
  if (!ok) it.check_failures.push_back(what);
}

// Replica of the runner's build pass, timed per layer: plan expansion, one
// stack per device (grouped by architecture) and one verifier record per
// device. Returns the pass's wall time in ms.
double timed_build_pass(const scenario::ShardedFleetConfig& cfg,
                        SpanLog& log, int parent, Iteration& it) {
  const auto t0 = Clock::now();
  const int build = log.add("build", t0, t0, parent);
  const std::vector<swarm::DeviceSpec> specs = cfg.plan.expand();
  const auto t1 = Clock::now();
  log.add("expand", t0, t1, build);
  it.layer["swarm.expand_ms"] = ms_between(t0, t1);

  sim::EventQueue queue;
  std::vector<swarm::DeviceStack> stacks(specs.size());
  for (const hw::ArchKind arch : kArchs) {
    const auto a0 = Clock::now();
    size_t built = 0;
    for (size_t id = 0; id < specs.size(); ++id) {
      if (specs[id].arch != arch) continue;
      stacks[id] = swarm::build_device_stack(queue, specs[id]);
      ++built;
    }
    const auto a1 = Clock::now();
    const std::string name = hw::to_string(arch);
    if (built > 0) log.add("build." + name, a0, a1, build);
    it.layer["hw.build_us." + name] =
        ratio(ms_between(a0, a1) * 1e3, static_cast<double>(built));
  }
  const auto r0 = Clock::now();
  uint64_t key_bytes = 0;
  for (size_t id = 0; id < specs.size(); ++id) {
    key_bytes += swarm::build_device_record(specs[id], stacks[id]).key.size();
  }
  const auto r1 = Clock::now();
  log.add("record", r0, r1, build);
  log.close(build, r1);
  check(it, key_bytes > 0, "build pass produced no device keys");
  it.layer["attest.record_us"] =
      ratio(ms_between(r0, r1) * 1e3, static_cast<double>(specs.size()));
  return ms_between(t0, r1);
}

// Times RandomWaypointMobility::snapshot + Topology::bfs_tree at each of
// the workload's barriers on a fresh mobility instance with the runner's
// config and pool width.
void probe_snapshot(const scenario::ShardedFleetConfig& cfg, SpanLog& log,
                    int parent, Iteration& it) {
  swarm::MobilityConfig m = cfg.plan.mobility;
  m.devices = cfg.plan.devices();
  swarm::RandomWaypointMobility mobility(m);
  erasmus::common::ParallelExecutor pool(cfg.threads);
  mobility.set_executor(&pool);
  const auto t0 = Clock::now();
  size_t reached = 0;
  for (size_t r = 1; r <= cfg.rounds; ++r) {
    const swarm::Topology topo =
        mobility.snapshot(sim::Time::zero() + cfg.round_interval * r);
    reached += topo.bfs_tree(cfg.root).reached;
  }
  const auto t1 = Clock::now();
  log.add("snapshot", t0, t1, parent);
  check(it, reached > 0, "snapshot probe reached no device");
  it.layer["swarm.snapshot_ms"] =
      ratio(ms_between(t0, t1), static_cast<double>(cfg.rounds));
}

// Per architecture in the plan: Prover::handle_collect for k records and
// attest::verify_collection of that response, on one device built from the
// plan's first spec of the architecture and run until its store holds k
// measurements. Architectures absent from the plan report 0.
void probe_serve_verify(const scenario::ShardedFleetConfig& cfg,
                        SpanLog& log, int parent, Iteration& it) {
  const std::vector<swarm::DeviceSpec> specs = cfg.plan.expand();
  for (const hw::ArchKind arch : kArchs) {
    const std::string name = hw::to_string(arch);
    double& serve_us = it.layer["attest.serve_us." + name];
    double& verify_us = it.layer["attest.verify_us." + name];
    const auto spec = std::find_if(
        specs.begin(), specs.end(),
        [arch](const swarm::DeviceSpec& s) { return s.arch == arch; });
    if (spec == specs.end()) continue;

    sim::EventQueue queue;
    swarm::DeviceStack stack = swarm::build_device_stack(queue, *spec);
    const erasmus::attest::DeviceRecord record =
        swarm::build_device_record(*spec, stack);
    stack.prover->start();
    queue.run_until(sim::Time::zero() +
                    swarm::nominal_tm(*spec) * (cfg.k + 1));
    erasmus::attest::CollectRequest request;
    request.k = static_cast<uint32_t>(cfg.k);

    erasmus::attest::CollectResponse response;
    size_t calls = 0;
    const auto s0 = Clock::now();
    auto s1 = s0;
    do {
      response = stack.prover->handle_collect(request).response;
      ++calls;
      s1 = Clock::now();
    } while (ms_between(s0, s1) < kProbeMs);
    log.add("serve." + name, s0, s1, parent);
    serve_us = ms_between(s0, s1) * 1e3 / static_cast<double>(calls);

    bool trustworthy = true;
    calls = 0;
    const auto v0 = Clock::now();
    auto v1 = v0;
    do {
      trustworthy = erasmus::attest::verify_collection(
                        record, response, queue.now(), cfg.k)
                        .device_trustworthy() &&
                    trustworthy;
      ++calls;
      v1 = Clock::now();
    } while (ms_between(v0, v1) < kProbeMs);
    log.add("verify." + name, v0, v1, parent);
    verify_us = ms_between(v0, v1) * 1e3 / static_cast<double>(calls);
    check(it, trustworthy && response.measurements.size() == cfg.k,
          "verify probe: clean " + name + " device not judged healthy");
  }
}

// Machine-independent counts of every layer, read from the runner after
// run(). Zero where the workload bypasses a layer.
void read_layer_counts(scenario::ShardedFleetRunner& runner, Iteration& it) {
  auto& L = it.layer;
  uint64_t measurements = 0;
  for (swarm::DeviceId id = 0; id < runner.size(); ++id) {
    measurements += runner.prover(id).stats().measurements;
  }
  L["attest.measurements"] = static_cast<double>(measurements);
  const auto& ss = runner.service().stats();
  L["attest.sessions"] = static_cast<double>(ss.sessions);
  L["attest.responses"] = static_cast<double>(ss.responses);
  L["attest.retries"] = static_cast<double>(ss.retries);
  L["attest.unreachable"] = static_cast<double>(ss.unreachable_sessions);
  L["attest.stray_datagrams"] = static_cast<double>(ss.stray_datagrams);
  L["attest.healthy"] = static_cast<double>(it.healthy);
  L["attest.flagged"] = static_cast<double>(it.flagged);

  erasmus::net::Network::Stats net{};
  if (const erasmus::net::Network* n = runner.overlay_network()) {
    net = n->stats();
  }
  L["net.sent"] = static_cast<double>(net.sent);
  L["net.delivered"] = static_cast<double>(net.delivered);
  L["net.delivered_share"] = ratio(static_cast<double>(net.delivered),
                                   static_cast<double>(net.sent));
  L["net.dropped_disconnected"] =
      static_cast<double>(net.dropped_disconnected);
  L["net.phys_tx_bytes"] = static_cast<double>(net.phys_tx_bytes);
  L["radio_tx_bytes_per_device"] =
      ratio(static_cast<double>(net.phys_tx_bytes),
            static_cast<double>(runner.size()));

  const auto totals = runner.overlay_totals();
  L["overlay.floods_forwarded"] = static_cast<double>(totals.floods_forwarded);
  L["overlay.reports_relayed"] = static_cast<double>(totals.reports_relayed);
  L["overlay.reports_dropped"] = static_cast<double>(totals.reports_dropped);
  L["overlay.route_repairs"] = static_cast<double>(totals.route_repairs);
  L["overlay.scoped_sent"] = static_cast<double>(totals.scoped_sent);
  double hop_sum = 0.0;
  double hop_reports = 0.0;
  for (size_t h = 0; h < totals.hops.size(); ++h) {
    hop_sum += static_cast<double>(h) * static_cast<double>(totals.hops[h]);
    hop_reports += static_cast<double>(totals.hops[h]);
  }
  L["overlay.mean_hops"] = ratio(hop_sum, hop_reports);

  L["aggregate.aggregates_received"] =
      static_cast<double>(totals.aggregates_received);
  L["aggregate.reports_absorbed"] =
      static_cast<double>(totals.reports_absorbed);
  L["aggregate.aggregated_sessions"] =
      static_cast<double>(ss.aggregated_sessions);
  L["aggregate.demand_fetches"] = static_cast<double>(ss.demand_fetches);

  erasmus::energy::FleetMeter::Totals energy{};
  if (const auto* meter = runner.energy_meter()) energy = meter->totals();
  L["energy.cpu_mj"] = energy.cpu_mj;
  L["energy.tx_mj"] = energy.tx_mj;
  L["energy.rx_mj"] = energy.rx_mj;
  L["energy.sleep_mj"] = energy.sleep_mj;

  erasmus::adversary::Engine::Snapshot adv{};
  if (const auto* engine = runner.adversary_engine()) adv = engine->snapshot();
  L["adversary.infections"] = static_cast<double>(adv.infections);
  L["adversary.migrations"] = static_cast<double>(adv.migrations);
  L["adversary.detections"] = static_cast<double>(adv.detections);
}

Iteration run_iteration(const Args& args, bool traced, int cpu,
                        const CpuRotation& rotation, SpanLog& log) {
  Iteration it;
  it.traced = traced;
  it.cpu = cpu;
  const scenario::ShardedFleetConfig cfg =
      fleetbench::make_config(args.workload, args.seed, kThreads);
  CpuRotation::pin_self(cpu);

  const auto w0 = Clock::now();
  const int workload = traced ? log.add("workload", w0, w0, -1) : -1;
  double build_pass_ms = 0.0;
  if (traced) build_pass_ms = timed_build_pass(cfg, log, workload, it);

  const auto t0 = Clock::now();
  scenario::ShardedFleetRunner runner(cfg);
  const auto t1 = Clock::now();
  rotation.release_others();

  std::ostringstream out;
  scenario::JsonSink json(out);
  ClockedSink sink(json, traced);
  // Traced only: the hook marks the end of each round's advance and, for
  // the previous round, the end of its emit phase (its last row so far).
  std::vector<Clock::time_point> hooks;
  std::vector<Clock::time_point> round_ends;
  if (traced) {
    runner.set_round_hook([&](scenario::ShardedFleetRunner&, size_t round,
                              sim::Time) {
      const auto now = Clock::now();
      if (round > 1) round_ends.push_back(sink.last_row);
      hooks.push_back(now);
    });
  }
  sink.begin_run(args.workload);
  const auto t2 = Clock::now();
  const std::vector<scenario::FleetRoundResult> rounds = runner.run(sink);
  const auto t3 = Clock::now();
  rotation.release_self();
  sink.end_run();
  const std::string doc = out.str();

  it.setup_ms = ms_between(t0, t1);
  it.run_ms = ms_between(t2, t3);
  it.digest = fleetbench::sha256_hex(doc);
  Clock::time_point prev = t2;
  for (const auto& at : sink.rounds_rows) {
    it.round_wall_ms.push_back(ms_between(prev, at));
    prev = at;
  }

  // Conservation: every dispatched session ends reached or unreachable,
  // and every reached device is judged exactly once.
  for (const scenario::FleetRoundResult& r : rounds) {
    it.reached += r.reachable;
    it.healthy += r.healthy;
    it.flagged += r.flagged;
    check(it, r.reachable == r.healthy + r.flagged,
          "round " + std::to_string(r.round) +
              ": reachable != healthy + flagged");
    check(it, r.reachable <= r.present,
          "round " + std::to_string(r.round) + ": reachable > present");
  }
  const auto& ss = runner.service().stats();
  it.sessions = ss.sessions;
  it.unreachable = ss.unreachable_sessions;
  check(it, it.sessions == it.reached + it.unreachable,
        "sessions (" + std::to_string(it.sessions) + ") != reached (" +
            std::to_string(it.reached) + ") + unreachable (" +
            std::to_string(it.unreachable) + ")");
  check(it,
        rounds.size() == cfg.rounds && sink.rounds_rows.size() == cfg.rounds,
        "round count mismatch");
  check(it, it.reached > 0, "no device reached");
  read_layer_counts(runner, it);

  if (!traced) return it;

  // Spans of the timed runner: setup, run, and per round its advance
  // (previous round end -> hook), collect (hook -> rounds row) and emit
  // (rounds row -> the round's last row).
  round_ends.push_back(sink.last_row);
  log.add("setup", t0, t1, workload);
  const int run = log.add("run", t2, t3, workload);
  Clock::time_point round_start = t2;
  double advance_ms = 0.0;
  double collect_ms = 0.0;
  double emit_ms = 0.0;
  for (size_t r = 0; r < hooks.size() && r < sink.rounds_rows.size(); ++r) {
    const int round = log.add("round", round_start, round_ends[r], run);
    log.add("advance", round_start, hooks[r], round);
    log.add("collect", hooks[r], sink.rounds_rows[r], round);
    log.add("emit", sink.rounds_rows[r], round_ends[r], round);
    advance_ms += ms_between(round_start, hooks[r]);
    collect_ms += ms_between(hooks[r], sink.rounds_rows[r]);
    emit_ms += ms_between(sink.rounds_rows[r], round_ends[r]);
    round_start = round_ends[r];
  }
  const double n_rounds = static_cast<double>(hooks.size());
  it.layer["scenario.advance_ms"] = ratio(advance_ms, n_rounds);
  it.layer["scenario.collect_ms"] = ratio(collect_ms, n_rounds);
  it.layer["scenario.emit_ms"] = ratio(emit_ms, n_rounds);
  it.layer["scenario.setup_other_ms"] = it.setup_ms - build_pass_ms;

  const auto p0 = Clock::now();
  const int probe = log.add("probe", p0, p0, workload);
  probe_snapshot(cfg, log, probe, it);
  probe_serve_verify(cfg, log, probe, it);
  const auto p1 = Clock::now();
  log.close(probe, p1);
  log.close(workload, p1);

  const auto phases = runner.phases().report();
  it.layer["obs.shard_work_ms"] = phases.shard_work_ms;
  it.layer["obs.barrier_wait_ms"] = phases.barrier_wait_ms;
  it.layer["obs.coordinator_ms"] = phases.coordinator_ms;
  it.layer["obs.barrier_wait_share"] = phases.barrier_wait_share;
  it.layer["obs.rows"] = static_cast<double>(sink.rows);
  it.layer["obs.output_bytes"] = static_cast<double>(doc.size());
  return it;
}

// --- The record --------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string host_json(const Args& args,
                      const scenario::ShardedFleetConfig& cfg) {
  std::ostringstream s;
  s << "{\"host_cores\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": \"" << json_escape(FLEETBENCH_COMPILER)
    << "\", \"build_type\": \"" << json_escape(FLEETBENCH_BUILD_TYPE)
    << "\", \"seed\": " << args.seed << ", \"workload\": \""
    << json_escape(args.workload) << "\", \"threads\": " << kThreads
    << ", \"devices\": " << cfg.plan.devices() << ", \"rounds\": "
    << cfg.rounds << "}";
  return s.str();
}

std::string strings_json(const std::vector<std::string>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    s += (i ? ", \"" : "\"") + json_escape(v[i]) + "\"";
  }
  return s + "]";
}

bool write_record(const Args& args, const scenario::ShardedFleetConfig& cfg,
                  const std::vector<Iteration>& its, const SpanLog& log) {
  std::ofstream f(args.out);
  f << "{\"host\": " << host_json(args, cfg)
    << ",\n \"peak_rss_mb\": " << format_double(peak_rss_mb())
    << ",\n \"iterations\": [";
  for (size_t i = 0; i < its.size(); ++i) {
    const Iteration& it = its[i];
    f << (i ? ",\n   " : "\n   ") << "{\"traced\": "
      << (it.traced ? "true" : "false") << ", \"cpu\": " << it.cpu
      << ", \"setup_ms\": " << format_double(it.setup_ms)
      << ", \"run_ms\": " << format_double(it.run_ms)
      << ", \"sessions\": " << it.sessions << ", \"reached\": " << it.reached
      << ", \"unreachable\": " << it.unreachable << ", \"digest\": \""
      << it.digest << "\", \"round_wall_ms\": [";
    for (size_t r = 0; r < it.round_wall_ms.size(); ++r) {
      f << (r ? ", " : "") << format_double(it.round_wall_ms[r]);
    }
    f << "], \"layer\": {";
    bool first = true;
    for (const auto& [name, v] : it.layer) {
      f << (first ? "" : ", ") << "\"" << json_escape(name)
        << "\": " << format_double(v);
      first = false;
    }
    f << "}, \"check_failures\": " << strings_json(it.check_failures) << "}";
  }
  f << "],\n \"self_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : log.self_ms_by_name()) {
    f << (first ? "" : ", ") << "\"" << json_escape(name)
      << "\": " << format_double(ms);
    first = false;
  }
  f << "},\n \"spans\": [";
  for (size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    f << (i ? ",\n   " : "\n   ") << "{\"name\": \"" << json_escape(s.name)
      << "\", \"start_ms\": " << format_double(s.start_ms)
      << ", \"end_ms\": " << format_double(s.end_ms)
      << ", \"parent\": " << s.parent << "}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  scenario::ShardedFleetConfig cfg;
  try {
    args = parse_args(argc, argv);
    cfg = fleetbench::make_config(args.workload, args.seed, kThreads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 2;
  }

  const auto start = Clock::now();
  SpanLog log(start);
  std::vector<Iteration> its;
  try {
    // --trace 1 alternates untraced and traced iterations so both see the
    // same host conditions; the untraced ones give the overhead baseline.
    double longest_ms = 0.0;
    const CpuRotation rotation;
    const size_t min_iterations = args.trace ? 2 : 1;
    while (its.size() < min_iterations ||
           ms_between(start, Clock::now()) + longest_ms <=
               args.seconds * 1e3) {
      const bool traced = args.trace && its.size() % 2 == 1;
      const auto i0 = Clock::now();
      // A traced run keeps each untraced/traced pair on one CPU, so the
      // tracing overhead is not a difference between CPUs.
      const size_t slot = args.first_slot + its.size() / (args.trace ? 2 : 1);
      its.push_back(
          run_iteration(args, traced, rotation.cpu_for(slot), rotation, log));
      longest_ms = std::max(longest_ms, ms_between(i0, Clock::now()));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  size_t failures = 0;
  std::printf("fleetbench %s seed=%llu threads=%zu: %zu iterations, "
              "%zu rounds each, digest %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), kThreads,
              its.size(), cfg.rounds, its.front().digest.c_str());
  for (size_t i = 0; i < its.size(); ++i) {
    for (const std::string& f : its[i].check_failures) {
      std::printf("CHECK FAILED: iteration %zu: %s\n", i, f.c_str());
      ++failures;
    }
  }
  if (!args.out.empty() && !write_record(args, cfg, its, log)) {
    std::fprintf(stderr, "fleetbench: could not write %s\n",
                 args.out.c_str());
    return 1;
  }
  return failures == 0 ? 0 : 1;
}
