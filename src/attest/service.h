// AttestationService: the unified verifier-side collection engine.
//
// One service multiplexes N concurrent collection sessions over one
// verifier endpoint -- the paper's one-verifier/many-unattended-provers
// shape (§3, §6). Each session runs the Fig. 2 loop as a small state
// machine (request -> timeout -> retry -> report or unreachable), judged
// by the shared verifier core against the device's DeviceRecord, and
// appended to that device's AuditLog. Batched rounds dispatch through a
// bounded in-flight window so a million-device round never floods the
// transport.
//
// Round policies:
//  * periodic    -- start() schedules a full-directory round every T_C.
//  * single-shot -- collect_now() runs one round over a chosen device set
//                   at the current instant; over a DirectTransport every
//                   session completes synchronously. collect_until() also
//                   runs the event queue to a deadline and aborts what is
//                   still unresolved there (§6 swarm collection).
//  * on-demand   -- ServiceConfig::kind = kOnDemand makes rounds send
//                   authenticated ERASMUS+OD requests (Fig. 4) instead of
//                   plain collect requests.
//
// Responses are only accepted from the node a session is awaiting, with
// the MsgType the round expects, and only while the session is in flight;
// spoofed sources, stray/duplicate datagrams and undecodable payloads are
// counted and dropped without disturbing the session (the timeout/retry
// machinery recovers).
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "attest/audit.h"
#include "attest/directory.h"
#include "attest/transport.h"
#include "attest/window.h"
#include "common/parallel.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace erasmus::attest {

/// Which exchange a round runs per device.
enum class RoundKind : uint8_t {
  kCollect,   // Fig. 2: unauthenticated "collect k"
  kOnDemand,  // Fig. 4: authenticated t_req/k request, fresh M_0 + history
};

struct ServiceConfig {
  sim::Duration tc = sim::Duration::hours(1);  // periodic round interval
  uint32_t k = 8;                              // records per request
  sim::Duration response_timeout = sim::Duration::seconds(2);
  int max_retries = 2;      // per session, after the first attempt
  /// Bounded dispatch window per round: fixed (64 slots by default),
  /// fleet-sized or AIMD-adaptive (see attest/window.h). Loss timeouts and
  /// relay-queue congestion damp an adaptive window; on-time responses
  /// grow it back.
  WindowSpec window;
  RoundKind kind = RoundKind::kCollect;
  /// Keep full per-device audit logs. Turn off for huge fleets where the
  /// caller aggregates through the observer instead.
  bool keep_audit = true;
  /// Flight recorder for round/dispatch/window events (categories kService
  /// and kWindow). Not owned; nullptr = no tracing.
  obs::TraceRecorder* trace = nullptr;
  /// Thread pool for the verify intake's MAC pass (kCollect rounds; see
  /// AttestationService::flush_intake). Verdicts, stats and traces do not
  /// depend on it: verification is a pure function, only its wall
  /// placement moves. Not owned; nullptr = verify on the calling thread.
  common::ParallelExecutor* verify_executor = nullptr;
};

class AttestationService {
 public:
  /// Everything a finished session establishes; streamed to the observer
  /// and returned by collect_now() for synchronously-completed sessions.
  struct SessionOutcome {
    DeviceId device = 0;
    sim::Time at;              // completion time
    bool reachable = false;    // false: retry budget exhausted
    int attempts = 0;
    CollectionReport report;   // empty when unreachable
    /// kOnDemand only: fresh measurement authentic and current.
    bool fresh_valid = false;
    /// Completed via a cluster head's healthy bit (hierarchical
    /// collection): the report is an empty placeholder -- the head
    /// vouched for the digest, not for per-measurement history.
    bool aggregated = false;
  };
  using Observer = std::function<void(const SessionOutcome&)>;

  /// Lifetime counters, accumulated across every round the service ran.
  /// Every session ends in exactly one outcome: sessions == responses +
  /// unreachable_sessions + aborted_sessions whenever no round is in
  /// progress.
  struct Stats {
    uint64_t rounds = 0;
    uint64_t sessions = 0;
    uint64_t responses = 0;
    uint64_t retries = 0;
    uint64_t unreachable_sessions = 0;
    /// Sessions stop() discarded in flight (the collect_until deadline or
    /// an explicit stop): neither answered nor judged unreachable.
    uint64_t aborted_sessions = 0;
    /// Spoofed source, unexpected MsgType, undecodable or duplicate
    /// responses -- dropped without touching any session.
    uint64_t stray_datagrams = 0;
    /// Lifetime high-water mark; RoundStats::max_in_flight has the
    /// per-round value.
    uint64_t max_in_flight_seen = 0;
    /// Adaptive-window backoffs (0 when the window is fixed).
    uint64_t loss_backoffs = 0;
    uint64_t congestion_backoffs = 0;
    /// Hierarchical collection: sessions closed by a head's healthy bit,
    /// and per-device evidence fetches forced by a cleared bit.
    uint64_t aggregated_sessions = 0;
    uint64_t demand_fetches = 0;
  };

  /// ONE round's view, so scenario metric tables can emit round rows
  /// without differencing lifetime counters: the counts are Stats deltas
  /// since the round began (a periodic round, a collect_now), the rest are
  /// the round's own trajectory.
  struct RoundStats {
    uint64_t sessions = 0;
    uint64_t responses = 0;
    uint64_t retries = 0;
    uint64_t unreachable_sessions = 0;
    uint64_t aborted_sessions = 0;
    uint64_t max_in_flight = 0;
    /// Window trajectory inside the round: smallest/largest value the
    /// AIMD controller visited, and the window at round end (== the fixed
    /// size when adaptivity is off).
    uint64_t window_min = 0;
    uint64_t window_max = 0;
    uint64_t window_final = 0;
    uint64_t loss_backoffs = 0;
    uint64_t congestion_backoffs = 0;
    uint64_t aggregated_sessions = 0;
    uint64_t demand_fetches = 0;
  };

  /// The service takes exclusive ownership of `transport`'s receiver:
  /// exactly one service per transport instance (a second one would
  /// silently steal the first one's deliveries).
  AttestationService(sim::EventQueue& queue, Transport& transport,
                     DeviceDirectory& directory, ServiceConfig config);
  /// Cancels pending timeouts and detaches from the transport so nothing
  /// fires into a destroyed service if the queue keeps running.
  ~AttestationService();

  // --- Periodic policy -------------------------------------------------------
  /// Schedules the first full-directory round one T_C from now.
  void start();
  /// Quiesces immediately: cancels the next round AND aborts in-flight
  /// sessions (counted in Stats::aborted_sessions; nothing further is sent
  /// or recorded, and late responses count as stray datagrams).
  void stop();

  // --- Single-shot policy ----------------------------------------------------
  /// Runs one round over `devices` (ids into the directory) right now,
  /// requesting `k` records each (nullopt: config k). Returns the outcomes
  /// of sessions that completed before this call returned -- all of them
  /// over a DirectTransport whose targets are attached and reply (a silent
  /// direct endpoint resolves later through the timeout path, like any
  /// lost datagram); typically none over a NetworkTransport, where results
  /// arrive later via the observer and audit logs as the caller runs the
  /// event queue.
  std::vector<SessionOutcome> collect_now(
      const std::vector<DeviceId>& devices,
      std::optional<uint32_t> k = std::nullopt);
  /// The deadline-bounded round (§6): begins the round like collect_now(),
  /// runs the event queue to the absolute instant `deadline`, then stops
  /// the round if it is still in progress -- whatever was unresolved
  /// missed it, and late reports surface as stray datagrams. Returns every
  /// outcome that completed during the call, in completion order.
  std::vector<SessionOutcome> collect_until(
      const std::vector<DeviceId>& devices, sim::Time deadline,
      std::optional<uint32_t> k = std::nullopt);

  bool round_in_progress() const { return round_active_; }

  // --- Hierarchical collection ----------------------------------------------
  /// Closes `node`'s in-flight session on the strength of a cluster
  /// head's healthy bit (caller has already authenticated the aggregate).
  /// The outcome carries an empty report with `aggregated` set -- the
  /// head vouched for the digest, not for history or freshness. Returns
  /// false (counted as a stray) when no session awaits the node.
  bool complete_aggregated(net::NodeId node);
  /// A cleared bit (or root mismatch) demands the device's raw evidence:
  /// spends one retry NOW as a scoped per-device send instead of waiting
  /// for the session's timeout. With the retry budget already exhausted
  /// the session is left to its armed timeout. Returns false when no
  /// session awaits the node.
  bool demand_fetch(net::NodeId node);

  /// Per-device longitudinal record. Empty when keep_audit is off or no
  /// round has reached the device yet.
  const AuditLog& log(DeviceId id) const {
    static const AuditLog kEmpty;
    return id < logs_.size() ? logs_[id] : kEmpty;
  }

  /// Streamed per-session results (scenario metrics bridge). The observer
  /// runs at session completion time, after the audit log was appended.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  const Stats& stats() const { return stats_; }
  /// Stats of the round in progress (or the last finished round).
  RoundStats round_stats() const;
  /// Current dispatch window (moves only under WindowSpec::Mode::kAdaptive).
  size_t window() const { return window_ctl_.window(); }
  /// Per-device response latency, dispatch of the first attempt to the
  /// completed report, in milliseconds (reachable sessions only).
  const obs::Histogram& response_latency_ms() const { return latency_ms_; }
  const ServiceConfig& config() const { return config_; }

 private:
  struct Session {
    DeviceId device = 0;
    net::NodeId node = 0;
    int attempts = 0;
    /// Dispatch instant of the FIRST attempt; completion minus this is the
    /// per-device response latency the latency histogram records.
    sim::Time started;
    /// WindowController stamp of the LATEST attempt; a timeout reports
    /// it so correlated losses of one dispatch wave cut the window once.
    uint64_t send_seq = 0;
    /// kOnDemand: the FIRST attempt's request timestamp. Responses are
    /// judged against it so a slow answer to attempt 1 arriving after a
    /// retry is still fresh-since-we-asked, not "tampering".
    uint64_t treq = 0;
    /// A response for this session sits in verify_intake_ awaiting the
    /// MAC pass; a second response meanwhile is a duplicate (stray).
    bool intaken = false;
    std::optional<sim::EventId> timeout;
  };

  void begin_periodic_round();
  /// collect_now() (no deadline) and collect_until(): admits and begins a
  /// caller-driven round with sync_outcomes_ installed for the whole call.
  std::vector<SessionOutcome> collect(const std::vector<DeviceId>& devices,
                                      std::optional<uint32_t> k,
                                      std::optional<sim::Time> deadline);
  /// Throws (round in progress, duplicate/unknown target) BEFORE any
  /// member state is mutated, so callers stay consistent on failure.
  void admit_round(const std::vector<DeviceId>& devices);
  void begin_round(const std::vector<DeviceId>& devices, uint32_t k);
  /// Dispatches pending sessions up to the in-flight window, batching
  /// identical first-attempt requests into one transport broadcast.
  void pump();
  /// One collect broadcast (first-attempt dispatch or a retry wave):
  /// replies a synchronous transport delivers during it are flushed from
  /// the verify intake once it returns; survivors get their timeouts.
  void broadcast_collect(const std::vector<net::NodeId>& batch);
  void send_attempt(Session& session);
  /// Retry coalescing over flood transports: a dispatch wave's sessions
  /// time out at the same instant, so their retries are collected here
  /// and flushed as ONE broadcast (one re-flood instead of one per
  /// device) by a zero-delay event that runs after the whole wave's
  /// timeouts (FIFO within a timestamp).
  void queue_retry(Session& session);
  void flush_retries();
  void arm_timeout(Session& session);
  void on_receive(net::NodeId src, MsgType type, ByteView body);
  void on_timeout(net::NodeId node);
  /// Drains the transport's relay-queue occupancy signal and damps an
  /// adaptive window when it crosses the configured threshold.
  void poll_congestion();
  /// kWindow category instant with the current window attached.
  void trace_window(const char* name, const char* reason);
  void complete(net::NodeId node, bool reachable, CollectionReport report,
                bool fresh_valid, bool aggregated = false);
  /// Verifies everything in verify_intake_ (chunked, grouped by MAC
  /// algorithm, on the verify executor when there is one) and completes
  /// the sessions in intake order, i.e. delivery order.
  void flush_intake();
  void finish_round();

  sim::EventQueue& queue_;
  Transport& transport_;
  DeviceDirectory& directory_;
  ServiceConfig config_;

  std::vector<AuditLog> logs_;  // indexed by DeviceId; grown on demand
  Observer observer_;

  bool running_ = false;  // periodic policy armed
  std::optional<sim::EventId> next_round_event_;

  std::deque<DeviceId> pending_;
  uint32_t round_k_ = 0;  // one uniform k per round, by construction
  /// The one intake of collect responses. A reply delivered while a
  /// broadcast is on the stack waits here for that broadcast's batch
  /// flush; any other reply is flushed at once.
  struct PendingVerify {
    net::NodeId node = 0;
    DeviceId device = 0;
    CollectResponse resp;
  };
  std::vector<PendingVerify> verify_intake_;
  bool defer_verify_ = false;  // true only while a broadcast is on the stack
  std::vector<net::NodeId> retry_batch_;
  std::optional<sim::EventId> retry_flush_event_;
  std::unordered_map<net::NodeId, Session> active_;
  size_t in_flight_ = 0;
  bool pumping_ = false;
  bool round_active_ = false;
  bool round_periodic_ = false;
  std::vector<SessionOutcome>* sync_outcomes_ = nullptr;

  WindowController window_ctl_;
  Stats stats_;
  Stats round_start_;  // stats_ as the current round began
  uint64_t round_max_in_flight_ = 0;
  // Buckets span the direct path (sub-millisecond) through multi-hop
  // store-and-forward with retries (tens of seconds).
  obs::Histogram latency_ms_{
      {1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0}};
};

}  // namespace erasmus::attest
