#include "attest/service.h"

#include <algorithm>
#include <stdexcept>

namespace erasmus::attest {

AttestationService::AttestationService(sim::EventQueue& queue,
                                       Transport& transport,
                                       DeviceDirectory& directory,
                                       ServiceConfig config)
    : queue_(queue), transport_(transport), directory_(directory),
      config_(config), window_ctl_(config_.window, directory_.size()) {
  transport_.set_receiver(
      [this](net::NodeId src, MsgType type, ByteView body) {
        on_receive(src, type, body);
      });
}

void AttestationService::trace_window(const char* name, const char* reason) {
  obs::TraceRecorder* tr = config_.trace;
  if (tr == nullptr || !tr->enabled(obs::Subsystem::kWindow)) return;
  tr->instant(obs::Subsystem::kWindow, queue_.now(), name,
              {{"reason", reason},
               {"window", static_cast<uint64_t>(window_ctl_.window())}});
}

AttestationService::~AttestationService() {
  // Sever every this-capture still held elsewhere: stop() cancels all
  // pending events, and the transport's delivery callback must not fire
  // into a destroyed service if the queue keeps running.
  stop();
  transport_.set_receiver({});
}

void AttestationService::start() {
  if (running_) return;  // exactly one periodic chain
  running_ = true;
  next_round_event_ =
      queue_.schedule_after(config_.tc, [this] { begin_periodic_round(); });
}

void AttestationService::stop() {
  // Full quiescence: no further rounds start, and in-flight sessions are
  // aborted -- their timeouts cancelled, nothing further sent or recorded.
  // Responses still en route surface as stray datagrams.
  running_ = false;
  if (round_active_ && config_.trace != nullptr) {
    const RoundStats rs = round_stats();
    config_.trace->span_end(
        obs::Subsystem::kService, queue_.now(), "round",
        {{"reason", "aborted"},
         {"responses", rs.responses},
         {"unreachable", rs.unreachable_sessions},
         {"aborted_in_flight", static_cast<uint64_t>(in_flight_)}});
  }
  stats_.aborted_sessions += in_flight_;
  if (next_round_event_) {
    queue_.cancel(*next_round_event_);
    next_round_event_.reset();
  }
  for (auto& [node, session] : active_) {
    if (session.timeout) queue_.cancel(*session.timeout);
  }
  if (retry_flush_event_) {
    queue_.cancel(*retry_flush_event_);
    retry_flush_event_.reset();
  }
  retry_batch_.clear();
  verify_intake_.clear();
  active_.clear();
  pending_.clear();
  in_flight_ = 0;
  round_active_ = false;
  round_periodic_ = false;
}

std::vector<AttestationService::SessionOutcome>
AttestationService::collect_now(const std::vector<DeviceId>& devices,
                                std::optional<uint32_t> k) {
  return collect(devices, k, std::nullopt);
}

std::vector<AttestationService::SessionOutcome>
AttestationService::collect_until(const std::vector<DeviceId>& devices,
                                  sim::Time deadline,
                                  std::optional<uint32_t> k) {
  return collect(devices, k, deadline);
}

std::vector<AttestationService::SessionOutcome> AttestationService::collect(
    const std::vector<DeviceId>& devices, std::optional<uint32_t> k,
    std::optional<sim::Time> deadline) {
  // Validate before touching any member state: a throw here must not leave
  // sync_outcomes_ dangling or clobber an in-flight periodic round's flag.
  admit_round(devices);
  std::vector<SessionOutcome> outcomes;
  sync_outcomes_ = &outcomes;
  // Cleared on every exit path: a transport that throws mid-dispatch must
  // not leave later completions writing through a dangling stack pointer.
  const struct SyncGuard {
    std::vector<SessionOutcome>*& ptr;
    ~SyncGuard() { ptr = nullptr; }
  } guard{sync_outcomes_};
  round_periodic_ = false;
  begin_round(devices, k.value_or(config_.k));
  if (deadline) {
    queue_.run_until(*deadline);
    // Whatever is still in flight missed this round; late reports surface
    // as stray datagrams and cannot disturb the next round.
    if (round_active_) stop();
  }
  return outcomes;
}

void AttestationService::begin_periodic_round() {
  if (!running_) return;
  next_round_event_.reset();
  if (round_active_) {
    // A single-shot round is still draining; retry shortly instead of
    // throwing out of the event loop and aborting the simulation.
    next_round_event_ = queue_.schedule_after(
        config_.response_timeout, [this] { begin_periodic_round(); });
    return;
  }
  std::vector<DeviceId> all(directory_.size());
  for (DeviceId id = 0; id < directory_.size(); ++id) all[id] = id;
  round_periodic_ = true;
  begin_round(all, config_.k);
}

void AttestationService::admit_round(const std::vector<DeviceId>& devices) {
  if (round_active_) {
    throw std::logic_error("AttestationService: round already in progress");
  }
  // The directory enrolls one device per node, so a repeated endpoint is
  // a repeated device id: each id is flagged on a reused per-device
  // vector.
  admitted_.assign(directory_.size(), false);
  for (const DeviceId id : devices) {
    // directory_.node() also rejects unknown device ids here, before any
    // session has been dispatched.
    directory_.node(id);
    if (admitted_[id]) {
      throw std::logic_error(
          "AttestationService: duplicate target endpoint in round");
    }
    admitted_[id] = true;
  }
}

void AttestationService::begin_round(const std::vector<DeviceId>& devices,
                                     uint32_t k) {
  round_active_ = true;
  ++stats_.rounds;
  if (config_.trace != nullptr) {
    config_.trace->span_begin(
        obs::Subsystem::kService, queue_.now(), "round",
        {{"round", stats_.rounds},
         {"targets", static_cast<uint64_t>(devices.size())},
         {"k", static_cast<uint64_t>(k)},
         {"kind", config_.kind == RoundKind::kCollect ? "collect"
                                                      : "on_demand"}});
  }
  // Per-round stats start fresh here; the WindowController itself carries
  // its learned window across rounds (the network did not reset).
  round_start_ = stats_;
  round_max_in_flight_ = 0;
  window_ctl_.begin_round();
  if (config_.keep_audit && logs_.size() < directory_.size()) {
    logs_.resize(directory_.size());
  }
  round_k_ = k;
  for (const DeviceId id : devices) pending_.push_back(id);
  pump();
}

void AttestationService::poll_congestion() {
  // Relay queue occupancy piggybacks on reports (overlay transports);
  // other backends report zero. One saturation signal is one congestion
  // event -- the controller's burst guard absorbs repeats.
  const double occupancy = transport_.take_congestion();
  if (occupancy < kCongestionThreshold) return;
  if (window_ctl_.on_congestion()) {
    ++stats_.congestion_backoffs;
    trace_window("window_cut", "congestion");
  }
}

AttestationService::RoundStats AttestationService::round_stats() const {
  const Stats& at_start = round_start_;
  RoundStats rs;
  rs.sessions = stats_.sessions - at_start.sessions;
  rs.responses = stats_.responses - at_start.responses;
  rs.retries = stats_.retries - at_start.retries;
  rs.unreachable_sessions =
      stats_.unreachable_sessions - at_start.unreachable_sessions;
  rs.aborted_sessions = stats_.aborted_sessions - at_start.aborted_sessions;
  rs.max_in_flight = round_max_in_flight_;
  rs.window_min = window_ctl_.round_min();
  rs.window_max = window_ctl_.round_max();
  rs.window_final = window_ctl_.window();
  rs.loss_backoffs = stats_.loss_backoffs - at_start.loss_backoffs;
  rs.congestion_backoffs =
      stats_.congestion_backoffs - at_start.congestion_backoffs;
  rs.aggregated_sessions =
      stats_.aggregated_sessions - at_start.aggregated_sessions;
  rs.demand_fetches = stats_.demand_fetches - at_start.demand_fetches;
  return rs;
}

void AttestationService::pump() {
  if (pumping_) return;
  pumping_ = true;
  // Reset on every exit path so a throwing transport cannot wedge the
  // service with the pump latch stuck.
  const struct PumpGuard {
    bool& flag;
    ~PumpGuard() { flag = false; }
  } guard{pumping_};
  poll_congestion();
  const bool coalesce = transport_.coalesced_dispatch();
  while (!pending_.empty() && in_flight_ < window_ctl_.window()) {
    if (coalesce) {
      // Flood transports pay for the whole field per broadcast: wait for
      // at least half a window of free slots (or the final stragglers)
      // before dispatching, instead of flooding per freed slot. The
      // window still bounds what is in flight; this only shapes batches.
      const size_t window = window_ctl_.window();
      const size_t free_slots = window - in_flight_;
      const size_t wanted =
          std::min(pending_.size(), std::max<size_t>(1, window / 2));
      if (free_slots < wanted) break;
    }
    // One dispatch pass: admit as many pending sessions as the window
    // allows. A round requests one uniform k, so collect first attempts
    // all carry the same body and go out as one transport broadcast.
    std::vector<net::NodeId> batch;
    while (!pending_.empty() && in_flight_ < window_ctl_.window()) {
      const DeviceId device = pending_.front();
      pending_.pop_front();
      // admit_round() guaranteed unique endpoints, so no session can be in
      // flight for this node.
      const net::NodeId node = directory_.node(device);
      Session session;
      session.device = device;
      session.node = node;
      session.started = queue_.now();
      ++stats_.sessions;
      ++in_flight_;
      stats_.max_in_flight_seen =
          std::max<uint64_t>(stats_.max_in_flight_seen, in_flight_);
      round_max_in_flight_ =
          std::max<uint64_t>(round_max_in_flight_, in_flight_);
      if (config_.kind == RoundKind::kCollect) {
        session.attempts = 1;
        session.send_seq = window_ctl_.on_send();
        active_.emplace(node, std::move(session));
        batch.push_back(node);
      } else {
        // OD requests are per-device authenticated: no shared body.
        active_.emplace(node, std::move(session));
        send_attempt(active_.at(node));
      }
    }
    if (!batch.empty()) {
      if (config_.trace != nullptr) {
        config_.trace->instant(
            obs::Subsystem::kService, queue_.now(), "dispatch",
            {{"batch", static_cast<uint64_t>(batch.size())},
             {"in_flight", static_cast<uint64_t>(in_flight_)},
             {"window", static_cast<uint64_t>(window_ctl_.window())}});
      }
      // Synchronous transports complete sessions during this call; the
      // outer loop then re-checks the window.
      broadcast_collect(batch);
    }
  }
  if (round_active_ && in_flight_ == 0 && pending_.empty()) finish_round();
}

void AttestationService::send_attempt(Session& session) {
  ++session.attempts;
  session.send_seq = window_ctl_.on_send();
  Bytes body;
  MsgType type;
  if (config_.kind == RoundKind::kCollect) {
    type = MsgType::kCollectRequest;
    body = CollectRequest{round_k_}.serialize();
  } else {
    type = MsgType::kOdRequest;
    const DeviceRecord& rec = directory_.record(session.device);
    const uint64_t treq = queue_.now().ns() / rec.tick.ns();
    // Judge against the first ask only (see Session::treq): the request
    // itself still carries the current instant.
    if (session.attempts == 1) session.treq = treq;
    body = make_od_request(rec, treq, round_k_).serialize();
  }
  const net::NodeId node = session.node;
  // A synchronous transport completes (and erases) the session inside
  // send(); `session` must not be touched afterwards, and the timeout is
  // only armed if the session survived.
  transport_.send(node, type, body);
  const auto it = active_.find(node);
  if (it != active_.end()) arm_timeout(it->second);
}

void AttestationService::queue_retry(Session& session) {
  // The attempt is only stamped (and counted) at flush time, when it is
  // known to go on the air -- a late response can still complete the
  // session before the flush and prune it from the batch.
  retry_batch_.push_back(session.node);
  if (!retry_flush_event_) {
    // Zero delay: runs at this same instant but AFTER the remaining
    // timeouts of the wave (the queue is FIFO within a timestamp), so
    // the whole wave lands in one batch.
    retry_flush_event_ =
        queue_.schedule_after(sim::Duration(0), [this] { flush_retries(); });
  }
}

void AttestationService::flush_retries() {
  retry_flush_event_.reset();
  std::vector<net::NodeId> batch;
  batch.swap(retry_batch_);
  // A late response may have completed a session while its retry sat in
  // the batch; re-asking would only produce a stray duplicate.
  batch.erase(std::remove_if(batch.begin(), batch.end(),
                             [this](net::NodeId node) {
                               return active_.find(node) == active_.end();
                             }),
              batch.end());
  if (batch.empty()) return;
  for (const net::NodeId node : batch) {
    Session& session = active_.at(node);
    ++session.attempts;
    session.send_seq = window_ctl_.on_send();
  }
  stats_.retries += batch.size();
  if (config_.trace != nullptr) {
    config_.trace->instant(
        obs::Subsystem::kService, queue_.now(), "retry_wave",
        {{"sessions", static_cast<uint64_t>(batch.size())},
         {"window", static_cast<uint64_t>(window_ctl_.window())}});
  }
  transport_.hint_retry_wave();
  broadcast_collect(batch);
}

void AttestationService::broadcast_collect(
    const std::vector<net::NodeId>& batch) {
  const Bytes body = CollectRequest{round_k_}.serialize();
  // Replies a synchronous backend loops back during the broadcast are only
  // taken in; one flush then verifies them together and completes them in
  // delivery order.
  defer_verify_ = true;
  transport_.broadcast(batch, MsgType::kCollectRequest, body);
  defer_verify_ = false;
  flush_intake();
  // Arm timeouts only for sessions the broadcast did not already
  // complete: the all-synchronous hot path (kDirect collection over a
  // DirectTransport) then never touches the event queue at all.
  for (const net::NodeId node : batch) {
    const auto it = active_.find(node);
    if (it != active_.end()) arm_timeout(it->second);
  }
}

void AttestationService::arm_timeout(Session& session) {
  const net::NodeId node = session.node;
  // Floor at the bare transport round trip; prover-side processing time
  // still has to come out of the configured budget.
  const sim::Duration timeout =
      std::max(config_.response_timeout, transport_.latency() * 2);
  session.timeout =
      queue_.schedule_after(timeout, [this, node] { on_timeout(node); });
}

void AttestationService::on_receive(net::NodeId src, MsgType type,
                                    ByteView body) {
  const auto it = active_.find(src);
  if (it == active_.end()) {
    // No session awaiting this endpoint: spoofed source, or a stray or
    // duplicate response from an already-finished session.
    ++stats_.stray_datagrams;
    return;
  }
  Session& session = it->second;
  const MsgType expected = config_.kind == RoundKind::kCollect
                               ? MsgType::kCollectResponse
                               : MsgType::kOdResponse;
  if (type != expected) {
    ++stats_.stray_datagrams;
    return;  // session stays armed; the timeout path recovers
  }
  if (config_.kind == RoundKind::kCollect) {
    auto resp = CollectResponse::deserialize(body);
    // intaken: a second reply before the flush is a duplicate.
    if (!resp || session.intaken) {
      ++stats_.stray_datagrams;
      return;
    }
    // The session stays in active_ until the flush completes it, so its
    // slot still counts against the window.
    session.intaken = true;
    verify_intake_.push_back({src, session.device, std::move(*resp)});
    if (!defer_verify_) flush_intake();
    return;
  }
  const auto resp = OdResponse::deserialize(body);
  if (!resp) {
    ++stats_.stray_datagrams;
    return;
  }
  OdReport od = verify_od_response(directory_.record(session.device), *resp,
                                   queue_.now(), session.treq);
  CollectionReport report = std::move(od.history);
  if (!od.fresh_valid) {
    report.tampering_detected = true;
    report.note += "od fresh invalid; ";
  }
  complete(src, /*reachable=*/true, std::move(report), od.fresh_valid);
}

bool AttestationService::complete_aggregated(net::NodeId node) {
  const auto it = active_.find(node);
  if (it == active_.end()) {
    // No session awaiting this node: a duplicate aggregate's bit, or a
    // head vouching for a device that already answered raw.
    ++stats_.stray_datagrams;
    return false;
  }
  ++stats_.aggregated_sessions;
  CollectionReport report;  // trustworthy by default, freshness nullopt
  report.note = "aggregated by cluster head; ";
  complete(node, /*reachable=*/true, std::move(report),
           /*fresh_valid=*/false, /*aggregated=*/true);
  return true;
}

bool AttestationService::demand_fetch(net::NodeId node) {
  const auto it = active_.find(node);
  if (it == active_.end()) return false;
  Session& session = it->second;
  ++stats_.demand_fetches;
  if (config_.trace != nullptr) {
    config_.trace->instant(
        obs::Subsystem::kService, queue_.now(), "demand_fetch",
        {{"device", static_cast<uint64_t>(session.device)},
         {"attempts", static_cast<int64_t>(session.attempts)}});
  }
  if (session.attempts > config_.max_retries) {
    // Budget spent: the armed timeout will close the session as
    // unreachable -- a cleared bit must not grant extra attempts.
    return true;
  }
  // Spend one retry immediately instead of waiting out the timeout: a
  // cleared bit is a stronger signal than silence. The per-device send
  // rides the scoped-retry machinery (cached route or targeted flood).
  if (session.timeout) {
    queue_.cancel(*session.timeout);
    session.timeout.reset();
  }
  ++stats_.retries;
  transport_.hint_retry_wave();
  send_attempt(session);
  return true;
}

void AttestationService::on_timeout(net::NodeId node) {
  const auto it = active_.find(node);
  if (it == active_.end()) return;  // completed; cancel raced the event
  Session& session = it->second;
  session.timeout.reset();
  // Every timeout is a loss signal for the adaptive window; the recovery
  // epoch collapses the correlated timeouts of one dispatch wave into a
  // single multiplicative cut.
  if (window_ctl_.on_loss(session.send_seq)) {
    ++stats_.loss_backoffs;
    trace_window("window_cut", "loss");
  } else if (window_ctl_.adaptive()) {
    trace_window("window_loss_absorbed", "recovery_epoch");
  }
  if (session.attempts <= config_.max_retries) {
    if (config_.kind == RoundKind::kCollect &&
        transport_.coalesced_dispatch()) {
      // A lost flood times out its whole dispatch wave at this same
      // instant: coalesce the wave's retries into one broadcast instead
      // of launching one re-flood per device. Retry stats are counted at
      // flush time, for retries that actually go on the air.
      queue_retry(session);
    } else {
      ++stats_.retries;
      transport_.hint_retry_wave();
      send_attempt(session);
    }
    return;
  }
  // Retry budget exhausted: the device is unreachable this round. For an
  // unattended prover this itself is a QoA event worth logging.
  complete(node, /*reachable=*/false, CollectionReport{},
           /*fresh_valid=*/false);
}

void AttestationService::flush_intake() {
  if (verify_intake_.empty()) return;
  // Swap first: complete() can re-enter pump() and start a new intake.
  std::vector<PendingVerify> intake;
  intake.swap(verify_intake_);
  const size_t n = intake.size();
  // verify_collection is a pure function of (record, response, now, k), so
  // every response can be judged concurrently into its own report slot.
  // Chunks are grouped by MAC algorithm first -- on a heterogeneous fleet
  // each worker then stays on one arch family's crypto code path. Each
  // response's algorithm is read once, and the pairs compare their intake
  // index last, so within an algorithm intake order is kept.
  std::vector<CollectionReport> reports(n);
  std::vector<std::pair<crypto::MacAlgo, size_t>> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = {directory_.record(intake[i].device).key.algo(), i};
  }
  std::sort(order.begin(), order.end());
  const sim::Time now = queue_.now();
  constexpr size_t kChunk = 8;
  const size_t chunks = (n + kChunk - 1) / kChunk;
  const auto verify_chunk = [&](size_t c) {
    const size_t hi = std::min((c + 1) * kChunk, n);
    for (size_t j = c * kChunk; j < hi; ++j) {
      const size_t i = order[j].second;
      const PendingVerify& pv = intake[i];
      reports[i] = verify_collection(directory_.record(pv.device), pv.resp,
                                     now, round_k_);
    }
  };
  if (config_.verify_executor != nullptr) {
    config_.verify_executor->run(chunks, verify_chunk);
  } else {
    for (size_t c = 0; c < chunks; ++c) verify_chunk(c);
  }
  // Completion is sequential, in intake order, so stats, window moves,
  // traces and streamed outcomes do not depend on the thread count.
  for (size_t i = 0; i < n; ++i) {
    complete(intake[i].node, /*reachable=*/true, std::move(reports[i]),
             /*fresh_valid=*/false);
  }
}

void AttestationService::complete(net::NodeId node, bool reachable,
                                  CollectionReport report, bool fresh_valid,
                                  bool aggregated) {
  const auto it = active_.find(node);
  Session session = std::move(it->second);
  if (session.timeout) queue_.cancel(*session.timeout);
  active_.erase(it);
  --in_flight_;

  SessionOutcome outcome;
  outcome.device = session.device;
  outcome.at = queue_.now();
  outcome.reachable = reachable;
  outcome.attempts = session.attempts;
  outcome.fresh_valid = fresh_valid;
  outcome.aggregated = aggregated;
  if (reachable) {
    ++stats_.responses;
    latency_ms_.observe((outcome.at - session.started).to_millis());
    const size_t before = window_ctl_.window();
    window_ctl_.on_response();
    if (window_ctl_.window() != before) {
      trace_window("window_grow", "response");
    }
    outcome.report = std::move(report);
  } else {
    ++stats_.unreachable_sessions;
    if (config_.trace != nullptr) {
      config_.trace->instant(
          obs::Subsystem::kService, outcome.at, "unreachable",
          {{"device", static_cast<uint64_t>(session.device)},
           {"attempts", static_cast<int64_t>(session.attempts)}});
    }
  }

  if (config_.keep_audit) {
    AuditLog& log = logs_[session.device];
    if (reachable) {
      log.record(outcome.at, outcome.report);
    } else {
      log.record_unreachable(outcome.at);
    }
  }
  if (observer_) observer_(outcome);
  // After the observer so the k-entry report can be moved, not copied.
  if (sync_outcomes_ != nullptr) sync_outcomes_->push_back(std::move(outcome));

  // Synchronous completions happen inside pump()'s dispatch loop, which
  // re-checks the window itself; only async completions re-pump here.
  if (!pumping_) pump();
}

void AttestationService::finish_round() {
  round_active_ = false;
  if (config_.trace != nullptr) {
    const RoundStats rs = round_stats();
    config_.trace->span_end(
        obs::Subsystem::kService, queue_.now(), "round",
        {{"reason", "drained"},
         {"responses", rs.responses},
         {"retries", rs.retries},
         {"unreachable", rs.unreachable_sessions},
         {"window_final", rs.window_final}});
  }
  if (round_periodic_ && running_) {
    next_round_event_ =
        queue_.schedule_after(config_.tc, [this] { begin_periodic_round(); });
  }
}

}  // namespace erasmus::attest
