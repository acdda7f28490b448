#include "attest/prover.h"

#include <algorithm>

namespace erasmus::attest {

Prover::Prover(sim::EventQueue& queue, hw::SecurityArch& arch,
               hw::RegionId attested_region, hw::RegionId store_region,
               std::unique_ptr<Scheduler> scheduler, ProverConfig config)
    : queue_(queue), arch_(arch), attested_region_(attested_region),
      store_(arch.memory(), store_region, config.algo),
      scheduler_(std::move(scheduler)), config_(std::move(config)),
      rroc_(queue, config_.rroc_tick,
            config_.rroc_writable_for_attack_demo
                ? hw::Rroc::WriteLine::kWritableForAttackDemo
                : hw::Rroc::WriteLine::kRemoved),
      // The compare register is only software-readable when the schedule is
      // public anyway; irregular schedules require it to be read-protected
      // (paper §3.5: "the timer itself must be read-protected").
      timer_(queue, /*compare_readable=*/scheduler_->predictable_without_key()) {
  if (!scheduler_) {
    throw std::invalid_argument("Prover: scheduler required");
  }
}

uint64_t Prover::attested_bytes() const {
  return arch_.memory().region_size(attested_region_);
}

void Prover::start(std::optional<sim::Duration> initial_offset) {
  running_ = true;
  const sim::Duration delay =
      initial_offset.value_or(scheduler_->next_interval(rroc_.read()));
  nominal_due_ = queue_.now() + delay;
  timer_.arm(delay, [this] { on_timer(); });
}

void Prover::stop() {
  running_ = false;
  timer_.cancel();
}

std::optional<std::pair<sim::Time, sim::Time>> Prover::task_covering(
    sim::Time at) const {
  for (const auto& [begin, end] : critical_tasks_) {
    if (at >= begin && at < end) return std::make_pair(begin, end);
  }
  return std::nullopt;
}

sim::Duration Prover::overlap_with_tasks(sim::Time begin, sim::Time end) const {
  uint64_t overlap_ns = 0;
  for (const auto& [tb, te] : critical_tasks_) {
    const uint64_t lo = std::max(begin.ns(), tb.ns());
    const uint64_t hi = std::min(end.ns(), te.ns());
    if (hi > lo) overlap_ns += hi - lo;
  }
  return sim::Duration(overlap_ns);
}

void Prover::add_critical_task(sim::Time begin, sim::Duration length) {
  critical_tasks_.emplace_back(begin, begin + length);
}

uint64_t Prover::slot_index_for(uint64_t t_ticks) const {
  // Regular schedules use the paper's stateless mapping i = floor(t / T_M)
  // mod n; irregular schedules fall back to the measurement sequence number
  // (the stateless form needs a fixed T_M).
  if (const auto* reg = dynamic_cast<const RegularScheduler*>(scheduler_.get())) {
    const uint64_t tm_ticks = reg->tm() / config_.rroc_tick;
    return t_ticks / std::max<uint64_t>(tm_ticks, 1);
  }
  if (const auto* len = dynamic_cast<const LenientScheduler*>(scheduler_.get());
      len && len->predictable_without_key()) {
    const uint64_t tm_ticks = len->nominal_period() / config_.rroc_tick;
    return t_ticks / std::max<uint64_t>(tm_ticks, 1);
  }
  return seq_;
}

void Prover::on_timer() {
  if (!running_) return;
  const sim::Time now = queue_.now();

  if (const auto task = task_covering(now)) {
    switch (config_.conflict_policy) {
      case ConflictPolicy::kMeasureAnyway:
        break;  // proceed; interference is accounted below
      case ConflictPolicy::kAbortAndReschedule: {
        ++stats_.aborted;
        // Lenient scheduling (§5): retry at the end of the running task,
        // clamped to the end of the current window when the scheduler is
        // lenient (w * T_M past the nominal due time).
        sim::Time retry = task->second;
        if (const auto* len =
                dynamic_cast<const LenientScheduler*>(scheduler_.get())) {
          const sim::Time window_end = nominal_due_ + len->window_slack();
          if (retry > window_end) retry = window_end;
        }
        if (retry <= now) {
          break;  // window exhausted: measure now despite the task
        }
        const sim::Duration slip = retry - nominal_due_;
        stats_.max_schedule_slip = std::max(stats_.max_schedule_slip, slip);
        timer_.arm(retry - now, [this] { on_timer(); });
        return;
      }
      case ConflictPolicy::kSkip:
        ++stats_.skipped;
        schedule_next(rroc_.read());
        return;
    }
  }

  perform_measurement();
  schedule_next(rroc_.read());
}

void Prover::perform_measurement() {
  const sim::Time now = queue_.now();
  const uint64_t t = rroc_.read();

  const sim::Duration cost =
      config_.profile.measurement_time(config_.algo, attested_bytes());

  const Measurement m =
      compute_measurement_protected(arch_, config_.algo, attested_region_, t);

  const uint64_t index = slot_index_for(t);
  store_.put(index, m);
  latest_index_ = index;
  ++seq_;

  busy_until_ = std::max(busy_until_, now) + cost;
  ++stats_.measurements;
  stats_.total_measurement_time = stats_.total_measurement_time + cost;
  stats_.task_interference =
      stats_.task_interference + overlap_with_tasks(now, now + cost);

  if (measurement_observer_) measurement_observer_(now, t);
}

void Prover::schedule_next(uint64_t t_ticks) {
  if (!running_) return;
  const sim::Duration interval = scheduler_->next_interval(t_ticks);
  nominal_due_ = queue_.now() + interval;
  timer_.arm(interval, [this] { on_timer(); });
}

Prover::CollectResult Prover::handle_collect(const CollectRequest& req) {
  const sim::Time now = queue_.now();
  ++stats_.collections;

  // If a measurement is in flight the request queues behind it.
  sim::Duration wait;
  if (busy_until_ > now) wait = busy_until_ - now;

  size_t k = req.k;
  if (k > store_.capacity()) k = store_.capacity();  // Fig. 2: k = n

  CollectResult result;
  if (any_measurement_taken()) {
    result.response.measurements = store_.latest(latest_index_, k);
  }
  // Collection is computation-free: buffer read + packet construct + send.
  result.processing = wait +
                      config_.profile.store_read_time(store_.bytes_for(k)) +
                      config_.profile.packet_construct +
                      config_.profile.packet_send;
  return result;
}

Prover::OdResult Prover::handle_od(const OdRequest& req) {
  const sim::Time now = queue_.now();
  OdResult result;

  sim::Duration wait;
  if (busy_until_ > now) wait = busy_until_ - now;

  // SMART+ anti-DoS: check freshness, then authenticate, BEFORE doing any
  // expensive work. Both checks happen inside the protected environment
  // (the MAC needs K).
  const uint64_t now_ticks = rroc_.read();
  bool fresh = req.treq <= now_ticks &&
               now_ticks - req.treq <= config_.od_freshness_window_ticks &&
               req.treq > last_od_treq_;
  bool authentic = false;
  if (fresh) {
    arch_.run_protected([&](hw::SecurityArch::ProtectedContext& ctx) {
      authentic = crypto::Mac::verify(config_.algo, ctx.key(),
                                      OdRequest::mac_input(req.treq, req.k),
                                      req.mac);
    });
  }
  const sim::Duration auth_cost = config_.profile.request_auth_time();

  if (!fresh || !authentic) {
    // The check itself occupies the prover, so the next request queues
    // behind it; only the measurement is spared (Fig. 4).
    ++stats_.od_rejected;
    busy_until_ = std::max(busy_until_, now) + auth_cost;
    result.processing = wait + auth_cost;
    return result;  // silent abort (Fig. 4: "if not OK: abort")
  }
  last_od_treq_ = req.treq;
  ++stats_.od_accepted;

  // Compute the fresh measurement M_0 in real time -- the expensive step
  // ERASMUS's plain collection avoids.
  const sim::Duration measure_cost =
      config_.profile.measurement_time(config_.algo, attested_bytes());
  OdResponse resp;
  resp.fresh = compute_measurement_protected(arch_, config_.algo,
                                             attested_region_, now_ticks);
  // ERASMUS+OD (k > 0): attach the stored history. Does not count as a
  // scheduled measurement, so the rolling buffer is untouched.
  size_t k = req.k;
  if (k > store_.capacity()) k = store_.capacity();
  if (k > 0 && any_measurement_taken()) {
    resp.history = store_.latest(latest_index_, k);
  }

  busy_until_ = std::max(busy_until_, now) + auth_cost + measure_cost;
  stats_.total_measurement_time =
      stats_.total_measurement_time + measure_cost;

  result.response = std::move(resp);
  result.processing = wait + auth_cost + measure_cost +
                      config_.profile.store_read_time(store_.bytes_for(k)) +
                      config_.profile.packet_construct +
                      config_.profile.packet_send;
  return result;
}

Prover::Reply Prover::serve(MsgType type, ByteView body) {
  Reply reply;
  if (type == MsgType::kCollectRequest) {
    const auto req = CollectRequest::deserialize(body);
    reply.outcome = req ? Outcome::kReplied : Outcome::kMalformed;
    if (req) {
      const CollectResult res = handle_collect(*req);
      reply.type = MsgType::kCollectResponse;
      reply.body = res.response.serialize();
      reply.processing = res.processing;
    }
  } else if (type == MsgType::kOdRequest) {
    const auto req = OdRequest::deserialize(body);
    reply.outcome = req ? Outcome::kRejected : Outcome::kMalformed;
    if (req) {
      const OdResult res = handle_od(*req);
      reply.type = MsgType::kOdResponse;
      reply.processing = res.processing;
      // A rejected request gets no reply at all (anti-DoS).
      if (res.response) {
        reply.outcome = Outcome::kReplied;
        reply.body = res.response->serialize();
      }
    }
  }
  return reply;  // kNotRequest: responses are not expected at the prover
}

void Prover::bind(net::Network& network, net::NodeId id) {
  network.set_handler(id, [this, &network, id](const net::Datagram& dgram) {
    const auto request = unframe(dgram.payload);
    if (!request) return;
    const Reply reply = serve(request->first, request->second);
    if (reply.outcome != Outcome::kReplied) return;
    const net::NodeId src = dgram.src;
    queue_.schedule_after(
        reply.processing,
        [&network, id, src, framed = frame(reply.type, reply.body)] {
          network.send(id, src, framed);
        });
  });
}

}  // namespace erasmus::attest
