// Deterministic flight recorder: sim-time-stamped structured trace events.
//
// The runner's byte-identity invariant (metrics identical at 1/2/8 threads)
// extends to traces: a trace taken at any thread count is byte-for-byte the
// same file. Two event sources make that non-trivial:
//
//  * Coordinator events (service rounds, window decisions, overlay packet
//    lifecycle, churn) run single-threaded at barrier instants in an order
//    the sharded runner already keeps thread-count independent. They append
//    straight to the recorder's ordered event list.
//  * Shard events (device state transitions, self-measurements) run in
//    parallel between barriers. Each shard writes its own TraceShard buffer
//    with no locking; at the barrier the coordinator drains every shard and
//    stable-sorts the drained events by (time, actor). A device's events
//    all live in one shard and actors never span shards, so ties in that
//    key preserve per-device emission order -- the merged sequence is a
//    pure function of (plan, seed), never of the partition.
//
// Bounding is deterministic too: a shard buffer admits at most
// `per_actor_quota` events per actor per barrier interval (dropping the
// excess and counting it). A per-SHARD cap would make drops depend on how
// many devices share a shard, i.e. on thread count; the per-actor quota is
// partition-independent by construction, and the buffer's total footprint
// stays bounded by quota x devices-in-shard.
//
// Exporters: Chrome trace-event JSON (load in Perfetto / chrome://tracing)
// and one-object-per-line JSONL for ad-hoc digestion (tools/trace_summary.py
// reads both).
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "sim/time.h"

namespace erasmus::obs {

/// Trace category, also the --trace-filter vocabulary. One bit each.
enum class Subsystem : uint8_t {
  kRunner = 0,   // barriers, collection rounds, churn
  kService = 1,  // session dispatch, retries, round lifecycle
  kWindow = 2,   // AIMD grow/cut/recovery-epoch decisions
  kOverlay = 3,  // floods, scoped retries, relay queues, NAKs
  kDevice = 4,   // shard-side device state transitions
  kEnergy = 5,   // budget-exhausted (went_dark) instants, planner decisions
  kAdversary = 6,  // infect/migrate/evade/detected instants (src/adversary)
};
inline constexpr size_t kSubsystemCount = 7;

const char* to_string(Subsystem s);
/// Every subsystem name, comma-separated in enum order -- the full
/// --trace-filter vocabulary.
std::string subsystem_names();
/// Bitmask with every subsystem enabled.
constexpr uint32_t all_subsystems() { return (1u << kSubsystemCount) - 1; }
/// Parses a comma-separated subsystem list ("service,window") into a
/// bitmask. Throws std::invalid_argument on an unknown or empty name.
uint32_t parse_subsystem_filter(const std::string& csv);

enum class TraceKind : uint8_t { kSpanBegin, kSpanEnd, kInstant };

/// Event arguments: the metrics sinks' row type, rendered the same way.
using TraceArgs = std::vector<std::pair<std::string, Value>>;

/// Actor id of coordinator-side events (rendered as tid 0; device actors
/// render as tid = id + 1).
inline constexpr uint32_t kCoordinatorActor = UINT32_MAX;

struct TraceEvent {
  sim::Time at;
  uint32_t actor = kCoordinatorActor;
  Subsystem sub = Subsystem::kRunner;
  TraceKind kind = TraceKind::kInstant;
  std::string name;
  TraceArgs args;
};

class TraceRecorder;

/// One shard's lock-free event buffer. Written only by the owning shard
/// thread between barriers; drained only by the coordinator at barriers.
class TraceShard {
 public:
  /// Appends unless the actor exhausted its per-interval quota (then the
  /// event is dropped and counted).
  void emit(TraceEvent event);

 private:
  friend class TraceRecorder;
  explicit TraceShard(uint32_t quota) : quota_(quota) {}

  uint32_t quota_;
  std::vector<TraceEvent> events_;
  std::unordered_map<uint32_t, uint32_t> emitted_;  // actor -> this interval
  uint64_t dropped_ = 0;
};

struct TraceConfig {
  /// Bitmask of enabled Subsystems (see parse_subsystem_filter).
  uint32_t subsystems = all_subsystems();
  /// Shard-side events admitted per actor per barrier interval. Deliberately
  /// per-actor, not per-shard: see the file comment.
  uint32_t per_actor_quota = 256;
  /// Total events kept; once reached, further events are dropped (counted).
  /// Applied in deterministic append order, so the cut point is identical
  /// at every thread count.
  size_t max_events = 1u << 20;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig config = {});

  /// Cheap pre-check so call sites can skip arg construction entirely.
  bool enabled(Subsystem s) const {
    return (config_.subsystems & (1u << static_cast<uint8_t>(s))) != 0;
  }

  /// Coordinator-side emission: appends in call order (single-threaded by
  /// the runner's barrier discipline). Events of a disabled subsystem are
  /// discarded.
  void emit(TraceEvent event);
  void span_begin(Subsystem sub, sim::Time at, std::string name,
                  TraceArgs args = {}, uint32_t actor = kCoordinatorActor);
  void span_end(Subsystem sub, sim::Time at, std::string name,
                TraceArgs args = {}, uint32_t actor = kCoordinatorActor);
  void instant(Subsystem sub, sim::Time at, std::string name,
               TraceArgs args = {}, uint32_t actor = kCoordinatorActor);

  /// (Re)creates `n` shard buffers, merging any unmerged leftovers first.
  void attach_shards(size_t n);
  /// The shard buffer for shard `i`; nullptr when the whole recorder or
  /// device tracing is disabled (callers then skip instrumentation).
  TraceShard* shard(size_t i);
  /// Coordinator-side: drains every shard buffer, stable-sorts the drained
  /// events by (time, actor) and appends them. Call at each barrier BEFORE
  /// emitting that barrier's coordinator events.
  void merge_shards();

  size_t size() const { return events_.size(); }
  uint64_t dropped() const;
  const std::vector<TraceEvent>& events() const { return events_; }
  const TraceConfig& config() const { return config_; }

  /// Chrome trace-event JSON ({"traceEvents": [...]}); open in Perfetto or
  /// chrome://tracing. Byte-deterministic.
  void write_chrome_trace(std::ostream& out) const;
  /// One event object per line. Byte-deterministic.
  void write_jsonl(std::ostream& out) const;

 private:
  void append(TraceEvent event);

  TraceConfig config_;
  std::vector<std::unique_ptr<TraceShard>> shards_;
  std::vector<TraceEvent> events_;
  uint64_t dropped_ = 0;
};

/// Process-global recorder (nullptr when tracing is off). The erasmus_run
/// CLI installs one for --trace; the sharded runner picks it up so scenario
/// signatures stay unchanged. Not owned through this pointer.
TraceRecorder* global_trace();
void set_global_trace(TraceRecorder* recorder);

}  // namespace erasmus::obs
