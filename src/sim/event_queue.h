// Discrete-event simulation core.
//
// A single EventQueue drives every timed component in an experiment: hardware
// timers firing self-measurements, network packet deliveries, malware
// entering and leaving provers, and verifier collection rounds. Events at
// equal timestamps run in scheduling order (stable), which keeps runs
// bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.h"

namespace erasmus::sim {

/// Handle for cancelling a scheduled event: the event's handler slot in
/// the low 32 bits, that slot's generation in the high 32. Running or
/// cancelling an event bumps its slot's generation and frees the slot for
/// the next event, so an id that outlived its event is harmless: it names
/// no pending event, and cancel() on it returns false and leaves the
/// slot's new event alone. (The generation wraps only after 2^31 events
/// have held one slot.)
using EventId = uint64_t;

class EventQueue {
 public:
  /// Current virtual time. Monotonically non-decreasing.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (must be >= now()).
  EventId schedule_at(Time at, std::function<void()> fn);

  /// Schedules `fn` after a relative delay.
  EventId schedule_after(Duration delay, std::function<void()> fn);

  /// Cancels a pending event, destroying its handler. Returns false if it
  /// already ran or was already cancelled.
  bool cancel(EventId id);

  /// Runs events until the queue is empty or `limit` is reached; time stops
  /// at the later of the last event and `limit` (if any event ran past it,
  /// it does not). Returns the number of events executed.
  size_t run_until(Time limit);

  /// Runs until the queue is empty. Returns the number of events executed.
  size_t run();

  /// Executes at most one event. Returns false if the queue is empty.
  bool step();

  /// Advances the clock with no event execution (used by tests).
  void advance_to(Time t);

  /// Live (not-yet-run, not-cancelled) events.
  size_t pending() const { return live_; }
  /// True while event `id` is live: scheduled, not yet run, not cancelled.
  bool pending(EventId id) const;

 private:
  struct Entry {
    Time at;
    uint64_t seq;
    EventId id;
    // Ordered as a min-heap: earliest time first, FIFO within a timestamp.
    bool operator>(const Entry& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };
  /// A handler and its generation: odd while an event holds the slot,
  /// even while it is free.
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 0;
  };

  /// Bumps the slot's generation and frees it for the next event.
  void release(uint32_t slot);
  /// Discards the entries of cancelled events from the top of the heap,
  /// then returns the next live entry without removing it; nullptr when
  /// no live event remains.
  const Entry* peek_next();
  /// Pops the (live) top entry, frees its slot and runs its handler.
  void run_top();

  Time now_ = Time::zero();
  uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t live_ = 0;
};

/// Events scheduled on behalf of one owner, all cancelled when the owner
/// is destroyed, so none can fire into freed state. It keeps a plain id
/// list, pruned of ids that ran or were cancelled whenever it fills: an
/// event costs nothing beyond its slot in the queue.
class ScopedEvents {
 public:
  explicit ScopedEvents(EventQueue& queue) : queue_(queue) {}
  ~ScopedEvents();

  ScopedEvents(const ScopedEvents&) = delete;
  ScopedEvents& operator=(const ScopedEvents&) = delete;

  void schedule_after(Duration delay, std::function<void()> fn);

 private:
  EventQueue& queue_;
  std::vector<EventId> ids_;
};

}  // namespace erasmus::sim
