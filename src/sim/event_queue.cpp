#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace erasmus::sim {

namespace {
uint32_t slot_of(EventId id) { return static_cast<uint32_t>(id); }
uint32_t generation_of(EventId id) { return static_cast<uint32_t>(id >> 32); }
}  // namespace

EventId EventQueue::schedule_at(Time at, std::function<void()> fn) {
  if (at < now_) {
    throw std::invalid_argument("EventQueue: cannot schedule in the past");
  }
  uint32_t index;
  if (free_slots_.empty()) {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  ++slot.generation;  // odd: held
  ++live_;
  const EventId id = (EventId{slot.generation} << 32) | index;
  heap_.push(Entry{at, next_seq_++, id});
  return id;
}

EventId EventQueue::schedule_after(Duration delay, std::function<void()> fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

bool EventQueue::pending(EventId id) const {
  const uint32_t index = slot_of(id);
  const uint32_t generation = generation_of(id);
  return index < slots_.size() && generation % 2 == 1 &&
         slots_[index].generation == generation;
}

void EventQueue::release(uint32_t slot) {
  ++slots_[slot].generation;  // even: free
  free_slots_.push_back(slot);
  --live_;
}

bool EventQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  // The handler dies after the slot is consistent again, so its
  // destructor may schedule or cancel.
  const std::function<void()> doomed =
      std::exchange(slots_[slot_of(id)].fn, nullptr);
  release(slot_of(id));
  return true;
}

const EventQueue::Entry* EventQueue::peek_next() {
  while (!heap_.empty()) {
    const Entry& e = heap_.top();
    if (pending(e.id)) return &e;
    heap_.pop();  // its event was cancelled
  }
  return nullptr;
}

void EventQueue::run_top() {
  const Entry e = heap_.top();
  heap_.pop();
  assert(e.at >= now_);
  now_ = e.at;
  // Released before the call: the handler may schedule into the slot, and
  // cancel() on its own id returns false.
  const std::function<void()> fn =
      std::exchange(slots_[slot_of(e.id)].fn, nullptr);
  release(slot_of(e.id));
  fn();
}

bool EventQueue::step() {
  if (peek_next() == nullptr) return false;
  run_top();
  return true;
}

size_t EventQueue::run_until(Time limit) {
  size_t executed = 0;
  // Peeking (rather than pop + push-back) leaves a beyond-limit event
  // untouched in the heap, so interleaved cancel()/run_until() calls keep
  // the pending() bookkeeping exact.
  while (const Entry* next = peek_next()) {
    if (next->at > limit) break;
    run_top();
    ++executed;
  }
  if (now_ < limit) now_ = limit;
  return executed;
}

size_t EventQueue::run() {
  size_t executed = 0;
  while (step()) ++executed;
  return executed;
}

void EventQueue::advance_to(Time t) {
  if (t < now_) {
    throw std::invalid_argument("EventQueue: cannot move time backwards");
  }
  now_ = t;
}

ScopedEvents::~ScopedEvents() {
  for (const EventId id : ids_) queue_.cancel(id);  // stale ids: no-ops
}

void ScopedEvents::schedule_after(Duration delay, std::function<void()> fn) {
  // Full: drop the ids whose events ran or were cancelled, and grow only
  // when at least half are still pending. Pruning stays amortized O(1),
  // and once the list outgrows twice the peak pending count it never
  // allocates again.
  if (ids_.size() == ids_.capacity()) {
    std::erase_if(ids_, [this](EventId id) { return !queue_.pending(id); });
    if (2 * ids_.size() >= ids_.capacity()) {
      ids_.reserve(std::max<size_t>(16, 2 * ids_.capacity()));
    }
  }
  ids_.push_back(queue_.schedule_after(delay, std::move(fn)));
}

}  // namespace erasmus::sim
