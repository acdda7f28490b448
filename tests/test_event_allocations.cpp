// The event queue's cost per event, counted: once its buffers are sized,
// scheduling and running (or cancelling) a callable that fits
// std::function's inline buffer allocates nothing, and an owner's scoped
// event -- a relay node's serve, drain or flush -- allocates only for its
// own callable. The counts are exact and machine-independent. This binary
// replaces the global operator new with a counting one.
#include <gtest/gtest.h>

#include <array>

#include "counting_new.h"
#include "sim/event_queue.h"

namespace erasmus::sim {
namespace {

using erasmus::testing::allocations_in;

constexpr size_t kEvents = 1000;

/// Schedules kEvents at distinct instants, cancels every other one when
/// asked, and runs the queue dry.
void batch(EventQueue& q, bool cancel_half, size_t& ran) {
  std::array<EventId, kEvents> ids;
  for (size_t i = 0; i < kEvents; ++i) {
    ids[i] = q.schedule_after(Duration(i + 1), [&ran] { ++ran; });
  }
  if (cancel_half) {
    for (size_t i = 0; i < kEvents; i += 2) q.cancel(ids[i]);
  }
  q.run();
}

TEST(EventAllocations, ScheduleAndRunAllocatesNothing) {
  EventQueue q;
  size_t ran = 0;
  batch(q, false, ran);  // sizes the slot, free-list and heap buffers
  EXPECT_EQ(allocations_in([&] { batch(q, false, ran); }), 0u);
  EXPECT_EQ(ran, 2 * kEvents);
}

TEST(EventAllocations, CancellingAllocatesNothing) {
  EventQueue q;
  size_t ran = 0;
  batch(q, true, ran);
  EXPECT_EQ(allocations_in([&] { batch(q, true, ran); }), 0u);
  EXPECT_EQ(ran, kEvents);
}

TEST(EventAllocations, ScopedEventAllocatesOnlyForItsOwnCallable) {
  EventQueue q;
  ScopedEvents events(q);
  size_t ran = 0;
  // A relay report rides in its serve event: too big for the inline
  // buffer, so std::function stores it on the heap -- once.
  const std::array<uint64_t, 8> report{};
  const auto scoped_batch = [&](bool big) {
    for (size_t i = 0; i < kEvents; ++i) {
      if (big) {
        events.schedule_after(Duration(i + 1),
                              [&ran, report] { ran += report.size(); });
      } else {
        events.schedule_after(Duration(i + 1), [&ran] { ++ran; });
      }
    }
    q.run();
  };
  // Sizing the id list takes a few batches: it grows only while at least
  // half its ids are pending.
  for (int warm = 0; warm < 4; ++warm) scoped_batch(false);
  EXPECT_EQ(allocations_in([&] { scoped_batch(false); }), 0u);
  EXPECT_EQ(allocations_in([&] { scoped_batch(true); }), kEvents);
  EXPECT_EQ(ran, 5 * kEvents + report.size() * kEvents);
}

}  // namespace
}  // namespace erasmus::sim
