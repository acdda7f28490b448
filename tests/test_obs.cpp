// Tests for the flight recorder (obs::TraceRecorder), the fixed-bucket
// histogram (obs::Histogram) and the phase profiler (obs::PhaseProfiler).
//
// The load-bearing property is partition-independence: the merged trace
// must be a pure function of the emitted events, never of how devices were
// split across shards -- that is what makes --trace output byte-identical
// at 1/2/8 threads.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/histogram.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace erasmus::obs {
namespace {

using sim::Time;

TraceEvent device_event(uint64_t at_ns, uint32_t actor, const char* name) {
  return {Time(at_ns), actor, Subsystem::kDevice, TraceKind::kInstant, name,
          {}};
}

// --- subsystem filter --------------------------------------------------------

TEST(TraceFilter, ParsesKnownNames) {
  EXPECT_EQ(parse_subsystem_filter("service"),
            1u << static_cast<uint8_t>(Subsystem::kService));
  EXPECT_EQ(
      parse_subsystem_filter(
          "runner,service,window,overlay,device,energy,adversary"),
      all_subsystems());
  // The list `erasmus_run describe` prints and the parse error quotes.
  EXPECT_EQ(parse_subsystem_filter(subsystem_names()), all_subsystems());
}

TEST(TraceFilter, ThrowsOnUnknownOrEmptyName) {
  EXPECT_THROW(parse_subsystem_filter("services"), std::invalid_argument);
  EXPECT_THROW(parse_subsystem_filter("service,,window"),
               std::invalid_argument);
  EXPECT_THROW(parse_subsystem_filter(""), std::invalid_argument);
}

TEST(TraceFilter, DisabledSubsystemEventsAreDiscardedNotCounted) {
  TraceConfig config;
  config.subsystems = parse_subsystem_filter("service");
  TraceRecorder recorder(config);
  recorder.instant(Subsystem::kWindow, Time(10), "cut");
  recorder.instant(Subsystem::kService, Time(20), "dispatch");
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.events()[0].name, "dispatch");
  // Filtered events are not "dropped" -- the user asked for them to be off.
  EXPECT_EQ(recorder.dropped(), 0u);
}

// --- shard merge: partition independence -------------------------------------

TEST(TraceMerge, MergedOrderIsIndependentOfShardPartition) {
  // Four actors' events, interleaved in sim time, fed once through 1 shard
  // and once split across 2 shards: the merged event sequences must match.
  const std::vector<TraceEvent> events = {
      device_event(30, 2, "c"), device_event(10, 0, "a"),
      device_event(10, 1, "b"), device_event(20, 0, "a2"),
      device_event(30, 3, "d"), device_event(5, 3, "d0"),
  };

  const auto run = [&](size_t shards) {
    TraceRecorder recorder;
    recorder.attach_shards(shards);
    for (const auto& e : events) {
      // Actors never span shards in the runner; mimic that assignment.
      recorder.shard(e.actor % shards)->emit(e);
    }
    recorder.merge_shards();
    std::vector<std::pair<uint64_t, std::string>> merged;
    for (const auto& e : recorder.events()) {
      merged.emplace_back(e.at.ns(), e.name);
    }
    return merged;
  };

  const auto one = run(1);
  const auto two = run(2);
  EXPECT_EQ(one, two);
  ASSERT_EQ(one.size(), events.size());
  // Sorted by (time, actor): d0@5, a@10, b@10, a2@20, c@30, d@30.
  EXPECT_EQ(one.front().second, "d0");
  EXPECT_EQ(one.back().second, "d");
}

TEST(TraceMerge, PerActorEmissionOrderSurvivesTies) {
  // Two events from one actor at the SAME sim time: stable sort keeps the
  // emission order, which is deterministic because one actor lives in
  // exactly one shard.
  TraceRecorder recorder;
  recorder.attach_shards(1);
  recorder.shard(0)->emit(device_event(10, 7, "first"));
  recorder.shard(0)->emit(device_event(10, 7, "second"));
  recorder.merge_shards();
  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.events()[0].name, "first");
  EXPECT_EQ(recorder.events()[1].name, "second");
}

TEST(TraceMerge, ShardIsNullWhenDeviceTracingDisabled) {
  TraceConfig config;
  config.subsystems = parse_subsystem_filter("runner");
  TraceRecorder recorder(config);
  recorder.attach_shards(2);
  EXPECT_EQ(recorder.shard(0), nullptr);
  EXPECT_EQ(recorder.shard(1), nullptr);
}

// --- deterministic bounding --------------------------------------------------

TEST(TraceBounding, PerActorQuotaDropsExcessDeterministically) {
  TraceConfig config;
  config.per_actor_quota = 2;
  TraceRecorder recorder(config);
  recorder.attach_shards(1);
  for (int i = 0; i < 5; ++i) {
    recorder.shard(0)->emit(device_event(static_cast<uint64_t>(i), 3, "e"));
  }
  // A second actor in the same shard has its own quota.
  recorder.shard(0)->emit(device_event(0, 4, "other"));
  recorder.merge_shards();
  EXPECT_EQ(recorder.size(), 3u);  // 2 from actor 3 + 1 from actor 4
  EXPECT_EQ(recorder.dropped(), 3u);
}

TEST(TraceBounding, QuotaResetsEachBarrierInterval) {
  TraceConfig config;
  config.per_actor_quota = 1;
  TraceRecorder recorder(config);
  recorder.attach_shards(1);
  recorder.shard(0)->emit(device_event(1, 0, "a"));
  recorder.shard(0)->emit(device_event(2, 0, "dropped"));
  recorder.merge_shards();
  recorder.shard(0)->emit(device_event(3, 0, "b"));  // fresh interval
  recorder.merge_shards();
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 1u);
}

TEST(TraceBounding, MaxEventsCapsTotalAndCounts) {
  TraceConfig config;
  config.max_events = 2;
  TraceRecorder recorder(config);
  recorder.instant(Subsystem::kRunner, Time(1), "a");
  recorder.instant(Subsystem::kRunner, Time(2), "b");
  recorder.instant(Subsystem::kRunner, Time(3), "c");
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 1u);
}

// --- exporters ---------------------------------------------------------------

TEST(TraceExport, ChromeTraceGolden) {
  TraceRecorder recorder;
  recorder.span_begin(Subsystem::kService, Time(1000), "round",
                      {{"round", uint64_t{1}}});
  recorder.span_end(Subsystem::kService, Time(2500), "round");
  recorder.attach_shards(1);
  recorder.shard(0)->emit(device_event(1500, 0, "measure"));
  recorder.merge_shards();

  std::ostringstream out;
  recorder.write_chrome_trace(out);
  const std::string trace = out.str();
  // Structural contract rather than full-file golden: header, the three
  // events with microsecond timestamps, and the dropped-event footer.
  EXPECT_NE(trace.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"B\",\"ts\":1.0,"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"E\",\"ts\":2.5,"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\",\"ts\":1.5,"), std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"round\":1}"), std::string::npos);
  EXPECT_NE(trace.find("\"dropped_events\":0"), std::string::npos);

  // Re-rendering is byte-identical.
  std::ostringstream again;
  recorder.write_chrome_trace(again);
  EXPECT_EQ(trace, again.str());
}

TEST(TraceExport, JsonlOneObjectPerLine) {
  TraceRecorder recorder;
  recorder.instant(Subsystem::kOverlay, Time(42), "flood",
                   {{"ttl", uint64_t{6}}});
  std::ostringstream out;
  recorder.write_jsonl(out);
  EXPECT_EQ(out.str(),
            "{\"at_ns\":42,\"actor\":\"coordinator\",\"sub\":\"overlay\","
            "\"kind\":\"instant\",\"name\":\"flood\",\"args\":{\"ttl\":6}}\n");
}

// --- histogram ---------------------------------------------------------------

TEST(Histogram, BucketsInclusiveUpperWithOverflow) {
  Histogram h({1.0, 3.0, 8.0});
  h.observe(1.0);   // inclusive: lands in le=1
  h.observe(2.0);   // le=3
  h.observe(100.0); // overflow
  EXPECT_EQ(h.counts(), (std::vector<uint64_t>{1, 1, 0, 1}));
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.sum(), 103.0);
}

TEST(Histogram, BoundsMustStrictlyIncrease) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({3.0, 1.0}), std::invalid_argument);
  // Empty bounds are legal: a pure event counter with one overflow bucket.
  EXPECT_EQ(Histogram({}).counts().size(), 1u);
}

// --- phase profiler ----------------------------------------------------------

TEST(PhaseProfiler, ReportMath) {
  PhaseProfiler profiler;
  // 4 threads, 10 ms advance wall, 28 ms total busy -> 12 ms parked.
  profiler.record_advance(4, /*busy_ms_sum=*/28.0, /*wall_ms=*/10.0);
  profiler.record_coordinator(5.0);
  const auto report = profiler.report();
  EXPECT_EQ(report.rounds, 1u);
  EXPECT_EQ(report.threads, 4u);
  EXPECT_DOUBLE_EQ(report.shard_work_ms, 28.0);
  EXPECT_DOUBLE_EQ(report.barrier_wait_ms, 12.0);
  EXPECT_DOUBLE_EQ(report.coordinator_ms, 5.0);
  // (12 + 3*5) / (4 * (10 + 5)) = 27/60
  EXPECT_DOUBLE_EQ(report.barrier_wait_share, 27.0 / 60.0);
}

TEST(PhaseProfiler, ReachabilityIsASplitOfTheCoordinator) {
  PhaseProfiler with;
  PhaseProfiler without;
  for (PhaseProfiler* p : {&with, &without}) {
    p->record_advance(4, /*busy_ms_sum=*/28.0, /*wall_ms=*/10.0);
    p->record_coordinator(5.0);
    p->record_advance(4, /*busy_ms_sum=*/30.0, /*wall_ms=*/9.0);
    p->record_coordinator(6.0);
  }
  with.record_reachability(1.5);
  with.record_reachability(2.25);
  const auto report = with.report();
  EXPECT_DOUBLE_EQ(report.reachability_ms, 3.75);
  EXPECT_DOUBLE_EQ(without.report().reachability_ms, 0.0);
  // Already inside coordinator_ms: the share's total is unchanged.
  EXPECT_DOUBLE_EQ(report.coordinator_ms, 11.0);
  EXPECT_DOUBLE_EQ(report.barrier_wait_share,
                   without.report().barrier_wait_share);
}

TEST(PhaseProfiler, BarrierWaitClampsAtZero) {
  // Timer jitter can make busy_sum exceed threads*wall; the wait must
  // clamp to zero rather than go negative.
  PhaseProfiler profiler;
  profiler.record_advance(2, /*busy_ms_sum=*/21.0, /*wall_ms=*/10.0);
  const auto report = profiler.report();
  EXPECT_DOUBLE_EQ(report.barrier_wait_ms, 0.0);
  EXPECT_GE(report.barrier_wait_share, 0.0);
}

TEST(PhaseProfiler, EmptyReportIsAllZero) {
  const auto report = PhaseProfiler().report();
  EXPECT_EQ(report.rounds, 0u);
  EXPECT_DOUBLE_EQ(report.barrier_wait_share, 0.0);
}

}  // namespace
}  // namespace erasmus::obs
