// Critical-path analyzer: backward walk over synthetic span/edge DAGs with
// known answers.
#include "obs/critical_path.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "obs/causal.h"
#include "obs/trace.h"
#include "sim/engine.h"

namespace e10::obs {
namespace {

using namespace e10::units;
using sim::EdgeKind;

Time category_ns(const CriticalPathReport& report, PathCategory category) {
  return report.category_ns[static_cast<std::size_t>(category)];
}

TEST(CriticalPath, EmptyRunIsEmptyReport) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  CausalRecorder recorder(engine);
  const CriticalPathReport report = analyze_critical_path(tracer, recorder);
  EXPECT_EQ(report.total_ns, 0);
  EXPECT_EQ(report.hops, 0);
  EXPECT_FALSE(report.truncated);
}

TEST(CriticalPath, MessageEdgeCrossesToTheSender) {
  // Sender: shuffle span [0, 2ms], emits a message at 2ms with 0.5ms of
  // NIC queueing. Receiver: compute [0, 1ms] off the path, then an
  // exchange span [1ms, 5ms] whose blocking recv was released at 3ms.
  // Path: recv lane (3, 5] = shuffle, edge (2, 3] = 0.5 nic + 0.5 shuffle,
  // sender lane (0, 2] = shuffle. Nothing idle, nothing unattributed.
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  CausalRecorder recorder(engine);

  sim::CausalToken token = 0;
  engine.spawn("sender", [&] {
    Span span(&tracer, tracer.rank_track(0), "shuffle_all2all");
    engine.delay(milliseconds(2));
    token = recorder.emit(EdgeKind::message, engine.current(), engine.now(),
                          microseconds(500));
  });
  engine.spawn("receiver", [&] {
    {
      Span span(&tracer, tracer.rank_track(1), "compute");
      engine.delay(milliseconds(1));
    }
    Span span(&tracer, tracer.rank_track(1), "exchange");
    engine.delay(milliseconds(2));  // released at t=3ms
    recorder.ack(token, engine.current(), engine.now());
    engine.delay(milliseconds(2));  // post-recv unpack until t=5ms
  });
  engine.run();

  const CriticalPathReport report = analyze_critical_path(tracer, recorder);
  EXPECT_EQ(report.total_ns, milliseconds(5));
  EXPECT_EQ(report.hops, 1);
  EXPECT_EQ(category_ns(report, PathCategory::shuffle),
            milliseconds(2) + microseconds(500) + milliseconds(2));
  EXPECT_EQ(category_ns(report, PathCategory::nic_contention),
            microseconds(500));
  // The receiver's compute span is NOT on the path (the walk jumped to the
  // sender before it).
  EXPECT_EQ(category_ns(report, PathCategory::compute), 0);
  EXPECT_DOUBLE_EQ(report.attributed_fraction, 1.0);
  EXPECT_EQ(report.bottleneck, PathCategory::shuffle);
  EXPECT_FALSE(report.truncated);
  EXPECT_FALSE(report.segments.empty());
}

TEST(CriticalPath, BridgeAttributesTheAsyncServiceInterval) {
  // One process: write_round span [0, 5ms]; an async write issued at 1ms
  // completed at 4ms and its join stalled. The service interval [1, 4]
  // lands in `write`; the walk resumes before the issue.
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  CausalRecorder recorder(engine);

  engine.spawn("aggregator", [&] {
    Span span(&tracer, tracer.rank_track(0), "write_round");
    engine.delay(milliseconds(4));
    recorder.bridge(EdgeKind::write_join, engine.current(), milliseconds(1),
                    engine.now());
    engine.delay(milliseconds(1));
  });
  engine.run();

  const CriticalPathReport report = analyze_critical_path(tracer, recorder);
  EXPECT_EQ(report.total_ns, milliseconds(5));
  EXPECT_EQ(report.hops, 1);
  // [1, 4] service -> write; [4, 5] + [0, 1] on the lane -> coordination
  // (write_round).
  EXPECT_EQ(category_ns(report, PathCategory::write), milliseconds(3));
  EXPECT_EQ(category_ns(report, PathCategory::coordination), milliseconds(2));
  EXPECT_DOUBLE_EQ(report.attributed_fraction, 1.0);
  EXPECT_EQ(report.bottleneck, PathCategory::write);
}

TEST(CriticalPath, LockWaitOverlayRelabelsWriteTime) {
  // A write span [0, 4ms] whose first 3ms were spent waiting for a stripe
  // lock: the overlay carves the wait out of `write` into `lock_wait`.
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  CausalRecorder recorder(engine);

  engine.spawn("writer", [&] {
    Span span(&tracer, tracer.rank_track(0), "write_contig");
    recorder.interval(EdgeKind::lock_wait, engine.current(), engine.now(),
                      engine.now() + milliseconds(3));
    engine.delay(milliseconds(4));
  });
  engine.run();

  const CriticalPathReport report = analyze_critical_path(tracer, recorder);
  EXPECT_EQ(report.total_ns, milliseconds(4));
  EXPECT_EQ(category_ns(report, PathCategory::lock_wait), milliseconds(3));
  EXPECT_EQ(category_ns(report, PathCategory::write), milliseconds(1));
  EXPECT_EQ(report.bottleneck, PathCategory::lock_wait);
}

TEST(CriticalPath, GapsOnTheLaneAreIdle) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  CausalRecorder recorder(engine);

  engine.spawn("p", [&] {
    {
      Span span(&tracer, tracer.rank_track(0), "write_contig");
      engine.delay(milliseconds(1));
    }
    engine.delay(milliseconds(2));  // no span: idle
    Span span(&tracer, tracer.rank_track(0), "write_contig");
    engine.delay(milliseconds(1));
  });
  engine.run();

  const CriticalPathReport report = analyze_critical_path(tracer, recorder);
  EXPECT_EQ(report.total_ns, milliseconds(4));
  EXPECT_EQ(category_ns(report, PathCategory::write), milliseconds(2));
  EXPECT_EQ(category_ns(report, PathCategory::idle), milliseconds(2));
  // Idle is named, so it still counts as attributed.
  EXPECT_DOUBLE_EQ(report.attributed_fraction, 1.0);
}

TEST(CriticalPath, InnermostSpanWinsOnNesting) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  CausalRecorder recorder(engine);

  engine.spawn("p", [&] {
    Span outer(&tracer, tracer.rank_track(0), "write_round");
    engine.delay(milliseconds(1));
    {
      Span inner(&tracer, tracer.rank_track(0), "write_contig");
      engine.delay(milliseconds(2));
    }
    engine.delay(milliseconds(1));
  });
  engine.run();

  const CriticalPathReport report = analyze_critical_path(tracer, recorder);
  EXPECT_EQ(category_ns(report, PathCategory::write), milliseconds(2));
  EXPECT_EQ(category_ns(report, PathCategory::coordination), milliseconds(2));
}

TEST(CriticalPath, RankSkewFromTrackCompletionTimes) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  CausalRecorder recorder(engine);

  engine.spawn("r0", [&] {
    Span span(&tracer, tracer.rank_track(0), "write_contig");
    engine.delay(milliseconds(2));
  });
  engine.spawn("r1", [&] {
    Span span(&tracer, tracer.rank_track(1), "write_contig");
    engine.delay(milliseconds(4));
  });
  engine.run();

  const CriticalPathReport report = analyze_critical_path(tracer, recorder);
  EXPECT_EQ(report.rank_end_min_ns, milliseconds(2));
  EXPECT_EQ(report.rank_end_max_ns, milliseconds(4));
  EXPECT_DOUBLE_EQ(report.rank_skew, 0.5);
}

TEST(CriticalPath, JsonAndTableCarryTheReport) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  CausalRecorder recorder(engine);
  engine.spawn("p", [&] {
    Span span(&tracer, tracer.rank_track(0), "exchange");
    engine.delay(milliseconds(1));
  });
  engine.run();

  const CriticalPathReport report = analyze_critical_path(tracer, recorder);
  const Json json = critical_path_json(report);
  EXPECT_EQ(json.at("bottleneck").as_string(), "shuffle");
  EXPECT_DOUBLE_EQ(json.at("total_s").as_number(), 0.001);
  EXPECT_GT(json.at("categories").at("shuffle").at("fraction").as_number(),
            0.99);
  const std::string table = critical_path_table(report);
  EXPECT_NE(table.find("bottleneck=shuffle"), std::string::npos);
  EXPECT_NE(table.find("100.0% attributed"), std::string::npos);
}

}  // namespace
}  // namespace e10::obs
