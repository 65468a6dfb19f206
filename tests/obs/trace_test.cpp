#include "obs/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/units.h"
#include "obs/json.h"

namespace e10::obs {
namespace {

using namespace e10::units;

TEST(Trace, DisabledTracerRecordsNothing) {
  sim::Engine engine;
  Tracer tracer(engine);
  ASSERT_FALSE(tracer.enabled());
  {
    Span span(&tracer, tracer.rank_track(0), "write");
    span.arg("bytes", 42);
    EXPECT_FALSE(span.active());
  }
  tracer.counter("depth", 3);
  tracer.instant(0, "marker");
  EXPECT_EQ(tracer.events(), 0u);
}

TEST(Trace, NestedSpansOnDistinctTracks) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  engine.spawn("rank0", [&] {
    Span outer(&tracer, tracer.rank_track(0), "exchange");
    engine.delay(milliseconds(2));
    {
      Span inner(&tracer, tracer.rank_track(0), "write_contig");
      inner.arg("bytes", 4096);
      engine.delay(milliseconds(1));
    }
    engine.delay(milliseconds(2));
  });
  engine.spawn("rank1", [&] {
    Span span(&tracer, tracer.rank_track(1), "exchange");
    engine.delay(milliseconds(3));
  });
  engine.run();
  EXPECT_EQ(tracer.events(), 3u);
  EXPECT_EQ(tracer.tracks(), 2u);

  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const Json& events = parsed.value().at("traceEvents");
  ASSERT_TRUE(events.is_array());

  // Metadata names both rank tracks; inner span nests inside outer on the
  // same track; rank1 is on a different track.
  int thread_names = 0;
  const Json* outer = nullptr;
  const Json* inner = nullptr;
  const Json* other = nullptr;
  for (const Json& e : events.elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M" && e.at("name").as_string() == "thread_name") {
      ++thread_names;
    } else if (ph == "X") {
      const std::string& name = e.at("name").as_string();
      if (name == "exchange" && e.at("tid").as_int() == 0) outer = &e;
      if (name == "write_contig") inner = &e;
      if (name == "exchange" && e.at("tid").as_int() != 0) other = &e;
    }
  }
  EXPECT_GE(thread_names, 2);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(inner->at("tid").as_int(), outer->at("tid").as_int());
  EXPECT_NE(other->at("tid").as_int(), outer->at("tid").as_int());
  // Nesting in time: outer spans [0, 5ms], inner [2ms, 3ms] (microseconds
  // in the JSON).
  EXPECT_GE(inner->at("ts").as_number(), outer->at("ts").as_number());
  EXPECT_LE(inner->at("ts").as_number() + inner->at("dur").as_number(),
            outer->at("ts").as_number() + outer->at("dur").as_number());
  EXPECT_DOUBLE_EQ(outer->at("dur").as_number(), 5000.0);
  EXPECT_EQ(inner->at("args").at("bytes").as_int(), 4096);
}

TEST(Trace, CounterAndInstantEvents) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  const int track = tracer.track("sync", 1000);
  engine.spawn("p", [&] {
    tracer.counter("queue depth", 2);
    engine.delay(milliseconds(1));
    tracer.counter("queue depth", 0);
    tracer.instant(track, "drained");
  });
  engine.run();

  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  int counters = 0;
  int instants = 0;
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "C" && e.at("name").as_string() == "queue depth") {
      ++counters;
      EXPECT_TRUE(e.at("args").find("value") != nullptr);
    }
    if (ph == "i" && e.at("name").as_string() == "drained") ++instants;
  }
  EXPECT_EQ(counters, 2);
  EXPECT_EQ(instants, 1);
}

TEST(Trace, SpanEndStopsTheClock) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  engine.spawn("p", [&] {
    Span span(&tracer, tracer.rank_track(0), "early");
    engine.delay(milliseconds(1));
    span.end();
    EXPECT_FALSE(span.active());
    engine.delay(milliseconds(9));  // not part of the span
  });
  engine.run();
  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok());
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    if (e.at("ph").as_string() == "X") {
      EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 1000.0);
    }
  }
}

TEST(Trace, OpenSpanCounterTracksLifecycle) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  EXPECT_EQ(tracer.open_spans(), 0u);
  engine.spawn("p", [&] {
    Span outer(&tracer, tracer.rank_track(0), "a");
    EXPECT_EQ(tracer.open_spans(), 1u);
    {
      Span inner(&tracer, tracer.rank_track(0), "b");
      EXPECT_EQ(tracer.open_spans(), 2u);
    }
    EXPECT_EQ(tracer.open_spans(), 1u);
    // Moving a span transfers ownership without double-counting.
    Span moved = std::move(outer);
    EXPECT_EQ(tracer.open_spans(), 1u);
    moved.end();
    EXPECT_EQ(tracer.open_spans(), 0u);
  });
  engine.run();
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(Trace, OpenSpanCounterSeesLeaks) {
  // A span destroyed without end() through an error path still closes (the
  // destructor ends it); only a heap-leaked span stays open.
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  auto* leaked = new Span();
  engine.spawn("p", [&] {
    *leaked = Span(&tracer, tracer.rank_track(0), "leaked");
    try {
      Span span(&tracer, tracer.rank_track(0), "unwound");
      throw std::runtime_error("fault");
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(tracer.open_spans(), 1u);  // only the leaked one
  });
  engine.run();
  EXPECT_EQ(tracer.open_spans(), 1u);
  delete leaked;  // Span dtor ends it
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(Trace, FlowEventsArePairedAndOrdered) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  const int src = tracer.rank_track(0);
  const int dst = tracer.rank_track(1);
  tracer.flow(src, units::milliseconds(1), dst, units::milliseconds(2), 7,
              "message");
  // Destination timestamps are clamped to the source: Chrome refuses to
  // render arrows that point backwards in time.
  tracer.flow(src, units::milliseconds(5), dst, units::milliseconds(3), 8,
              "stale");

  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  std::map<std::int64_t, std::pair<const Json*, const Json*>> pairs;
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "s") pairs[e.at("id").as_int()].first = &e;
    if (ph == "f") pairs[e.at("id").as_int()].second = &e;
  }
  ASSERT_EQ(pairs.size(), 2u);
  for (const auto& [id, pair] : pairs) {
    ASSERT_NE(pair.first, nullptr) << "flow " << id << " missing start";
    ASSERT_NE(pair.second, nullptr) << "flow " << id << " missing finish";
    EXPECT_EQ(pair.first->at("cat").as_string(), "causal");
    EXPECT_EQ(pair.second->at("cat").as_string(), "causal");
    EXPECT_EQ(pair.second->at("bp").as_string(), "e");
    EXPECT_TRUE(pair.first->find("bp") == nullptr);
    EXPECT_LE(pair.first->at("ts").as_number(),
              pair.second->at("ts").as_number());
  }
}

TEST(Trace, ChromeSchemaIsSane) {
  // Every event type the tracer emits satisfies the Trace Event Format:
  // X spans carry non-negative ts/dur, every event names a known pid/tid
  // pair, and flow starts/finishes come in id-matched pairs.
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  engine.spawn("r0", [&] {
    Span span(&tracer, tracer.rank_track(0), "exchange");
    engine.delay(units::milliseconds(1));
    tracer.counter("depth", 1);
    tracer.instant(tracer.rank_track(0), "mark");
  });
  engine.spawn("r1", [&] {
    Span span(&tracer, tracer.rank_track(1), "write_contig");
    engine.delay(units::milliseconds(2));
  });
  engine.run();
  tracer.flow(tracer.rank_track(0), units::milliseconds(1),
              tracer.rank_track(1), units::milliseconds(2), 1, "message");

  const auto parsed = Json::parse(tracer.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  std::set<std::int64_t> named_tids;
  std::map<std::int64_t, int> flow_balance;
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M" && e.at("name").as_string() == "thread_name") {
      named_tids.insert(e.at("tid").as_int());
    }
  }
  for (const Json& e : parsed.value().at("traceEvents").elements()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") continue;
    EXPECT_GE(e.at("ts").as_number(), 0.0);
    if (ph == "X") {
      EXPECT_GE(e.at("dur").as_number(), 0.0);
      EXPECT_TRUE(named_tids.count(e.at("tid").as_int()) == 1)
          << "span on unnamed track " << e.at("tid").as_int();
    }
    if (ph == "s") ++flow_balance[e.at("id").as_int()];
    if (ph == "f") --flow_balance[e.at("id").as_int()];
  }
  for (const auto& [id, balance] : flow_balance) {
    EXPECT_EQ(balance, 0) << "unpaired flow id " << id;
  }
}

std::size_t column(prof::Phase phase) {
  return static_cast<std::size_t>(phase);
}

TEST(Trace, PhaseSpansAccumulatePerRank) {
  // Repeated intervals of one (rank, phase) add up; untouched cells and
  // ranks stay zero. Tracing is off: the totals are kept regardless.
  sim::Engine engine;
  Tracer tracer(engine, 4);
  engine.spawn("rank0", [&] {
    const Span span(tracer, 0, prof::Phase::write_contig);
    engine.delay(seconds(2));
  });
  engine.spawn("rank1", [&] {
    for (const Time length : {seconds(5), seconds(1)}) {
      const Span span(tracer, 1, prof::Phase::write_contig);
      engine.delay(length);
    }
  });
  engine.spawn("rank2", [&] {
    const Span span(tracer, 2, prof::Phase::exchange);
    engine.delay(seconds(3));
  });
  engine.run();
  const PhaseTotals& totals = tracer.phase_totals();
  ASSERT_EQ(totals.size(), 4u);
  EXPECT_EQ(totals[0][column(prof::Phase::write_contig)], seconds(2));
  EXPECT_EQ(totals[1][column(prof::Phase::write_contig)], seconds(6));
  EXPECT_EQ(totals[2][column(prof::Phase::exchange)], seconds(3));
  EXPECT_EQ(totals[2][column(prof::Phase::write_contig)], 0);
  EXPECT_EQ(totals[3], PhaseTotals::value_type{});
  EXPECT_EQ(tracer.events(), 0u);
}

TEST(Trace, PhaseSpanMeasuresVirtualTimeTracedOrNot) {
  // The same interval lands in the totals with tracing off and on; traced,
  // it is also one event named after the phase on the rank's track.
  for (const bool traced : {false, true}) {
    sim::Engine engine;
    Tracer tracer(engine, 1);
    tracer.set_enabled(traced);
    Time length = 0;
    engine.spawn("p", [&] {
      Span span(tracer, 0, prof::Phase::shuffle_all2all);
      EXPECT_TRUE(span.active());
      engine.delay(milliseconds(250));
      length = span.end();
      EXPECT_FALSE(span.active());
      engine.delay(milliseconds(10));  // not part of the span
    });
    engine.run();
    EXPECT_EQ(length, milliseconds(250));
    EXPECT_EQ(tracer.phase_totals()[0][column(prof::Phase::shuffle_all2all)],
              milliseconds(250));
    EXPECT_EQ(tracer.open_spans(), 0u);
    if (!traced) {
      EXPECT_EQ(tracer.events(), 0u);
      continue;
    }
    ASSERT_EQ(tracer.events(), 1u);
    const Tracer::Event& event = tracer.event_list().front();
    EXPECT_EQ(event.name, "shuffle_all2all");
    EXPECT_EQ(event.dur, milliseconds(250));
    EXPECT_EQ(event.track, tracer.rank_track(0));
  }
}

TEST(Trace, NestedPhaseSpansBothRecord) {
  sim::Engine engine;
  Tracer tracer(engine, 1);
  engine.spawn("p", [&] {
    const Span outer(tracer, 0, prof::Phase::exchange);
    engine.delay(milliseconds(10));
    {
      const Span inner(tracer, 0, prof::Phase::write_contig);
      engine.delay(milliseconds(5));
    }
    engine.delay(milliseconds(10));
  });
  engine.run();
  const PhaseTotals& totals = tracer.phase_totals();
  EXPECT_EQ(totals[0][column(prof::Phase::write_contig)], milliseconds(5));
  EXPECT_EQ(totals[0][column(prof::Phase::exchange)], milliseconds(25));
}

TEST(Trace, PhaseSpanRankOutsideTheTotalsThrows) {
  sim::Engine engine;
  EXPECT_THROW(Tracer(engine, -1), std::logic_error);
  Tracer tracer(engine, 2);
  EXPECT_THROW(Span(tracer, 2, prof::Phase::close), std::logic_error);
  EXPECT_THROW(Span(tracer, -1, prof::Phase::close), std::logic_error);
  // A tracer built without ranks takes named spans only.
  Tracer named_only(engine);
  EXPECT_THROW(Span(named_only, 0, prof::Phase::close), std::logic_error);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(Trace, ClearResetsEvents) {
  sim::Engine engine;
  Tracer tracer(engine);
  tracer.set_enabled(true);
  tracer.counter("x", 1);
  EXPECT_EQ(tracer.events(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.events(), 0u);
}

}  // namespace
}  // namespace e10::obs
