// obs/ telemetry layer: histogram percentile math against a known
// distribution, bucket-geometry invariants, registry find-or-create and
// the Prometheus / CSV sinks, Chrome-trace JSON round-trips through the
// repo's own validator, concurrent recording (the TSAN-exercised case),
// runtime-latch gating of the instrumentation macros, the cache-bypass
// attribution counter, and the pipeline + cache + arbiter stack's metric
// families and apply-latency tail end-to-end.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "extmem/block_cache.h"
#include "extmem/memory_arbiter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "pipeline/ingest_pipeline.h"
#include "table_test_util.h"
#include "tables/factory.h"
#include "workload/keygen.h"

namespace exthash::obs {
namespace {

using exthash::testing::TestRig;

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, QuantilesAgainstKnownUniformDistribution) {
  LatencyHistogram h;
  constexpr std::uint64_t kN = 1024;
  for (std::uint64_t v = 1; v <= kN; ++v) h.record(v);

  EXPECT_EQ(h.count(), kN);
  EXPECT_EQ(h.sum(), kN * (kN + 1) / 2);
  EXPECT_EQ(h.max(), kN);

  // Quantiles return the holding bucket's upper edge: never below the
  // exact value, at most 25% above it (the documented bucket width).
  const struct {
    double q;
    std::uint64_t exact;
  } cases[] = {{0.5, 512}, {0.9, 922}, {0.99, 1014}, {0.999, 1023}};
  for (const auto& c : cases) {
    const std::uint64_t got = h.valueAtQuantile(c.q);
    EXPECT_GE(got, c.exact) << "q=" << c.q;
    EXPECT_LE(got, c.exact + c.exact / 4 + 1) << "q=" << c.q;
  }
  EXPECT_EQ(h.valueAtQuantile(1.0), h.valueAtQuantile(0.9999));

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.valueAtQuantile(0.5), 0u);
}

TEST(LatencyHistogram, BucketGeometryIsMonotoneAndContinuous) {
  // Index is monotone in the value, the upper bound brackets its bucket,
  // and consecutive buckets tile the range with no gaps.
  std::size_t prev_idx = 0;
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{3}, std::uint64_t{4},
                          std::uint64_t{5}, std::uint64_t{63},
                          std::uint64_t{64}, std::uint64_t{1000},
                          std::uint64_t{1} << 32,
                          (std::uint64_t{1} << 63) + 12345}) {
    const std::size_t idx = LatencyHistogram::bucketIndex(v);
    EXPECT_GE(idx, prev_idx);
    EXPECT_LT(idx, LatencyHistogram::kBuckets);
    EXPECT_LE(v, LatencyHistogram::bucketUpperBound(idx));
    prev_idx = idx;
  }
  for (std::size_t i = 0; i + 1 < 200; ++i) {
    const std::uint64_t upper = LatencyHistogram::bucketUpperBound(i);
    EXPECT_EQ(LatencyHistogram::bucketIndex(upper), i);
    EXPECT_EQ(LatencyHistogram::bucketIndex(upper + 1), i + 1);
    // Relative width stays within the advertised 25%.
    const std::uint64_t next = LatencyHistogram::bucketUpperBound(i + 1);
    EXPECT_GT(next, upper);
    if (upper >= LatencyHistogram::kSubBuckets) {
      EXPECT_LE(next - upper, upper / 4 + 1);
    }
  }
}

// The TSAN-exercised case (matches the CI sanitizer filter): concurrent
// recorders against one histogram and one counter must be race-free and
// lose no samples.
TEST(LatencyHistogram, ConcurrentRecordersLoseNothing) {
  LatencyHistogram h;
  Counter c;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, &c, t] {
      for (std::uint64_t i = 1; i <= kPerThread; ++i) {
        h.record(i + t);
        c.inc();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.max(), kPerThread + kThreads - 1);
  // Quantile readout is coherent once quiescent.
  EXPECT_GT(h.valueAtQuantile(0.5), 0u);
}

// ---------------------------------------------------------------------------
// MetricsRegistry + sinks
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("exthash_test_total");
  a.inc(3);
  Counter& b = reg.counter("exthash_test_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_TRUE(reg.has("exthash_test_total"));
  EXPECT_FALSE(reg.has("exthash_other"));
}

TEST(MetricsRegistry, PrometheusDumpGroupsFamiliesAndQuantiles) {
  MetricsRegistry reg;
  reg.counter("exthash_unit_ops_total{shard=\"0\"}").inc(5);
  reg.counter("exthash_unit_ops_total{shard=\"1\"}").inc(7);
  reg.gauge("exthash_unit_depth").set(2.5);
  LatencyHistogram& h = reg.histogram("exthash_unit_ns");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);

  std::ostringstream os;
  reg.dump(os);
  const std::string text = os.str();

  // One TYPE line per family (labels split series, not families).
  EXPECT_EQ(text.find("# TYPE exthash_unit_ops_total counter"),
            text.rfind("# TYPE exthash_unit_ops_total counter"));
  EXPECT_NE(text.find("exthash_unit_ops_total{shard=\"0\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("exthash_unit_ops_total{shard=\"1\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE exthash_unit_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE exthash_unit_ns summary"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("exthash_unit_ns_count 100"), std::string::npos);
  EXPECT_NE(text.find("exthash_unit_ns_max 100"), std::string::npos);
}

TEST(MetricsRegistry, CsvHeaderAndRowHaveMatchingShape) {
  MetricsRegistry reg;
  reg.counter("exthash_unit_a_total").inc(2);
  reg.gauge("exthash_unit_b").set(4.0);
  reg.histogram("exthash_unit_c_ns").record(9);

  std::ostringstream header, row;
  reg.writeCsvHeader(header);
  reg.writeCsvRow(row, "phase1");
  const auto columns = [](const std::string& line) {
    return static_cast<std::size_t>(
        std::count(line.begin(), line.end(), ','));
  };
  EXPECT_EQ(columns(header.str()), columns(row.str()));
  EXPECT_EQ(row.str().rfind("phase1,", 0), 0u);
}

// ---------------------------------------------------------------------------
// Trace sessions
// ---------------------------------------------------------------------------

TEST(TraceSession, JsonRoundTripsThroughTheValidator) {
  TraceSession session;
  session.start();
  {
    TraceSpan outer("outer", "test");
    outer.arg("n", 42.0);
    { TraceSpan inner("inner", "test"); }
    traceCounter("depth", 3.0, "test");
    traceInstant("marker", "test");
  }
  session.stop();

  std::ostringstream os;
  session.writeJson(os);
  const TraceCheckResult result = checkTraceJson(os.str());
  ASSERT_TRUE(result) << result.error;
  EXPECT_EQ(result.events, 4u);
  EXPECT_EQ(session.eventCount(), 4u);
  EXPECT_EQ(session.dropped(), 0u);
}

TEST(TraceSession, EmissionIsMutedOutsideStartStop) {
  TraceSession session;
  { TraceSpan before("before", "test"); }
  session.start();
  { TraceSpan during("during", "test"); }
  session.stop();
  { TraceSpan after("after", "test"); }
  EXPECT_EQ(session.eventCount(), 1u);
}

TEST(TraceSession, FullBuffersDropAndCountInsteadOfGrowing) {
  TraceSession::Options opt;
  opt.buffer_events_per_thread = 4;
  TraceSession session(opt);
  session.start();
  for (int i = 0; i < 10; ++i) traceInstant("spam", "test");
  session.stop();
  EXPECT_EQ(session.eventCount(), 4u);
  EXPECT_EQ(session.dropped(), 6u);
  std::ostringstream os;
  session.writeJson(os);
  EXPECT_TRUE(checkTraceJson(os.str()));
}

TEST(TraceSession, BudgetRefusalDegradesToCountedDrops) {
  // A budget too small for even one thread buffer: emission must not
  // allocate past it — events are counted as dropped, the JSON is valid.
  extmem::MemoryBudget budget(8);
  TraceSession::Options opt;
  opt.buffer_events_per_thread = 1024;
  opt.budget = &budget;
  TraceSession session(opt);
  session.start();
  for (int i = 0; i < 5; ++i) traceInstant("over-budget", "test");
  session.stop();
  EXPECT_EQ(session.eventCount(), 0u);
  EXPECT_EQ(session.dropped(), 5u);
  std::ostringstream os;
  session.writeJson(os);
  EXPECT_TRUE(checkTraceJson(os.str()));
}

TEST(TraceSession, ConcurrentEmittersWriteTheirOwnBuffers) {
  TraceSession session;
  session.start();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpans = 500;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (std::size_t i = 0; i < kSpans; ++i) {
        TraceSpan span("worker-span", "test");
      }
    });
  }
  for (auto& w : workers) w.join();
  session.stop();
  EXPECT_EQ(session.eventCount(), kThreads * kSpans);
  std::ostringstream os;
  session.writeJson(os);
  const TraceCheckResult result = checkTraceJson(os.str());
  ASSERT_TRUE(result) << result.error;
  EXPECT_EQ(result.events, kThreads * kSpans);
}

TEST(TraceCheck, RejectsMalformedDocuments) {
  EXPECT_FALSE(checkTraceJson(""));
  EXPECT_FALSE(checkTraceJson("{}"));
  EXPECT_FALSE(checkTraceJson("{\"traceEvents\": 3}"));
  EXPECT_FALSE(checkTraceJson("{\"traceEvents\": [{\"ph\": \"X\"}]}"));
  EXPECT_FALSE(checkTraceJson(
      "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"ts\": 1}]} x"));
  EXPECT_TRUE(checkTraceJson(
      "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"ts\": 1}]}"));
}

// ---------------------------------------------------------------------------
// Runtime gating
// ---------------------------------------------------------------------------

// One instance of every instrumentation macro, so the same sites run
// first with the latch off and then with it on.
void runEveryObsSite() {
  EXTHASH_OBS_COUNT("exthash_gating_probe_total", 1);
  EXTHASH_OBS_GAUGE("exthash_gating_probe_gauge", 1.0);
  {
    EXTHASH_OBS_TIMED("exthash_gating_probe_ns");
    EXTHASH_OBS_SPAN(span, "gating-probe", "test");
    EXTHASH_OBS_SPAN_ARG(span, "n", 1);
  }
  EXTHASH_OBS_INSTANT("gating-probe-instant", "test");
  EXTHASH_OBS_COUNTER_SAMPLE("gating-probe-counter", 1);
}

TEST(TelemetryGating, RuntimeLatchGatesEverySite) {
  auto& reg = MetricsRegistry::global();
  const bool was_enabled = enabled();
  TraceSession session;
  session.start();

  // Latch off: no registry entry, and nothing reaches the live session.
  setEnabled(false);
  runEveryObsSite();
  EXPECT_FALSE(reg.has("exthash_gating_probe_total"));
  EXPECT_FALSE(reg.has("exthash_gating_probe_gauge"));
  EXPECT_FALSE(reg.has("exthash_gating_probe_ns"));
  EXPECT_EQ(session.eventCount(), 0u);

  // Latch on: the same sites record.
  setEnabled(true);
  runEveryObsSite();
  setEnabled(was_enabled);
  session.stop();
  EXPECT_EQ(reg.counter("exthash_gating_probe_total").value(), 1u);
  EXPECT_EQ(reg.gauge("exthash_gating_probe_gauge").value(), 1.0);
  EXPECT_EQ(reg.histogram("exthash_gating_probe_ns").count(), 1u);
  EXPECT_EQ(session.eventCount(), 3u);  // span, instant, counter sample
}

// ---------------------------------------------------------------------------
// Instrumented components end-to-end
// ---------------------------------------------------------------------------

TEST(TelemetryEndToEnd, MetricFamiliesFromAnInstrumentedRun) {
  const bool was_enabled = enabled();
  setEnabled(true);
  {
    // The full stack: pipeline → table → ARC write-back cache → device,
    // with an arbiter trading cache frames against staging slots. The
    // cache is declared first so the table's teardown can still flush it.
    TestRig rig(16);
    extmem::BlockCache cache(*rig.device, *rig.memory, 16,
                             extmem::BlockCache::WritePolicy::kWriteBack,
                             extmem::ReplacementKind::kArc);
    tables::GeneralConfig cfg;
    cfg.expected_n = 4096;
    cfg.target_load = 0.5;
    auto table =
        makeTable(tables::TableKind::kChaining, rig.context(), cfg);
    table->attachCache(&cache);
    extmem::MemoryArbiter arbiter;
    arbiter.addCache(&cache);
    pipeline::PipelineConfig pc;
    pc.batch_capacity = 256;
    pc.max_pending_batches = 2;
    pc.budget = rig.memory.get();
    pipeline::IngestPipeline pipe(*table, pc);
    arbiter.setStaging(
        [&pipe](std::size_t slots) { pipe.setWindowCapacity(slots); },
        [&pipe] {
          const auto st = pipe.stats();
          return extmem::StagingSignals{st.ops_coalesced, st.submit_waits};
        },
        pc.batch_capacity);
    workload::ZipfKeyStream keys(17, 2048, 0.99);
    std::vector<std::uint64_t> inserted;
    for (std::size_t i = 1; i <= 4096; ++i) {
      inserted.push_back(keys.next());
      pipe.insert(inserted.back(), inserted.back() ^ 0x5bd1e995);
      if (i % 512 == 0) {
        pipe.submitMaintenance([&arbiter] { arbiter.rebalance(); });
      }
    }
    pipe.drain();
    // Skewed reads through the worker: repeated hot keys hit the cache.
    for (std::size_t i = 0; i < 256; ++i) {
      EXPECT_TRUE(pipe.submitLookup(inserted[i]).get().has_value());
    }
  }
  setEnabled(was_enabled);

  std::ostringstream os;
  dumpMetrics(os);
  const std::string text = os.str();
  // One family from each instrumented component: device latencies, cache
  // hit accounting, pipeline progress, arbiter rebalancing.
  EXPECT_NE(text.find("exthash_device_read_ns"), std::string::npos);
  EXPECT_NE(text.find("exthash_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("exthash_pipeline_batches_applied_total"),
            std::string::npos);
  EXPECT_NE(text.find("exthash_arbiter_rebalances_total"),
            std::string::npos);
}

TEST(TelemetryEndToEnd, BufferedMergeReadsAreAttributedAsBypasses) {
  // The buffered table's Ĥ merge is a deliberate uncached stream; its
  // device reads must land in cache_bypass_reads (S2's annotation), in
  // every run whatever the telemetry latch says — the scope is plain
  // code, not macro-gated.
  TestRig rig(8);
  tables::GeneralConfig cfg;
  cfg.expected_n = 2048;
  cfg.buffer_items = 32;
  cfg.beta = 4;
  auto table = makeTable(tables::TableKind::kBuffered, rig.context(), cfg);
  for (std::uint64_t i = 0; i < 2048; ++i) {
    table->insert(i * 2654435761u + 1, i);
  }
  const auto io = table->ioStats();
  EXPECT_GT(io.cache_bypass_reads, 0u);
  EXPECT_LE(io.cache_bypass_reads, io.reads);
}

// The pipeline records the apply tail on the worker thread; the readout
// happens after drain. (Also the TSAN angle for the always-on histogram.)
TEST(TelemetryEndToEnd, PipelinedRunnerRecordsApplyTail) {
  TestRig rig(16);
  tables::GeneralConfig cfg;
  cfg.expected_n = 2048;
  cfg.target_load = 0.5;
  auto table = makeTable(tables::TableKind::kChaining, rig.context(), cfg);
  pipeline::PipelineConfig pc;
  pc.batch_capacity = 128;
  pc.max_pending_batches = 2;
  pc.record_apply_latency = true;
  pipeline::IngestPipeline pipe(*table, pc);
  workload::DistinctKeyStream keys(29);
  for (std::size_t i = 0; i < 2048; ++i) {
    const std::uint64_t key = keys.next();
    pipe.insert(key, key ^ 0x5bd1e995);
  }
  pipe.drain();

  const LatencyHistogram& hist = pipe.applyLatency();
  EXPECT_EQ(hist.count(), 2048u / 128u);  // distinct keys: full windows
  const double p50 = static_cast<double>(hist.valueAtQuantile(0.5));
  const double p99 = static_cast<double>(hist.valueAtQuantile(0.99));
  EXPECT_GT(p99, 0.0);
  EXPECT_GE(p99, p50);
  EXPECT_GE(static_cast<double>(hist.max()), p99 / 1.25 - 1e-9);
}

}  // namespace
}  // namespace exthash::obs
