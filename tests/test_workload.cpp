#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <unordered_map>

#include "table_test_util.h"
#include "tables/chaining_table.h"
#include "tables/factory.h"
#include "workload/keygen.h"
#include "workload/runner.h"
#include "workload/trace.h"

namespace exthash::workload {
namespace {

using exthash::testing::TestRig;
using tables::BucketIndexer;
using tables::ChainingHashTable;

TEST(KeyGen, DistinctStreamNeverRepeats) {
  DistinctKeyStream stream(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 50000; ++i) {
    ASSERT_TRUE(seen.insert(stream.next()).second);
  }
}

TEST(KeyGen, DistinctStreamIsSeedDeterministic) {
  DistinctKeyStream a(5), b(5), c(6);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
  }
  EXPECT_NE(a.next(), c.next());
}

TEST(KeyGen, FactoryParsesSpecs) {
  EXPECT_EQ(makeKeyStream("distinct", 1, 100)->name(), "distinct-random");
  EXPECT_EQ(makeKeyStream("uniform", 1, 100)->name(), "uniform");
  EXPECT_EQ(makeKeyStream("sequential", 1, 100)->name(), "sequential");
  EXPECT_EQ(makeKeyStream("zipf:0.9", 1, 100)->name(), "zipf");
  EXPECT_THROW(makeKeyStream("nope", 1, 100), CheckFailure);
}

TEST(KeyGen, ZipfStreamRepeatsHotKeys) {
  auto stream = makeKeyStream("zipf:1.2", 3, 1000);
  std::unordered_map<std::uint64_t, int> counts;
  for (int i = 0; i < 5000; ++i) ++counts[stream->next()];
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 100);  // a hot key dominates
}

TEST(Trace, RoundTripsThroughDisk) {
  std::vector<Operation> ops = {
      {OpType::kInsert, 1, 10},
      {OpType::kLookup, 1, 0},
      {OpType::kErase, 1, 0},
      {OpType::kInsert, ~std::uint64_t{0}, 99},
  };
  const std::string path = ::testing::TempDir() + "/exthash_trace_test.bin";
  writeTrace(path, ops);
  const auto back = readTrace(path);
  EXPECT_EQ(back, ops);
  std::remove(path.c_str());
}

TEST(Trace, RejectsGarbageFiles) {
  const std::string path = ::testing::TempDir() + "/exthash_garbage.bin";
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("definitely not a trace", f);
  std::fclose(f);
  EXPECT_THROW(readTrace(path), CheckFailure);
  std::remove(path.c_str());
  EXPECT_THROW(readTrace("/nonexistent/dir/trace.bin"), CheckFailure);
}

TEST(Trace, ReplayAppliesOperations) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {8, BucketIndexer{}});
  std::vector<Operation> ops = {
      {OpType::kInsert, 10, 1}, {OpType::kInsert, 20, 2},
      {OpType::kLookup, 10, 0}, {OpType::kLookup, 999, 0},
      {OpType::kErase, 10, 0},  {OpType::kErase, 10, 0},
  };
  const auto result = replayTrace(table, ops);
  EXPECT_EQ(result.inserts, 2u);
  EXPECT_EQ(result.lookups, 2u);
  EXPECT_EQ(result.lookup_hits, 1u);
  EXPECT_EQ(result.erases, 2u);
  EXPECT_EQ(result.erase_hits, 1u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(20).value(), 2u);
}

TEST(Runner, MeasuresChainingAtTextbookCosts) {
  TestRig rig(32);
  ChainingHashTable table(rig.context(), {64, BucketIndexer{}});
  DistinctKeyStream keys(17);
  MeasurementConfig cfg;
  cfg.n = 1024;  // load 1/2
  cfg.queries_per_checkpoint = 128;
  cfg.checkpoints = 4;
  cfg.seed = 99;
  const auto m = runMeasurement(table, keys, cfg);
  EXPECT_EQ(m.n, 1024u);
  // Standard hash table: both costs hug 1.
  EXPECT_GE(m.tu, 1.0);
  EXPECT_LT(m.tu, 1.1);
  EXPECT_GE(m.tq_mean, 1.0);
  EXPECT_LT(m.tq_mean, 1.1);
  EXPECT_GE(m.tq_worst, m.tq_mean);
  EXPECT_GT(m.checkpoint_costs.count(), 2u);
  EXPECT_GT(m.insert_io.rmws, 0u);
}

TEST(Runner, UnsuccessfulSamplingWorks) {
  TestRig rig(16);
  ChainingHashTable table(rig.context(), {32, BucketIndexer{}});
  DistinctKeyStream keys(21);
  MeasurementConfig cfg;
  cfg.n = 256;
  cfg.queries_per_checkpoint = 64;
  cfg.checkpoints = 2;
  cfg.measure_unsuccessful = true;
  const auto m = runMeasurement(table, keys, cfg);
  EXPECT_GE(m.tq_unsuccessful, 1.0);
}

// The paper's protocol pinned to exact integers, so a refactor of the
// runner (or of anything under it) that moves a single counted I/O or a
// single sampled lookup fails here. The query budget is a power of two,
// so each checkpoint average is exact in binary and sum × budget is an
// exact sample total; the means (also divided by the checkpoint count)
// are compared to within a few ulps.
struct ProtocolPin {
  const char* name;
  tables::TableKind kind;
  std::uint64_t reads, writes, rmws;
  std::size_t checkpoints;
  double tq_sum_total;    // sum over checkpoints of sampled lookup I/O
  double tq_final_total;  // sampled lookup I/O at the final snapshot
  double miss_sum_total;  // sum over checkpoints of absent-key lookup I/O
};

TEST(Runner, PaperProtocolIsBitStable) {
  constexpr std::size_t kQueries = 64;
  const ProtocolPin pins[] = {
      {"chaining", tables::TableKind::kChaining, 0, 1, 4096, 6, 385, 64, 385},
      {"buffered", tables::TableKind::kBuffered, 3826, 4335, 0, 6, 399, 69,
       576},
      {"log-method", tables::TableKind::kLogMethod, 1371, 1877, 0, 6, 621, 175,
       769},
      {"sharded-chaining", tables::TableKind::kSharded, 0, 3, 4096, 6, 384, 64,
       384},
  };
  for (const ProtocolPin& pin : pins) {
    SCOPED_TRACE(pin.name);
    TestRig rig(16);
    tables::GeneralConfig gc;
    gc.expected_n = 4096;
    gc.target_load = 0.5;
    gc.buffer_items = 64;
    gc.beta = 8;
    gc.gamma = 2;
    gc.shards = 4;
    gc.sharded_inner = tables::TableKind::kChaining;
    gc.shard_threads = 2;
    auto table = tables::makeTable(pin.kind, rig.context(), gc);
    DistinctKeyStream keys(31);
    MeasurementConfig cfg;
    cfg.n = 4096;
    cfg.queries_per_checkpoint = kQueries;
    cfg.checkpoints = 6;
    cfg.seed = 5;
    cfg.measure_unsuccessful = true;
    const auto m = runMeasurement(*table, keys, cfg);
    const std::size_t cps = m.checkpoint_costs.count();
    EXPECT_EQ(m.insert_io.reads, pin.reads);
    EXPECT_EQ(m.insert_io.writes, pin.writes);
    EXPECT_EQ(m.insert_io.rmws, pin.rmws);
    EXPECT_EQ(cps, pin.checkpoints);
    EXPECT_EQ(m.checkpoint_costs.sum() * kQueries, pin.tq_sum_total);
    EXPECT_DOUBLE_EQ(m.tq_mean * kQueries * static_cast<double>(cps),
                     pin.tq_sum_total);
    EXPECT_EQ(m.tq_final * kQueries, pin.tq_final_total);
    EXPECT_DOUBLE_EQ(m.tq_unsuccessful * kQueries * static_cast<double>(cps),
                     pin.miss_sum_total);
    EXPECT_EQ(m.tu, static_cast<double>(m.insert_io.cost()) / 4096.0);
  }
}

}  // namespace
}  // namespace exthash::workload
