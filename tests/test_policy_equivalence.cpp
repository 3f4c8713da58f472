// Replacement-policy equivalence: a cache is an optimization, never a
// semantic: every cache-attached kind (and the sharded façade) must
// produce identical table contents under LRU, 2Q, and ARC, write-through
// and write-back, as uncached — while the policies churn through heavy
// eviction traffic. Plus the sharded frame-split regression.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "extmem/block_cache.h"
#include "extmem/replacement_policy.h"
#include "table_test_util.h"
#include "tables/factory.h"
#include "tables/sharded_table.h"

namespace exthash::tables {
namespace {

using exthash::testing::TestRig;
using exthash::testing::distinctKeys;

constexpr std::size_t kB = 8;

/// Mixed insert/update/erase batches over a bounded key universe: repeats
/// are updates, every 7th op erases an earlier key. Grouped application
/// turns each batch into the sorted sweep the policies must survive.
std::vector<Op> buildOps(std::size_t n, std::uint64_t seed) {
  const auto universe = distinctKeys(n / 4, seed);
  Xoshiro256StarStar rng(deriveSeed(seed, 3));
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = universe[rng.below(universe.size())];
    if (i % 7 == 6) {
      ops.push_back(Op::eraseOp(key));
    } else {
      ops.push_back(Op::insertOp(key, i + 1));
    }
  }
  return ops;
}

/// Final contents over `universe` via lookups (order-independent digest).
std::uint64_t digest(ExternalHashTable& table,
                     const std::vector<std::uint64_t>& universe) {
  std::uint64_t sum = 0;
  for (const std::uint64_t key : universe) {
    const auto hit = table.lookup(key);
    if (hit) sum += splitmix64(key ^ *hit * 0x9E3779B97F4A7C15ULL);
  }
  return sum;
}

struct PolicyCase {
  TableKind kind;
};

class PolicyEquivalenceTest : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicyEquivalenceTest, AllPoliciesMatchUncachedContents) {
  const std::size_t n = 2048;
  const auto ops = buildOps(n, 11);
  const auto universe = distinctKeys(n / 4, 11);

  const auto run = [&](bool cached, extmem::BlockCache::WritePolicy wp,
                       extmem::ReplacementKind repl,
                       std::uint64_t* out_size) {
    TestRig rig(kB, /*memory_words=*/0, 42);
    std::unique_ptr<extmem::BlockCache> cache;
    if (cached) {
      // Deliberately tiny: constant eviction pressure on every policy.
      cache = std::make_unique<extmem::BlockCache>(*rig.device, *rig.memory,
                                                   4, wp, repl);
    }
    GeneralConfig cfg;
    cfg.expected_n = universe.size();
    cfg.target_load = 0.5;
    auto table = makeTable(GetParam().kind, rig.context(), cfg);
    if (cache) table->attachCache(cache.get());
    constexpr std::size_t kChunk = 128;
    for (std::size_t i = 0; i < ops.size(); i += kChunk) {
      const std::size_t len = std::min(kChunk, ops.size() - i);
      table->applyBatch(std::span(ops.data() + i, len));
    }
    table->flushCache();
    *out_size = table->size();
    return digest(*table, universe);
  };

  std::uint64_t ref_size = 0;
  const std::uint64_t ref = run(false, {}, {}, &ref_size);
  for (const auto wp : {extmem::BlockCache::WritePolicy::kWriteThrough,
                        extmem::BlockCache::WritePolicy::kWriteBack}) {
    for (const auto repl :
         {extmem::ReplacementKind::kLru, extmem::ReplacementKind::kTwoQ,
          extmem::ReplacementKind::kArc}) {
      std::uint64_t size = 0;
      const std::uint64_t got = run(true, wp, repl, &size);
      EXPECT_EQ(got, ref) << "policy " << extmem::replacementKindName(repl)
                          << (wp == extmem::BlockCache::WritePolicy::kWriteBack
                                  ? " wb"
                                  : " wt");
      EXPECT_EQ(size, ref_size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CachedKinds, PolicyEquivalenceTest,
    ::testing::Values(PolicyCase{TableKind::kChaining},
                      PolicyCase{TableKind::kLinearHashing},
                      PolicyCase{TableKind::kExtendible}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return std::string(tableKindName(info.param.kind)) == "linear-hashing"
                 ? "linear_hashing"
                 : std::string(tableKindName(info.param.kind));
    });

TEST(ShardedPolicyEquivalence, AllPoliciesMatchUncachedContents) {
  const std::size_t n = 2048;
  const auto ops = buildOps(n, 13);
  const auto universe = distinctKeys(n / 4, 13);

  const auto run = [&](std::size_t cache_frames, bool write_back,
                       extmem::ReplacementKind repl) {
    TestRig rig(kB, /*memory_words=*/0, 42);
    GeneralConfig cfg;
    cfg.expected_n = universe.size();
    cfg.target_load = 0.5;
    cfg.shards = 3;
    cfg.sharded_inner = TableKind::kChaining;
    cfg.shard_threads = 2;
    cfg.shard_cache_frames = cache_frames;
    cfg.shard_cache_write_back = write_back;
    cfg.shard_cache_replacement = repl;
    auto table = makeTable(TableKind::kSharded, rig.context(), cfg);
    constexpr std::size_t kChunk = 128;
    for (std::size_t i = 0; i < ops.size(); i += kChunk) {
      const std::size_t len = std::min(kChunk, ops.size() - i);
      table->applyBatch(std::span(ops.data() + i, len));
    }
    table->flushCache();
    return digest(*table, universe);
  };

  const std::uint64_t ref = run(0, false, extmem::ReplacementKind::kLru);
  for (const bool wb : {false, true}) {
    for (const auto repl :
         {extmem::ReplacementKind::kLru, extmem::ReplacementKind::kTwoQ,
          extmem::ReplacementKind::kArc}) {
      EXPECT_EQ(run(10, wb, repl), ref)
          << extmem::replacementKindName(repl) << (wb ? " wb" : " wt");
    }
  }
}

// Satellite regression: the façade distributes remainder frames
// (cache_frames mod shards) to the first shards instead of truncating
// them — the charge against the shared budget equals the configured
// total, and per-shard capacities differ by at most one frame.
TEST(ShardedPolicyEquivalence, RemainderFramesDistributedAcrossShards) {
  TestRig rig(kB, /*memory_words=*/0, 42);
  GeneralConfig cfg;
  cfg.expected_n = 512;
  cfg.target_load = 0.5;
  cfg.shards = 3;
  cfg.sharded_inner = TableKind::kChaining;
  cfg.shard_cache_frames = 8;  // 3 shards: 3 + 3 + 2, not floor(8/3) each
  cfg.shard_cache_replacement = extmem::ReplacementKind::kTwoQ;
  auto table = makeTable(TableKind::kSharded, rig.context(), cfg);
  auto* sharded = dynamic_cast<ShardedTable*>(table.get());
  ASSERT_NE(sharded, nullptr);
  ASSERT_EQ(sharded->shardCount(), 3u);
  std::size_t total_frames = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_NE(sharded->shardCache(s), nullptr);
    total_frames += sharded->shardCache(s)->capacityBlocks();
    EXPECT_EQ(sharded->shardCache(s)->replacementKind(),
              extmem::ReplacementKind::kTwoQ);
  }
  EXPECT_EQ(total_frames, 8u);
  EXPECT_EQ(sharded->shardCache(0)->capacityBlocks(), 3u);
  EXPECT_EQ(sharded->shardCache(1)->capacityBlocks(), 3u);
  EXPECT_EQ(sharded->shardCache(2)->capacityBlocks(), 2u);
  // Frames (8 blocks' worth) plus per-shard 2Q ghost metadata, all
  // charged to the CALLER's shared budget.
  const std::size_t words = rig.device->wordsPerBlock();
  std::size_t expected = 8 * words;
  for (const std::size_t frames : {3u, 3u, 2u}) {
    expected += std::max<std::size_t>(1, frames / 2) *
                extmem::kGhostEntryWords;
  }
  EXPECT_EQ(rig.memory->used(), expected);
}

// A shard allotted zero frames gets no cache (frames < shards).
TEST(ShardedPolicyEquivalence, FewerFramesThanShardsLeavesTailUncached) {
  TestRig rig(kB, /*memory_words=*/0, 42);
  GeneralConfig cfg;
  cfg.expected_n = 512;
  cfg.target_load = 0.5;
  cfg.shards = 4;
  cfg.sharded_inner = TableKind::kChaining;
  cfg.shard_cache_frames = 2;
  auto table = makeTable(TableKind::kSharded, rig.context(), cfg);
  auto* sharded = dynamic_cast<ShardedTable*>(table.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_NE(sharded->shardCache(0), nullptr);
  EXPECT_NE(sharded->shardCache(1), nullptr);
  EXPECT_EQ(sharded->shardCache(2), nullptr);
  EXPECT_EQ(sharded->shardCache(3), nullptr);
  EXPECT_EQ(sharded->shardCache(0)->capacityBlocks(), 1u);
  EXPECT_EQ(sharded->shardCache(1)->capacityBlocks(), 1u);
}

}  // namespace
}  // namespace exthash::tables
