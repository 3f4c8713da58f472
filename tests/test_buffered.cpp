#include "core/buffered_hash_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "table_test_util.h"

namespace exthash::core {
namespace {

using exthash::testing::CountingVisitor;
using exthash::testing::TestRig;
using exthash::testing::distinctKeys;
using tables::Op;
using tables::UnsupportedOperation;

/// Every record of a layout walk as (zone, block, key, value), sorted, so
/// two tables compare equal iff they hold the same records in the same
/// blocks. Memory-zone records carry block 0 and zone 0.
class LayoutRecorder : public tables::LayoutVisitor {
 public:
  void memoryItem(const Record& r) override {
    entries.emplace_back(0, 0, r.key, r.value);
  }
  void diskItem(extmem::BlockId block, const Record& r) override {
    entries.emplace_back(1, block, r.key, r.value);
  }
  std::vector<std::uint64_t> memoryKeys() const {
    std::vector<std::uint64_t> keys;
    for (const auto& [zone, block, key, value] : entries) {
      if (zone == 0) keys.push_back(key);
    }
    return keys;
  }
  /// FNV-1a over the sorted entries.
  std::uint64_t digest() {
    std::sort(entries.begin(), entries.end());
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t word) {
      for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
      }
    };
    for (const auto& [zone, block, key, value] : entries) {
      mix(zone);
      mix(block);
      mix(key);
      mix(value);
    }
    return h;
  }
  std::vector<std::tuple<int, extmem::BlockId, std::uint64_t, std::uint64_t>>
      entries;
};

TEST(Buffered, InsertLookupRoundTrip) {
  TestRig rig(8);
  BufferedHashTable table(rig.context(), {4, 2, 16});
  const auto keys = distinctKeys(600);
  for (std::size_t i = 0; i < keys.size(); ++i) table.insert(keys[i], i);
  EXPECT_EQ(table.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.lookup(keys[i]).value(), i) << "key " << i;
  }
  EXPECT_FALSE(table.lookup(0xf00dULL << 32).has_value());
}

TEST(Buffered, HhatHoldsTheLionShare) {
  TestRig rig(8);
  BufferedHashTable table(rig.context(), {/*beta=*/8, 2, 16});
  const auto keys = distinctKeys(2000);
  for (const auto k : keys) table.insert(k, 1);
  // Invariant: buffer never exceeds |Ĥ|/β (+ one flush of slack).
  EXPECT_GT(table.hhatSize(), keys.size() * 3 / 4);
  EXPECT_LE(table.bufferSize(),
            table.hhatSize() / table.beta() + 64);
}

TEST(Buffered, QueryCostApproachesOne) {
  // tq = 1 + O(1/β): with β=16 on b=64 blocks, the average successful
  // lookup should hug 1.
  TestRig rig(64);
  BufferedHashTable table(rig.context(), {16, 2, 128});
  const auto keys = distinctKeys(8192);
  for (const auto k : keys) table.insert(k, 1);
  const extmem::IoProbe probe(*rig.device);
  for (const auto k : keys) ASSERT_TRUE(table.lookup(k).has_value());
  const double per_lookup = static_cast<double>(probe.cost()) /
                            static_cast<double>(keys.size());
  EXPECT_GE(per_lookup, 0.9);
  EXPECT_LT(per_lookup, 1.0 + 4.0 / 16.0);  // 1 + O(1/β)
}

TEST(Buffered, InsertIsSubconstant) {
  TestRig rig(64);
  BufferedHashTable table(rig.context(), {8, 2, 128});
  const auto keys = distinctKeys(8192);
  const extmem::IoProbe probe(*rig.device);
  for (const auto k : keys) table.insert(k, 1);
  const double per_insert = static_cast<double>(probe.cost()) /
                            static_cast<double>(keys.size());
  EXPECT_LT(per_insert, 1.0);  // strictly better than the standard table
}

TEST(Buffered, BetaTradesInsertForQuery) {
  // Larger β: better queries, costlier inserts. The core tradeoff.
  const auto keys = distinctKeys(8192);
  double tu[2], tq[2];
  const std::size_t betas[2] = {4, 32};
  for (int i = 0; i < 2; ++i) {
    TestRig rig(64);
    BufferedHashTable table(rig.context(), {betas[i], 2, 128});
    const extmem::IoProbe ins(*rig.device);
    for (const auto k : keys) table.insert(k, 1);
    tu[i] = static_cast<double>(ins.cost()) / keys.size();
    const extmem::IoProbe qry(*rig.device);
    for (std::size_t j = 0; j < keys.size(); j += 8) table.lookup(keys[j]);
    tq[i] = static_cast<double>(qry.cost()) / (keys.size() / 8);
  }
  EXPECT_LT(tu[0], tu[1]);  // small β inserts cheaper
  EXPECT_GT(tq[0], tq[1]);  // small β queries costlier
}

TEST(Buffered, EraseIsUnsupportedPerPaperModel) {
  TestRig rig(8);
  BufferedHashTable table(rig.context(), {4, 2, 8});
  table.insert(1, 2);
  EXPECT_THROW(table.erase(1), UnsupportedOperation);
}

TEST(Buffered, StrictLookupSeesNewestVersion) {
  TestRig rig(8);
  BufferedHashTable table(rig.context(), {4, 2, 16});
  const auto keys = distinctKeys(300);
  for (const auto k : keys) table.insert(k, 1);
  // Overwrite a key whose old version sits in Ĥ.
  const std::uint64_t target = keys[0];
  table.insert(target, 99);
  EXPECT_EQ(table.strictLookup(target).value(), 99u);
  // Plain lookup may see the stale Ĥ copy (documented); after enough
  // inserts to force a merge, both agree.
  const auto more = distinctKeys(2000, /*seed=*/12);
  for (const auto k : more) table.insert(k, 1);
  EXPECT_EQ(table.lookup(target).value(), 99u);
  EXPECT_EQ(table.strictLookup(target).value(), 99u);
}

TEST(Buffered, VisitLayoutConservation) {
  TestRig rig(8);
  BufferedHashTable table(rig.context(), {4, 2, 16});
  const auto keys = distinctKeys(777);
  for (const auto k : keys) table.insert(k, 1);
  CountingVisitor visitor;
  table.visitLayout(visitor);
  EXPECT_EQ(visitor.memory_items + visitor.disk_items, keys.size());
}

TEST(Buffered, PrimaryBlockPointsIntoHhat) {
  TestRig rig(8);
  BufferedHashTable table(rig.context(), {4, 2, 16});
  const auto keys = distinctKeys(500);
  for (const auto k : keys) table.insert(k, 1);
  ASSERT_NE(table.hhat(), nullptr);
  std::size_t fast = 0;
  for (const auto k : keys) {
    const auto primary = table.primaryBlockOf(k);
    ASSERT_TRUE(primary.has_value());
    rig.device->inspect(*primary, [&](std::span<const extmem::Word> w) {
      if (extmem::ConstBucketPage(w).indexOf(k).has_value()) ++fast;
    });
  }
  // At least a (1 - 1/β) fraction must be one-I/O reachable.
  EXPECT_GE(fast, keys.size() * (table.beta() - 1) / table.beta() -
                      keys.size() / 16);
}

TEST(Buffered, MergeCadenceMatchesBeta) {
  TestRig rig(16);
  BufferedHashTable table(rig.context(), {8, 2, 32});
  const auto keys = distinctKeys(4000);
  for (const auto k : keys) table.insert(k, 1);
  // Merges happen every |Ĥ|/β inserts with doubling rounds: the count must
  // be Θ(β · log(n/m)) and certainly below β · log2(n/m) + a few.
  const double log_ratio = std::log2(4000.0 / 32.0);
  EXPECT_LE(table.merges(),
            static_cast<std::uint64_t>(8.0 * log_ratio) + 8);
  EXPECT_GE(table.merges(), 4u);
}

TEST(Buffered, ConfigHelpersRespectTheorem2) {
  const auto cfg = BufferedConfig::forQueryExponent(0.5, 256, 64);
  EXPECT_EQ(cfg.beta, 16u);  // ceil(256^0.5)
  const auto eps = BufferedConfig::forInsertBudget(0.25, 256, 64);
  EXPECT_GE(eps.beta, 2u);
  EXPECT_LE(eps.beta, 256u);
  EXPECT_THROW(BufferedConfig::forQueryExponent(1.5, 256, 64), CheckFailure);
}

TEST(Buffered, RejectsTombstoneSentinelValue) {
  TestRig rig(8);
  BufferedHashTable table(rig.context(), {4, 2, 8});
  EXPECT_THROW(table.insert(1, kTombstoneValue), CheckFailure);
}

TEST(Buffered, BatchDedupCrossingTheMergePinsIoAndLayout) {
  // One batch that crosses the Ĥ merge threshold while carrying updates to
  // H0-resident keys and in-batch duplicates of fresh keys. The fresh keys
  // must be deduplicated in first-arrival order with the newest value
  // winning: the order decides which keys join the merge and which refill
  // the buffer, so it shows in the counted I/O and in the layout.
  TestRig rig(8);
  BufferedHashTable table(rig.context(), {4, 2, 16});
  const auto keys = distinctKeys(400);
  for (std::size_t i = 0; i < 150; ++i) table.insert(keys[i], i);
  LayoutRecorder before;
  table.visitLayout(before);
  const auto resident = before.memoryKeys();
  ASSERT_GE(resident.size(), 4u);
  const std::uint64_t merges_before = table.merges();

  std::vector<Op> ops;
  std::unordered_map<std::uint64_t, std::uint64_t> newest;
  const auto push = [&](std::uint64_t key, std::uint64_t value) {
    ops.push_back(Op::insertOp(key, value));
    newest[key] = value;
  };
  for (std::size_t i = 150; i < 400; ++i) {
    push(keys[i], 10'000 + i);
    if (i % 5 == 0) push(keys[i - 3], 20'000 + i);      // re-arrival
    if (i % 7 == 0) push(resident[i % 4], 30'000 + i);  // H0 update
    if (i % 11 == 0) push(keys[i], 40'000 + i);         // immediate repeat
  }
  const extmem::IoProbe probe(*rig.device);
  table.applyBatch(ops);

  EXPECT_EQ(probe.reads(), 272u);
  EXPECT_EQ(probe.writes(), 320u);
  EXPECT_EQ(probe.rmws(), 0u);
  EXPECT_EQ(table.merges() - merges_before, 5u);
  EXPECT_EQ(table.size(), 400u);
  LayoutRecorder after;
  table.visitLayout(after);
  EXPECT_EQ(after.digest(), 14950723198637484367ULL);
  for (std::size_t i = 0; i < 400; ++i) {
    const auto it = newest.find(keys[i]);
    const std::uint64_t want = it != newest.end() ? it->second : i;
    ASSERT_EQ(table.strictLookup(keys[i]).value(), want) << "key " << i;
  }
}

TEST(Buffered, NoBlockLeaksAcrossMerges) {
  TestRig rig(8);
  const std::size_t before = rig.device->blocksInUse();
  {
    BufferedHashTable table(rig.context(), {4, 2, 16});
    const auto keys = distinctKeys(1500);
    for (const auto k : keys) table.insert(k, 1);
    // Blocks in use must be O(n/b), not O(merges · n/b).
    const std::size_t used = rig.device->blocksInUse();
    EXPECT_LT(used, 3 * 1500 / 8 + 64);
  }
  EXPECT_EQ(rig.device->blocksInUse(), before);  // destructor frees all
}

}  // namespace
}  // namespace exthash::core
