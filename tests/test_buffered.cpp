#include "core/buffered_hash_table.h"

#include <gtest/gtest.h>

#include <cmath>

#include "table_test_util.h"

namespace exthash::core {
namespace {

using exthash::testing::CountingVisitor;
using exthash::testing::TestRig;
using exthash::testing::distinctKeys;
using tables::UnsupportedOperation;

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
