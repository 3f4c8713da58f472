#include "tables/linear_hash_table.h"

#include <gtest/gtest.h>

#include <cerrno>

#include "extmem/faulty_file_ops.h"
#include "table_test_util.h"

namespace exthash::tables {
namespace {

using exthash::testing::CountingVisitor;
using exthash::testing::TestRig;
using exthash::testing::distinctKeys;

TEST(LinearHashing, InsertLookupRoundTrip) {
  TestRig rig(4);
  LinearHashTable table(rig.context(), {4, 0.8});
  const auto keys = distinctKeys(500);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(table.insert(keys[i], i));
  }
  EXPECT_EQ(table.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.lookup(keys[i]).value(), i);
  }
}

TEST(LinearHashing, LoadFactorStaysBounded) {
  TestRig rig(8);
  LinearHashTable table(rig.context(), {4, 0.8});
  const auto keys = distinctKeys(2000);
  for (const auto k : keys) {
    table.insert(k, 1);
    ASSERT_LE(table.loadFactor(), 0.8 + 1e-9);
  }
  EXPECT_GT(table.splits(), 0u);
  EXPECT_GT(table.level(), 0u);
}

TEST(LinearHashing, SplitsAreIncremental) {
  TestRig rig(8);
  LinearHashTable table(rig.context(), {4, 0.8});
  const auto keys = distinctKeys(1000);
  std::uint64_t prev_buckets = table.bucketCountLive();
  for (const auto k : keys) {
    table.insert(k, 1);
    // Bucket count only ever grows by small increments, never doubles in
    // one step (the whole point of linear hashing).
    const std::uint64_t now = table.bucketCountLive();
    ASSERT_LE(now, prev_buckets + 4);
    prev_buckets = now;
  }
}

TEST(LinearHashing, AmortizedInsertNearOneIo) {
  TestRig rig(64);
  LinearHashTable table(rig.context(), {8, 0.8});
  const auto keys = distinctKeys(4096);
  const extmem::IoProbe probe(*rig.device);
  for (const auto k : keys) table.insert(k, 1);
  const double per_insert = static_cast<double>(probe.cost()) /
                            static_cast<double>(keys.size());
  // 1 rmw + amortized split scans + overflow-chain walks: buckets ahead of
  // the split pointer run over-loaded (up to ~2x the average), so chains
  // near the frontier are common at max_load 0.8 — the classic linear-
  // hashing insert overhead. Θ(1) with a modest constant, not 1 + o(1).
  EXPECT_LT(per_insert, 1.8);
  EXPECT_GE(per_insert, 1.0);
}

TEST(LinearHashing, UpdateInPlace) {
  TestRig rig(4);
  LinearHashTable table(rig.context(), {4, 0.8});
  EXPECT_TRUE(table.insert(11, 1));
  EXPECT_FALSE(table.insert(11, 2));
  EXPECT_EQ(table.lookup(11).value(), 2u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(LinearHashing, EraseWorksAcrossSplits) {
  TestRig rig(4);
  LinearHashTable table(rig.context(), {4, 0.8});
  const auto keys = distinctKeys(400);
  for (const auto k : keys) table.insert(k, 5);
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(table.erase(keys[i]));
  }
  EXPECT_EQ(table.size(), keys.size() / 2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.lookup(keys[i]).has_value(), i % 2 == 1);
  }
}

TEST(LinearHashing, VisitLayoutComplete) {
  TestRig rig(4);
  LinearHashTable table(rig.context(), {4, 0.8});
  const auto keys = distinctKeys(300);
  for (const auto k : keys) table.insert(k, 1);
  CountingVisitor visitor;
  table.visitLayout(visitor);
  EXPECT_EQ(visitor.disk_items, keys.size());
}

TEST(LinearHashing, AddressingConsistentAfterManySplits) {
  TestRig rig(2);  // tiny blocks: lots of splits
  LinearHashTable table(rig.context(), {2, 0.75});
  const auto keys = distinctKeys(600);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    table.insert(keys[i], i);
    // Invariant: every previously inserted key remains reachable.
    if (i % 97 == 0) {
      for (std::size_t j = 0; j <= i; j += 31) {
        ASSERT_EQ(table.lookup(keys[j]).value(), j)
            << "lost key " << j << " after " << i << " inserts";
      }
    }
  }
}

TEST(LinearHashing, MemoryFootprintIsLogarithmic) {
  TestRig rig(4, /*memory_words=*/256);
  LinearHashTable table(rig.context(), {4, 0.8});
  const auto keys = distinctKeys(3000);
  for (const auto k : keys) table.insert(k, 1);  // must not exceed budget
  EXPECT_LE(rig.memory->used(), 128u);
}

// A file-backed table whose every read fails must still be destroyable:
// the teardown walk stops at the first IoError instead of throwing out of
// the destructor, and the segment extents are freed anyway.
TEST(LinearHashing, DestructionCompletesWhenReadsFail) {
  extmem::FaultyFileOps shim;
  extmem::StorageOptions storage = testing::testStorageOptions();
  storage.backend = extmem::StorageOptions::Backend::kFile;
  storage.file_ops = &shim;
  TestRig rig(4);
  rig.device = std::make_unique<extmem::BlockDevice>(
      extmem::wordsForRecordCapacity(4), storage);
  std::size_t in_use = 0;
  {
    LinearHashTable table(rig.context(), {4, 0.8});
    for (const auto k : distinctKeys(300)) table.insert(k, 1);
    in_use = rig.device->blocksInUse();
    shim.failNth(extmem::FileSyscall::kPread,
                 shim.count(extmem::FileSyscall::kPread) + 1, EIO,
                 /*sticky=*/true);
  }
  EXPECT_LT(rig.device->blocksInUse(), in_use);
  EXPECT_FALSE(rig.device->frozen());
}

}  // namespace
}  // namespace exthash::tables
