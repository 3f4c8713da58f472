#include "extmem/block_cache.h"

#include <gtest/gtest.h>

#include "table_test_util.h"

namespace exthash::extmem {
namespace {

TEST(BlockCache, HitsAreFree) {
  BlockDevice dev(8);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 4);
  const BlockId id = dev.allocate();
  dev.withWrite(id, [](std::span<Word> d) { d[2] = 5; });
  const auto before = dev.stats().cost();

  cache.withRead(id, [](std::span<const Word> d) { EXPECT_EQ(d[2], 5u); });
  EXPECT_EQ(dev.stats().cost(), before + 1);  // miss
  cache.withRead(id, [](std::span<const Word> d) { EXPECT_EQ(d[2], 5u); });
  EXPECT_EQ(dev.stats().cost(), before + 1);  // hit: free
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BlockCache, EvictsLeastRecentlyUsed) {
  BlockDevice dev(8);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2);
  const BlockId a = dev.allocate();
  const BlockId b = dev.allocate();
  const BlockId c = dev.allocate();
  cache.withRead(a, [](std::span<const Word>) {});
  cache.withRead(b, [](std::span<const Word>) {});
  cache.withRead(a, [](std::span<const Word>) {});  // a is now MRU
  cache.withRead(c, [](std::span<const Word>) {});  // evicts b
  const auto misses = cache.misses();
  cache.withRead(b, [](std::span<const Word>) {});  // must miss again
  EXPECT_EQ(cache.misses(), misses + 1);
  cache.withRead(a, [](std::span<const Word>) {});  // a must still...
  EXPECT_EQ(cache.misses(), misses + 2);  // a was evicted by b's refill
}

TEST(BlockCache, WriteThroughUpdatesDeviceImmediately) {
  BlockDevice dev(8);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2, BlockCache::WritePolicy::kWriteThrough);
  const BlockId id = dev.allocate();
  cache.withRead(id, [](std::span<const Word>) {});  // populate frame
  cache.withWrite(id, [](std::span<Word> d) { d[0] = 9; });
  dev.withRead(id, [](std::span<const Word> d) { EXPECT_EQ(d[0], 9u); });
  // And the cached copy was refreshed:
  cache.withRead(id, [](std::span<const Word> d) { EXPECT_EQ(d[0], 9u); });
}

TEST(BlockCache, WriteBackDefersUntilFlush) {
  BlockDevice dev(8);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2, BlockCache::WritePolicy::kWriteBack);
  const BlockId id = dev.allocate();
  cache.withWrite(id, [](std::span<Word> d) { d[0] = 7; });
  EXPECT_EQ(testing::inspectWord(dev, id), 0u);  // device still zero
  const auto writes_before = dev.stats().writes;
  cache.flush();
  EXPECT_EQ(dev.stats().writes, writes_before + 1);
  EXPECT_EQ(testing::inspectWord(dev, id), 7u);
}

TEST(BlockCache, WriteBackFlushesOnEviction) {
  BlockDevice dev(8);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 1, BlockCache::WritePolicy::kWriteBack);
  const BlockId a = dev.allocate();
  const BlockId b = dev.allocate();
  cache.withWrite(a, [](std::span<Word> d) { d[0] = 1; });
  cache.withRead(b, [](std::span<const Word>) {});  // evicts dirty a
  EXPECT_EQ(testing::inspectWord(dev, a), 1u);
}

TEST(BlockCache, ChargesMemoryBudget) {
  BlockDevice dev(16);
  MemoryBudget budget(100);
  {
    BlockCache cache(dev, budget, 5);
    EXPECT_EQ(budget.used(), 5u * 16u);
  }
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_THROW(BlockCache(dev, budget, 7), BudgetExceeded);
}

TEST(BlockCache, InvalidateDropsFrame) {
  BlockDevice dev(8);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2, BlockCache::WritePolicy::kWriteBack);
  const BlockId id = dev.allocate();
  cache.withWrite(id, [](std::span<Word> d) { d[0] = 3; });
  cache.invalidate(id);
  EXPECT_EQ(cache.residentBlocks(), 0u);
  cache.flush();
  // The dropped write never landed.
  EXPECT_EQ(testing::inspectWord(dev, id), 0u);
}

}  // namespace
}  // namespace exthash::extmem
