#include "extmem/block_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <vector>

#include "extmem/faulty_file_ops.h"
#include "table_test_util.h"
#include "util/assert.h"
#include "util/audit.h"

namespace exthash::extmem {
namespace {

StorageOptions onFiles() {
  StorageOptions storage = testing::testStorageOptions();
  storage.backend = StorageOptions::Backend::kFile;
  return storage;
}

TEST(BlockDevice, AllocateReadWriteRoundTrip) {
  BlockDevice dev(16);
  const BlockId id = dev.allocate();
  dev.withWrite(id, [&](std::span<Word> data) {
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = i * 3;
  });
  dev.withRead(id, [&](std::span<const Word> data) {
    for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(data[i], i * 3);
  });
}

TEST(BlockDevice, FreshBlocksAreZeroed) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  dev.withRead(id, [&](std::span<const Word> data) {
    for (const Word w : data) EXPECT_EQ(w, 0u);
  });
}

TEST(BlockDevice, ReuseIsZeroedToo) {
  BlockDevice dev(8);
  const BlockId a = dev.allocate();
  dev.withWrite(a, [](std::span<Word> d) { d[0] = 0xdead; });
  dev.free(a);
  const BlockId b = dev.allocate();
  EXPECT_EQ(a, b);  // pooled reuse
  dev.withRead(b, [](std::span<const Word> d) { EXPECT_EQ(d[0], 0u); });
}

TEST(BlockDevice, IoAccountingMatchesConvention) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  EXPECT_EQ(dev.stats().cost(), 0u);  // allocation is metadata, not I/O

  dev.withRead(id, [](std::span<const Word>) {});
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().cost(), 1u);

  dev.withWrite(id, [](std::span<Word>) {});  // read-modify-write: cost 1
  EXPECT_EQ(dev.stats().rmws, 1u);
  EXPECT_EQ(dev.stats().cost(), 2u);
  EXPECT_EQ(dev.stats().rawAccesses(), 3u);  // rmw touches twice

  dev.withOverwrite(id, [](std::span<Word>) {});
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(dev.stats().cost(), 3u);
}

TEST(BlockDevice, OverwriteClearsPreviousContents) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  dev.withWrite(id, [](std::span<Word> d) { d[5] = 77; });
  dev.withOverwrite(id, [](std::span<Word> d) { d[0] = 1; });
  dev.withRead(id, [](std::span<const Word> d) {
    EXPECT_EQ(d[0], 1u);
    EXPECT_EQ(d[5], 0u);
  });
}

TEST(BlockDevice, ExtentIdsAreContiguous) {
  BlockDevice dev(8);
  const BlockId base = dev.allocateExtent(10);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(dev.isAllocated(base + i));
  }
  EXPECT_EQ(dev.blocksInUse(), 10u);
  dev.freeExtent(base, 10);
  EXPECT_EQ(dev.blocksInUse(), 0u);
}

TEST(BlockDevice, ExtentPoolingReusesExactSizes) {
  BlockDevice dev(8);
  const BlockId a = dev.allocateExtent(4);
  dev.freeExtent(a, 4);
  const BlockId b = dev.allocateExtent(4);
  EXPECT_EQ(a, b);
}

TEST(BlockDevice, AccessAfterFreeIsAnError) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  dev.free(id);
  EXPECT_THROW(dev.withRead(id, [](std::span<const Word>) {}),
               exthash::CheckFailure);
  EXPECT_THROW(dev.free(id), exthash::CheckFailure);
}

TEST(BlockDevice, SpansStayValidAcrossAllocation) {
  // The span contract: a span obtained inside a guarded access must
  // survive allocations made inside the callback (tables link overflow
  // blocks this way).
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  dev.withWrite(id, [&](std::span<Word> data) {
    data[0] = 42;
    for (int i = 0; i < 5000; ++i) dev.allocate();  // force new chunks
    data[1] = 43;  // still valid
    EXPECT_EQ(data[0], 42u);
  });
  dev.withRead(id, [](std::span<const Word> d) {
    EXPECT_EQ(d[0], 42u);
    EXPECT_EQ(d[1], 43u);
  });
}

TEST(BlockDevice, InspectDoesNotCount) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  const auto before = dev.stats().cost();
  dev.inspect(id, [](std::span<const Word>) {});
  EXPECT_EQ(dev.stats().cost(), before);
}

// Accesses nest: every level sees its own block while the levels inside
// it read, allocate and overwrite others, and the outer write lands. On
// files under EXTHASH_AUDIT=1, a span kept past its callback reads the
// released-frame poison instead of whichever block the frame serves next.
void checkNestedAccesses(const StorageOptions& storage) {
  BlockDevice dev(8, storage);
  const BlockId a = dev.allocate();
  const BlockId b = dev.allocate();
  const BlockId c = dev.allocate();
  dev.writeCopy(b, std::vector<Word>(8, 2));
  dev.writeCopy(c, std::vector<Word>(8, 3));
  BlockId fresh = kInvalidBlock;
  dev.withWrite(a, [&](std::span<Word> wa) {
    wa[0] = 1;
    dev.withRead(b, [&](std::span<const Word> wb) {
      dev.withRead(c, [&](std::span<const Word> wc) {
        fresh = dev.allocate();
        dev.withOverwrite(fresh, [](std::span<Word> wf) { wf[0] = 4; });
        EXPECT_EQ(wc[0], 3u);
      });
      EXPECT_EQ(wb[0], 2u);
    });
    EXPECT_EQ(wa[0], 1u);
    wa[7] = 5;
  });
  const std::vector<Word> outer = dev.readCopy(a);
  EXPECT_EQ(outer[0], 1u);
  EXPECT_EQ(outer[7], 5u);
  EXPECT_EQ(dev.readCopy(b), std::vector<Word>(8, 2));
  EXPECT_EQ(dev.readCopy(fresh)[0], 4u);

  std::span<const Word> kept;
  dev.withRead(b, [&](std::span<const Word> words) { kept = words; });
  if (dev.storagePersistent() && audit::enabled()) {
    for (const Word w : kept) EXPECT_EQ(w, BlockDevice::kReleasedFrameWord);
  }
}

TEST(BlockDevice, NestedAccessesSeeTheirOwnBlocksInMemory) {
  checkNestedAccesses(StorageOptions{});
}

TEST(BlockDevice, NestedAccessesSeeTheirOwnBlocksOnFiles) {
  checkNestedAccesses(onFiles());
}

// A failed fallocate must leave the allocation state exactly as it was:
// the watermark does not move, an image still captures, and the next
// allocation after the fault clears starts where the failed one would.
TEST(BlockDevice, FailedAllocationLeavesTheIdSpaceUnchanged) {
  FaultyFileOps shim(/*seed=*/5);
  StorageOptions storage = onFiles();
  storage.file_ops = &shim;
  BlockDevice dev(8, storage);
  dev.allocate();  // the first fallocate reserves the first 1024 slots
  const std::size_t id_space = dev.idSpaceSize();

  shim.failNth(FileSyscall::kFallocate, 2, ENOSPC);
  EXPECT_THROW(dev.allocateExtent(2000), PermanentIoError);
  EXPECT_EQ(dev.idSpaceSize(), id_space);
  EXPECT_EQ(dev.blocksInUse(), 1u);
  const BlockDevice::Image image = dev.captureImage();
  EXPECT_EQ(image.next_id, id_space);
  EXPECT_EQ(image.words.size(), dev.wordsPerBlock());

  shim.clear();
  EXPECT_EQ(dev.allocateExtent(2000), id_space);
  EXPECT_EQ(dev.idSpaceSize(), id_space + 2000);
}

// A crash point on a write tears the block: words [0, torn) hold what the
// crashing write produced, words [torn, b) keep their old contents, and
// the device stays frozen until thaw(). A crashing read dies before its
// callback runs.
void checkCrashPointsTearWrites(const StorageOptions& storage) {
  constexpr std::size_t kWords = 8;
  const auto addTwo = [](std::span<Word> words) {
    for (Word& w : words) w += 2;
  };
  for (const IoOpKind op : {IoOpKind::kRmw, IoOpKind::kWrite}) {
    for (const std::size_t torn : {std::size_t{0}, std::size_t{3}}) {
      SCOPED_TRACE(std::string(ioOpKindName(op)) + " torn " +
                   std::to_string(torn));
      BlockDevice dev(kWords, storage);
      const BlockId id = dev.allocate();
      dev.writeCopy(id, std::vector<Word>(kWords, 7));
      FaultPolicy policy(/*seed=*/1);
      policy.crashOpNumber(op, 1, torn);
      dev.setFaultPolicy(&policy);
      if (op == IoOpKind::kRmw) {
        EXPECT_THROW(dev.withWrite(id, addTwo), DeviceCrashed);
      } else {
        EXPECT_THROW(dev.withOverwrite(id, addTwo), DeviceCrashed);
      }
      EXPECT_TRUE(dev.frozen());
      EXPECT_THROW(dev.readCopy(id), DeviceCrashed);

      dev.thaw();
      // An rmw adds 2 to the old 7s; a blind write adds 2 to zeros.
      std::vector<Word> want(kWords, 7);
      std::fill_n(want.begin(), torn, op == IoOpKind::kRmw ? 9 : 2);
      EXPECT_EQ(dev.readCopy(id), want);
    }
  }

  BlockDevice dev(kWords, storage);
  const BlockId id = dev.allocate();
  FaultPolicy policy(/*seed=*/1);
  policy.crashOpNumber(IoOpKind::kRead, 1);
  dev.setFaultPolicy(&policy);
  bool ran = false;
  EXPECT_THROW(dev.withRead(id, [&](std::span<const Word>) { ran = true; }),
               DeviceCrashed);
  EXPECT_FALSE(ran);
  EXPECT_TRUE(dev.frozen());
}

TEST(BlockDevice, CrashPointsTearWritesInMemory) {
  checkCrashPointsTearWrites(StorageOptions{});
}

TEST(BlockDevice, CrashPointsTearWritesOnFiles) {
  checkCrashPointsTearWrites(onFiles());
}

TEST(BlockDevice, RejectsTinyBlocks) {
  EXPECT_THROW(BlockDevice dev(2), exthash::CheckFailure);
}

// Capture images only the live blocks, packed in id order; restore puts
// them back and rewinds the allocation state; a freed extent that was
// left out of the image still comes back zeroed when reused.
void checkLiveOnlyImageRoundTrip(const StorageOptions& storage) {
  BlockDevice dev(8, storage);
  auto fill = [&](BlockId id, Word tag) {
    dev.withOverwrite(id, [&](std::span<Word> d) {
      for (std::size_t i = 0; i < d.size(); ++i) d[i] = tag * 100 + i;
    });
  };
  const BlockId a = dev.allocate();
  const BlockId b = dev.allocate();
  const BlockId e1 = dev.allocateExtent(4);
  const BlockId c = dev.allocate();
  const BlockId e2 = dev.allocateExtent(3);
  std::vector<BlockId> all = {a, b, c};
  for (std::size_t i = 0; i < 4; ++i) all.push_back(e1 + i);
  for (std::size_t i = 0; i < 3; ++i) all.push_back(e2 + i);
  for (const BlockId id : all) fill(id, id + 1);
  dev.free(b);
  dev.freeExtent(e1, 4);
  const std::vector<BlockId> live = {a, c, e2, e2 + 1, e2 + 2};

  const BlockDevice::Image image = dev.captureImage();
  EXPECT_EQ(image.words.size(), dev.blocksInUse() * dev.wordsPerBlock());
  EXPECT_EQ(dev.blocksInUse(), live.size());
  const std::size_t id_space = dev.idSpaceSize();

  // Diverge after the capture: rewrite the live blocks, reuse both freed
  // slots with garbage, and grow the id space.
  for (const BlockId id : live) fill(id, 7777);
  EXPECT_EQ(dev.allocateExtent(4), e1);
  for (std::size_t i = 0; i < 4; ++i) fill(e1 + i, 9999);
  EXPECT_EQ(dev.allocate(), b);
  fill(b, 9999);
  fill(dev.allocate(), 9999);

  dev.restoreImage(image);
  EXPECT_EQ(dev.blocksInUse(), live.size());
  EXPECT_EQ(dev.idSpaceSize(), id_space);
  for (const BlockId id : live) {
    EXPECT_TRUE(dev.isAllocated(id));
    const std::vector<Word> got = dev.readCopy(id);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], (id + 1) * 100 + i) << "block " << id;
    }
  }
  EXPECT_FALSE(dev.isAllocated(b));
  EXPECT_FALSE(dev.isAllocated(e1));

  // The freed extent was not imaged; its slots still hold the garbage
  // written after the capture, and reuse must scrub it.
  EXPECT_EQ(dev.allocateExtent(4), e1);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(dev.readCopy(e1 + i), std::vector<Word>(8, 0));
  }
  EXPECT_EQ(dev.allocate(), b);
  EXPECT_EQ(dev.readCopy(b), std::vector<Word>(8, 0));
}

TEST(BlockDeviceImage, LiveOnlyRoundTripInMemory) {
  checkLiveOnlyImageRoundTrip(StorageOptions{});
}

TEST(BlockDeviceImage, LiveOnlyRoundTripOnFiles) {
  checkLiveOnlyImageRoundTrip(onFiles());
}

// A fresh id above the restored watermark must read back as zeros, even
// though the rolled-back run wrote that id before the restore.
void checkFreshIdAboveRestoredWatermarkReadsZero(
    const StorageOptions& storage) {
  BlockDevice dev(8, storage);
  dev.allocate();
  dev.allocate();
  const BlockDevice::Image image = dev.captureImage();

  const BlockId third = dev.allocate();
  dev.withOverwrite(third, [](std::span<Word> d) {
    std::fill(d.begin(), d.end(), Word{0xABCD});
  });

  dev.restoreImage(image);
  EXPECT_FALSE(dev.isAllocated(third));
  EXPECT_EQ(dev.allocate(), third);
  EXPECT_EQ(dev.readCopy(third), std::vector<Word>(8, 0));
}

TEST(BlockDeviceImage, FreshIdAboveRestoredWatermarkReadsZeroInMemory) {
  checkFreshIdAboveRestoredWatermarkReadsZero(StorageOptions{});
}

TEST(BlockDeviceImage, FreshIdAboveRestoredWatermarkReadsZeroOnFiles) {
  checkFreshIdAboveRestoredWatermarkReadsZero(onFiles());
}

TEST(IoProbe, MeasuresDeltas) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  dev.withRead(id, [](std::span<const Word>) {});
  IoProbe probe(dev);
  dev.withRead(id, [](std::span<const Word>) {});
  dev.withWrite(id, [](std::span<Word>) {});
  EXPECT_EQ(probe.reads(), 1u);
  EXPECT_EQ(probe.rmws(), 1u);
  EXPECT_EQ(probe.cost(), 2u);
}

}  // namespace
}  // namespace exthash::extmem
