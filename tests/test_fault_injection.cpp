// Fault injection + end-to-end I/O error resilience.
//
// Layer by layer: FaultPolicy determinism and the typed IoError taxonomy;
// the device-level retry loop (transient absorbed, budgets exhausted,
// permanent escaping immediately) with its IoStats counters; BlockCache
// write-back quarantine (dirty data survives a failed eviction and lands
// after the fault clears); IngestPipeline fail-stop + reset(); ShardedTable
// per-shard fault isolation; the flight recorder; and the capstone chaos
// sweep — every table kind plus the sharded façade, in
// pipelined+cached+arbitrated mode, must produce bit-exact lookup digests
// under seeded transient-fault schedules vs the fault-free run, with the
// retry counters proving faults actually fired.
//
// Lifetime discipline used throughout: a FaultPolicy installed on a device
// is declared BEFORE the cache/table layered over that device, because
// destructors flush and free through the device and must still find the
// policy alive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "extmem/block_cache.h"
#include "extmem/block_device.h"
#include "extmem/fault.h"
#include "extmem/faulty_file_ops.h"
#include "extmem/memory_arbiter.h"
#include "extmem/retry.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "pipeline/ingest_pipeline.h"
#include "table_test_util.h"
#include "tables/factory.h"
#include "tables/sharded_table.h"
#include "util/assert.h"
#include "util/random.h"

namespace exthash {
namespace {

using extmem::BlockCache;
using extmem::BlockDevice;
using extmem::BlockId;
using extmem::FaultPolicy;
using extmem::FaultyFileOps;
using extmem::FileSyscall;
using extmem::IoError;
using extmem::IoOpKind;
using extmem::MemoryArbiter;
using extmem::PermanentIoError;
using extmem::RetryPolicy;
using extmem::StorageOptions;
using extmem::TransientIoError;
using extmem::Word;
using pipeline::IngestPipeline;
using tables::ExternalHashTable;
using tables::GeneralConfig;
using tables::Op;
using tables::ShardedTable;
using tables::TableKind;
using testing::distinctKeys;
using testing::TestRig;

// ---------------------------------------------------------------------------
// FaultPolicy: determinism and trigger semantics
// ---------------------------------------------------------------------------

TEST(FaultPolicy, SameSeedReplaysTheSameSchedule) {
  const auto run = [](std::uint64_t seed) {
    FaultPolicy policy(seed);
    policy.setFailureProbability(0.25);
    std::vector<bool> fired;
    for (std::uint32_t i = 0; i < 200; ++i) {
      try {
        policy.onAccess(IoOpKind::kRead, i % 7);
        fired.push_back(false);
      } catch (const TransientIoError&) {
        fired.push_back(true);
      }
    }
    return fired;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));  // different seed, different schedule
}

TEST(FaultPolicy, OneShotTriggerFiresExactlyOnce) {
  FaultPolicy policy(7);
  policy.failOpNumber(IoOpKind::kWrite, 2);
  EXPECT_FALSE(policy.onAccess(IoOpKind::kWrite, 0));
  EXPECT_THROW(policy.onAccess(IoOpKind::kWrite, 0), TransientIoError);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(policy.onAccess(IoOpKind::kWrite, 0));
  }
  EXPECT_EQ(policy.faultsInjected(), 1u);
}

TEST(FaultPolicy, StickyBlockTriggerFiresUntilCleared) {
  FaultPolicy policy(7);
  policy.failBlock(5, FaultPolicy::Severity::kPermanent,
                   FaultPolicy::Durability::kSticky);
  EXPECT_THROW(policy.onAccess(IoOpKind::kRead, 5), PermanentIoError);
  EXPECT_THROW(policy.onAccess(IoOpKind::kRead, 5), PermanentIoError);
  EXPECT_FALSE(policy.onAccess(IoOpKind::kRead, 6));  // other blocks fine
  policy.clear();
  EXPECT_FALSE(policy.onAccess(IoOpKind::kRead, 5));
  EXPECT_EQ(policy.faultsInjected(), 2u);  // counters survive clear()
}

TEST(FaultPolicy, ErrorCarriesOpBlockAndAttempt) {
  // The policy throws attempt 1; the device's ladder stamps the count the
  // access had reached when the error escaped.
  BlockDevice dev(8);
  dev.allocateExtent(12);
  const BlockId id = dev.allocate();
  FaultPolicy policy(7);
  policy.failBlock(id);
  dev.setFaultPolicy(&policy);
  RetryPolicy rp;
  rp.max_attempts = 3;
  dev.setRetryPolicy(rp);
  try {
    dev.withWrite(id, [](std::span<Word>) {});
    FAIL() << "expected a TransientIoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), IoOpKind::kRmw);
    EXPECT_EQ(e.block(), 12u);
    EXPECT_TRUE(e.transient());
    EXPECT_EQ(e.attempts(), 3u);
    EXPECT_NE(std::string(e.what()).find("block 12"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Device-level retry: transient absorbed, budget exhausted, permanent
// escaping immediately — with the IoStats counters telling the story.
// ---------------------------------------------------------------------------

TEST(DeviceRetry, OneShotTransientFaultIsAbsorbedAndCounted) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  FaultPolicy policy(3);
  policy.failOpNumber(IoOpKind::kRead, 1);  // first read faults once
  dev.setFaultPolicy(&policy);

  std::uint64_t seen = 1;
  dev.withRead(id, [&](std::span<const Word> data) { seen = data[0]; });
  EXPECT_EQ(seen, 0u);  // fresh block reads zeroed — the retry succeeded

  const auto stats = dev.stats();
  EXPECT_EQ(stats.reads, 1u);  // the faulted attempt never counted
  EXPECT_EQ(policy.faultsInjected(), 1u);
  EXPECT_EQ(stats.io_retries, 1u);
  EXPECT_EQ(stats.io_gave_up, 0u);
}

TEST(DeviceRetry, StickyTransientFaultExhaustsTheBudget) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  FaultPolicy policy(3);
  policy.failBlock(id);  // transient + sticky: every attempt faults
  dev.setFaultPolicy(&policy);
  RetryPolicy rp;
  rp.max_attempts = 3;
  dev.setRetryPolicy(rp);

  try {
    dev.withOverwrite(id, [](std::span<Word>) {});
    FAIL() << "expected a TransientIoError";
  } catch (const TransientIoError& e) {
    EXPECT_EQ(e.attempts(), 3u);
  }
  const auto stats = dev.stats();
  EXPECT_EQ(stats.writes, 0u);  // fault-before-effect: nothing ever counted
  EXPECT_EQ(policy.faultsInjected(), 3u);
  EXPECT_EQ(stats.io_retries, 2u);  // attempts 2 and 3 were retries
  EXPECT_EQ(stats.io_gave_up, 1u);
}

TEST(DeviceRetry, PermanentFaultEscapesWithoutRetry) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  FaultPolicy policy(3);
  policy.failBlock(id, FaultPolicy::Severity::kPermanent,
                   FaultPolicy::Durability::kSticky);
  dev.setFaultPolicy(&policy);

  EXPECT_THROW(dev.withWrite(id, [](std::span<Word>) {}), PermanentIoError);
  const auto stats = dev.stats();
  EXPECT_EQ(policy.faultsInjected(), 1u);
  EXPECT_EQ(stats.io_retries, 0u);
  EXPECT_EQ(stats.io_gave_up, 1u);
}

TEST(DeviceRetry, ProbabilisticFaultsAreAbsorbedUnderHeavyTraffic) {
  BlockDevice dev(8);
  FaultPolicy policy(11);
  policy.setFailureProbability(0.1);
  dev.setFaultPolicy(&policy);
  RetryPolicy rp;
  rp.max_attempts = 8;
  dev.setRetryPolicy(rp);

  std::vector<BlockId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(dev.allocate());
  for (const BlockId id : ids) {
    dev.withOverwrite(id, [&](std::span<Word> data) { data[0] = id; });
  }
  std::uint64_t sum = 0;
  for (const BlockId id : ids) {
    dev.withRead(id, [&](std::span<const Word> data) { sum += data[0]; });
  }
  std::uint64_t expected = 0;
  for (const BlockId id : ids) expected += id;
  EXPECT_EQ(sum, expected);  // every op eventually succeeded, data intact
  const auto stats = dev.stats();
  EXPECT_GT(policy.faultsInjected(), 0u);
  EXPECT_GT(stats.io_retries, 0u);
  EXPECT_EQ(stats.io_gave_up, 0u);
  EXPECT_EQ(stats.reads, 64u);
  EXPECT_EQ(stats.writes, 64u);
}

// One ladder, one budget: injected faults and real transient syscall
// errors draw on the same RetryPolicy::max_attempts, and an attempt the
// policy faults never reaches a syscall.
TEST(DeviceRetry, InjectedAndSyscallFaultsShareOneAttemptBudget) {
  FaultyFileOps shim(/*seed=*/3);
  StorageOptions storage = testing::testStorageOptions();
  storage.backend = StorageOptions::Backend::kFile;
  storage.file_ops = &shim;
  BlockDevice dev(8, storage);
  const BlockId id = dev.allocate();
  RetryPolicy rp;
  rp.max_attempts = 3;
  dev.setRetryPolicy(rp);
  FaultPolicy policy(3);
  policy.failOpNumber(IoOpKind::kRead, 1);
  policy.failOpNumber(IoOpKind::kRead, 2);
  dev.setFaultPolicy(&policy);
  const std::uint64_t preads = shim.count(FileSyscall::kPread);
  shim.failNth(FileSyscall::kPread, preads + 1, EAGAIN);
  shim.failNth(FileSyscall::kPread, preads + 2, EAGAIN);

  try {
    dev.withRead(id, [](std::span<const Word>) {});
    FAIL() << "expected a TransientIoError";
  } catch (const TransientIoError& e) {
    EXPECT_EQ(e.attempts(), 3u);
  }
  EXPECT_EQ(dev.stats().reads, 0u);
  EXPECT_EQ(dev.stats().io_retries, 2u);
  EXPECT_EQ(dev.stats().io_gave_up, 1u);
  EXPECT_EQ(shim.count(FileSyscall::kPread) - preads, 1u);
}

TEST(DeviceRetry, BackoffQuantaAreCappedAndDeterministic) {
  RetryPolicy rp;
  rp.backoff_quanta = 1;
  rp.max_backoff_quanta = 16;
  for (std::uint32_t attempt = 1; attempt <= 40; ++attempt) {
    const auto q = rp.backoffQuantaFor(attempt, /*block=*/9);
    EXPECT_LE(q, 2 * rp.max_backoff_quanta);  // capped base + full jitter
    EXPECT_EQ(q, rp.backoffQuantaFor(attempt, 9));  // deterministic jitter
  }
}

// ---------------------------------------------------------------------------
// BlockCache degraded mode: quarantine on write-back failure
// ---------------------------------------------------------------------------

TEST(CacheQuarantine, FailedWritebackQuarantinesAndLandsAfterClear) {
  BlockDevice dev(8);
  FaultPolicy policy(13);
  extmem::MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2, BlockCache::WritePolicy::kWriteBack,
                   extmem::ReplacementKind::kLru);
  RetryPolicy rp;
  rp.max_attempts = 2;
  dev.setRetryPolicy(rp);

  const BlockId a = dev.allocate();
  const BlockId b = dev.allocate();
  const BlockId c = dev.allocate();
  cache.withOverwrite(a, [](std::span<Word> data) { data[0] = 111; });
  cache.withOverwrite(b, [](std::span<Word> data) { data[0] = 222; });

  // Make every write to `a` fault (sticky transient exhausts the retry
  // budget), then force an eviction: capacity 2 is full, so reading a
  // third block must evict — and the LRU victim is `a`.
  policy.failBlock(a);
  dev.setFaultPolicy(&policy);
  cache.withRead(c, [](std::span<const Word>) {});

  EXPECT_GT(cache.writebackFailures(), 0u);
  EXPECT_EQ(cache.quarantinedFrames(), 1u);
  // The dirty data survives in the quarantined frame and still hits.
  std::uint64_t held = 0;
  cache.withRead(a, [&](std::span<const Word> data) { held = data[0]; });
  EXPECT_EQ(held, 111u);

  // flush() reports the quarantined frame's fault but attempts everything.
  EXPECT_THROW(cache.flush(), IoError);
  EXPECT_EQ(cache.quarantinedFrames(), 1u);

  // The fault clears; the next barrier lands the frame and un-quarantines.
  policy.clear();
  EXPECT_NO_THROW(cache.flush());
  EXPECT_EQ(cache.quarantinedFrames(), 0u);
  cache.invalidate(a);  // drop the clean frame, then read the device copy
  std::uint64_t on_disk = 0;
  dev.withRead(a, [&](std::span<const Word> data) { on_disk = data[0]; });
  EXPECT_EQ(on_disk, 111u);
}

TEST(CacheQuarantine, EvictionMakesProgressPastQuarantinedFrames) {
  BlockDevice dev(8);
  FaultPolicy policy(13);
  extmem::MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2, BlockCache::WritePolicy::kWriteBack,
                   extmem::ReplacementKind::kLru);
  RetryPolicy rp;
  rp.max_attempts = 2;
  dev.setRetryPolicy(rp);

  std::vector<BlockId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(dev.allocate());
  cache.withOverwrite(ids[0], [](std::span<Word> data) { data[0] = 1; });
  cache.withOverwrite(ids[1], [](std::span<Word> data) { data[0] = 2; });
  policy.failBlock(ids[0]);
  policy.failBlock(ids[1]);
  dev.setFaultPolicy(&policy);

  // Both resident frames quarantine; later reads still succeed (the cache
  // runs degraded: quarantined frames pin capacity, the rest of the
  // traffic flows through insert/evict churn).
  for (int i = 2; i < 6; ++i) {
    EXPECT_NO_THROW(cache.withRead(ids[i], [](std::span<const Word>) {}));
  }
  EXPECT_EQ(cache.quarantinedFrames(), 2u);

  policy.clear();
  EXPECT_NO_THROW(cache.flush());
  EXPECT_EQ(cache.quarantinedFrames(), 0u);
}

TEST(CacheQuarantine, GiveUpEscalatesToPermanentAndCounts) {
  BlockDevice dev(8);
  FaultPolicy policy(13);
  extmem::MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2, BlockCache::WritePolicy::kWriteBack,
                   extmem::ReplacementKind::kLru);
  cache.setQuarantineGiveUpThreshold(3);
  RetryPolicy rp;
  rp.max_attempts = 2;
  dev.setRetryPolicy(rp);

  const BlockId a = dev.allocate();
  cache.withOverwrite(a, [](std::span<Word> data) { data[0] = 111; });
  policy.failBlock(a);  // sticky transient: every write-back attempt fails
  dev.setFaultPolicy(&policy);

  // Failures 1 and 2: the barrier reports the (transient-rooted) fault
  // but has not given up yet.
  EXPECT_THROW(cache.flush(), IoError);
  EXPECT_THROW(cache.flush(), IoError);
  EXPECT_EQ(cache.quarantineGaveUp(), 0u);

  // Failure 3 crosses the threshold: the NEXT barrier escalates to
  // PermanentIoError even though every underlying fault was transient,
  // and the give-up counter records the frame exactly once per streak.
  EXPECT_THROW(cache.flush(), IoError);
  EXPECT_EQ(cache.quarantineGaveUp(), 1u);
  EXPECT_THROW(cache.flush(), PermanentIoError);
  EXPECT_EQ(cache.quarantineGaveUp(), 1u);  // once per streak, not per flush

  // Give-up changes what the caller is told, not what the cache protects:
  // the data is retained and a cleared fault still lands it.
  policy.clear();
  EXPECT_NO_THROW(cache.flush());
  EXPECT_EQ(cache.quarantinedFrames(), 0u);
  cache.invalidate(a);
  std::uint64_t on_disk = 0;
  dev.withRead(a, [&](std::span<const Word> data) { on_disk = data[0]; });
  EXPECT_EQ(on_disk, 111u);
}

// ---------------------------------------------------------------------------
// Pipeline fail-stop and reset()
// ---------------------------------------------------------------------------

TEST(PipelineFailStop, PermanentFaultLatchesAndResetRecovers) {
  TestRig rig(8);
  FaultPolicy policy(17);
  GeneralConfig cfg;
  cfg.expected_n = 256;
  cfg.target_load = 0.5;
  auto table = makeTable(TableKind::kChaining, rig.context(), cfg);
  rig.device->setFaultPolicy(&policy);

  IngestPipeline pipe(*table, {.batch_capacity = 16});
  const auto keys = distinctKeys(64);
  for (const auto k : keys) pipe.insert(k, k + 1);
  EXPECT_NO_THROW(pipe.drain());

  // Arm a permanent fault on every further rmw: the next applied window
  // fail-stops the pipeline.
  policy.failOpNumber(IoOpKind::kRmw, policy.opCount(IoOpKind::kRmw) + 1,
                      FaultPolicy::Severity::kPermanent,
                      FaultPolicy::Durability::kSticky);
  const auto more = distinctKeys(64, /*seed=*/99);
  EXPECT_THROW(
      {
        for (const auto k : more) pipe.insert(k, k + 1);
        pipe.drain();
      },
      PermanentIoError);

  // Latched: further submits and barriers rethrow rather than hang.
  EXPECT_THROW(pipe.insert(1, 2), PermanentIoError);
  EXPECT_THROW(pipe.flush(), PermanentIoError);

  // The fault clears; reset() re-admits traffic.
  policy.clear();
  pipe.reset();
  EXPECT_NO_THROW({
    pipe.insert(12345, 1);
    pipe.drain();
  });
  EXPECT_EQ(table->lookup(12345), std::optional<std::uint64_t>(1));
}

TEST(PipelineFailStop, PendingLookupFuturesAllResolveOnWorkerFault) {
  TestRig rig(8);
  FaultPolicy policy(19);
  GeneralConfig cfg;
  cfg.expected_n = 256;
  cfg.target_load = 0.5;
  auto table = makeTable(TableKind::kChaining, rig.context(), cfg);
  policy.failOpNumber(IoOpKind::kRmw, 1, FaultPolicy::Severity::kPermanent,
                      FaultPolicy::Durability::kSticky);
  rig.device->setFaultPolicy(&policy);

  IngestPipeline pipe(*table, {.batch_capacity = 4});
  std::vector<std::future<std::optional<std::uint64_t>>> futures;
  // Race many lookups against the failing apply; fail-stop may reject late
  // submissions at the submit barrier, which is fine — every future we DID
  // obtain must resolve. Lookups target keys with no staged op so they go
  // to the worker rather than being answered from memory.
  try {
    for (std::uint64_t k = 0; k < 200; ++k) {
      pipe.insert(k, k + 1);
      futures.push_back(pipe.submitLookup(k + 1'000'000));
    }
  } catch (const IoError&) {
  }
  EXPECT_THROW(pipe.drain(), PermanentIoError);

  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready)
        << "a submitLookup future was left unresolved (broken promise)";
    try {
      (void)f.get();  // value or rethrown IoError — both fine, no hang
    } catch (const IoError&) {
    }
  }

  // reset() discards staged ops, fails leftover lookups, clears the latch.
  policy.clear();
  pipe.reset();
  EXPECT_NO_THROW({
    pipe.insert(7777, 8);
    pipe.drain();
  });
  EXPECT_EQ(table->lookup(7777), std::optional<std::uint64_t>(8));
}

// ---------------------------------------------------------------------------
// Sharded fault isolation
// ---------------------------------------------------------------------------

TEST(ShardIsolation, FaultedShardLatchesWhileHealthyShardsServe) {
  TestRig rig(8);
  FaultPolicy policy(23);
  tables::ShardedTableConfig config;
  config.shards = 4;
  config.inner = TableKind::kChaining;
  config.threads = 2;
  config.inner_config.expected_n = 256;
  config.inner_config.target_load = 0.5;
  ShardedTable table(rig.context(), config);

  const auto keys = distinctKeys(256);
  std::vector<Op> ops;
  for (const auto k : keys) ops.push_back(Op::insertOp(k, k + 1));
  table.applyBatch(ops);

  // Arm a sticky permanent fault on shard 0's next rmw; the other shards
  // keep clean devices.
  policy.failOpNumber(IoOpKind::kRmw, 1, FaultPolicy::Severity::kPermanent,
                      FaultPolicy::Durability::kSticky);
  table.shardDevice(0).setFaultPolicy(&policy);

  std::vector<Op> more;
  for (const auto k : distinctKeys(256, /*seed=*/31)) {
    more.push_back(Op::insertOp(k, k + 2));
  }
  EXPECT_THROW(table.applyBatch(more), PermanentIoError);

  // Exactly one shard latched; the report names it.
  EXPECT_EQ(table.failedShardCount(), 1u);
  EXPECT_TRUE(table.shardFailed(0));
  const auto errors = table.shardErrors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].shard, 0u);
  EXPECT_FALSE(errors[0].message.empty());

  // Healthy shards keep serving: the batch lookup rethrows the shard
  // fault, but every healthy shard's results are filled first.
  std::vector<std::optional<std::uint64_t>> out(keys.size());
  EXPECT_THROW(table.lookupBatch(keys, out), IoError);
  std::size_t served = 0;
  for (const auto& v : out) served += v.has_value();
  EXPECT_GT(served, keys.size() / 2);  // ~3/4 of keys live on healthy shards

  // Single ops routed to the faulted shard fail fast WITHOUT touching it:
  // the op counters on its device's policy stay put.
  const auto reads_before = policy.opCount(IoOpKind::kRead);
  const auto rmws_before = policy.opCount(IoOpKind::kRmw);
  std::size_t failed_fast = 0;
  for (const auto k : keys) {
    try {
      (void)table.lookup(k);
    } catch (const IoError&) {
      ++failed_fast;
    }
  }
  EXPECT_GT(failed_fast, 0u);
  EXPECT_EQ(policy.opCount(IoOpKind::kRead), reads_before);
  EXPECT_EQ(policy.opCount(IoOpKind::kRmw), rmws_before);

  // The fault clears; clearShardErrors() re-admits the shard.
  policy.clear();
  table.clearShardErrors();
  EXPECT_EQ(table.failedShardCount(), 0u);
  EXPECT_NO_THROW(table.applyBatch(more));
  EXPECT_EQ(table.lookup(more[0].key),
            std::optional<std::uint64_t>(more[0].value));
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, CheckFailureDumpsRecentSpansAndMetrics) {
  std::ostringstream sink;
  obs::FlightRecorderOptions options;
  options.sink = &sink;
  obs::FlightRecorder::arm(options);
  const auto dumps_before = obs::FlightRecorder::dumpCount();

  {
    obs::TraceSpan span("doomed-phase", "test");
    EXPECT_THROW(EXTHASH_CHECK_MSG(false, "chaos trigger"), CheckFailure);
  }
  obs::FlightRecorder::disarm();

  EXPECT_EQ(obs::FlightRecorder::dumpCount(), dumps_before + 1);
  const std::string dump = sink.str();
  EXPECT_NE(dump.find("flight recorder dump"), std::string::npos);
  EXPECT_NE(dump.find("chaos trigger"), std::string::npos);
  EXPECT_NE(dump.find("metrics snapshot"), std::string::npos);
}

TEST(FlightRecorder, PermanentIoErrorGiveUpDumps) {
  std::ostringstream sink;
  obs::FlightRecorderOptions options;
  options.sink = &sink;
  obs::FlightRecorder::arm(options);
  const auto dumps_before = obs::FlightRecorder::dumpCount();

  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  FaultPolicy policy(29);
  policy.failBlock(id, FaultPolicy::Severity::kPermanent,
                   FaultPolicy::Durability::kSticky);
  dev.setFaultPolicy(&policy);
  EXPECT_THROW(dev.withRead(id, [](std::span<const Word>) {}),
               PermanentIoError);
  obs::FlightRecorder::disarm();

  EXPECT_EQ(obs::FlightRecorder::dumpCount(), dumps_before + 1);
  EXPECT_NE(sink.str().find("permanent read fault"), std::string::npos);
}

TEST(FlightRecorder, RingBufferKeepsTheMostRecentSpans) {
  obs::TraceSession::Options topt;
  topt.ring = true;
  topt.buffer_events_per_thread = 4;
  obs::TraceSession session(topt);
  session.start();
  for (int i = 0; i < 10; ++i) {
    obs::TraceSpan span("span", "test");
  }
  session.stop();
  // 10 span events through a 4-slot ring: the ring holds the last 4 and
  // the overwritten ones count in dropped().
  EXPECT_EQ(session.eventCount(), 4u);
  EXPECT_GT(session.dropped(), 0u);
  std::ostringstream json;
  session.writeJson(json);
  EXPECT_NE(json.str().find("span"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Capstone: chaos equivalence sweep. Every kind (+ the sharded façade) in
// pipelined + cached + arbitrated mode, under a seeded transient-fault
// schedule, must produce the bit-exact lookup digest of the fault-free
// run — and the retry counters must prove the schedule actually fired.
// ---------------------------------------------------------------------------

constexpr std::size_t kChaosB = 8;
constexpr std::size_t kChaosOps = 2000;
constexpr std::size_t kChaosUniverse = 256;

std::uint64_t chaosDigest(ExternalHashTable& table,
                          const std::vector<std::uint64_t>& universe) {
  std::uint64_t sum = 0;
  for (const std::uint64_t key : universe) {
    const auto hit = table.lookup(key);
    if (hit) sum += splitmix64(key ^ *hit * 0x9E3779B97F4A7C15ULL);
  }
  return sum;
}

struct ChaosOutcome {
  std::uint64_t digest = 0;
  std::uint64_t faults = 0;
  std::uint64_t retries = 0;
  std::uint64_t gave_up = 0;
};

ChaosOutcome chaosRun(TableKind kind, std::uint64_t seed, bool faulted) {
  TestRig rig(kChaosB, /*memory_words=*/0, 42);
  // Declared before the cache and table: devices consult the policies
  // during the destructors' flush/free walks.
  std::vector<std::unique_ptr<FaultPolicy>> policies;
  std::optional<BlockCache> cache;

  GeneralConfig cfg;
  cfg.expected_n = kChaosUniverse;
  cfg.target_load = 0.5;
  cfg.buffer_items = 32;
  cfg.beta = 4;
  cfg.gamma = 2;
  cfg.shards = 4;
  cfg.sharded_inner = TableKind::kChaining;
  cfg.shard_threads = 2;
  cfg.shard_cache_frames = 8;
  cfg.shard_cache_write_back = true;
  auto table = makeTable(kind, rig.context(), cfg);

  // Cached: the sharded façade auto-attaches per-shard caches; everyone
  // else gets a small write-back cache on the context device (kinds that
  // do not honor a cache simply never touch it — still a valid lane).
  auto* sharded = dynamic_cast<ShardedTable*>(table.get());
  if (sharded == nullptr) {
    cache.emplace(*rig.device, *rig.memory, 4,
                  BlockCache::WritePolicy::kWriteBack,
                  extmem::ReplacementKind::kLru);
    table->attachCache(&*cache);
  }

  // Seeded transient chaos on every device the table touches. With
  // p = 0.02 per attempt and 8 attempts the chance of an escape is ~1e-14
  // per op: the faulted run must converge to the fault-free contents.
  const auto arm = [&](BlockDevice& dev, std::uint64_t stream) {
    auto policy = std::make_unique<FaultPolicy>(deriveSeed(seed, stream));
    policy->setFailureProbability(0.02);
    RetryPolicy rp;
    rp.max_attempts = 8;
    dev.setRetryPolicy(rp);
    dev.setFaultPolicy(policy.get());
    policies.push_back(std::move(policy));
  };
  if (faulted) {
    if (sharded != nullptr) {
      for (std::size_t s = 0; s < sharded->shardCount(); ++s) {
        arm(sharded->shardDevice(s), 100 + s);
      }
    } else {
      arm(*rig.device, 100);
    }
  }

  // kBuffered is the paper's insert-only distinct-key model: repeated
  // inserts of one key leave old versions shadow-visible, so its lookups
  // are only batch-boundary-invariant on a distinct-key stream. Everyone
  // else gets the mixed insert/update/erase churn over a small universe.
  const bool distinct_only = kind == TableKind::kBuffered;
  const auto universe =
      distinctKeys(distinct_only ? kChaosOps : kChaosUniverse, seed);
  {
    pipeline::PipelineConfig pc;
    pc.batch_capacity = 64;
    pc.max_pending_batches = 2;
    pc.budget = rig.memory.get();
    IngestPipeline pipe(*table, pc);

    extmem::ArbiterConfig ac;
    ac.slots_per_frame = 4;
    MemoryArbiter arbiter(ac);
    if (sharded != nullptr) {
      sharded->registerCaches(arbiter);
    } else {
      arbiter.addCache(&*cache);
    }
    IngestPipeline* p = &pipe;
    arbiter.setStaging(
        [p](std::size_t slots) { p->setWindowCapacity(slots); },
        [p] {
          const auto s = p->stats();
          return extmem::StagingSignals{s.ops_coalesced, s.submit_waits};
        },
        pc.batch_capacity);

    Xoshiro256StarStar rng(deriveSeed(seed, 5));
    std::vector<std::future<std::optional<std::uint64_t>>> lookups;
    for (std::size_t i = 0; i < kChaosOps; ++i) {
      const std::uint64_t key =
          distinct_only ? universe[i] : universe[rng.below(universe.size())];
      if (!distinct_only && i % 9 == 7) {
        pipe.erase(key);
      } else {
        pipe.insert(key, i + 1);
      }
      if (i % 97 == 50) lookups.push_back(pipe.submitLookup(key));
      if (i % 512 == 511) {
        pipe.submitMaintenance([a = &arbiter] { a->rebalance(); });
      }
    }
    pipe.drain();
    // Transient mode: every future resolves with a value, never an error —
    // the retries absorb the whole schedule below the pipeline.
    for (auto& f : lookups) (void)f.get();
  }
  table->flushCache();

  ChaosOutcome out;
  out.digest = chaosDigest(*table, universe);
  const auto io = table->ioStats();
  for (const auto& policy : policies) out.faults += policy->faultsInjected();
  out.retries = io.io_retries;
  out.gave_up = io.io_gave_up;
  // Every injected fault was transient and absorbed: one retry each.
  if (faulted) EXPECT_EQ(out.retries, out.faults);
  return out;
}

class ChaosEquivalenceTest : public ::testing::TestWithParam<TableKind> {};

TEST_P(ChaosEquivalenceTest, TransientFaultsPreserveContentsBitExact) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const ChaosOutcome clean = chaosRun(GetParam(), seed, /*faulted=*/false);
    const ChaosOutcome chaos = chaosRun(GetParam(), seed, /*faulted=*/true);
    EXPECT_EQ(chaos.digest, clean.digest)
        << tableKindName(GetParam()) << " diverged under chaos seed " << seed;
    EXPECT_GT(chaos.faults, 0u)
        << "schedule never fired (seed " << seed << ")";
    EXPECT_GT(chaos.retries, 0u);
    EXPECT_EQ(chaos.gave_up, 0u);
    EXPECT_EQ(clean.faults, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ChaosEquivalenceTest,
    ::testing::ValuesIn(tables::kAllTableKindsWithSharded),
    [](const ::testing::TestParamInfo<TableKind>& info) {
      std::string name(tableKindName(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Permanent-fault schedule: the pipeline fail-stops with every future
// resolved, the faulted shard latches, and the healthy shards keep
// serving through the façade.
TEST(ChaosPermanent, PipelineFailStopsAndHealthyShardsServe) {
  TestRig rig(kChaosB, /*memory_words=*/0, 42);
  FaultPolicy policy(37);
  tables::ShardedTableConfig config;
  config.shards = 4;
  config.inner = TableKind::kChaining;
  config.threads = 2;
  config.inner_config.expected_n = kChaosUniverse;
  config.inner_config.target_load = 0.5;
  ShardedTable table(rig.context(), config);

  const auto universe = distinctKeys(kChaosUniverse, 7);
  {
    IngestPipeline pipe(table, {.batch_capacity = 32});
    for (std::size_t i = 0; i < universe.size(); ++i) {
      pipe.insert(universe[i], i + 1);
    }
    pipe.drain();

    // Shard 2 goes permanently bad mid-stream.
    policy.failOpNumber(IoOpKind::kRmw, 1, FaultPolicy::Severity::kPermanent,
                        FaultPolicy::Durability::kSticky);
    table.shardDevice(2).setFaultPolicy(&policy);

    std::vector<std::future<std::optional<std::uint64_t>>> lookups;
    try {
      for (std::size_t i = 0; i < universe.size(); ++i) {
        pipe.insert(universe[i], 1000 + i);
        lookups.push_back(pipe.submitLookup(universe[i]));
      }
    } catch (const IoError&) {
    }
    EXPECT_THROW(pipe.drain(), PermanentIoError);

    // Fail-stopped, not hung: every obtained future resolves.
    for (auto& f : lookups) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                std::future_status::ready);
      try {
        (void)f.get();
      } catch (const IoError&) {
      }
    }
  }  // pipeline destructor tolerates the latched state

  // The façade isolated the fault to one shard...
  EXPECT_EQ(table.failedShardCount(), 1u);
  EXPECT_TRUE(table.shardFailed(2));
  // ...and healthy shards keep serving through the batch path.
  std::vector<std::optional<std::uint64_t>> out(universe.size());
  EXPECT_THROW(table.lookupBatch(universe, out), IoError);
  std::size_t served = 0;
  for (const auto& v : out) served += v.has_value();
  EXPECT_GT(served, universe.size() / 2);

  // Recovery: fault cleared, shard re-admitted, pipeline traffic resumes.
  policy.clear();
  table.clearShardErrors();
  IngestPipeline pipe(table, {.batch_capacity = 32});
  EXPECT_NO_THROW({
    for (std::size_t i = 0; i < universe.size(); ++i) {
      pipe.insert(universe[i], 5000 + i);
    }
    pipe.drain();
  });
  EXPECT_EQ(table.lookup(universe[0]), std::optional<std::uint64_t>(5000));
}

}  // namespace
}  // namespace exthash
