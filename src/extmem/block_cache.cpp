#include "extmem/block_cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/assert.h"

namespace exthash::extmem {

namespace {
// Occupancy/dirty gauges are point-in-time: sampling them every access
// would dominate the hit path, so with the telemetry latch on the cache
// snapshots them every kObsSamplePeriod fetch-path accesses.
constexpr std::uint64_t kObsSamplePeriod = 1024;
}  // namespace

// Gauge + trace-counter snapshot of the cache's occupancy shape.
void BlockCache::obsSampleGauges() const {
  EXTHASH_OBS_GAUGE("exthash_cache_resident_frames", frames_.size());
  EXTHASH_OBS_GAUGE("exthash_cache_capacity_frames", capacity_blocks_);
  EXTHASH_OBS_GAUGE("exthash_cache_dirty_frames", dirty_blocks_);
  EXTHASH_OBS_COUNTER_SAMPLE("cache resident", frames_.size());
  EXTHASH_OBS_COUNTER_SAMPLE("cache dirty", dirty_blocks_);
}

BlockCache::BlockCache(BlockDevice& device, MemoryBudget& budget,
                       std::size_t capacity_blocks, WritePolicy policy,
                       ReplacementKind replacement)
    : device_(device),
      charge_(budget, capacity_blocks * device.wordsPerBlock()),
      capacity_blocks_(capacity_blocks),
      policy_(policy),
      replacement_kind_(replacement),
      replacement_(makeReplacementPolicy(replacement, budget,
                                         capacity_blocks)) {
  EXTHASH_CHECK(capacity_blocks >= 1);
}

BlockCache::~BlockCache() {
  try {
    flush();
  } catch (...) {
    // A write-back faulting during teardown has nowhere to report; the
    // explicit flush barriers are where callers observe it.
  }
}

void BlockCache::markDirty(Frame& frame) {
  if (!frame.dirty) {
    frame.dirty = true;
    ++dirty_blocks_;
  }
}

void BlockCache::rechargeForResidency() {
  // The paper's m-word model sees every resident frame: pinned frames can
  // push residency past capacity for a nesting's duration, and that
  // transient memory is charged too (and released as eviction drains it).
  charge_.resize(std::max(capacity_blocks_, frames_.size()) *
                 device_.wordsPerBlock());
}

BlockCache::Frame& BlockCache::insertFrame(BlockId id, Frame frame) {
  // Shrink to capacity first (this also drains any over-capacity frames
  // left behind while everything evictable was pinned).
  while (frames_.size() >= capacity_blocks_ && evictOne()) {
  }
  auto [ins, ok] = frames_.emplace(id, std::move(frame));
  // Per-miss touch path: debug-only (the partition audit catches a
  // double-resident id at the next barrier in Release).
  EXTHASH_DCHECK(ok);
  (void)ok;
  if (ins->second.dirty) ++dirty_blocks_;
  replacement_->onInsert(id);
  rechargeForResidency();
  return ins->second;
}

BlockCache::Frame& BlockCache::fetch(BlockId id, bool mark_dirty) {
  if (obs::enabled() && ++obs_accesses_ % kObsSamplePeriod == 0) {
    obsSampleGauges();
  }
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    ++hits_;
    EXTHASH_OBS_COUNT("exthash_cache_hits_total", 1);
    replacement_->onHit(id);
    if (mark_dirty) markDirty(it->second);
    return it->second;
  }

  ++misses_;
  EXTHASH_OBS_COUNT("exthash_cache_misses_total", 1);
  replacement_->onMiss(id);  // ghost lookup / adaptation, pre-eviction
  Frame frame;
  frame.data.resize(device_.wordsPerBlock());
  device_.withRead(id, [&](std::span<const Word> data) {
    std::copy(data.begin(), data.end(), frame.data.begin());
  });
  frame.dirty = mark_dirty;
  return insertFrame(id, std::move(frame));
}

BlockCache::Frame& BlockCache::installZeroed(BlockId id) {
  // Either branch costs zero device I/O (the caller overwrites
  // everything, so the device copy is never needed), which is what the
  // hit telemetry counts; the policy still sees a non-resident install as
  // a miss-admission so its queues mirror residency.
  ++hits_;
  EXTHASH_OBS_COUNT("exthash_cache_hits_total", 1);
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    replacement_->onHit(id);
    std::fill(it->second.data.begin(), it->second.data.end(), Word{0});
    markDirty(it->second);
    return it->second;
  }
  replacement_->onMiss(id);
  Frame frame;
  frame.data.assign(device_.wordsPerBlock(), Word{0});
  frame.dirty = true;
  return insertFrame(id, std::move(frame));
}

void BlockCache::quarantine(BlockId id, Frame& frame) {
  ++writeback_failures_;
  EXTHASH_OBS_COUNT("exthash_cache_writeback_failures_total", 1);
  if (!frame.quarantined) {
    frame.quarantined = true;
    ++quarantined_frames_;
    EXTHASH_OBS_GAUGE("exthash_cache_quarantined_frames",
                      quarantined_frames_);
  }
  // Give-up endgame: N consecutive failures escalate the NEXT flush
  // barrier to a PermanentIoError (see the header). Counted once per
  // streak; a successful write-back resets both (writeBack()).
  if (++frame.consecutive_failures >= give_up_threshold_ && !frame.gave_up) {
    frame.gave_up = true;
    ++quarantine_gave_up_;
    EXTHASH_OBS_COUNT("exthash_cache_quarantine_gave_up_total", 1);
  }
  (void)id;
}

void BlockCache::writeBack(BlockId id, Frame& frame) {
  if (!frame.dirty) return;
  if (!device_.isAllocated(id)) {
    // Owner freed the block; drop silently.
    frame.dirty = false;
    --dirty_blocks_;
    return;
  }
  // Device write FIRST, bookkeeping after: if the write faults, the frame
  // must still read as dirty (the cached copy is the only surviving one).
  device_.withOverwrite(id, [&](std::span<Word> data) {
    std::copy(frame.data.begin(), frame.data.end(), data.begin());
  });
  frame.dirty = false;
  --dirty_blocks_;
  if (frame.quarantined) {
    frame.quarantined = false;
    --quarantined_frames_;
  }
  frame.consecutive_failures = 0;
  frame.gave_up = false;
  ++writebacks_;
  EXTHASH_OBS_COUNT("exthash_cache_writebacks_total", 1);
}

bool BlockCache::evictOne() {
  // Per-eviction policy-contract checks are debug-only: a policy that
  // proposes a non-resident victim is caught by the partition audit at
  // the next barrier, and Release eviction stays two map probes.
  const auto evictable = [this](BlockId id) {
    auto it = frames_.find(id);
    EXTHASH_DCHECK_MSG(it != frames_.end(),
                       "policy proposed a non-resident victim " << id);
    return it != frames_.end() && it->second.pins == 0 &&
           !it->second.quarantined;
  };
  const std::optional<BlockId> victim = replacement_->chooseEvict(evictable);
  if (!victim) return false;
  auto it = frames_.find(*victim);
  EXTHASH_CHECK(it != frames_.end());
  EXTHASH_DCHECK(it->second.pins == 0);
  try {
    writeBack(*victim, it->second);
  } catch (const IoError&) {
    // Degraded mode: the dirty data survives in the frame. chooseEvict
    // already retired the victim (possibly into a ghost list), so
    // re-enter it as resident — onRemove scrubs any ghost entry first,
    // keeping the policy/cache partition audit-exact — and quarantine it
    // so the next chooseEvict cannot propose it again. That makes a
    // faulted eviction still count as progress for the caller's loop.
    replacement_->onRemove(*victim);
    replacement_->onInsert(*victim);
    quarantine(*victim, it->second);
    return true;
  }
  frames_.erase(it);
  rechargeForResidency();
  EXTHASH_OBS_COUNT("exthash_cache_evictions_total", 1);
  return true;
}

void BlockCache::flush() {
  // Attempt EVERY dirty frame before reporting, so one bad sector cannot
  // stop the rest of the barrier from landing; quarantined frames are
  // re-attempted here (this is their road back after the fault clears).
  std::exception_ptr first_error;
  BlockId gave_up_block = kInvalidBlock;
  for (auto& [id, frame] : frames_) {
    try {
      writeBack(id, frame);
    } catch (const IoError&) {
      quarantine(id, frame);
      if (frame.gave_up && gave_up_block == kInvalidBlock) {
        gave_up_block = id;
      }
      if (!first_error) first_error = std::current_exception();
    }
  }
  // Escalation outranks the raw fault: a frame past the give-up threshold
  // makes the barrier permanent even if each individual fault was
  // transient — "keep retrying forever" is not an answer the caller can
  // act on. The data itself is still retained and re-attempted later.
  if (gave_up_block != kInvalidBlock) {
    throw PermanentIoError(
        IoOpKind::kWrite, gave_up_block, give_up_threshold_,
        "write-back quarantine gave up after repeated failures");
  }
  if (first_error) std::rethrow_exception(first_error);
}

void BlockCache::discardAll() {
  std::vector<BlockId> ghost_ids;
  replacement_->visitGhosts([&](BlockId id) { ghost_ids.push_back(id); });
  for (const BlockId id : ghost_ids) replacement_->onRemove(id);
  for (auto& [id, frame] : frames_) {
    EXTHASH_CHECK_MSG(frame.pins == 0,
                      "discardAll while a callback holds block " << id);
    replacement_->onRemove(id);
  }
  frames_.clear();
  dirty_blocks_ = 0;
  quarantined_frames_ = 0;
  rechargeForResidency();
}

void BlockCache::resize(std::size_t capacity_blocks) {
  if (capacity_blocks == capacity_blocks_) return;
  if (capacity_blocks > capacity_blocks_) {
    // Grow: charge the policy's larger ghost directory and the new frames
    // up front. Either charge may throw BudgetExceeded; the rollback
    // leaves capacity, charge, and policy quotas at their old values.
    const std::size_t old_capacity = capacity_blocks_;
    replacement_->resizeCapacity(capacity_blocks);
    capacity_blocks_ = capacity_blocks;
    try {
      rechargeForResidency();
    } catch (...) {
      capacity_blocks_ = old_capacity;
      replacement_->resizeCapacity(old_capacity);
      throw;
    }
    return;
  }
  // Shrink: flush-and-evict the policy's coldest tail down to the new
  // capacity (skipping pinned frames — see the header), then let the
  // policy trim ghosts and release its charge.
  capacity_blocks_ = capacity_blocks;
  while (frames_.size() > capacity_blocks_ && evictOne()) {
  }
  rechargeForResidency();
  replacement_->resizeCapacity(capacity_blocks);
}

void BlockCache::invalidate(BlockId id) {
  auto it = frames_.find(id);
  // Reject pinned frames BEFORE touching any state: the CheckFailure is
  // documented as catchable, and a partial invalidation would leave the
  // policy desynced from the resident set.
  EXTHASH_CHECK_MSG(it == frames_.end() || it->second.pins == 0,
                    "invalidating block " << id
                        << " while a callback holds its span");
  // Drop policy state even for a non-resident id — it may have a ghost
  // entry, and the owner is about to recycle the id.
  replacement_->onRemove(id);
  if (it == frames_.end()) return;
  if (it->second.dirty) --dirty_blocks_;
  if (it->second.quarantined) --quarantined_frames_;
  frames_.erase(it);
  rechargeForResidency();
}

void BlockCache::refreshFromDevice(BlockId id) {
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    ++hits_;
    EXTHASH_OBS_COUNT("exthash_cache_hits_total", 1);
    device_.inspect(id, [&](std::span<const Word> data) {
      std::copy(data.begin(), data.end(), it->second.data.begin());
    });
    if (it->second.dirty) {
      it->second.dirty = false;
      --dirty_blocks_;
    }
    // The write is a use of the block: promote it so a hot written page
    // cannot be evicted ahead of a cold read page.
    replacement_->onHit(id);
    return;
  }
  // Write-allocate: the device write that triggered this refresh was a
  // genuine use of a block the cache did not hold, so it counts as a miss
  // and installs the freshly written contents — at zero additional device
  // I/O (the counted I/O was the write itself; the copy-in is the same
  // uncounted transfer as the resident refresh above). This is what makes
  // write-through recency and hit/miss telemetry match write-back, whose
  // write path fetches and admits the same way.
  ++misses_;
  EXTHASH_OBS_COUNT("exthash_cache_misses_total", 1);
  replacement_->onMiss(id);
  Frame frame;
  device_.inspect(id, [&](std::span<const Word> data) {
    frame.data.assign(data.begin(), data.end());
  });
  insertFrame(id, std::move(frame));
}

void BlockCache::audit(AuditReport& report) const {
  const char* kComponent = "block-cache";

  // Partition agreement, direction 1: every id the policy believes
  // resident must have a frame, exactly once.
  std::size_t policy_resident = 0;
  replacement_->visitResident([&](BlockId id) {
    ++policy_resident;
    EXTHASH_AUDIT_EXPECT(report, kComponent, frames_.count(id) == 1,
                         "policy-resident id " << id << " has no frame");
  });
  // Direction 2: equal cardinality makes the subset relation an equality
  // (no frame the policy forgot).
  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       policy_resident == frames_.size(),
                       "policy tracks " << policy_resident
                           << " resident ids, cache holds "
                           << frames_.size() << " frames");

  // Ghosts are evicted-id memory: a ghost that is also resident would let
  // id reuse fake a reuse signal.
  std::size_t ghosts = 0;
  replacement_->visitGhosts([&](BlockId id) {
    ++ghosts;
    EXTHASH_AUDIT_EXPECT(report, kComponent, frames_.count(id) == 0,
                         "ghost id " << id << " is still resident");
  });
  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       ghosts == replacement_->ghostEntries(),
                       "ghost lists hold " << ghosts
                           << " ids, ghostEntries() reports "
                           << replacement_->ghostEntries());

  // Flag accounting: the dirty counter mirrors the dirty bits; a
  // write-through cache never holds a dirty frame; at a quiescent barrier
  // no frame is pinned, and every resident id is still allocated (frees
  // go through invalidate()).
  std::size_t dirty = 0;
  std::size_t quarantined = 0;
  for (const auto& [id, frame] : frames_) {
    if (frame.dirty) ++dirty;
    if (frame.quarantined) {
      ++quarantined;
      EXTHASH_AUDIT_EXPECT(report, kComponent, frame.dirty,
                           "quarantined frame " << id
                               << " is clean — quarantine exists only to "
                                  "protect unlanded dirty data");
    }
    EXTHASH_AUDIT_EXPECT(report, kComponent, frame.pins == 0,
                         "frame " << id << " pinned (" << frame.pins
                                  << ") at a quiescent audit");
    EXTHASH_AUDIT_EXPECT(report, kComponent, device_.isAllocated(id),
                         "resident frame " << id
                                           << " maps a freed block");
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         frame.data.size() == device_.wordsPerBlock(),
                         "frame " << id << " holds " << frame.data.size()
                                  << " words, device block is "
                                  << device_.wordsPerBlock());
  }
  EXTHASH_AUDIT_EXPECT(report, kComponent, dirty == dirty_blocks_,
                       dirty << " dirty frames, counter says "
                             << dirty_blocks_);
  EXTHASH_AUDIT_EXPECT(report, kComponent, quarantined == quarantined_frames_,
                       quarantined << " quarantined frames, counter says "
                                   << quarantined_frames_);
  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       policy_ == WritePolicy::kWriteBack || dirty == 0,
                       "write-through cache holds " << dirty
                                                    << " dirty frames");

  // Budget charge reconciliation: the frame charge follows
  // max(capacity, residency) — transient pin-driven over-residency is
  // charged like any memory (rechargeForResidency's contract) — and the
  // policy's ghost charge covers its live ghost entries.
  const std::size_t expected_words =
      std::max(capacity_blocks_, frames_.size()) * device_.wordsPerBlock();
  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       charge_.words() == expected_words,
                       "frame charge " << charge_.words()
                           << " words, expected " << expected_words);
  EXTHASH_AUDIT_EXPECT(
      report, kComponent,
      replacement_->chargedWords() >= ghosts * kGhostEntryWords,
      "policy charges " << replacement_->chargedWords()
                        << " words for " << ghosts << " ghosts (>= "
                        << ghosts * kGhostEntryWords << " required)");
}

}  // namespace exthash::extmem
