// Block cache layered over a BlockDevice, with pluggable replacement.
//
// Models "use the memory as a cache" instead of "use the memory as an
// insert buffer". Cache hits cost zero I/Os; misses read through (counted
// on the underlying device).
//
// Replacement is a strategy (see extmem/replacement_policy.h): LRU, 2Q, or
// ARC. The batch fast paths emit bucket-grouped — i.e. sorted, cyclically
// sweeping — access runs, which are LRU's worst case below full residency;
// the scan-resistant policies keep the proven-hot set resident through
// those sweeps. The ABL-CACHE ablation quantifies the difference.
//
// Write policies:
//   kWriteThrough — writes go directly to the device (counted rmw); the
//                   cached copy is refreshed afterwards. Reads may hit.
//   kWriteBack    — writes mutate the cached frame only (a miss costs one
//                   read to load it; a blind overwrite costs nothing);
//                   dirty frames reach the device as one counted write on
//                   eviction or flush(). Between flushes the CACHE,
//                   not the device, is authoritative for dirty blocks —
//                   anything that reads the device directly (inspect(),
//                   visitLayout, destroy walks) must flush() first.
//
// Degraded mode under I/O faults (see extmem/fault.h): a write-back that
// fails — the device's retry budget exhausted, or a permanent fault —
// never drops the dirty data. The frame stays dirty and resident and is
// QUARANTINED: excluded from eviction (like a pinned frame, so the
// replacement policy's bookkeeping stays exact) while the cache runs over
// capacity if it must. flush() re-attempts every dirty frame, quarantined
// ones included, un-quarantining those that finally reach the device; if
// any still fail, flush() throws the first IoError after attempting all,
// so the flush barrier reports the fault while the data stays safe for
// the next barrier after the fault clears.
//
// Telemetry contract: hits() and misses() count block USES through the
// cache, not device reads. A hit found (or, on the write-through refresh
// path, updated) a resident frame; a miss found none. In particular
// refreshFromDevice — the uncounted refresh after a write-through device
// write — records a hit when the frame is resident and a miss (with a
// write-allocate install of the just-written contents, at zero counted
// I/O) when it is not, so write-through recency statistics and cache
// population match write-back, whose write path goes through fetch and
// counts the same way. ghostHits() and adaptiveTarget() surface the
// replacement policy's internals (see replacement_policy.h).
//
// The paper's lower bound applies to caching as a special case of
// buffering — the ABL-CACHE ablation benchmark quantifies that. The cache
// charges the memory budget for its frames, and the policy charges its
// ghost-list metadata on top.
//
// Threading: the cache is thread-COMPATIBLE, not thread-safe — it holds
// no mutex by design (the hot path is a hash-map probe and a splice, and
// every deployment already serializes it externally: each instance is
// touched only by its owning shard thread inside a batch, or by the one
// pipeline worker; resizes happen at quiescent points only, see
// resize()). There is deliberately nothing to annotate for
// -Wthread-safety here; the compile-time-verified locks live in
// ThreadPool and IngestPipeline (util/thread_annotations.h), whose
// serialization is what makes this contract hold. audit() checks the
// structure those serialized users maintain.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/replacement_policy.h"
#include "util/audit.h"

namespace exthash::extmem {

class BlockCache {
 public:
  enum class WritePolicy { kWriteThrough, kWriteBack };

  BlockCache(BlockDevice& device, MemoryBudget& budget,
             std::size_t capacity_blocks,
             WritePolicy policy = WritePolicy::kWriteThrough,
             ReplacementKind replacement = ReplacementKind::kLru);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Counted read via the cache: hit = 0 I/O, miss = 1 read on the device.
  ///
  /// The frame is PINNED for the duration of fn: the tables' guarded
  /// scopes allocate and write fresh blocks while holding a span into the
  /// current block (the chain-rewrite idiom, safe on the device, whose
  /// nested accesses take frames of their own), so a nested cache access
  /// must never evict — and destroy — the frame the outer span points
  /// into. Pinned frames are skipped by eviction; the cache may exceed
  /// capacity by the nesting depth until the next unpinned access shrinks
  /// it back.
  template <class F>
  decltype(auto) withRead(BlockId id, F&& fn) {
    Frame& frame = fetch(id, /*mark_dirty=*/false);
    const PinGuard pin(frame);
    return std::forward<F>(fn)(
        std::span<const Word>(frame.data.data(), frame.data.size()));
  }

  /// Counted read-modify-write via the cache (policy-dependent, see the
  /// file comment). Propagates fn's return value. Write-back pins the
  /// frame across fn (see withRead).
  template <class F>
  decltype(auto) withWrite(BlockId id, F&& fn) {
    if (policy_ == WritePolicy::kWriteThrough) {
      // Straight to the device (one rmw), then refresh any cached copy so
      // future hits observe the new contents.
      return detail::invokeThen(
          [&]() -> decltype(auto) {
            return device_.withWrite(id, std::forward<F>(fn));
          },
          [&] { refreshFromDevice(id); });
    }
    Frame& frame = fetch(id, /*mark_dirty=*/true);
    const PinGuard pin(frame);
    return std::forward<F>(fn)(
        std::span<Word>(frame.data.data(), frame.data.size()));
  }

  /// Counted blind write via the cache. Write-through: one counted device
  /// write, then refresh. Write-back: installs a zeroed dirty frame with
  /// NO device I/O at all (the previous contents are irrelevant, so a miss
  /// needs no read); the single counted write happens at eviction/flush.
  /// Write-back pins the frame across fn (see withRead).
  template <class F>
  decltype(auto) withOverwrite(BlockId id, F&& fn) {
    if (policy_ == WritePolicy::kWriteThrough) {
      return detail::invokeThen(
          [&]() -> decltype(auto) {
            return device_.withOverwrite(id, std::forward<F>(fn));
          },
          [&] { refreshFromDevice(id); });
    }
    Frame& frame = installZeroed(id);
    const PinGuard pin(frame);
    return std::forward<F>(fn)(
        std::span<Word>(frame.data.data(), frame.data.size()));
  }

  /// Flush all dirty frames (write-back mode) to the device, re-attempting
  /// quarantined ones. After a successful flush the device is
  /// authoritative for every resident block. If a write-back faults, the
  /// frame is quarantined (data retained) and the first IoError is
  /// rethrown after every frame was attempted.
  void flush();

  /// Re-target the cache to `capacity_blocks` frames at runtime — the
  /// memory arbiter's lever (see extmem/memory_arbiter.h). Growing admits
  /// frames lazily (capacity + budget charge rise now; frames fill on
  /// future misses) and may throw BudgetExceeded with the old capacity
  /// intact. Shrinking flush-and-evicts from the policy's coldest tail:
  /// dirty victims are written back (counted device writes), pinned
  /// frames are skipped — the cache then runs over the new capacity until
  /// the pin nesting unwinds, and that transient residency stays charged.
  /// resize(0) is allowed (the shrink-to-nothing edge an arbiter can
  /// reach): every subsequent access still completes, holding at most the
  /// one frame it is using, which the next access evicts.
  /// NOT thread-safe against concurrent cache users — callers serialize
  /// resizes with accesses and flushes (the pipeline's maintenance-task
  /// hook is the provided quiescent point).
  void resize(std::size_t capacity_blocks);

  /// Widen the replacement policy's ghost directories to scout at
  /// `frames` even when the current capacity is smaller (see
  /// replacement_policy.h). The memory arbiter sets this to its total so
  /// a squeezed cache keeps producing ghost hits — the evidence that
  /// growing it back would pay. No-op for ghostless policies (LRU).
  void setGhostHorizon(std::size_t frames) {
    replacement_->setGhostHorizon(frames);
  }

  /// Drop a block from the cache (e.g. after the owner frees it). Dirty
  /// contents are discarded — a freed block's data must never be written
  /// over a reused id. Ghost-list entries for the id are dropped too, so
  /// id reuse cannot fake a reuse signal to the policy.
  void invalidate(BlockId id);

  /// Drop EVERY frame and every ghost without any write-back — the
  /// recovery primitive: after a crash the device image has been rewound
  /// underneath the cache, so every cached byte (dirty or clean) is a
  /// stale view of a world that no longer exists. Requires a quiescent
  /// point (no pinned frames). Counters (hits/misses/writebacks) survive;
  /// dirty/quarantine accounting resets with the frames.
  void discardAll();

  /// Refresh the cached copy of `id` from the device (uncounted). Used by
  /// write paths that hit the device directly so later cached reads
  /// observe the new contents — the write is a genuine use of the block,
  /// so it counts in the hit/miss telemetry and as a policy touch (see
  /// the file comment): resident = hit + promote, non-resident = miss +
  /// write-allocate install of the written contents.
  void refreshFromDevice(BlockId id);

  WritePolicy policy() const noexcept { return policy_; }
  ReplacementKind replacementKind() const noexcept { return replacement_kind_; }
  std::string_view replacementName() const noexcept {
    return replacement_->name();
  }
  BlockDevice& device() const noexcept { return device_; }

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  /// Dirty frames written to the device so far (evictions + flushes).
  std::uint64_t writebacks() const noexcept { return writebacks_; }
  /// Write-backs that faulted past the device's retry budget (each one
  /// quarantined a frame; a later successful flush un-quarantines it).
  std::uint64_t writebackFailures() const noexcept {
    return writeback_failures_;
  }
  /// Frames currently quarantined (dirty, excluded from eviction).
  std::size_t quarantinedFrames() const noexcept {
    return quarantined_frames_;
  }
  /// Quarantined frames that crossed the consecutive-failure threshold
  /// (see setQuarantineGiveUpThreshold): each one made a later flush()
  /// surface a PermanentIoError instead of looping silently.
  std::uint64_t quarantineGaveUp() const noexcept {
    return quarantine_gave_up_;
  }
  /// After `n` CONSECUTIVE failed write-back attempts of the same frame,
  /// flush() escalates: the barrier throws PermanentIoError (even when
  /// the underlying faults were transient) and quarantine_gave_up counts
  /// the frame. The frame's data is still retained and still re-attempted
  /// at later barriers — give-up changes what the caller is told, not
  /// what the cache protects. A successful write-back resets the streak.
  void setQuarantineGiveUpThreshold(std::uint32_t n) noexcept {
    give_up_threshold_ = n == 0 ? 1 : n;
  }
  std::uint32_t quarantineGiveUpThreshold() const noexcept {
    return give_up_threshold_;
  }
  /// Misses that hit the policy's ghost directory (see
  /// replacement_policy.h; always 0 for LRU).
  std::uint64_t ghostHits() const noexcept { return replacement_->ghostHits(); }
  /// The policy's adaptive balance target (ARC's p, in blocks; 0 for
  /// non-adaptive policies).
  double adaptiveTarget() const noexcept {
    return replacement_->adaptiveTarget();
  }
  double hitRate() const noexcept {
    const double total = static_cast<double>(hits_ + misses_);
    return total > 0 ? static_cast<double>(hits_) / total : 0.0;
  }
  std::size_t capacityBlocks() const noexcept { return capacity_blocks_; }
  std::size_t residentBlocks() const noexcept { return frames_.size(); }
  std::size_t dirtyBlocks() const noexcept { return dirty_blocks_; }
  std::size_t ghostEntries() const noexcept {
    return replacement_->ghostEntries();
  }
  /// Words this cache charges to the budget for its frames (the policy's
  /// ghost metadata charge is separate — see policyChargedWords).
  std::size_t chargedWords() const noexcept { return charge_.words(); }
  /// Words the replacement policy charges for its ghost directories.
  std::size_t policyChargedWords() const noexcept {
    return replacement_->chargedWords();
  }

  /// Cross-subsystem audit (see util/audit.h): cache-vs-policy partition
  /// agreement (the policy's resident set must equal the frame map, its
  /// ghosts must be disjoint from it), dirty/pin flag accounting, and the
  /// budget charge reconciliation charge == max(capacity, residency) ·
  /// wordsPerBlock. Must run at a quiescent point — no access in flight,
  /// no frame pinned (pinned frames are reported as findings).
  void audit(AuditReport& report) const;

 private:
  // Frames live in unordered_map nodes, so references stay valid while
  // OTHER frames come and go — only erasing the frame itself invalidates
  // them, which is exactly what pinning forbids.
  struct Frame {
    std::vector<Word> data;
    bool dirty = false;
    // Write-back to the device faulted: keep the data, skip eviction
    // until a flush barrier lands it (see the file comment).
    bool quarantined = false;
    int pins = 0;  // > 0: a caller holds a span into `data`; not evictable
    // Consecutive failed write-back attempts; crossing the give-up
    // threshold sets gave_up (sticky until a write-back succeeds) and
    // escalates the flush barrier to PermanentIoError.
    std::uint32_t consecutive_failures = 0;
    bool gave_up = false;
  };

  /// RAII pin for the duration of a callback (exception-safe).
  struct PinGuard {
    explicit PinGuard(Frame& frame) : frame(frame) { ++frame.pins; }
    ~PinGuard() { --frame.pins; }
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;
    Frame& frame;
  };

  Frame& fetch(BlockId id, bool mark_dirty);
  /// Resident-or-new zeroed frame for a blind write (write-back only):
  /// never reads the device, always leaves the frame dirty.
  Frame& installZeroed(BlockId id);
  Frame& insertFrame(BlockId id, Frame frame);
  /// Keep the budget charge in step with max(capacity, residency) so
  /// transient pin-driven over-capacity is accounted like any memory.
  void rechargeForResidency();
  void markDirty(Frame& frame);
  void quarantine(BlockId id, Frame& frame);
  /// Ask the policy for an unpinned, unquarantined victim and evict it;
  /// false if every resident frame is rejected (the cache then runs over
  /// capacity until pins unwind / a flush clears the quarantine). A
  /// victim whose write-back faults is quarantined in place (re-entered
  /// into the policy's resident set) and counts as progress: the next
  /// call cannot choose it again.
  bool evictOne();
  /// Write a dirty frame to the device (one counted write). Throws the
  /// device's IoError with the frame still dirty — fault-before-effect
  /// (fault.h) means a failed write-back loses nothing.
  void writeBack(BlockId id, Frame& frame);

  // Corruption-seeding hook for the audit mutation tests (defined in
  // tests/test_audit.cpp); production code never touches it.
  friend struct AuditPeer;

  BlockDevice& device_;
  MemoryCharge charge_;
  std::size_t capacity_blocks_;
  WritePolicy policy_;
  ReplacementKind replacement_kind_;
  std::unique_ptr<ReplacementPolicy> replacement_;
  std::unordered_map<BlockId, Frame> frames_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t writeback_failures_ = 0;
  std::uint64_t quarantine_gave_up_ = 0;
  std::uint32_t give_up_threshold_ = 8;
  std::size_t dirty_blocks_ = 0;
  std::size_t quarantined_frames_ = 0;
  // Telemetry sampling clock: counts fetch()-path accesses while the
  // telemetry latch is on, so occupancy/dirty gauges are snapshot every
  // kObsSamplePeriod accesses instead of per event.
  std::uint64_t obs_accesses_ = 0;

  void obsSampleGauges() const;
};

}  // namespace exthash::extmem
