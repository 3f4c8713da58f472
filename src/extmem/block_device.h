// Simulated block device for the Aggarwal–Vitter external memory model.
//
// The disk is an unbounded array of blocks of `wordsPerBlock()` 64-bit
// words. All counted access goes through the guarded calls withRead /
// withWrite / withOverwrite, which lend the callback a std::span over the
// block, valid until it returns. In memory the span is the block's own
// slot; on files it is a frame from the device's frame stack, filled by
// pread and (for writes) pwritten back after the callback, so a file-backed
// block is in memory only while a callback holds it. Nested accesses and
// allocations take the next frame, so outer spans stay valid. Under
// EXTHASH_AUDIT=1 a released frame is poisoned (kReleasedFrameWord).
//
// Where the bytes live is a construction-time choice (the StorageBackend
// seam, extmem/storage_backend.h): the default MemStorage keeps the
// original in-memory chunk array; FileStorage puts every block in a
// preallocated file driven by pread/pwrite/fdatasync, with real errno
// outcomes mapped onto the same IoError taxonomy the FaultPolicy uses.
// Everything above the device — counted I/O, caching, retry, crash
// freezing — is backend-agnostic.
//
// Extent allocation (`allocateExtent`) returns *contiguous block ids*, so
// hash tables can place bucket j at `base + j` — a computed address that
// needs O(1) words of memory, which is what makes the paper's address
// function f "computable within memory".
//
// `inspect(id, fn)` reads a block WITHOUT counting an I/O, lending fn the
// same callback-scoped span. It exists solely for the analysis and
// introspection layer (zone accounting, audits, teardown walks, tests);
// library code on the query/update path must never use it.
//
// One retry ladder (retryBackend, block_device.cpp). A memory device with
// no fault policy lends its slots in place and never fails. Otherwise —
// a persistent backend, or a FaultPolicy installed by setFaultPolicy
// (extmem/fault.h) — every counted access runs on a leased frame inside
// the ladder: each attempt first consults the policy, then loads the
// block. A transient fault, injected or real (EINTR storm, EAGAIN), is
// re-attempted within RetryPolicy's budget (extmem/retry.h); a permanent
// one (EIO, ENOSPC, a bad sector) escapes at once. Faults fire before
// the attempt takes effect, so a faulted attempt changes neither the
// statistics nor the block, and an access that gives up throws
// Transient-/PermanentIoError without invoking the caller's callback.
// inspect(), allocation, free and captureImage/restoreImage never consult
// the policy (a file backend can still surface real syscall errors
// there), and sync() is never retried.
//
// One freeze path: a DeviceCrashed thrown inside the ladder — a policy
// crash point, or a power cut at the syscall layer — freezes the device.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "extmem/fault.h"
#include "extmem/io_stats.h"
#include "extmem/retry.h"
#include "extmem/storage_backend.h"
#include "obs/metrics.h"
#include "util/assert.h"

namespace exthash::extmem {

using Word = std::uint64_t;
using BlockId = std::uint64_t;
inline constexpr BlockId kInvalidBlock = ~static_cast<BlockId>(0);

namespace detail {

/// invoke `call`, then `after`, propagating call's result (which may be
/// void) — the "run the access callback, then store (or refresh) the
/// block" shape.
template <class Call, class After>
decltype(auto) invokeThen(Call&& call, After&& after) {
  if constexpr (std::is_void_v<decltype(call())>) {
    std::forward<Call>(call)();
    std::forward<After>(after)();
  } else {
    decltype(auto) result = std::forward<Call>(call)();
    std::forward<After>(after)();
    return result;
  }
}

}  // namespace detail

class BlockDevice {
 public:
  /// A block holds `words_per_block` 64-bit words (header + payload).
  /// Default-constructed StorageOptions select the in-memory backend —
  /// byte-identical to the pre-seam device.
  explicit BlockDevice(std::size_t words_per_block,
                       const StorageOptions& storage = {});

  /// Adopt a ready-made backend (named WAL/manifest files, test doubles).
  BlockDevice(std::size_t words_per_block,
              std::unique_ptr<StorageBackend> storage);

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  std::size_t wordsPerBlock() const noexcept { return words_per_block_; }

  /// Allocate one zero-initialized block.
  BlockId allocate();

  /// Allocate `count` contiguous zero-initialized blocks; returns the first
  /// id. Contiguity is in the id space (computed addressing).
  BlockId allocateExtent(std::size_t count);

  void free(BlockId id);
  void freeExtent(BlockId first, std::size_t count);

  /// Counted read: invokes fn(std::span<const Word>) on the block contents.
  template <class F>
  decltype(auto) withRead(BlockId id, F&& fn) {
    EXTHASH_OBS_TIMED("exthash_device_read_ns");
    checkLive(id);
    throwIfFrozen(IoOpKind::kRead, id);
    return access<IoOpKind::kRead>(id, fn);
  }

  /// Counted read-modify-write (cost 1 per the paper's footnote 2):
  /// invokes fn(std::span<Word>) on the block contents, which are stored
  /// back once fn returns.
  template <class F>
  decltype(auto) withWrite(BlockId id, F&& fn) {
    EXTHASH_OBS_TIMED("exthash_device_rmw_ns");
    checkLive(id);
    throwIfFrozen(IoOpKind::kRmw, id);
    return access<IoOpKind::kRmw>(id, fn);
  }

  /// Counted blind write: zeroes the block, then invokes fn(span<Word>) to
  /// fill it. Use when the previous contents are irrelevant (bulk builds).
  template <class F>
  decltype(auto) withOverwrite(BlockId id, F&& fn) {
    EXTHASH_OBS_TIMED("exthash_device_write_ns");
    checkLive(id);
    throwIfFrozen(IoOpKind::kWrite, id);
    return access<IoOpKind::kWrite>(id, fn);
  }

  /// Durability barrier: everything stored so far reaches the platter
  /// before sync() returns (fdatasync on file backends; free but still
  /// counted on memory backends, so the WAL's barrier cadence is always
  /// measurable). Counted in IoStats::fsyncs, NOT in cost(). A failed
  /// barrier throws PermanentIoError — dirty pages may have been dropped,
  /// so re-running it cannot certify the data (fsyncgate semantics); an
  /// injected power cut lands here as DeviceCrashed and freezes the
  /// device like any other crash point.
  void sync();

  /// Emulate per-access device latency: every counted access yields the
  /// CPU `quanta` times (~0.1–1 µs each when nothing else is runnable).
  /// Zero (default) disables. Yielding — rather than busy-spinning —
  /// models a DMA-style device: while the "transfer" waits, other threads
  /// (shard workers, the ingest pipeline's producer) can use the core, so
  /// wall-clock benchmarks can measure overlap even on small machines.
  /// Counted I/O statistics are never affected.
  void setAccessLatency(std::uint32_t quanta) noexcept {
    latency_spins_ = quanta;
  }
  std::uint32_t accessLatency() const noexcept { return latency_spins_; }

  /// Install a fault scripter consulted by every attempt of a counted
  /// access (see the file comment; nullptr uninstalls — the default,
  /// zero-cost path). Non-owning: the policy must outlive its
  /// installation. Thread compatibility matches the device itself.
  void setFaultPolicy(FaultPolicy* policy) noexcept {
    fault_policy_ = policy;
    use_ladder_ = policy != nullptr || storage_->persistent();
  }
  FaultPolicy* faultPolicy() const noexcept { return fault_policy_; }

  /// Retry budget for transient faults — injected ones (FaultPolicy) and
  /// real transient syscall outcomes (EINTR, EAGAIN) share it.
  void setRetryPolicy(const RetryPolicy& policy) noexcept {
    retry_policy_ = policy;
  }
  const RetryPolicy& retryPolicy() const noexcept { return retry_policy_; }

  /// The backend holding this device's bytes (diagnostics/tests; e.g.
  /// dynamic_cast to FileStorage for path() and directActive()).
  const StorageBackend& storage() const noexcept { return *storage_; }
  std::string_view storageName() const noexcept { return storage_->name(); }
  /// True when the backend hits a medium that can actually fail (files).
  bool storagePersistent() const noexcept { return storage_->persistent(); }

  /// Copying variants (convenience for tests).
  std::vector<Word> readCopy(BlockId id);
  void writeCopy(BlockId id, std::span<const Word> contents);

  /// UNCOUNTED inspection for analysis & invariant checks only: invokes
  /// fn(std::span<const Word>) on the block as the backend holds it (on
  /// files, what survived a crash), with a span leased like a counted
  /// access's. No retry ladder and no statistics: a real syscall failure
  /// propagates as the backend threw it (attempt 1).
  template <class F>
  decltype(auto) inspect(BlockId id, F&& fn) const {
    checkLive(id);
    const FrameLease frame(*this);
    return fn(std::span<const Word>(
        storage_->load(id, frame.get(), /*fetch=*/true), words_per_block_));
  }

  /// Every word of a released frame under EXTHASH_AUDIT=1.
  static constexpr Word kReleasedFrameWord = 0xDEADF4A3E0B10C4Bull;

  IoStats& stats() noexcept { return stats_; }
  const IoStats& stats() const noexcept { return stats_; }

  /// Number of currently allocated blocks.
  std::size_t blocksInUse() const noexcept { return blocks_in_use_; }
  /// High-water mark of the id space (includes freed blocks).
  std::size_t idSpaceSize() const noexcept { return next_id_; }
  bool isAllocated(BlockId id) const noexcept;

  // ---- Crash simulation seam (durability/ + crash tests) ----------------
  //
  // A crash trigger (FaultPolicy::crashOpNumber) freezes the device at a
  // deterministic access: for write kinds the first `torn_words` words of
  // the in-flight write persist and the rest keep their old contents (a
  // torn sector), then every further counted access throws DeviceCrashed
  // until thaw() — the "machine rebooted" seam recovery runs behind. A
  // crashing read is not counted; a crashing write or rmw is, like a
  // write cut short by a syscall power cut.
  // Metadata paths stay teardown-safe: free()/freeExtent() on a frozen
  // device are silent no-ops (destructors of the doomed stack unwind
  // through them), while allocation throws.

  /// Freeze the device by hand (the crash harness freezes every durable
  /// device the moment any one of them crashes).
  void freeze() noexcept { frozen_ = true; }
  /// Lift a crash freeze — the reboot. Contents stay exactly as the crash
  /// left them (torn sector included).
  void thaw() noexcept { frozen_ = false; }
  bool frozen() const noexcept { return frozen_; }

  /// Full value snapshot of the device's durable state: live block
  /// contents, allocation map, free pool, id-space watermark. Statistics,
  /// latency and fault policies are deliberately excluded. Uncounted —
  /// this is the checkpoint primitive, the in-memory stand-in for "the
  /// bytes that were on the platter when the checkpoint completed".
  /// Only allocated ids are imaged: a freed id's bytes are dead, because
  /// every reuse stores zeros over the block before anyone reads it, so
  /// a capture costs blocksInUse() block copies no matter how far the id
  /// space has grown.
  struct Image {
    std::size_t words_per_block = 0;
    // blocks_in_use blocks of words_per_block each: the allocated ids in
    // increasing id order.
    std::vector<Word> words;
    std::vector<std::uint8_t> allocated;
    std::map<std::size_t, std::vector<BlockId>> free_pool;
    BlockId next_id = 0;
    std::size_t blocks_in_use = 0;
  };
  Image captureImage() const;
  /// Overwrite the device's entire durable state with `image` (geometry
  /// must match): writes back the imaged live blocks, leaves freed ids as
  /// they are, and on persistent storage zeroes the ids above the image's
  /// watermark. Does not touch the frozen flag, statistics or policies.
  void restoreImage(const Image& image);

 private:
  void simulateLatency() const noexcept {
    for (std::uint32_t i = 0; i < latency_spins_; ++i) {
      std::this_thread::yield();
    }
  }

  void throwIfFrozen(IoOpKind op, BlockId id) const {
    if (frozen_) {
      throw DeviceCrashed(op, id, "device frozen by simulated crash");
    }
  }

  /// One frame of the device's frame stack, held for one callback. The
  /// stack grows on demand, frames never move, and leases nest (LIFO).
  class FrameLease {
   public:
    explicit FrameLease(const BlockDevice& device)
        : device_(device), frame_(device.acquireFrame()) {}
    ~FrameLease() { device_.releaseFrame(); }
    FrameLease(const FrameLease&) = delete;
    Word* get() const noexcept { return frame_; }

   private:
    const BlockDevice& device_;
    Word* frame_;
  };
  Word* acquireFrame() const;
  void releaseFrame() const noexcept;

  /// A counted access: lend fn the block's words, fetched (read, rmw) or
  /// zeroed (write), and store them back after fn (rmw, write). Memory
  /// without a fault policy lends its slot in place; otherwise the access
  /// runs on a leased frame inside the retry ladder.
  template <IoOpKind Op, class F>
  decltype(auto) access(BlockId id, F& fn) {
    using Span = std::conditional_t<Op == IoOpKind::kRead,
                                    std::span<const Word>, std::span<Word>>;
    constexpr bool kFetch = Op != IoOpKind::kWrite;
    if (!use_ladder_) {
      return fn(Span(counted<Op>(storage_->load(id, nullptr, kFetch)),
                     words_per_block_));
    }
    const FrameLease frame(*this);
    std::optional<std::size_t> torn;
    Word* p = counted<Op>(backendLoad(Op, id, frame.get(), kFetch, torn));
    if constexpr (Op == IoOpKind::kRead) {
      return fn(Span(p, words_per_block_));
    } else {
      return detail::invokeThen(
          [&]() -> decltype(auto) { return fn(Span(p, words_per_block_)); },
          [&] { backendStore(Op, id, p, torn); });
    }
  }

  /// Tally the access and pay the emulated latency; a blind write's words
  /// start zeroed. Returns `p`.
  template <IoOpKind Op>
  Word* counted(Word* p) noexcept {
    if constexpr (Op == IoOpKind::kRead) {
      ++stats_.reads;
      if (bypass_depth_ > 0) ++stats_.cache_bypass_reads;
    } else {
      ++(Op == IoOpKind::kRmw ? stats_.rmws : stats_.writes);
    }
    simulateLatency();
    if constexpr (Op == IoOpKind::kWrite) {
      std::fill(p, p + words_per_block_, Word{0});
    }
    return p;
  }

  // The backend calls inside the retry ladder (.cpp). backendLoad
  // consults the fault policy on every attempt and returns `frame`
  // holding the block (fetched) or untouched (blind write); a fired crash
  // point lands in `torn`, which makes the matching backendStore persist
  // only that many words and throw DeviceCrashed. backendStore also
  // serves the uncounted cold paths (allocation scrub, restoreImage).
  Word* backendLoad(IoOpKind op, BlockId id, Word* frame, bool fetch,
                    std::optional<std::size_t>& torn);
  void backendStore(IoOpKind op, BlockId id, const Word* words,
                    std::optional<std::size_t> torn = std::nullopt);
  template <class Fn>
  auto retryBackend(IoOpKind op, BlockId id, Fn&& fn) -> decltype(fn());

  void checkLive(BlockId id) const;
  void ensureBacking(BlockId last_id);
  void markAllocated(BlockId first, std::size_t count, bool reused);

  std::size_t words_per_block_;
  std::unique_ptr<StorageBackend> storage_;
  // Persistent backend or fault policy installed: counted accesses take
  // the ladder on a leased frame instead of lending a slot in place.
  bool use_ladder_ = false;
  // FrameLease's stack: frames_[0, frames_leased_) are lent out (mutable:
  // the const inspect() leases too).
  mutable std::vector<std::unique_ptr<Word[]>> frames_;
  mutable std::size_t frames_leased_ = 0;
  std::vector<std::uint8_t> allocated_;  // per-block liveness
  // Freed extents pooled by exact size for reuse; singles use size 1.
  std::map<std::size_t, std::vector<BlockId>> free_pool_;
  BlockId next_id_ = 0;
  std::size_t blocks_in_use_ = 0;
  std::uint32_t latency_spins_ = 0;
  std::uint32_t bypass_depth_ = 0;  // see CacheBypassScope
  bool frozen_ = false;             // crash freeze, see freeze()/thaw()
  FaultPolicy* fault_policy_ = nullptr;  // non-owning, see setFaultPolicy
  RetryPolicy retry_policy_;
  IoStats stats_;

  friend class CacheBypassScope;
};

/// Marks a scope as UNCACHED BY DESIGN: every counted read the device
/// serves while one (or more, they nest) of these is live is also tallied
/// in IoStats::cache_bypass_reads. The merge/rebuild paths that stream a
/// structure exactly once (buffered Ĥ-merge, log-method mergeDown,
/// Jensen–Pagh rebuild) deliberately go straight to the device — caching
/// a one-pass stream would only evict genuinely hot frames — and this
/// annotation is what lets telemetry tell those reads apart from cache
/// misses. Not thread-safe against concurrent counted access to the same
/// device, matching BlockDevice itself (each shard owns its device).
class CacheBypassScope {
 public:
  explicit CacheBypassScope(BlockDevice& device) noexcept
      : device_(&device) {
    ++device_->bypass_depth_;
  }
  ~CacheBypassScope() { --device_->bypass_depth_; }
  CacheBypassScope(const CacheBypassScope&) = delete;
  CacheBypassScope& operator=(const CacheBypassScope&) = delete;

 private:
  BlockDevice* device_;
};

/// RAII probe measuring the I/O cost of a scoped piece of work.
class IoProbe {
 public:
  explicit IoProbe(const BlockDevice& device)
      : device_(&device), start_(device.stats()) {}

  IoStats delta() const noexcept { return device_->stats() - start_; }
  std::uint64_t cost() const noexcept { return delta().cost(); }
  std::uint64_t reads() const noexcept { return delta().reads; }
  std::uint64_t writes() const noexcept { return delta().writes; }
  std::uint64_t rmws() const noexcept { return delta().rmws; }

 private:
  const BlockDevice* device_;
  IoStats start_;
};

}  // namespace exthash::extmem
