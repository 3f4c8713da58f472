// Sharded front-end: hash-partitions the key space across N inner tables,
// each owning a private BlockDevice and MemoryBudget, and dispatches
// batches shard-parallel on a thread pool.
//
// This is the system-building move the ROADMAP's "heavy traffic" goal
// asks for: the paper's structures are single-spindle, so throughput
// scales by running one per spindle (device) and routing operations by an
// independent hash of the key. Shard choice uses a fixed scramble that is
// independent of the tables' shared hash function h, so each shard still
// sees h-uniform keys and every per-shard analysis (load factor, Theorem-2
// merge schedule) applies unchanged.
//
// I/O accounting: the façade's shards count I/Os on their own devices;
// ioStats() aggregates them. Measurement code must diff ioStats(), not the
// context device passed at construction (which the façade never touches).
//
// Block-id namespacing: shard-local block ids are small sequential ids on
// each shard's private device, so ids from different shards collide
// numerically. visitLayout and primaryBlockOf therefore forward ids in a
// namespaced encoding: the shard index in the top kShardIdBits (8) bits,
// the shard-local id in the low kLocalIdBits (56) bits —
//
//   namespaced = (shard + 1) << 56 | local
//
// The +1 keeps every namespaced id disjoint from raw ids of any
// non-sharded table sharing an analysis (raw ids live far below 2^56), and
// from kInvalidBlock. Decode with shardOfBlockId / localBlockId. Layout
// consumers (zone accounting) only need distinctness, which the encoding
// guarantees as long as shard-local ids stay below 2^56 (checked).
//
// Threading: the façade is externally serialized like every table —
// callers run one operation at a time. A batch whose keys all route to one
// shard (every one-key batch) runs on the caller's thread. Any other batch
// fans out via ThreadPool::parallelFor to the shards that have work: the
// calling thread runs shard slices itself next to the pool helpers, each
// claiming whole shards from one counter. A shard is still touched by one
// thread at a time — each slice touches exactly one shard's private
// device/budget/cache/table and no two slices share a shard — so no
// façade-level mutex exists to annotate; the only locks in the fan-out
// path are the pool's own annotated mutexes (see
// util/thread_annotations.h).
// Mutating shared façade state from inside a shard task would be a data
// race — keep per-shard work confined to that shard's Shard struct
// (the per-shard error latch below lives there for exactly this reason).
//
// Fault isolation: a shard task that throws no longer poisons the whole
// batch silently — every HEALTHY shard's sub-batch still applies (and
// lookupBatch still fills the healthy shards' results) before the first
// captured error is rethrown, so callers observe the failure without the
// other shards losing work. An extmem::IoError additionally LATCHES the
// faulted shard (the broken part is its private device, which outlives
// the batch): further operations routed to it fail fast with the stored
// error, without touching the shard, while healthy shards keep serving.
// shardErrors() aggregates the latched errors for operators;
// clearShardErrors() re-admits traffic once the fault cleared (e.g.
// FaultPolicy::clear() on the shard device). Logic errors (CheckFailure)
// stay batch-scoped: they are rethrown but do not latch the shard.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "extmem/block_cache.h"
#include "tables/factory.h"
#include "tables/hash_table.h"
#include "util/thread_pool.h"

namespace exthash::extmem {
class MemoryArbiter;
}

namespace exthash::tables {

struct ShardedTableConfig {
  /// Number of inner tables (>= 1). Each gets 1/N of expected_n,
  /// buffer_items, and the memory budget.
  std::size_t shards = 4;
  /// What to build inside each shard (any kind except kSharded).
  TableKind inner = TableKind::kBuffered;
  /// Config template for the inner tables; per-shard sizes are derived.
  GeneralConfig inner_config;
  /// Pool threads that help the calling thread fan a batch out across
  /// shards. 0 = min(shards, hardware threads) - 1, at least 1: the caller
  /// runs one slice itself, so more helpers than that never get a task.
  std::size_t threads = 0;
  /// Total block-cache frames distributed exactly across the shards
  /// (shard s gets floor(total/N) frames, +1 for the first total mod N
  /// shards; a shard allotted zero frames gets no cache). Each cache is
  /// a private BlockCache over the shard's device, auto-attached and
  /// charged against the CALLER's shared MemoryBudget — the façade's
  /// context budget, not the per-shard ones. 0 = no caches. Only the
  /// cache-honoring inner kinds (chaining, linear hashing, extendible)
  /// actually route accesses through them.
  std::size_t cache_frames = 0;
  /// Write policy for the auto-attached per-shard caches. Write-back
  /// requires the flush barriers the façade provides: flushCache() (and
  /// the destructor) flushes every shard cache, and ioStats() aggregates
  /// their hit/writeback telemetry alongside the per-shard device
  /// counters.
  extmem::BlockCache::WritePolicy cache_policy =
      extmem::BlockCache::WritePolicy::kWriteThrough;
  /// Replacement policy for the auto-attached per-shard caches (every
  /// shard runs the same one). ioStats() aggregates their ghost hits;
  /// shardCache(i)->adaptiveTarget() reads a shard's adaptive target.
  extmem::ReplacementKind cache_replacement = extmem::ReplacementKind::kLru;
  /// Storage backend for the private per-shard devices (default: memory;
  /// a file-backed choice gives every shard its own backing file, so a
  /// real I/O error on one shard trips that shard's isolation without
  /// touching its siblings' files).
  extmem::StorageOptions storage;
};

class ShardedTable final : public ExternalHashTable {
 public:
  /// `ctx` supplies the shared hash and the block geometry (via its
  /// device); the façade allocates a private device + budget per shard.
  ShardedTable(TableContext ctx, ShardedTableConfig config);

  /// Namespaced block-id encoding for forwarded layout visits (see the
  /// file comment).
  static constexpr unsigned kShardIdBits = 8;
  static constexpr unsigned kLocalIdBits = 64 - kShardIdBits;
  static constexpr std::size_t kMaxShards =
      (std::size_t{1} << kShardIdBits) - 1;
  static constexpr extmem::BlockId namespacedBlockId(
      std::size_t shard, extmem::BlockId local) noexcept {
    return (static_cast<extmem::BlockId>(shard + 1) << kLocalIdBits) | local;
  }
  static constexpr std::size_t shardOfBlockId(extmem::BlockId id) noexcept {
    return static_cast<std::size_t>(id >> kLocalIdBits) - 1;
  }
  static constexpr extmem::BlockId localBlockId(extmem::BlockId id) noexcept {
    return id & ((extmem::BlockId{1} << kLocalIdBits) - 1);
  }

  bool insert(std::uint64_t key, std::uint64_t value) override;
  std::optional<std::uint64_t> lookup(std::uint64_t key) override;
  bool erase(std::uint64_t key) override;
  /// Splits the batch per shard (op order preserved within a shard — and
  /// all ops of one key land in one shard) and applies shard-parallel on
  /// the shards that have work; a one-shard batch applies on the caller's
  /// thread.
  void applyBatch(std::span<const Op> ops) override;
  /// Batched lookups, routed like applyBatch.
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  std::size_t size() const override;
  std::string_view name() const override { return "sharded"; }
  /// Forwards every shard's layout with block ids namespaced by shard
  /// index, so ids are collision-free across the façade.
  void visitLayout(LayoutVisitor& visitor) const override;
  /// The owning shard's primary block for `key`, namespaced.
  std::optional<extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const override;
  std::string debugString() const override;
  /// Aggregates per-shard device counters AND per-shard cache telemetry
  /// (cache_hits / cache_writebacks / cache_ghost_hits).
  extmem::IoStats ioStats() const override;
  /// Flush barrier across every auto-attached shard cache. The façade
  /// must be quiescent (no batch in flight on the shard pool).
  void flushCache() const override;
  /// Recursive audit: every shard's deep per-kind audit plus its private
  /// cache's partition/charge audit (the inner tables inherit it through
  /// ExternalHashTable::validateLayout). Serial, quiescent-only, like
  /// flushCache().
  void validateLayout(AuditReport& report) const override;

  /// One latched shard fault (see the file comment on fault isolation).
  struct ShardError {
    std::size_t shard = 0;
    std::string message;
  };

  /// Aggregated report of every latched shard fault, shard-ordered.
  std::vector<ShardError> shardErrors() const;
  std::size_t failedShardCount() const noexcept;
  bool shardFailed(std::size_t i) const noexcept {
    return shards_[i].error != nullptr;
  }
  /// Drop every latched shard error — call after the underlying fault
  /// cleared; the next flush barrier lands any quarantined frames.
  void clearShardErrors() noexcept;

  /// Tear shard i down to an empty inner table on the SAME private device
  /// and rebuild it from scratch: the latch clears, every cached frame is
  /// discarded (quarantined ones included), the old structure's blocks are
  /// freed, and a fresh inner table is constructed exactly as at startup.
  /// The façade must be quiescent; the other shards are untouched and keep
  /// serving. This is the per-shard recovery primitive — callers repopulate
  /// the shard (e.g. by replaying its slice of a WAL) afterwards.
  void resetShard(std::size_t i);

  // Durability hooks: one durable device per shard; metadata is the
  // per-shard inner metadata, length-prefixed per shard.
  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;
  std::size_t durableDeviceCount() const override { return shards_.size(); }
  extmem::BlockDevice& durableDevice(std::size_t i) override {
    return *shards_[i].device;
  }
  void invalidateCaches() override;

  std::size_t shardCount() const noexcept { return shards_.size(); }
  ExternalHashTable& shard(std::size_t i) { return *shards_[i].table; }
  extmem::BlockDevice& shardDevice(std::size_t i) {
    return *shards_[i].device;
  }
  const extmem::BlockDevice& shardDevice(std::size_t i) const {
    return *shards_[i].device;
  }
  /// The auto-attached cache of shard i (nullptr when cache_frames == 0).
  extmem::BlockCache* shardCache(std::size_t i) const noexcept {
    return shards_[i].cache.get();
  }

  /// Register every auto-attached shard cache with a MemoryArbiter, so the
  /// arbiter re-splits the cache-side frame grant across shards by
  /// observed heat (hot shards earn frames) while trading the total
  /// against the pipeline's staging windows. The arbiter must only
  /// rebalance at quiescent points — no batch in flight on the shard pool
  /// (IngestPipeline::submitMaintenance provides exactly that). No-op
  /// when cache_frames == 0.
  void registerCaches(extmem::MemoryArbiter& arbiter) const;

 private:
  // Destruction order matters: `table` is declared last so it is
  // destroyed first — its destructor flushes/invalidates through `cache`,
  // which must still be alive, and frees blocks on `device`.
  struct Shard {
    std::unique_ptr<extmem::BlockDevice> device;
    std::unique_ptr<extmem::MemoryBudget> memory;
    std::unique_ptr<extmem::BlockCache> cache;
    // Latched IoError (fail-fast gate for this shard). Written only by
    // this shard's own task inside a fan-out, or by the externally
    // serialized façade — shard-confined, so no lock (see the threading
    // comment). mutable: the const flush barrier can latch a fault too.
    mutable std::exception_ptr error;
    std::unique_ptr<ExternalHashTable> table;
  };

  std::size_t shardOf(std::uint64_t key) const noexcept;
  /// The per-shard inner config the constructor derives (1/N sizing) —
  /// shared with resetShard so a rebuilt shard matches its siblings.
  GeneralConfig innerShardConfig() const;
  /// Run one shard's slice of work with the fault-isolation contract:
  /// fail fast on a latched shard (without touching it), latch IoErrors,
  /// pass every error back for the caller to rethrow after the fan-out.
  std::exception_ptr runGuarded(std::size_t s,
                                const std::function<void()>& fn);
  /// runGuarded plus the shard's batch telemetry for a slice of `n` keys.
  std::exception_ptr runSlice(std::size_t s, const char* counter_family,
                              std::size_t n, const std::function<void()>& fn);
  /// Run `work(s)` on the pool for every shard whose slice of `per_shard`
  /// is non-empty, then rethrow the lowest-indexed shard's error.
  template <class Slice>
  void fanOut(const char* counter_family, const std::vector<Slice>& per_shard,
              const std::function<void(std::size_t)>& work);

  ShardedTableConfig config_;
  std::vector<Shard> shards_;
  ThreadPool pool_;
};

}  // namespace exthash::tables
