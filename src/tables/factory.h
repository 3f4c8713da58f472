// Uniform construction of every dictionary in the library, used by the
// benchmark harness, the examples, and the cross-structure property tests.
#pragma once

#include <memory>
#include <string>

#include "tables/hash_table.h"

namespace exthash::tables {

enum class TableKind {
  kChaining,
  kLinearProbing,
  kExtendible,
  kLinearHashing,
  kLogMethod,
  kBuffered,    // the paper's Theorem-2 structure (src/core)
  kJensenPagh,
  kBTree,
  kLsm,
  kCuckoo,
  kBufferBTree,
  kSharded,  // hash-partitioned façade over N inner tables (src/tables)
};

struct GeneralConfig {
  /// Expected number of records; fixed-capacity structures (chaining,
  /// linear probing, Jensen–Pagh) size their bucket arrays from this.
  std::size_t expected_n = 0;
  /// Target load factor for fixed-capacity hash structures.
  double target_load = 0.5;
  /// Memory-buffer capacity in items for buffered structures (log-method
  /// H0, LSM memtable, Theorem-2 H0).
  std::size_t buffer_items = 0;
  /// β for the Theorem-2 table (ignored elsewhere).
  std::size_t beta = 8;
  /// γ for logarithmic-method structures; LSM fanout.
  std::size_t gamma = 2;
  /// kSharded only: shard count, inner table kind, and dispatch threads
  /// (0 = ShardedTableConfig::threads' default). expected_n / buffer_items
  /// / the memory budget are divided across shards.
  std::size_t shards = 4;
  TableKind sharded_inner = TableKind::kBuffered;
  std::size_t shard_threads = 0;
  /// kSharded only: total BlockCache frames auto-attached across shards
  /// (0 = none) and whether they run write-back (dirty frames written on
  /// eviction / flushCache()) instead of write-through. See
  /// ShardedTableConfig::cache_frames / cache_policy.
  std::size_t shard_cache_frames = 0;
  bool shard_cache_write_back = false;
  /// kSharded only: replacement policy of the auto-attached caches
  /// (lru / 2q / arc — see extmem/replacement_policy.h).
  extmem::ReplacementKind shard_cache_replacement =
      extmem::ReplacementKind::kLru;
  /// kSharded only: storage backend for the private per-shard devices
  /// (see ShardedTableConfig::storage). Standalone kinds use the caller's
  /// context device, whose backend the caller already chose.
  extmem::StorageOptions shard_storage;
};

std::unique_ptr<ExternalHashTable> makeTable(TableKind kind, TableContext ctx,
                                             const GeneralConfig& config);

/// Parse "chaining" | "linear-probing" | "extendible" | "linear-hashing" |
/// "log-method" | "buffered" | "jensen-pagh" | "btree" | "lsm" |
/// "cuckoo" | "buffer-btree" | "sharded".
TableKind parseTableKind(const std::string& name);
std::string_view tableKindName(TableKind kind);

/// All standalone kinds, for parameterized test sweeps. The sharded façade
/// is listed separately: it owns private per-shard devices, so sweeps that
/// count I/O on the context device would silently measure zero.
inline constexpr TableKind kAllTableKinds[] = {
    TableKind::kChaining,      TableKind::kLinearProbing,
    TableKind::kExtendible,    TableKind::kLinearHashing,
    TableKind::kLogMethod,     TableKind::kBuffered,
    TableKind::kJensenPagh,    TableKind::kBTree,
    TableKind::kLsm,           TableKind::kCuckoo,
    TableKind::kBufferBTree,
};

/// Every kind including the sharded façade (batch-equivalence sweeps use
/// ExternalHashTable::ioStats(), which is shard-correct).
inline constexpr TableKind kAllTableKindsWithSharded[] = {
    TableKind::kChaining,      TableKind::kLinearProbing,
    TableKind::kExtendible,    TableKind::kLinearHashing,
    TableKind::kLogMethod,     TableKind::kBuffered,
    TableKind::kJensenPagh,    TableKind::kBTree,
    TableKind::kLsm,           TableKind::kCuckoo,
    TableKind::kBufferBTree,   TableKind::kSharded,
};

}  // namespace exthash::tables
