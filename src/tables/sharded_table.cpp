#include "tables/sharded_table.h"

#include <algorithm>
#include <string>

#include "extmem/memory_arbiter.h"
#include "obs/metrics.h"
#include "util/random.h"

#include "tables/meta_words.h"

namespace exthash::tables {

namespace {

/// Shard router: a fixed splitmix64 scramble, independent of the seeded
/// hash family members the inner tables use, so conditioning on the shard
/// leaves h(key) uniform.
inline std::uint64_t shardScramble(std::uint64_t key) noexcept {
  return splitmix64(key ^ 0x5111A9DE55555555ULL);
}

// Per-shard labeled series (exthash_<name>{shard="s"}). These go through
// the registry's find-or-create per call rather than a hoisted static —
// the label varies — which is fine at once-per-dispatched-batch rate.
void obsRecordShardBatch(const char* counter_family, std::size_t shard,
                         std::size_t ops, const ExternalHashTable& table) {
  if (!obs::enabled() || ops == 0) return;
  auto& registry = obs::MetricsRegistry::global();
  const std::string label = "{shard=\"" + std::to_string(shard) + "\"}";
  registry.counter(std::string(counter_family) + label).inc(ops);
  registry.gauge("exthash_shard_size" + label)
      .set(static_cast<double>(table.size()));
}

// The caller runs one slice of every fan-out, so a batch over `shards`
// shards has work for at most shards - 1 helpers.
std::size_t defaultPoolThreads(std::size_t shards) {
  const std::size_t workers = std::min<std::size_t>(
      shards, std::max(1u, std::thread::hardware_concurrency()));
  return workers > 1 ? workers - 1 : 1;
}

}  // namespace

ShardedTable::ShardedTable(TableContext ctx, ShardedTableConfig config)
    : ExternalHashTable(ctx),
      config_(config),
      pool_(config.threads != 0 ? config.threads
                                : defaultPoolThreads(config.shards)) {
  EXTHASH_CHECK_MSG(config_.shards >= 1, "need at least one shard");
  EXTHASH_CHECK_MSG(config_.shards <= kMaxShards,
                    "shard count exceeds the block-id namespace ("
                        << kMaxShards << ")");
  EXTHASH_CHECK_MSG(config_.inner != TableKind::kSharded,
                    "sharded façades do not nest");
  const std::size_t n = config_.shards;
  const std::size_t words = ctx_.device->wordsPerBlock();
  const std::size_t mem_limit =
      ctx_.memory->unlimited()
          ? 0
          : std::max<std::size_t>(1, ctx_.memory->limit() / n);

  const GeneralConfig inner = innerShardConfig();

  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    // Distribute the frame budget exactly: base frames everywhere plus
    // one extra for the first (cache_frames mod n) shards, so the charge
    // against the shared budget equals the configured total (shards past
    // the budget simply get no cache).
    const std::size_t frames_per_shard =
        config_.cache_frames / n + (s < config_.cache_frames % n ? 1 : 0);
    Shard shard;
    shard.device = std::make_unique<extmem::BlockDevice>(words,
                                                         config_.storage);
    shard.memory = std::make_unique<extmem::MemoryBudget>(mem_limit);
    if (frames_per_shard > 0) {
      // Frames are charged to the caller's shared budget (ctx_.memory):
      // cache memory competes with staging buffers and every other
      // in-memory structure the caller accounts there, exactly like the
      // paper's single memory-of-m-words model.
      shard.cache = std::make_unique<extmem::BlockCache>(
          *shard.device, *ctx_.memory, frames_per_shard,
          config_.cache_policy, config_.cache_replacement);
    }
    shard.table = makeTable(
        config_.inner,
        TableContext{shard.device.get(), shard.memory.get(), ctx_.hash},
        inner);
    if (shard.cache) shard.table->attachCache(shard.cache.get());
    shards_.push_back(std::move(shard));
  }
}

GeneralConfig ShardedTable::innerShardConfig() const {
  const std::size_t n = config_.shards;
  GeneralConfig inner = config_.inner_config;
  inner.expected_n =
      std::max<std::size_t>(1, (inner.expected_n + n - 1) / n);
  if (inner.buffer_items > 0) {
    inner.buffer_items =
        std::max<std::size_t>(1, (inner.buffer_items + n - 1) / n);
  }
  return inner;
}

std::size_t ShardedTable::shardOf(std::uint64_t key) const noexcept {
  return static_cast<std::size_t>(
      hashfn::rangeBucket(shardScramble(key), shards_.size()));
}

std::exception_ptr ShardedTable::runGuarded(
    std::size_t s, const std::function<void()>& fn) {
  Shard& shard = shards_[s];
  // Fail fast on a latched shard WITHOUT touching it: its device faulted
  // past the retry budget, and driving more traffic into a half-written
  // structure only compounds the damage.
  if (shard.error) return shard.error;
  try {
    fn();
    return nullptr;
  } catch (const extmem::IoError&) {
    // The broken part is the shard's private device — latch, so the
    // façade degrades to (n-1)/n service instead of failing whole.
    shard.error = std::current_exception();
    EXTHASH_OBS_COUNT("exthash_shard_failures_total", 1);
    return shard.error;
  } catch (...) {
    // Logic errors stay batch-scoped (the caller rethrows; the shard
    // keeps serving later batches — the pre-isolation behavior).
    return std::current_exception();
  }
}

bool ShardedTable::insert(std::uint64_t key, std::uint64_t value) {
  const std::size_t s = shardOf(key);
  bool result = false;
  if (const auto err = runGuarded(
          s, [&] { result = shards_[s].table->insert(key, value); })) {
    std::rethrow_exception(err);
  }
  return result;
}

std::optional<std::uint64_t> ShardedTable::lookup(std::uint64_t key) {
  const std::size_t s = shardOf(key);
  std::optional<std::uint64_t> result;
  if (const auto err = runGuarded(
          s, [&] { result = shards_[s].table->lookup(key); })) {
    std::rethrow_exception(err);
  }
  return result;
}

bool ShardedTable::erase(std::uint64_t key) {
  const std::size_t s = shardOf(key);
  bool result = false;
  if (const auto err = runGuarded(
          s, [&] { result = shards_[s].table->erase(key); })) {
    std::rethrow_exception(err);
  }
  return result;
}

std::exception_ptr ShardedTable::runSlice(std::size_t s,
                                          const char* counter_family,
                                          std::size_t n,
                                          const std::function<void()>& fn) {
  const std::exception_ptr err = runGuarded(s, fn);
  obsRecordShardBatch(counter_family, s, n, *shards_[s].table);
  return err;
}

template <class Slice>
void ShardedTable::fanOut(const char* counter_family,
                          const std::vector<Slice>& per_shard,
                          const std::function<void(std::size_t)>& work) {
  // Only shards with work get a fork-join index, and the caller runs some
  // of them itself. An idle shard is neither touched nor recorded
  // (obsRecordShardBatch records nothing for 0 ops).
  std::vector<std::size_t> busy;
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    if (!per_shard[s].empty()) busy.push_back(s);
  }
  // Distinct slots per shard task — no shared mutable state in the
  // fan-out (the threading contract above).
  std::vector<std::exception_ptr> batch_errors(busy.size());
  pool_.parallelFor(0, busy.size(), [&](std::size_t i) {
    const std::size_t s = busy[i];
    batch_errors[i] = runSlice(s, counter_family, per_shard[s].size(),
                               [&] { work(s); });
  });
  // busy is in shard order: rethrow the lowest-indexed shard's error.
  for (const std::exception_ptr& error : batch_errors) {
    if (error) std::rethrow_exception(error);
  }
}

void ShardedTable::applyBatch(std::span<const Op> ops) {
  if (ops.empty()) return;
  // Route first. When every op lands on one shard (every one-key batch),
  // that shard applies the caller's span on the caller's thread: no
  // per-shard copy and no pool hand-off.
  const std::size_t first = shardOf(ops.front().key);
  if (std::all_of(ops.begin() + 1, ops.end(), [&](const Op& op) {
        return shardOf(op.key) == first;
      })) {
    if (const auto err =
            runSlice(first, "exthash_shard_ops_total", ops.size(),
                     [&] { shards_[first].table->applyBatch(ops); })) {
      std::rethrow_exception(err);
    }
    return;
  }
  // Partition preserving arrival order: every op for one key routes to one
  // shard, so per-key order survives the shard-parallel dispatch.
  std::vector<std::vector<Op>> per_shard(shards_.size());
  for (const Op& op : ops) per_shard[shardOf(op.key)].push_back(op);
  // Every healthy shard has applied its slice before fanOut rethrows; the
  // caller may catch the error and keep routing traffic — ops for the
  // faulted shard fail fast, the rest keep serving.
  fanOut("exthash_shard_ops_total", per_shard, [&](std::size_t s) {
    shards_[s].table->applyBatch(per_shard[s]);
  });
}

void ShardedTable::lookupBatch(std::span<const std::uint64_t> keys,
                               std::span<std::optional<std::uint64_t>> out) {
  EXTHASH_CHECK(keys.size() == out.size());
  if (keys.empty()) return;
  // Same routing as applyBatch: a one-shard batch looks up straight into
  // the caller's spans on the caller's thread (so a shard that faults
  // mid-call may leave part of `out` written).
  const std::size_t first = shardOf(keys.front());
  if (std::all_of(keys.begin() + 1, keys.end(), [&](std::uint64_t key) {
        return shardOf(key) == first;
      })) {
    if (const auto err =
            runSlice(first, "exthash_shard_lookups_total", keys.size(),
                     [&] { shards_[first].table->lookupBatch(keys, out); })) {
      std::rethrow_exception(err);
    }
    return;
  }
  std::vector<std::vector<std::size_t>> per_shard(shards_.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    per_shard[shardOf(keys[i])].push_back(i);
  }
  // Healthy shards' results are filled in even when a shard faulted; a
  // latched shard's slots keep their input value (nullopt for a fresh
  // output span) and the error is rethrown for the caller to handle.
  fanOut("exthash_shard_lookups_total", per_shard, [&](std::size_t s) {
    const auto& indices = per_shard[s];
    std::vector<std::uint64_t> sub_keys;
    sub_keys.reserve(indices.size());
    for (const std::size_t idx : indices) sub_keys.push_back(keys[idx]);
    std::vector<std::optional<std::uint64_t>> sub_out(sub_keys.size());
    shards_[s].table->lookupBatch(sub_keys, sub_out);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      out[indices[k]] = sub_out[k];
    }
  });
}

std::vector<ShardedTable::ShardError> ShardedTable::shardErrors() const {
  std::vector<ShardError> report;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s].error) continue;
    ShardError entry;
    entry.shard = s;
    try {
      std::rethrow_exception(shards_[s].error);
    } catch (const std::exception& e) {
      entry.message = e.what();
    } catch (...) {
      entry.message = "unknown error";
    }
    report.push_back(std::move(entry));
  }
  return report;
}

std::size_t ShardedTable::failedShardCount() const noexcept {
  std::size_t n = 0;
  for (const Shard& shard : shards_) n += shard.error != nullptr;
  return n;
}

void ShardedTable::clearShardErrors() noexcept {
  for (const Shard& shard : shards_) shard.error = nullptr;
}

void ShardedTable::resetShard(std::size_t i) {
  EXTHASH_CHECK(i < shards_.size());
  Shard& shard = shards_[i];
  shard.error = nullptr;
  // Discard before destroying: the old table's destructor flushes through
  // the cache, and a quarantined dirty frame from the fault that killed
  // the shard must not be written into the rebuilt structure.
  if (shard.cache) shard.cache->discardAll();
  shard.table.reset();  // frees the old structure's blocks on the device
  shard.table = makeTable(
      config_.inner,
      TableContext{shard.device.get(), shard.memory.get(), ctx_.hash},
      innerShardConfig());
  if (shard.cache) shard.table->attachCache(shard.cache.get());
  EXTHASH_OBS_COUNT("exthash_shard_resets_total", 1);
}

// ---------------------------------------------------------------------------
// Checkpoint metadata
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint64_t kShardedMetaMagic = 0x53484152444D4554ULL;  // SHARDMET
}  // namespace

std::vector<std::uint64_t> ShardedTable::serializeMeta() const {
  MetaWriter w;
  w.tag(kShardedMetaMagic);
  w.u64(shards_.size());
  w.u64(static_cast<std::uint64_t>(config_.inner));
  // Length-prefixed per-shard sections keep the inner formats opaque to
  // the façade.
  for (const Shard& shard : shards_) w.vec(shard.table->serializeMeta());
  return w.take();
}

void ShardedTable::restoreMeta(std::span<const std::uint64_t> words) {
  MetaReader r(words);
  r.expectTag(kShardedMetaMagic);
  EXTHASH_CHECK_MSG(r.u64() == shards_.size() &&
                        static_cast<TableKind>(r.u64()) == config_.inner,
                    "sharded checkpoint geometry mismatch");
  // The checkpointed state predates whatever fault latched a shard; the
  // restored structure is consistent, so the shard re-admits traffic.
  clearShardErrors();
  for (const Shard& shard : shards_) {
    const std::vector<std::uint64_t> inner_meta = r.vec();
    shard.table->restoreMeta(inner_meta);
  }
  EXTHASH_CHECK_MSG(r.done(), "trailing words in sharded checkpoint meta");
}

void ShardedTable::invalidateCaches() {
  // Each inner table's attached cache IS the shard's private cache.
  for (const Shard& shard : shards_) shard.table->invalidateCaches();
}

std::size_t ShardedTable::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.table->size();
  return total;
}

namespace {

/// Forwards a shard's layout with block ids namespaced by shard index, so
/// numerically colliding per-device ids stay distinct at the façade level.
class NamespacingVisitor final : public LayoutVisitor {
 public:
  NamespacingVisitor(LayoutVisitor& inner, std::size_t shard)
      : inner_(inner), shard_(shard) {}

  void memoryItem(const Record& record) override { inner_.memoryItem(record); }
  void diskItem(extmem::BlockId block, const Record& record) override {
    EXTHASH_CHECK_MSG(block < (extmem::BlockId{1} << ShardedTable::kLocalIdBits),
                      "shard-local block id overflows the namespace");
    inner_.diskItem(ShardedTable::namespacedBlockId(shard_, block), record);
  }

 private:
  LayoutVisitor& inner_;
  std::size_t shard_;
};

}  // namespace

void ShardedTable::visitLayout(LayoutVisitor& visitor) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    NamespacingVisitor forwarding(visitor, s);
    shards_[s].table->visitLayout(forwarding);
  }
}

std::optional<extmem::BlockId> ShardedTable::primaryBlockOf(
    std::uint64_t key) const {
  const std::size_t s = shardOf(key);
  const auto local = shards_[s].table->primaryBlockOf(key);
  if (!local) return std::nullopt;
  return namespacedBlockId(s, *local);
}

extmem::IoStats ShardedTable::ioStats() const {
  extmem::IoStats total;
  for (const Shard& shard : shards_) {
    total += shard.device->stats();
    if (shard.cache) {
      total.cache_hits += shard.cache->hits();
      total.cache_writebacks += shard.cache->writebacks();
      total.cache_ghost_hits += shard.cache->ghostHits();
    }
  }
  return total;
}

void ShardedTable::flushCache() const {
  // Failed shards are skipped (their quarantined frames stay pinned until
  // clearShardErrors()); a flush fault on a healthy shard latches it, and
  // the remaining shards still get their barrier before the first error
  // surfaces.
  std::exception_ptr first_error;
  for (const Shard& shard : shards_) {
    if (!shard.cache || shard.error) continue;
    try {
      shard.cache->flush();
    } catch (const extmem::IoError&) {
      shard.error = std::current_exception();
      EXTHASH_OBS_COUNT("exthash_shard_failures_total", 1);
      if (!first_error) first_error = shard.error;
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ShardedTable::validateLayout(AuditReport& report) const {
  // No façade-level cache (attachCache is unusable over private shard
  // devices), so skip the base audit and recurse instead: each shard's
  // table audit inherits its own auto-attached cache's audit. Failed
  // shards are skipped — a batch that faulted mid-apply may have left the
  // structure mid-rewrite, which is exactly what the latch records.
  for (const Shard& shard : shards_) {
    if (shard.error) continue;
    shard.table->validateLayout(report);
  }
}

void ShardedTable::registerCaches(extmem::MemoryArbiter& arbiter) const {
  for (const Shard& shard : shards_) {
    if (shard.cache) arbiter.addCache(shard.cache.get());
  }
}

std::string ShardedTable::debugString() const {
  std::string s = "sharded{n=" + std::to_string(shards_.size()) + ", inner=" +
                  std::string(tableKindName(config_.inner)) + ", sizes=[";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(shards_[i].table->size());
  }
  s += "], io=" + std::to_string(ioStats().cost()) + "}";
  return s;
}

}  // namespace exthash::tables
