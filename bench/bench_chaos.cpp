// CHAOS — end-to-end fault-injection lane with a hard PASS gate.
//
// Runs every table kind (plus the sharded façade) through the full
// pipelined + cached + arbitrated stack twice per seed: once fault-free,
// once under a seeded transient-fault schedule (FaultPolicy p per access,
// absorbed by the device's bounded retry ladder — see extmem/fault.h and
// extmem/retry.h). Because the ladder consults the policy BEFORE an
// attempt takes effect, an absorbed fault must be invisible to contents:
// the two arms have to agree bit-exactly.
//
// PASS gate (exit 1 on any miss — CI fails the build):
//   - the faulted arm's content digest equals the fault-free arm's;
//   - the faulted arm's visible contents match an in-memory reference
//     model of the op stream exactly — zero lost, zero duplicated ops;
//   - the schedule actually fired: faults injected > 0 (summed over the
//     policies' own tallies), retries > 0, and nothing escaped the retry
//     budget (gave-up == 0).
//
// The informational columns report the price of resilience: counted I/O
// is identical by construction (faulted attempts never count), so the
// interesting numbers are the fault/retry volumes the gate rode through.
//
// A third arm extends the schedule from absorbed faults to CRASHES: the
// same op stream runs WAL-attached with periodic checkpoints while a
// deterministic crash point freezes the table device mid-apply, and
// recovery on a fresh table must reproduce the acknowledged prefix
// exactly. Both the transient arms' reference model and the crash arm's
// oracle are the ONE AckLedger implementation (durability/ledger.h):
// folded over every window it is the last-op-wins model of the whole
// stream; folded through a recovered LSN it is the acknowledged prefix.
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "durability/ledger.h"
#include "durability/recovery.h"
#include "extmem/block_cache.h"
#include "extmem/fault.h"
#include "extmem/memory_arbiter.h"
#include "extmem/retry.h"
#include "pipeline/ingest_pipeline.h"
#include "tables/sharded_table.h"
#include "util/cli.h"

namespace {

using namespace exthash;
using durability::AckLedger;
using durability::DurabilityManager;
using durability::RecoveryResult;
using extmem::BlockCache;
using extmem::BlockDevice;
using extmem::FaultPolicy;
using extmem::IoOpKind;
using extmem::MemoryArbiter;
using extmem::RetryPolicy;
using pipeline::IngestPipeline;
using tables::Op;
using tables::ShardedTable;
using tables::TableKind;

std::vector<std::uint64_t> distinctUniverse(std::size_t n,
                                            std::uint64_t seed) {
  FeistelPermutation perm(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(perm(i));
  return keys;
}

struct ChaosResult {
  std::uint64_t digest = 0;
  bool model_exact = false;  // visible contents == reference model
  std::uint64_t faults = 0;
  std::uint64_t retries = 0;
  std::uint64_t gave_up = 0;
  std::uint64_t io_cost = 0;
};

ChaosResult chaosArm(TableKind kind, std::size_t ops_count,
                     std::size_t universe_size, std::uint64_t seed,
                     bool faulted) {
  bench::Rig rig(/*b=*/8, /*memory_words=*/0, deriveSeed(seed, 1));
  // Policies and cache outlive the table: destructors flush and free
  // through the devices and must still find them alive.
  std::vector<std::unique_ptr<FaultPolicy>> policies;
  std::optional<BlockCache> cache;

  tables::GeneralConfig cfg;
  cfg.expected_n = universe_size;
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

  auto* sharded = dynamic_cast<ShardedTable*>(table.get());
  if (sharded == nullptr) {
    cache.emplace(*rig.device, *rig.memory, 4,
                  BlockCache::WritePolicy::kWriteBack,
                  extmem::ReplacementKind::kLru);
    table->attachCache(&*cache);
  }

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

  // kBuffered is insert-only over distinct keys (old versions of a
  // re-inserted key stay shadow-visible, so only a distinct stream is
  // batch-boundary-invariant); everyone else gets mixed churn.
  const bool distinct_only = kind == TableKind::kBuffered;
  const auto universe =
      distinctUniverse(distinct_only ? ops_count : universe_size, seed);

  // Reference model of the submitted stream: the durability layer's
  // AckLedger, folded over every window — last op per key wins, which is
  // exactly the pipeline's coalescing contract and every table's per-key
  // ordering guarantee. (The arbiter resizes the pipeline's windows
  // mid-run, so ledger and pipeline seal at different boundaries; the
  // full fold is boundary-independent, which is all this arm needs.)
  AckLedger ledger(64);
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
    for (std::size_t i = 0; i < ops_count; ++i) {
      const std::uint64_t key =
          distinct_only ? universe[i] : universe[rng.below(universe.size())];
      const Op op = !distinct_only && i % 9 == 7 ? Op::eraseOp(key)
                                                 : Op::insertOp(key, i + 1);
      pipe.submit(op);
      ledger.submit(op);
      if (i % 512 == 511) {
        pipe.submitMaintenance([a = &arbiter] { a->rebalance(); });
      }
    }
    pipe.drain();
  }
  table->flushCache();

  ledger.seal();

  ChaosResult out;
  out.digest = bench::contentChecksum(*table, universe);
  out.model_exact = true;
  const auto model =
      ledger.stateThroughLsn(std::numeric_limits<std::uint64_t>::max());
  for (const std::uint64_t key : universe) {
    const auto it = model.find(key);
    const std::optional<std::uint64_t> want =
        it == model.end() || !it->second.has_value() ? std::nullopt
                                                     : it->second;
    if (table->lookup(key) != want) {
      out.model_exact = false;
      break;
    }
  }
  const auto io = table->ioStats();
  for (const auto& policy : policies) out.faults += policy->faultsInjected();
  out.retries = io.io_retries;
  out.gave_up = io.io_gave_up;
  out.io_cost = io.cost();
  return out;
}

struct CrashArmResult {
  bool fired = false;
  bool prefix_ok = false;
  bool contents_ok = false;
  std::uint64_t acked_lsn = 0;
  std::uint64_t recovered_lsn = 0;
  std::uint64_t replayed = 0;

  bool pass() const { return fired && prefix_ok && contents_ok; }
};

// The crash-schedule arm: same stream, WAL-attached, deterministic crash
// mid-apply, recovery on a fresh table, AckLedger oracle on the
// acknowledged prefix. Fixed window capacity (no arbiter) so ledger
// window k IS WAL LSN k — the prefix fold depends on seal boundaries,
// unlike the full fold above.
CrashArmResult chaosCrashArm(TableKind kind, std::size_t ops_count,
                             std::size_t universe_size, std::uint64_t seed) {
  bench::Rig rig(/*b=*/8, /*memory_words=*/0, deriveSeed(seed, 1));
  tables::GeneralConfig cfg;
  cfg.expected_n = universe_size;
  cfg.target_load = 0.5;
  cfg.buffer_items = 32;
  cfg.beta = 4;
  cfg.gamma = 2;
  cfg.shards = 4;
  cfg.sharded_inner = TableKind::kChaining;
  cfg.shard_threads = 1;
  cfg.shard_cache_frames = 0;  // no dirty frames to strand on a frozen device
  auto table = makeTable(kind, rig.context(), cfg);

  DurabilityManager dm(rig.device->wordsPerBlock());
  dm.begin(*table);

  // Deep enough that at least one checkpoint has landed (every 128 ops),
  // so recovery exercises manifest + WAL-tail replay, not just replay.
  FaultPolicy policy(deriveSeed(seed, 9));
  const std::size_t torn = rig.device->wordsPerBlock() / 2;
  policy.crashOpNumber(IoOpKind::kWrite, 96, torn);
  policy.crashOpNumber(IoOpKind::kRmw, 96, torn);
  table->durableDevice(0).setFaultPolicy(&policy);

  const bool distinct_only = kind == TableKind::kBuffered;
  const auto universe =
      distinctUniverse(distinct_only ? ops_count : universe_size, seed);

  constexpr std::size_t kWindow = 64;
  AckLedger ledger(kWindow);
  CrashArmResult out;
  {
    pipeline::PipelineConfig pc;
    pc.batch_capacity = kWindow;
    pc.max_pending_batches = 2;
    pc.wal = &dm.wal();
    IngestPipeline pipe(*table, pc);
    Xoshiro256StarStar rng(deriveSeed(seed, 5));
    for (std::size_t i = 0; i < ops_count; ++i) {
      const std::uint64_t key =
          distinct_only ? universe[i] : universe[rng.below(universe.size())];
      const Op op = !distinct_only && i % 9 == 7 ? Op::eraseOp(key)
                                                 : Op::insertOp(key, i + 1);
      try {
        pipe.submit(op);
      } catch (...) {
        out.fired = true;
        break;
      }
      ledger.submit(op);
      if (i % 128 == 127 && i + 1 < ops_count) {
        try {
          pipe.submitMaintenance([&dm, &table] { dm.checkpoint(*table); });
        } catch (...) {
          out.fired = true;
          break;
        }
      }
    }
    if (!out.fired) {
      try {
        pipe.drain();
      } catch (...) {
        out.fired = true;
      }
    }
  }
  ledger.seal();
  out.fired = out.fired && policy.crashesFired() > 0;
  out.acked_lsn = dm.wal().durableLsn();

  dm.freezeAll(*table);
  table->durableDevice(0).setFaultPolicy(nullptr);
  policy.clear();
  table.reset();
  rig.device->thaw();

  auto fresh = makeTable(kind, rig.context(), cfg);
  const RecoveryResult rr = dm.recover(*fresh);
  out.recovered_lsn = rr.recovered_lsn;
  out.replayed = rr.replayed_records;
  out.prefix_ok = rr.recovered_lsn >= out.acked_lsn;

  out.contents_ok = true;
  const auto expected = ledger.stateThroughLsn(rr.recovered_lsn);
  for (const std::uint64_t key : universe) {
    const auto it = expected.find(key);
    const std::optional<std::uint64_t> want =
        it == expected.end() || !it->second.has_value() ? std::nullopt
                                                        : it->second;
    if (fresh->lookup(key) != want) {
      out.contents_ok = false;
      break;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_chaos",
                 "Chaos lane: transient-fault equivalence gate over every "
                 "table kind in pipelined+cached+arbitrated mode");
  args.addUintFlag("ops", 4000, "operations per arm");
  args.addUintFlag("universe", 512, "key-universe size (mixed-churn kinds)");
  args.addStringFlag("seeds", "1,7,42", "comma-separated chaos seeds");
  if (!args.parse(argc, argv)) return 0;

  const std::size_t ops_count = args.getUint("ops");
  const std::size_t universe_size = args.getUint("universe");
  std::vector<std::uint64_t> seeds;
  {
    const std::string& s = args.getString("seeds");
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t comma = s.find(',', pos);
      const std::string tok =
          s.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  bench::printHeader(
      "CHAOS: transient-fault equivalence under pipelined ingest",
      "Absorbed faults must be invisible: fault-before-effect + bounded "
      "retry keep contents bit-exact (SPAA'09 buffering model unchanged).");

  TablePrinter printer({"kind", "seed", "digest", "model", "faults",
                        "retries", "gave_up", "verdict"});
  bool pass = true;
  for (const TableKind kind : tables::kAllTableKindsWithSharded) {
    for (const std::uint64_t seed : seeds) {
      const ChaosResult clean =
          chaosArm(kind, ops_count, universe_size, seed, /*faulted=*/false);
      const ChaosResult chaos =
          chaosArm(kind, ops_count, universe_size, seed, /*faulted=*/true);
      const bool digest_ok = chaos.digest == clean.digest;
      const bool model_ok = clean.model_exact && chaos.model_exact;
      const bool fired_ok =
          chaos.faults > 0 && chaos.retries > 0 && chaos.gave_up == 0 &&
          clean.faults == 0;
      const bool row_ok = digest_ok && model_ok && fired_ok;
      pass = pass && row_ok;
      printer.addRow({std::string(tableKindName(kind)), std::to_string(seed),
                      digest_ok ? "match" : "DIVERGED",
                      model_ok ? "exact" : "LOST/DUP",
                      std::to_string(chaos.faults),
                      std::to_string(chaos.retries),
                      std::to_string(chaos.gave_up),
                      row_ok ? "ok" : "FAIL"});
    }
  }
  printer.print(std::cout);
  bench::saveCsv(printer, "chaos");

  std::cout << "\n";
  TablePrinter crash({"kind", "seed", "crash", "acked", "recovered",
                      "replayed", "contents", "verdict"});
  for (const TableKind kind : tables::kAllTableKindsWithSharded) {
    // One crash episode per kind bounds the lane's cost; the exhaustive
    // kind x seed x crash-point sweep lives in tests/test_crash_recovery.
    const std::uint64_t seed = seeds.empty() ? 1 : seeds.front();
    const CrashArmResult r =
        chaosCrashArm(kind, ops_count, universe_size, seed);
    pass = pass && r.pass();
    crash.addRow({std::string(tableKindName(kind)), std::to_string(seed),
                  r.fired ? "fired" : "NEVER-FIRED",
                  std::to_string(r.acked_lsn),
                  std::to_string(r.recovered_lsn), std::to_string(r.replayed),
                  r.contents_ok ? "exact" : "LOST/DUP",
                  r.pass() ? "ok" : "FAIL"});
  }
  crash.print(std::cout);
  bench::saveCsv(crash, "chaos_crash");

  if (!pass) {
    std::cout << "\nCHAOS: FAIL — a faulted run diverged, dropped ops, a "
                 "schedule never fired, or recovery lost an acknowledged "
                 "op\n";
    return 1;
  }
  std::cout << "\nCHAOS: PASS — all kinds bit-exact under transient faults "
               "and prefix-exact after crashes\n";
  return 0;
}
