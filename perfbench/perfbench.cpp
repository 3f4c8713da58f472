// perfbench: runs one workload of the repository benchmark
// closed-loop from a single client thread through the public API, checks
// every answer, and prints every metric by name and unit. The last line
// is `RESULT <json>` for perfbench/run.py, which builds and invokes this
// binary once per workload and run (see perfbench/README.md).
//
//   perfbench --workload=archive --seed=1 --seconds=8 --trace=0
//             --out_dir=.bench_build/perfbench-out
//
// The stack under test:
//   IngestPipeline -> ProbeTable -> ShardedTable -> inner table ->
//   BlockCache -> BlockDevice -> StorageBackend (-> CountingFileOps)
// plus WalWriter / DurabilityManager in `archive`. Device latency
// emulation (setAccessLatency) stays 0, so the numbers measure the
// program and not the scheduler.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/buffered_hash_table.h"
#include "durability/recovery.h"
#include "extmem/bucket_page.h"
#include "obs/trace.h"
#include "pipeline/ingest_pipeline.h"
#include "probes.h"
#include "tables/sharded_table.h"
#include "util/audit.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/zipf.h"

namespace {

using namespace exthash;
using perfbench::CallTally;
using perfbench::CountingFileOps;
using perfbench::domainBit;
using perfbench::LayerSpan;
using perfbench::ledger;
using perfbench::Ledger;
using perfbench::nowNs;
using perfbench::ProbeTable;

constexpr std::size_t kRecordsPerBlock = 64;
constexpr std::size_t kShards = 4;
constexpr std::size_t kShardThreads = 2;
constexpr double kTargetLoad = 0.5;
constexpr std::size_t kSetupRepeats = 7;
// Fixed, so the program under test sees only the generated operations and
// never the workload seed.
constexpr std::uint64_t kHashSeed = 0x6a09e667f3bcc909ULL;

std::uint64_t valueOf(std::uint64_t key) {
  return splitmix64(key ^ 0x243f6a8885a308d3ULL);
}

// --- workload shapes (why each exists: perfbench/README.md) ---------------

// The work of a run is --seconds times the workload's reference rate, so
// every version of the program measures the same operations (counted I/O,
// space and memory stay comparable); on the reference host the timed phase
// lasts about --seconds.
struct ArchiveShape {
  static constexpr double kRefOpsPerSecond = 100000;
  static constexpr std::uint64_t kLookupPermille = 50;
  static constexpr std::size_t kWindow = 1024;
  static constexpr std::size_t kDepth = 2;
  static constexpr std::size_t kBufferItems = 4096;
  static constexpr std::size_t kBeta = 8;
  static constexpr std::uint64_t kCheckpointEvery = 64 * 1024;
  // An archive is never empty: the preload gives set-up real work (and a
  // steady, measurable setup_s) and the initial checkpoint real images.
  static constexpr std::uint64_t kPreload = 1u << 18;
};

struct DedupShape {
  static constexpr double kRefOpsPerSecond = 1000000;
  static constexpr std::uint64_t kUniverse = 1u << 20;
  static constexpr double kTheta = 0.99;
  static constexpr std::size_t kChunk = 256;
  static constexpr std::size_t kCacheDivisor = 4;
};

struct MixedShape {
  static constexpr double kRefOpsPerSecond = 33000;
  static constexpr std::uint64_t kLookupPermille = 500;
  static constexpr std::uint64_t kPreload = 1u << 19;
  static constexpr std::size_t kWindow = 4096;
  static constexpr std::size_t kDepth = 2;
  static constexpr std::size_t kCacheDivisor = 16;
};

/// Primary-area blocks of a sharded chaining table (the factory's
/// bucketsFor, per shard).
std::uint64_t chainingPrimaryBlocks(std::uint64_t expected_n) {
  const std::uint64_t per_shard = (expected_n + kShards - 1) / kShards;
  return kShards * static_cast<std::uint64_t>(std::ceil(
                       static_cast<double>(per_shard) /
                       (kTargetLoad * static_cast<double>(kRecordsPerBlock))));
}

// --- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string kind;  // "e2e", "layer" (BENCHMARK.json), "detail" (printed)
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::pair<std::string, std::uint64_t>> counted;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit,
           std::string kind) {
    if (!std::isfinite(value)) value = 0.0;
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(kind)});
  }
  void fail(const std::string& why) { failures.push_back(why); }
  void require(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void printReport(const Report& r) {
  for (const auto& [key, value] : r.info) {
    std::cout << "info    " << key << " = " << value << "\n";
  }
  for (const Metric& m : r.metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-7s %-38s %16.6g %s", m.kind.c_str(),
                  m.name.c_str(), m.value, m.unit.c_str());
    std::cout << line << "\n";
  }
  for (const std::string& f : r.failures) std::cout << "FAIL    " << f << "\n";
  std::ostringstream json;
  json << "{\"correct\":" << (r.failures.empty() ? "true" : "false")
       << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : r.metrics) {
    json << (first ? "" : ",") << jsonString(m.name)
         << ":{\"value\":" << jsonNumber(m.value)
         << ",\"unit\":" << jsonString(m.unit)
         << ",\"kind\":" << jsonString(m.kind) << "}";
    first = false;
  }
  json << "},\"counted\":{";
  first = true;
  for (const auto& [key, value] : r.counted) {
    json << (first ? "" : ",") << jsonString(key) << ":" << value;
    first = false;
  }
  json << "},\"info\":{";
  first = true;
  for (const auto& [key, value] : r.info) {
    json << (first ? "" : ",") << jsonString(key) << ":" << jsonString(value);
    first = false;
  }
  json << "},\"failures\":[";
  first = true;
  for (const std::string& f : r.failures) {
    json << (first ? "" : ",") << jsonString(f);
    first = false;
  }
  json << "]}";
  std::cout << "RESULT " << json.str() << std::endl;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Client-side latency samples in nanoseconds, split into the timed
/// phase's segments.
class Latencies {
 public:
  void add(std::uint64_t ns) {
    samples_.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ns, 0xffffffffu)));
    sum_ += ns;
  }
  void endSegment() { ends_.push_back(samples_.size()); }
  std::size_t count() const { return samples_.size(); }
  double meanNs() const {
    return samples_.empty() ? 0.0
                            : static_cast<double>(sum_) /
                                  static_cast<double>(samples_.size());
  }
  double sumNs() const { return static_cast<double>(sum_); }
  /// The ceil(q*n)-th smallest of all samples, in microseconds.
  double quantileUs(double q) const {
    return quantileUs(q, 0, samples_.size());
  }
  /// Median over segments of each segment's quantile q, in microseconds.
  double segmentQuantileUs(double q) const {
    std::vector<double> per_segment;
    std::size_t begin = 0;
    for (const std::size_t end : ends_) {
      if (end > begin) per_segment.push_back(quantileUs(q, begin, end));
      begin = end;
    }
    return median(per_segment);
  }

 private:
  double quantileUs(double q, std::size_t begin, std::size_t end) const {
    if (end <= begin) return 0.0;
    std::vector<std::uint32_t> v(
        samples_.begin() + static_cast<std::ptrdiff_t>(begin),
        samples_.begin() + static_cast<std::ptrdiff_t>(end));
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    const std::size_t i = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                     v.end());
    return v[i] / 1000.0;
  }

  std::vector<std::uint32_t> samples_;
  std::vector<std::size_t> ends_;
  std::uint64_t sum_ = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- the stack under test ---------------------------------------------------

struct StackConfig {
  tables::GeneralConfig table;
  bool pipelined = false;
  pipeline::PipelineConfig pipeline;
  bool durable = false;
  extmem::StorageOptions durable_storage;
  std::uint64_t preload = 0;
  FeistelPermutation keys{0};
};

/// Declared in dependency order: members are destroyed pipeline first
/// (it drains into the probe and the WAL), the table next, the rig last.
struct Stack {
  bench::Rig rig{kRecordsPerBlock, /*memory_words=*/0, kHashSeed};
  std::unique_ptr<tables::ExternalHashTable> table;
  std::unique_ptr<durability::DurabilityManager> durability;
  std::unique_ptr<perfbench::ProbeTable> probe;
  std::unique_ptr<pipeline::IngestPipeline> pipeline;

  tables::ShardedTable& sharded() {
    return static_cast<tables::ShardedTable&>(*table);
  }
};

/// Everything the benchmark counts as set-up: building the stack, the
/// preload, and the durability layer's initial checkpoint.
std::unique_ptr<Stack> buildStack(const StackConfig& cfg) {
  auto s = std::make_unique<Stack>();
  s->table = tables::makeTable(tables::TableKind::kSharded, s->rig.context(),
                               cfg.table);
  std::vector<tables::Op> ops;
  constexpr std::uint64_t kPreloadChunk = 1u << 16;
  for (std::uint64_t i = 0; i < cfg.preload; i += kPreloadChunk) {
    ops.clear();
    for (std::uint64_t j = i; j < std::min(cfg.preload, i + kPreloadChunk);
         ++j) {
      const std::uint64_t key = cfg.keys(j);
      ops.push_back(tables::Op::insertOp(key, valueOf(key)));
    }
    s->table->applyBatch(ops);
  }
  if (cfg.preload > 0) s->table->flushCache();
  s->probe = std::make_unique<perfbench::ProbeTable>(*s->table);
  pipeline::PipelineConfig pcfg = cfg.pipeline;
  if (cfg.durable) {
    s->durability = std::make_unique<durability::DurabilityManager>(
        extmem::wordsForRecordCapacity(kRecordsPerBlock), cfg.durable_storage);
    s->durability->begin(*s->probe);
    pcfg.wal = &s->durability->wal();
  }
  if (cfg.pipelined) {
    s->pipeline = std::make_unique<pipeline::IngestPipeline>(*s->probe, pcfg);
  }
  return s;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8;
  bool trace = false;
  std::string out_dir;
};

struct Snapshot {
  extmem::IoStats io;
  std::uint64_t cache_misses = 0;
  std::uint64_t merges = 0;
};

Snapshot snapshot(Stack& s) {
  Snapshot snap;
  snap.io = s.table->ioStats();
  auto& sharded = s.sharded();
  for (std::size_t i = 0; i < sharded.shardCount(); ++i) {
    if (const auto* cache = sharded.shardCache(i)) {
      snap.cache_misses += cache->misses();
    }
    if (const auto* buffered =
            dynamic_cast<const core::BufferedHashTable*>(&sharded.shard(i))) {
      snap.merges += buffered->merges();
    }
  }
  return snap;
}

/// What the client loop measured.
struct ClientRun {
  std::uint64_t inserts = 0;
  std::uint64_t lookups = 0;
  std::uint64_t ops = 0;
  std::uint64_t wrong = 0;
  std::uint64_t errors = 0;
  Latencies insert_lat;
  Latencies lookup_lat;
  double wall_s = 0.0;
  std::vector<double> checkpoint_ms;
  std::vector<std::string> error_messages;
  // The timed phase is cut into kSegments equal runs of operations; the
  // timing metrics are medians over segments, which keeps a transient
  // stall of the host from moving a whole run.
  static constexpr std::uint64_t kSegments = 20;
  std::vector<double> segment_ops_per_s;
  std::uint64_t segment_start_ns = 0;
  std::uint64_t segment_start_ops = 0;

  void start() { segment_start_ns = nowNs(); }
  /// Close the current segment after `ops_done` operations.
  void endSegment(std::uint64_t ops_done) {
    const std::uint64_t now = nowNs();
    segment_ops_per_s.push_back(
        ratio(static_cast<double>(ops_done - segment_start_ops),
              static_cast<double>(now - segment_start_ns) / 1e9));
    segment_start_ns = now;
    segment_start_ops = ops_done;
    insert_lat.endSegment();
    lookup_lat.endSegment();
  }
  /// Operation count after which segment `closed` ends.
  static std::uint64_t segmentEnd(std::uint64_t total, std::uint64_t closed) {
    return total * (closed + 1) / kSegments;
  }
};

void noteError(ClientRun& run, const std::exception& e) {
  ++run.errors;
  if (run.error_messages.size() < 3) run.error_messages.push_back(e.what());
}

/// archive and mixed-file: inserts of fresh keys and awaited lookups of a
/// uniformly chosen inserted key, through the pipeline.
void runPipelinedClient(Stack& s, const Options& opt, std::uint64_t ops,
                        std::uint64_t lookup_permille,
                        std::uint64_t first_key_index,
                        const FeistelPermutation& keys,
                        std::uint64_t checkpoint_every, ClientRun& run) {
  auto& pipe = *s.pipeline;
  Xoshiro256StarStar rng(deriveSeed(opt.seed, 2));
  std::uint64_t next_key = first_key_index;
  const auto checkpoint = [&s, &run, trace = opt.trace] {
    const LayerSpan span("checkpoint", perfbench::kCheckpointLayer,
                         domainBit(perfbench::kStorageDomain),
                         /*worker=*/true);
    ledger().in_checkpoint.store(true, std::memory_order_relaxed);
    const std::uint64_t start = trace ? nowNs() : 0;
    try {
      s.durability->checkpoint(*s.probe);
    } catch (...) {
      ledger().in_checkpoint.store(false, std::memory_order_relaxed);
      throw;
    }
    ledger().in_checkpoint.store(false, std::memory_order_relaxed);
    if (trace) run.checkpoint_ms.push_back((nowNs() - start) / 1e6);
  };

  const std::uint64_t t0 = nowNs();
  run.start();
  std::uint64_t closed = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    if (closed + 1 < ClientRun::kSegments &&
        i == ClientRun::segmentEnd(ops, closed)) {
      run.endSegment(i);
      ++closed;
    }
    const bool lookup =
        next_key > 0 && rng.below(1000) < lookup_permille;
    if (!lookup) {
      const std::uint64_t key = keys(next_key++);
      const std::uint64_t start = nowNs();
      try {
        LayerSpan span("submit", perfbench::kPipelineSubmitLayer, 0, false);
        const std::uint64_t waits =
            opt.trace ? pipe.stats().submit_waits : 0;
        pipe.insert(key, valueOf(key));
        // A submit that blocked on backpressure waited for the worker.
        if (opt.trace && pipe.stats().submit_waits != waits) {
          span.alsoSubtract(domainBit(perfbench::kWorkerDomain));
        }
      } catch (const std::exception& e) {
        noteError(run, e);
      }
      run.insert_lat.add(nowNs() - start);
      ++run.inserts;
      if (checkpoint_every > 0 && run.inserts % checkpoint_every == 0) {
        try {
          pipe.submitMaintenance(checkpoint);
        } catch (const std::exception& e) {
          noteError(run, e);
        }
      }
    } else {
      const std::uint64_t key = keys(rng.below(next_key));
      const std::uint64_t start = nowNs();
      std::optional<std::uint64_t> got;
      try {
        const LayerSpan span("lookup", perfbench::kPipelineLookupLayer,
                             domainBit(perfbench::kWorkerDomain), false);
        got = pipe.submitLookup(key).get();
        if (got != valueOf(key)) ++run.wrong;
      } catch (const std::exception& e) {
        noteError(run, e);
      }
      run.lookup_lat.add(nowNs() - start);
      ++run.lookups;
    }
  }
  try {
    pipe.drain();
  } catch (const std::exception& e) {
    noteError(run, e);
  }
  run.endSegment(ops);
  run.wall_s = (nowNs() - t0) / 1e9;
  run.ops = ops;
}

/// The dedup event stream as Zipf ranks, drawn before the timed phase (a
/// CDF binary search per event would otherwise dominate the client loop).
/// Rank r is key perm(r), exactly workload::ZipfKeyStream's construction.
std::vector<std::uint32_t> dedupRanks(std::uint64_t stream_seed,
                                      std::uint64_t events) {
  Xoshiro256StarStar rng(deriveSeed(stream_seed, 1));
  const ZipfDistribution zipf(DedupShape::kUniverse, DedupShape::kTheta);
  std::vector<std::uint32_t> ranks(events);
  for (auto& r : ranks) r = static_cast<std::uint32_t>(zipf(rng));
  return ranks;
}

/// dedup: per 256-event chunk one lookupBatch, then one applyBatch of the
/// IDs never seen before. `seen` is the client-side model, indexed by rank.
void runDedupClient(Stack& s, const std::vector<std::uint32_t>& stream,
                    const FeistelPermutation& perm,
                    std::vector<std::uint8_t>& seen, ClientRun& run) {
  const std::uint64_t events = stream.size();
  seen.assign(DedupShape::kUniverse + 1, 0);
  std::vector<std::uint64_t> ranks;
  std::vector<std::uint64_t> keys;
  std::vector<std::optional<std::uint64_t>> out;
  std::vector<tables::Op> fresh;
  const std::uint64_t t0 = nowNs();
  run.start();
  std::uint64_t closed = 0;
  for (std::uint64_t done = 0; done < events;) {
    if (closed + 1 < ClientRun::kSegments &&
        done >= ClientRun::segmentEnd(events, closed)) {
      run.endSegment(done);
      ++closed;
    }
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(DedupShape::kChunk, events - done));
    ranks.resize(n);
    keys.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ranks[i] = stream[done + i];
      keys[i] = perm(ranks[i]);
    }
    out.assign(n, std::nullopt);
    std::uint64_t start = nowNs();
    try {
      s.probe->lookupBatch(keys, out);
    } catch (const std::exception& e) {
      noteError(run, e);
    }
    run.lookup_lat.add(nowNs() - start);
    fresh.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (seen[ranks[i]] != 0) {
        if (out[i] != valueOf(keys[i])) ++run.wrong;
      } else if (out[i].has_value()) {
        ++run.wrong;  // "seen" although never inserted
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (seen[ranks[i]] == 0) {
        seen[ranks[i]] = 1;
        fresh.push_back(tables::Op::insertOp(keys[i], valueOf(keys[i])));
      }
    }
    if (!fresh.empty()) {
      start = nowNs();
      try {
        s.probe->applyBatch(fresh);
      } catch (const std::exception& e) {
        noteError(run, e);
      }
      run.insert_lat.add(nowNs() - start);
      run.inserts += fresh.size();
    }
    run.lookups += n;
    done += n;
  }
  try {
    s.probe->flushCache();
  } catch (const std::exception& e) {
    noteError(run, e);
  }
  run.endSegment(events);
  run.wall_s = (nowNs() - t0) / 1e9;
  run.ops = events;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

extmem::StorageOptions fileStorage(const std::string& dir,
                                   extmem::FileOps* ops) {
  extmem::StorageOptions storage;
  storage.backend = extmem::StorageOptions::Backend::kFile;
  storage.directory = dir;
  storage.file_ops = ops;
  return storage;
}

/// One workload's configuration at a given --seconds.
struct Plan {
  StackConfig stack;
  std::uint64_t ops = 0;
  std::uint64_t primary_blocks = 0;
  std::uint64_t cache_frames = 0;
  std::uint64_t lookup_permille = 0;
  std::uint64_t checkpoint_every = 0;
};

Plan makePlan(const Options& opt, const std::string& file_dir,
              CountingFileOps& table_ops, CountingFileOps& wal_ops) {
  Plan p;
  tables::GeneralConfig& t = p.stack.table;
  t.shards = kShards;
  t.shard_threads = kShardThreads;
  t.target_load = kTargetLoad;
  p.stack.keys = FeistelPermutation(deriveSeed(opt.seed, 1));
  if (opt.workload == "archive") {
    p.ops = static_cast<std::uint64_t>(opt.seconds *
                                       ArchiveShape::kRefOpsPerSecond);
    t.sharded_inner = tables::TableKind::kBuffered;
    t.expected_n = ArchiveShape::kPreload + p.ops;
    t.buffer_items = ArchiveShape::kBufferItems;
    t.beta = ArchiveShape::kBeta;
    t.gamma = 2;
    t.shard_storage = fileStorage(file_dir, &table_ops);
    p.stack.preload = ArchiveShape::kPreload;
    p.stack.pipelined = true;
    p.stack.pipeline.batch_capacity = ArchiveShape::kWindow;
    p.stack.pipeline.max_pending_batches = ArchiveShape::kDepth;
    p.stack.durable = true;
    p.stack.durable_storage = fileStorage(file_dir, &wal_ops);
    p.lookup_permille = ArchiveShape::kLookupPermille;
    p.checkpoint_every = ArchiveShape::kCheckpointEvery;
  } else if (opt.workload == "dedup") {
    p.ops = static_cast<std::uint64_t>(opt.seconds *
                                       DedupShape::kRefOpsPerSecond);
    t.sharded_inner = tables::TableKind::kChaining;
    t.expected_n = DedupShape::kUniverse;
    p.primary_blocks = chainingPrimaryBlocks(t.expected_n);
    p.cache_frames = p.primary_blocks / DedupShape::kCacheDivisor;
  } else {
    p.ops = static_cast<std::uint64_t>(opt.seconds *
                                       MixedShape::kRefOpsPerSecond);
    t.sharded_inner = tables::TableKind::kChaining;
    t.expected_n = MixedShape::kPreload + p.ops / 2;
    t.shard_storage = fileStorage(file_dir, &table_ops);
    p.primary_blocks = chainingPrimaryBlocks(t.expected_n);
    p.cache_frames = p.primary_blocks / MixedShape::kCacheDivisor;
    p.stack.preload = MixedShape::kPreload;
    p.stack.pipelined = true;
    p.stack.pipeline.batch_capacity = MixedShape::kWindow;
    p.stack.pipeline.max_pending_batches = MixedShape::kDepth;
    p.lookup_permille = MixedShape::kLookupPermille;
  }
  if (p.cache_frames > 0) {
    t.shard_cache_frames = p.cache_frames;
    t.shard_cache_write_back = true;
    t.shard_cache_replacement = extmem::ReplacementKind::kLru;
  }
  p.stack.pipeline.record_apply_latency = opt.trace;
  return p;
}

/// Syscall time and calls of one kind during the timed phase.
struct SyscallTally {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  double meanNs() const {
    return ratio(static_cast<double>(ns), static_cast<double>(calls));
  }
};

/// What the timed phase measured beyond the client's own record.
struct Measured {
  std::vector<double> setup_s;
  std::uint64_t merges = 0;
  std::uint64_t cache_misses = 0;
  extmem::IoStats io;  // the table's ioStats() diffs
  pipeline::PipelineStats pipeline;
  SyscallTally pread;
  SyscallTally pwrite;
  SyscallTally wal_fsync;  // outside checkpoints
  std::uint64_t fsyncs = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_blocks = 0;
  std::uint64_t wal_groups = 0;
  std::uint64_t checkpoints = 0;
  double window_apply_p50_us = 0.0;  // traced
  double window_apply_p99_us = 0.0;
  std::uint64_t live_blocks = 0;
  double block_bytes = 0.0;
  double live_items = 0.0;
  std::uint64_t failed_shards = 0;
  double wall_ns = 0.0;
  std::array<std::uint64_t, perfbench::kDomains> busy{};
  std::array<std::uint64_t, perfbench::kSpanLayers> self_ns{};
  std::uint64_t wal_in_checkpoint_ns = 0;
  bool traced = false;
  bool pipelined = false;
};

/// The benchmark's own test: the probes must agree with the layers' own
/// counters.
void reconcile(Report& report, const Stack& s, const ClientRun& run,
               const pipeline::PipelineStats& ps, const extmem::IoStats& io,
               std::uint64_t pwrites) {
  const auto& probe = *s.probe;
  const extmem::IoStats probed = probe.apply.io + probe.lookups.io +
                                 probe.flush.io;
  report.require(probed.reads == io.reads && probed.writes == io.writes &&
                     probed.rmws == io.rmws &&
                     probed.cache_hits == io.cache_hits &&
                     probed.cache_writebacks == io.cache_writebacks &&
                     probed.allocated_blocks == io.allocated_blocks &&
                     probed.freed_blocks == io.freed_blocks,
                 "reconcile: probe I/O diffs do not add up to the table's "
                 "ioStats() diff");
  if (s.pipeline) {
    report.require(ps.ops_submitted == run.inserts,
                   "reconcile: pipeline ops_submitted != client inserts");
    report.require(ps.lookups_submitted == run.lookups,
                   "reconcile: pipeline lookups_submitted != client lookups");
  }
  if (s.durability) {
    const auto& wal = s.durability->wal();
    report.require(wal.recordsAppended() == ps.batches_applied,
                   "reconcile: WAL records != pipeline batches_applied");
    report.require(wal.durableLsn() + 1 == wal.nextLsn() &&
                       wal.durableLsn() == wal.recordsAppended(),
                   "WAL durable LSN does not cover every sealed window");
  }
  if (s.table->durableDevice(0).storagePersistent()) {
    report.require(pwrites >= io.writes + io.rmws,
                   "reconcile: storage pwrites < device writes + rmws");
  }
}

/// The table's end state against the client's model.
void checkContent(Report& report, Stack& s,
                  const std::vector<std::uint64_t>& inserted_keys) {
  std::uint64_t expect = 0;
  for (const std::uint64_t k : inserted_keys) {
    expect += splitmix64(k * 0x9E3779B97F4A7C15ULL ^ valueOf(k));
  }
  try {
    report.require(bench::contentChecksum(*s.table, inserted_keys) == expect,
                   "content checksum differs from the client model");
  } catch (const std::exception& e) {
    report.fail(std::string("content checksum raised: ") + e.what());
  }
}

void addEndToEnd(Report& report, const ProbeTable& probe,
                 const ClientRun& run, const Measured& m) {
  const std::uint64_t insert_io = (probe.apply.io + probe.flush.io).cost();
  const std::uint64_t lookup_io = probe.lookups.io.cost();
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  report.add("ops_per_s", median(run.segment_ops_per_s), "ops/s", "e2e");
  report.add("lookup_p50_us", run.lookup_lat.segmentQuantileUs(0.50), "us",
             "e2e");
  report.add("insert_io", ratio(n(insert_io), n(run.inserts)), "io/insert",
             "e2e");
  report.add("lookup_io", ratio(n(lookup_io), n(run.lookups)), "io/lookup",
             "e2e");
  report.add("space_amp",
             ratio(n(m.live_blocks) * m.block_bytes, m.live_items * 16.0),
             "ratio", "e2e");
  report.add("peak_rss_mb", peakRssMb(), "MB", "e2e");
  report.add("setup_s", median(m.setup_s), "s", "e2e");
  // Tail latencies move 10-40% between runs on a shared host, more than
  // any bound an end-to-end gate may use; they are reported per layer.
  report.add("client.insert_p99_us", run.insert_lat.segmentQuantileUs(0.99),
             "us", "layer");
  report.add("client.lookup_p99_us", run.lookup_lat.segmentQuantileUs(0.99),
             "us", "layer");
  report.add("insert_samples", n(run.insert_lat.count()), "count", "detail");
  report.add("lookup_samples", n(run.lookup_lat.count()), "count", "detail");
  report.add("insert_p50_us", run.insert_lat.segmentQuantileUs(0.50), "us",
             "detail");
  report.add("whole_run_ops_per_s", ratio(n(run.ops), run.wall_s), "ops/s",
             "detail");
  report.add("whole_run_insert_p99_us", run.insert_lat.quantileUs(0.99),
             "us", "detail");
  report.add("whole_run_lookup_p99_us", run.lookup_lat.quantileUs(0.99),
             "us", "detail");
  report.add("failed_frac", ratio(n(report.failed), n(run.ops)), "frac",
             "detail");
  report.add("timed_s", run.wall_s, "s", "detail");
  report.counted = {{"insert_io", insert_io},
                    {"lookup_io", lookup_io},
                    {"inserts", run.inserts},
                    {"lookups", run.lookups},
                    {"device_reads", m.io.reads},
                    {"device_writes", m.io.writes},
                    {"device_rmws", m.io.rmws},
                    {"storage_pread", m.pread.calls},
                    {"storage_pwrite", m.pwrite.calls},
                    {"wal_records", m.wal_records}};
}

void addPerLayer(Report& report, const ProbeTable& probe,
                 const ClientRun& run, const Measured& m) {
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double ops = n(run.ops);
  const double inserts = n(run.inserts);
  const auto per_op = [&](std::uint64_t v) { return ratio(n(v), ops); };
  const auto per_kop = [&](std::uint64_t v, double base) {
    return ratio(1000.0 * n(v), base);
  };
  const auto share = [&](double ns) { return ratio(ns, m.wall_ns); };
  const auto self = [&](perfbench::SpanLayer layer) {
    return n(m.self_ns[layer]);
  };
  const double pipeline_self = self(perfbench::kPipelineSubmitLayer) +
                               self(perfbench::kPipelineLookupLayer);
  const double storage_self = n(m.busy[perfbench::kStorageDomain]);
  const double wal_self = std::max(
      0.0, n(m.busy[perfbench::kWalDomain]) - n(m.wal_in_checkpoint_ns));
  const double worker_busy = n(m.busy[perfbench::kWorkerDomain]);
  const pipeline::PipelineStats& ps = m.pipeline;

  report.add("pipeline.submit_waits_per_kop", per_kop(ps.submit_waits, inserts),
             "count/kop", "layer");
  report.add("pipeline.coalesced_frac",
             ratio(n(ps.ops_coalesced), n(ps.ops_submitted)), "frac", "layer");
  report.add("pipeline.lookup_memory_frac",
             ratio(n(ps.lookups_from_memory), n(ps.lookups_submitted)), "frac",
             "layer");
  report.add("pipeline.worker_idle_frac",
             m.pipelined && m.traced ? 1.0 - share(worker_busy) : 0.0, "frac",
             "layer");
  report.add("pipeline.self_frac", share(pipeline_self), "frac", "layer");
  report.add("pipeline.submit_ns", m.pipelined ? run.insert_lat.meanNs() : 0.0,
             "ns", "detail");
  report.add("pipeline.lookup_queue_us",
             ratio(self(perfbench::kPipelineLookupLayer) / 1000.0,
                   n(run.lookups)),
             "us", "detail");
  report.add("pipeline.window_apply_p50_us", m.window_apply_p50_us, "us",
             "detail");
  report.add("pipeline.window_apply_p99_us", m.window_apply_p99_us, "us",
             "detail");
  report.add("pipeline.self_ms", pipeline_self / 1e6, "ms", "detail");

  const CallTally& ap = probe.apply;
  const CallTally& lk = probe.lookups;
  report.add("tables.apply_ns_per_op", ratio(n(ap.ns), n(ap.items)), "ns",
             "layer");
  report.add("tables.lookup_ns_per_key", ratio(n(lk.ns), n(lk.items)), "ns",
             "layer");
  report.add("tables.keys_per_lookup_call", ratio(n(lk.items), n(lk.calls)),
             "count", "layer");
  report.add("tables.failed_shards", n(m.failed_shards), "count", "layer");
  report.add("tables.self_frac", share(self(perfbench::kTablesLayer)), "frac",
             "layer");
  report.add("tables.self_ms", self(perfbench::kTablesLayer) / 1e6, "ms",
             "detail");

  report.add("core.merges_per_kop", per_kop(m.merges, inserts), "count/kop",
             "layer");

  report.add("extmem.cache.hit_rate",
             ratio(n(m.io.cache_hits), n(m.io.cache_hits + m.cache_misses)),
             "frac", "layer");
  report.add("extmem.cache.misses_per_op", per_op(m.cache_misses), "count/op",
             "layer");
  report.add("extmem.cache.writebacks_per_op", per_op(m.io.cache_writebacks),
             "count/op", "layer");
  report.add("extmem.cache.ghost_hits_per_kop",
             per_kop(m.io.cache_ghost_hits, ops), "count/kop", "layer");

  report.add("extmem.device.reads_per_op", per_op(m.io.reads), "count/op",
             "layer");
  report.add("extmem.device.writes_per_op", per_op(m.io.writes), "count/op",
             "layer");
  report.add("extmem.device.rmws_per_op", per_op(m.io.rmws), "count/op",
             "layer");
  report.add("extmem.device.allocated_blocks", n(m.live_blocks), "count",
             "layer");
  report.add("extmem.device.io_retries", n(m.io.io_retries), "count",
             "layer");
  report.add("extmem.device.io_gave_up", n(m.io.io_gave_up), "count",
             "layer");

  report.add("extmem.storage.pread_per_op", per_op(m.pread.calls), "count/op",
             "layer");
  report.add("extmem.storage.pwrite_per_op", per_op(m.pwrite.calls),
             "count/op", "layer");
  report.add("extmem.storage.busy_frac", share(storage_self), "frac", "layer");
  report.add("extmem.storage.pread_ns", m.pread.meanNs(), "ns", "detail");
  report.add("extmem.storage.pwrite_ns", m.pwrite.meanNs(), "ns", "detail");
  report.add("extmem.storage.self_ms", storage_self / 1e6, "ms", "detail");

  report.add("durability.wal.records_per_kop", per_kop(m.wal_records, ops),
             "count/kop", "layer");
  report.add("durability.wal.blocks_per_record",
             ratio(n(m.wal_blocks), n(m.wal_records)), "count", "layer");
  report.add("durability.wal.group_commit_frac",
             ratio(n(m.wal_groups), n(m.wal_records)), "frac", "layer");
  report.add("durability.fsyncs_per_op", per_op(m.fsyncs), "count/op",
             "layer");
  report.add("durability.wal.self_frac", share(wal_self), "frac", "layer");
  report.add("durability.wal.fsync_us", m.wal_fsync.meanNs() / 1000.0, "us",
             "detail");
  report.add("durability.wal.self_ms", wal_self / 1e6, "ms", "detail");

  double checkpoint_ms = 0.0;
  double checkpoint_max_ms = 0.0;
  for (const double ms : run.checkpoint_ms) {
    checkpoint_ms += ms;
    checkpoint_max_ms = std::max(checkpoint_max_ms, ms);
  }
  report.add("durability.checkpoint.count", n(m.checkpoints), "count",
             "layer");
  report.add("durability.checkpoint.worker_share",
             ratio(checkpoint_ms * 1e6, worker_busy), "frac", "layer");
  report.add("durability.checkpoint.self_frac",
             share(self(perfbench::kCheckpointLayer)), "frac", "layer");
  report.add("durability.checkpoint.ms_p50", median(run.checkpoint_ms), "ms",
             "detail");
  report.add("durability.checkpoint.ms_max", checkpoint_max_ms, "ms",
             "detail");
  report.add("durability.checkpoint.self_ms",
             self(perfbench::kCheckpointLayer) / 1e6, "ms", "detail");

  // The client's own loop (key generation, model checks): timed-phase wall
  // time outside every client call.
  report.add("client.self_ms",
             std::max(0.0, m.wall_ns - run.insert_lat.sumNs() -
                               run.lookup_lat.sumNs()) /
                 1e6,
             "ms", "detail");
}

/// The timed phase's syscalls of one kind.
SyscallTally syscalls(const CountingFileOps& ops, extmem::FileSyscall sc,
                      bool outside_only) {
  const auto i = static_cast<std::size_t>(sc);
  SyscallTally t{ops.outside()[i].calls.load(), ops.outside()[i].ns.load()};
  if (!outside_only) {
    t.calls += ops.inside()[i].calls.load();
    t.ns += ops.inside()[i].ns.load();
  }
  return t;
}

int run(const Options& opt) {
  if (opt.workload != "archive" && opt.workload != "dedup" &&
      opt.workload != "mixed-file") {
    std::cerr << "unknown workload '" << opt.workload
              << "' (want archive | dedup | mixed-file)\n";
    return 2;
  }
  const bool dedup = opt.workload == "dedup";
  const std::string file_dir = opt.out_dir + "/files";
  Report report;
  report.info.push_back({"workload", opt.workload});
  report.info.push_back({"seed", std::to_string(opt.seed)});
  report.info.push_back({"build_type", PERFBENCH_BUILD_TYPE});
  report.info.push_back({"compiler", PERFBENCH_COMPILER});
  report.info.push_back({"file_dir", dedup ? "(memory backend)" : file_dir});

  // Declared before every stack: the storage backends call into them.
  CountingFileOps table_ops("extmem.storage", perfbench::kStorageDomain,
                            /*also_worker=*/false);
  CountingFileOps wal_ops("durability.wal", perfbench::kWalDomain,
                          /*also_worker=*/true);
  const Plan plan = makePlan(opt, file_dir, table_ops, wal_ops);
  report.info.push_back({"ops", std::to_string(plan.ops)});
  report.info.push_back(
      {"primary_blocks", std::to_string(plan.primary_blocks)});
  report.info.push_back({"cache_frames", std::to_string(plan.cache_frames)});
  report.info.push_back({"preload", std::to_string(plan.stack.preload)});

  // The workload's inputs, from the seed alone.
  const std::uint64_t dedup_seed = deriveSeed(opt.seed, 1);
  const FeistelPermutation dedup_perm(deriveSeed(dedup_seed, 2));
  const std::vector<std::uint32_t> dedup_stream =
      dedup ? dedupRanks(dedup_seed, plan.ops) : std::vector<std::uint32_t>{};

  // Set-up, several times; the last stack is the one measured.
  Measured m;
  std::unique_ptr<Stack> stack;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    const std::uint64_t start = nowNs();
    stack = buildStack(plan.stack);
    m.setup_s.push_back((nowNs() - start) / 1e9);
  }
  Stack& s = *stack;

  // Timed phase.
  const Snapshot before = snapshot(s);
  const std::uint64_t ckpt_before =
      s.durability ? s.durability->checkpointsTaken() : 0;
  table_ops.reset();
  wal_ops.reset();
  std::unique_ptr<obs::TraceSession> session;
  if (opt.trace) {
    obs::TraceSession::Options topt;
    topt.buffer_events_per_thread = 1u << 16;
    session = std::make_unique<obs::TraceSession>(topt);
    session->start();
    ledger().on.store(true);
  }
  const std::uint64_t phase_start = nowNs();
  ClientRun run;
  std::vector<std::uint8_t> seen;
  if (dedup) {
    runDedupClient(s, dedup_stream, dedup_perm, seen, run);
  } else {
    runPipelinedClient(s, opt, plan.ops, plan.lookup_permille,
                       plan.stack.preload, plan.stack.keys,
                       plan.checkpoint_every, run);
  }
  const std::uint64_t phase_end = nowNs();
  m.wall_ns = static_cast<double>(phase_end - phase_start);
  m.traced = opt.trace;
  if (opt.trace) {
    Ledger& l = ledger();
    l.on.store(false);
    session->stop();
    for (unsigned d = 0; d < perfbench::kDomains; ++d) {
      m.busy[d] = l.domains[d].at(phase_end);
    }
    for (unsigned k = 0; k < perfbench::kSpanLayers; ++k) {
      m.self_ns[k] = l.self_ns[k].load();
    }
    m.wal_in_checkpoint_ns = l.wal_in_checkpoint_ns.load();
  }

  const Snapshot after = snapshot(s);
  m.io = after.io - before.io;
  m.merges = after.merges - before.merges;
  m.cache_misses = after.cache_misses - before.cache_misses;
  m.pipelined = s.pipeline != nullptr;
  if (s.pipeline) {
    m.pipeline = s.pipeline->stats();
    if (opt.trace) {
      const auto& hist = s.pipeline->applyLatency();
      m.window_apply_p50_us = hist.valueAtQuantile(0.50) / 1000.0;
      m.window_apply_p99_us = hist.valueAtQuantile(0.99) / 1000.0;
    }
  }
  using extmem::FileSyscall;
  m.pread = syscalls(table_ops, FileSyscall::kPread, false);
  m.pwrite = syscalls(table_ops, FileSyscall::kPwrite, false);
  m.wal_fsync = syscalls(wal_ops, FileSyscall::kFsync, true);
  m.fsyncs = table_ops.calls(FileSyscall::kFsync) +
             wal_ops.calls(FileSyscall::kFsync);
  if (s.durability) {
    const auto& wal = s.durability->wal();
    m.wal_records = wal.recordsAppended();
    m.wal_blocks = wal.blocksWritten();
    m.wal_groups = wal.groupCommits();
    m.checkpoints = s.durability->checkpointsTaken() - ckpt_before;
  }
  auto& sharded = s.sharded();
  for (std::size_t i = 0; i < sharded.shardCount(); ++i) {
    m.live_blocks += sharded.shardDevice(i).blocksInUse();
  }
  m.block_bytes =
      static_cast<double>(sharded.shardDevice(0).wordsPerBlock() * 8);
  m.live_items = static_cast<double>(s.table->size());
  m.failed_shards = sharded.failedShardCount();

  // --- correctness and the reconciliation self-check ------------------------
  report.attempted = run.ops;
  report.failed = run.wrong + run.errors + m.pipeline.lookups_failed;
  report.require(run.wrong == 0, std::to_string(run.wrong) + " wrong answers");
  report.require(run.errors == 0, std::to_string(run.errors) +
                                      " operations raised an error");
  for (const std::string& e : run.error_messages) report.fail("error: " + e);
  report.require(m.pipeline.lookups_failed == 0,
                 std::to_string(m.pipeline.lookups_failed) +
                     " lookups failed");
  report.require(m.failed_shards == 0, "a shard latched");
  std::vector<std::uint64_t> inserted_keys;
  if (dedup) {
    for (std::uint64_t rank = 1; rank < seen.size(); ++rank) {
      if (seen[rank] != 0) inserted_keys.push_back(dedup_perm(rank));
    }
  } else {
    const std::uint64_t inserted = plan.stack.preload + run.inserts;
    inserted_keys.reserve(inserted);
    for (std::uint64_t i = 0; i < inserted; ++i) {
      inserted_keys.push_back(plan.stack.keys(i));
    }
  }
  checkContent(report, s, inserted_keys);
  reconcile(report, s, run, m.pipeline, m.io, m.pwrite.calls);

  addEndToEnd(report, *s.probe, run, m);
  addPerLayer(report, *s.probe, run, m);
  if (opt.trace) {
    report.add("trace.dropped_events",
               static_cast<double>(session->dropped()), "count", "layer");
    report.add("trace.events", static_cast<double>(session->eventCount()),
               "count", "detail");
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    std::ofstream os(path);
    session->writeJson(os);
    report.info.push_back({"trace_file", path});
  }
  stack.reset();
  printReport(report);
  return report.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("perfbench", "one workload of the repo benchmark");
  args.addStringFlag("workload", "", "archive | dedup | mixed-file");
  args.addUintFlag("seed", 1, "workload seed");
  args.addDoubleFlag("seconds", 8, "run length at the reference rate");
  args.addUintFlag("trace", 0, "1 = traced run (clocks and spans on)");
  args.addStringFlag("out_dir", ".", "scratch directory for files/traces");
  if (!args.parse(argc, argv)) return 0;

  // Build guard: numbers are recorded only from a plain Release build.
  bool instrumented = audit::enabled();
#if defined(EXTHASH_AUDIT_MODE) || defined(EXTHASH_TELEMETRY_MODE)
  instrumented = true;
#endif
#ifndef NDEBUG
  instrumented = true;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || instrumented) {
    std::cerr << "perfbench: refusing to measure a non-Release, audited or "
                 "telemetry build (build type '"
              << PERFBENCH_BUILD_TYPE << "')\n";
    return 3;
  }

  Options opt;
  opt.workload = args.getString("workload");
  opt.seed = args.getUint("seed");
  opt.seconds = args.getDouble("seconds");
  opt.trace = args.getUint("trace") != 0;
  opt.out_dir = args.getString("out_dir");
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    std::cerr << "--seconds must be in (0, 600]\n";
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
