// The measurement protocol behind every (tu, tq) data point.
//
// Mirrors the paper's setting: insert n independent uniform items into an
// initially empty table; tu is the amortized I/O cost over all inserts;
// tq is the expected average cost of a *successful* lookup, which must
// hold at every prefix — so queries are sampled at geometrically spaced
// checkpoints over uniformly random already-inserted keys, and both the
// mean and the worst checkpoint are reported.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "extmem/block_device.h"
#include "tables/hash_table.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/keygen.h"

namespace exthash::workload {

struct MeasurementConfig {
  std::size_t n = 0;                 // items to insert
  std::size_t queries_per_checkpoint = 256;
  std::size_t checkpoints = 8;       // geometrically spaced in (0, n]
  std::uint64_t seed = 1;
  bool measure_unsuccessful = false;  // also sample absent-key lookups
  /// Updates per applyBatch call. 1 = the classic per-op protocol; larger
  /// values hand the table bucket-groupable batches (chunks are cut early
  /// at checkpoints so query sampling still sees every prefix).
  std::size_t batch_size = 1;
  /// Sample checkpoint queries through lookupBatch instead of lookup()
  /// (applies to successful AND unsuccessful sampling, so sharded /
  /// pipelined query throughput is measured honestly).
  bool batched_queries = false;
  /// Drive inserts through an IngestPipeline (batch_size = the window,
  /// pipeline_depth = max unapplied batches): accumulation of window k+1
  /// overlaps the background apply of window k. The pipeline drains at
  /// every checkpoint so query sampling still sees exact prefixes and I/O
  /// counters are read quiescently. Repeated keys coalesce in the window
  /// (pipeline semantics); tu stays per *submitted* op.
  bool pipelined = false;
  std::size_t pipeline_depth = 1;
  /// Attach a BlockCache of this many frames over the table's context
  /// device for the duration of the run (0 = none). The cache is charged
  /// to the table's MemoryBudget, honored by the cache-honoring kinds
  /// (chaining / linear hashing / extendible, plus the LSM's read path —
  /// the sharded façade uses its own GeneralConfig::shard_cache_frames
  /// instead), flushed at every drain point so deferred writes land in
  /// tu, and detached before runMeasurement returns.
  std::size_t cache_frames = 0;
  bool cache_write_back = false;
  extmem::ReplacementKind cache_replacement = extmem::ReplacementKind::kLru;
  /// Arbitrate memory between the cache and the pipeline's staging
  /// windows at runtime (see extmem/memory_arbiter.h). Requires a cache —
  /// cache_frames > 0, or a sharded table whose auto-attached per-shard
  /// caches the arbiter then rebalances by heat. With `pipelined` the
  /// staging side joins the arbitration (window capacity moves against
  /// cache frames at a word-conserving exchange rate) and rebalances run
  /// as maintenance tasks on the pipeline worker; without it the arbiter
  /// only heat-rebalances the (sharded) cache split inline. Ghost-keeping
  /// replacement policies (2q/arc) are what give the cache side its
  /// growth signal — under lru the cache can only shed frames.
  bool arbiter = false;
  /// Submitted inserts between rebalances.
  std::size_t arbiter_interval = 4096;
  /// Record per-applyBatch wall latency into the measurement's apply
  /// histogram (two steady_clock reads per applied batch/window).
  /// Independent of the telemetry latch, which gates only the library's
  /// macro instrumentation sites.
  bool record_apply_latency = false;
  /// When non-empty, run under an obs::TraceSession and write the Chrome
  /// trace_event JSON here at the end. The runner's own phase spans
  /// (ingest / checkpoint sampling) are always emitted; with the
  /// telemetry latch on, the library's instrumentation spans join them.
  std::string trace_file;
};

struct TradeoffMeasurement {
  double tu = 0.0;                  // amortized insert I/Os
  double tq_mean = 0.0;             // mean successful-query cost over checkpoints
  double tq_worst = 0.0;            // worst checkpoint average
  double tq_final = 0.0;            // average at the final snapshot
  double tq_unsuccessful = 0.0;     // mean absent-key cost (if measured)
  RunningStat checkpoint_costs;     // per-checkpoint successful averages
  extmem::IoStats insert_io;        // raw insert I/O breakdown
  std::uint64_t n = 0;
  double wall_seconds = 0.0;
  // Pipelined mode only: window coalescing and backpressure telemetry.
  std::uint64_t pipeline_coalesced = 0;   // ops absorbed in staging windows
  std::uint64_t pipeline_submit_waits = 0;  // backpressure blocks
  // Arbitrated runs only (MeasurementConfig::arbiter): frames moved, and
  // the final split. insert_io carries the same figures as IoStats gauges
  // (cache_frames_current / staging_slots_current / arbiter_moves).
  std::uint64_t arbiter_moves = 0;
  std::uint64_t cache_frames_final = 0;
  std::uint64_t staging_slots_final = 0;
  // Apply-latency tail (record_apply_latency only): wall time per
  // applyBatch call / pipeline window, in microseconds. Quantiles come
  // from a log-bucketed histogram (upper bucket edges, <= 25% relative
  // overestimate); apply_batches is the number of recordings.
  double apply_p50_us = 0.0;
  double apply_p99_us = 0.0;
  double apply_max_us = 0.0;
  std::uint64_t apply_batches = 0;
};

/// Insert `n` keys from `keys` into `table`, sampling query costs at
/// checkpoints. All inserted keys are retained (in memory, outside the
/// model) so successful queries can be sampled uniformly, exactly as the
/// paper averages over stored items.
TradeoffMeasurement runMeasurement(tables::ExternalHashTable& table,
                                   KeyStream& keys,
                                   const MeasurementConfig& config);

/// Average successful-lookup cost over `samples` uniform picks from
/// `inserted` at the current snapshot. `batched` routes the sample through
/// one lookupBatch call instead of per-key lookup().
double sampleQueryCost(tables::ExternalHashTable& table,
                       const std::vector<std::uint64_t>& inserted,
                       std::size_t samples, Xoshiro256StarStar& rng,
                       bool batched = false);

/// Average unsuccessful-lookup cost over `samples` random (absent) keys.
/// `batched` samples through lookupBatch; accidental hits are re-rolled.
double sampleMissCost(tables::ExternalHashTable& table, std::size_t samples,
                      Xoshiro256StarStar& rng, bool batched = false);

}  // namespace exthash::workload
