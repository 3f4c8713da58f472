#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>

#include "extmem/memory_arbiter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/ingest_pipeline.h"
#include "tables/sharded_table.h"
#include "util/assert.h"

namespace exthash::workload {

double sampleQueryCost(tables::ExternalHashTable& table,
                       const std::vector<std::uint64_t>& inserted,
                       std::size_t samples, Xoshiro256StarStar& rng,
                       bool batched) {
  EXTHASH_CHECK(!inserted.empty());
  // Costs diff table.ioStats(), not the raw device: the sharded façade
  // counts I/O on its private per-shard devices.
  if (batched) {
    std::vector<std::uint64_t> keys;
    keys.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      keys.push_back(inserted[rng.below(inserted.size())]);
    }
    std::vector<std::optional<std::uint64_t>> out(keys.size());
    const extmem::IoStats before = table.ioStats();
    table.lookupBatch(keys, out);
    const std::uint64_t cost = (table.ioStats() - before).cost();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXTHASH_CHECK_MSG(out[i].has_value(),
                        "inserted key missing during query sampling — "
                        "table is corrupt");
    }
    return static_cast<double>(cost) / static_cast<double>(samples);
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const std::uint64_t key = inserted[rng.below(inserted.size())];
    const extmem::IoStats before = table.ioStats();
    const auto hit = table.lookup(key);
    total += (table.ioStats() - before).cost();
    EXTHASH_CHECK_MSG(hit.has_value(), "inserted key missing during query "
                                       "sampling — table is corrupt");
  }
  return static_cast<double>(total) / static_cast<double>(samples);
}

double sampleMissCost(tables::ExternalHashTable& table, std::size_t samples,
                      Xoshiro256StarStar& rng, bool batched) {
  if (batched) {
    // Random 64-bit keys virtually never collide with the inserted set;
    // the rare accidental hit is re-rolled (its share of the grouped
    // batch cost is not separable, so it is attributed to the misses —
    // a < 2^-40 perturbation).
    std::uint64_t total = 0;
    std::size_t done = 0;
    while (done < samples) {
      std::vector<std::uint64_t> keys;
      keys.reserve(samples - done);
      for (std::size_t i = done; i < samples; ++i) keys.push_back(rng());
      std::vector<std::optional<std::uint64_t>> out(keys.size());
      const extmem::IoStats before = table.ioStats();
      table.lookupBatch(keys, out);
      total += (table.ioStats() - before).cost();
      for (const auto& hit : out) {
        if (!hit.has_value()) ++done;
      }
    }
    return static_cast<double>(total) / static_cast<double>(samples);
  }
  std::uint64_t total = 0;
  std::size_t done = 0;
  while (done < samples) {
    const std::uint64_t key = rng();
    const extmem::IoStats before = table.ioStats();
    if (table.lookup(key).has_value()) continue;  // accidental hit: reroll
    total += (table.ioStats() - before).cost();
    ++done;
  }
  return static_cast<double>(total) / static_cast<double>(samples);
}

TradeoffMeasurement runMeasurement(tables::ExternalHashTable& table,
                                   KeyStream& keys,
                                   const MeasurementConfig& config) {
  EXTHASH_CHECK(config.n > 0);
  EXTHASH_CHECK(config.checkpoints >= 1);
  const std::size_t batch_size = std::max<std::size_t>(1, config.batch_size);

  // Geometrically spaced checkpoints ending at n.
  std::vector<std::size_t> checkpoints;
  {
    double point = static_cast<double>(config.n);
    for (std::size_t i = 0; i < config.checkpoints; ++i) {
      checkpoints.push_back(
          std::max<std::size_t>(1, static_cast<std::size_t>(point)));
      point /= 2.0;
    }
    std::sort(checkpoints.begin(), checkpoints.end());
    checkpoints.erase(std::unique(checkpoints.begin(), checkpoints.end()),
                      checkpoints.end());
  }

  Xoshiro256StarStar rng(deriveSeed(config.seed, 0xC0FFEE));
  std::vector<std::uint64_t> inserted;
  inserted.reserve(config.n);

  // Optional run-scoped cache over the table's context device, so a
  // measurement can sweep cache policies without the caller re-plumbing
  // attachCache. Detached (and flushed, via the settle barriers below)
  // before the guard releases — the cache must not outlive this frame.
  std::optional<extmem::BlockCache> run_cache;
  struct DetachGuard {
    tables::ExternalHashTable* table = nullptr;
    ~DetachGuard() {
      if (table != nullptr) table->attachCache(nullptr);
    }
  } detach_guard;
  if (config.cache_frames > 0) {
    run_cache.emplace(*table.context().device, *table.context().memory,
                      config.cache_frames,
                      config.cache_write_back
                          ? extmem::BlockCache::WritePolicy::kWriteBack
                          : extmem::BlockCache::WritePolicy::kWriteThrough,
                      config.cache_replacement);
    table.attachCache(&*run_cache);
    detach_guard.table = &table;
  }

  // Optional trace session wrapping the whole measurement. The runner's
  // own phase spans (below) are plain TraceSpan uses, so the trace is
  // never empty; with the telemetry latch on, the library's macro-gated
  // instrumentation spans join them. Buffers are charged to the table's
  // budget when it is limited — tracing competes for `m` like everything
  // else.
  std::optional<obs::TraceSession> trace;
  if (!config.trace_file.empty()) {
    obs::TraceSession::Options topt;
    if (!table.context().memory->unlimited()) {
      topt.budget = table.context().memory;
    }
    trace.emplace(topt);
    trace->start();
  }

  TradeoffMeasurement out;
  out.n = config.n;
  const auto t0 = std::chrono::steady_clock::now();

  // Pipelined mode overlaps accumulation with background applies, so
  // per-batch I/O diffs are meaningless mid-flight; both modes use the
  // same quiescent accounting instead: insert I/O = total I/O at drain
  // points minus the query-sampling I/O measured at those points.
  //
  // Declared before `pipe` so it outlives it: the arbiter's rebalances
  // run as maintenance tasks on the pipeline worker, all drained before
  // the pipeline destructor completes — after which nothing touches the
  // arbiter.
  std::optional<extmem::MemoryArbiter> arbiter;
  std::optional<pipeline::IngestPipeline> pipe;
  if (config.pipelined) {
    pipeline::PipelineConfig pc;
    pc.batch_capacity = batch_size;
    pc.max_pending_batches = std::max<std::size_t>(1, config.pipeline_depth);
    pc.record_apply_latency = config.record_apply_latency;
    if (config.arbiter) {
      // Under arbitration the staging windows are charged to the table's
      // budget, so frames and slots trade inside one accounted memory.
      pc.budget = table.context().memory;
    }
    pipe.emplace(table, pc);
  }

  if (config.arbiter) {
    EXTHASH_CHECK_MSG(config.arbiter_interval >= 1,
                      "arbiter_interval must be >= 1");
    extmem::ArbiterConfig ac;
    // Exchange rate: one frame's words buy as many staging slots as fit
    // in them across the pipeline's window multiplicity.
    const std::size_t wpb = table.context().device->wordsPerBlock();
    const std::size_t windows =
        (pipe ? std::max<std::size_t>(1, config.pipeline_depth) : 1) + 1;
    ac.slots_per_frame = std::max<std::size_t>(
        1, wpb / (pipeline::kStagingOpWords * windows));
    arbiter.emplace(ac);
    if (auto* sharded = dynamic_cast<tables::ShardedTable*>(&table)) {
      sharded->registerCaches(*arbiter);
    } else if (run_cache) {
      arbiter->addCache(&*run_cache);
    }
    EXTHASH_CHECK_MSG(arbiter->cacheCount() > 0,
                      "MeasurementConfig::arbiter needs a cache: set "
                      "cache_frames, or use a sharded table with "
                      "shard_cache_frames");
    if (pipe) {
      pipeline::IngestPipeline* p = &*pipe;
      arbiter->setStaging(
          [p](std::size_t slots) { p->setWindowCapacity(slots); },
          [p] {
            const auto s = p->stats();
            return extmem::StagingSignals{s.ops_coalesced, s.submit_waits};
          },
          batch_size);
    }
  }

  const extmem::IoStats start_io = table.ioStats();
  extmem::IoStats query_io;  // accumulated sampling I/O (quiescent points)
  std::size_t next_checkpoint = 0;
  RunningStat miss_costs;
  // Non-macro span: present in the trace in every build (see trace.h).
  std::optional<obs::TraceSpan> ingest_span;
  if (trace) {
    ingest_span.emplace("ingest", "runner");
    ingest_span->arg("n", static_cast<double>(config.n));
  }

  // Synchronous-mode apply histogram (the pipeline keeps its own).
  obs::LatencyHistogram sync_apply_hist;
  const bool record_latency = config.record_apply_latency;
  auto applyTimed = [&](std::span<const tables::Op> ops) {
    obs::ScopedLatencyTimer timer(record_latency ? &sync_apply_hist
                                                 : nullptr);
    table.applyBatch(ops);
  };

  std::vector<tables::Op> batch;
  batch.reserve(batch_size);
  auto settle = [&]() {
    // Make the table quiescent: apply everything staged so sampling sees
    // the exact prefix and the I/O counters are safe to read. The cache
    // flush barrier charges deferred write-back writes to the insert
    // phase BEFORE tu/tq are read — without it a write-back cache would
    // under-report tu and leak the flush cost into the query diffs.
    if (pipe) {
      pipe->drain();  // drains, then flushes the table's caches
    } else {
      if (!batch.empty()) {
        applyTimed(batch);
        batch.clear();
      }
      table.flushCache();
    }
  };

  std::size_t since_rebalance = 0;
  for (std::size_t i = 0; i < config.n; ++i) {
    const std::uint64_t key = keys.next();
    const std::uint64_t value = key ^ 0x5bd1e995;
    inserted.push_back(key);
    if (pipe) {
      pipe->insert(key, value);
    } else {
      batch.push_back(tables::Op::insertOp(key, value));
      if (batch.size() >= batch_size) {
        applyTimed(batch);
        batch.clear();
      }
    }
    if (arbiter && ++since_rebalance >= config.arbiter_interval) {
      since_rebalance = 0;
      if (pipe) {
        // Serialized on the one worker thread that touches the table and
        // its caches — the quiescent point between window applies.
        pipe->submitMaintenance([a = &*arbiter] { a->rebalance(); });
      } else {
        // Synchronous loop: the table is quiescent between applyBatch
        // calls, so rebalance inline.
        arbiter->rebalance();
      }
    }

    const bool at_checkpoint = next_checkpoint < checkpoints.size() &&
                               i + 1 == checkpoints[next_checkpoint];
    if (at_checkpoint || i + 1 == config.n) settle();
    if (at_checkpoint) {
      obs::TraceSpan sample_span("checkpoint-sample", "runner");
      sample_span.arg("prefix", static_cast<double>(i + 1));
      const extmem::IoStats before_q = table.ioStats();
      const double cost =
          sampleQueryCost(table, inserted, config.queries_per_checkpoint,
                          rng, config.batched_queries);
      out.checkpoint_costs.push(cost);
      if (config.measure_unsuccessful) {
        miss_costs.push(sampleMissCost(table, config.queries_per_checkpoint,
                                       rng, config.batched_queries));
      }
      query_io += table.ioStats() - before_q;
      ++next_checkpoint;
    }
  }
  settle();
  ingest_span.reset();  // closes the span before the session stops below

  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.insert_io = table.ioStats() - start_io - query_io;
  out.tu = static_cast<double>(out.insert_io.cost()) /
           static_cast<double>(config.n);
  out.tq_mean = out.checkpoint_costs.mean();
  out.tq_worst = out.checkpoint_costs.max();
  out.tq_final = sampleQueryCost(table, inserted,
                                 config.queries_per_checkpoint, rng,
                                 config.batched_queries);
  out.tq_unsuccessful = miss_costs.mean();
  if (pipe) {
    const auto ps = pipe->stats();
    out.pipeline_coalesced = ps.ops_coalesced;
    out.pipeline_submit_waits = ps.submit_waits;
  }
  if (arbiter) {
    out.arbiter_moves = arbiter->moves();
    out.cache_frames_final = arbiter->cacheFrames();
    out.staging_slots_final = pipe ? arbiter->stagingSlots() : 0;
    // The diff-based insert_io gauges only show drift; surface the final
    // absolute split there too, per the IoStats field contract.
    out.insert_io.cache_frames_current = out.cache_frames_final;
    out.insert_io.staging_slots_current = out.staging_slots_final;
    out.insert_io.arbiter_moves = out.arbiter_moves;
  }
  if (config.record_apply_latency) {
    const obs::LatencyHistogram& hist =
        pipe ? pipe->applyLatency() : sync_apply_hist;
    out.apply_batches = hist.count();
    if (out.apply_batches > 0) {
      out.apply_p50_us =
          static_cast<double>(hist.valueAtQuantile(0.5)) / 1000.0;
      out.apply_p99_us =
          static_cast<double>(hist.valueAtQuantile(0.99)) / 1000.0;
      out.apply_max_us = static_cast<double>(hist.max()) / 1000.0;
    }
  }
  if (trace) {
    // All workers are quiescent (settle() above; the pipeline, if any,
    // stays alive but idle), so stopping + serializing here is safe.
    trace->stop();
    std::ofstream os(config.trace_file, std::ios::trunc);
    if (os) trace->writeJson(os);
  }
  return out;
}

}  // namespace exthash::workload
