#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "util/assert.h"
#include "util/random.h"

namespace exthash::workload {
namespace {

/// Average successful-lookup cost over `samples` uniform picks from
/// `inserted` at the current snapshot.
double sampleQueryCost(tables::ExternalHashTable& table,
                       const std::vector<std::uint64_t>& inserted,
                       std::size_t samples, Xoshiro256StarStar& rng) {
  EXTHASH_CHECK(!inserted.empty());
  // Costs diff table.ioStats(), not the raw device: the sharded façade
  // counts I/O on its private per-shard devices.
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

/// Average unsuccessful-lookup cost over `samples` random (absent) keys.
double sampleMissCost(tables::ExternalHashTable& table, std::size_t samples,
                      Xoshiro256StarStar& rng) {
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

}  // namespace

TradeoffMeasurement runMeasurement(tables::ExternalHashTable& table,
                                   KeyStream& keys,
                                   const MeasurementConfig& config) {
  EXTHASH_CHECK(config.n > 0);
  EXTHASH_CHECK(config.checkpoints >= 1);

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

  TradeoffMeasurement out;
  out.n = config.n;
  const auto t0 = std::chrono::steady_clock::now();

  // Insert I/O = total I/O minus the query-sampling I/O measured at the
  // checkpoints. A cache the caller attached is flushed at each one, so
  // its deferred write-back writes are charged to tu before tq is sampled
  // — without the barrier a write-back cache would under-report tu and
  // leak the flush cost into the query diffs.
  const extmem::IoStats start_io = table.ioStats();
  extmem::IoStats query_io;
  std::size_t next_checkpoint = 0;
  RunningStat miss_costs;
  for (std::size_t i = 0; i < config.n; ++i) {
    const std::uint64_t key = keys.next();
    const tables::Op op = tables::Op::insertOp(key, key ^ 0x5bd1e995);
    inserted.push_back(key);
    table.applyBatch({&op, 1});

    if (next_checkpoint < checkpoints.size() &&
        i + 1 == checkpoints[next_checkpoint]) {
      table.flushCache();
      const extmem::IoStats before_q = table.ioStats();
      out.checkpoint_costs.push(sampleQueryCost(
          table, inserted, config.queries_per_checkpoint, rng));
      if (config.measure_unsuccessful) {
        miss_costs.push(
            sampleMissCost(table, config.queries_per_checkpoint, rng));
      }
      query_io += table.ioStats() - before_q;
      ++next_checkpoint;
    }
  }
  table.flushCache();

  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.insert_io = table.ioStats() - start_io - query_io;
  out.tu = static_cast<double>(out.insert_io.cost()) /
           static_cast<double>(config.n);
  out.tq_mean = out.checkpoint_costs.mean();
  out.tq_worst = out.checkpoint_costs.max();
  out.tq_final =
      sampleQueryCost(table, inserted, config.queries_per_checkpoint, rng);
  out.tq_unsuccessful = miss_costs.mean();
  return out;
}

}  // namespace exthash::workload
