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

#include "extmem/block_device.h"
#include "tables/hash_table.h"
#include "util/stats.h"
#include "workload/keygen.h"

namespace exthash::workload {

struct MeasurementConfig {
  std::size_t n = 0;                 // items to insert
  std::size_t queries_per_checkpoint = 256;
  std::size_t checkpoints = 8;       // geometrically spaced in (0, n]
  std::uint64_t seed = 1;
  bool measure_unsuccessful = false;  // also sample absent-key lookups
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
};

/// Insert `n` keys from `keys` into `table`, sampling query costs at
/// checkpoints. All inserted keys are retained (in memory, outside the
/// model) so successful queries can be sampled uniformly, exactly as the
/// paper averages over stored items.
TradeoffMeasurement runMeasurement(tables::ExternalHashTable& table,
                                   KeyStream& keys,
                                   const MeasurementConfig& config);

}  // namespace exthash::workload
