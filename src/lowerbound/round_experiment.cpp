#include "lowerbound/round_experiment.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/tradeoff.h"
#include "extmem/bucket_page.h"
#include "lowerbound/zones.h"
#include "util/assert.h"

namespace exthash::lowerbound {

RoundExperimentResult runRoundExperiment(
    tables::ExternalHashTable& table, workload::KeyStream& keys,
    const RoundExperimentConfig& config) {
  EXTHASH_CHECK(config.n > 0);
  EXTHASH_CHECK(config.c > 1.0);
  const std::size_t b = extmem::recordCapacityForWords(
      table.device().wordsPerBlock());
  const auto params = core::regime1Parameters(config.c, b, config.n);

  RoundExperimentResult out;
  out.phi = params.phi;
  out.delta = params.delta;
  out.s = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(params.s)));

  // Phase 1: the first φn insertions are free (not measured).
  const auto warmup = static_cast<std::size_t>(
      params.phi * static_cast<double>(config.n));
  for (std::size_t i = 0; i < warmup; ++i) {
    table.insert(keys.next(), i);
  }

  // Phase 2: rounds of s insertions.
  const std::size_t total_rounds_available =
      (config.n - warmup) / static_cast<std::size_t>(out.s);
  const std::size_t rounds = config.rounds == 0
                                 ? total_rounds_available
                                 : std::min(config.rounds,
                                            total_rounds_available);
  std::uint64_t measured_cost = 0;
  std::uint64_t measured_items = 0;
  double z_sum = 0.0;

  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<std::uint64_t> round_keys;
    round_keys.reserve(out.s);
    const extmem::IoProbe probe(table.device());
    for (std::uint64_t i = 0; i < out.s; ++i) {
      const std::uint64_t key = keys.next();
      table.insert(key, key);
      round_keys.push_back(key);
    }
    const std::uint64_t round_cost = probe.cost();

    // Zone snapshot at round end (uncounted inspection).
    const ZoneStats zones = analyzeZones(table);

    // Z: distinct fast-zone primary blocks among this round's keys. A key
    // is in the fast zone iff some copy sits in its primary block — check
    // via layout? We reuse primaryBlockOf plus a membership probe through
    // uncounted inspection: a key counts if its primary block currently
    // holds it.
    std::unordered_set<std::uint64_t> blocks;
    auto& device = table.device();
    for (const std::uint64_t key : round_keys) {
      const auto primary = table.primaryBlockOf(key);
      if (!primary.has_value() || !device.isAllocated(*primary)) continue;
      device.inspect(*primary, [&](std::span<const extmem::Word> w) {
        const extmem::ConstBucketPage page(w);
        if (page.indexOf(key).has_value()) blocks.insert(*primary);
      });
    }

    RoundResult rr;
    rr.round = r;
    rr.items = out.s;
    rr.distinct_fast_blocks = blocks.size();
    rr.slow_items = zones.slow_items;
    rr.memory_items = zones.memory_items;
    rr.z_over_s = static_cast<double>(blocks.size()) /
                  static_cast<double>(out.s);
    rr.io_cost = static_cast<double>(round_cost);
    const double t =
        static_cast<double>(zones.slow_items + zones.memory_items);
    rr.lower_bound =
        std::max(0.0, (1.0 - params.phi) * static_cast<double>(out.s) - t);
    out.rounds.push_back(rr);

    measured_cost += round_cost;
    measured_items += out.s;
    z_sum += rr.z_over_s;
  }

  out.amortized_tu = measured_items
                         ? static_cast<double>(measured_cost) /
                               static_cast<double>(measured_items)
                         : 0.0;
  out.mean_z_over_s = rounds ? z_sum / static_cast<double>(rounds) : 0.0;
  return out;
}

}  // namespace exthash::lowerbound
