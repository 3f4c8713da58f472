// PAPER — the paper's experiments, one per --figure value, run in this
// order by --figure=all (the default):
//
//   fig1        Figure 1: the query-insertion tradeoff across regimes.
//   thm2        Theorem 2: the buffered table's tu/tq scalings.
//   lemma5      Lemma 5: the logarithmic method Theorem 2 bootstraps.
//   knuth       Knuth's query-cost table (TAOCP §6.4), cited in Section 1.
//   binball     Lemmas 3 and 4: the bin-ball games behind the lower bound.
//   lowerbound  Theorem 1's proof machinery run on a real table.
//   loadfactor  The load-factor claims, Jensen–Pagh, and LSM Bloom filters.
//   baselines   Every structure in the library at identical (b, n).
//
// Each figure runs at fixed sizes and seeds and counts I/Os on simulated
// devices, so its stdout is the same on every run. bench/golden/<figure>.txt
// holds that stdout and the PaperGolden.<figure> ctest diffs against it.
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/bounds.h"
#include "analysis/knuth.h"
#include "bench_common.h"
#include "core/buffered_hash_table.h"
#include "core/tradeoff.h"
#include "lowerbound/binball.h"
#include "lowerbound/characteristic.h"
#include "lowerbound/round_experiment.h"
#include "lowerbound/zones.h"
#include "tables/chaining_table.h"
#include "tables/jensen_pagh_table.h"
#include "tables/linear_probing_table.h"
#include "tables/log_method_table.h"
#include "tables/lsm_table.h"
#include "util/assert.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace exthash {
namespace {

constexpr std::uint64_t kSeed = 1;  // root seed of every figure

/// A table measured by the paper's (tu, tq) protocol, with the rig it ran
/// on. The rig is declared first so it outlives the table.
template <class Table>
struct Measured {
  bench::Rig rig;
  std::unique_ptr<Table> table;
  workload::TradeoffMeasurement m;
};

/// Build a table with `make` on a fresh rig of block size b, then insert
/// mc.n distinct keys drawn from `key_seed` under runMeasurement.
template <class Make>
auto measure(std::size_t b, std::uint64_t rig_seed, std::uint64_t key_seed,
             const workload::MeasurementConfig& mc, Make make) {
  using Table = typename std::invoke_result_t<
      Make, tables::TableContext>::element_type;
  Measured<Table> out{bench::Rig(b, 0, rig_seed), nullptr, {}};
  out.table = make(out.rig.context());
  workload::DistinctKeyStream keys(key_seed);
  out.m = workload::runMeasurement(*out.table, keys, mc);
  return out;
}

auto chaining(std::uint64_t buckets) {
  return [=](tables::TableContext ctx) {
    return std::make_unique<tables::ChainingHashTable>(
        ctx, tables::ChainingConfig{buckets, tables::BucketIndexer{}});
  };
}

auto buffered(const core::BufferedConfig& cfg) {
  return [=](tables::TableContext ctx) {
    return std::make_unique<core::BufferedHashTable>(ctx, cfg);
  };
}

// FIG1 — for each query budget tq = 1 + Θ(1/b^c), the best construction
// the paper gives (the standard chaining table for c > 1, the Theorem-2
// buffered table for c <= 1), measured next to the Theorem 1 lower bound
// and the analytic upper bound. The success criterion is shape: tu hugs 1
// for c > 1, drops to ε at c = 1, and scales like b^(c-1) for c < 1.
void fig1() {
  constexpr std::size_t kN = 1 << 17;  // items inserted per point
  constexpr std::size_t kH0 = 256;     // memory buffer capacity (items)

  bench::printHeader(
      "FIG1: query-insertion tradeoff",
      "Paper: Figure 1 — tq = 1+Θ(1/b^c). Regimes: c>1 ⇒ tu >= "
      "1-O(1/b^((c-1)/4)) (buffering useless); c=1 ⇒ tu = Θ(1); c<1 ⇒ tu "
      "= Θ(b^(c-1)) = o(1). Expected shape: measured tu pinned at ~1 for "
      "c>1, then falling as c decreases, always above the lower bound.");

  TablePrinter out({"b", "c", "construction", "tq target", "tq measured",
                    "tu lower bound", "tu measured", "tu upper pred",
                    "regime"});
  // One row per (b, c): the measured point between its two bounds.
  const auto add = [&](std::size_t b, double c, const std::string& construction,
                       double tq_target, const workload::TradeoffMeasurement& m,
                       double tu_upper) {
    out.addRow({TablePrinter::num(std::uint64_t{b}), TablePrinter::num(c, 2),
                construction, TablePrinter::num(tq_target, 6),
                TablePrinter::num(m.tq_mean, 6),
                TablePrinter::num(core::theorem1LowerBound(c, b), 4),
                TablePrinter::num(m.tu, 4), TablePrinter::num(tu_upper, 4),
                std::string(core::regimeName(core::classifyRegime(c)))});
  };
  const auto add_buffered = [&](std::size_t b, double c, double tq_target,
                                const core::BufferedConfig& cfg,
                                double tu_upper) {
    const auto m = measure(b, deriveSeed(kSeed, 20), deriveSeed(kSeed, 21),
                           {kN, 512, 6, deriveSeed(kSeed, 22)}, buffered(cfg))
                       .m;
    add(b, c, "buffered β=" + std::to_string(cfg.beta), tq_target, m,
        tu_upper);
  };

  for (const std::size_t b : {64u, 256u}) {
    // Regime c > 1 and the boundary's "query side": the standard table,
    // whose run does not depend on c.
    const auto chain =
        measure(b, deriveSeed(kSeed, 10), deriveSeed(kSeed, 11),
                {kN, 512, 6, deriveSeed(kSeed, 12)},
                chaining(std::max<std::uint64_t>(1, 2 * kN / b)))
            .m;
    for (const double c : {2.0, 1.5}) {
      add(b, c, "chaining (std)", 1.0 + std::pow((double)b, -c), chain, 1.0);
    }
    // Boundary c = 1: the ε-insertion variant.
    add_buffered(b, 1.0, 1.0 + 1.0 / (double)b,
                 core::BufferedConfig::forInsertBudget(0.5, b, kH0), 0.5);
    // Regime c < 1: Theorem 2 with β = b^c.
    for (const double c : {0.75, 0.5, 0.25}) {
      add_buffered(b, c, 1.0 + std::pow((double)b, -c),
                   core::BufferedConfig::forQueryExponent(c, b, kH0),
                   core::theorem2Upper(c, b, kN, kH0, 2).tu);
    }
  }

  out.print(std::cout);
  bench::saveCsv(out, "fig1_tradeoff");
  std::cout << "\nReading the table: 'tu measured' must stay above 'tu lower "
               "bound' everywhere,\nhug 1.0 in the c>1 rows, and fall "
               "with c (and with b) in the c<1 rows —\nthe crossover at tq "
               "= 1 + Θ(1/b) separating useless from effective buffering.\n";
}

// THM2 — Theorem 2: the buffered table achieves tu = O(b^(c-1)) with
// tq = 1 + O(1/b^c) for any constant c < 1, and tu = ε with tq = 1 + O(1/b).
// The key check is the slope: at fixed c, measured tu must scale like
// b^(c-1) across b and tq - 1 like 1/b^c.
void thm2() {
  constexpr std::size_t kN = 1 << 17;  // items inserted per point
  constexpr std::size_t kH0 = 256;     // H0 capacity (items)

  const auto run = [&](std::size_t b, const core::BufferedConfig& cfg) {
    return measure(b, deriveSeed(kSeed, b * 31 + cfg.beta),
                   deriveSeed(kSeed, b * 37 + cfg.beta),
                   {kN, 512, 5, deriveSeed(kSeed, 11)}, buffered(cfg))
        .m;
  };

  bench::printHeader(
      "THM2 (part 1): tu = O(b^(c-1)), tq = 1 + O(1/b^c) for c < 1",
      "Paper: Theorem 2 with β = b^c, γ = 2. 'tu·b^(1-c)' and "
      "'(tq-1)·b^c' should be roughly flat across b — those are the "
      "normalized constants hiding in the O(·).");

  TablePrinter part1({"c", "b", "beta", "tu meas", "tu pred",
                      "tu·b^(1-c)", "tq meas", "tq pred", "(tq-1)·b^c"});
  for (const double c : {0.25, 0.5, 0.75}) {
    for (const std::size_t b : {32u, 64u, 128u, 256u, 512u}) {
      const auto cfg = core::BufferedConfig::forQueryExponent(c, b, kH0);
      const auto pred = core::theorem2Upper(c, b, kN, kH0, 2);
      const auto m = run(b, cfg);
      part1.addRow(
          {TablePrinter::num(c, 2), TablePrinter::num(std::uint64_t{b}),
           TablePrinter::num(std::uint64_t{cfg.beta}),
           TablePrinter::num(m.tu, 4), TablePrinter::num(pred.tu, 4),
           TablePrinter::num(m.tu * std::pow((double)b, 1.0 - c), 3),
           TablePrinter::num(m.tq_mean, 5), TablePrinter::num(pred.tq, 5),
           TablePrinter::num((m.tq_mean - 1.0) * std::pow((double)b, c), 3)});
    }
  }
  part1.print(std::cout);
  bench::saveCsv(part1, "thm2_part1");

  bench::printHeader(
      "THM2 (part 2): tu = ε with tq = 1 + O(1/b)",
      "Paper: Theorem 2's second configuration (β = Θ(εb)). Measured tu "
      "should land near the requested ε while (tq-1)·b stays O(1).");

  TablePrinter part2({"epsilon", "b", "beta", "tu meas", "tq meas",
                      "(tq-1)*b"});
  for (const double eps : {0.5, 0.25, 0.125}) {
    const std::size_t b = 256;
    const auto cfg = core::BufferedConfig::forInsertBudget(eps, b, kH0);
    const auto m = run(b, cfg);
    part2.addRow({TablePrinter::num(eps, 3),
                  TablePrinter::num(std::uint64_t{b}),
                  TablePrinter::num(std::uint64_t{cfg.beta}),
                  TablePrinter::num(m.tu, 4), TablePrinter::num(m.tq_mean, 5),
                  TablePrinter::num((m.tq_mean - 1.0) * (double)b, 3)});
  }
  part2.print(std::cout);
  bench::saveCsv(part2, "thm2_part2");

  std::cout << "\nReading the tables: in part 1, the two normalized columns "
               "are flat-ish in b\n(constant-factor level), confirming the "
               "b^(c-1) and 1/b^c scalings; in part 2,\ntu tracks ε and the "
               "query penalty stays a constant number of 1/b units.\n";
}

// LEM5 — Lemma 5: the plain logarithmic-method hash table supports
// insertions in amortized O((γ/b)·log(n/m)) I/Os and lookups in
// O(log_γ(n/m)) I/Os. Sweeps γ and n/m, printing measured vs predicted.
void lemma5() {
  constexpr std::size_t kB = 64;    // records per block
  constexpr std::size_t kH0 = 128;  // H0 capacity (items) — the m of n/m

  bench::printHeader(
      "LEM5: logarithmic method — insert O((γ/b)log(n/m)), query "
      "O(log_γ(n/m))",
      "Paper: Lemma 5 (the folklore structure Theorem 2 bootstraps). "
      "tu shrinks with b and grows with γ·log(n/m); tq counts one read per "
      "nonempty level.");

  TablePrinter out({"gamma", "n/m", "n", "tu measured", "tu predicted",
                    "tq measured", "tq predicted", "levels"});

  for (const std::size_t gamma : {2u, 4u, 8u, 16u}) {
    for (const std::size_t ratio : {64u, 256u, 1024u}) {
      const std::size_t n = kH0 * ratio;
      const auto run = measure(
          kB, deriveSeed(kSeed, gamma * 1000 + ratio),
          deriveSeed(kSeed, gamma + ratio), {n, 256, 4, deriveSeed(kSeed, 7)},
          [&](tables::TableContext ctx) {
            return std::make_unique<tables::LogMethodTable>(
                ctx, tables::LogMethodConfig{gamma, kH0});
          });
      const auto pred = core::lemma5Upper(gamma, kB, n, kH0);
      out.addRow(
          {TablePrinter::num(std::uint64_t{gamma}),
           TablePrinter::num(std::uint64_t{ratio}),
           TablePrinter::num(std::uint64_t{n}),
           TablePrinter::num(run.m.tu, 4), TablePrinter::num(pred.tu, 4),
           TablePrinter::num(run.m.tq_final, 3),
           TablePrinter::num(pred.tq, 3),
           TablePrinter::num(std::uint64_t{run.table->nonemptyLevels()})});
    }
  }

  out.print(std::cout);
  bench::saveCsv(out, "lemma5_logmethod");
  std::cout << "\nReading the table: tu stays far below 1 I/O and scales "
               "like γ·log_γ(n/m)/b;\ntq tracks the nonempty level count — "
               "o(1) inserts bought with ω(1) queries,\nwhich is exactly "
               "what Theorem 2 then repairs.\n";
}

struct LookupCosts {
  double success;
  double miss;
};

/// Mean counted I/O of a successful lookup over `keys` and of 4096
/// unsuccessful ones.
LookupCosts lookupCosts(tables::ExternalHashTable& table,
                        const std::vector<std::uint64_t>& keys,
                        extmem::BlockDevice& device) {
  LookupCosts costs{};
  {
    const extmem::IoProbe probe(device);
    for (const auto k : keys) (void)table.lookup(k);
    costs.success = static_cast<double>(probe.cost()) /
                    static_cast<double>(keys.size());
  }
  {
    FeistelPermutation miss_perm(deriveSeed(kSeed, 99));
    const extmem::IoProbe probe(device);
    const std::size_t misses = 4096;
    for (std::size_t i = 0; i < misses; ++i) {
      (void)table.lookup(miss_perm(i) | (1ULL << 63));
    }
    costs.miss = static_cast<double>(probe.cost()) / 4096.0;
  }
  return costs;
}

// KNUTH — the query-cost table the paper cites from Knuth [13, §6.4]:
// expected lookup cost of the standard external hash table as a function
// of load factor α and block size b, for chaining and blocked linear
// probing. The paper's claim "1 + 1/2^Ω(b)" is the b-direction of this
// table. Model = Poisson occupancy (what Knuth tabulates for large
// tables); measured = the real structures on the simulated device.
void knuth() {
  constexpr std::uint64_t kBuckets = 512;  // primary buckets per config

  bench::printHeader(
      "KNUTH: standard hash table query costs vs (α, b)",
      "Paper: Section 1 cites Knuth's exact numbers for tq = 1 + 1/2^Ω(b). "
      "Columns: model (Poisson) vs measured for chaining and blocked "
      "linear probing; success and unsuccessful (miss) lookups.");

  TablePrinter out({"alpha", "b", "chain succ model", "chain succ meas",
                    "chain miss model", "chain miss meas", "lp succ model",
                    "lp succ meas"});

  for (const double alpha : {0.5, 0.7, 0.8, 0.9}) {
    for (const std::size_t b : {8u, 16u, 64u, 128u}) {
      const auto n = static_cast<std::size_t>(
          alpha * static_cast<double>(b) * static_cast<double>(kBuckets));

      bench::Rig chain_rig(b, 0, deriveSeed(kSeed, b * 131 + 1));
      tables::ChainingHashTable chain(chain_rig.context(),
                                      {kBuckets, tables::BucketIndexer{}});
      bench::Rig lp_rig(b, 0, deriveSeed(kSeed, b * 131 + 2));
      tables::LinearProbingHashTable lp(lp_rig.context(),
                                        {kBuckets, tables::BucketIndexer{}});

      std::vector<std::uint64_t> keys;
      keys.reserve(n);
      FeistelPermutation perm(deriveSeed(kSeed, b * 131 + 3));
      for (std::size_t i = 0; i < n; ++i) keys.push_back(perm(i));
      for (const auto k : keys) {
        chain.insert(k, 1);
        lp.insert(k, 1);
      }

      const auto chain_m = lookupCosts(chain, keys, *chain_rig.device);
      const auto lp_m = lookupCosts(lp, keys, *lp_rig.device);

      out.addRow({TablePrinter::num(alpha, 2),
                  TablePrinter::num(std::uint64_t{b}),
                  TablePrinter::num(analysis::chainingSuccessfulCost(alpha, b), 5),
                  TablePrinter::num(chain_m.success, 5),
                  TablePrinter::num(analysis::chainingUnsuccessfulCost(alpha, b), 5),
                  TablePrinter::num(chain_m.miss, 5),
                  TablePrinter::num(analysis::linearProbingSuccessfulCost(alpha, b), 5),
                  TablePrinter::num(lp_m.success, 5)});
    }
  }

  out.print(std::cout);
  bench::saveCsv(out, "knuth_table");
  std::cout << "\nReading the table: costs collapse toward 1 as b grows at "
               "any fixed α < 1\n(the 1 + 1/2^Ω(b) phenomenon); model and "
               "measured agree to a few percent\nbelow α ≈ 0.9.\n";
}

// LEM34 — Lemmas 3 and 4: the bin-ball game cost bounds that power the
// lower bound. Plays the exact game (optimal adversary) over a parameter
// grid and prints measured cost vs each lemma's guarantee.
void binball() {
  using lowerbound::BinBallConfig;
  constexpr std::size_t kTrials = 25;  // independent games per config

  // Plays kTrials games and adds the row every config prints.
  Xoshiro256StarStar rng(kSeed);
  const auto play = [&](TablePrinter& table, const BinBallConfig& cfg,
                        std::string sp_or_bins, double bound) {
    RunningStat stat;
    std::size_t violations = 0;
    for (std::size_t i = 0; i < kTrials; ++i) {
      const auto r = playBinBallGame(cfg, rng);
      stat.push(static_cast<double>(r.cost));
      if (static_cast<double>(r.cost) < bound) ++violations;
    }
    table.addRow({TablePrinter::num(cfg.s), std::move(sp_or_bins),
                  TablePrinter::num(cfg.t), TablePrinter::num(bound, 1),
                  TablePrinter::num(stat.mean(), 1),
                  TablePrinter::num(stat.min(), 1),
                  TablePrinter::num(stat.mean() / bound, 3),
                  TablePrinter::num(std::uint64_t{violations})});
  };

  bench::printHeader(
      "LEM3: (s,p,t) bin-ball game, cost >= (1-μ)(1-sp)s - t  (sp <= 1/3)",
      "Paper: Lemma 3 with μ = φ. 'violations' counts games below the "
      "bound (the lemma allows e^(-μ²s/3) of them: essentially none at "
      "these sizes).");

  TablePrinter lemma3({"s", "sp", "t", "bound (μ=0.1)", "cost mean",
                       "cost min", "ratio", "violations"});
  for (const std::uint64_t s : {2000u, 10000u}) {
    for (const double sp : {0.1, 0.2, 0.33}) {
      for (const std::uint64_t t : {std::uint64_t{0}, s / 10}) {
        const BinBallConfig cfg{s, sp / static_cast<double>(s), t};
        play(lemma3, cfg, TablePrinter::num(sp, 2), lemma3Bound(cfg, 0.1));
      }
    }
  }
  lemma3.print(std::cout);
  bench::saveCsv(lemma3, "binball_lemma3");

  bench::printHeader(
      "LEM4: heavy-removal regime, cost >= 1/(20p)  (s/2 >= t, s/2 >= 1/p)",
      "Paper: Lemma 4 — even an adversary deleting half the balls cannot "
      "empty 1/(20p) bins. This is the regime-3 engine (sp >> 1 makes "
      "Lemma 3 vacuous).");

  TablePrinter lemma4({"s", "bins (1/p)", "t", "bound 1/(20p)", "cost mean",
                       "cost min", "ratio", "violations"});
  for (const std::uint64_t bins : {100u, 400u, 1600u}) {
    for (const std::uint64_t load_mult : {10u, 40u}) {
      const std::uint64_t s = bins * load_mult;
      const BinBallConfig cfg{s, 1.0 / static_cast<double>(bins), s / 2};
      play(lemma4, cfg, TablePrinter::num(bins), lemma4Bound(cfg));
    }
  }
  lemma4.print(std::cout);
  bench::saveCsv(lemma4, "binball_lemma4");

  std::cout << "\nReading the tables: zero (or near-zero) violations "
               "everywhere; Lemma 3's ratio\ncolumn shows the bound is "
               "tight to ~10-35%, Lemma 4's generous 1/20 constant\nshows "
               "up as larger ratios — matching the paper's proof slack.\n";
}

// LB-ROUNDS — the proof machinery of Theorem 1, run on a real table:
//  (a) the round experiment: Z (distinct fast-zone blocks per round of s
//      inserts) obeys Z >= (1-O(φ))s - t, pinning amortized tu near 1;
//  (b) inequality (1): |S| <= m + δk at every snapshot;
//  (c) Lemma 2: a BAD address function (skewed characteristic vector)
//      floods the slow zone by the predicted amount.
void lowerBoundRounds() {
  constexpr std::size_t kN = 1 << 15;  // total insertions
  constexpr std::size_t kB = 16;       // records per block
  constexpr std::size_t kRounds = 8;
  const std::uint64_t buckets = std::max<std::uint64_t>(1, 2 * kN / kB);

  bench::printHeader(
      "LB-ROUNDS (a): rounds of s inserts on the standard table, regime 1",
      "Paper: proof of Theorem 1 — Z = #distinct fast-zone primary blocks "
      "per round lower-bounds the round's I/O; Z >= (1-O(φ))s - t forces "
      "tu -> 1. Parameters (δ, φ, ρ, s) are the paper's choices.");

  for (const double c : {2.0, 1.5}) {
    bench::Rig rig(kB, 0,
                   deriveSeed(kSeed, static_cast<std::uint64_t>(c * 8)));
    tables::ChainingHashTable table(rig.context(),
                                    {buckets, tables::BucketIndexer{}});
    workload::DistinctKeyStream keys(deriveSeed(kSeed, 3));
    lowerbound::RoundExperimentConfig cfg;
    cfg.n = kN;
    cfg.c = c;
    cfg.rounds = kRounds;
    const auto result = runRoundExperiment(table, keys, cfg);

    std::cout << "c = " << c << ": φ = " << result.phi
              << ", δ = " << result.delta << ", s = " << result.s
              << ", amortized tu over rounds = " << result.amortized_tu
              << "\n";
    TablePrinter out({"round", "Z", "Z/s", "floor (1-φ)s - t", "round I/O",
                      "|S|", "|M|"});
    for (const auto& r : result.rounds) {
      out.addRow({TablePrinter::num(r.round),
                  TablePrinter::num(r.distinct_fast_blocks),
                  TablePrinter::num(r.z_over_s, 4),
                  TablePrinter::num(r.lower_bound, 1),
                  TablePrinter::num(r.io_cost, 1),
                  TablePrinter::num(r.slow_items),
                  TablePrinter::num(r.memory_items)});
    }
    out.print(std::cout);
    bench::saveCsv(out, "lb_rounds_c" + std::to_string(c));
  }

  bench::printHeader(
      "LB-ROUNDS (b): inequality (1) — |S| <= m + δk at snapshots",
      "Paper: equation (1). The standard table at load 1/2 keeps the slow "
      "zone at its 1/2^Ω(b) overflow level, far under budget.");
  {
    bench::Rig rig(kB, 0, deriveSeed(kSeed, 77));
    tables::ChainingHashTable table(rig.context(),
                                    {buckets, tables::BucketIndexer{}});
    workload::DistinctKeyStream keys(deriveSeed(kSeed, 78));
    TablePrinter out({"k (inserted)", "|S| measured", "budget m + δk",
                      "implied tq"});
    const double delta = analysis::deltaFor(2.0, kB);
    for (std::size_t k = 0; k < kN; ++k) {
      table.insert(keys.next(), k);
      if ((k + 1) % (kN / 8) == 0) {
        const auto zones = lowerbound::analyzeZones(table);
        out.addRow({TablePrinter::num(std::uint64_t{k + 1}),
                    TablePrinter::num(zones.slow_items),
                    TablePrinter::num(lowerbound::ZoneStats::slowZoneBudget(
                                          0, delta, k + 1),
                                      1),
                    TablePrinter::num(zones.impliedQueryCost(), 5)});
      }
    }
    out.print(std::cout);
    bench::saveCsv(out, "lb_inequality1");
  }

  bench::printHeader(
      "LB-ROUNDS (c): Lemma 2 — a bad address function floods the slow zone",
      "Paper: Lemma 2. A skewed f (λ_f > φ) must push ~(2/3)λ_f·k - bλ_f/ρ "
      "- m items out of the fast zone; a good f keeps |S| negligible.");
  {
    TablePrinter out({"indexer", "lambda_f", "bad indices", "|S| measured",
                      "Lemma 2 flood floor", "implied tq"});
    const std::size_t k = kN / 2;
    const std::uint64_t d = std::max<std::uint64_t>(1, 2 * k / kB);
    const double rho = 4.0 / static_cast<double>(d);
    for (const double power : {1.0, 2.0, 4.0, 8.0}) {
      const tables::BucketIndexer indexer{
          power == 1.0 ? tables::IndexKind::kRange
                       : tables::IndexKind::kSkewPower,
          power};
      bench::Rig rig(kB, 0, deriveSeed(kSeed, 200 + (std::uint64_t)power));
      tables::ChainingHashTable table(rig.context(), {d, indexer});
      workload::DistinctKeyStream keys(deriveSeed(kSeed, 201));
      for (std::size_t i = 0; i < k; ++i) table.insert(keys.next(), i);
      const auto zones = lowerbound::analyzeZones(table);
      const auto ch = lowerbound::analyzeIndexer(indexer, d, rho);
      const double flood =
          lowerbound::lemma2SlowZoneFlood(ch.lambda, rho, k, kB, 0);
      out.addRow({power == 1.0 ? "range (good)"
                               : "skew^" + TablePrinter::num(power, 0),
                  TablePrinter::num(ch.lambda, 4),
                  TablePrinter::num(ch.bad_indices),
                  TablePrinter::num(zones.slow_items),
                  TablePrinter::num(flood, 1),
                  TablePrinter::num(zones.impliedQueryCost(), 4)});
    }
    out.print(std::cout);
    bench::saveCsv(out, "lb_lemma2_skew");
  }

  std::cout << "\nReading the tables: (a) Z/s ≈ 1 and round I/O >= Z — the "
               "buffer cannot\ncoalesce distinct-block work; (b) |S| sits "
               "far below its budget; (c) measured\n|S| exceeds Lemma 2's "
               "flood floor exactly when λ_f is large, and the implied\n"
               "query cost degrades past 1 + δ — a bad f loses the query "
               "bound, as proven.\n";
}

// LOAD — two load-factor claims from the paper:
//
// 1. "Our lower bounds do not depend on the load factor, which implies
//    that the hash table cannot do better by consuming more disk space."
//    We give the standard table 2x, 4x, 10x the minimum disk: tu stays
//    pinned at ~1 — extra space buys nothing for insertions.
//
// 2. Jensen–Pagh [12]: load factor 1 - O(1/√b) is achievable with
//    1 + O(1/√b) queries/updates. We sweep b and watch both sides.
//
// Bonus row: LSM with and without Bloom filters — the systems workaround
// for read amplification — showing the Θ(n)-bits memory bill the budget
// accounting exposes (the paper's m would be blown).
void loadfactor() {
  constexpr std::size_t kN = 1 << 16;  // items
  constexpr std::size_t kB = 64;       // records per block

  bench::printHeader(
      "LOAD (1): more disk space does not buy cheaper insertions",
      "Paper, end of Section 1: the lower bound is load-factor independent. "
      "The standard table at ever lower load (more disk) keeps tu = 1.");
  {
    TablePrinter out({"target load", "disk blocks", "tu measured",
                      "tq measured"});
    for (const double load : {0.9, 0.5, 0.25, 0.1}) {
      const auto buckets = static_cast<std::uint64_t>(
          std::ceil(static_cast<double>(kN) /
                    (load * static_cast<double>(kB))));
      const auto run =
          measure(kB, deriveSeed(kSeed, (std::uint64_t)(load * 100)),
                  deriveSeed(kSeed, 2), {kN, 256, 4, deriveSeed(kSeed, 3)},
                  chaining(buckets));
      out.addRow(
          {TablePrinter::num(load, 2),
           TablePrinter::num(std::uint64_t{run.rig.device->blocksInUse()}),
           TablePrinter::num(run.m.tu, 4),
           TablePrinter::num(run.m.tq_mean, 4)});
    }
    out.print(std::cout);
    bench::saveCsv(out, "loadfactor_space");
  }

  bench::printHeader(
      "LOAD (2): Jensen–Pagh — load 1 - O(1/√b) at cost 1 + O(1/√b)",
      "Paper: the structure whose optimality question Theorem 1 answers. "
      "'(1-load)·√b' and '(tq-1)·√b' should stay O(1) as b grows.");
  {
    TablePrinter out({"b", "load factor", "(1-load)·√b", "tu", "tq",
                      "(tq-1)·√b", "overflow items"});
    for (const std::size_t bb : {16u, 64u, 256u, 1024u}) {
      const auto run = measure(
          bb, deriveSeed(kSeed, bb), deriveSeed(kSeed, bb + 1),
          {kN, 256, 4, deriveSeed(kSeed, bb + 2)},
          [](tables::TableContext ctx) {
            return std::make_unique<tables::JensenPaghTable>(
                ctx, tables::JensenPaghConfig{kN});
          });
      const auto& table = *run.table;
      const double sqrt_b = std::sqrt(static_cast<double>(bb));
      out.addRow({TablePrinter::num(std::uint64_t{bb}),
                  TablePrinter::num(table.loadFactor(), 4),
                  TablePrinter::num((1.0 - table.loadFactor()) * sqrt_b, 3),
                  TablePrinter::num(run.m.tu, 4),
                  TablePrinter::num(run.m.tq_mean, 4),
                  TablePrinter::num((run.m.tq_mean - 1.0) * sqrt_b, 3),
                  TablePrinter::num(std::uint64_t{table.overflowItems()})});
    }
    out.print(std::cout);
    bench::saveCsv(out, "loadfactor_jensen_pagh");
  }

  bench::printHeader(
      "LOAD (3): LSM Bloom filters move cost from I/O to memory",
      "The systems fix for LSM read amplification spends Θ(n) bits of the "
      "paper's memory budget m — it does not evade the tradeoff.");
  {
    TablePrinter out({"bloom bits/key", "tq hit", "tq miss",
                      "memory words (vs m = n·bits/64)"});
    for (const std::size_t bits : {0u, 4u, 10u}) {
      const auto run = measure(
          kB, deriveSeed(kSeed, 900 + bits), deriveSeed(kSeed, 901),
          {kN, 256, 4, deriveSeed(kSeed, 902), /*measure_unsuccessful=*/true},
          [&](tables::TableContext ctx) {
            return std::make_unique<tables::LsmTable>(
                ctx, tables::LsmConfig{512, 4, 1, bits});
          });
      out.addRow({TablePrinter::num(std::uint64_t{bits}),
                  TablePrinter::num(run.m.tq_mean, 4),
                  TablePrinter::num(run.m.tq_unsuccessful, 4),
                  TablePrinter::num(std::uint64_t{run.rig.memory->peak()})});
    }
    out.print(std::cout);
    bench::saveCsv(out, "loadfactor_lsm_bloom");
  }

  std::cout << "\nReading the tables: (1) tu is flat in the disk budget; "
               "(2) both normalized\nJensen–Pagh columns are O(1) in b; "
               "(3) Bloom filters fix LSM misses but the\nmemory column "
               "scales with n — under the paper's m-word budget that "
               "memory is\nexactly what the lower bound charges for.\n";
}

// BASE — the contextual comparison behind the paper's introduction: hash
// tables query in ~1 I/O but cannot buffer inserts; trees/LSMs buffer
// inserts to o(1) but pay ω(1) queries. Every structure in the library at
// identical (b, n, memory): amortized insert cost, average successful
// query cost (mean over prefixes and at the final snapshot), memory and
// disk usage.
void baselines() {
  using tables::TableKind;
  constexpr std::size_t kN = 1 << 16;  // items inserted
  constexpr std::size_t kB = 128;      // records per block

  bench::printHeader(
      "BASE: all dictionaries at identical (b, n)",
      "Paper context (Section 1): buffering drives tree/LSM updates to "
      "o(1); the standard hash table cannot be beaten below tu = 1 without "
      "giving up tq = 1 + 1/b^(c>1); the Theorem-2 table realizes the only "
      "legal middle ground.");

  tables::GeneralConfig cfg;
  cfg.expected_n = kN;
  cfg.target_load = 0.5;
  cfg.buffer_items = 256;  // memory buffer of the buffered kinds
  cfg.beta = 8;            // β of the Theorem-2 table
  cfg.gamma = 2;
  const std::vector<TableKind> kinds = {
      TableKind::kChaining,     TableKind::kLinearProbing,
      TableKind::kExtendible,   TableKind::kLinearHashing,
      TableKind::kCuckoo,       TableKind::kJensenPagh,
      TableKind::kLogMethod,    TableKind::kBuffered,
      TableKind::kLsm,          TableKind::kBTree,
      TableKind::kBufferBTree,
  };
  std::vector<std::vector<std::string>> rows(kinds.size());

  // Sweep points are independent: run them across the pool.
  ThreadPool pool;
  pool.parallelFor(0, kinds.size(), [&](std::size_t i) {
    const auto run = measure(
        kB, deriveSeed(kSeed, i + 1), deriveSeed(kSeed, 100 + i),
        {kN, 512, 6, deriveSeed(kSeed, 200 + i),
         /*measure_unsuccessful=*/true},
        [&](tables::TableContext ctx) {
          return makeTable(kinds[i], ctx, cfg);
        });
    rows[i] = {std::string(tables::tableKindName(kinds[i])),
               TablePrinter::num(run.m.tu, 4),
               TablePrinter::num(run.m.tq_mean, 4),
               TablePrinter::num(run.m.tq_final, 4),
               TablePrinter::num(run.m.tq_unsuccessful, 4),
               TablePrinter::num(std::uint64_t{run.rig.memory->peak()}),
               TablePrinter::num(
                   std::uint64_t{run.rig.device->blocksInUse()})};
  });

  TablePrinter out({"structure", "tu (insert I/O)", "tq mean", "tq final",
                    "tq miss", "mem peak (words)", "disk blocks"});
  for (auto& row : rows) out.addRow(std::move(row));
  out.print(std::cout);
  bench::saveCsv(out, "baselines");

  std::cout << "\nReading the table: the classic hash tables cluster at "
               "(tu≈1, tq≈1); the\nB-tree pays >1 on BOTH; log-method and "
               "LSM buy tu=o(1) with tq=ω(1); the\nTheorem-2 'buffered' "
               "row is the only one with tu<1 AND tq≈1 — and Theorem 1\n"
               "says its tq penalty Θ(1/β) is the least any such table can "
               "pay.\n";
}

}  // namespace
}  // namespace exthash

int main(int argc, char** argv) {
  using namespace exthash;
  constexpr std::pair<std::string_view, void (*)()> kFigures[] = {
      {"fig1", fig1},       {"thm2", thm2},
      {"lemma5", lemma5},   {"knuth", knuth},
      {"binball", binball}, {"lowerbound", lowerBoundRounds},
      {"loadfactor", loadfactor}, {"baselines", baselines}};
  ArgParser args("bench_paper", "The paper's figures, theorems and lemmas");
  args.addStringFlag("figure", "all",
                     "fig1 | thm2 | lemma5 | knuth | binball | lowerbound | "
                     "loadfactor | baselines | all");
  if (!args.parse(argc, argv)) return 0;
  const std::string& figure = args.getString("figure");
  bool known = figure == "all";
  for (const auto& [name, run] : kFigures) {
    if (figure == "all" || figure == name) {
      run();
      known = true;
    }
  }
  EXTHASH_CHECK_MSG(known, "unknown --figure '" << figure << "'");
  return 0;
}
