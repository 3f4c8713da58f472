// WALL — wall-clock sanity microbenchmarks (google-benchmark).
//
// Not a paper artifact: the paper's currency is I/Os, which the other
// benches count exactly. This binary confirms the simulator itself is fast
// enough that multi-million-item sweeps are trustworthy (ops/sec, not
// I/Os), and catches accidental complexity regressions in the hot paths.
// Only steady-state paths are timed here: lookups into a prebuilt table
// and a device rmw. Inserts change the table they time (a fixed bucket
// count fills up as google-benchmark adds iterations), so insert
// throughput is measured end to end by perfbench/ instead.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/buffered_hash_table.h"
#include "tables/btree_table.h"
#include "tables/chaining_table.h"

namespace {

using namespace exthash;

void BM_ChainingLookup(benchmark::State& state) {
  const std::size_t b = static_cast<std::size_t>(state.range(0));
  bench::Rig rig(b, 0, 1);
  tables::ChainingHashTable table(rig.context(),
                                  {1 << 12, tables::BucketIndexer{}});
  FeistelPermutation perm(3);
  const std::size_t n = (1 << 12) * b / 2;
  for (std::size_t i = 0; i < n; ++i) table.insert(perm(i), 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(perm(i++ % n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChainingLookup)->Arg(16)->Arg(256);

void BM_BufferedLookup(benchmark::State& state) {
  bench::Rig rig(64, 0, 1);
  core::BufferedHashTable table(rig.context(), {16, 2, 1024});
  FeistelPermutation perm(5);
  const std::size_t n = 1 << 16;
  for (std::size_t i = 0; i < n; ++i) table.insert(perm(i), 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(perm(i++ % n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferedLookup);

void BM_BTreeLookup(benchmark::State& state) {
  bench::Rig rig(64, 0, 1);
  tables::BTreeTable table(rig.context());
  FeistelPermutation perm(7);
  const std::size_t n = 1 << 16;
  for (std::size_t i = 0; i < n; ++i) table.insert(perm(i), 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(perm(i++ % n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup);

void BM_DeviceRmw(benchmark::State& state) {
  extmem::BlockDevice device(extmem::wordsForRecordCapacity(256));
  const auto base = device.allocateExtent(1 << 12);
  Xoshiro256StarStar rng(8);
  for (auto _ : state) {
    device.withWrite(base + rng.below(1 << 12),
                     [](std::span<extmem::Word> page) { page[2] ^= 1; });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceRmw);

}  // namespace

BENCHMARK_MAIN();
