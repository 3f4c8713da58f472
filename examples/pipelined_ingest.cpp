// Pipelined ingest: feed a sharded table through an IngestPipeline.
//
// Where examples/batch_ingest hands the table synchronous batches — shard
// devices idle while the next batch accumulates — the pipeline seals each
// staging window in the background: accumulation (and last-write-wins
// coalescing of repeated keys) overlaps the apply of the previous window,
// and point lookups return std::futures that resolve from memory when the
// key has a pending operation (read-your-writes), and from the table
// otherwise: on the caller's thread when the worker owes nothing, else in
// a grouped lookupBatch on the worker.
//
//   $ ./pipelined_ingest [--n=1000000] [--b=256] [--window=65536]
//                        [--depth=2] [--shards=8]
#include <iostream>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/bucket_page.h"
#include "extmem/memory_budget.h"
#include "hashfn/hash_family.h"
#include "pipeline/ingest_pipeline.h"
#include "tables/factory.h"
#include "util/cli.h"
#include "workload/keygen.h"

int main(int argc, char** argv) {
  using namespace exthash;
  ArgParser args("pipelined_ingest",
                 "double-buffered ingest with future-based lookups");
  args.addUintFlag("n", 1000000, "operations to submit");
  args.addUintFlag("b", 256, "records per disk block");
  args.addUintFlag("window", 65536, "pipeline staging window (ops)");
  args.addUintFlag("depth", 2, "max sealed-but-unapplied windows");
  args.addUintFlag("shards", 8, "inner tables (one device each)");
  if (!args.parse(argc, argv)) return 0;
  const std::size_t n = args.getUint("n");
  const std::size_t b = args.getUint("b");

  extmem::BlockDevice device(extmem::wordsForRecordCapacity(b));
  extmem::MemoryBudget memory(/*limit_words=*/0);
  auto hash = hashfn::makeHash(hashfn::HashKind::kTabulation, /*seed=*/42);

  tables::GeneralConfig cfg;
  cfg.expected_n = n;
  cfg.buffer_items = std::max<std::size_t>(4096, n / 64);
  cfg.beta = 16;
  cfg.shards = args.getUint("shards");
  cfg.sharded_inner = tables::TableKind::kBuffered;
  auto table = makeTable(tables::TableKind::kSharded,
                         tables::TableContext{&device, &memory, hash}, cfg);

  pipeline::PipelineConfig pc;
  pc.batch_capacity = args.getUint("window");
  pc.max_pending_batches = std::max<std::uint64_t>(1, args.getUint("depth"));
  pipeline::IngestPipeline pipe(*table, pc);

  // 1. Stream a skewed workload through the pipeline; repeats coalesce.
  workload::ZipfKeyStream keys(/*seed=*/7, /*universe=*/n / 2,
                               /*theta=*/0.9);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    pipe.insert(keys.next(), i);
  }

  // 2. Read-your-writes: lookups submitted mid-stream observe every
  // earlier submit, even ops still staged or in flight.
  pipe.insert(424242, 1);
  pipe.insert(424242, 7);  // overwrites in the same window: one table op
  auto hot = pipe.submitLookup(424242);
  auto cold = pipe.submitLookup(5);  // probably absent: the table answers
  std::cout << "submitLookup(424242) -> " << hot.get().value_or(0)
            << " (from the staging window)\n"
            << "submitLookup(5)      -> "
            << (cold.get().has_value() ? "hit" : "miss")
            << " (answered by the table)\n";

  pipe.drain();
  const auto t1 = std::chrono::steady_clock::now();

  // 3. What the pipeline did.
  const auto st = pipe.stats();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double per_op = static_cast<double>(table->ioStats().cost()) /
                        static_cast<double>(st.ops_submitted);
  std::cout << "submitted " << st.ops_submitted << " ops in " << secs
            << " s  ->  "
            << static_cast<double>(st.ops_submitted) / secs << " ops/s\n"
            << "coalesced " << st.ops_coalesced << " repeats; "
            << st.batches_applied << " windows applied; "
            << st.submit_waits << " backpressure waits\n"
            << "counted I/O: " << per_op << " per submitted op\n"
            << "structure: " << table->debugString() << "\n";
  return 0;
}
