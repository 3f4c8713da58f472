// I/O accounting for the simulated external memory model.
//
// The paper's cost convention (footnote 2): reading a block and writing it
// back immediately is dominated by the seek and counts as ONE I/O. The
// device therefore distinguishes three counted operations:
//   read   — fetch a block                      (cost 1)
//   write  — blind overwrite of a block          (cost 1)
//   rmw    — read-modify-write of one block      (cost 1, raw accesses 2)
// `cost()` is the paper's I/O count; `rawAccesses()` counts every block
// transfer for hardware-oriented sanity checks.
#pragma once

#include <cstdint>

namespace exthash::extmem {

struct IoStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t rmws = 0;
  std::uint64_t allocated_blocks = 0;
  std::uint64_t freed_blocks = 0;
  // Cache telemetry, aggregated by tables with an attached BlockCache
  // (and by the sharded façade across its per-shard caches). Hits are the
  // accesses that cost zero device I/O; writebacks are the dirty frames a
  // write-back cache has written to the device (those device writes are
  // already counted in `writes` — this counter attributes them).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_writebacks = 0;
  // Replacement-policy telemetry (see extmem/replacement_policy.h):
  // misses that hit a ghost directory (2Q's A1out, ARC's B1/B2 — a reuse
  // the policy remembered after evicting; always 0 for LRU).
  std::uint64_t cache_ghost_hits = 0;
  // Device reads issued inside a CacheBypassScope (block_device.h): cold
  // merges and bulk rebuilds that stream data once and would only pollute
  // a cache. Each is also counted in `reads`; this counter attributes
  // them so telemetry can separate deliberate bypasses from cache misses.
  std::uint64_t cache_bypass_reads = 0;
  // Resilience telemetry from the device's one retry ladder (see
  // extmem/retry.h): io_retries counts the transient faults it absorbed,
  // injected or real; io_gave_up counts the accesses that escaped as an
  // IoError (retry budget exhausted or permanent). Faulted attempts never
  // count in reads/writes/rmws — the ladder consults the fault policy
  // before the attempt takes effect, so cost() keeps the paper's
  // convention under fault schedules. The injectors tally their own
  // faults (FaultPolicy::faultsInjected).
  std::uint64_t io_retries = 0;
  std::uint64_t io_gave_up = 0;
  // Durability barriers (BlockDevice::sync → fdatasync on file backends;
  // counted even for memory backends where the barrier is a no-op, so the
  // WAL's fsync tax is measurable regardless of backend). Deliberately
  // NOT part of cost(): the paper's model counts block transfers, and a
  // barrier transfers nothing — it orders.
  std::uint64_t fsyncs = 0;

  /// Paper-convention I/O cost (footnote 2 of the paper). Cache hits are
  /// free by definition and never enter the cost.
  std::uint64_t cost() const noexcept { return reads + writes + rmws; }

  /// Device writes of any flavor: blind writes (incl. write-back flushes)
  /// plus read-modify-writes. The ablation benchmarks compare THIS across
  /// write policies — it is the figure buffering/caching pushes down.
  std::uint64_t writeCost() const noexcept { return writes + rmws; }

  /// Total raw block transfers (an rmw touches the block twice).
  std::uint64_t rawAccesses() const noexcept {
    return reads + writes + 2 * rmws;
  }

  /// Aggregation across devices (the sharded front-end sums its shards'
  /// counters; benchmark harnesses sum per-phase deltas).
  IoStats& operator+=(const IoStats& rhs) noexcept {
    reads += rhs.reads;
    writes += rhs.writes;
    rmws += rhs.rmws;
    allocated_blocks += rhs.allocated_blocks;
    freed_blocks += rhs.freed_blocks;
    cache_hits += rhs.cache_hits;
    cache_writebacks += rhs.cache_writebacks;
    cache_ghost_hits += rhs.cache_ghost_hits;
    cache_bypass_reads += rhs.cache_bypass_reads;
    io_retries += rhs.io_retries;
    io_gave_up += rhs.io_gave_up;
    fsyncs += rhs.fsyncs;
    return *this;
  }

  IoStats operator+(const IoStats& rhs) const noexcept {
    IoStats s = *this;
    s += rhs;
    return s;
  }

  IoStats operator-(const IoStats& rhs) const noexcept {
    IoStats d;
    d.reads = reads - rhs.reads;
    d.writes = writes - rhs.writes;
    d.rmws = rhs.rmws <= rmws ? rmws - rhs.rmws : 0;
    d.allocated_blocks = allocated_blocks - rhs.allocated_blocks;
    d.freed_blocks = freed_blocks - rhs.freed_blocks;
    d.cache_hits = cache_hits - rhs.cache_hits;
    d.cache_writebacks = cache_writebacks - rhs.cache_writebacks;
    d.cache_ghost_hits = cache_ghost_hits - rhs.cache_ghost_hits;
    d.cache_bypass_reads = cache_bypass_reads - rhs.cache_bypass_reads;
    d.io_retries = io_retries - rhs.io_retries;
    d.io_gave_up = io_gave_up - rhs.io_gave_up;
    d.fsyncs = fsyncs - rhs.fsyncs;
    return d;
  }
};

}  // namespace exthash::extmem
