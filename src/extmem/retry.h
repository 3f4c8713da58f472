// Bounded retry with exponential backoff + deterministic jitter for
// transient I/O faults.
//
// The retry loop lives at the single choke point every counted access
// funnels through — the BlockDevice's guarded withRead / withWrite /
// withOverwrite calls — so CachedBlockIo, the BlockCache's miss-fill and
// write-back paths, and the tables' direct device accesses (merge
// cursors, run writers) all inherit it from one mechanism. A
// TransientIoError from the installed FaultPolicy is re-attempted up to
// RetryPolicy::max_attempts times with exponentially growing, jittered
// backoff; a PermanentIoError escapes immediately. Because the device
// consults the policy before the op takes effect (fault-before-effect,
// see fault.h), re-attempting is always safe: no partial state exists.
//
// Determinism: backoff is expressed in scheduler-yield quanta (like
// BlockDevice::setAccessLatency) and the jitter is a pure hash of
// (seed, block, attempt) — no wall clock, no global RNG — so a seeded
// chaos run replays identically.
//
// Accounting: each re-attempt increments IoStats::io_retries; an escape
// (budget exhausted, or permanent) increments IoStats::io_gave_up; every
// injected fault increments IoStats::faults_injected. Mirrored to the
// obs:: metrics registry while the telemetry latch is on.
#pragma once

#include <cstdint>

#include "extmem/fault.h"
#include "extmem/io_stats.h"

namespace exthash::extmem {

struct RetryPolicy {
  /// Total attempts per access, the first included (>= 1). 1 disables
  /// retrying: the first fault escapes.
  std::uint32_t max_attempts = 4;
  /// Yield quanta before the second attempt; doubles per attempt after.
  std::uint32_t backoff_quanta = 1;
  /// Cap on the exponential base (jitter can add up to the same again).
  std::uint32_t max_backoff_quanta = 64;
  /// Seed for the deterministic jitter hash.
  std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ULL;

  /// Backoff before attempt `attempt + 1` (so attempt is >= 1): the
  /// capped exponential base plus a full-jitter term hashed from
  /// (jitter_seed, block, attempt). Pure function — replayable.
  std::uint32_t backoffQuantaFor(std::uint32_t attempt,
                                 BlockId block) const noexcept;
};

/// The device-side gate: run `policy.onAccess` for one counted access,
/// absorbing transient faults within `retry`'s budget (yield-backoff
/// between attempts, latency spikes honored) and updating `stats`'
/// faults_injected / io_retries / io_gave_up counters. Throws the final
/// Transient-/PermanentIoError (attempt count filled in) on give-up.
void runFaultGate(FaultPolicy& policy, const RetryPolicy& retry, IoOpKind op,
                  BlockId block, IoStats& stats);

}  // namespace exthash::extmem
