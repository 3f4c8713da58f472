// Typed I/O failures and deterministic fault injection for BlockDevice.
//
// Real devices fail: reads return EIO, writes time out, a sector goes bad
// forever. The emulated device never does — which means none of the layers
// above it (cache, pipeline, shards) have error paths to harden. This
// header supplies both halves of the fix:
//
//   IoError taxonomy — every counted access can throw a typed error
//   carrying the op kind (read / write / rmw), the BlockId, the attempt
//   count, and a transient/permanent classification. TransientIoError
//   models conditions a retry can clear (bus glitch, timeout); a
//   PermanentIoError models conditions it cannot (bad sector, device
//   gone). Catch IoError to handle both, or the subtypes to distinguish.
//
//   FaultPolicy — a deterministic, seeded fault scripter installable on a
//   BlockDevice (BlockDevice::setFaultPolicy). Supports per-op-kind
//   failure probabilities (each access draws from a seeded stream),
//   targeted triggers (fail the n-th access of a kind, or every access to
//   a specific block), crash points, and one-shot vs sticky durability.
//   Tests and benches script exact fault schedules with it; the same seed
//   replays the same schedule. The policy keeps its own tally of the
//   faults it injected (faultsInjected()).
//
// One ladder: the device consults the policy inside its single retry
// loop (BlockDevice::retryBackend), once per attempt, just before the
// attempt's backend load. An injected fault and a real transient syscall
// error therefore draw on the same RetryPolicy budget, and the ladder
// stamps the final attempt count on whatever escapes.
//
// Fault-before-effect contract: a faulted attempt throws before the
// access counts or touches anything, so it leaves both the I/O statistics
// and the block contents exactly as they were. That is what makes a retry
// trivially safe (no partial write to undo) and is why the chaos harness
// can demand bit-exact digests vs a fault-free run.
//
// Attempt counting: every attempt calls onAccess, and every call advances
// the per-kind op counter and the probability stream. A one-shot trigger
// therefore fires on exactly one attempt and the retry sails through; a
// sticky trigger fires on every attempt until clear(), exhausting the
// retry budget.
//
// Threading: a FaultPolicy is thread-compatible, exactly like the
// BlockDevice it is installed on — each shard owns its device and its
// policy, and external serialization of the device covers the policy.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace exthash::extmem {

// Same alias as block_device.h (redeclared identically; fault.h must not
// include block_device.h, which includes this header).
using BlockId = std::uint64_t;

/// The three counted device operations (io_stats.h cost convention).
enum class IoOpKind : std::uint8_t { kRead, kWrite, kRmw };

const char* ioOpKindName(IoOpKind op) noexcept;

/// Base of the I/O failure taxonomy. `attempts()` is the number of access
/// attempts made when the error escaped (1 for an unretried fault; the
/// retry budget for an exhausted one). `posixErrno()` is the real errno a
/// file-backed access failed with (0 for injected/simulated faults);
/// file-backed errors put its symbolic name + strerror text into the
/// message ("permanent write fault on block 7 (attempt 4): EIO —
/// Input/output error (pwrite)").
class IoError : public std::runtime_error {
 public:
  IoError(IoOpKind op, BlockId block, bool transient, std::uint32_t attempts,
          const std::string& detail, int posix_errno = 0);

  IoOpKind op() const noexcept { return op_; }
  BlockId block() const noexcept { return block_; }
  /// True when a retry may clear the condition; false for hard faults.
  bool transient() const noexcept { return transient_; }
  std::uint32_t attempts() const noexcept { return attempts_; }
  /// The underlying errno (0 when the fault was not a real syscall).
  int posixErrno() const noexcept { return posix_errno_; }
  /// The raw detail string (without the "… fault on block N" framing),
  /// so re-throws at retry boundaries can preserve the original cause.
  const std::string& detail() const noexcept { return detail_; }

 private:
  IoOpKind op_;
  BlockId block_;
  bool transient_;
  std::uint32_t attempts_;
  int posix_errno_;
  std::string detail_;
};

/// A fault a retry may clear (timeout, bus glitch). The device's retry
/// loop re-attempts these; one escaping means the retry budget ran out.
class TransientIoError : public IoError {
 public:
  TransientIoError(IoOpKind op, BlockId block, std::uint32_t attempts,
                   const std::string& detail, int posix_errno = 0)
      : IoError(op, block, /*transient=*/true, attempts, detail,
                posix_errno) {}
};

/// A fault no retry clears (bad sector, device gone). Escapes immediately.
class PermanentIoError : public IoError {
 public:
  PermanentIoError(IoOpKind op, BlockId block, std::uint32_t attempts,
                   const std::string& detail, int posix_errno = 0)
      : IoError(op, block, /*transient=*/false, attempts, detail,
                posix_errno) {}
};

/// The access hit a simulated machine crash — a FaultPolicy crash point
/// or a power cut at the syscall layer. The device froze (every further
/// counted access throws this) until thaw(). Permanent on purpose —
/// nothing above the device can retry its way out of a crash; only the
/// recovery path (durability/recovery.h) brings the stack back.
class DeviceCrashed : public PermanentIoError {
 public:
  DeviceCrashed(IoOpKind op, BlockId block, const std::string& detail)
      : PermanentIoError(op, block, /*attempts=*/1, detail) {}
};

/// Deterministic, seeded fault scripter (see the file comment).
class FaultPolicy {
 public:
  enum class Severity : std::uint8_t { kTransient, kPermanent };
  /// kOneShot triggers disarm after firing once; kSticky triggers fire on
  /// every matching access until clear().
  enum class Durability : std::uint8_t { kOneShot, kSticky };

  explicit FaultPolicy(std::uint64_t seed);

  /// Probability in [0, 1] that an access of kind `op` throws a
  /// TransientIoError. Each attempt draws independently from the seeded
  /// stream, so retries eventually pass (for p < 1).
  void setFailureProbability(IoOpKind op, double p);
  /// Convenience: the same probability for all three op kinds.
  void setFailureProbability(double p);

  /// Fault the `nth` access of kind `op` (1-based, counted over this
  /// policy's lifetime, attempts included).
  void failOpNumber(IoOpKind op, std::uint64_t nth,
                    Severity severity = Severity::kTransient,
                    Durability durability = Durability::kOneShot);

  /// Fault every access (any kind) touching `block` — the bad-sector
  /// model when sticky + permanent.
  void failBlock(BlockId block,
                 Severity severity = Severity::kTransient,
                 Durability durability = Durability::kSticky);

  /// Crash the machine at the `nth` access of kind `op` (1-based, counted
  /// over this policy's lifetime, attempts included): the device freezes
  /// and throws DeviceCrashed. A read crashes before its callback runs; a
  /// write or rmw runs its callback and then persists only the first
  /// `torn_words` words of what it produced (0 = the write is lost whole).
  /// One-shot by construction — a machine only crashes once per schedule.
  void crashOpNumber(IoOpKind op, std::uint64_t nth,
                     std::size_t torn_words = 0);

  /// Drop every armed fault and probability — "the fault clears". The
  /// op counters and the injected-fault tally survive.
  void clear();

  /// Faults this policy has injected (thrown) so far.
  std::uint64_t faultsInjected() const noexcept { return injected_; }
  /// Crash triggers that have fired so far (0 or 1 per armed crash).
  std::uint64_t crashesFired() const noexcept { return crashes_fired_; }
  /// Accesses of kind `op` seen so far (attempts included).
  std::uint64_t opCount(IoOpKind op) const noexcept {
    return op_count_[index(op)];
  }

  /// Device hook, called once per access attempt BEFORE the op takes
  /// effect. Throws TransientIoError / PermanentIoError (attempts = 1;
  /// the device's ladder stamps the final count). Returns a fired crash
  /// point's torn_words, or nullopt when the attempt may proceed.
  std::optional<std::size_t> onAccess(IoOpKind op, BlockId block);

 private:
  struct Trigger {
    Severity severity = Severity::kTransient;
    Durability durability = Durability::kOneShot;
  };
  struct OpTrigger {
    IoOpKind op;
    std::uint64_t nth;
    Trigger trigger;
  };
  struct CrashTrigger {
    IoOpKind op;
    std::uint64_t nth;
    std::size_t torn_words;
  };

  static constexpr std::size_t index(IoOpKind op) noexcept {
    return static_cast<std::size_t>(op);
  }
  [[noreturn]] void inject(const Trigger& trigger, IoOpKind op, BlockId block,
                           const char* cause);
  double nextUniform() noexcept;

  std::uint64_t rng_state_;
  double probability_[3] = {0.0, 0.0, 0.0};
  std::uint64_t op_count_[3] = {0, 0, 0};
  std::vector<OpTrigger> op_triggers_;
  std::vector<CrashTrigger> crash_triggers_;
  std::unordered_map<BlockId, Trigger> block_triggers_;
  std::uint64_t injected_ = 0;
  std::uint64_t crashes_fired_ = 0;
};

}  // namespace exthash::extmem
