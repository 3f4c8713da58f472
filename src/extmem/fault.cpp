#include "extmem/fault.h"

#include <sstream>

#include "util/random.h"

namespace exthash::extmem {

const char* ioOpKindName(IoOpKind op) noexcept {
  switch (op) {
    case IoOpKind::kRead:
      return "read";
    case IoOpKind::kWrite:
      return "write";
    case IoOpKind::kRmw:
      return "rmw";
  }
  return "?";
}

namespace {

std::string describe(IoOpKind op, BlockId block, bool transient,
                     std::uint32_t attempts, const std::string& detail) {
  std::ostringstream os;
  os << (transient ? "transient" : "permanent") << " " << ioOpKindName(op)
     << " fault on block " << block << " (attempt " << attempts << ")";
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

}  // namespace

IoError::IoError(IoOpKind op, BlockId block, bool transient,
                 std::uint32_t attempts, const std::string& detail,
                 int posix_errno)
    : std::runtime_error(describe(op, block, transient, attempts, detail)),
      op_(op),
      block_(block),
      transient_(transient),
      attempts_(attempts),
      posix_errno_(posix_errno),
      detail_(detail) {}

FaultPolicy::FaultPolicy(std::uint64_t seed)
    : rng_state_(splitmix64(seed ^ 0xFA017FA017FA017FULL)) {}

void FaultPolicy::setFailureProbability(IoOpKind op, double p) {
  probability_[index(op)] = p;
}

void FaultPolicy::setFailureProbability(double p) {
  for (double& slot : probability_) slot = p;
}

void FaultPolicy::failOpNumber(IoOpKind op, std::uint64_t nth,
                               Severity severity, Durability durability) {
  op_triggers_.push_back(OpTrigger{op, nth, Trigger{severity, durability}});
}

void FaultPolicy::failBlock(BlockId block, Severity severity,
                            Durability durability) {
  block_triggers_[block] = Trigger{severity, durability};
}

void FaultPolicy::crashOpNumber(IoOpKind op, std::uint64_t nth,
                                std::size_t torn_words) {
  crash_triggers_.push_back(CrashTrigger{op, nth, torn_words});
}

void FaultPolicy::clear() {
  for (double& slot : probability_) slot = 0.0;
  op_triggers_.clear();
  crash_triggers_.clear();
  block_triggers_.clear();
}

double FaultPolicy::nextUniform() noexcept {
  // One SplitMix64 step per draw: deterministic given the seed and the
  // sequence of accesses, independent of wall clock and thread timing.
  rng_state_ += 0x9e3779b97f4a7c15ULL;
  return static_cast<double>(splitmix64(rng_state_) >> 11) * 0x1.0p-53;
}

void FaultPolicy::inject(const Trigger& trigger, IoOpKind op, BlockId block,
                         const char* cause) {
  ++injected_;
  if (trigger.severity == Severity::kPermanent) {
    throw PermanentIoError(op, block, /*attempts=*/1, cause);
  }
  throw TransientIoError(op, block, /*attempts=*/1, cause);
}

std::optional<std::size_t> FaultPolicy::onAccess(IoOpKind op, BlockId block) {
  const std::uint64_t n = ++op_count_[index(op)];

  // Crash points outrank every fault: the machine dies before the access
  // gets to fail politely. One-shot; `n >= nth` so a trigger armed below
  // the already-seen count still fires on the very next matching access.
  for (std::size_t i = 0; i < crash_triggers_.size(); ++i) {
    const CrashTrigger& t = crash_triggers_[i];
    if (t.op != op || n < t.nth) continue;
    const std::size_t torn = t.torn_words;
    crash_triggers_.erase(crash_triggers_.begin() +
                          static_cast<std::ptrdiff_t>(i));
    ++crashes_fired_;
    return torn;
  }

  // Scripted op-count triggers fire first (exact schedules beat dice).
  for (std::size_t i = 0; i < op_triggers_.size(); ++i) {
    const OpTrigger& t = op_triggers_[i];
    const bool hit = t.op == op && (t.trigger.durability == Durability::kSticky
                                        ? n >= t.nth
                                        : n == t.nth);
    if (!hit) continue;
    const Trigger trigger = t.trigger;
    if (trigger.durability == Durability::kOneShot) {
      op_triggers_.erase(op_triggers_.begin() +
                         static_cast<std::ptrdiff_t>(i));
    }
    inject(trigger, op, block, "scripted op-count fault");
  }

  const auto bt = block_triggers_.find(block);
  if (bt != block_triggers_.end()) {
    const Trigger trigger = bt->second;
    if (trigger.durability == Durability::kOneShot) block_triggers_.erase(bt);
    inject(trigger, op, block, "scripted block fault");
  }

  const double p = probability_[index(op)];
  if (p > 0.0 && nextUniform() < p) {
    ++injected_;
    throw TransientIoError(op, block, /*attempts=*/1, "probabilistic fault");
  }
  return std::nullopt;
}

}  // namespace exthash::extmem
