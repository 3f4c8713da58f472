#include "probes.h"

#include <chrono>

namespace perfbench {

using exthash::extmem::FileSyscall;
using exthash::extmem::realFileOps;

std::uint64_t nowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Coverage::enter(std::uint64_t t) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_++ == 0) since_ = t;
}

void Coverage::exit(std::uint64_t t) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (--active_ == 0 && t > since_) covered_ += t - since_;
}

std::uint64_t Coverage::at(std::uint64_t t) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return covered_ + (active_ > 0 && t > since_ ? t - since_ : 0);
}

Ledger& ledger() {
  static Ledger instance;
  return instance;
}

namespace {
thread_local LayerSpan* t_open_span = nullptr;

const char* const kLayerCategory[kSpanLayers] = {
    "pipeline", "pipeline", "tables", "durability.checkpoint"};
}  // namespace

LayerSpan::LayerSpan(const char* name, SpanLayer layer, unsigned subtract,
                     bool worker, std::uint64_t* total_ns) noexcept
    : active_(ledger().on.load(std::memory_order_relaxed)),
      layer_(layer),
      subtract_(subtract),
      worker_(worker),
      total_ns_(total_ns) {
  if (!active_) return;
  trace_.emplace(name, kLayerCategory[layer]);
  Ledger& l = ledger();
  start_ = nowNs();
  for (unsigned d = 0; d < kDomains; ++d) {
    domain_start_[d] = l.domains[d].at(start_);
  }
  if (worker_) l.domains[kWorkerDomain].enter(start_);
  parent_ = t_open_span;
  t_open_span = this;
}

LayerSpan::~LayerSpan() {
  if (!active_) return;
  Ledger& l = ledger();
  const std::uint64_t end = nowNs();
  std::array<std::uint64_t, kDomains> inside{};
  for (unsigned d = 0; d < kDomains; ++d) {
    inside[d] = l.domains[d].at(end) - domain_start_[d];
  }
  if (worker_) l.domains[kWorkerDomain].exit(end);
  const std::uint64_t duration = end - start_;
  std::uint64_t handed_off = child_ns_;
  for (unsigned d = 0; d < kDomains; ++d) {
    if ((subtract_ & domainBit(static_cast<Domain>(d))) != 0 &&
        inside[d] > child_domain_ns_[d]) {
      handed_off += inside[d] - child_domain_ns_[d];
    }
  }
  const std::uint64_t self = duration > handed_off ? duration - handed_off : 0;
  l.self_ns[layer_].fetch_add(self, std::memory_order_relaxed);
  if (layer_ == kCheckpointLayer) {
    l.wal_in_checkpoint_ns.fetch_add(inside[kWalDomain],
                                     std::memory_order_relaxed);
  }
  if (total_ns_ != nullptr) *total_ns_ += duration;
  t_open_span = parent_;
  if (parent_ != nullptr) {
    parent_->child_ns_ += duration;
    for (unsigned d = 0; d < kDomains; ++d) {
      parent_->child_domain_ns_[d] += inside[d];
    }
  }
}

namespace {
const char* const kSyscallName[CountingFileOps::kSyscalls] = {
    "pread", "pwrite", "fsync", "fallocate"};
}  // namespace

template <class F>
auto CountingFileOps::timed(FileSyscall sc, F&& fn) {
  Ledger& l = ledger();
  Tally& tally = (l.in_checkpoint.load(std::memory_order_relaxed) ? inside_
                                                                  : outside_)
      [static_cast<std::size_t>(sc)];
  tally.calls.fetch_add(1, std::memory_order_relaxed);
  if (!l.on.load(std::memory_order_relaxed)) return fn();
  const exthash::obs::TraceSpan span(kSyscallName[static_cast<std::size_t>(sc)], cat_);
  const std::uint64_t start = nowNs();
  l.domains[domain_].enter(start);
  if (also_worker_) l.domains[kWorkerDomain].enter(start);
  const auto result = fn();
  const std::uint64_t end = nowNs();
  if (also_worker_) l.domains[kWorkerDomain].exit(end);
  l.domains[domain_].exit(end);
  tally.ns.fetch_add(end - start, std::memory_order_relaxed);
  return result;
}

ssize_t CountingFileOps::pread(int fd, void* buf, std::size_t count,
                               off_t offset) {
  return timed(FileSyscall::kPread,
               [&] { return realFileOps().pread(fd, buf, count, offset); });
}

ssize_t CountingFileOps::pwrite(int fd, const void* buf, std::size_t count,
                                off_t offset) {
  return timed(FileSyscall::kPwrite,
               [&] { return realFileOps().pwrite(fd, buf, count, offset); });
}

int CountingFileOps::fsync(int fd) {
  return timed(FileSyscall::kFsync, [&] { return realFileOps().fsync(fd); });
}

int CountingFileOps::fallocate(int fd, off_t offset, off_t len) {
  return timed(FileSyscall::kFallocate,
               [&] { return realFileOps().fallocate(fd, offset, len); });
}

std::uint64_t CountingFileOps::calls(FileSyscall sc) const noexcept {
  const auto i = static_cast<std::size_t>(sc);
  return outside_[i].calls.load(std::memory_order_relaxed) +
         inside_[i].calls.load(std::memory_order_relaxed);
}

void CountingFileOps::reset() noexcept {
  for (Tallies* tallies : {&outside_, &inside_}) {
    for (Tally& t : *tallies) {
      t.calls.store(0, std::memory_order_relaxed);
      t.ns.store(0, std::memory_order_relaxed);
    }
  }
}

template <class F>
void ProbeTable::probe(CallTally& tally, const char* name, std::size_t items,
                       F&& fn) const {
  const LayerSpan span(name, kTablesLayer, domainBit(kStorageDomain),
                       /*worker=*/true, &tally.ns);
  const exthash::extmem::IoStats before = inner_.ioStats();
  ++tally.calls;
  tally.items += items;
  try {
    fn();
  } catch (...) {
    tally.io += inner_.ioStats() - before;
    throw;
  }
  tally.io += inner_.ioStats() - before;
}

bool ProbeTable::insert(std::uint64_t key, std::uint64_t value) {
  bool fresh = false;
  probe(apply, "insert", 1, [&] { fresh = inner_.insert(key, value); });
  return fresh;
}

std::optional<std::uint64_t> ProbeTable::lookup(std::uint64_t key) {
  std::optional<std::uint64_t> result;
  probe(lookups, "lookup", 1, [&] { result = inner_.lookup(key); });
  return result;
}

bool ProbeTable::erase(std::uint64_t key) {
  bool present = false;
  probe(apply, "erase", 1, [&] { present = inner_.erase(key); });
  return present;
}

void ProbeTable::applyBatch(std::span<const exthash::tables::Op> ops) {
  probe(apply, "applyBatch", ops.size(), [&] { inner_.applyBatch(ops); });
}

void ProbeTable::lookupBatch(std::span<const std::uint64_t> keys,
                             std::span<std::optional<std::uint64_t>> out) {
  probe(lookups, "lookupBatch", keys.size(),
        [&] { inner_.lookupBatch(keys, out); });
}

void ProbeTable::flushCache() const {
  probe(flush, "flushCache", 0, [&] { inner_.flushCache(); });
}

}  // namespace perfbench
