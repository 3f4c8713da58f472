// Boundary probes: how the benchmark measures each layer from outside the
// library, at the layer's public seams.
//
//   ProbeTable      — a forwarding ExternalHashTable handed to the
//                     IngestPipeline (or driven by the client directly). It
//                     diffs ioStats() around every applyBatch / lookupBatch
//                     / flushCache, which splits counted I/O into insert and
//                     lookup cost, and opens a `tables` span around each.
//   CountingFileOps — a FileOps installed through StorageOptions::file_ops
//                     that counts (always) and times (traced runs) every
//                     syscall of the devices it serves.
//   LayerSpan       — an obs::TraceSpan plus exact self-time accounting.
//
// Counts are kept in every run. Clocks and spans run only while the
// ledger is on, which happens only in the traced run.
//
// Self time. The obs trace buffers are bounded, so self time is not
// recomputed from the written trace; it is accumulated as the spans close.
// A span's self time is its duration minus (a) the durations of spans
// nested in it on the same thread and (b) the busy time of the activity
// domains it hands work to on other threads, over its interval. Domain
// busy time is the union of the domain's intervals across all threads
// (Coverage), so two shard threads in parallel count once:
//   storage — syscalls of the table devices (shard threads, or the worker
//             during a checkpoint);
//   wal     — syscalls of the WAL and manifest devices;
//   worker  — the pipeline worker inside any seam (tables, checkpoint,
//             WAL syscalls): what a waiting client waits for.
// The syscall layers (extmem.storage, durability.wal) are leaves; their
// self time is their domain's busy time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>

#include "extmem/file_ops.h"
#include "obs/trace.h"
#include "tables/hash_table.h"

namespace perfbench {

std::uint64_t nowNs() noexcept;

/// Busy time of one activity domain as the union of its intervals, fed
/// from any thread.
class Coverage {
 public:
  void enter(std::uint64_t t);
  void exit(std::uint64_t t);
  /// Busy time accumulated up to time t (t >= every enter/exit so far).
  std::uint64_t at(std::uint64_t t) const;

 private:
  mutable std::mutex mutex_;
  int active_ = 0;
  std::uint64_t since_ = 0;
  std::uint64_t covered_ = 0;
};

enum Domain : unsigned { kStorageDomain, kWalDomain, kWorkerDomain, kDomains };
constexpr unsigned domainBit(Domain d) { return 1u << d; }

/// Layers whose self time is accumulated span by span.
enum SpanLayer : unsigned {
  kPipelineSubmitLayer,
  kPipelineLookupLayer,
  kTablesLayer,
  kCheckpointLayer,
  kSpanLayers
};

struct Ledger {
  /// Clocks and spans run only while on (the traced run's timed phase).
  std::atomic<bool> on{false};
  std::array<Coverage, kDomains> domains;
  std::array<std::atomic<std::uint64_t>, kSpanLayers> self_ns{};
  /// WAL-device busy time inside checkpoints: the manifest commit, which
  /// belongs to durability.checkpoint rather than durability.wal.
  std::atomic<std::uint64_t> wal_in_checkpoint_ns{0};
  /// Set by the worker while a checkpoint runs (no shard task runs then),
  /// so syscall tallies can tell the manifest from the WAL.
  std::atomic<bool> in_checkpoint{false};
};

Ledger& ledger();

/// A span at a layer boundary (see the file comment for self time).
/// Nests on its thread; not copyable or movable (the thread-local stack
/// holds its address).
class LayerSpan {
 public:
  /// `subtract` is a mask of domainBit()s handed work to on other
  /// threads; `worker` marks the span itself as worker-domain activity.
  /// `total_ns`, if set, receives the span's duration.
  LayerSpan(const char* name, SpanLayer layer, unsigned subtract,
            bool worker, std::uint64_t* total_ns = nullptr) noexcept;
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

  /// Widen the subtracted domains after the fact (a submit that turned
  /// out to block on backpressure waited for the worker).
  void alsoSubtract(unsigned mask) noexcept { subtract_ |= mask; }

 private:
  std::optional<exthash::obs::TraceSpan> trace_;  // only while active
  bool active_;
  SpanLayer layer_;
  unsigned subtract_;
  bool worker_;
  std::uint64_t* total_ns_;
  LayerSpan* parent_ = nullptr;
  std::uint64_t start_ = 0;
  std::array<std::uint64_t, kDomains> domain_start_{};
  std::uint64_t child_ns_ = 0;
  std::array<std::uint64_t, kDomains> child_domain_ns_{};
};

/// FileOps over the real syscalls that counts every call and, while the
/// ledger is on, times it into its domain and emits a span.
class CountingFileOps final : public exthash::extmem::FileOps {
 public:
  struct Tally {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
  };
  static constexpr std::size_t kSyscalls = 4;  // extmem::FileSyscall
  using Tallies = std::array<Tally, kSyscalls>;

  /// `cat` names the layer in the trace; `also_worker` counts the calls
  /// as pipeline-worker activity too (the WAL is appended by the worker).
  CountingFileOps(const char* cat, Domain domain, bool also_worker)
      : cat_(cat), domain_(domain), also_worker_(also_worker) {}

  ssize_t pread(int fd, void* buf, std::size_t count, off_t offset) override;
  ssize_t pwrite(int fd, const void* buf, std::size_t count,
                 off_t offset) override;
  int fsync(int fd) override;
  int fallocate(int fd, off_t offset, off_t len) override;

  /// Calls outside / inside a checkpoint.
  const Tallies& outside() const noexcept { return outside_; }
  const Tallies& inside() const noexcept { return inside_; }
  std::uint64_t calls(exthash::extmem::FileSyscall sc) const noexcept;
  void reset() noexcept;

 private:
  template <class F>
  auto timed(exthash::extmem::FileSyscall sc, F&& fn);

  const char* cat_;
  Domain domain_;
  bool also_worker_;
  Tallies outside_;
  Tallies inside_;
};

/// Counted I/O, calls, items and (traced) time of one kind of table call.
struct CallTally {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::uint64_t ns = 0;
  exthash::extmem::IoStats io;
};

/// Forwarding table: the probe the pipeline (or the client) drives. Only
/// one thread uses it at a time, as for every table; tallies are read at
/// quiescent points.
class ProbeTable final : public exthash::tables::ExternalHashTable {
 public:
  explicit ProbeTable(exthash::tables::ExternalHashTable& inner)
      : ExternalHashTable(inner.context()), inner_(inner) {}

  bool insert(std::uint64_t key, std::uint64_t value) override;
  std::optional<std::uint64_t> lookup(std::uint64_t key) override;
  bool erase(std::uint64_t key) override;
  void applyBatch(std::span<const exthash::tables::Op> ops) override;
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  void flushCache() const override;

  std::size_t size() const override { return inner_.size(); }
  std::string_view name() const override { return inner_.name(); }
  void visitLayout(exthash::tables::LayoutVisitor& v) const override {
    inner_.visitLayout(v);
  }
  std::optional<exthash::extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const override {
    return inner_.primaryBlockOf(key);
  }
  std::string debugString() const override { return inner_.debugString(); }
  exthash::extmem::IoStats ioStats() const override {
    return inner_.ioStats();
  }
  void validateLayout(exthash::AuditReport& report) const override {
    inner_.validateLayout(report);
  }
  std::vector<std::uint64_t> serializeMeta() const override {
    return inner_.serializeMeta();
  }
  void restoreMeta(std::span<const std::uint64_t> words) override {
    inner_.restoreMeta(words);
  }
  std::size_t durableDeviceCount() const override {
    return inner_.durableDeviceCount();
  }
  exthash::extmem::BlockDevice& durableDevice(std::size_t i) override {
    return inner_.durableDevice(i);
  }
  void invalidateCaches() override { inner_.invalidateCaches(); }

  /// Insert side (applyBatch, insert, erase), lookup side, flushes.
  CallTally apply;
  CallTally lookups;
  mutable CallTally flush;
  void reset() { apply = lookups = flush = CallTally{}; }

 private:
  template <class F>
  void probe(CallTally& tally, const char* name, std::size_t items,
             F&& fn) const;

  exthash::tables::ExternalHashTable& inner_;
};

}  // namespace perfbench
