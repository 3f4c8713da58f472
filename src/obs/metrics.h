// obs — low-overhead telemetry: counters, gauges, and log-bucketed
// latency histograms behind a process-global MetricsRegistry, with a
// Prometheus-exposition text sink and a CSV time-series sampler.
//
// Every build compiles every instrumentation site (EXTHASH_OBS_COUNT /
// _GAUGE / _TIMED below, and the span macros in obs/trace.h). One
// runtime latch, enabled(), gates them all: it starts from the
// EXTHASH_TELEMETRY environment variable and is switchable via
// setEnabled() (what the benches' --trace/--metrics flags flip). With
// the latch off a site costs one inlined relaxed load and a branch, and
// leaves no registry entry behind.
//
// The classes themselves are usable directly — tests exercise the
// percentile math and the exposition format, and an always-on consumer
// (IngestPipeline's apply-latency histogram) records through them
// directly, gated by its own runtime flag rather than the latch.
//
// Threading: Counter / Gauge / LatencyHistogram are lock-free — relaxed
// atomics on the record path, CAS-max for maxima — and safe to record
// from any number of threads. Readouts (count/sum/quantiles, dump) are
// racy-but-coherent snapshots: exact once the recorders are quiescent,
// merely approximate while they run, which is what a metrics scrape
// wants. MetricsRegistry::counter()/gauge()/histogram() take a mutex to
// find-or-create, so hot paths hoist the returned reference (the macros
// do this with a function-local static); the returned references stay
// valid for the registry's lifetime (node-stable map).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace exthash::obs {

namespace internal {
/// The latch's storage, read only through enabled(). Initialized from the
/// environment during static initialization of the library.
extern std::atomic<bool> telemetry_latch;
}  // namespace internal

/// Runtime latch for the instrumentation macros: starts from the
/// EXTHASH_TELEMETRY environment variable (anything but "" / "0" turns it
/// on), flipped at runtime by setEnabled() — e.g. by a bench's --trace
/// flag. Inline and one relaxed atomic load, so an off site stays free.
inline bool enabled() noexcept {
  return internal::telemetry_latch.load(std::memory_order_relaxed);
}
void setEnabled(bool on) noexcept;

/// Monotone event counter (Prometheus "counter").
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value (Prometheus "gauge"). Doubles, so it can carry
/// fractional figures like ARC's adaptive target or a per-side utility.
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// HDR-style log-bucketed histogram over unsigned 64-bit samples
/// (nanoseconds on the latency paths): 4 sub-buckets per octave in a
/// fixed 256-slot array, covering the full uint64 range with <= 25%
/// relative bucket width. Recording is one relaxed fetch_add plus a
/// CAS-max; no allocation, ever.
class LatencyHistogram {
 public:
  static constexpr std::size_t kSubBucketBits = 2;  // 4 sub-buckets/octave
  static constexpr std::size_t kSubBuckets = 1u << kSubBucketBits;
  static constexpr std::size_t kBuckets = 256;  // covers 2^64 with room

  void record(std::uint64_t value) noexcept {
    counts_[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Value at quantile q in [0, 1]: the upper edge of the bucket holding
  /// the ceil(q * count)-th smallest sample — an overestimate by at most
  /// the bucket width (<= 25% relative). 0 when empty.
  std::uint64_t valueAtQuantile(double q) const noexcept;

  /// Zero every bucket. NOT linearizable against concurrent record()s —
  /// call at quiescent points only (phase boundaries in benches).
  void reset() noexcept;

  /// Bucket for `value`: identity below kSubBuckets, then
  /// (octave, sub-bucket) from the top kSubBucketBits+1 significant bits.
  static constexpr std::size_t bucketIndex(std::uint64_t value) noexcept {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const int exp = std::bit_width(value) - 1;  // >= kSubBucketBits
    const std::size_t sub = static_cast<std::size_t>(
        (value >> (exp - kSubBucketBits)) & (kSubBuckets - 1));
    return (static_cast<std::size_t>(exp - kSubBucketBits)
            << kSubBucketBits) +
           kSubBuckets + sub;
  }

  /// Largest value mapping to bucket `index` (inclusive).
  static constexpr std::uint64_t bucketUpperBound(
      std::size_t index) noexcept {
    if (index < kSubBuckets) return index;
    const std::size_t exp = ((index - kSubBuckets) >> kSubBucketBits) +
                            kSubBucketBits;
    const std::uint64_t sub = (index - kSubBuckets) & (kSubBuckets - 1);
    return ((kSubBuckets + sub + 1) << (exp - kSubBucketBits)) - 1;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// RAII latency sample: records elapsed nanoseconds into `hist` at scope
/// exit. Pass nullptr to disarm (the runtime-disabled case) — then
/// neither end reads the clock, and the inlined null checks are all the
/// timer costs.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(LatencyHistogram* hist) noexcept
      : hist_(hist), start_ns_(hist != nullptr ? nowNs() : 0) {}
  ~ScopedLatencyTimer() {
    if (hist_ != nullptr) hist_->record(nowNs() - start_ns_);
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  static std::uint64_t nowNs() noexcept;  // steady clock

  LatencyHistogram* hist_;
  std::uint64_t start_ns_;
};

/// Named metrics, find-or-create. Metric names follow the scheme
/// exthash_<component>_<name>, with Prometheus labels embedded verbatim
/// — e.g. exthash_shard_ops_total{shard="3"} — so one logical family can
/// carry per-shard series; the exposition writer groups a family's
/// # TYPE line by the name before '{'.
class MetricsRegistry {
 public:
  /// The process-wide registry the instrumentation macros record into.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  bool has(const std::string& name) const;

  /// Prometheus text exposition: counters and gauges as-is, histograms as
  /// summaries with quantile="0.5|0.9|0.99|0.999" series plus _sum,
  /// _count, and _max.
  void dump(std::ostream& os) const;

  /// One CSV time-series sample: writeCsvHeader emits
  /// "label,<metric>,<metric>,..." over every metric currently
  /// registered (histograms contribute <name>_p99 and <name>_count);
  /// writeCsvRow emits the matching value row. Benches call this between
  /// phases for a cheap longitudinal view.
  void writeCsvHeader(std::ostream& os) const;
  void writeCsvRow(std::ostream& os, std::string_view label) const;

  /// Zero every registered metric (names stay registered). Quiescent
  /// points only, like LatencyHistogram::reset.
  void resetAll();

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  mutable std::mutex mutex_;
  // std::map: node-stable AND deterministically ordered output.
  std::map<std::string, Entry> metrics_;
};

/// Dump the global registry (the Prometheus snapshot sink).
void dumpMetrics(std::ostream& os);

}  // namespace exthash::obs

// ---------------------------------------------------------------------------
// Instrumentation macros — gated on obs::enabled(). The metric name must
// be a string literal (it seeds a function-local static lookup, so the
// registry mutex is paid once per site, not per event, and only once the
// latch has been on at that site).
// ---------------------------------------------------------------------------
#define EXTHASH_OBS_COUNT(name_literal, delta)                               \
  do {                                                                       \
    if (::exthash::obs::enabled()) {                                         \
      static ::exthash::obs::Counter& exthash_obs_counter_ =                 \
          ::exthash::obs::MetricsRegistry::global().counter(name_literal);   \
      exthash_obs_counter_.inc(delta);                                       \
    }                                                                        \
  } while (0)

#define EXTHASH_OBS_GAUGE(name_literal, value)                               \
  do {                                                                       \
    if (::exthash::obs::enabled()) {                                         \
      static ::exthash::obs::Gauge& exthash_obs_gauge_ =                     \
          ::exthash::obs::MetricsRegistry::global().gauge(name_literal);     \
      exthash_obs_gauge_.set(static_cast<double>(value));                    \
    }                                                                        \
  } while (0)

/// Time the rest of the enclosing scope into histogram `name_literal`.
/// Declares a local; use once per scope.
#define EXTHASH_OBS_TIMED(name_literal)                                      \
  ::exthash::obs::ScopedLatencyTimer exthash_obs_timer_(                     \
      ::exthash::obs::enabled()                                              \
          ? [] {                                                             \
              static ::exthash::obs::LatencyHistogram& hist =                \
                  ::exthash::obs::MetricsRegistry::global().histogram(       \
                      name_literal);                                         \
              return &hist;                                                  \
            }()                                                              \
          : nullptr)
