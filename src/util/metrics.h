#ifndef MAD_UTIL_METRICS_H_
#define MAD_UTIL_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.h"

namespace mad {

/// Process-wide metrics: named counters, gauges, and latency histograms.
///
/// Design goals, in order:
///   1. the *update* path is lock-free (a relaxed atomic add) so hot loops
///      and concurrent sessions can bump counters without contention;
///   2. instrument addresses are stable for the lifetime of the process, so
///      call sites may cache `static Counter& c = Registry::Global()...`
///      and skip the name lookup entirely after the first call;
///   3. snapshots are consistent enough for reporting (each value is read
///      atomically; cross-metric skew is acceptable).
///
/// Lookup (`GetCounter` etc.) takes a mutex over a std::map whose nodes never
/// move and are never erased — `Reset()` zeroes values but keeps every
/// registered instrument alive, precisely so cached references stay valid.
/// Because nothing is ever erased, instrument names are fixed strings: a
/// name built from a session or connection id would stay registered forever.

/// Monotonic event count (rows scanned, fsyncs issued, ...).
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written level (open databases, open connections, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Latency distribution over fixed power-of-two microsecond buckets:
/// bucket i counts observations with value_us in [2^(i-1), 2^i), bucket 0
/// counts [0, 1). 32 buckets cover up to ~35 minutes; the last bucket is a
/// catch-all. Also tracks count/sum/max for mean and tail reporting.
class Histogram {
 public:
  static constexpr size_t kBuckets = 32;

  void Observe(uint64_t value_us);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_us() const { return sum_us_.load(std::memory_order_relaxed); }
  uint64_t max_us() const { return max_us_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

  /// Smallest upper bound `b` such that at least `quantile` (in [0,1]) of
  /// the recorded observations fall in buckets whose range ends at or below
  /// 2^b microseconds. Returns 0 when empty.
  uint64_t ApproximateQuantileUs(double quantile) const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
  std::atomic<uint64_t> max_us_{0};
};

/// One metric row in a snapshot, already stringly-typed for reporting.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  // Counter/gauge: `value`. Histogram: count/sum/max/p50/p99 in microseconds.
  int64_t value = 0;
  uint64_t count = 0;
  uint64_t sum_us = 0;
  uint64_t max_us = 0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
};

/// All instruments at one point in time, sorted by (kind-independent) name.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;
};

class Registry {
 public:
  /// The process-wide registry used by all madlib instrumentation.
  static Registry& Global();

  /// Returns the instrument registered under `name`, creating it on first
  /// use. References to instruments created this way stay valid for the
  /// registry's lifetime; names are namespaced with dots, e.g.
  /// "derivation.links_scanned".
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Zeroes every instrument's value. Registered instruments stay alive so
  /// references cached by call sites remain valid.
  void Reset();

  MetricsSnapshot Snapshot() const;

  /// Number of registered instruments; the churn regression tests pin this
  /// down.
  size_t instrument_count() const;

 private:
  template <typename T>
  T& GetLocked(std::map<std::string, std::unique_ptr<T>>& instruments,
               const std::string& name) MAD_REQUIRES(mu_);

  /// Registration mutex: guards only the instrument *maps*, never the hot
  /// update path — instruments themselves are atomics. Leaf lock: nothing
  /// else is acquired while it is held.
  mutable Mutex mu_;
  // std::map + unique_ptr values: instrument addresses never move on insert
  // and no entry is ever erased.
  std::map<std::string, std::unique_ptr<Counter>> counters_ MAD_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ MAD_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      MAD_GUARDED_BY(mu_);
};

/// RAII timer recording its scope's wall time, in microseconds, as one
/// observation of a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist)
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    hist_->Observe(static_cast<uint64_t>(us));
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mad

#endif  // MAD_UTIL_METRICS_H_
