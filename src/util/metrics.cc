#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace mad {

namespace {

// Bucket index for a microsecond value: 0 for 0, else 1 + floor(log2(v)),
// clamped to the last bucket.
size_t BucketIndex(uint64_t value_us) {
  if (value_us == 0) return 0;
  size_t idx = 64 - static_cast<size_t>(std::countl_zero(value_us));
  return std::min(idx, Histogram::kBuckets - 1);
}

}  // namespace

void Histogram::Observe(uint64_t value_us) {
  buckets_[BucketIndex(value_us)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(value_us, std::memory_order_relaxed);
  uint64_t seen = max_us_.load(std::memory_order_relaxed);
  while (value_us > seen &&
         !max_us_.compare_exchange_weak(seen, value_us,
                                        std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
  max_us_.store(0, std::memory_order_relaxed);
}

uint64_t Histogram::ApproximateQuantileUs(double quantile) const {
  uint64_t total = count();
  if (total == 0) return 0;
  // Nearest rank: the smallest rank covering `quantile` of the observations.
  uint64_t target =
      static_cast<uint64_t>(std::ceil(quantile * static_cast<double>(total)));
  if (target < 1) target = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cumulative += bucket(i);
    if (cumulative >= target) {
      // Upper bound of bucket i: 2^(i-1)..2^i-1 rounds up to 2^i - 1; bucket
      // 0 holds only the value 0.
      return i == 0 ? 0 : (uint64_t{1} << i) - 1;
    }
  }
  return max_us();
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

template <typename T>
T& Registry::GetLocked(std::map<std::string, std::unique_ptr<T>>& instruments,
                       const std::string& name) {
  std::unique_ptr<T>& instrument = instruments[name];
  if (instrument == nullptr) instrument = std::make_unique<T>();
  return *instrument;
}

Counter& Registry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  return GetLocked(counters_, name);
}

Gauge& Registry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  return GetLocked(gauges_, name);
}

Histogram& Registry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  return GetLocked(histograms_, name);
}

void Registry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

size_t Registry::instrument_count() const {
  MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(mu_);
  snapshot.samples.reserve(counters_.size() + gauges_.size() +
                           histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kCounter;
    s.name = name;
    s.value = static_cast<int64_t>(c->value());
    snapshot.samples.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kGauge;
    s.name = name;
    s.value = g->value();
    snapshot.samples.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kHistogram;
    s.name = name;
    s.count = h->count();
    s.sum_us = h->sum_us();
    s.max_us = h->max_us();
    s.p50_us = h->ApproximateQuantileUs(0.5);
    s.p99_us = h->ApproximateQuantileUs(0.99);
    snapshot.samples.push_back(std::move(s));
  }
  std::sort(snapshot.samples.begin(), snapshot.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return snapshot;
}

}  // namespace mad
