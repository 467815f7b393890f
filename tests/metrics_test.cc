// Metrics registry: instrument semantics, snapshot shape, reference
// stability across Reset, and multi-threaded update safety (the test the
// ThreadSanitizer CI job exists for).

#include "util/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "mql/session.h"
#include "storage/database.h"

namespace mad {
namespace {

TEST(MetricsTest, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, GaugeSetsAndAdds) {
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(MetricsTest, HistogramBucketsByPowerOfTwo) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum_us(), 1006u);
  EXPECT_EQ(h.max_us(), 1000u);
  EXPECT_EQ(h.bucket(0), 1u);  // [0, 1)
  EXPECT_EQ(h.bucket(1), 1u);  // [1, 2)
  EXPECT_EQ(h.bucket(2), 2u);  // [2, 4)
  EXPECT_EQ(h.bucket(10), 1u);  // [512, 1024)
}

TEST(MetricsTest, HistogramQuantilesAreBucketUpperBounds) {
  Histogram h;
  EXPECT_EQ(h.ApproximateQuantileUs(0.5), 0u);
  for (int i = 0; i < 99; ++i) h.Observe(3);   // bucket [2, 4)
  h.Observe(5000);                             // bucket [4096, 8192)
  EXPECT_EQ(h.ApproximateQuantileUs(0.5), 3u);
  EXPECT_EQ(h.ApproximateQuantileUs(0.99), 3u);
  EXPECT_EQ(h.ApproximateQuantileUs(1.0), 8191u);
}

TEST(MetricsTest, HistogramQuantilesTakeTheNearestRank) {
  // Two observations: p99 is the 2nd (ceil(0.99 * 2)), not the 1st that
  // truncating 1.98 would pick.
  Histogram h;
  h.Observe(0);
  h.Observe(5);  // bucket [4, 8)
  EXPECT_EQ(h.ApproximateQuantileUs(0.5), 0u);
  EXPECT_EQ(h.ApproximateQuantileUs(0.99), 7u);
}

TEST(MetricsTest, RegistryReturnsStableReferences) {
  Registry registry;
  Counter& a = registry.GetCounter("stable.a");
  a.Add(5);
  // Registering more instruments must not move existing ones.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("stable.filler" + std::to_string(i));
  }
  Counter& a_again = registry.GetCounter("stable.a");
  EXPECT_EQ(&a, &a_again);
  EXPECT_EQ(a_again.value(), 5u);

  // Reset zeroes values but keeps the instruments (and references) alive.
  registry.Reset();
  EXPECT_EQ(a.value(), 0u);
  a.Increment();
  EXPECT_EQ(registry.GetCounter("stable.a").value(), 1u);
}

TEST(MetricsTest, SnapshotIsSortedAndTyped) {
  Registry registry;
  registry.GetCounter("zz.counter").Add(3);
  registry.GetGauge("aa.gauge").Set(-7);
  registry.GetHistogram("mm.hist").Observe(10);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.samples.size(), 3u);
  EXPECT_EQ(snapshot.samples[0].name, "aa.gauge");
  EXPECT_EQ(snapshot.samples[0].kind, MetricSample::Kind::kGauge);
  EXPECT_EQ(snapshot.samples[0].value, -7);
  EXPECT_EQ(snapshot.samples[1].name, "mm.hist");
  EXPECT_EQ(snapshot.samples[1].kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(snapshot.samples[1].count, 1u);
  EXPECT_EQ(snapshot.samples[2].name, "zz.counter");
  EXPECT_EQ(snapshot.samples[2].value, 3);
}

TEST(MetricsTest, ScopedTimerObservesIntoHistogram) {
  Histogram h;
  { ScopedTimer timer(h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsTest, SessionChurnReleasesItsLabeledInstruments) {
  // End-to-end flank of the churn test: mql::Session registers
  // "mql.session.<id>.*" through a scope, so opening and closing sessions
  // must not leak registry entries (this grew without bound once).
  Registry& global = Registry::Global();
  Database db("CHURN_DB");
  {
    // First session materializes the permanent process-wide aggregates
    // ("mql.statements", ...); measure the baseline after that.
    mql::Session warmup(&db);
    (void)warmup.Execute("SHOW METRICS;");
  }
  const size_t before = global.instrument_count();
  for (int i = 0; i < 100; ++i) {
    mql::Session session(&db);
    (void)session.Execute("SHOW METRICS;");
  }
  EXPECT_EQ(global.instrument_count(), before);
}

TEST(MetricsTest, ConcurrentUpdatesAreExact) {
  // Counters and histograms are written from concurrent sessions; hammer one
  // registry from several threads and require exact totals. Run under
  // -fsanitize=thread this also proves the update path is race-free.
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Half the threads race on lookup too, not just on the update.
      Counter& counter = registry.GetCounter("conc.counter");
      Histogram& hist = registry.GetHistogram("conc.hist");
      Gauge& gauge = registry.GetGauge("conc.gauge");
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        hist.Observe(static_cast<uint64_t>(i % 100));
        gauge.Set(t);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(registry.GetCounter("conc.counter").value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  Histogram& hist = registry.GetHistogram("conc.hist");
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) bucket_total += hist.bucket(i);
  EXPECT_EQ(bucket_total, hist.count());
  int64_t gauge_value = registry.GetGauge("conc.gauge").value();
  EXPECT_GE(gauge_value, 0);
  EXPECT_LT(gauge_value, kThreads);
}

}  // namespace
}  // namespace mad
