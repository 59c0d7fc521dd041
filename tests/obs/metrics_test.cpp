#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/thread_pool.hpp"

namespace sssp::obs {
namespace {

// Log-bucketed histograms quantize to quarter-powers-of-two; the
// geometric bucket midpoint is at most a factor of 2^(1/8) ~ 1.09 off
// the true value. Tests allow 10% to leave headroom for the midpoint
// rounding.
constexpr double kRelTol = 0.10;

void expect_near_rel(double actual, double expected) {
  EXPECT_NEAR(actual, expected, std::abs(expected) * kRelTol)
      << "expected ~" << expected << ", got " << actual;
}

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add();
  EXPECT_EQ(c.value(), 4u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetOverwrites) {
  Gauge g;
  g.set(2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, EmptyPercentilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleValuePercentiles) {
  Histogram h;
  h.record(1000.0);
  expect_near_rel(h.percentile(50), 1000.0);
  expect_near_rel(h.percentile(99), 1000.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 1000.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(Histogram, UniformRangePercentiles) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.record(static_cast<double>(v));
  expect_near_rel(h.percentile(50), 500.0);
  expect_near_rel(h.percentile(95), 950.0);
  expect_near_rel(h.percentile(99), 990.0);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), 1000.0 * 1001.0 / 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(Histogram, SkewedDistribution) {
  // 99 fast events and 1 slow one: p50 tracks the bulk, the extreme
  // tail tracks the outlier.
  Histogram h;
  for (int i = 0; i < 99; ++i) h.record(1.0);
  h.record(1e6);
  expect_near_rel(h.percentile(50), 1.0);
  expect_near_rel(h.percentile(99.9), 1e6);
}

TEST(Histogram, ZeroAndNegativeGoToUnderflowBucket) {
  Histogram h;
  h.record(0.0);
  h.record(-5.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, TinyAndHugeValuesClampWithoutCrashing) {
  Histogram h;
  h.record(1e-30);  // below bucket range -> clamped to smallest bucket
  h.record(1e30);   // above bucket range -> clamped to largest bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.percentile(99), 1e10);
  EXPECT_GT(h.percentile(1), 0.0);
}

TEST(Histogram, BucketIndexRoundTripsWithinTolerance) {
  for (double v : {1.5e-4, 0.02, 1.0, 3.7, 1024.0, 9.9e9}) {
    const int index = Histogram::bucket_index(v);
    const double mid = Histogram::bucket_value(index);
    EXPECT_NEAR(mid, v, v * kRelTol) << "v=" << v << " index=" << index;
  }
}

TEST(MetricsRegistry, FindOrCreateReturnsStableRefs) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  // Creating more instruments must not invalidate earlier refs
  // (engine code caches them in function-local statics).
  for (int i = 0; i < 100; ++i)
    registry.counter(std::string("c").append(std::to_string(i)));
  a.add(7);
  EXPECT_EQ(registry.counter("x").value(), 7u);
}

TEST(MetricsRegistry, ResetZeroesButKeepsInstruments) {
  MetricsRegistry registry;
  Counter& c = registry.counter("n");
  Histogram& h = registry.histogram("t");
  c.add(5);
  h.record(3.0);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(&registry.counter("n"), &c);
}

TEST(MetricsRegistry, ConcurrentIncrementsUnderThreadPool) {
  MetricsRegistry registry;
  Counter& c = registry.counter("hits");
  Histogram& h = registry.histogram("latency");
  constexpr std::size_t kItems = 100000;
  util::ThreadPool pool(8);
  pool.for_each_chunk(kItems, [&](std::size_t i, std::size_t) {
    c.add(1);
    h.record(static_cast<double>(i % 1000) + 1.0);
  });
  EXPECT_EQ(c.value(), kItems);
  EXPECT_EQ(h.count(), kItems);
}

TEST(MetricsRegistry, ConcurrentFindOrCreateIsSafe) {
  MetricsRegistry registry;
  util::ThreadPool pool(8);
  pool.for_each_chunk(1000, [&](std::size_t i, std::size_t) {
    registry.counter("shared").add(1);
    registry.counter(std::string("k").append(std::to_string(i % 16))).add(1);
  });
  EXPECT_EQ(registry.counter("shared").value(), 1000u);
}

TEST(MetricsGate, TogglesAndRestores) {
  // The gate is process-global; tests must leave it as found.
  const bool was = metrics_enabled();
  set_metrics_enabled(true);
  EXPECT_TRUE(metrics_enabled());
  set_metrics_enabled(false);
  EXPECT_FALSE(metrics_enabled());
  set_metrics_enabled(was);
}

}  // namespace
}  // namespace sssp::obs
