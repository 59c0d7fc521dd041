// Thread-safe metrics registry for the whole stack: counters, gauges,
// and log-bucketed histograms with percentile estimation, exported as
// JSON or Prometheus text (summary style: quantiles + sum + count).
//
// Design constraints (see docs/OBSERVABILITY.md):
//  - The disabled path costs one relaxed atomic load + branch per event:
//    every instrumentation site is guarded by `if (metrics_enabled())`.
//  - Instruments are created once and the returned references are
//    stable for the registry's lifetime, so hot paths can cache them in
//    a function-local static and skip the name lookup afterwards.
//  - All mutation is lock-free (relaxed atomics); only instrument
//    creation and export take the registry mutex. Safe from any thread,
//    e.g. batch lanes running on util::ThreadPool.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace sssp::obs {

// Global gate. Off by default: experiments pay nothing unless a tool or
// bench opts in (e.g. via --metrics-out).
bool metrics_enabled() noexcept;
void set_metrics_enabled(bool enabled) noexcept;

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Log-bucketed histogram over non-negative values. Buckets are
// quarter-powers-of-two (4 sub-buckets per binary order of magnitude)
// covering [2^-16, 2^47); values outside clamp into the edge buckets
// and zeros go into a dedicated bucket. Percentiles are reported as the
// geometric midpoint of the bucket holding the rank, so the relative
// error is bounded by the bucket ratio 2^(1/8) - 1 ≈ 9%.
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;          // per power of two
  static constexpr int kMinExponent = -16;       // 2^-16 ≈ 1.5e-5
  static constexpr int kMaxExponent = 47;        // 2^47 ≈ 1.4e14
  static constexpr int kBuckets =
      (kMaxExponent - kMinExponent) * kSubBuckets + 1;  // +1 zero bucket

  void record(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
  }
  // p in [0, 100]. Returns 0 for an empty histogram.
  double percentile(double p) const noexcept;

  void reset() noexcept;

  // Representative value (geometric midpoint) of bucket `index`;
  // exposed for the exporter and percentile tests.
  static double bucket_value(int index) noexcept;
  static int bucket_index(double v) noexcept;
  // Exclusive upper edge of bucket `index` (the Prometheus `le` bound;
  // 0 for the zero bucket).
  static double bucket_upper_bound(int index) noexcept;
  // Raw count in bucket `index` (exporter + tests).
  std::uint64_t bucket_count(int index) const noexcept {
    return buckets_[static_cast<std::size_t>(index)].load(
        std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create; returned references remain valid for the registry's
  // lifetime (instruments are never removed, reset() only zeroes them).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  //  mean,max,p50,p90,p95,p99}}} — keys sorted (std::map),
  //  deterministic.
  std::string to_json() const;
  // Prometheus text exposition following the naming conventions:
  // families get a `sssp_` prefix, non-[a-zA-Z0-9_] chars become '_',
  // counters get a `_total` suffix (unless already present), and
  // histograms export as native Prometheus histograms — cumulative
  // `_bucket{le="..."}` lines over the non-empty log buckets plus
  // `le="+Inf"`, then `_sum` and `_count`.
  std::string to_prometheus() const;

  // Zeroes every instrument (instances stay valid).
  void reset();

  // Process-wide registry used by the library's instrumentation.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace sssp::obs
