#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace sssp::util {
namespace {

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = timer.elapsed_seconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 5.0);  // sanity upper bound (slow CI tolerant)
}

TEST(WallTimer, UnitConversions) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double s = timer.elapsed_seconds();
  const double ms = timer.elapsed_millis();
  const double us = timer.elapsed_micros();
  EXPECT_NEAR(ms, s * 1e3, s * 1e3);   // same order (captured sequentially)
  EXPECT_GT(us, ms);                    // micros numerically larger
}

TEST(WallTimer, ResetRestartsClock) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // After reset() the read covers only the time since reset(): it fits
  // a steady-clock bracket around both calls, which excludes the sleep.
  // No fixed budget, so a descheduled thread cannot fail it.
  const auto before = std::chrono::steady_clock::now();
  timer.reset();
  const double elapsed = timer.elapsed_seconds();
  const std::chrono::duration<double> bracket =
      std::chrono::steady_clock::now() - before;
  EXPECT_LE(elapsed, bracket.count());
}

TEST(AccumulatingTimer, SumsIntervals) {
  AccumulatingTimer timer;
  EXPECT_DOUBLE_EQ(timer.total_seconds(), 0.0);
  EXPECT_EQ(timer.intervals(), 0u);
  for (int i = 0; i < 3; ++i) {
    timer.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    timer.stop();
  }
  EXPECT_EQ(timer.intervals(), 3u);
  EXPECT_GE(timer.total_seconds(), 0.010);
  EXPECT_NEAR(timer.mean_seconds(), timer.total_seconds() / 3.0, 1e-12);
}

}  // namespace
}  // namespace sssp::util
