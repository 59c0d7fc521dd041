// In-memory span recorder for the traced run (--trace 1).
//
// Spans are recorded by the benchmark's own code around each call into
// a library layer; they stay in memory and are written out as Chrome
// trace JSON when the run ends. All recording happens on the driving
// thread: a served query's span is recorded after its response arrived,
// from the submit and sink timestamps. Spans of one sample share the
// sample id set with set_sample().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_sample(std::uint64_t id) { sample_ = id; }

  // Opens a span nested in the innermost open one; -1 when disabled.
  int open(const char* name, const char* layer);
  void close(int index);
  // Records a finished span with explicit times, nested in the
  // innermost open span. Such spans may overlap each other (concurrent
  // queries); the trace file puts them on lanes of their own.
  void record(const char* name, const char* layer, Clock::time_point start,
              Clock::time_point end);

  std::size_t size() const { return spans_.size(); }
  // Per layer: total span time minus the time of its child spans.
  std::map<std::string, double> self_ms_by_layer() const;
  // Chrome trace event format ("X" complete events, microseconds).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    const char* layer;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    std::uint64_t sample;
    bool recorded;  // by record(): may overlap its siblings
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<int> open_;
  std::uint64_t sample_ = 0;
};

// RAII span; a no-op when `spans` is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, const char* name, const char* layer)
      : spans_(spans != nullptr && spans->enabled() ? spans : nullptr),
        index_(spans_ != nullptr ? spans_->open(name, layer) : -1) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  int index_;
};

}  // namespace perfbench
