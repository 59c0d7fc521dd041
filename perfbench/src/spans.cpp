#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

int Spans::open(const char* name, const char* layer) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, layer, now, now, parent, sample_, false});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Spans::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Spans::record(const char* name, const char* layer,
                   Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  spans_.push_back({name, layer, start, end,
                    open_.empty() ? -1 : open_.back(), sample_, true});
}

std::map<std::string, double> Spans::self_ms_by_layer() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Record& r : spans_)
    if (r.parent >= 0)
      child_ms[static_cast<std::size_t>(r.parent)] += ms_between(r.start, r.end);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].layer] +=
        ms_between(spans_[i].start, spans_[i].end) - child_ms[i];
  return self;
}

void Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\"traceEvents\":[";
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  // Recorded spans go on the first lane (tid 2, 3, ...) free at their
  // start, so overlapping queries do not overlap within one tid.
  std::vector<Clock::time_point> lane_end;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::size_t tid = 1;
    if (r.recorded) {
      std::size_t lane = 0;
      while (lane < lane_end.size() && lane_end[lane] > r.start) ++lane;
      if (lane == lane_end.size()) lane_end.push_back(r.end);
      lane_end[lane] = r.end;
      tid = 2 + lane;
    }
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << r.name
        << "\",\"cat\":\"" << r.layer << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":" << tid << ",\"ts\":" << us(r.start)
        << ",\"dur\":" << us(r.end) - us(r.start)
        << ",\"args\":{\"sample\":" << r.sample << ",\"span\":" << i
        << ",\"parent\":" << r.parent << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
