#include "fault/failpoint.hpp"

#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace sssp::fault {

namespace {

std::atomic<bool> g_faults_enabled{false};

// Uniform double in [0, 1) from one SplitMix64 step.
double to_unit_double(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

bool faults_enabled() noexcept {
  return g_faults_enabled.load(std::memory_order_relaxed);
}

void detail::set_faults_enabled(bool enabled) noexcept {
  g_faults_enabled.store(enabled, std::memory_order_relaxed);
}

void Failpoint::arm(Mode mode, double probability, std::uint64_t period,
                    std::uint64_t seed) {
  if (mode == Mode::kProbability &&
      !(probability >= 0.0 && probability <= 1.0))
    throw std::invalid_argument("Failpoint: probability must be in [0, 1]");
  if (mode == Mode::kEveryNth && period == 0)
    throw std::invalid_argument("Failpoint: period must be >= 1");
  {
    std::lock_guard<std::mutex> lock(mu_);
    probability_ = probability;
    period_ = period;
    rng_state_ = seed;
  }
  // A fresh schedule counts from zero: `name=N` fires on the N-th hit
  // after this call, however often the site was hit before.
  hits_.store(0, std::memory_order_relaxed);
  fires_.store(0, std::memory_order_relaxed);
  mode_.store(mode, std::memory_order_relaxed);
}

void Failpoint::disarm() {
  mode_.store(Mode::kDisarmed, std::memory_order_relaxed);
}

FailpointRuntime Failpoint::runtime() const {
  FailpointRuntime runtime;
  runtime.name = name_;
  runtime.mode = static_cast<std::uint8_t>(mode());
  runtime.hits = hits();
  runtime.fires = fires();
  {
    std::lock_guard<std::mutex> lock(mu_);
    runtime.rng_state = rng_state_;
  }
  return runtime;
}

void Failpoint::restore_runtime(const FailpointRuntime& runtime) {
  hits_.store(runtime.hits, std::memory_order_relaxed);
  fires_.store(runtime.fires, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  rng_state_ = runtime.rng_state;
}

bool Failpoint::evaluate() noexcept {
  const std::uint64_t hit = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  switch (mode_.load(std::memory_order_relaxed)) {
    case Mode::kDisarmed:
      return false;
    case Mode::kAlways:
      fire = true;
      break;
    case Mode::kProbability: {
      std::lock_guard<std::mutex> lock(mu_);
      util::SplitMix64 sm(rng_state_);
      const std::uint64_t bits = sm.next();
      rng_state_ = bits;  // advance the stream deterministically
      fire = to_unit_double(bits) < probability_;
      break;
    }
    case Mode::kEveryNth:
      fire = hit % period_ == 0;
      break;
  }
  if (fire) {
    fires_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metrics_enabled()) {
      obs::MetricsRegistry::global().counter("fault.fires").add();
      obs::MetricsRegistry::global().counter("fault.fires." + name_).add();
    }
    if (obs::trace_enabled()) {
      obs::Tracer& tracer = obs::Tracer::global();
      tracer.instant("failpoint_fired", tracer.now_us());
    }
    SSSP_LOG(kDebug) << "failpoint fired: " << name_;
  }
  return fire;
}

Failpoint& FailpointRegistry::failpoint(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) {
    it = points_
             .emplace(std::string(name),
                      std::make_unique<Failpoint>(std::string(name)))
             .first;
  }
  return *it->second;
}

void FailpointRegistry::arm(std::string_view spec) {
  if (spec.empty())
    throw std::invalid_argument("failpoint spec: empty");

  std::string_view name = spec;
  std::string_view value;
  if (const auto eq = spec.find('='); eq != std::string_view::npos) {
    name = spec.substr(0, eq);
    value = spec.substr(eq + 1);
    if (value.empty())
      throw std::invalid_argument("failpoint spec: empty value in '" +
                                  std::string(spec) + "'");
  }
  if (name.empty())
    throw std::invalid_argument("failpoint spec: missing name in '" +
                                std::string(spec) + "'");

  std::uint64_t seed = 0;
  if (const auto comma = value.find(','); comma != std::string_view::npos) {
    const std::string seed_text(value.substr(comma + 1));
    value = value.substr(0, comma);
    try {
      std::size_t used = 0;
      seed = std::stoull(seed_text, &used);
      if (used != seed_text.size()) throw std::invalid_argument(seed_text);
    } catch (const std::exception&) {
      throw std::invalid_argument("failpoint spec: bad seed in '" +
                                  std::string(spec) + "'");
    }
  }

  Failpoint& fp = failpoint(name);
  if (value.empty()) {
    fp.arm(Failpoint::Mode::kAlways);
  } else if (value.find('.') != std::string_view::npos) {
    double probability = 0.0;
    try {
      std::size_t used = 0;
      probability = std::stod(std::string(value), &used);
      if (used != value.size()) throw std::invalid_argument(std::string(value));
    } catch (const std::exception&) {
      throw std::invalid_argument("failpoint spec: bad probability in '" +
                                  std::string(spec) + "'");
    }
    fp.arm(Failpoint::Mode::kProbability, probability, 1, seed);
  } else {
    std::uint64_t period = 0;
    try {
      std::size_t used = 0;
      period = std::stoull(std::string(value), &used);
      if (used != value.size()) throw std::invalid_argument(std::string(value));
    } catch (const std::exception&) {
      throw std::invalid_argument("failpoint spec: bad period in '" +
                                  std::string(spec) + "'");
    }
    fp.arm(Failpoint::Mode::kEveryNth, 1.0, period, seed);
  }
  detail::set_faults_enabled(true);
  SSSP_LOG(kInfo) << "failpoint armed: " << spec;
}

void FailpointRegistry::arm_list(std::string_view specs) {
  std::size_t start = 0;
  while (start <= specs.size()) {
    std::size_t end = specs.find(';', start);
    if (end == std::string_view::npos) end = specs.size();
    const std::string_view spec = specs.substr(start, end - start);
    if (!spec.empty()) arm(spec);
    start = end + 1;
  }
}

void FailpointRegistry::arm_from_env() {
  if (const char* env = std::getenv("SSSP_FAILPOINT");
      env != nullptr && *env != '\0')
    arm_list(env);
}

void FailpointRegistry::disarm_all() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, fp] : points_) fp->disarm();
  }
  detail::set_faults_enabled(false);
}

std::vector<FailpointStatus> FailpointRegistry::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FailpointStatus> out;
  out.reserve(points_.size());
  for (const auto& [name, fp] : points_)
    out.push_back({name, fp->mode(), fp->hits(), fp->fires()});
  return out;
}

std::vector<FailpointRuntime> FailpointRegistry::capture_runtime() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FailpointRuntime> out;
  for (const auto& [name, fp] : points_)
    if (fp->mode() != Failpoint::Mode::kDisarmed) out.push_back(fp->runtime());
  return out;
}

void FailpointRegistry::restore_runtime(
    const std::vector<FailpointRuntime>& runtimes) {
  for (const FailpointRuntime& runtime : runtimes)
    failpoint(runtime.name).restore_runtime(runtime);
}

std::uint64_t FailpointRegistry::total_fires() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [name, fp] : points_) total += fp->fires();
  return total;
}

FailpointRegistry& FailpointRegistry::global() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

}  // namespace sssp::fault
