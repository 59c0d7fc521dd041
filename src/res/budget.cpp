#include "res/budget.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "fault/failpoint.hpp"
#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"

namespace sssp::res {
namespace {

void bump(const char* name) {
  if (obs::metrics_enabled())
    obs::MetricsRegistry::global().counter(name).add(1);
}

// Runtime-named failpoint check (the SSSP_FAILPOINT macro wants a
// literal; charge sites arrive as strings). Same fast path: one
// relaxed load when faults are globally off.
bool site_fires(const char* site) noexcept {
  if (!fault::faults_enabled()) return false;
  if (fault::FailpointRegistry::global().failpoint(site).should_fire())
    return true;
  return fault::FailpointRegistry::global()
      .failpoint("res.alloc.fail")
      .should_fire();
}

std::string format_error(ResourceKind kind, const std::string& site,
                         std::uint64_t requested, std::uint64_t available) {
  std::ostringstream out;
  out << "resource budget exceeded at " << site << ": requested " << requested
      << " " << to_string(kind) << ", available " << available;
  return out.str();
}

util::WriteFault io_failpoint_hook() noexcept {
  util::WriteFault fault;
  if (SSSP_FAILPOINT("io.write.enospc")) fault.error = ENOSPC;
  if (SSSP_FAILPOINT("io.write.short")) fault.short_write = true;
  return fault;
}

std::uint64_t env_mb(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') return 0;
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace

const char* to_string(ResourceKind kind) noexcept {
  switch (kind) {
    case ResourceKind::kMemory:
      return "memory bytes";
    case ResourceKind::kScratch:
      return "scratch bytes";
  }
  return "resource";
}

ResourceError::ResourceError(ResourceKind kind, std::string site,
                             std::uint64_t requested, std::uint64_t available)
    : std::runtime_error(format_error(kind, site, requested, available)),
      kind_(kind),
      site_(std::move(site)),
      requested_(requested),
      available_(available) {}

struct ResourceBudget::State {
  std::atomic<std::uint64_t> memory_limit{kUnlimited};
  std::atomic<std::uint64_t> scratch_limit{kUnlimited};
  std::atomic<std::uint64_t> scratch_used{0};
  std::atomic<std::uint64_t> rejections{0};
};

ResourceBudget::State& ResourceBudget::state() const noexcept {
  static State instance;
  return instance;
}

ResourceBudget& ResourceBudget::global() {
  static ResourceBudget instance;
  return instance;
}

void ResourceBudget::set_memory_limit(std::uint64_t bytes) noexcept {
  state().memory_limit.store(bytes, std::memory_order_relaxed);
}

std::uint64_t ResourceBudget::memory_limit() const noexcept {
  return state().memory_limit.load(std::memory_order_relaxed);
}

bool ResourceBudget::injected_or_over(std::uint64_t bytes, const char* site,
                                      std::uint64_t limit,
                                      std::uint64_t used) noexcept {
  if (site_fires(site)) return true;
  if (limit == kUnlimited) return false;
  return bytes > limit || used > limit - bytes;
}

bool ResourceBudget::check_memory(std::uint64_t bytes,
                                  const char* site) noexcept {
  if (!injected_or_over(bytes, site, memory_limit(), 0)) return true;
  state().rejections.fetch_add(1, std::memory_order_relaxed);
  bump("res.reject.memory");
  return false;
}

void ResourceBudget::require_memory(std::uint64_t bytes, const char* site) {
  if (check_memory(bytes, site)) return;
  const std::uint64_t limit = memory_limit();
  throw ResourceError(ResourceKind::kMemory, site, bytes,
                      limit == kUnlimited
                          ? std::numeric_limits<std::uint64_t>::max()
                          : limit);
}

void ResourceBudget::set_scratch_limit(std::uint64_t bytes) noexcept {
  state().scratch_limit.store(bytes, std::memory_order_relaxed);
}

std::uint64_t ResourceBudget::scratch_limit() const noexcept {
  return state().scratch_limit.load(std::memory_order_relaxed);
}

std::uint64_t ResourceBudget::scratch_used() const noexcept {
  return state().scratch_used.load(std::memory_order_relaxed);
}

bool ResourceBudget::try_charge_scratch(std::uint64_t bytes,
                                        const char* site) noexcept {
  auto& s = state();
  const std::uint64_t limit = s.scratch_limit.load(std::memory_order_relaxed);
  std::uint64_t used = s.scratch_used.load(std::memory_order_relaxed);
  for (;;) {
    if (injected_or_over(bytes, site, limit, used)) {
      s.rejections.fetch_add(1, std::memory_order_relaxed);
      bump("res.reject.scratch");
      return false;
    }
    if (s.scratch_used.compare_exchange_weak(used, used + bytes,
                                             std::memory_order_relaxed))
      return true;
  }
}

void ResourceBudget::release_scratch(std::uint64_t bytes) noexcept {
  auto& s = state();
  std::uint64_t used = s.scratch_used.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t next = used >= bytes ? used - bytes : 0;
    if (s.scratch_used.compare_exchange_weak(used, next,
                                             std::memory_order_relaxed))
      return;
  }
}

std::uint64_t ResourceBudget::rejections() const noexcept {
  return state().rejections.load(std::memory_order_relaxed);
}

void ResourceBudget::reset() noexcept {
  auto& s = state();
  s.memory_limit.store(kUnlimited, std::memory_order_relaxed);
  s.scratch_limit.store(kUnlimited, std::memory_order_relaxed);
  s.scratch_used.store(0, std::memory_order_relaxed);
  s.rejections.store(0, std::memory_order_relaxed);
}

void configure_from_env() {
  auto& budget = ResourceBudget::global();
  if (const std::uint64_t mb = env_mb("SSSP_MEM_BUDGET_MB"); mb > 0)
    budget.set_memory_limit(mb * 1024 * 1024);
  if (const std::uint64_t mb = env_mb("SSSP_SCRATCH_BUDGET_MB"); mb > 0)
    budget.set_scratch_limit(mb * 1024 * 1024);
}

void install_io_failpoints() { util::set_write_fault_hook(&io_failpoint_hook); }

}  // namespace sssp::res
