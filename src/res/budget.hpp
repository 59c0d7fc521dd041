// Process-wide resource governance (docs/ROBUSTNESS.md, "Resource
// budgets & exhaustion"). The big consumers — CSR graph load, the
// frontier engine's re-injection reserve, batch-engine lanes, serve
// admission, checkpoint serialization — ask the ResourceBudget
// *before* allocating, so oversize work is rejected with a structured
// ResourceError (tools exit kExitResourceBudget) or degraded, instead
// of dying in the OOM killer or an uncaught std::bad_alloc.
//
// Two resources:
//   memory   a per-request limit: each check compares one request's
//            bytes alone against it (not a malloc hook, and nothing is
//            held between checks — small allocations are deliberately
//            untracked).
//   scratch  bytes of scratch-disk output in flight (checkpoints),
//            charged before a write and released after it.
//
// Every check doubles as a failpoint: check_memory(bytes, site) fires
// the failpoint named by `site` (e.g. "res.engine.alloc") plus the
// generic "res.alloc.fail", so CI can prove each degradation path
// without actually shrinking the machine. Layering: res sits between
// fault and graph (links fault + util), which also makes it the home
// of install_io_failpoints() — the glue that maps io.write.* failpoints
// onto util/atomic_file's hook, which util itself cannot reference.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace sssp::res {

enum class ResourceKind : std::uint8_t { kMemory = 0, kScratch = 1 };

const char* to_string(ResourceKind kind) noexcept;

// A budget was (or would be) exceeded. `site` names the check site —
// which is also the failpoint that can force this error in tests.
class ResourceError : public std::runtime_error {
 public:
  ResourceError(ResourceKind kind, std::string site, std::uint64_t requested,
                std::uint64_t available);

  ResourceKind kind() const noexcept { return kind_; }
  const std::string& site() const noexcept { return site_; }
  std::uint64_t requested() const noexcept { return requested_; }
  std::uint64_t available() const noexcept { return available_; }

 private:
  ResourceKind kind_;
  std::string site_;
  std::uint64_t requested_;
  std::uint64_t available_;
};

inline constexpr std::uint64_t kUnlimited = 0;  // limit value: no cap

class ResourceBudget {
 public:
  ResourceBudget() = default;
  ResourceBudget(const ResourceBudget&) = delete;
  ResourceBudget& operator=(const ResourceBudget&) = delete;

  // The process-wide instance every instrumented site consults.
  static ResourceBudget& global();

  // ---- memory ----
  void set_memory_limit(std::uint64_t bytes) noexcept;
  std::uint64_t memory_limit() const noexcept;

  // Checks one request of `bytes` against the limit. `site` is both the
  // label in the ResourceError and the failpoint fired here. Throws
  // ResourceError on refusal: for sites with no degradation path (the
  // resident graph).
  void require_memory(std::uint64_t bytes, const char* site);
  // Non-throwing form, for sites with a degradation path (skip a
  // reserve, split a batch, shed a query). Both bump the `res.reject`
  // counter on refusal.
  bool check_memory(std::uint64_t bytes, const char* site) noexcept;

  // ---- scratch disk ----
  void set_scratch_limit(std::uint64_t bytes) noexcept;
  std::uint64_t scratch_limit() const noexcept;
  std::uint64_t scratch_used() const noexcept;
  bool try_charge_scratch(std::uint64_t bytes, const char* site) noexcept;
  void release_scratch(std::uint64_t bytes) noexcept;

  // Refusals since start (or the last reset), across both resources.
  std::uint64_t rejections() const noexcept;

  // Tests only: clears limits, charges, and counters.
  void reset() noexcept;

 private:
  bool injected_or_over(std::uint64_t bytes, const char* site,
                        std::uint64_t limit, std::uint64_t used) noexcept;

  struct State;
  State& state() const noexcept;
};

// Reads SSSP_MEM_BUDGET_MB / SSSP_SCRATCH_BUDGET_MB into the global
// budget (unset or unparsable values are ignored). Tools call this
// before flag parsing so --mem-budget-mb can override.
void configure_from_env();

// Installs the util/atomic_file write-fault hook that maps the
// `io.write.enospc` (inject ENOSPC) and `io.write.short` (halve the
// chunk) failpoints onto every atomic write. Idempotent; called from
// the tools' enable_faults().
void install_io_failpoints();

}  // namespace sssp::res
