// Process-wide resource governance (docs/ROBUSTNESS.md, "Resource
// budgets & exhaustion"). The big consumers — CSR graph load, the
// frontier engine's re-injection reserve, batch-engine lanes,
// checkpoint serialization, the serve result cache — ask the
// ResourceBudget *before* allocating, so oversize work is rejected
// with a structured ResourceError (tools exit kExitResourceBudget)
// instead of dying in the OOM killer or an uncaught std::bad_alloc.
//
// Three tracked resources:
//   memory   bytes of large-object allocations, charged/released
//            explicitly by the instrumented sites (not a malloc hook —
//            small allocations are deliberately untracked).
//   scratch  bytes of scratch-disk output (checkpoints, spill files).
//   fds      open file descriptors, measured live from /proc/self/fd
//            against RLIMIT_NOFILE with a configurable headroom.
//
// Every charge site doubles as a failpoint: try_charge_memory(site,…)
// fires the failpoint named by `site` (e.g. "res.engine.alloc") plus
// the generic "res.alloc.fail", so CI can prove each degradation path
// without actually shrinking the machine. Layering: res sits between
// fault and graph (links fault + util), which also makes it the home
// of install_io_failpoints() — the glue that maps io.write.* failpoints
// onto util/atomic_file's hook, which util itself cannot reference.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace sssp::res {

enum class ResourceKind : std::uint8_t { kMemory = 0, kScratch = 1, kFds = 2 };

const char* to_string(ResourceKind kind) noexcept;

// A budget was (or would be) exceeded. `site` names the charge site —
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
  std::uint64_t memory_used() const noexcept;
  // Remaining headroom; max uint64 when unlimited.
  std::uint64_t memory_available() const noexcept;

  // Charges `bytes` against the budget. `site` is both the label in
  // the ResourceError and the failpoint fired here. try_* returns
  // false instead of throwing; the throwing form is for sites with no
  // degradation path. Both bump the `res.reject` counter on refusal.
  bool try_charge_memory(std::uint64_t bytes, const char* site) noexcept;
  void charge_memory(std::uint64_t bytes, const char* site);
  void release_memory(std::uint64_t bytes) noexcept;

  // Check-only variant for process-lifetime objects (the resident
  // graph): verifies headroom and records a high-water mark but does
  // not hold a charge that would need releasing.
  void require_memory(std::uint64_t bytes, const char* site);
  // Non-throwing check-only form, for sites with a degradation path
  // (skip a reserve, split a batch).
  bool check_memory(std::uint64_t bytes, const char* site) noexcept;

  // ---- scratch disk ----
  void set_scratch_limit(std::uint64_t bytes) noexcept;
  std::uint64_t scratch_limit() const noexcept;
  std::uint64_t scratch_used() const noexcept;
  bool try_charge_scratch(std::uint64_t bytes, const char* site) noexcept;
  void release_scratch(std::uint64_t bytes) noexcept;

  // ---- file descriptors ----
  // Minimum free descriptors (RLIMIT_NOFILE minus open count) that
  // must remain after a site opens `count` more; default 16.
  void set_fd_headroom(std::uint64_t headroom) noexcept;
  std::uint64_t fd_headroom() const noexcept;
  // Live count of open descriptors via /proc/self/fd; -1 if
  // unavailable (non-Linux), in which case fd checks pass trivially.
  static int open_fd_count() noexcept;
  // Soft RLIMIT_NOFILE; max uint64 if unlimited/unknown.
  static std::uint64_t fd_limit() noexcept;
  // Throws ResourceError{kFds} if opening `count` descriptors would
  // leave less than the headroom. `site` fires as a failpoint first.
  void require_fds(std::uint64_t count, const char* site);
  bool try_require_fds(std::uint64_t count, const char* site) noexcept;

  struct Snapshot {
    std::uint64_t memory_limit = 0;
    std::uint64_t memory_used = 0;
    std::uint64_t memory_peak = 0;
    std::uint64_t scratch_limit = 0;
    std::uint64_t scratch_used = 0;
    std::uint64_t rejections = 0;
    int open_fds = -1;
  };
  Snapshot snapshot() const noexcept;

  // Tests only: clears limits, charges, and counters.
  void reset() noexcept;

 private:
  bool injected_or_over(std::uint64_t bytes, const char* site,
                        std::uint64_t limit, std::uint64_t used) noexcept;

  struct State;
  State& state() const noexcept;
};

// RAII memory charge: releases on destruction. Default-constructed /
// moved-from reservations hold nothing.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  // Throws ResourceError when the charge is refused.
  MemoryReservation(ResourceBudget& budget, std::uint64_t bytes,
                    const char* site);
  MemoryReservation(MemoryReservation&& other) noexcept;
  MemoryReservation& operator=(MemoryReservation&& other) noexcept;
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;
  ~MemoryReservation() { release(); }

  // Non-throwing acquisition; holds nothing on refusal.
  static MemoryReservation try_reserve(ResourceBudget& budget,
                                       std::uint64_t bytes,
                                       const char* site) noexcept;

  bool held() const noexcept { return budget_ != nullptr; }
  std::uint64_t bytes() const noexcept { return bytes_; }
  void release() noexcept;

 private:
  ResourceBudget* budget_ = nullptr;
  std::uint64_t bytes_ = 0;
};

// Reads SSSP_MEM_BUDGET_MB / SSSP_SCRATCH_BUDGET_MB / SSSP_FD_HEADROOM
// into the global budget (unset or unparsable values are ignored).
// Tools call this before flag parsing so --mem-budget-mb can override.
void configure_from_env();

// Installs the util/atomic_file write-fault hook that maps the
// `io.write.enospc` (inject ENOSPC) and `io.write.short` (halve the
// chunk) failpoints onto every atomic write. Idempotent; called from
// the tools' enable_faults().
void install_io_failpoints();

}  // namespace sssp::res
