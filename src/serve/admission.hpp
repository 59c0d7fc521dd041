// Bounded admission queue — the server's overload valve
// (docs/SERVING.md, "Admission control & load shedding").
//
// Every query passes through here between transport and execution. The
// queue has a hard capacity; when it is full the configured policy
// decides who pays:
//   kRejectNew   the incoming query is shed (`overloaded` + retry hint)
//                — protects queued work, pushes backpressure outward;
//   kDropOldest  the oldest queued query is displaced and shed, the new
//                one is admitted — favors fresh traffic when stale
//                queries are likely to miss their deadlines anyway.
// The queue does not look at deadlines: the server's execution path
// sheds a query whose deadline passed while it was queued before it
// does any work for it (docs/SERVING.md, "Execution path").
//
// Thread-safety: all operations are mutex-guarded; pop blocks on a
// condition variable until a ticket arrives or the queue closes. The
// accounting invariant — every admitted ticket is eventually popped,
// displaced, or drained, exactly once — is what "never leak queue
// slots" means in the chaos acceptance criteria.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/protocol.hpp"

namespace sssp::serve {

enum class ShedPolicy : std::uint8_t { kRejectNew = 0, kDropOldest = 1 };

const char* to_string(ShedPolicy policy) noexcept;
// Parses "reject-new" / "drop-oldest"; throws std::invalid_argument.
ShedPolicy parse_shed_policy(std::string_view name);

// An admitted query: the validated request plus its admission timestamp
// and absolute deadline (steady_clock end-to-end; time_point::max()
// when the query has no deadline).
struct Ticket {
  Request request;
  std::chrono::steady_clock::time_point admitted_at{};
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  // Completion sink: exactly one Response is delivered through it per
  // ticket (executed, shed, or drained). The server serializes calls.
  std::function<void(const Response&)> respond;
};

class AdmissionQueue {
 public:
  AdmissionQueue(std::size_t capacity, ShedPolicy policy);

  struct PushOutcome {
    bool admitted = false;
    // kDropOldest displacement: the ticket the caller must shed.
    std::optional<Ticket> displaced;
    // kRejectNew (or closed queue): the caller's own ticket handed
    // back so its response sink is never lost.
    std::optional<Ticket> rejected;
  };

  // Admits `ticket` or sheds per policy. Returns admitted=false when
  // the queue is full under kRejectNew or already closed.
  PushOutcome push(Ticket ticket);

  // Blocks until a ticket is available or the queue is closed and
  // empty (nullopt — the worker's exit signal).
  std::optional<Ticket> pop();

  // Stops admissions and wakes blocked poppers. Idempotent.
  void close();
  bool closed() const;

  // Removes and returns every queued ticket (drain-deadline shedding).
  std::vector<Ticket> drain_remaining();

  std::size_t depth() const;
  std::size_t capacity() const noexcept { return capacity_; }
  ShedPolicy policy() const noexcept { return policy_; }

 private:
  const std::size_t capacity_;
  const ShedPolicy policy_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Ticket> queue_;
  bool closed_ = false;
};

}  // namespace sssp::serve
