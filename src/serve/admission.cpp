#include "serve/admission.hpp"

#include <stdexcept>
#include <string>

namespace sssp::serve {

const char* to_string(ShedPolicy policy) noexcept {
  switch (policy) {
    case ShedPolicy::kRejectNew: return "reject-new";
    case ShedPolicy::kDropOldest: return "drop-oldest";
  }
  return "unknown";
}

ShedPolicy parse_shed_policy(std::string_view name) {
  if (name == "reject-new") return ShedPolicy::kRejectNew;
  if (name == "drop-oldest") return ShedPolicy::kDropOldest;
  throw std::invalid_argument("unknown shed policy '" + std::string(name) +
                              "' (expected reject-new or drop-oldest)");
}

AdmissionQueue::AdmissionQueue(std::size_t capacity, ShedPolicy policy)
    : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

AdmissionQueue::PushOutcome AdmissionQueue::push(Ticket ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  PushOutcome outcome;
  if (closed_) {
    outcome.rejected = std::move(ticket);
    return outcome;
  }
  if (queue_.size() >= capacity_) {
    if (policy_ == ShedPolicy::kRejectNew) {
      outcome.rejected = std::move(ticket);
      return outcome;
    }
    outcome.displaced = std::move(queue_.front());
    queue_.pop_front();
  }
  queue_.push_back(std::move(ticket));
  outcome.admitted = true;
  cv_.notify_one();
  return outcome;
}

std::optional<Ticket> AdmissionQueue::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;  // closed and drained
  std::optional<Ticket> popped(std::move(queue_.front()));
  queue_.pop_front();
  return popped;
}

void AdmissionQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::vector<Ticket> AdmissionQueue::drain_remaining() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Ticket> drained(std::make_move_iterator(queue_.begin()),
                              std::make_move_iterator(queue_.end()));
  queue_.clear();
  return drained;
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace sssp::serve
