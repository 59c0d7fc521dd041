#include "serve/admission.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace sssp::serve {
namespace {

Ticket ticket(const std::string& id) {
  Ticket t;
  t.request.id = id;
  t.admitted_at = std::chrono::steady_clock::now();
  return t;
}

TEST(AdmissionTest, FifoUnderCapacity) {
  AdmissionQueue q(4, ShedPolicy::kRejectNew);
  EXPECT_TRUE(q.push(ticket("a")).admitted);
  EXPECT_TRUE(q.push(ticket("b")).admitted);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.pop()->request.id, "a");
  EXPECT_EQ(q.pop()->request.id, "b");
  EXPECT_EQ(q.depth(), 0u);
}

TEST(AdmissionTest, RejectNewHandsTheTicketBack) {
  AdmissionQueue q(2, ShedPolicy::kRejectNew);
  ASSERT_TRUE(q.push(ticket("a")).admitted);
  ASSERT_TRUE(q.push(ticket("b")).admitted);
  const auto outcome = q.push(ticket("c"));
  EXPECT_FALSE(outcome.admitted);
  EXPECT_FALSE(outcome.displaced.has_value());
  // The rejected ticket (with its response sink) comes back to the
  // caller — losing it would be a silent drop.
  ASSERT_TRUE(outcome.rejected.has_value());
  EXPECT_EQ(outcome.rejected->request.id, "c");
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.pop()->request.id, "a");
}

TEST(AdmissionTest, DropOldestDisplacesTheFront) {
  AdmissionQueue q(2, ShedPolicy::kDropOldest);
  ASSERT_TRUE(q.push(ticket("a")).admitted);
  ASSERT_TRUE(q.push(ticket("b")).admitted);
  const auto outcome = q.push(ticket("c"));
  EXPECT_TRUE(outcome.admitted);
  ASSERT_TRUE(outcome.displaced.has_value());
  EXPECT_EQ(outcome.displaced->request.id, "a");
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.pop()->request.id, "b");
  EXPECT_EQ(q.pop()->request.id, "c");
}

TEST(AdmissionTest, CloseRejectsPushesAndDrainsPoppers) {
  AdmissionQueue q(4, ShedPolicy::kRejectNew);
  ASSERT_TRUE(q.push(ticket("a")).admitted);
  q.close();
  EXPECT_TRUE(q.closed());
  const auto outcome = q.push(ticket("b"));
  EXPECT_FALSE(outcome.admitted);
  ASSERT_TRUE(outcome.rejected.has_value());
  // Queued work is still popped after close...
  EXPECT_EQ(q.pop()->request.id, "a");
  // ...and an empty closed queue is the worker exit signal.
  EXPECT_FALSE(q.pop().has_value());
}

TEST(AdmissionTest, CloseWakesABlockedPopper) {
  AdmissionQueue q(4, ShedPolicy::kRejectNew);
  std::thread popper([&q] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  popper.join();
}

TEST(AdmissionTest, DrainRemainingEmptiesTheQueue) {
  AdmissionQueue q(8, ShedPolicy::kRejectNew);
  for (const char* id : {"a", "b", "c"})
    ASSERT_TRUE(q.push(ticket(id)).admitted);
  const auto drained = q.drain_remaining();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].request.id, "a");
  EXPECT_EQ(drained[2].request.id, "c");
  EXPECT_EQ(q.depth(), 0u);
}

TEST(AdmissionTest, ZeroCapacityClampsToOne) {
  AdmissionQueue q(0, ShedPolicy::kRejectNew);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.push(ticket("a")).admitted);
  EXPECT_FALSE(q.push(ticket("b")).admitted);
}

TEST(AdmissionTest, ShedPolicyParsing) {
  EXPECT_EQ(parse_shed_policy("reject-new"), ShedPolicy::kRejectNew);
  EXPECT_EQ(parse_shed_policy("drop-oldest"), ShedPolicy::kDropOldest);
  EXPECT_THROW(parse_shed_policy("lifo"), std::invalid_argument);
  EXPECT_STREQ(to_string(ShedPolicy::kRejectNew), "reject-new");
  EXPECT_STREQ(to_string(ShedPolicy::kDropOldest), "drop-oldest");
}

}  // namespace
}  // namespace sssp::serve
