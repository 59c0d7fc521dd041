// ResourceBudget (res/budget.hpp): the process-wide memory/scratch
// governor every large-allocation site consults. The contracts under
// test: each memory check compares one request alone against the
// limit, scratch charges are accounted and released exactly, refusals
// are structured (ResourceError with kind/site/requested/available)
// and counted, and every check site doubles as a failpoint.
#include "res/budget.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "fault/failpoint.hpp"

namespace sssp::res {
namespace {

class BudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResourceBudget::global().reset();
    fault::FailpointRegistry::global().disarm_all();
  }
  void TearDown() override {
    ResourceBudget::global().reset();
    fault::FailpointRegistry::global().disarm_all();
  }
};

TEST_F(BudgetTest, UnlimitedByDefault) {
  auto& budget = ResourceBudget::global();
  EXPECT_EQ(budget.memory_limit(), kUnlimited);
  EXPECT_EQ(budget.scratch_limit(), kUnlimited);
  EXPECT_TRUE(budget.check_memory(1ULL << 40, "res.test"));
  EXPECT_NO_THROW(budget.require_memory(1ULL << 40, "res.test"));
  EXPECT_TRUE(budget.try_charge_scratch(1ULL << 40, "res.test"));
  budget.release_scratch(1ULL << 40);
  EXPECT_EQ(budget.rejections(), 0u);
}

// Scratch is the one resource charged and held: a checkpoint write
// holds its bytes until it is released.
TEST_F(BudgetTest, ChargeAndReleaseAccounting) {
  auto& budget = ResourceBudget::global();
  budget.set_scratch_limit(1000);
  EXPECT_TRUE(budget.try_charge_scratch(600, "res.test"));
  EXPECT_EQ(budget.scratch_used(), 600u);
  EXPECT_FALSE(budget.try_charge_scratch(401, "res.test"));
  EXPECT_EQ(budget.scratch_used(), 600u) << "failed charge must not stick";
  EXPECT_TRUE(budget.try_charge_scratch(400, "res.test"));
  EXPECT_EQ(budget.scratch_used(), 1000u);
  budget.release_scratch(600);
  budget.release_scratch(400);
  EXPECT_EQ(budget.scratch_used(), 0u);
}

TEST_F(BudgetTest, ThrowingFormCarriesStructuredFields) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(100);
  try {
    budget.require_memory(250, "res.test.site");
    FAIL() << "request over budget did not throw";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.kind(), ResourceKind::kMemory);
    EXPECT_EQ(e.site(), "res.test.site");
    EXPECT_EQ(e.requested(), 250u);
    EXPECT_EQ(e.available(), 100u);
  }
}

TEST_F(BudgetTest, RequireMemoryChecksWithoutHoldingACharge) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(1000);
  EXPECT_NO_THROW(budget.require_memory(900, "res.test"));
  // Nothing is held: the same request passes again.
  EXPECT_NO_THROW(budget.require_memory(900, "res.test"));
  EXPECT_THROW(budget.require_memory(1100, "res.test"), ResourceError);
}

TEST_F(BudgetTest, CheckMemoryIsNonThrowingAndHoldsNothing) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(100);
  EXPECT_TRUE(budget.check_memory(50, "res.test"));
  EXPECT_TRUE(budget.check_memory(100, "res.test"));  // each request alone
  EXPECT_FALSE(budget.check_memory(200, "res.test"));
}

TEST_F(BudgetTest, SiteFailpointForcesRefusal) {
  auto& budget = ResourceBudget::global();
  // No limit set: only the armed failpoint can cause a refusal.
  fault::FailpointRegistry::global().arm("res.engine.alloc");
  EXPECT_FALSE(budget.check_memory(1, "res.engine.alloc"));
  EXPECT_TRUE(budget.check_memory(1, "res.other.site"));
  fault::FailpointRegistry::global().disarm_all();
}

TEST_F(BudgetTest, GenericFailpointForcesRefusalAtEverySite) {
  auto& budget = ResourceBudget::global();
  fault::FailpointRegistry::global().arm("res.alloc.fail");
  EXPECT_FALSE(budget.check_memory(1, "res.engine.alloc"));
  EXPECT_FALSE(budget.check_memory(1, "res.batch.alloc"));
  EXPECT_THROW(budget.require_memory(1, "res.graph.alloc"), ResourceError);
  EXPECT_FALSE(budget.try_charge_scratch(1, "res.ckpt.scratch"));
  EXPECT_EQ(budget.rejections(), 4u);
  fault::FailpointRegistry::global().disarm_all();
}

TEST_F(BudgetTest, ScratchBudgetIsIndependentOfMemory) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(10);
  budget.set_scratch_limit(1000);
  EXPECT_TRUE(budget.try_charge_scratch(800, "res.ckpt.scratch"));
  EXPECT_FALSE(budget.try_charge_scratch(300, "res.ckpt.scratch"));
  budget.release_scratch(800);
  EXPECT_EQ(budget.scratch_used(), 0u);
}

TEST_F(BudgetTest, RejectionsCountEveryRefusal) {
  auto& budget = ResourceBudget::global();
  budget.set_memory_limit(100);
  budget.set_scratch_limit(10);
  EXPECT_TRUE(budget.check_memory(90, "res.test"));
  EXPECT_EQ(budget.rejections(), 0u);
  EXPECT_FALSE(budget.check_memory(101, "res.test"));
  EXPECT_EQ(budget.rejections(), 1u);
  EXPECT_THROW(budget.require_memory(200, "res.test"), ResourceError);
  EXPECT_EQ(budget.rejections(), 2u);
  EXPECT_FALSE(budget.try_charge_scratch(11, "res.test"));
  EXPECT_EQ(budget.rejections(), 3u);
  budget.reset();
  EXPECT_EQ(budget.rejections(), 0u);
}

}  // namespace
}  // namespace sssp::res
