// Tests for the core vocabulary: strong ids, slot intervals, contracts,
// logging.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/interval.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"

namespace mcs {
namespace {

TEST(TaggedTypes, ComparisonsAndValue) {
  EXPECT_LT(Slot{1}, Slot{2});
  EXPECT_EQ(PhoneId{3}, PhoneId{3});
  EXPECT_NE(TaskId{0}, TaskId{1});
  EXPECT_EQ(Slot{5}.value(), 5);
}

TEST(TaggedTypes, NextAndPrevSlot) {
  EXPECT_EQ(next(Slot{3}), Slot{4});
  EXPECT_EQ(prev(Slot{3}), Slot{2});
}

TEST(TaggedTypes, Hashable) {
  std::unordered_set<PhoneId> set;
  set.insert(PhoneId{1});
  set.insert(PhoneId{2});
  set.insert(PhoneId{1});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(PhoneId{2}));
}

TEST(TaggedTypes, Streamable) {
  std::ostringstream os;
  os << Slot{7} << ' ' << PhoneId{2};
  EXPECT_EQ(os.str(), "7 2");
}

TEST(SlotInterval, ConstructionAndAccessors) {
  const SlotInterval iv = SlotInterval::of(2, 5);
  EXPECT_EQ(iv.begin(), Slot{2});
  EXPECT_EQ(iv.end(), Slot{5});
  EXPECT_EQ(iv.length(), 4);
}

TEST(SlotInterval, RejectsInvertedBounds) {
  EXPECT_THROW(std::ignore = SlotInterval::of(5, 2), ContractViolation);
}

TEST(SlotInterval, SingletonInterval) {
  const SlotInterval iv = SlotInterval::of(3, 3);
  EXPECT_EQ(iv.length(), 1);
  EXPECT_TRUE(iv.contains(Slot{3}));
  EXPECT_FALSE(iv.contains(Slot{2}));
}

TEST(SlotInterval, ContainsSlot) {
  const SlotInterval iv = SlotInterval::of(2, 5);
  EXPECT_FALSE(iv.contains(Slot{1}));
  EXPECT_TRUE(iv.contains(Slot{2}));
  EXPECT_TRUE(iv.contains(Slot{5}));
  EXPECT_FALSE(iv.contains(Slot{6}));
}

TEST(SlotInterval, ContainsIntervalIsReportLegality) {
  const SlotInterval active = SlotInterval::of(2, 5);
  EXPECT_TRUE(active.contains(SlotInterval::of(2, 5)));   // truthful
  EXPECT_TRUE(active.contains(SlotInterval::of(3, 4)));   // tighter
  EXPECT_FALSE(active.contains(SlotInterval::of(1, 5)));  // early arrival
  EXPECT_FALSE(active.contains(SlotInterval::of(2, 6)));  // late departure
}

TEST(SlotInterval, Streamable) {
  std::ostringstream os;
  os << SlotInterval::of(2, 5);
  EXPECT_EQ(os.str(), "[2,5]");
}

TEST(Contracts, ThrowWithContext) {
  try {
    MCS_EXPECTS(1 == 2, "numbers disagree");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
    EXPECT_NE(what.find("common_core_test.cpp"), std::string::npos);
  }
}

TEST(Contracts, PassingCheckIsSilent) {
  EXPECT_NO_THROW(MCS_ASSERT(2 + 2 == 4, "arithmetic"));
  EXPECT_NO_THROW(MCS_ENSURES(true, ""));
}

TEST(Errors, HierarchyCatchableAsBase) {
  EXPECT_THROW(throw InvalidScenarioError("x"), Error);
  EXPECT_THROW(throw SolverError("x"), Error);
  EXPECT_THROW(throw InvalidArgumentError("x"), Error);
  EXPECT_THROW(throw IoError("x"), Error);
}

TEST(Logging, RespectsLevelAndSink) {
  Logger& logger = Logger::instance();
  const LogLevel previous = logger.level();

  std::vector<std::string> captured;
  logger.set_sink([&](LogLevel, std::string_view message) {
    captured.emplace_back(message);
  });

  logger.set_level(LogLevel::kWarn);
  MCS_LOG_DEBUG("hidden " << 1);
  MCS_LOG_WARN("visible " << 2);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "visible 2");

  logger.set_level(LogLevel::kOff);
  MCS_LOG_ERROR("also hidden");
  EXPECT_EQ(captured.size(), 1u);

  // Restore defaults for other tests.
  logger.set_level(previous);
  logger.set_sink([](LogLevel, std::string_view) {});
}

TEST(Logging, LevelNames) {
  EXPECT_EQ(to_string(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(to_string(LogLevel::kInfo), "INFO");
  EXPECT_EQ(to_string(LogLevel::kWarn), "WARN");
  EXPECT_EQ(to_string(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace mcs
