//===- tests/core/ConditionManagerTest.cpp - Manager bookkeeping tests ------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Monitor.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace autosynch;

namespace {

/// Ping-pong monitor creating many distinct predicates so the inactive
/// cache and eviction paths are exercised.
class TurnMonitor : public Monitor {
public:
  explicit TurnMonitor(MonitorConfig Cfg) : Monitor(Cfg) {}

  void awaitTurn(int64_t T) {
    Region R(*this);
    waitUntil(Turn == T);
  }

  void advance() {
    Region R(*this);
    Turn += 1;
  }

  void reset() {
    Region R(*this);
    Turn = 0;
  }

  AUTOSYNCH_TEST_WAITER_PROBE()

  using Monitor::conditionManager;

private:
  Shared<int64_t> Turn{*this, "turn", 0};
};

TEST(ConditionManagerTest, InactiveCacheReusesPredicates) {
  MonitorConfig Cfg;
  Cfg.InactiveCacheLimit = 64;
  TurnMonitor M(Cfg);

  // Two rounds over the same predicates: round two reuses the parked
  // registrations instead of creating new ones.
  for (int Round = 0; Round != 2; ++Round) {
    M.reset();
    for (int64_t T = 1; T <= 4; ++T) {
      std::thread W([&M, T] { M.awaitTurn(T); });
      testutil::awaitWaiters(M, 1);
      for (int64_t Step = 0; Step != T; ++Step)
        M.advance();
      W.join();
      M.reset();
    }
  }

  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_LE(S.Registrations, 4u);
  EXPECT_GE(S.CacheReuses, 1u);
  EXPECT_EQ(M.conditionManager().numWaiters(), 0);
}

TEST(ConditionManagerTest, EvictionBoundsTheTable) {
  MonitorConfig Cfg;
  Cfg.InactiveCacheLimit = 4;
  TurnMonitor M(Cfg);

  // 32 distinct predicates in sequence; the table must stay bounded by
  // the cache limit (plus actives, which drain to zero).
  for (int64_t T = 1; T <= 32; ++T) {
    std::thread W([&M, T] { M.awaitTurn(T); });
    // Let the waiter block (and register) before its predicate turns true;
    // otherwise it takes the fast path and registers nothing.
    testutil::awaitWaiters(M, 1);
    M.advance();
    W.join();
  }
  EXPECT_LE(M.conditionManager().inactiveCacheSize(), 4u);
  EXPECT_LE(M.conditionManager().numRegistered(), 5u);
  EXPECT_GE(M.conditionManager().stats().Evictions, 10u);
}

TEST(ConditionManagerTest, StatsTrackWaitsAndSignals) {
  MonitorConfig Cfg;
  TurnMonitor M(Cfg);
  std::thread W([&] { M.awaitTurn(1); });
  testutil::awaitWaiters(M, 1);
  M.advance();
  W.join();
  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_EQ(S.Waits, 1u);
  EXPECT_EQ(S.SignalsSent, 1u);
  EXPECT_GE(S.RelayCalls, 1u);
}

TEST(ConditionManagerTest, ResetStatsClears) {
  TurnMonitor M(MonitorConfig{});
  std::thread W([&] { M.awaitTurn(1); });
  testutil::awaitWaiters(M, 1);
  M.advance();
  W.join();
  M.conditionManager().resetStats();
  EXPECT_EQ(M.conditionManager().stats().Waits, 0u);
  EXPECT_EQ(M.conditionManager().stats().SignalsSent, 0u);
}

TEST(ConditionManagerTest, CompiledEvalBehavesIdentically) {
  // Note: a waiter on `turn == T` is only woken while the equality holds;
  // advancing past T concurrently is allowed to strand it (the paper's
  // semantics), so each round advances exactly once and joins.
  MonitorConfig Cfg;
  TurnMonitor M(Cfg);
  for (int64_t T = 1; T <= 8; ++T) {
    std::thread W([&M, T] { M.awaitTurn(T); });
    M.advance();
    W.join();
  }
  EXPECT_EQ(M.conditionManager().numWaiters(), 0);
  EXPECT_LE(M.conditionManager().stats().Registrations, 8u);
}

TEST(ConditionManagerTest, PhaseTimersAccumulateWhenEnabled) {
  MonitorConfig Cfg;
  Cfg.EnablePhaseTimers = true;
  TurnMonitor M(Cfg);
  std::thread W([&] { M.awaitTurn(1); });
  testutil::awaitWaiters(M, 1);
  M.advance();
  W.join();
  PhaseTimers &T = M.conditionManager().timers();
  EXPECT_GT(T.totalNs(PhaseTimers::Await), 0u);
  EXPECT_GT(T.totalNs(PhaseTimers::Relay), 0u);
  // The waiter registered tags (Tagged policy default).
  EXPECT_GT(T.totalNs(PhaseTimers::TagMgmt), 0u);
}

TEST(ConditionManagerTest, PhaseTimersSilentWhenDisabled) {
  MonitorConfig Cfg;
  Cfg.EnablePhaseTimers = false;
  TurnMonitor M(Cfg);
  std::thread W([&] { M.awaitTurn(1); });
  testutil::awaitWaiters(M, 1);
  M.advance();
  W.join();
  PhaseTimers &T = M.conditionManager().timers();
  EXPECT_EQ(T.totalNs(PhaseTimers::Await), 0u);
  EXPECT_EQ(T.totalNs(PhaseTimers::Relay), 0u);
}

TEST(ConditionManagerTest, TaggedSearchStatsAdvance) {
  MonitorConfig Cfg;
  Cfg.Policy = SignalPolicy::Tagged;
  TurnMonitor M(Cfg);
  std::thread W([&] { M.awaitTurn(1); });
  testutil::awaitWaiters(M, 1);
  M.advance();
  W.join();
  const TagSearchStats &S = M.conditionManager().stats().Search;
  EXPECT_GE(S.SharedExprEvals, 1u);
  EXPECT_GE(S.PredicateChecks, 1u);
}

} // namespace
