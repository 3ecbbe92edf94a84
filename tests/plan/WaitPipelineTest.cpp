//===- tests/plan/WaitPipelineTest.cpp - Shapes beyond plan templates -------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Every waituntil binds a wait plan, including the shapes the planner's
// templates cannot parameterize. Covered here, under Tagged, LinearScan and
// Broadcast, untimed and timed: a mixed non-linear atom and a wide
// disjunction (Kind::Globalized), a binding whose keys overflow int64, and
// a canonically-true shape. Each returned wait is checked against the
// tree-walk evaluator (expr/Eval), the reference semantics. Unsatisfiable
// shapes, more than 16 locals, and locals inside an EDSL tree are fatal.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Monitor.h"
#include "expr/Eval.h"
#include "parse/PredicateParser.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace autosynch;
using namespace std::chrono_literals;

namespace {

using testutil::awaitWaiters;

constexpr SignalPolicy AllPolicies[] = {
    SignalPolicy::Tagged, SignalPolicy::LinearScan, SignalPolicy::Broadcast};

using Bindings = std::vector<std::pair<std::string, int64_t>>;

/// One shared variable `level` and parsed waits over it.
class ShapeMonitor : public Monitor {
public:
  explicit ShapeMonitor(SignalPolicy P) : Monitor(configOf(P)) {}

  void set(int64_t V) {
    Region R(*this);
    Level = V;
  }

  /// Waits on \p Pred with \p Locals bound; a zero \p Timeout waits
  /// unbounded. The verdict must match the tree-walk reference over the
  /// state the wait returned in.
  bool wait(const std::string &Pred, const Bindings &Locals,
            std::chrono::nanoseconds Timeout) {
    Region R(*this);
    MapEnv L = bind(Locals);
    bool Got = true;
    if (Timeout == 0ns)
      waitUntil(Pred, L);
    else
      Got = waitUntilFor(Pred, L, Timeout);
    EXPECT_EQ(Got, reference(Pred, L)) << Pred;
    return Got;
  }

  /// Blocks on `level >= <local n>` written as an EDSL tree.
  void waitEdslWithLocal() {
    Region R(*this);
    waitUntil(Level >= ExprHandle(arena(), arena().var(local("n"),
                                                       TypeKind::Int)));
  }

  /// The kind of plan the monitor holds for \p Pred.
  WaitPlan::Kind planKind(const std::string &Pred) {
    Region R(*this);
    return planCache().forShape(parse(Pred), config().Limits)->kind();
  }

  AUTOSYNCH_TEST_WAITER_PROBE()

  using Monitor::conditionManager;

private:
  static MonitorConfig configOf(SignalPolicy P) {
    MonitorConfig Cfg;
    Cfg.Policy = P;
    return Cfg;
  }

  MapEnv bind(const Bindings &Locals) {
    MapEnv L;
    for (const auto &[Name, V] : Locals)
      L.bindInt(local(Name), V);
    return L;
  }

  ExprRef parse(const std::string &Pred) {
    PredicateParseOptions Options;
    Options.AutoDeclareLocals = true;
    PredicateParseResult PR = parsePredicate(Pred, arena(), symbols(), Options);
    EXPECT_TRUE(PR.ok()) << Pred;
    return PR.Expr;
  }

  bool reference(const std::string &Pred, const MapEnv &Locals) {
    MapEnv Shared;
    Shared.bindInt(Level.id(), Level.get());
    return evalBool(parse(Pred), OverlayEnv(Locals, Shared));
  }

  Shared<int64_t> Level{*this, "level", 0};
};

/// A shape that blocks at \p FalseLevel and is released by \p TrueLevel.
struct BlockingShape {
  std::string Pred;
  Bindings Locals;
  int64_t FalseLevel;
  int64_t TrueLevel;
  WaitPlan::Kind Kind;
};

/// Runs \p S under every policy, untimed and timed: a wait released by a
/// write, then a timed wait that expires. Relay policies register each
/// blocking wait through per-wait globalization; Broadcast registers
/// nothing.
void runBlockingShape(const BlockingShape &S) {
  for (SignalPolicy P : AllPolicies) {
    for (std::chrono::nanoseconds Timeout : {0ns, 30'000'000'000ns}) {
      SCOPED_TRACE(std::string(signalPolicyName(P)) +
                   (Timeout == 0ns ? " untimed" : " timed"));
      ShapeMonitor M(P);
      M.set(S.FalseLevel);
      PlanCountersSnapshot P0 = PlanCounters::global().snapshot();

      std::thread W([&] { EXPECT_TRUE(M.wait(S.Pred, S.Locals, Timeout)); });
      awaitWaiters(M, 1);
      M.set(S.TrueLevel);
      W.join();

      M.set(S.FalseLevel);
      EXPECT_FALSE(M.wait(S.Pred, S.Locals, 2ms)); // Expires.

      PlanCountersSnapshot D = PlanCounters::global().snapshot() - P0;
      if (P == SignalPolicy::Broadcast)
        EXPECT_EQ(D.LegacyWaits, 0u);
      else
        EXPECT_GE(D.LegacyWaits, 2u);
      EXPECT_EQ(M.planKind(S.Pred), S.Kind);
      EXPECT_EQ(M.conditionManager().stats().Waits, 2u);
      EXPECT_EQ(M.conditionManager().numWaiters(), 0);
    }
  }
}

TEST(WaitPipelineTest, MixedNonLinearAtomIsGlobalizedPerWait) {
  runBlockingShape({"level % n == 0", {{"n", 3}}, 1, 6,
                    WaitPlan::Kind::Globalized});
}

TEST(WaitPipelineTest, KeyOverflowIsGlobalizedPerWait) {
  // The key n + m - p is INT64_MAX, but its partial sum n + m leaves
  // int64: resolve() reports Overflow and the binding is globalized.
  runBlockingShape({"level >= n + m - p",
                    {{"n", INT64_MAX}, {"m", 1}, {"p", 1}},
                    0,
                    INT64_MAX,
                    WaitPlan::Kind::Slotted});
}

TEST(WaitPipelineTest, WideDisjunctionWithLocalIsGlobalizedPerWait) {
  // 25 conjunctions: one more than the signature buffers hold.
  std::string Pred = "level == n";
  for (int K = 1; K != 25; ++K)
    Pred += " || level == n + " + std::to_string(K);
  runBlockingShape({Pred, {{"n", 100}}, 0, 124, WaitPlan::Kind::Globalized});
}

TEST(WaitPipelineTest, CanonicallyTrueShapeNeverBlocks) {
  const std::string Pred = "level + n >= level + n - 1";
  for (SignalPolicy P : AllPolicies) {
    SCOPED_TRACE(signalPolicyName(P));
    ShapeMonitor M(P);
    EXPECT_TRUE(M.wait(Pred, {{"n", 7}}, 0ns));
    EXPECT_TRUE(M.wait(Pred, {{"n", -7}}, 1ms));
    EXPECT_EQ(M.planKind(Pred), WaitPlan::Kind::AlwaysTrue);
    EXPECT_EQ(M.conditionManager().stats().Waits, 0u);
    EXPECT_EQ(M.conditionManager().stats().Registrations, 0u);
  }
}

TEST(WaitPipelineTest, UnsatisfiableShapeIsFatal) {
  for (SignalPolicy P : AllPolicies) {
    SCOPED_TRACE(signalPolicyName(P));
    for (std::chrono::nanoseconds Timeout : {0ns, 1'000'000ns})
      EXPECT_DEATH(
          ShapeMonitor(P).wait("level >= n && level < n", {{"n", 1}},
                               Timeout),
          "unsatisfiable");
  }
}

TEST(WaitPipelineTest, MoreThanSixteenLocalsIsFatal) {
  std::string Pred = "level >= a0";
  Bindings Locals{{"a0", 0}};
  for (int I = 1; I != 17; ++I) {
    Pred += " + a" + std::to_string(I);
    Locals.push_back({"a" + std::to_string(I), 0});
  }
  for (SignalPolicy P : AllPolicies) {
    SCOPED_TRACE(signalPolicyName(P));
    EXPECT_DEATH(ShapeMonitor(P).wait(Pred, Locals, 0ns),
                 "more than 16 distinct local variables");
  }
}

TEST(WaitPipelineTest, EdslTreeHoldingALocalIsFatal) {
  for (SignalPolicy P : AllPolicies) {
    SCOPED_TRACE(signalPolicyName(P));
    EXPECT_DEATH(ShapeMonitor(P).waitEdslWithLocal(),
                 "EDSL predicate mentions a local variable");
  }
}

} // namespace
