//===- tests/plan/PlanCacheTest.cpp - WaitPlan cache tests ------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The WaitPlan cache: one plan per predicate *shape*, bound per call with
// the thread's local values. Covered here: shape reuse across distinct
// values (both front ends), allocation-freedom of the steady-state bind
// path, unification with records registered through other routes, the
// interaction with the inactive cache's eviction limit, and a differential
// run checking every returned wait against the tree-walk evaluator.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Monitor.h"
#include "expr/Eval.h"
#include "parse/PredicateParser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace autosynch;

namespace {

using testutil::awaitWaiters;

/// Pool monitor exercising both predicate front ends over one shape each.
class PoolMonitor : public Monitor {
public:
  explicit PoolMonitor(MonitorConfig Cfg = {}) : Monitor(Cfg) {}

  void deposit(int64_t N) {
    Region R(*this);
    Level += N;
  }

  void withdrawEdsl(int64_t N) {
    Region R(*this);
    ExprHandle P = Level >= N;
    waitUntil(P);
    checkReference(P.ref(), EmptyEnv::instance());
    Level -= N;
  }

  void withdrawParsed(int64_t N) {
    Region R(*this);
    MapEnv L = locals().bindInt(local("n"), N);
    waitUntil("level >= n", L);
    checkReference(Parsed, L);
    Level -= N;
  }

  /// Returned waits whose predicate the tree-walk evaluator found false.
  int referenceMisses() {
    Region R(*this);
    return ReferenceMisses;
  }

  int64_t level() {
    Region R(*this);
    return Level.get();
  }

  AUTOSYNCH_TEST_WAITER_PROBE()

  using Monitor::conditionManager;
  using Monitor::planCache;
  using Monitor::arena;

private:
  /// The reference semantics (expr/Eval) over the state the wait returned
  /// in; the plan's compiled check must have agreed with it.
  void checkReference(ExprRef Pred, const Env &Locals) {
    MapEnv Shared;
    Shared.bindInt(Level.id(), Level.get());
    if (!evalBool(Pred, OverlayEnv(Locals, Shared)))
      ++ReferenceMisses;
  }

  Shared<int64_t> Level{*this, "level", 0};
  ExprRef Parsed = parseForReference("level >= n");
  int ReferenceMisses = 0;

  ExprRef parseForReference(std::string_view Pred) {
    PredicateParseOptions Options;
    Options.AutoDeclareLocals = true;
    return parsePredicate(Pred, arena(), symbols(), Options).Expr;
  }
};

/// Runs one blocked-then-released withdraw so the wait registers.
template <typename WithdrawFn>
void blockedWithdraw(PoolMonitor &M, int64_t N, WithdrawFn &&Withdraw) {
  std::thread W([&] { Withdraw(N); });
  awaitWaiters(M, 1);
  M.deposit(N);
  W.join();
}

TEST(PlanCacheTest, ParsedShapeReusedAcrossValues) {
  PoolMonitor M;
  for (int64_t N : {3, 5, 7})
    blockedWithdraw(M, N, [&](int64_t V) { M.withdrawParsed(V); });

  const PlanCacheStats &P = M.planCache().stats();
  // One plan per shape, not per value; repeat parsed waits do not even
  // re-look-it-up (the plan is memoized on the parse-cache entry).
  EXPECT_EQ(P.ShapeBuilds, 1u);
  EXPECT_EQ(P.ShapeHits, 0u);
  // Three distinct values -> three registered predicates, all cold binds.
  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_EQ(S.Registrations, 3u);
  EXPECT_EQ(S.PlanColdBinds, 3u);
  EXPECT_EQ(S.PlanBindHits, 0u);
}

TEST(PlanCacheTest, EdslLiteralsShareOneShape) {
  PoolMonitor M;
  for (int64_t N : {2, 4, 6, 8})
    blockedWithdraw(M, N, [&](int64_t V) { M.withdrawEdsl(V); });

  const PlanCacheStats &P = M.planCache().stats();
  EXPECT_EQ(P.EdslSkeletons, 4u);
  EXPECT_EQ(P.ShapeBuilds, 1u) << "Level >= 2 and Level >= 8 are one shape";
  EXPECT_EQ(M.conditionManager().stats().Registrations, 4u);
}

TEST(PlanCacheTest, RepeatedBindingsHitWithoutArenaGrowth) {
  PoolMonitor M;
  // Warm the shape and the (level >= 5) signature.
  blockedWithdraw(M, 5, [&](int64_t V) { M.withdrawParsed(V); });
  size_t NodesWarm = M.arena().numNodes();

  for (int Round = 0; Round != 8; ++Round)
    blockedWithdraw(M, 5, [&](int64_t V) { M.withdrawParsed(V); });

  // The steady-state bind path interns nothing: same shape, same
  // signature, record found in the bind table.
  EXPECT_EQ(M.arena().numNodes(), NodesWarm);
  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_EQ(S.PlanBindHits, 8u);
  EXPECT_EQ(S.PlanColdBinds, 1u);
  EXPECT_EQ(S.Registrations, 1u);
}

TEST(PlanCacheTest, EdslRepeatedBindingsDoNotGrowArena) {
  PoolMonitor M;
  blockedWithdraw(M, 9, [&](int64_t V) { M.withdrawEdsl(V); });
  size_t NodesWarm = M.arena().numNodes();
  for (int Round = 0; Round != 8; ++Round)
    blockedWithdraw(M, 9, [&](int64_t V) { M.withdrawEdsl(V); });
  EXPECT_EQ(M.arena().numNodes(), NodesWarm);
}

TEST(PlanCacheTest, FrontEndsUnifyOnOneRecord) {
  // The EDSL shape `x >= $i0` bound at 48, the parsed shape `x >= n`
  // bound at 48, and the EDSL shape `x * 2 >= $i0` bound at 96 all
  // canonicalize to `x >= 48` and must share one registration.
  class M1 : public Monitor {
  public:
    void bump() {
      Region R(*this);
      X += 100;
    }
    void waitEdsl() {
      Region R(*this);
      waitUntil(X >= 48);
    }
    void waitParsed() {
      Region R(*this);
      waitUntil("x >= n", locals().bindInt(local("n"), 48));
    }
    void waitScaled() {
      Region R(*this);
      waitUntil(X * 2 >= 96);
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::conditionManager;

  private:
    Shared<int64_t> X{*this, "x", 0};
  };

  M1 M;
  std::thread A([&] { M.waitEdsl(); });
  std::thread B([&] { M.waitParsed(); });
  std::thread C([&] { M.waitScaled(); });
  awaitWaiters(M, 3);
  M.bump();
  A.join();
  B.join();
  C.join();
  EXPECT_EQ(M.conditionManager().stats().Registrations, 1u);
}

TEST(PlanCacheTest, BindHitsRecordCacheReuse) {
  // A bind-table hit on a parked record must count as a cache reuse,
  // exactly like a canonical-table hit on the uncached path.
  PoolMonitor M;
  blockedWithdraw(M, 4, [&](int64_t V) { M.withdrawParsed(V); });
  uint64_t ReusesBefore = M.conditionManager().stats().CacheReuses;
  blockedWithdraw(M, 4, [&](int64_t V) { M.withdrawParsed(V); });
  EXPECT_GT(M.conditionManager().stats().CacheReuses, ReusesBefore);
}

TEST(PlanCacheTest, EvictionDropsBindAliasesAndStaysBounded) {
  MonitorConfig Cfg;
  Cfg.InactiveCacheLimit = 4;
  PoolMonitor M(Cfg);

  // 32 distinct bound values: far past the limit. Eviction must keep the
  // table bounded and drop each evicted record's signature alias.
  for (int64_t N = 1; N <= 32; ++N)
    blockedWithdraw(M, N, [&](int64_t V) { M.withdrawParsed(V); });

  EXPECT_LE(M.conditionManager().inactiveCacheSize(), 4u);
  EXPECT_LE(M.conditionManager().numRegistered(), 5u);
  EXPECT_GE(M.conditionManager().stats().Evictions, 20u);

  // An evicted binding must come back cleanly (fresh cold bind, fresh
  // record), not resolve through a dangling alias.
  uint64_t ColdBefore = M.conditionManager().stats().PlanColdBinds;
  blockedWithdraw(M, 1, [&](int64_t V) { M.withdrawParsed(V); });
  EXPECT_GT(M.conditionManager().stats().PlanColdBinds, ColdBefore);
  EXPECT_EQ(M.level(), 0);
}

TEST(PlanCacheTest, GroundParsedPredicatePlansOnce) {
  class Flagged : public Monitor {
  public:
    void raise() {
      Region R(*this);
      Count += 1;
    }
    void awaitThree() {
      Region R(*this);
      waitUntil("count >= 3");
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::conditionManager;
    using Monitor::planCache;

  private:
    Shared<int64_t> Count{*this, "count", 0};
  };

  Flagged M;
  std::thread W([&] { M.awaitThree(); });
  awaitWaiters(M, 1);
  for (int I = 0; I != 3; ++I)
    M.raise();
  W.join();
  M.awaitThree(); // Fast path through the same memoized Ground plan.
  EXPECT_EQ(M.planCache().stats().ShapeBuilds, 1u);
  EXPECT_EQ(M.conditionManager().stats().Registrations, 1u);
}

TEST(PlanCacheTest, UnsatisfiableBindingIsFatal) {
  class Unsat : public Monitor {
  public:
    void wait() {
      Region R(*this);
      // Satisfiable as a shape (there are n, m with n <= m), dead for
      // this binding: the bind-time interval check must catch it.
      waitUntil("count >= n && count <= m",
                locals().bindInt(local("n"), 5).bindInt(local("m"), 3));
    }

  private:
    Shared<int64_t> Count{*this, "count", 0};
  };
  Unsat M;
  EXPECT_DEATH(M.wait(), "unsatisfiable");
}

TEST(PlanCacheTest, GuardedDisjunctionTakesTrueBranchImmediately) {
  // `n <= 0 || level >= n` with n = 0: the guard conjunction is true for
  // this binding, so the wait returns without blocking.
  class Guarded : public Monitor {
  public:
    void wait(int64_t N) {
      Region R(*this);
      waitUntil("n <= 0 || level >= n", locals().bindInt(local("n"), N));
    }
    using Monitor::conditionManager;

  private:
    Shared<int64_t> Level{*this, "level", 0};
  };
  Guarded M;
  M.wait(0);
  M.wait(-3);
  EXPECT_EQ(M.conditionManager().stats().Waits, 0u);
}

TEST(PlanCacheTest, DifferentialAgainstUncachedPipeline) {
  // The same seeded workload under every policy and both front ends:
  // conservation, a full drain, and every returned wait true under the
  // tree-walk evaluator (expr/Eval), the reference semantics the uncached
  // pipeline used to run.
  AUTOSYNCH_SEEDED_RNG(Rng, 0x91a2c3ull);
  std::vector<int64_t> Demands;
  for (int I = 0; I != 200; ++I)
    Demands.push_back(Rng.range(1, 5));

  for (SignalPolicy Policy : {SignalPolicy::Tagged, SignalPolicy::LinearScan,
                              SignalPolicy::Broadcast}) {
    SCOPED_TRACE(signalPolicyName(Policy));
    MonitorConfig Cfg;
    Cfg.Policy = Policy;
    PoolMonitor M(Cfg);
    constexpr int Threads = 4;
    std::vector<std::thread> Pool;
    for (int T = 0; T != Threads; ++T) {
      Pool.emplace_back([&M, &Demands, T] {
        for (size_t I = T; I < Demands.size();
             I += static_cast<size_t>(Threads)) {
          M.deposit(Demands[I]);
          if (I % 2 == 0)
            M.withdrawEdsl(Demands[I]);
          else
            M.withdrawParsed(Demands[I]);
        }
      });
    }
    for (auto &T : Pool)
      T.join();
    EXPECT_EQ(M.level(), 0);
    EXPECT_EQ(M.referenceMisses(), 0);
    EXPECT_EQ(M.conditionManager().numWaiters(), 0);
    EXPECT_EQ(M.conditionManager().pendingSignals(), 0);
  }
}

TEST(PlanCacheTest, BroadcastAlreadyTrueWaitsUseThePlanPrecheck) {
  // The Broadcast policy registers no predicates, but its already-true
  // waits run the plan's allocation-free compiled check: after the shape
  // is warm, fresh bound values must not grow the arena (the uncached
  // pipeline would intern a globalized tree per value).
  MonitorConfig Cfg;
  Cfg.Policy = SignalPolicy::Broadcast;
  PoolMonitor M(Cfg);
  M.deposit(1'000'000);
  M.withdrawParsed(1); // Warms the parse cache and the plan shape.

  size_t NodesWarm = M.arena().numNodes();
  for (int64_t N = 2; N != 50; ++N)
    M.withdrawParsed(N); // Always true: fast path, fresh value each call.
  EXPECT_EQ(M.arena().numNodes(), NodesWarm)
      << "broadcast already-true waits must not intern per value";
  // One plan for the shape, served from the parse-entry memo afterwards.
  EXPECT_EQ(M.planCache().stats().ShapeBuilds, 1u);
  // No predicate was ever registered and nothing blocked.
  EXPECT_EQ(M.conditionManager().stats().Registrations, 0u);
  EXPECT_EQ(M.conditionManager().stats().Waits, 0u);
}

TEST(PlanCacheTest, BroadcastBlockingWaitsKeepSignalAllSemantics) {
  // Binding the plan must not change how Broadcast blocks or wakes: a
  // blocking wait re-runs the plan's compiled check on each wakeup,
  // resumes via signalAll, and registers nothing (no per-wait
  // globalization either).
  MonitorConfig Cfg;
  Cfg.Policy = SignalPolicy::Broadcast;
  PoolMonitor M(Cfg);
  PlanCountersSnapshot P0 = PlanCounters::global().snapshot();
  blockedWithdraw(M, 5, [&](int64_t V) { M.withdrawParsed(V); });
  EXPECT_EQ((PlanCounters::global().snapshot() - P0).LegacyWaits, 0u);
  EXPECT_EQ(M.level(), 0);
  EXPECT_GE(M.conditionManager().stats().BroadcastSignals, 1u);
  EXPECT_EQ(M.conditionManager().stats().SignalsSent, 0u);
  EXPECT_EQ(M.conditionManager().stats().Registrations, 0u);
  EXPECT_EQ(M.conditionManager().numWaiters(), 0);
}

} // namespace
