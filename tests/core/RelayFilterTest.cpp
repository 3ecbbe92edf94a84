//===- tests/core/RelayFilterTest.cpp - Dirty-set relay tests ---------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Dirty-set-directed relay signaling (MonitorConfig::RelayFilter):
//
//  * behavioral unit tests — read-only exits skip the relay outright,
//    unrelated-variable writes are filtered by read-set intersection,
//    version stamps short-circuit re-evaluation across relay chains, and
//    stamps stay correct across inactive-cache revival and eviction;
//  * read-set extraction — the EDSL and parsed front ends produce plans
//    with identical shared read sets, matching the registered record's;
//  * a differential property suite — every problem monitor driven with an
//    identical seeded op sequence under RelayFilter::DirtySet vs. Always
//    on every relay mechanism x backend must complete with an identical
//    observable summary (a filtered-away wakeup would diverge or hang;
//    hangs are caught by the ctest timeout).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "bench_support/RelayRegistry.h"
#include "core/Monitor.h"
#include "expr/VarSet.h"
#include "parse/PredicateParser.h"
#include "problems/BoundedBuffer.h"
#include "problems/CyclicBarrier.h"
#include "problems/DiningPhilosophers.h"
#include "problems/H2O.h"
#include "problems/ParamBoundedBuffer.h"
#include "problems/ReadersWriters.h"
#include "problems/RoundRobin.h"
#include "problems/SantaClaus.h"
#include "problems/SleepingBarber.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

using namespace autosynch;
using testutil::awaitWaiters;

namespace {

//===----------------------------------------------------------------------===//
// VarSet basics
//===----------------------------------------------------------------------===//

TEST(VarSetTest, IntersectionAndSaturation) {
  VarSet A, B;
  EXPECT_TRUE(A.empty());
  EXPECT_FALSE(A.intersects(B)); // Empty sets intersect nothing.

  A.add(3);
  B.add(7);
  EXPECT_FALSE(A.intersects(B));
  B.add(3);
  EXPECT_TRUE(A.intersects(B));
  EXPECT_TRUE(A.contains(3));
  EXPECT_FALSE(A.contains(7));

  // A VarId beyond the word width saturates to universal: it intersects
  // every non-empty set but still not the empty one.
  VarSet Big;
  Big.add(VarSet::MaxDirect + 5);
  EXPECT_TRUE(Big.universal());
  EXPECT_TRUE(Big.intersects(A));
  VarSet Empty;
  EXPECT_FALSE(Big.intersects(Empty));
  EXPECT_TRUE(Big.contains(0));

  A.clear();
  EXPECT_TRUE(A.empty());
}

//===----------------------------------------------------------------------===//
// Behavioral monitors
//===----------------------------------------------------------------------===//

/// The registry-style scenario monitor shared with bench/relay_dirtyset
/// (see bench_support/RelayRegistry.h for the read/write-set table the
/// assertions below rely on).
using Registry = bench::RelayRegistry;

MonitorConfig relayConfig(SignalPolicy P, RelayFilter F) {
  MonitorConfig Cfg;
  Cfg.Policy = P;
  Cfg.Filter = F;
  return Cfg;
}

class RelayFilterPolicyTest : public ::testing::TestWithParam<SignalPolicy> {};

INSTANTIATE_TEST_SUITE_P(Policies, RelayFilterPolicyTest,
                         ::testing::Values(SignalPolicy::Tagged,
                                           SignalPolicy::LinearScan),
                         [](const auto &Info) {
                           return Info.param == SignalPolicy::Tagged
                                      ? "tagged"
                                      : "linearscan";
                         });

TEST_P(RelayFilterPolicyTest, ReadOnlyExitsSkipTheRelayOutright) {
  Registry M(relayConfig(GetParam(), RelayFilter::DirtySet));
  std::thread W([&] { M.waitLevel(100); });
  awaitWaiters(M, 1);

  M.conditionManager().resetStats();
  constexpr int Ops = 50;
  for (int I = 0; I != Ops; ++I)
    M.peek();

  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_GE(S.RelayDirtySkips, static_cast<uint64_t>(Ops));
  EXPECT_EQ(S.Search.PredicateChecks, 0u);
  EXPECT_EQ(S.Search.SharedExprEvals, 0u);

  M.setLevel(100);
  W.join();
}

TEST_P(RelayFilterPolicyTest, UnrelatedWritesAreFilteredNotEvaluated) {
  Registry M(relayConfig(GetParam(), RelayFilter::DirtySet));
  std::thread W([&] { M.waitLevel(100); });
  awaitWaiters(M, 1);

  M.conditionManager().resetStats();
  constexpr int Ops = 50;
  for (int I = 0; I != Ops; ++I)
    M.bump(); // Writes `stamp`, which no waiter reads.

  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_EQ(S.Search.PredicateChecks, 0u)
      << "a write to a variable outside every read set must not trigger "
         "predicate evaluation";
  EXPECT_GE(S.Search.FilteredExprs, static_cast<uint64_t>(Ops));

  M.setLevel(100);
  W.join();
}

TEST_P(RelayFilterPolicyTest, AlwaysFilterNeverSkips) {
  Registry M(relayConfig(GetParam(), RelayFilter::Always));
  std::thread W([&] { M.waitLevel(100); });
  awaitWaiters(M, 1);

  M.conditionManager().resetStats();
  constexpr int Ops = 50;
  for (int I = 0; I != Ops; ++I)
    M.peek();

  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_EQ(S.RelayDirtySkips, 0u);
  EXPECT_EQ(S.StampShortCircuits, 0u);
  EXPECT_EQ(S.Search.FilteredExprs, 0u);
  // The ablation baseline really scans: every exit ran a search.
  EXPECT_GE(S.RelayCalls, static_cast<uint64_t>(Ops));
  if (GetParam() == SignalPolicy::LinearScan) {
    EXPECT_GE(S.Search.PredicateChecks, static_cast<uint64_t>(Ops));
  }

  M.setLevel(100);
  W.join();
}

TEST_P(RelayFilterPolicyTest, IdempotentWritesKeepTheFastExit) {
  Registry M(relayConfig(GetParam(), RelayFilter::DirtySet));
  std::thread W([&] { M.waitLevel(100); });
  awaitWaiters(M, 1);

  M.conditionManager().resetStats();
  constexpr int Ops = 25;
  for (int I = 0; I != Ops; ++I)
    M.setLevel(0); // Stores the value already there: no dirt.

  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_GE(S.RelayDirtySkips, static_cast<uint64_t>(Ops));
  EXPECT_EQ(S.Search.PredicateChecks, 0u);

  M.setLevel(100);
  W.join();
}

TEST(RelayFilterTest, StampShortCircuitsAcrossRelayChains) {
  // LinearScan makes the scan order deterministic: W1 (level >= 10) parks
  // first, W2 (gate == 1) second. One region writes both variables: the
  // exit scan evaluates W1 false (stamping it) and signals W2. W2 resumes,
  // writes gate back, and its exit relay — with `level` still in the
  // accumulated dirty set but W1's version unchanged — must answer W1's
  // check from the stamp without re-running the bytecode.
  Registry M(relayConfig(SignalPolicy::LinearScan, RelayFilter::DirtySet));
  std::thread W1([&] { M.waitLevel(10); });
  awaitWaiters(M, 1);
  std::atomic<bool> W2Done{false};
  std::thread W2([&] {
    M.waitGate();
    M.setGate(0);
    W2Done = true;
  });
  awaitWaiters(M, 2);

  M.conditionManager().resetStats();
  M.setLevelAndGate(1, 1); // W1 still false; W2 becomes true.
  W2.join();
  EXPECT_TRUE(W2Done.load());

  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_GE(S.StampShortCircuits, 1u)
      << "W2's exit relay re-checked W1 without a stamp hit";

  M.setLevel(10);
  W1.join();
  EXPECT_EQ(M.conditionManager().numWaiters(), 0);
  EXPECT_EQ(M.conditionManager().pendingSignals(), 0);
}

TEST(RelayFilterTest, StampsStayCorrectAcrossRevivalAndEviction) {
  // Revival: a record parked in the inactive cache and revived by a new
  // waiter must be re-evaluated (activation drops the stamp), and the
  // waiter must still complete. Eviction: with a zero cache limit the
  // record is destroyed between waits; the re-registered record starts
  // stampless. Either path losing a wakeup would hang this test.
  for (size_t CacheLimit : {size_t{64}, size_t{0}}) {
    MonitorConfig Cfg =
        relayConfig(SignalPolicy::Tagged, RelayFilter::DirtySet);
    Cfg.InactiveCacheLimit = CacheLimit;
    Registry M(Cfg);

    for (int Round = 0; Round != 4; ++Round) {
      std::thread W([&] { M.waitGate(); });
      awaitWaiters(M, 1);
      // Unrelated traffic first (stamps/filters engage), then the wake.
      M.bump();
      M.setLevel(Round + 1);
      M.setGate(1);
      W.join();
      M.setGate(0);
      EXPECT_EQ(M.conditionManager().numWaiters(), 0);
    }

    const ManagerStats &S = M.conditionManager().stats();
    if (CacheLimit == 0) {
      EXPECT_GE(S.Evictions, 1u);
    } else {
      EXPECT_GE(S.CacheReuses, 1u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Read-set extraction
//===----------------------------------------------------------------------===//

TEST(ReadSetTest, EdslAndParsedFrontsAgree) {
  // The same predicate through both front ends: the plans' shared read
  // sets must be identical (the EDSL shape abstracts its literals into
  // slot locals, which must not leak into the read set).
  class Probe : public Monitor {
  public:
    Probe() : Monitor(MonitorConfig{}) {}

    const WaitPlan *edslPlan() {
      Region R(*this);
      Value Bound[WaitPlan::MaxSlots];
      return planCache().forEdsl((Count + lit(3) <= Cap).ref(),
                                 config().Limits, Bound);
    }

    const WaitPlan *parsedPlan() {
      Region R(*this);
      (void)local("n");
      PredicateParseOptions Options;
      Options.AutoDeclareLocals = true;
      PredicateParseResult PR = parsePredicate("count + n <= cap", arena(),
                                               symbols(), Options);
      EXPECT_TRUE(PR.ok());
      return planCache().forShape(PR.Expr, config().Limits);
    }

    VarSet slotReadSet() {
      Region R(*this);
      VarSet S;
      S.add(Count.id());
      S.add(Cap.id());
      return S;
    }

    using Monitor::arena;
    using Monitor::config;
    using Monitor::planCache;
    using Monitor::symbols;

  private:
    Shared<int64_t> Count{*this, "count", 0};
    Shared<int64_t> Cap{*this, "cap", 100};
  };

  Probe P;
  const WaitPlan *Edsl = P.edslPlan();
  const WaitPlan *Parsed = P.parsedPlan();
  ASSERT_NE(Edsl, nullptr);
  ASSERT_NE(Parsed, nullptr);
  EXPECT_EQ(Edsl->kind(), WaitPlan::Kind::Slotted);
  EXPECT_EQ(Parsed->kind(), WaitPlan::Kind::Slotted);
  EXPECT_TRUE(Edsl->readSet() == Parsed->readSet());
  EXPECT_TRUE(Edsl->readSet() == P.slotReadSet());
  EXPECT_FALSE(Edsl->readSet().universal());
}

TEST(ReadSetTest, RegisteredRecordsSeeEveryReadVariable) {
  // Multi-variable predicate: a write to either variable must reach the
  // waiter; a read-set that dropped one of them would strand it.
  class TwoVar : public Monitor {
  public:
    explicit TwoVar(MonitorConfig Cfg) : Monitor(Cfg) {}
    void waitBoth() {
      Region R(*this);
      waitUntil(A >= lit(1) && B >= lit(1));
    }
    void setA(int64_t V) {
      Region R(*this);
      A = V;
    }
    void setB(int64_t V) {
      Region R(*this);
      B = V;
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::conditionManager;

  private:
    Shared<int64_t> A{*this, "a", 0};
    Shared<int64_t> B{*this, "b", 0};
  };

  for (SignalPolicy P : {SignalPolicy::Tagged, SignalPolicy::LinearScan}) {
    TwoVar M(relayConfig(P, RelayFilter::DirtySet));
    std::thread W([&] { M.waitBoth(); });
    awaitWaiters(M, 1);
    M.setA(1); // Predicate still false; must be evaluated, not filtered.
    M.setB(1); // Now true; the relay must find it through `b` alone.
    W.join();
    EXPECT_EQ(M.conditionManager().numWaiters(), 0);
  }
}

//===----------------------------------------------------------------------===//
// Differential property suite: DirtySet vs Always on the problem monitors
//===----------------------------------------------------------------------===//

struct Combo {
  Mechanism M;
  sync::Backend B;
  RelayFilter F;
};

const std::vector<Combo> &allCombos() {
  static const std::vector<Combo> Combos = [] {
    std::vector<Combo> Out;
    for (Mechanism M : {Mechanism::AutoSynchT, Mechanism::AutoSynch})
      for (sync::Backend B : {sync::Backend::Std, sync::Backend::Futex})
        for (RelayFilter F : {RelayFilter::Always, RelayFilter::DirtySet})
          Out.push_back({M, B, F});
    return Out;
  }();
  return Combos;
}

std::string comboName(const Combo &C) {
  return std::string(mechanismName(C.M)) + "/" + sync::backendName(C.B) +
         "/" + relayFilterName(C.F);
}

/// Runs \p History for every mechanism x backend x filter combination and
/// asserts each summary equals the first one's. The factories read the
/// relay filter through defaultRelayFilter(), restored afterwards.
void differential(
    const std::function<std::vector<int64_t>(const Combo &)> &History) {
  RelayFilter Prev = defaultRelayFilter();
  std::vector<int64_t> Reference;
  const std::vector<Combo> &Combos = allCombos();
  for (size_t I = 0; I != Combos.size(); ++I) {
    setDefaultRelayFilter(Combos[I].F);
    std::vector<int64_t> Summary = History(Combos[I]);
    if (I == 0) {
      Reference = std::move(Summary);
      continue;
    }
    EXPECT_EQ(Summary, Reference)
        << comboName(Combos[I]) << " diverges from "
        << comboName(Combos[0]);
  }
  setDefaultRelayFilter(Prev);
}

TEST(RelayFilterOracleTest, BoundedBufferFifo) {
  AUTOSYNCH_SEEDED_RNG(R, 1201);
  constexpr int64_t Items = 400;
  std::vector<int64_t> Produced;
  for (int64_t I = 0; I != Items; ++I)
    Produced.push_back(R.range(-1000, 1000));

  differential([&](const Combo &C) {
    auto B = makeBoundedBuffer(C.M, 4, C.B);
    std::vector<int64_t> Consumed;
    Consumed.reserve(Items);
    std::thread Producer([&] {
      for (int64_t V : Produced)
        B->put(V);
    });
    for (int64_t I = 0; I != Items; ++I)
      Consumed.push_back(B->take());
    Producer.join();
    Consumed.push_back(B->size());
    return Consumed;
  });
}

TEST(RelayFilterOracleTest, ParamBoundedBufferBatches) {
  AUTOSYNCH_SEEDED_RNG(R, 1202);
  constexpr int Consumers = 3;
  std::vector<std::vector<int64_t>> Takes(Consumers);
  int64_t Total = 0;
  for (auto &T : Takes)
    for (int I = 0; I != 40; ++I) {
      T.push_back(R.range(1, 6));
      Total += T.back();
    }
  std::vector<int64_t> Puts;
  for (int64_t Left = Total; Left > 0;) {
    int64_t N = std::min<int64_t>(Left, R.range(1, 8));
    Puts.push_back(N);
    Left -= N;
  }

  differential([&](const Combo &C) {
    auto B = makeParamBoundedBuffer(C.M, 16, C.B);
    std::vector<std::thread> Pool;
    Pool.emplace_back([&] {
      for (int64_t N : Puts)
        B->put(N);
    });
    for (int Cons = 0; Cons != Consumers; ++Cons)
      Pool.emplace_back([&, Cons] {
        for (int64_t N : Takes[Cons])
          B->take(N);
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{B->size()};
  });
}

TEST(RelayFilterOracleTest, H2OMolecules) {
  constexpr int64_t Molecules = 80;
  constexpr int HThreads = 4;
  differential([&](const Combo &C) {
    auto W = makeH2O(C.M, C.B);
    std::atomic<int64_t> HLeft{2 * Molecules};
    std::vector<std::thread> Pool;
    Pool.emplace_back([&] {
      for (int64_t I = 0; I != Molecules; ++I)
        W->oxygen();
    });
    for (int T = 0; T != HThreads; ++T)
      Pool.emplace_back([&] {
        while (HLeft.fetch_sub(1) > 0)
          W->hydrogen();
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{W->molecules()};
  });
}

TEST(RelayFilterOracleTest, SleepingBarberCuts) {
  constexpr int64_t Cuts = 120;
  constexpr int Customers = 4;
  differential([&](const Combo &C) {
    auto S = makeSleepingBarber(C.M, 3, C.B);
    std::atomic<int64_t> CutsLeft{Cuts};
    std::vector<std::thread> Pool;
    Pool.emplace_back([&] {
      for (int64_t I = 0; I != Cuts; ++I)
        S->cutHair();
    });
    for (int T = 0; T != Customers; ++T)
      Pool.emplace_back([&] {
        while (CutsLeft.fetch_sub(1) > 0)
          while (!S->getHaircut())
            std::this_thread::yield();
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{S->haircuts()};
  });
}

TEST(RelayFilterOracleTest, RoundRobinRotation) {
  constexpr int Threads = 4;
  constexpr int64_t Rounds = 80;
  differential([&](const Combo &C) {
    auto RR = makeRoundRobin(C.M, Threads, C.B);
    std::vector<std::thread> Pool;
    for (int T = 0; T != Threads; ++T)
      Pool.emplace_back([&, T] {
        for (int64_t I = 0; I != Rounds; ++I)
          RR->access(T);
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{RR->accesses()};
  });
}

TEST(RelayFilterOracleTest, ReadersWritersConservation) {
  AUTOSYNCH_SEEDED_RNG(R, 1203);
  constexpr int Actors = 4;
  std::vector<std::vector<bool>> Script(Actors);
  for (auto &S : Script)
    for (int I = 0; I != 100; ++I)
      S.push_back(R.chance(3, 4));

  differential([&](const Combo &C) {
    auto RW = makeReadersWriters(C.M, C.B);
    std::vector<std::thread> Pool;
    for (int A = 0; A != Actors; ++A)
      Pool.emplace_back([&, A] {
        for (bool IsRead : Script[A]) {
          if (IsRead) {
            RW->startRead();
            RW->endRead();
          } else {
            RW->startWrite();
            RW->endWrite();
          }
        }
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{RW->reads(), RW->writes()};
  });
}

TEST(RelayFilterOracleTest, DiningPhilosophersMeals) {
  constexpr int Philosophers = 5;
  constexpr int64_t Meals = 50;
  differential([&](const Combo &C) {
    auto D = makeDiningPhilosophers(C.M, Philosophers, C.B);
    std::vector<std::thread> Pool;
    for (int P = 0; P != Philosophers; ++P)
      Pool.emplace_back([&, P] {
        for (int64_t I = 0; I != Meals; ++I) {
          D->pickUp(P);
          D->putDown(P);
        }
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{D->meals()};
  });
}

TEST(RelayFilterOracleTest, CyclicBarrierGenerations) {
  constexpr int Parties = 4;
  constexpr int64_t Generations = 60;
  differential([&](const Combo &C) {
    auto B = makeCyclicBarrier(C.M, Parties, C.B);
    std::vector<std::vector<int64_t>> Indices(Parties);
    std::vector<std::thread> Pool;
    for (int P = 0; P != Parties; ++P)
      Pool.emplace_back([&, P] {
        for (int64_t G = 0; G != Generations; ++G)
          Indices[P].push_back(B->await());
      });
    for (auto &T : Pool)
      T.join();
    std::vector<int64_t> Histogram(Parties, 0);
    for (auto &V : Indices)
      for (int64_t I : V)
        ++Histogram[I];
    Histogram.push_back(B->trips());
    return Histogram;
  });
}

TEST(RelayFilterOracleTest, SantaClausGroups) {
  constexpr int64_t Deliveries = 12;
  constexpr int64_t Consultations = 36;
  differential([&](const Combo &C) {
    auto S = makeSantaClaus(C.M, /*ReindeerTeam=*/5, /*ElfGroup=*/3, C.B);
    std::atomic<int64_t> RLeft{5 * Deliveries};
    std::atomic<int64_t> ELeft{3 * Consultations};
    std::vector<std::thread> Pool;
    Pool.emplace_back([&] {
      for (int64_t I = 0; I != Deliveries + Consultations; ++I)
        S->santa();
    });
    for (int T = 0; T != 5; ++T)
      Pool.emplace_back([&] {
        while (RLeft.fetch_sub(1) > 0)
          S->reindeer();
      });
    for (int T = 0; T != 6; ++T)
      Pool.emplace_back([&] {
        while (ELeft.fetch_sub(1) > 0)
          S->elf();
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{S->deliveries(), S->consultations()};
  });
}

/// A monitor with more shared variables than the VarSet word width, so
/// both the dirty set and the waiters' read sets saturate. The filter
/// must degrade to conservative (scan everything), never drop a wakeup.
class WideMonitor : public Monitor {
public:
  explicit WideMonitor(MonitorConfig Cfg) : Monitor(Cfg) {
    Vars.reserve(NumVars);
    for (int I = 0; I != NumVars; ++I)
      Vars.push_back(std::make_unique<Shared<int64_t>>(
          *this, "v" + std::to_string(I), 0));
  }

  void set(int I, int64_t V) {
    Region R(*this);
    *Vars[I] = V;
  }

  bool awaitAtLeast(int I, int64_t Want,
                    std::chrono::nanoseconds Timeout) {
    Region R(*this);
    return waitUntilFor(Vars[I]->expr() >= lit(Want), Timeout);
  }

  AUTOSYNCH_TEST_WAITER_PROBE()

  static constexpr int NumVars = 72; // > VarSet::MaxDirect.

private:
  std::vector<std::unique_ptr<Shared<int64_t>>> Vars;
};

TEST_P(RelayFilterPolicyTest, SaturatedSetsNeverDropAWakeup) {
  // Waiters parked on variables above the saturation boundary (their
  // read sets are universal) and below it, while unrelated writes churn
  // the dirty set across the boundary: every waiter must be woken when
  // its own variable is finally written.
  WideMonitor M(relayConfig(GetParam(), RelayFilter::DirtySet));
  constexpr int HighVar = 70, LowVar = 3, NoiseVar = 68;
  std::thread THigh([&] {
    EXPECT_TRUE(
        M.awaitAtLeast(HighVar, 1, std::chrono::seconds(30)));
  });
  std::thread TLow([&] {
    EXPECT_TRUE(M.awaitAtLeast(LowVar, 1, std::chrono::seconds(30)));
  });
  awaitWaiters(M, 2);
  // Noise writes: dirty set saturates (NoiseVar >= 64) and clears again
  // through empty-handed scans; waiters must survive every transition.
  for (int I = 0; I != 50; ++I)
    M.set(NoiseVar, I + 1);
  M.set(HighVar, 1);
  THigh.join();
  M.set(LowVar, 1);
  TLow.join();
}

} // namespace
