//===- tests/plan/PlanRegistryTest.cpp - Process-wide plan registry tests ---===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The plan registry: a monitor whose plan cache misses imports the
// blueprint an earlier monitor exported instead of planning the shape
// again. Covered here: an import is exactly the plan a local build gives
// (every problem monitor's shapes), keys separate shapes that read alike
// but bind differently, concurrent construction, and the entry cap.
//
// The cap test fills the process's registry, so it is the last test in
// this file; the tests that expect imports skip when the registry is full.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "bench_support/Drivers.h"
#include "core/Monitor.h"
#include "plan/PlanRegistry.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace autosynch;
using namespace autosynch::bench;

namespace {

PlanRegistry &registry() { return PlanRegistry::global(); }

size_t registrySize() { return registry().blueprints().size(); }

/// Whether the registry can still take \p N new shapes.
bool registryHasRoom(size_t N) {
  return registrySize() + N <= PlanRegistry::MaxEntries;
}

/// Runs every problem monitor once under \p M, each through its driver
/// with small sizes, so every waituntil shape they have is planned.
void exerciseProblems(Mechanism M) {
  {
    auto B = makeBoundedBuffer(M, 4);
    runBoundedBuffer(*B, 2, 2, 200);
    int64_t Out;
    EXPECT_TRUE(B->putFor(1, 1'000'000));
    EXPECT_TRUE(B->takeFor(Out, 1'000'000));
    EXPECT_EQ(B->size(), 0);
  }
  {
    auto B = makeParamBoundedBuffer(M, 64);
    runParamBoundedBuffer(*B, 2, 600, 16, /*Seed=*/5);
    EXPECT_EQ(B->size(), 0);
  }
  {
    auto W = makeH2O(M);
    runH2O(*W, 2, 60);
    EXPECT_EQ(W->molecules(), 60);
  }
  {
    auto S = makeSleepingBarber(M, 2);
    runSleepingBarber(*S, 2, 60);
    EXPECT_EQ(S->haircuts(), 60);
  }
  {
    auto RR = makeRoundRobin(M, 3);
    runRoundRobin(*RR, 3, 90);
    EXPECT_EQ(RR->accesses(), 90);
  }
  {
    auto RW = makeReadersWriters(M);
    runReadersWriters(*RW, 2, 2, 120);
    EXPECT_EQ(RW->reads() + RW->writes(), 120);
  }
  {
    auto D = makeDiningPhilosophers(M, 5);
    runDiningPhilosophers(*D, 5, 100);
    EXPECT_EQ(D->meals(), 100);
  }
  {
    auto B = makeCyclicBarrier(M, 3);
    runCyclicBarrier(*B, 20);
  }
  {
    auto S = makeSantaClaus(M);
    runSantaClaus(*S, /*ReindeerThreads=*/9, /*ElfThreads=*/3,
                  /*Deliveries=*/3, /*Consultations=*/3);
  }
  {
    auto L = makeLeaseManager(M, 2);
    runLeaseManager(*L, 3, 90, /*TimedEvery=*/3,
                    /*TimeoutNs=*/10u * 1000 * 1000);
    EXPECT_EQ(L->available(), 2);
  }
  {
    auto B = makeTokenBucket(M, 8);
    runTokenBucket(*B, 2, 8, 200, /*Seed=*/3);
    EXPECT_EQ(B->tokens(), 0);
  }
}

/// A seeded value of type \p Ty (nonzero ints, so no shape can divide by
/// zero).
Value randomValue(Rng &R, TypeKind Ty) {
  if (Ty == TypeKind::Bool)
    return Value::makeBool(R.chance(1, 2));
  int64_t V = R.range(1, 6);
  return Value::makeInt(R.chance(1, 2) ? V : -V);
}

/// Expects \p Imported to be exactly \p Built: both live in one arena over
/// \p Syms. Compares the structure, then the two programs and the two
/// resolutions over seeded bindings.
void expectSamePlan(const WaitPlan &Imported, const WaitPlan &Built,
                    const SymbolTable &Syms, Rng &R) {
  ASSERT_EQ(Imported.kind(), Built.kind());
  EXPECT_EQ(Imported.shape(), Built.shape());
  ASSERT_EQ(Imported.slots().size(), Built.slots().size());
  for (size_t I = 0; I != Built.slots().size(); ++I) {
    EXPECT_EQ(Imported.slots()[I].Var, Built.slots()[I].Var);
    EXPECT_EQ(Imported.slots()[I].Type, Built.slots()[I].Type);
  }
  EXPECT_EQ(Imported.canonical().Expr, Built.canonical().Expr);
  ASSERT_EQ(Imported.canonical().D.Conjs.size(),
            Built.canonical().D.Conjs.size());
  for (size_t I = 0; I != Built.canonical().D.Conjs.size(); ++I)
    EXPECT_EQ(Imported.canonical().D.Conjs[I].Atoms,
              Built.canonical().D.Conjs[I].Atoms);
  EXPECT_EQ(Imported.canonical().D.Exact, Built.canonical().D.Exact);
  EXPECT_TRUE(Imported.readSet() == Built.readSet());
  EXPECT_EQ(Imported.code().numInstructions(),
            Built.code().numInstructions());

  if (Built.kind() != WaitPlan::Kind::Ground &&
      Built.kind() != WaitPlan::Kind::Slotted)
    return;
  for (int Round = 0; Round != 64; ++Round) {
    std::vector<Value> Shared, Locals;
    for (const VarInfo &V : Syms.variables())
      Shared.push_back(randomValue(R, V.Type));
    for (const WaitPlan::Slot &S : Built.slots())
      Locals.push_back(randomValue(R, S.Type));
    EXPECT_EQ(Imported.code().runRawBool(Shared.data(), Locals.data()),
              Built.code().runRawBool(Shared.data(), Locals.data()));
    if (Built.kind() != WaitPlan::Kind::Slotted)
      continue;
    SigEntry SigI[WaitPlan::MaxSigEntries], SigB[WaitPlan::MaxSigEntries];
    size_t NI = 0, NB = 0;
    ASSERT_EQ(Imported.resolve(Locals.data(), SigI, NI),
              Built.resolve(Locals.data(), SigB, NB));
    ASSERT_EQ(NI, NB);
    for (size_t I = 0; I != NB; ++I)
      EXPECT_TRUE(SigI[I] == SigB[I]) << "signature entry " << I;
  }
}

/// Checks one blueprint the way a fresh monitor would use it: a symbol
/// table that declares the blueprint's variables under the same ids, a
/// plan cache that must import the shape, and a local build to compare.
void checkBlueprint(const PlanRegistry::Blueprint &BP, Rng &R) {
  SymbolTable Syms;
  VarId Next = 0;
  for (const VarInfo &V : BP.Vars) {
    // Ids the shape does not mention are padding ('#' is not an
    // identifier character, so padding never shadows a real name).
    for (; Next < V.Id; ++Next)
      Syms.declare("#pad" + std::to_string(Next), TypeKind::Int,
                   VarScope::Shared);
    ASSERT_EQ(Syms.declare(V.Name, V.Type, V.Scope), V.Id);
    Next = V.Id + 1;
  }
  ExprArena Arena;
  ExprRef Shape = BP.Plan->relocate(Arena)->shape();

  PlanCache Cache(Arena, Syms);
  const WaitPlan *Imported = Cache.forShape(Shape, BP.Limits);
  EXPECT_EQ(Cache.stats().ShapeBuilds, 1u);
  EXPECT_EQ(Cache.stats().ShapeImports, 1u);
  std::unique_ptr<WaitPlan> Built =
      WaitPlan::build(Arena, Syms, Shape, BP.Limits);
  expectSamePlan(*Imported, *Built, Syms, R);
}

TEST(PlanRegistryTest, ProblemShapesImportAsTheirLocalBuild) {
  if (!registryHasRoom(64))
    GTEST_SKIP() << "plan registry already full in this process";
  AUTOSYNCH_SEEDED_RNG(R, 811);

  exerciseProblems(Mechanism::AutoSynch);
  ASSERT_GT(registrySize(), 0u);

  // A second round of fresh monitors plans nothing: every miss imports,
  // across mechanisms (the plan does not depend on the signal policy).
  PlanCountersSnapshot P0 = PlanCounters::global().snapshot();
  exerciseProblems(Mechanism::AutoSynchT);
  PlanCountersSnapshot D = PlanCounters::global().snapshot() - P0;
  EXPECT_GT(D.ShapeBuilds, 0u);
  EXPECT_EQ(D.ShapeImports, D.ShapeBuilds);

  for (const PlanRegistry::Blueprint *BP : registry().blueprints()) {
    SCOPED_TRACE(testing::Message() << "blueprint of " << BP->Vars.size()
                                    << " variables");
    checkBlueprint(*BP, R);
  }
}

/// Two shared variables declared in either order; the predicate text
/// "a >= b + n" reads the same in both classes.
template <bool AFirst> class OrderMonitor : public Monitor {
public:
  OrderMonitor(int64_t AV, int64_t BV)
      : Monitor(MonitorConfig{}), N(local("n")) {
    Region R(*this);
    First = AFirst ? AV : BV;
    Second = AFirst ? BV : AV;
  }

  /// Whether "a >= b + n" holds within \p Us microseconds.
  bool await(int64_t NV, int64_t Us) {
    Region R(*this);
    return waitUntilFor("a >= b + n", locals().bindInt(N, NV),
                        std::chrono::microseconds(Us));
  }

  using Monitor::planCache;

private:
  Shared<int64_t> First{*this, AFirst ? "a" : "b", 0};
  Shared<int64_t> Second{*this, AFirst ? "b" : "a", 0};
  VarId N;
};

TEST(PlanRegistryTest, DeclarationOrderSeparatesBlueprints) {
  if (!registryHasRoom(8))
    GTEST_SKIP() << "plan registry already full in this process";
  // a = 5, b = 3 in both classes: "a >= b + n" holds for n <= 2 only.
  OrderMonitor<true> X(5, 3);
  EXPECT_TRUE(X.await(2, 0));
  EXPECT_FALSE(X.await(3, 100));
  EXPECT_EQ(X.planCache().stats().ShapeImports, 0u)
      << "the shape must be new to the process";

  OrderMonitor<false> Y(5, 3);
  EXPECT_TRUE(Y.await(2, 0));
  EXPECT_FALSE(Y.await(3, 100));
  EXPECT_EQ(Y.planCache().stats().ShapeBuilds, 1u);
  EXPECT_EQ(Y.planCache().stats().ShapeImports, 0u)
      << "a different VarId order must not share X's blueprint";

  // A second instance of each class imports its own class's blueprint.
  OrderMonitor<true> X2(5, 3);
  OrderMonitor<false> Y2(5, 3);
  EXPECT_TRUE(X2.await(2, 0));
  EXPECT_TRUE(Y2.await(-1, 0));
  EXPECT_FALSE(Y2.await(3, 100));
  EXPECT_EQ(X2.planCache().stats().ShapeImports, 1u);
  EXPECT_EQ(Y2.planCache().stats().ShapeImports, 1u);
}

/// "lim" is shared here...
class SharedLimitMonitor : public Monitor {
public:
  explicit SharedLimitMonitor(int64_t L) : Monitor(MonitorConfig{}) {
    Region R(*this);
    Lim = L;
  }
  void setLevel(int64_t V) {
    Region R(*this);
    Level = V;
  }
  bool await(int64_t Us) {
    Region R(*this);
    return waitUntilFor("level >= lim", std::chrono::microseconds(Us));
  }
  using Monitor::planCache;

private:
  Shared<int64_t> Level{*this, "level", 0};
  Shared<int64_t> Lim{*this, "lim", 0};
};

/// ...and a waiting thread's local here, under the same VarId.
class LocalLimitMonitor : public Monitor {
public:
  LocalLimitMonitor() : Monitor(MonitorConfig{}), Lim(local("lim")) {}
  void setLevel(int64_t V) {
    Region R(*this);
    Level = V;
  }
  bool await(int64_t L, int64_t Us) {
    Region R(*this);
    return waitUntilFor("level >= lim", locals().bindInt(Lim, L),
                        std::chrono::microseconds(Us));
  }
  using Monitor::planCache;

private:
  Shared<int64_t> Level{*this, "level", 0};
  VarId Lim;
};

TEST(PlanRegistryTest, ScopeSeparatesBlueprints) {
  if (!registryHasRoom(8))
    GTEST_SKIP() << "plan registry already full in this process";
  SharedLimitMonitor S(4);
  S.setLevel(3);
  EXPECT_FALSE(S.await(100));
  S.setLevel(4);
  EXPECT_TRUE(S.await(0));

  LocalLimitMonitor L;
  L.setLevel(3);
  EXPECT_TRUE(L.await(3, 0));
  EXPECT_FALSE(L.await(4, 100));
  EXPECT_EQ(L.planCache().stats().ShapeImports, 0u)
      << "a local 'lim' must not share the shared 'lim' blueprint";

  LocalLimitMonitor L2;
  L2.setLevel(10);
  EXPECT_TRUE(L2.await(10, 0));
  EXPECT_FALSE(L2.await(11, 100));
  EXPECT_EQ(L2.planCache().stats().ShapeImports, 1u);
  SharedLimitMonitor S2(4);
  S2.setLevel(4);
  EXPECT_TRUE(S2.await(0));
  EXPECT_EQ(S2.planCache().stats().ShapeImports, 1u);
}

TEST(PlanRegistryTest, ConcurrentMonitorsOfThreeClasses) {
  constexpr int Threads = 8, Rounds = 40, Shapes = 5;
  const bool Room = registryHasRoom(Shapes);
  PlanCountersSnapshot P0 = PlanCounters::global().snapshot();
  std::vector<std::thread> Pool;
  std::vector<int> Failures(Threads, 0);
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back([T, &Failures] {
      for (int Round = 0; Round != Rounds; ++Round) {
        switch ((T + Round) % 3) {
        case 0: {
          auto B = makeBoundedBuffer(Mechanism::AutoSynch, 2);
          B->put(T);
          B->put(Round);
          Failures[T] += B->take() != T;
          Failures[T] += B->take() != Round;
          break;
        }
        case 1: {
          auto B = makeParamBoundedBuffer(Mechanism::AutoSynch, 16);
          B->put(1 + Round % 8);
          B->put(3);
          B->take(3);
          Failures[T] += B->size() != 1 + Round % 8;
          break;
        }
        case 2: {
          auto RR = makeRoundRobin(Mechanism::AutoSynch, 1);
          RR->access(0);
          RR->access(0);
          Failures[T] += RR->accesses() != 2;
          break;
        }
        }
      }
    });
  for (std::thread &T : Pool)
    T.join();
  for (int T = 0; T != Threads; ++T)
    EXPECT_EQ(Failures[T], 0) << "thread " << T;

  PlanCountersSnapshot D = PlanCounters::global().snapshot() - P0;
  // Every monitor misses each of its shapes once. Only the monitors that
  // missed a shape before its blueprint was published (at most one per
  // thread and shape) built it locally.
  EXPECT_GE(D.ShapeBuilds, static_cast<uint64_t>(Threads * Rounds));
  if (Room) {
    EXPECT_GE(D.ShapeImports, D.ShapeBuilds - Threads * Shapes);
  }
}

/// Each call plans a new parsed shape, "count >= n + K".
class ShapeFactory : public Monitor {
public:
  ShapeFactory() : Monitor(MonitorConfig{}), N(local("n")) {
    Region R(*this);
    Count = 10;
  }
  bool await(int64_t K, int64_t NV, int64_t Us) {
    Region R(*this);
    return waitUntilFor("count >= n + " + std::to_string(K),
                        locals().bindInt(N, NV),
                        std::chrono::microseconds(Us));
  }
  using Monitor::planCache;

private:
  Shared<int64_t> Count{*this, "count", 0};
  VarId N;
};

// Must stay the last test in the file: it fills the process's registry.
TEST(PlanRegistryTest, PastTheCapMissesBuildLocally) {
  int64_t Added = 0;
  {
    ShapeFactory F;
    for (; registrySize() < PlanRegistry::MaxEntries; ++Added)
      ASSERT_TRUE(F.await(1'000'000 + Added, 10 - (1'000'000 + Added), 0));
  }
  EXPECT_EQ(registrySize(), PlanRegistry::MaxEntries);

  // Two fresh monitors, one new shape: neither can export it, so both
  // build it locally, and both evaluate it correctly (count = 10).
  for (int Rep = 0; Rep != 2; ++Rep) {
    ShapeFactory F;
    EXPECT_TRUE(F.await(5'000'000, -4'999'990, 0));
    EXPECT_FALSE(F.await(5'000'000, -4'999'989, 100));
    EXPECT_EQ(F.planCache().stats().ShapeBuilds, 1u);
    EXPECT_EQ(F.planCache().stats().ShapeImports, 0u);
    EXPECT_EQ(registrySize(), PlanRegistry::MaxEntries);
  }

  // Shapes registered before the cap still import.
  if (Added > 0) {
    ShapeFactory F;
    EXPECT_TRUE(F.await(1'000'000, 10 - 1'000'000, 0));
    EXPECT_EQ(F.planCache().stats().ShapeImports, 1u);
  }
}

} // namespace
