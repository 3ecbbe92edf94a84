//===- perfbench/Workloads.cpp - The three benchmark workloads ------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload drives the library's problem monitors (src/problems/
/// factories, Mechanism::AutoSynch) and checks their results. Inputs come
/// from the seed and are generated before any clock starts.
///
/// Stop protocol: consumers return at Stop; producers keep serving until
/// every consumer has returned (so none is left blocked), and the main
/// thread drains what a producer still deposits (so no producer is left
/// blocked). Rotation instead agrees on a last turn (see Rotation::run).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/Monitor.h"
#include "plan/PlanCache.h"
#include "problems/BoundedBuffer.h"
#include "problems/ParamBoundedBuffer.h"
#include "problems/RoundRobin.h"
#include "support/Rng.h"
#include "sync/Counters.h"
#include "time/Deadline.h"

#include <algorithm>
#include <thread>

using namespace autosynch;
using namespace perfbench;
using sync::Backend;

namespace {

constexpr int64_t BufferCap = 64;
constexpr int64_t MaxBatch = 32;
constexpr size_t ScriptLen = 4096; // Power of two.
/// Far above any scheduling stall, yet inside the timer wheel's near range
/// (2^32 ns, about 4.3 s), so every blocked timed call takes a wheel slot.
constexpr uint64_t HandoffTimeoutNs = 2'000'000'000;

std::vector<int64_t> script(uint64_t Seed, uint64_t Stream, int64_t Lo,
                            int64_t Hi) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + Stream);
  std::vector<int64_t> S(ScriptLen);
  for (int64_t &V : S)
    V = R.range(Lo, Hi);
  return S;
}

/// Replica of the library's AutoSynch bounded buffer
/// (problems/BoundedBuffer.cpp) with its condition manager reachable, for
/// the traced run's tag-search statistics only: the factory's monitor does
/// not export them. Same predicates, same eager registration.
class ProbeBoundedBuffer final : public BoundedBufferIface, private Monitor {
public:
  ProbeBoundedBuffer(int64_t Capacity, const MonitorConfig &Cfg)
      : Monitor(Cfg), Buffer(Capacity) {
    registerPredicate("count > 0");
    registerPredicate("count < " + std::to_string(Capacity));
  }

  void put(int64_t Item) override {
    Region R(*this);
    waitUntil(Count < capacity());
    deposit(Item);
  }
  int64_t take() override {
    Region R(*this);
    waitUntil(Count > 0);
    return remove();
  }
  bool putFor(int64_t Item, uint64_t TimeoutNs) override {
    Region R(*this);
    if (!waitUntilFor(Count < capacity(), time::toTimeout(TimeoutNs)))
      return false;
    deposit(Item);
    return true;
  }
  bool takeFor(int64_t &Out, uint64_t TimeoutNs) override {
    Region R(*this);
    if (!waitUntilFor(Count > 0, time::toTimeout(TimeoutNs)))
      return false;
    Out = remove();
    return true;
  }
  int64_t size() const override {
    return const_cast<ProbeBoundedBuffer *>(this)->synchronized(
        [this] { return Count.get(); });
  }
  ConditionManager *manager() { return &conditionManager(); }

private:
  int64_t capacity() const { return static_cast<int64_t>(Buffer.size()); }
  void deposit(int64_t Item) {
    Buffer[PutPtr] = Item;
    PutPtr = (PutPtr + 1) % capacity();
    Count += 1;
  }
  int64_t remove() {
    int64_t Item = Buffer[TakePtr];
    TakePtr = (TakePtr + 1) % capacity();
    Count -= 1;
    return Item;
  }

  Shared<int64_t> Count{*this, "count", 0};
  std::vector<int64_t> Buffer;
  int64_t PutPtr = 0;
  int64_t TakePtr = 0;
};

/// Replica of the library's AutoSynch parameterized bounded buffer
/// (problems/ParamBoundedBuffer.cpp); see ProbeBoundedBuffer.
class ProbeParamBoundedBuffer final : public ParamBoundedBufferIface,
                                      private Monitor {
public:
  ProbeParamBoundedBuffer(int64_t Capacity, const MonitorConfig &Cfg)
      : Monitor(Cfg), Capacity(Capacity) {}

  void put(int64_t NumItems) override {
    Region R(*this);
    waitUntil(Count + NumItems <= Capacity);
    Count += NumItems;
  }
  void take(int64_t NumItems) override {
    Region R(*this);
    waitUntil(Count >= NumItems);
    Count -= NumItems;
  }
  int64_t size() const override {
    return const_cast<ProbeParamBoundedBuffer *>(this)->synchronized(
        [this] { return Count.get(); });
  }
  ConditionManager *manager() { return &conditionManager(); }

private:
  Shared<int64_t> Count{*this, "count", 0};
  const int64_t Capacity;
};

/// The library's bounded buffer, or its probe replica (recording the
/// replica's manager in \p Mgrs).
std::unique_ptr<BoundedBufferIface>
newBoundedBuffer(int64_t Cap, Backend B, bool Probe,
                 std::vector<ConditionManager *> &Mgrs) {
  if (!Probe)
    return makeBoundedBuffer(Mechanism::AutoSynch, Cap, B);
  auto P = std::make_unique<ProbeBoundedBuffer>(
      Cap, configFor(Mechanism::AutoSynch, B));
  Mgrs.push_back(P->manager());
  return P;
}

std::unique_ptr<ParamBoundedBufferIface>
newParamBoundedBuffer(int64_t Cap, Backend B, bool Probe,
                      std::vector<ConditionManager *> &Mgrs) {
  if (!Probe)
    return makeParamBoundedBuffer(Mechanism::AutoSynch, Cap, B);
  auto P = std::make_unique<ProbeParamBoundedBuffer>(
      Cap, configFor(Mechanism::AutoSynch, B));
  Mgrs.push_back(P->manager());
  return P;
}

/// Blocking steps in a replica-check script.
constexpr int ReplicaSteps = 256;

/// The process-wide counters a monitor feeds, as one list.
std::vector<uint64_t> counterValues() {
  sync::CountersSnapshot S = sync::Counters::global().snapshot();
  PlanCountersSnapshot P = PlanCounters::global().snapshot();
  sync::RelayCountersSnapshot R = sync::RelayCounters::global().snapshot();
  sync::TimedCountersSnapshot T = sync::TimedCounters::global().snapshot();
  return {S.Awaits,       S.Signals,    S.SignalAlls,    S.Wakeups,
          P.ShapeBuilds,  P.ShapeHits,  P.BindHits,      P.ColdBinds,
          P.LegacyWaits,  R.RelayCalls, R.DirtySkips,    R.FilteredExprs,
          R.StampShortCircuits,         T.TimedWaits,    T.Timeouts,
          T.Cancels,      T.WheelWakeups};
}

/// How constructing a monitor with \p Make, running \p Script on it and
/// destroying it moves the process-wide counters, followed by the
/// script's own verdict (1: every call blocked as it should). Destruction
/// is inside the window: monitors flush relay and timed counters in
/// batches.
template <typename MakeFn, typename ScriptFn>
std::vector<uint64_t> counterDelta(MakeFn Make, ScriptFn Script) {
  std::vector<uint64_t> D = counterValues();
  bool Ok = Script(*Make()); // The monitor dies at the end of the statement.
  std::vector<uint64_t> After = counterValues();
  for (size_t I = 0; I < D.size(); ++I)
    D[I] = After[I] - D[I];
  D.push_back(Ok);
  return D;
}

/// Fails \p V when a probe replica moved the counters differently from
/// the library's monitor over the same script: the replica no longer
/// matches the monitor whose tag statistics it stands in for.
void compareReplica(const std::string &What, const std::vector<uint64_t> &Lib,
                    const std::vector<uint64_t> &Probe, Verdict &V) {
  ++V.Attempted;
  if (Lib == Probe && Lib.back() == 1)
    return;
  std::string Msg = What + ": probe replica and library monitor disagree; "
                           "counter deltas and verdict (library/replica):";
  for (size_t I = 0; I < Lib.size(); ++I)
    Msg += " " + std::to_string(Lib[I]) + "/" + std::to_string(Probe[I]);
  V.fail(Msg);
}

/// Threads parked in a condition wait, process-wide.
uint64_t parkedThreads() {
  sync::CountersSnapshot S = sync::Counters::global().snapshot();
  return S.Awaits - S.Wakeups;
}

/// Makes a call that must block (\p Block) on a helper thread, waits until
/// the helper has parked, makes the calls that release it (\p Release) on
/// this thread and joins the helper. One waiter at a time and no racing
/// calls, so the counters move the same way on every run. False when the
/// helper returned without parking.
template <typename BlockFn, typename ReleaseFn>
bool blockThenRelease(BlockFn Block, ReleaseFn Release) {
  std::atomic<bool> Returned{false};
  std::thread Helper([&] {
    Block();
    Returned.store(true);
  });
  while (parkedThreads() == 0 && !Returned.load())
    std::this_thread::yield();
  bool Parked = !Returned.load();
  if (Parked)
    Release();
  Helper.join();
  return Parked;
}

/// A seeded script on a capacity-1 bounded buffer: in each step a helper
/// blocks in put or take, untimed or timed, and this thread makes the
/// call that releases it, first letting a zero-timeout call expire in
/// some steps. The item's bits choose the calls.
bool bufferScript(BoundedBufferIface &B, const std::vector<int64_t> &Items) {
  bool Full = false;
  for (int I = 0; I < ReplicaSteps; ++I) {
    int64_t Item = Items[I];
    auto Put = [&B, Item](bool Timed) {
      if (Timed)
        return B.putFor(Item, HandoffTimeoutNs);
      B.put(Item);
      return true;
    };
    auto Take = [&B](bool Timed) {
      int64_t Out = 0;
      if (Timed)
        return B.takeFor(Out, HandoffTimeoutNs);
      (void)B.take();
      return true;
    };
    bool Ok = blockThenRelease(
        [&] { Full ? Put(Item & 2) : Take(Item & 2); },
        [&] {
          int64_t Out = 0;
          if (Item & 4)
            (void)(Full ? B.putFor(Item, 0) : B.takeFor(Out, 0));
          Full ? Take(Item & 8) : Put(Item & 8);
        });
    if (!Ok)
      return false;
    if (Item & 16) {
      Full ? Take(false) : Put(false);
      Full = !Full;
    }
  }
  return true;
}

/// A seeded script of put(k)/take(k) on a parameterized buffer of
/// capacity \p Cap (k <= Cap / 2): a call the count refuses blocks on a
/// helper while this thread moves the count step by step (each step a
/// relay that finds the waiter still false) until the waiter is released.
bool paramScript(ParamBoundedBufferIface &P, int64_t Cap,
                 const std::vector<int64_t> &Sizes) {
  int64_t Count = 0;
  size_t J = 0;
  auto Next = [&] { return Sizes[J++ & (ScriptLen - 1)]; };
  for (int I = 0; I < ReplicaSteps; ++I) {
    int64_t K = Next();
    bool Ok = true;
    if (Count < K) {
      Ok = blockThenRelease([&] { P.take(K); }, [&] {
        while (Count < K) {
          int64_t N = std::min(Next(), Cap - Count);
          P.put(N);
          Count += N;
        }
      });
      Count -= K;
    } else if (Count + K > Cap) {
      Ok = blockThenRelease([&] { P.put(K); }, [&] {
        while (Count + K > Cap) {
          int64_t N = std::min(Next(), Count);
          P.take(N);
          Count -= N;
        }
      });
      Count += K;
    } else if (K & 1) {
      P.put(K);
      Count += K;
    } else {
      P.take(K);
      Count -= K;
    }
    if (!Ok)
      return false;
  }
  return true;
}

/// Shared parts of the workloads: probe flag, managers, mismatch count.
class WorkloadBase : public Workload {
public:
  explicit WorkloadBase(bool Probe) : Probe(Probe) {}

  std::vector<ConditionManager *> managers() override { return Mgrs; }

protected:
  void mismatch() { Mismatches.fetch_add(1, std::memory_order_relaxed); }
  void checkMismatches(Verdict &V) const {
    if (uint64_t M = Mismatches.load())
      V.fail(std::to_string(M) + " call(s) returned a wrong item", M);
  }

  const bool Probe;
  std::vector<ConditionManager *> Mgrs;
  std::atomic<uint64_t> Mismatches{0};
};

/// Producer/consumer through a capacity-1 BoundedBuffer with putFor /
/// takeFor on the futex backend: every call parks once and is relayed
/// once. An expiry is a failed op and is retried.
class Handoff final : public WorkloadBase {
public:
  Handoff(uint64_t Seed, bool Probe)
      : WorkloadBase(Probe), Items(script(Seed, 1, 0, INT64_MAX)) {}

  int threads() const override { return 2; }
  Backend backend() const override { return Backend::Futex; }
  bool consumer(int Tid) const override { return Tid == 1; }

  void build() override {
    BB = newBoundedBuffer(1, Backend::Futex, Probe, Mgrs);
  }

  void checkReplica(Verdict &V) override {
    auto Script = [this](BoundedBufferIface &B) {
      return bufferScript(B, Items);
    };
    compareReplica(
        "handoff",
        counterDelta(
            [] {
              return makeBoundedBuffer(Mechanism::AutoSynch, 1,
                                       Backend::Futex);
            },
            Script),
        counterDelta(
            [] {
              return std::make_unique<ProbeBoundedBuffer>(
                  1, configFor(Mechanism::AutoSynch, Backend::Futex));
            },
            Script),
        V);
  }

  void setupOnce() override {
    auto B = makeBoundedBuffer(Mechanism::AutoSynch, 1, Backend::Futex);
    int64_t Out = 0;
    B->putFor(Items[0], HandoffTimeoutNs);
    B->takeFor(Out, HandoffTimeoutNs);
  }

  void run(int Tid, LoadThread &T, StopState &S) override {
    if (Tid == 0) {
      int64_t I = 0;
      for (; !(S.Stop.load() && S.ConsumersLeft.load() == 0); ++I) {
        int64_t Item = item(I);
        while (!T.call(CallName::Put, 2 * I, -1, [&] {
          return BB->putFor(Item, HandoffTimeoutNs);
        }))
          T.fail();
      }
      Produced = I;
      return;
    }
    int64_t I = 0;
    for (; !S.Stop.load(std::memory_order_relaxed); ++I) {
      int64_t Got = -1;
      while (!T.call(CallName::Take, 2 * I + 1, 2 * I, [&] {
        return BB->takeFor(Got, HandoffTimeoutNs);
      }))
        T.fail();
      if (Got != item(I))
        mismatch();
    }
    Taken = I;
  }

  void check(Verdict &V) override {
    checkMismatches(V);
    V.Attempted += 1;
    if (BB->size() != 0)
      V.fail("handoff: buffer not empty at the end");
    if (Taken != Produced)
      V.fail("handoff: produced " + std::to_string(Produced) +
             " items but took " + std::to_string(Taken));
  }

  /// Takes what the producer left, continuing the FIFO check.
  void drainOnce(Verdict &V) override {
    ++V.Attempted;
    if (BB->size() == 0)
      return;
    ++V.Attempted;
    if (BB->take() != item(Taken))
      V.fail("handoff: drained item out of order");
    ++Taken;
  }

private:
  int64_t item(int64_t I) const { return Items[I & (ScriptLen - 1)]; }

  const std::vector<int64_t> Items;
  std::unique_ptr<BoundedBufferIface> BB;
  int64_t Produced = 0;
  int64_t Taken = 0;
};

/// Four threads in strict rotation on a RoundRobin monitor: every access
/// blocks with three equality-tagged waiters.
class Rotation final : public WorkloadBase {
public:
  static constexpr int N = 4;
  Rotation() : WorkloadBase(false) {}

  int threads() const override { return N; }
  Backend backend() const override { return Backend::Std; }

  void build() override {
    RR = makeRoundRobin(Mechanism::AutoSynch, N, Backend::Std);
    Mgrs = {RR->manager()};
  }

  void setupOnce() override {
    makeRoundRobin(Mechanism::AutoSynch, N, Backend::Std)->access(0);
  }

  /// Turn k belongs to thread k mod N. The first thread to see Stop, due
  /// next at turn k0, fixes the end at k0 + N: no thread can have started
  /// a turn at or beyond it without seeing Stop (its previous turn would
  /// follow turn k0), so every turn below the end is made and no thread
  /// waits for one that is not.
  void run(int Tid, LoadThread &T, StopState &S) override {
    int64_t Turn = Tid;
    for (;; Turn += N) {
      int64_t Final = FinalTurn.load();
      if (Final == INT64_MAX && S.Stop.load()) {
        int64_t Want = Turn + N;
        Final = FinalTurn.compare_exchange_strong(Final, Want) ? Want : Final;
      }
      if (Turn >= Final)
        break;
      T.call(CallName::Access, Turn, Turn - 1, [&] {
        RR->access(Tid);
        return 0;
      });
    }
    Done[Tid] = (Turn - Tid) / N;
  }

  void check(Verdict &V) override {
    ++V.Attempted;
    int64_t Sum = 0;
    for (int64_t D : Done)
      Sum += D;
    if (RR->accesses() != Sum)
      V.fail("rotation: accesses() = " + std::to_string(RR->accesses()) +
             ", threads made " + std::to_string(Sum));
  }

private:
  std::unique_ptr<RoundRobinIface> RR;
  /// The agreed end turn (exclusive); INT64_MAX until the first thread
  /// sees Stop.
  std::atomic<int64_t> FinalTurn{INT64_MAX};
  int64_t Done[N] = {};
};

/// One producer and three consumers on a ParamBoundedBuffer with seeded
/// batch sizes: distinct thresholds on `count + n <= cap` / `count >= n`.
class Batch final : public WorkloadBase {
public:
  static constexpr int N = 4;

  Batch(uint64_t Seed, bool Probe) : WorkloadBase(Probe) {
    for (int T = 0; T < N; ++T)
      Sizes[T] = script(Seed, 10 + T, 1, MaxBatch);
  }

  int threads() const override { return N; }
  Backend backend() const override { return Backend::Std; }
  bool consumer(int Tid) const override { return Tid != 0; }

  void build() override {
    PBB = newParamBoundedBuffer(BufferCap, Backend::Std, Probe, Mgrs);
  }

  void checkReplica(Verdict &V) override {
    auto Script = [this](ParamBoundedBufferIface &P) {
      return paramScript(P, BufferCap, Sizes[0]);
    };
    compareReplica(
        "batch",
        counterDelta(
            [] {
              return makeParamBoundedBuffer(Mechanism::AutoSynch, BufferCap,
                                            Backend::Std);
            },
            Script),
        counterDelta(
            [] {
              return std::make_unique<ProbeParamBoundedBuffer>(
                  BufferCap, configFor(Mechanism::AutoSynch, Backend::Std));
            },
            Script),
        V);
  }

  void setupOnce() override {
    auto P = makeParamBoundedBuffer(Mechanism::AutoSynch, BufferCap,
                                    Backend::Std);
    P->put(Sizes[0][0]);
    P->take(Sizes[0][0]);
  }

  /// Op ids are (sequence << 2) | thread. A take's cause is the latest put
  /// the producer had published when the take returned.
  void run(int Tid, LoadThread &T, StopState &S) override {
    const std::vector<int64_t> &Script = Sizes[Tid];
    int64_t Sum = 0;
    if (Tid == 0) {
      for (int64_t I = 0; !(S.Stop.load() && S.ConsumersLeft.load() == 0);
           ++I) {
        int64_t K = Script[I & (ScriptLen - 1)];
        T.call(CallName::Put, I << 2, -1, [&] { PBB->put(K); return 0; });
        LatestPut.store(I << 2, std::memory_order_release);
        Sum += K;
      }
    } else {
      T.LatestCause = &LatestPut;
      for (int64_t I = 0; !S.Stop.load(std::memory_order_relaxed); ++I) {
        int64_t K = Script[I & (ScriptLen - 1)];
        T.call(CallName::Take, (I << 2) | Tid, CauseFromPeer, [&] {
          PBB->take(K);
          return 0;
        });
        Sum += K;
      }
    }
    Moved[Tid] = Sum;
  }

  void check(Verdict &V) override {
    ++V.Attempted;
    if (PBB->size() != 0)
      V.fail("batch: buffer not empty at the end");
    int64_t Taken = Drained;
    for (int T = 1; T < N; ++T)
      Taken += Moved[T];
    if (Taken != Moved[0])
      V.fail("batch: put " + std::to_string(Moved[0]) + " items, took " +
             std::to_string(Taken));
  }

  void drainOnce(Verdict &V) override {
    ++V.Attempted;
    if (int64_t K = PBB->size(); K > 0) {
      ++V.Attempted;
      PBB->take(K);
      Drained += K;
    }
  }

private:

  std::vector<int64_t> Sizes[N];
  std::unique_ptr<ParamBoundedBufferIface> PBB;
  std::atomic<int64_t> LatestPut{-1};
  int64_t Moved[N] = {};
  int64_t Drained = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  uint64_t Seed, bool Probe) {
  if (Name == "handoff")
    return std::make_unique<Handoff>(Seed, Probe);
  if (Name == "rotation")
    return std::make_unique<Rotation>(); // No inputs; exports its manager.
  if (Name == "batch")
    return std::make_unique<Batch>(Seed, Probe);
  return nullptr;
}
