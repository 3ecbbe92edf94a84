//===- sync/Mutex.cpp - Lock/Condition substrate ---------------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "sync/Mutex.h"

#include "support/Check.h"
#include "sync/Counters.h"
#include "sync/Futex.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

#include <sched.h>

using namespace autosynch;
using namespace autosynch::sync;

const char *sync::backendName(Backend B) {
  switch (B) {
  case Backend::Std:
    return "std";
  case Backend::Futex:
    return "futex";
  }
  AUTOSYNCH_UNREACHABLE("invalid sync backend");
}

//===----------------------------------------------------------------------===//
// Spurious-wakeup fault injection (tests only)
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint32_t> SpuriousPeriod{0};
std::atomic<uint32_t> SpuriousTick{0};

/// True when this wait should return spuriously instead of blocking.
bool injectSpurious() {
  uint32_t P = SpuriousPeriod.load(std::memory_order_relaxed);
  if (AUTOSYNCH_LIKELY(P == 0))
    return false;
  return SpuriousTick.fetch_add(1, std::memory_order_relaxed) % P == P - 1;
}
} // namespace

void sync::setSpuriousWakeupPeriod(uint32_t N) {
  SpuriousPeriod.store(N, std::memory_order_relaxed);
}

uint32_t sync::spuriousWakeupPeriod() {
  return SpuriousPeriod.load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Std backend
//===----------------------------------------------------------------------===//

namespace {

class StdMutexImpl final : public detail::MutexImpl {
public:
  void lock() override { M.lock(); }
  void unlock() override { M.unlock(); }
  bool tryLock() override { return M.try_lock(); }

  std::mutex &raw() { return M; }

private:
  std::mutex M;
};

class StdConditionImpl final : public detail::ConditionImpl {
public:
  explicit StdConditionImpl(std::mutex &M) : M(M) {}

  void await() override {
    // The caller already holds M through Mutex::lock(); adopt it so the
    // condition variable can release and re-acquire it, then hand ownership
    // back without unlocking.
    std::unique_lock<std::mutex> Guard(M, std::adopt_lock);
    CV.wait(Guard);
    Guard.release();
  }

  bool awaitUntil(uint64_t DeadlineNs, uint64_t Epoch) override {
    // std::condition_variable cannot close the lost-notify window
    // against notifiers that do not hold the mutex (CancelToken::cancel,
    // the fallback ticker): a notify landing between the epoch check and
    // the condvar's internal waiter registration wakes nobody, and on an
    // unbounded epoch wait that is a hang. The epoch-protected path
    // therefore waits on the epoch word itself with a futex — the
    // value-vs-epoch compare is atomic in the kernel, exactly like the
    // futex backend — while plain await() stays pure condvar.
    EpochWaiters.enter();
    M.unlock();
    bool TimedOut =
        futexWaitUntil(Gen, static_cast<uint32_t>(Epoch), DeadlineNs);
    M.lock();
    EpochWaiters.leave();
    return TimedOut;
  }

  uint64_t epoch() const override {
    return Gen.load(std::memory_order_relaxed);
  }

  // The futex wake is skippable when no epoch waiter exists: a waiter that
  // captured its epoch before the bump self-detects the change in
  // futexWaitUntil's kernel compare. ParkedCount supplies the ordering.
  void signal() override {
    Gen.fetch_add(1, std::memory_order_release);
    CV.notify_one();
    if (EpochWaiters.mayBeParked())
      futexWake(Gen, 1);
  }
  void signalAll() override {
    Gen.fetch_add(1, std::memory_order_release);
    CV.notify_all();
    if (EpochWaiters.mayBeParked())
      futexWake(Gen, INT_MAX);
  }

  void spuriousWake() override {
    M.unlock();
    std::this_thread::yield();
    M.lock();
  }

private:
  std::mutex &M;
  std::condition_variable CV;
  /// Wake epoch; see Condition::epoch(). 32-bit: it doubles as the
  /// futex word for the epoch-protected timed wait.
  std::atomic<uint32_t> Gen{0};
  /// Threads currently blocked in the futex epoch wait.
  ParkedCount EpochWaiters;
};

//===----------------------------------------------------------------------===//
// Futex backend
//===----------------------------------------------------------------------===//

/// Whether spinning can pay off at all: a spinner on the only CPU the
/// process may run on just delays the thread it is waiting for. An
/// unreadable affinity mask counts as several CPUs.
const bool MultiCpu = [] {
  cpu_set_t Set;
  return sched_getaffinity(0, sizeof(Set), &Set) != 0 || CPU_COUNT(&Set) > 1;
}();

/// Spins in the current thread since its last full-cap probe; see
/// SpinBudget.
thread_local uint32_t SpinProbeTick = 0;

/// A bounded adaptive spin, after glibc's adaptive mutex. Each Mutex and
/// Condition keeps an estimate of how many polls its successful spins
/// took; a spin runs for up to twice the estimate plus a floor, never past
/// \p Cap polls. A spin that succeeds moves the estimate halfway toward
/// its length, a spin that runs out halves it, and every 16th spin of a
/// thread runs to the cap so a collapsed estimate can recover. The
/// estimate is a hint, so racy relaxed updates are fine.
template <uint32_t Cap> class SpinBudget {
public:
  /// Polls \p Done, with cpuRelax() between polls, until it returns true
  /// or the budget runs out. Returns whether it did.
  template <typename Fn> bool spin(Fn Done) {
    if (!MultiCpu)
      return false;
    uint32_t E = Est.load(std::memory_order_relaxed);
    uint32_t Limit =
        (++SpinProbeTick & 15) == 0 ? Cap : std::min(Cap, 2 * E + Floor);
    for (uint32_t I = 0; I != Limit; ++I) {
      if (Done()) {
        Est.store((E + I) / 2, std::memory_order_relaxed);
        return true;
      }
      cpuRelax();
    }
    Est.store(E / 2, std::memory_order_relaxed);
    return false;
  }

private:
  static constexpr uint32_t Floor = Cap / 8;
  std::atomic<uint32_t> Est{Cap / 2};
};

/// Spin caps in polls, chosen by a sweep of the benchmark's handoff
/// workload recorded in CHANGES.md. On the 4-vCPU x86 VM the sweep ran on,
/// a poll plus its `pause` took ~20 ns and the kernel's wake latency
/// (futexWake to the woken thread running) was ~9 µs. Most spins stop at
/// the adaptive limit of a few µs; only the probes run to the cap. The
/// condition cap must outlast the wake latency: a probe that gives up
/// sooner cannot lead the two sides of a handoff back out of the state
/// where each parks because the other did.
constexpr uint32_t MutexSpinCap = 1000;
constexpr uint32_t ConditionSpinCap = 500;

/// How many polls a releaser re-locking defers to a pending handoff (see
/// FutexMutexImpl) before it takes the lock anyway: ~2 µs on that VM, many
/// times the few hundred ns a running spinner needs to see the release and
/// claim it, so the cap is only reached when that thread lost its CPU.
constexpr uint32_t HandoffDeferCap = 100;

/// Its address identifies the calling thread; see FutexMutexImpl::LastOwner.
thread_local char ThreadTag;

/// Drepper's three-state futex mutex ("Futexes Are Tricky", 2011):
/// 0 = unlocked, 1 = locked with no waiters, 2 = locked with possible
/// waiters. A contended lock() first spins on the 0 -> 1 transition, so a
/// short critical section costs no park/wake pair; a spinner that wins
/// never advertises itself, and a sleeper it overtook re-advertises state
/// 2 on its own exchange before parking again.
///
/// Spinning alone leaves the lock to whoever reaches it first, usually the
/// thread that just released it: it is running and holds the cache line.
/// In a two-thread handoff the releaser then finds its predicate false and
/// waits on its condition instead of spinning on the lock, so calls cost a
/// condition wait, or a park once spins run out. Each of these patterns
/// sustains itself, and on the benchmark's handoff workload the one a
/// stretch of a run fell into set its rate anywhere from ~70K to 1.6M
/// calls/s. So a thread already on its way to the lock, a spinner here or
/// a condition waiter whose spin a signal just ended
/// (FutexConditionImpl::signal), sets HandoffPending, and the thread that
/// released the lock last defers to it in lock() while the lock is free:
/// it takes the lock once someone else has, or after HandoffDeferCap
/// polls, when it clears the hint. Other lockers do not defer, so a
/// spinner that lost its CPU costs at most one thread one bounded wait.
/// The hint is never cleared by the thread it favours, so it stays set as
/// long as the handoff goes on; a stale hint costs one bounded deferral.
/// It is only a hint: mutual exclusion rests on State alone.
class FutexMutexImpl final : public detail::MutexImpl {
public:
  void lock() override {
    if (HandoffPending.load(std::memory_order_relaxed) &&
        LastOwner.load(std::memory_order_relaxed) == &ThreadTag)
      deferToHandoff();
    acquire();
  }

  /// lock() without deferring to a pending handoff: for a condition waiter
  /// coming back from its wait, the thread a handoff hint may be for.
  void acquire() {
    if (tryLock())
      return;
    if (Spin.spin([this] {
          expectHandoff();
          return tryLock();
        }))
      return;
    // Contended path: withdraw the hint, advertise a waiter by setting
    // state 2, then sleep until the owner hands the lock over.
    if (HandoffPending.load(std::memory_order_relaxed))
      HandoffPending.store(false, std::memory_order_relaxed);
    uint32_t C = State.load(std::memory_order_relaxed);
    if (C != 2)
      C = State.exchange(2, std::memory_order_acquire);
    while (C != 0) {
      futexWait(State, 2);
      C = State.exchange(2, std::memory_order_acquire);
    }
  }

  bool tryLock() override {
    uint32_t C = State.load(std::memory_order_relaxed);
    return C == 0 &&
           State.compare_exchange_strong(C, 1, std::memory_order_acquire);
  }

  void unlock() override {
    LastOwner.store(&ThreadTag, std::memory_order_relaxed);
    if (State.fetch_sub(1, std::memory_order_release) != 1) {
      // There may be waiters (state was 2): fully release and wake one.
      State.store(0, std::memory_order_release);
      futexWake(State, 1);
    }
  }

  /// Asks lockers to let a thread that is already on its way to this
  /// mutex take it first. Stores only when the hint is not yet set, so
  /// spinners re-asserting it every poll do not steal the cache line.
  void expectHandoff() {
    if (!HandoffPending.load(std::memory_order_relaxed))
      HandoffPending.store(true, std::memory_order_relaxed);
  }

private:
  void deferToHandoff() {
    for (uint32_t I = 0; I != HandoffDeferCap; ++I) {
      if (!HandoffPending.load(std::memory_order_relaxed) ||
          State.load(std::memory_order_relaxed) != 0)
        return;
      cpuRelax();
    }
    HandoffPending.store(false, std::memory_order_relaxed);
  }

  std::atomic<uint32_t> State{0};
  std::atomic<bool> HandoffPending{false};
  /// The thread that released the lock last, the one that would otherwise
  /// re-take it ahead of a pending handoff.
  std::atomic<const char *> LastOwner{nullptr};
  SpinBudget<MutexSpinCap> Spin;
};

/// Sequence-counter futex condition variable. A wait captures the sequence
/// number, releases the mutex, spins briefly for the sequence to change,
/// then parks until it does; each signal bumps the sequence, so a signal
/// issued between the unlock and the park is never lost (the kernel's
/// compare fails on the value mismatch). Parked waiters are counted, so a
/// signal whose waiter is still spinning, or that has no waiter, makes no
/// syscall. Spinning waiters are counted too: a signal that ends a spin
/// asks the mutex to let that waiter take it first (see FutexMutexImpl).
class FutexConditionImpl final : public detail::ConditionImpl {
public:
  explicit FutexConditionImpl(FutexMutexImpl &M) : M(M) {}

  void await() override {
    uint32_t S = Seq.load(std::memory_order_relaxed);
    M.unlock();
    waitPast(S, ~uint64_t{0});
    M.acquire();
  }

  bool awaitUntil(uint64_t DeadlineNs, uint64_t Epoch) override {
    // The sequence counter is the epoch: a wake issued after the caller's
    // capture bumps it, which ends the spin or fails the kernel's compare
    // — nothing to lose. The timeout is an absolute CLOCK_MONOTONIC
    // timespec, so spurious returns need no re-arming arithmetic.
    M.unlock();
    bool TimedOut = waitPast(static_cast<uint32_t>(Epoch), DeadlineNs);
    M.acquire();
    return TimedOut;
  }

  uint64_t epoch() const override {
    return Seq.load(std::memory_order_relaxed);
  }

  void signal() override {
    if (Spinning.load(std::memory_order_relaxed) != 0)
      M.expectHandoff();
    Seq.fetch_add(1, std::memory_order_release);
    if (Parked.mayBeParked())
      futexWake(Seq, 1);
  }

  void signalAll() override {
    if (Spinning.load(std::memory_order_relaxed) != 0)
      M.expectHandoff();
    Seq.fetch_add(1, std::memory_order_release);
    if (Parked.mayBeParked())
      futexWake(Seq, INT_MAX);
  }

  void spuriousWake() override {
    M.unlock();
    std::this_thread::yield();
    M.lock();
  }

private:
  /// Spins, then parks, until Seq moves past \p S, a (possibly spurious)
  /// wakeup, or \p DeadlineNs. Returns true iff the deadline passed.
  bool waitPast(uint32_t S, uint64_t DeadlineNs) {
    if (MultiCpu) {
      Spinning.fetch_add(1, std::memory_order_relaxed);
      bool Moved =
          Spin.spin([&] { return Seq.load(std::memory_order_relaxed) != S; });
      Spinning.fetch_sub(1, std::memory_order_relaxed);
      if (Moved)
        return false;
    }
    Parked.enter();
    bool TimedOut = futexWaitUntil(Seq, S, DeadlineNs);
    Parked.leave();
    return TimedOut;
  }

  std::atomic<uint32_t> Seq{0};
  /// Waiters in the spin of waitPast.
  std::atomic<uint32_t> Spinning{0};
  ParkedCount Parked;
  SpinBudget<ConditionSpinCap> Spin;
  FutexMutexImpl &M;
};

} // namespace

//===----------------------------------------------------------------------===//
// Public wrappers
//===----------------------------------------------------------------------===//

Mutex::Mutex(Backend B) : Kind(B) {
  switch (B) {
  case Backend::Std:
    Impl = std::make_unique<StdMutexImpl>();
    return;
  case Backend::Futex:
    Impl = std::make_unique<FutexMutexImpl>();
    return;
  }
  AUTOSYNCH_UNREACHABLE("invalid sync backend");
}

Mutex::~Mutex() = default;

static uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Mutex::lock() {
  Counters &G = Counters::global();
  if (AUTOSYNCH_UNLIKELY(G.timingEnabled())) {
    uint64_t T0 = nowNs();
    Impl->lock();
    G.addLockNs(nowNs() - T0);
    return;
  }
  Impl->lock();
}

void Mutex::unlock() { Impl->unlock(); }
bool Mutex::tryLock() { return Impl->tryLock(); }

std::unique_ptr<Condition> Mutex::newCondition() {
  std::unique_ptr<detail::ConditionImpl> CI;
  switch (Kind) {
  case Backend::Std:
    CI = std::make_unique<StdConditionImpl>(
        static_cast<StdMutexImpl &>(*Impl).raw());
    break;
  case Backend::Futex:
    CI = std::make_unique<FutexConditionImpl>(
        static_cast<FutexMutexImpl &>(*Impl));
    break;
  }
  AUTOSYNCH_CHECK(CI != nullptr, "invalid sync backend");
  // Condition's constructor is private; makeshift make_unique.
  return std::unique_ptr<Condition>(new Condition(std::move(CI)));
}

void Condition::await() {
  Awaits.fetch_add(1, std::memory_order_relaxed);
  Counters &G = Counters::global();
  G.onAwait();
  if (AUTOSYNCH_UNLIKELY(injectSpurious())) {
    Impl->spuriousWake();
    G.onWakeup();
    return;
  }
  if (AUTOSYNCH_UNLIKELY(G.timingEnabled())) {
    uint64_t T0 = nowNs();
    Impl->await();
    G.addAwaitNs(nowNs() - T0);
  } else {
    Impl->await();
  }
  G.onWakeup();
}

uint64_t Condition::epoch() const { return Impl->epoch(); }

bool Condition::awaitUntil(uint64_t DeadlineNs, uint64_t Epoch) {
  Awaits.fetch_add(1, std::memory_order_relaxed);
  Counters &G = Counters::global();
  G.onAwait();
  if (AUTOSYNCH_UNLIKELY(injectSpurious())) {
    Impl->spuriousWake();
    G.onWakeup();
    // The verdict must stay truthful even when the kernel never ran:
    // callers lean on it as their only deadline observation.
    return DeadlineNs != ~uint64_t{0} && nowNs() >= DeadlineNs;
  }
  bool TimedOut;
  if (AUTOSYNCH_UNLIKELY(G.timingEnabled())) {
    uint64_t T0 = nowNs();
    TimedOut = Impl->awaitUntil(DeadlineNs, Epoch);
    G.addAwaitNs(nowNs() - T0);
  } else {
    TimedOut = Impl->awaitUntil(DeadlineNs, Epoch);
  }
  G.onWakeup();
  return TimedOut;
}

void Condition::signal() {
  Signals.fetch_add(1, std::memory_order_relaxed);
  Counters::global().onSignal();
  Impl->signal();
}

void Condition::signalAll() {
  SignalAlls.fetch_add(1, std::memory_order_relaxed);
  Counters::global().onSignalAll();
  Impl->signalAll();
}
