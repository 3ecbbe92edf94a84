//===- tests/sync/SpinParkTest.cpp - Spin-then-park race tests -----------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The futex backend spins before it parks, and its signal skips the wake
// syscall when no waiter is counted as parked. These tests aim the two
// races that design opens at the spin/park boundary:
//
//  * a signal issued without the mutex while the waiter is anywhere
//    between its epoch capture, its spin, and its park (the waiter-count
//    handshake must never drop the only wake);
//  * a spinner taking the mutex from a sleeper that was just woken (the
//    overtaken sleeper must re-advertise waiters, or its peers are
//    stranded asleep and this suite hangs until the ctest timeout).
//
//===----------------------------------------------------------------------===//

#include "sync/Mutex.h"

#include "TestUtil.h"
#include "support/Rng.h"
#include "time/Deadline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

using namespace autosynch;
using namespace autosynch::sync;

namespace {

/// Busy-waits for \p Ns nanoseconds without touching any shared state.
void busyFor(uint64_t Ns) {
  uint64_t End = time::nowNs() + Ns;
  while (time::nowNs() < End) {
  }
}

/// A span of delays that straddles the spin caps: the condition's spin
/// gives up after a few µs (its adaptive limit) to ~10 µs (its cap), the
/// mutex's after up to ~20 µs, so draws from [0, 40 µs] land both inside a
/// spin and after the park.
constexpr int64_t MaxStraddleNs = 40000;

} // namespace

class SpinParkTest : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, SpinParkTest,
                         ::testing::Values(Backend::Std, Backend::Futex),
                         [](const auto &Info) {
                           return std::string(backendName(Info.param));
                         });

TEST_P(SpinParkTest, LockFreeSignalIsNeverLostBetweenSpinAndPark) {
  const uint64_t Seed = testutil::effectiveSeed(0x5b1a7e);
  SCOPED_TRACE(testutil::seedNote(0x5b1a7e));
  constexpr int Rounds = 20000;
  constexpr uint64_t WaitNs = 1000000000; // 1 s: far past any signal delay.

  Mutex M(GetParam());
  auto C = M.newCondition();
  // Round handshake between the two threads, outside the mutex so the
  // signal really is lock-free. The first timed-out wait (LostAt) ends the
  // run: a lost wake costs a full second per round, and one is a failure.
  std::atomic<int> Armed{-1}, Finished{-1}, LostAt{-1};

  std::thread Waiter([&] {
    for (int R = 0; R != Rounds && LostAt.load() < 0; ++R) {
      M.lock();
      uint64_t E = C->epoch();
      uint64_t Deadline = time::nowNs() + WaitNs;
      Armed.store(R, std::memory_order_release);
      while (C->epoch() == E) {
        if (C->awaitUntil(Deadline, E)) {
          LostAt.store(R);
          break;
        }
      }
      M.unlock();
      Finished.store(R, std::memory_order_release);
    }
  });

  Rng Delays(Seed);
  for (int R = 0; R != Rounds && LostAt.load() < 0; ++R) {
    // Poll before yielding, so a zero delay really lands within a few
    // hundred ns of the waiter's epoch capture.
    for (int Poll = 0; Armed.load(std::memory_order_acquire) != R; ++Poll)
      if (Poll > 1000)
        std::this_thread::yield();
    // A quarter of the signals race the waiter's unlock, a quarter catch
    // it spinning, and the rest spread past the park.
    uint64_t Pick = Delays.next() % 4;
    int64_t Delay = Pick == 0   ? 0
                    : Pick == 1 ? Delays.range(0, MaxStraddleNs / 10)
                                : Delays.range(0, MaxStraddleNs);
    busyFor(static_cast<uint64_t>(Delay));
    if (R % 4 == 3)
      C->signalAll();
    else
      C->signal();
    while (Finished.load(std::memory_order_acquire) != R)
      std::this_thread::yield();
  }
  Waiter.join();
  EXPECT_EQ(LostAt.load(), -1) << "a wait slept through a lock-free signal";
}

TEST_P(SpinParkTest, SpinnersAndSleepersShareTheMutexExactly) {
  const uint64_t Seed = testutil::effectiveSeed(0x10c4ed);
  SCOPED_TRACE(testutil::seedNote(0x10c4ed));
  // 2 x nproc threads: more than can run, so some always sleep while
  // others spin on the same unlock.
  const int Threads =
      2 * std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  constexpr int Iters = 1500;

  Mutex M(GetParam());
  int64_t Counter = 0;     // Plain: a race here is a mutual-exclusion bug.
  int Inside = 0;          // Threads in the critical section; must stay 1.
  int MaxInside = 0;

  std::vector<std::thread> Pool;
  for (int T = 0; T != Threads; ++T) {
    Pool.emplace_back([&, T] {
      Rng Holds(Seed + static_cast<uint64_t>(T));
      for (int I = 0; I != Iters; ++I) {
        // Half the holds end well inside a spin, half outlast it and
        // force the waiters to park.
        uint64_t Hold = Holds.chance(1, 2)
                            ? static_cast<uint64_t>(Holds.range(0, 1000))
                            : static_cast<uint64_t>(
                                  Holds.range(MaxStraddleNs / 4, MaxStraddleNs));
        M.lock();
        MaxInside = std::max(MaxInside, ++Inside);
        ++Counter;
        busyFor(Hold);
        --Inside;
        M.unlock();
        // Think outside the lock, or the releasing thread re-takes it
        // before any spinner or sleeper gets a look in.
        busyFor(static_cast<uint64_t>(Holds.range(0, MaxStraddleNs / 2)));
      }
    });
  }
  for (auto &T : Pool)
    T.join();
  EXPECT_EQ(Counter, static_cast<int64_t>(Threads) * Iters);
  EXPECT_EQ(MaxInside, 1);
  // Fully released: no thread left the state claiming an owner.
  EXPECT_TRUE(M.tryLock());
  M.unlock();
}

TEST_P(SpinParkTest, TightRelockHandoffAndLeftoverHintStayLive) {
  // A one-slot buffer between two threads that re-lock at once after each
  // release: the pattern in which the futex mutex defers to the spinner or
  // the woken condition waiter already on its way to the lock. Every item
  // must arrive exactly once and no timed wait may expire.
  constexpr int Items = 20000;
  constexpr uint64_t WaitNs = 1000000000;

  Mutex M(GetParam());
  auto NotFull = M.newCondition();
  auto NotEmpty = M.newCondition();
  bool Full = false;
  int64_t Slot = 0;
  std::atomic<int> Expired{0};

  // Waits on \p C until \p Ready holds; the mutex is held.
  auto WaitFor = [&](Condition &C, auto Ready) {
    uint64_t Deadline = time::nowNs() + WaitNs;
    while (!Ready()) {
      if (C.awaitUntil(Deadline, C.epoch()) && !Ready()) {
        Expired.fetch_add(1);
        Deadline = time::nowNs() + WaitNs;
      }
    }
  };

  std::thread Producer([&] {
    for (int I = 1; I <= Items; ++I) {
      M.lock();
      WaitFor(*NotFull, [&] { return !Full; });
      Slot = I;
      Full = true;
      M.unlock();
      NotEmpty->signal();
    }
  });
  int64_t Sum = 0;
  for (int I = 1; I <= Items; ++I) {
    M.lock();
    WaitFor(*NotEmpty, [&] { return Full; });
    EXPECT_EQ(Slot, I);
    Sum += Slot;
    Full = false;
    M.unlock();
    NotFull->signal();
  }
  Producer.join();
  EXPECT_EQ(Sum, static_cast<int64_t>(Items) * (Items + 1) / 2);
  EXPECT_EQ(Expired.load(), 0);

  // Whatever hint the handoff left behind, a lone thread takes the mutex
  // after at most one bounded deferral, not after waiting for a thread
  // that is no longer coming.
  uint64_t Start = time::nowNs();
  for (int I = 0; I != 10000; ++I) {
    M.lock();
    M.unlock();
  }
  EXPECT_LT(time::nowNs() - Start, WaitNs);
}
