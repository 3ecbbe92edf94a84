//===- sync/Futex.h - Raw Linux futex wrappers -----------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin wrappers over the Linux futex(2) system call, used by both backends
/// of the sync substrate (process-private futexes only), plus the two pieces
/// every spin-then-park wait needs: a CPU relax hint for the spin and a
/// parked-waiter count that lets the waker skip the wake syscall.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_SYNC_FUTEX_H
#define AUTOSYNCH_SYNC_FUTEX_H

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <ctime>

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace autosynch::sync {

/// Blocks until \p Word no longer holds \p Expected or the thread is woken.
/// May return spuriously; callers must re-check their condition.
inline void futexWait(std::atomic<uint32_t> &Word, uint32_t Expected) {
  syscall(SYS_futex, reinterpret_cast<uint32_t *>(&Word), FUTEX_WAIT_PRIVATE,
          Expected, nullptr, nullptr, 0);
}

/// Timed futexWait: blocks until \p Word no longer holds \p Expected, the
/// thread is woken, or the absolute CLOCK_MONOTONIC deadline \p DeadlineNs
/// passes (FUTEX_WAIT_BITSET takes an absolute monotonic timespec — the
/// same clock time::nowNs reads, so no relative-timeout re-arithmetic on
/// spurious wakeups). DeadlineNs == UINT64_MAX waits unboundedly. Returns
/// true iff the wait ended because the deadline passed; may also return
/// spuriously (callers re-check their condition either way).
inline bool futexWaitUntil(std::atomic<uint32_t> &Word, uint32_t Expected,
                           uint64_t DeadlineNs) {
  if (DeadlineNs == ~uint64_t{0}) {
    futexWait(Word, Expected);
    return false;
  }
  timespec TS;
  TS.tv_sec = static_cast<time_t>(DeadlineNs / 1000000000u);
  TS.tv_nsec = static_cast<long>(DeadlineNs % 1000000000u);
  long Rc = syscall(SYS_futex, reinterpret_cast<uint32_t *>(&Word),
                    FUTEX_WAIT_BITSET_PRIVATE, Expected, &TS, nullptr,
                    FUTEX_BITSET_MATCH_ANY);
  return Rc == -1 && errno == ETIMEDOUT;
}

/// Wakes up to \p Count threads blocked in futexWait on \p Word.
/// Returns the number of threads actually woken.
inline int futexWake(std::atomic<uint32_t> &Word, int Count) {
  long Woken = syscall(SYS_futex, reinterpret_cast<uint32_t *>(&Word),
                       FUTEX_WAKE_PRIVATE, Count, nullptr, nullptr, 0);
  return Woken < 0 ? 0 : static_cast<int>(Woken);
}

/// A spin-loop hint: `pause` on x86, `yield` on aarch64, otherwise just a
/// compiler barrier (the loop still re-reads its atomic each round).
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause" ::: "memory");
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

/// Counts the threads that may be blocked in the kernel on one futex word,
/// so a waker can skip futexWake when nobody is parked. The classic futex
/// waiter-count (Dekker) pattern:
///
///   waiter: enter(); futexWait(Word, Seen); leave();
///   waker:  <change Word>; if (mayBeParked()) futexWake(Word, N);
///
/// enter() is a seq_cst RMW ahead of the kernel's compare of Word, and
/// mayBeParked() puts a seq_cst fence between the waker's change of Word
/// and its read of the count. So either the waker sees the count (and
/// wakes), or the waiter's compare sees the changed Word (and does not
/// sleep). With plain release/relaxed ordering the count read could be
/// satisfied before the change commits, read zero, and drop the only wake
/// for a concurrently parking waiter; x86's RMW masks that, weaker
/// architectures do not.
class ParkedCount {
public:
  void enter() { N.fetch_add(1, std::memory_order_seq_cst); }
  void leave() { N.fetch_sub(1, std::memory_order_relaxed); }

  /// Call after changing the futex word; true when a wake may be needed.
  bool mayBeParked() const {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return N.load(std::memory_order_relaxed) != 0;
  }

private:
  std::atomic<uint32_t> N{0};
};

} // namespace autosynch::sync

#endif // AUTOSYNCH_SYNC_FUTEX_H
