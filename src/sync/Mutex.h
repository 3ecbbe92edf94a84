//===- sync/Mutex.h - Lock/Condition substrate -----------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synchronization substrate the monitors are built on. The API mirrors
/// Java's Lock/Condition (the paper's substrate): a Mutex owns any number of
/// Conditions created by newCondition(); await/signal/signalAll must be
/// called while holding the mutex.
///
/// Two interchangeable backends:
///  * Backend::Std   — std::mutex + std::condition_variable.
///  * Backend::Futex — raw Linux futexes (Drepper-style mutex, sequence-
///                     counter condition variable) that spin, then park:
///                     a contended lock spins on the unlocked state and a
///                     condition wait spins on the sequence counter, each
///                     for a bounded, per-object adaptive time (none on a
///                     single CPU), before sleeping in the kernel. Parked
///                     condition waiters are counted, so a signal with
///                     nobody parked makes no wake syscall. A thread
///                     re-locking the mutex it released last briefly
///                     defers to a thread already on its way to it (a
///                     spinner, or a waiter whose spin a signal ended).
///
/// Spurious wakeups are permitted by both backends; all users wait in
/// predicate-re-checking loops, exactly as the paper's monitors do.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_SYNC_MUTEX_H
#define AUTOSYNCH_SYNC_MUTEX_H

#include <atomic>
#include <cstdint>
#include <memory>

namespace autosynch::sync {

/// Selects the implementation of Mutex/Condition at construction time.
enum class Backend : uint8_t {
  Std,  ///< std::mutex / std::condition_variable.
  Futex ///< Raw Linux futex implementation.
};

/// Returns a human-readable backend name ("std" or "futex").
const char *backendName(Backend B);

/// Fault-injection hook for robustness tests: when \p N > 0, every Nth
/// Condition::await / awaitUntil across the process returns spuriously
/// (the mutex is genuinely released and re-acquired, no signal consumed)
/// instead of blocking. 0 — the default — disables injection; the hot
/// path then pays one relaxed load. Not for production use.
void setSpuriousWakeupPeriod(uint32_t N);
uint32_t spuriousWakeupPeriod();

/// RAII enable/restore for the spurious-wakeup hook (test scaffolding).
class SpuriousWakeupGuard {
public:
  explicit SpuriousWakeupGuard(uint32_t N) : Prev(spuriousWakeupPeriod()) {
    setSpuriousWakeupPeriod(N);
  }
  ~SpuriousWakeupGuard() { setSpuriousWakeupPeriod(Prev); }
  SpuriousWakeupGuard(const SpuriousWakeupGuard &) = delete;
  SpuriousWakeupGuard &operator=(const SpuriousWakeupGuard &) = delete;

private:
  uint32_t Prev;
};

namespace detail {

class MutexImpl {
public:
  virtual ~MutexImpl() = default;
  virtual void lock() = 0;
  virtual void unlock() = 0;
  virtual bool tryLock() = 0;
};

class ConditionImpl {
public:
  virtual ~ConditionImpl() = default;
  virtual void await() = 0;
  /// Timed wait against the wake epoch captured by the caller; see
  /// Condition::awaitUntil. Returns true iff the deadline passed.
  virtual bool awaitUntil(uint64_t DeadlineNs, uint64_t Epoch) = 0;
  /// Current wake epoch (bumped by every signal/signalAll).
  virtual uint64_t epoch() const = 0;
  virtual void signal() = 0;
  virtual void signalAll() = 0;
  /// Releases the mutex, yields, and re-acquires — a manufactured
  /// spurious wakeup for the fault-injection hook.
  virtual void spuriousWake() = 0;
};

} // namespace detail

class Condition;

/// A non-reentrant mutual-exclusion lock with Java's Lock shape.
class Mutex {
public:
  explicit Mutex(Backend B = Backend::Std);
  ~Mutex();
  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock();
  void unlock();

  /// Attempts to acquire without blocking. Returns true on success.
  bool tryLock();

  /// Creates a condition variable bound to this mutex. The mutex must
  /// outlive the condition.
  std::unique_ptr<Condition> newCondition();

  Backend backend() const { return Kind; }

private:
  Backend Kind;
  std::unique_ptr<detail::MutexImpl> Impl;
};

/// A condition variable bound to a Mutex. await() requires the bound mutex
/// to be held by the calling thread. signal()/signalAll() may be called
/// with OR without the mutex held: both backends tolerate lock-free
/// notification (std::condition_variable by contract; the futex backend by
/// its sequence counter), which is what lets the monitor defer its relay
/// wakeup until after the monitor lock is released (no wake-then-block
/// convoy). The caller must still guarantee the Condition outlives any
/// in-flight lock-free signal.
class Condition {
public:
  /// Atomically releases the mutex and blocks until signaled (or a spurious
  /// wakeup); re-acquires the mutex before returning.
  void await();

  /// The condition's wake epoch: a counter both backends bump on every
  /// signal/signalAll. Timed waits capture it (under the mutex) *before*
  /// their final state checks; awaitUntil then returns immediately if the
  /// epoch has moved, so a wake issued between the capture and the block
  /// — the classic lost-notify window, which CancelToken::cancel and the
  /// timer wheel's lock-free expiry wakes would otherwise fall into — is
  /// never lost. Relaxed read; requires the mutex for the ordering
  /// guarantee above.
  uint64_t epoch() const;

  /// Atomically releases the mutex and blocks until the epoch advances
  /// past \p Epoch, the thread is woken (possibly spuriously), or the
  /// absolute monotonic deadline \p DeadlineNs (time::nowNs domain;
  /// UINT64_MAX = unbounded) passes; re-acquires the mutex before
  /// returning. Returns true iff the wait ended because the deadline
  /// passed — best effort: callers must re-check their predicate and
  /// clock either way.
  bool awaitUntil(uint64_t DeadlineNs, uint64_t Epoch);

  /// Wakes at least one waiting thread, if any are waiting.
  void signal();

  /// Wakes all waiting threads. Counted separately so benches can prove the
  /// AutoSynch policies never use it.
  void signalAll();

  /// Number of await calls on this condition.
  uint64_t awaitCount() const {
    return Awaits.load(std::memory_order_relaxed);
  }
  /// Number of signal calls on this condition.
  uint64_t signalCount() const {
    return Signals.load(std::memory_order_relaxed);
  }
  /// Number of signalAll calls on this condition.
  uint64_t signalAllCount() const {
    return SignalAlls.load(std::memory_order_relaxed);
  }

private:
  friend class Mutex;
  explicit Condition(std::unique_ptr<detail::ConditionImpl> Impl)
      : Impl(std::move(Impl)) {}

  std::unique_ptr<detail::ConditionImpl> Impl;
  // Relaxed atomics: signal()/signalAll() may run outside the mutex.
  std::atomic<uint64_t> Awaits{0};
  std::atomic<uint64_t> Signals{0};
  std::atomic<uint64_t> SignalAlls{0};
};

} // namespace autosynch::sync

#endif // AUTOSYNCH_SYNC_MUTEX_H
