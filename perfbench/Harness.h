//===- perfbench/Harness.h - Load threads, call timing, spans --*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's view of the library is from outside: every monitor call
/// a load thread makes goes through LoadThread::call, which counts it,
/// times a sample of calls (every call while tracing) and, while tracing,
/// records a span. Nothing here reaches into src/.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "core/ConditionManager.h"
#include "sync/Mutex.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process user+sys CPU time.
uint64_t processCpuNs();

/// The monitor call a span wraps.
enum class CallName : uint8_t { Put, Take, Access };
const char *callName(CallName N);

/// One traced monitor call. OpId is unique within a run; CauseId is the op
/// whose completion let this call complete (-1: none).
struct Span {
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int64_t OpId = -1;
  int64_t CauseId = -1;
  CallName Name = CallName::Put;
  uint8_t Thread = 0;
};

/// Set while the traced phase runs; read (relaxed) on every call.
extern std::atomic<bool> Tracing;
/// Set while end-to-end latency samples are kept.
extern std::atomic<bool> Sampling;
/// Index of the current measurement window; bumped by the main thread.
extern std::atomic<uint32_t> CurrentWindow;

/// A sampled call latency and the measurement window it fell in.
struct Sample {
  uint32_t Window = 0;
  uint32_t Ns = 0;
};

/// Sentinel CauseId: read the cause from LoadThread::LatestCause after the
/// call returns (the latest op a peer published as complete).
constexpr int64_t CauseFromPeer = -2;

/// Per-load-thread state, one cache line apart so the per-call counter
/// stores never share a line.
struct alignas(64) LoadThread {
  /// Completed calls. Single writer (the thread); relaxed store.
  std::atomic<uint64_t> Ops{0};
  /// Calls that timed out and were retried. Single writer.
  std::atomic<uint64_t> Failed{0};
  /// operator new calls made on this thread (Alloc.cpp).
  std::atomic<uint64_t> Allocs{0};
  uint8_t Index = 0;
  const std::atomic<int64_t> *LatestCause = nullptr;

  /// Wall latency samples in ns; decimated by half (and the stride
  /// doubled) when full, so they stay uniform over the whole phase.
  std::vector<Sample> Samples;
  uint32_t Stride = 8;
  uint32_t Countdown = 8;

  /// Ring of the most recent spans.
  std::vector<Span> Ring;
  uint64_t RingNext = 0;

  void reset(uint8_t Idx);
  void fail() {
    Failed.store(Failed.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  }

  /// Runs one monitor call \p F (which returns a value) and accounts it.
  template <typename Fn>
  auto call(CallName N, int64_t OpId, int64_t CauseId, Fn &&F) {
    auto Count = [this] {
      Ops.store(Ops.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    };
    if (Tracing.load(std::memory_order_relaxed)) {
      uint64_t T0 = nowNs();
      auto R = F();
      uint64_t T1 = nowNs();
      if (CauseId == CauseFromPeer)
        CauseId = LatestCause->load(std::memory_order_acquire);
      Ring[RingNext++ & (Ring.size() - 1)] = {T0, T1, OpId, CauseId, N, Index};
      Count();
      return R;
    }
    if (--Countdown == 0 && Sampling.load(std::memory_order_relaxed)) {
      uint64_t T0 = nowNs();
      auto R = F();
      sample(nowNs() - T0);
      Countdown = Stride;
      Count();
      return R;
    }
    if (Countdown == 0)
      Countdown = Stride;
    auto R = F();
    Count();
    return R;
  }

  /// The spans in the ring, oldest first.
  std::vector<Span> spans() const;

private:
  void sample(uint64_t Ns);
};

/// Shared stop state of one phase of load threads.
struct StopState {
  std::atomic<bool> Stop{false};
  /// Consumers still running; producers keep going until it reaches 0 so
  /// no consumer is left blocked (see Workload::drainOnce).
  std::atomic<int> ConsumersLeft{0};
};

/// Problems found by a workload's correctness checks.
struct Verdict {
  std::vector<std::string> Errors;
  uint64_t Attempted = 0; ///< Calls made outside the load threads.
  uint64_t Failed = 0;    ///< Calls found wrong by the checks.
  void fail(std::string Msg, uint64_t Calls = 1) {
    Errors.push_back(std::move(Msg));
    Failed += Calls;
  }
};

/// One benchmark workload over the library's problem monitors. run() is
/// the body of load thread \p Tid; the harness starts threads(), pinned,
/// then sets Stop, waits for the consumers to return, calls drainOnce()
/// from the main thread until the producers have returned too (and once
/// more after), joins the threads and calls check().
class Workload {
public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  virtual int threads() const = 0;
  virtual autosynch::sync::Backend backend() const = 0;
  /// Whether thread \p Tid stops at Stop (a consumer) or keeps serving
  /// until every consumer has stopped (a producer).
  virtual bool consumer(int /*Tid*/) const { return true; }

  /// Builds monitors for a run (not timed).
  virtual void build() = 0;
  /// Constructs throwaway monitors and makes the first call of each
  /// predicate shape; timed by the caller as set-up.
  virtual void setupOnce() = 0;
  virtual void run(int Tid, LoadThread &T, StopState &S) = 0;
  /// Main-thread side of the stop protocol: removes what producers left
  /// so none stays blocked on a full buffer.
  virtual void drainOnce(Verdict & /*V*/) {}
  virtual void check(Verdict &V) = 0;
  /// Runs one seeded script, one waiter at a time, on the library's
  /// monitor and on the probe replica the traced run reads tag statistics
  /// from (see makeWorkload), and fails \p V if the two move the
  /// process-wide counters differently. Nothing to check without a
  /// replica.
  virtual void checkReplica(Verdict & /*V*/) {}

  /// Condition managers whose tag-search statistics the traced run reads;
  /// empty when the library's monitors do not export them (the traced run
  /// then replays the workload on probe replicas, see makeWorkload).
  virtual std::vector<autosynch::ConditionManager *> managers() = 0;
};

/// Makes the named workload; null for an unknown name. With \p Probe, the
/// buffer workloads run on benchmark-local replicas of the library's
/// AutoSynch buffers whose condition managers are reachable.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed, bool Probe);

/// From now on, operator new calls on the calling thread add one to
/// \p Counter (null: stop counting). \p Counter must outlive the counting.
/// Defined in Alloc.cpp.
void countAllocsInto(std::atomic<uint64_t> *Counter);

//===----------------------------------------------------------------------===//
// Host
//===----------------------------------------------------------------------===//

/// CPUs this process may run on.
std::vector<int> allowedCpus();
/// Pins the calling thread to \p Cpu; true if it now runs there.
bool pinTo(int Cpu);

/// Aggregate CPU time counters from /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t Total = 0;
  uint64_t Steal = 0;
};
CpuTicks readCpuTicks();
/// Steal share of all CPU time between two readings, in percent.
double stealPct(const CpuTicks &A, const CpuTicks &B);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
