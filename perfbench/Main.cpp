//===- perfbench/Main.cpp - The repository benchmark driver ---------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--spans <file>]
///
/// Untraced (--trace 0): times set-up, runs the workload's pinned load
/// threads, and after a warm-up measures fixed 100 ms windows for
/// --seconds. Per window: calls per second, process CPU per call, and the
/// median latency of sampled calls; each metric reports the window at
/// FastQuantile from its fast end.
///
/// Traced (--trace 1): first checks the workload's probe replicas against
/// the library's monitors (Workload::checkReplica); then runs half the
/// time untraced, half with a span around every call; reads the library's
/// process-wide counters over the traced half, tag-search statistics from
/// the condition managers, and the bare Mutex+Condition ping-pong floor;
/// writes the spans to --spans at exit.
///
/// Both modes check the workload's results and print, as the last line of
/// standard output, {"correct", "attempted", "failed", "metrics"}. The exit
/// code is 0 only when every check passed.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "plan/PlanCache.h"
#include "support/ProcStats.h"
#include "sync/Counters.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

using namespace autosynch;
using namespace perfbench;

namespace {

constexpr int MaxThreads = 4;
constexpr uint64_t WindowNs = 100'000'000;
/// Windows are ranked and the one this far from the fast end reported. A
/// co-tenant on the host only ever slows a window, and on shared hosts
/// whole stretches of windows run up to 2x slower; the median is then
/// whichever mix of fast and slow windows a run happened to get, while
/// the fast end tracks the program's own cost. It cannot see a cost that
/// slows only a minority of windows (see run.py).
constexpr double FastQuantile = 0.1;
/// Set-up is timed this many times, a few ms apart so the reps do not all
/// land in one burst of host noise; setup_s is their median.
constexpr int SetupReps = 101;
constexpr auto SetupGap = std::chrono::milliseconds(3);
/// No call completing for this long fails the run (handoff's timed calls
/// expire after 2 s and are retried, so a live run always progresses).
constexpr uint64_t StallNs = 10'000'000'000;

/// Load-thread state lives for the whole process so the watchdog can read
/// the counters at any time; phases reset the rest between runs.
LoadThread Slots[MaxThreads];
std::atomic<uint64_t> MainCalls{0};
std::atomic<uint64_t> CheckFailures{0};
/// Ping-pong round trips: progress for the watchdog, not monitor calls.
std::atomic<uint64_t> PingPongTrips{0};

uint64_t totalOps() {
  uint64_t Sum = MainCalls.load(std::memory_order_relaxed);
  for (LoadThread &T : Slots)
    Sum += T.Ops.load(std::memory_order_relaxed);
  return Sum;
}
uint64_t totalFailed() {
  uint64_t Sum = CheckFailures.load(std::memory_order_relaxed);
  for (LoadThread &T : Slots)
    Sum += T.Failed.load(std::memory_order_relaxed);
  return Sum;
}
uint64_t totalAllocs() {
  uint64_t Sum = 0;
  for (LoadThread &T : Slots)
    Sum += T.Allocs.load(std::memory_order_relaxed);
  return Sum;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// The median of latency samples, estimated as the mean of the samples
/// ranked within 1% of the middle. Samples are whole nanoseconds; a plain
/// median would repeat the same integer across runs and hide small shifts.
double smoothedMedian(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Band = V.size() / 100;
  size_t Mid = V.size() / 2;
  size_t Lo = Mid - std::min(Mid, Band);
  size_t Hi = std::min(V.size(), Mid + Band + 1);
  double Sum = 0;
  for (size_t I = Lo; I < Hi; ++I)
    Sum += V[I];
  return Sum / static_cast<double>(Hi - Lo);
}

double perOp(uint64_t N, uint64_t Ops) {
  return Ops ? static_cast<double>(N) / static_cast<double>(Ops) : 0.0;
}

//===----------------------------------------------------------------------===//
// Counter snapshots
//===----------------------------------------------------------------------===//

/// Process-wide counters, readable at any time.
struct Snapshot {
  uint64_t Ops = 0;
  uint64_t Allocs = 0;
  uint64_t CpuNs = 0;
  uint64_t WallNs = 0;
  ContextSwitches Ctx;
  sync::CountersSnapshot Sync;
  PlanCountersSnapshot Plan;
  sync::RelayCountersSnapshot Relay;
  sync::TimedCountersSnapshot Timed;

  static Snapshot take() {
    Snapshot S;
    S.Ops = totalOps();
    S.Allocs = totalAllocs();
    S.CpuNs = processCpuNs();
    S.WallNs = nowNs();
    S.Ctx = readContextSwitches();
    S.Sync = sync::Counters::global().snapshot();
    S.Plan = PlanCounters::global().snapshot();
    S.Relay = sync::RelayCounters::global().snapshot();
    S.Timed = sync::TimedCounters::global().snapshot();
    return S;
  }
};

void dumpSnapshot(const char *Why) {
  Snapshot S = Snapshot::take();
  std::fprintf(stderr,
               "perfbench: %s\n  ops=%llu failed=%llu allocs=%llu\n"
               "  sync: awaits=%llu signals=%llu signal_alls=%llu "
               "wakeups=%llu\n  plan: bind_hits=%llu cold_binds=%llu "
               "legacy_waits=%llu\n  relay: calls=%llu dirty_skips=%llu "
               "filtered=%llu stamps=%llu\n  timed: waits=%llu "
               "timeouts=%llu wheel_wakeups=%llu\n",
               Why, (unsigned long long)S.Ops,
               (unsigned long long)totalFailed(),
               (unsigned long long)S.Allocs,
               (unsigned long long)S.Sync.Awaits,
               (unsigned long long)S.Sync.Signals,
               (unsigned long long)S.Sync.SignalAlls,
               (unsigned long long)S.Sync.Wakeups,
               (unsigned long long)S.Plan.BindHits,
               (unsigned long long)S.Plan.ColdBinds,
               (unsigned long long)S.Plan.LegacyWaits,
               (unsigned long long)S.Relay.RelayCalls,
               (unsigned long long)S.Relay.DirtySkips,
               (unsigned long long)S.Relay.FilteredExprs,
               (unsigned long long)S.Relay.StampShortCircuits,
               (unsigned long long)S.Timed.TimedWaits,
               (unsigned long long)S.Timed.Timeouts,
               (unsigned long long)S.Timed.WheelWakeups);
  for (int I = 0; I < MaxThreads; ++I)
    std::fprintf(stderr, "  thread %d: ops=%llu\n", I,
                 (unsigned long long)Slots[I].Ops.load());
}

/// Fails the run when no call completes for StallNs: dumps the counters,
/// prints a failed result and exits (the stuck threads cannot be joined).
class Watchdog {
public:
  Watchdog() : Thread([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> G(Lock);
      Done = true;
    }
    Wake.notify_all();
    Thread.join();
  }
  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

private:
  void loop() {
    auto Progress = [] { return totalOps() + PingPongTrips.load(); };
    uint64_t Last = Progress(), LastChange = nowNs();
    std::unique_lock<std::mutex> G(Lock);
    while (!Wake.wait_for(G, std::chrono::milliseconds(100),
                          [this] { return Done; })) {
      uint64_t Now = nowNs(), Ops = Progress();
      if (Ops != Last) {
        Last = Ops;
        LastChange = Now;
      } else if (Now - LastChange > StallNs) {
        dumpSnapshot("no call completed for 10 s");
        std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {}}\n",
                    (unsigned long long)std::max<uint64_t>(totalOps(), 1),
                    (unsigned long long)totalFailed());
        std::fflush(stdout);
        std::_Exit(1);
      }
    }
  }

  std::mutex Lock;
  std::condition_variable Wake;
  bool Done = false;
  std::thread Thread;
};

//===----------------------------------------------------------------------===//
// Load threads
//===----------------------------------------------------------------------===//

/// The pinned load threads of one workload run.
class Load {
public:
  Load(Workload &W, const std::vector<int> &Cpus) : W(W) {
    int N = W.threads();
    Running.store(N);
    int Consumers = 0;
    for (int T = 0; T < N; ++T) {
      Slots[T].reset(static_cast<uint8_t>(T));
      Consumers += W.consumer(T);
    }
    S.ConsumersLeft.store(Consumers);
    for (int T = 0; T < N; ++T)
      Threads.emplace_back([this, T, Cpu = Cpus[T % Cpus.size()]] {
        body(T, Cpu);
      });
    while (Started.load() < N)
      std::this_thread::yield();
    Go.store(true);
  }
  ~Load() {
    if (!Threads.empty())
      stop();
  }
  Load(const Load &) = delete;
  Load &operator=(const Load &) = delete;

  /// Stops the threads through the workload's protocol and joins them.
  void stop() {
    S.Stop.store(true);
    while (S.ConsumersLeft.load() > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    while (Running.load() > 0) {
      W.drainOnce(V);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    W.drainOnce(V);
    for (std::thread &T : Threads)
      T.join();
    Threads.clear();
  }

  /// Runs the workload's checks and records the outcome.
  void finish(std::vector<std::string> &Errors, const std::string &Prefix) {
    W.check(V);
    MainCalls.fetch_add(V.Attempted);
    CheckFailures.fetch_add(V.Failed);
    for (const std::string &E : V.Errors)
      Errors.push_back(Prefix + E);
  }

  bool pinned() const { return PinFailures.load() == 0; }

private:
  void body(int T, int Cpu) {
    if (!pinTo(Cpu))
      PinFailures.fetch_add(1);
    countAllocsInto(&Slots[T].Allocs);
    Started.fetch_add(1);
    while (!Go.load())
      std::this_thread::yield();
    W.run(T, Slots[T], S);
    countAllocsInto(nullptr);
    if (W.consumer(T))
      S.ConsumersLeft.fetch_sub(1);
    Running.fetch_sub(1);
  }

  Workload &W;
  StopState S;
  Verdict V;
  std::atomic<int> Running{0};
  std::atomic<int> Started{0};
  std::atomic<bool> Go{false};
  std::atomic<int> PinFailures{0};
  std::vector<std::thread> Threads;
};

struct Windows {
  std::vector<double> OpsPerS;
  std::vector<double> CpuNsPerOp;
};

/// Samples the run every WindowNs for \p Seconds.
Windows measure(double Seconds) {
  Windows W;
  uint64_t Start = nowNs();
  uint64_t End = Start + static_cast<uint64_t>(Seconds * 1e9);
  Snapshot Prev = Snapshot::take();
  for (uint64_t Next = Start + WindowNs; Next <= End; Next += WindowNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(Next - nowNs()));
    Snapshot Cur = Snapshot::take();
    CurrentWindow.fetch_add(1, std::memory_order_relaxed);
    uint64_t Ops = Cur.Ops - Prev.Ops;
    if (Ops) {
      W.OpsPerS.push_back(static_cast<double>(Ops) * 1e9 /
                          static_cast<double>(Cur.WallNs - Prev.WallNs));
      W.CpuNsPerOp.push_back(static_cast<double>(Cur.CpuNs - Prev.CpuNs) /
                             static_cast<double>(Ops));
    }
    Prev = Cur;
  }
  return W;
}

/// Median sampled call latency of each window (with enough samples), us.
std::vector<double> windowLatencyP50Us(int Threads) {
  std::map<uint32_t, std::vector<double>> ByWindow;
  for (int T = 0; T < Threads; ++T)
    for (const Sample &S : Slots[T].Samples)
      ByWindow[S.Window].push_back(S.Ns / 1000.0);
  std::vector<double> P50s;
  for (auto &[Window, Us] : ByWindow)
    if (Us.size() >= 16)
      P50s.push_back(smoothedMedian(std::move(Us)));
  return P50s;
}

//===----------------------------------------------------------------------===//
// Traced-run helpers
//===----------------------------------------------------------------------===//

struct SpanStats {
  std::vector<double> HandoffUs;
  std::vector<double> CallUs;
  size_t Spans = 0;
};

/// Links each span to its cause through the op ids. A handoff is the
/// causing call's end to the caused call's end.
SpanStats analyzeSpans(const std::vector<Span> &All) {
  SpanStats St;
  St.Spans = All.size();
  std::unordered_map<int64_t, uint64_t> EndOf;
  EndOf.reserve(All.size());
  for (const Span &S : All)
    EndOf[S.OpId] = S.EndNs;
  for (const Span &S : All) {
    St.CallUs.push_back(static_cast<double>(S.EndNs - S.StartNs) / 1000.0);
    if (S.CauseId < 0)
      continue;
    auto It = EndOf.find(S.CauseId);
    if (It != EndOf.end())
      St.HandoffUs.push_back(
          (static_cast<double>(S.EndNs) - static_cast<double>(It->second)) /
          1000.0);
  }
  return St;
}

bool writeSpans(const std::string &Path, const std::vector<Span> &All,
                uint64_t Origin) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "name,start_ns,end_ns,thread,op,cause\n");
  for (const Span &S : All)
    std::fprintf(F, "%s,%llu,%llu,%u,%lld,%lld\n", callName(S.Name),
                 (unsigned long long)(S.StartNs - Origin),
                 (unsigned long long)(S.EndNs - Origin), S.Thread,
                 (long long)S.OpId, (long long)S.CauseId);
  return std::fclose(F) == 0;
}

/// Median one-way handoff of a bare sync::Mutex + sync::Condition
/// ping-pong between two pinned threads on \p B, in microseconds.
double condvarPingPongUs(sync::Backend B, const std::vector<int> &Cpus,
                         double Seconds) {
  sync::Mutex M(B);
  std::unique_ptr<sync::Condition> C = M.newCondition();
  int Turn = 0; // Guarded by M.
  std::atomic<bool> Stop{false};
  constexpr int Block = 64; // Round trips per timed block.
  auto Side = [&](int Me, std::vector<double> *Blocks) {
    pinTo(Cpus[Me % Cpus.size()]);
    for (;;) {
      uint64_t T0 = nowNs();
      for (int I = 0; I < Block; ++I) {
        M.lock();
        while (Turn != Me && Turn >= 0)
          C->await();
        bool Quit = Turn < 0;
        if (!Quit)
          Turn = 1 - Me;
        M.unlock();
        C->signal();
        if (Quit)
          return;
        PingPongTrips.fetch_add(1, std::memory_order_relaxed);
      }
      if (Blocks)
        Blocks->push_back(static_cast<double>(nowNs() - T0) / 1000.0 /
                          (2.0 * Block));
      if (Me == 0 && Stop.load()) {
        M.lock();
        Turn = -1;
        M.unlock();
        C->signal();
        return;
      }
    }
  };
  std::vector<double> Blocks;
  std::thread Peer(Side, 1, nullptr);
  std::thread Lead([&] { Side(0, &Blocks); });
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<uint64_t>(Seconds * 1e9)));
  Stop.store(true);
  Lead.join();
  Peer.join();
  return percentile(Blocks, 0.5);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-34s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted ? Attempted : 1);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + Ms[I].Name + "\": {\"value\": " + fmt(Ms[I].Value) +
           ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string SpansPath;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n",
               Msg);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Val;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Val.empty();
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Val.c_str(), &End);
      if (*End || !(A.Seconds > 0 && A.Seconds <= 120))
        usage("--seconds must be in (0, 120]");
    } else if (Flag == "--trace") {
      if (Val != "0" && Val != "1")
        usage("--trace must be 0 or 1");
      A.Trace = Val == "1";
      HaveTrace = true;
    } else if (Flag == "--spans") {
      A.SpansPath = Val;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (A.Workload.empty() || !HaveSeed || A.Seconds <= 0 || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, A.Seed, false);
  if (!W)
    usage(("unknown workload " + A.Workload).c_str());
  std::vector<int> Cpus = allowedCpus();
  if (Cpus.empty())
    Cpus.push_back(0);
  const sync::Backend Backend = W->backend();
  CpuTicks Ticks0 = readCpuTicks();
  uint64_t Origin = nowNs();

  // Set-up: fresh monitors plus the first call of each predicate shape.
  std::vector<double> SetupS;
  for (int I = 0; I < SetupReps; ++I) {
    uint64_t T0 = nowNs();
    W->setupOnce();
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    std::this_thread::sleep_for(SetupGap);
  }

  Watchdog Dog;
  double Warmup = std::min(1.0, A.Seconds / 5);
  std::vector<std::string> Errors;
  std::vector<Metric> Ms;
  sync::CountersSnapshot Sync0 = sync::Counters::global().snapshot();
  bool Pinned = true;

  if (A.Trace) {
    // The traced run reads tag statistics from probe replicas; check
    // first that they still behave as the library's monitors do.
    Verdict RV;
    W->checkReplica(RV);
    MainCalls.fetch_add(RV.Attempted);
    CheckFailures.fetch_add(RV.Failed);
    Errors.insert(Errors.end(), RV.Errors.begin(), RV.Errors.end());
  }

  W->build();
  {
    Load L(*W, Cpus);
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<uint64_t>(Warmup * 1e9)));
    if (!A.Trace) {
      Sampling.store(true);
      Windows Win = measure(A.Seconds);
      Sampling.store(false);
      L.stop();
      L.finish(Errors, "");
      Ms.push_back(
          {"ops_per_s", percentile(Win.OpsPerS, 1 - FastQuantile), "1/s"});
      Ms.push_back(
          {"cpu_ns_per_op", percentile(Win.CpuNsPerOp, FastQuantile), "ns"});
      Ms.push_back({"op_p50_us",
                    percentile(windowLatencyP50Us(W->threads()), FastQuantile),
                    "us"});
      Ms.push_back({"setup_s", percentile(SetupS, 0.5), "s"});
    } else {
      Windows Plain = measure(A.Seconds / 2);
      Tracing.store(true);
      Snapshot B0 = Snapshot::take();
      Windows Traced = measure(A.Seconds / 2);
      Snapshot B1 = Snapshot::take();
      L.stop();
      Tracing.store(false);
      L.finish(Errors, "");

      std::vector<Span> All;
      for (int T = 0; T < W->threads(); ++T) {
        std::vector<Span> S = Slots[T].spans();
        All.insert(All.end(), S.begin(), S.end());
      }
      SpanStats St = analyzeSpans(All);
      if (!A.SpansPath.empty() && !writeSpans(A.SpansPath, All, Origin))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     A.SpansPath.c_str());
      std::fprintf(stderr, "perfbench: %zu spans, %zu handoffs linked\n",
                   St.Spans, St.HandoffUs.size());

      uint64_t Ops = B1.Ops - B0.Ops;
      auto D = [&](uint64_t Hi, uint64_t Lo) { return perOp(Hi - Lo, Ops); };
      double CpuPlain = percentile(Plain.CpuNsPerOp, FastQuantile);
      double CpuTraced = percentile(Traced.CpuNsPerOp, FastQuantile);
      uint64_t Signals = B1.Sync.Signals - B0.Sync.Signals;
      uint64_t Binds = (B1.Plan.BindHits - B0.Plan.BindHits) +
                       (B1.Plan.ColdBinds - B0.Plan.ColdBinds);
      uint64_t Relays = B1.Relay.RelayCalls - B0.Relay.RelayCalls;

      // Tag-search statistics need the monitor lock, so they are read with
      // the threads stopped: over the whole run on managers the library
      // exports, else over a short replay on probe replicas.
      std::vector<ConditionManager *> Mgrs = W->managers();
      std::unique_ptr<Workload> Probe;
      uint64_t MgrOps = totalOps();
      if (Mgrs.empty()) {
        Probe = makeWorkload(A.Workload, A.Seed, true);
        Probe->build();
        uint64_t P0 = totalOps();
        {
          Load PL(*Probe, Cpus);
          std::this_thread::sleep_for(std::chrono::milliseconds(500));
          PL.stop();
          PL.finish(Errors, "probe: ");
        }
        MgrOps = totalOps() - P0;
        Mgrs = Probe->managers();
      }
      TagSearchStats Tag;
      uint64_t Sent = 0;
      for (ConditionManager *M : Mgrs) {
        const ManagerStats &MS = M->stats();
        Tag.EqLookups += MS.Search.EqLookups;
        Tag.HeapVisits += MS.Search.HeapVisits;
        Tag.PredicateChecks += MS.Search.PredicateChecks;
        Sent += MS.SignalsSent;
      }
      double PingPong = condvarPingPongUs(Backend, Cpus, 0.3);

      Ms = {
          {"tag.eq_lookups_per_op", perOp(Tag.EqLookups, MgrOps), "1/op"},
          {"tag.heap_visits_per_op", perOp(Tag.HeapVisits, MgrOps), "1/op"},
          {"tag.predicate_checks_per_op", perOp(Tag.PredicateChecks, MgrOps),
           "1/op"},
          {"tag.signals_per_check",
           perOp(Sent, std::max<uint64_t>(Tag.PredicateChecks, 1)), "ratio"},
          {"tag.filtered_exprs_per_op",
           D(B1.Relay.FilteredExprs, B0.Relay.FilteredExprs), "1/op"},
          {"process.heap_allocs_per_op", D(B1.Allocs, B0.Allocs), "1/op"},
          {"sync.awaits_per_op", D(B1.Sync.Awaits, B0.Sync.Awaits), "1/op"},
          {"sync.signals_per_op", D(B1.Sync.Signals, B0.Sync.Signals),
           "1/op"},
          {"sync.signal_alls_per_op",
           D(B1.Sync.SignalAlls, B0.Sync.SignalAlls), "1/op"},
          {"sync.wakeups_per_signal",
           perOp(B1.Sync.Wakeups - B0.Sync.Wakeups,
                 std::max<uint64_t>(Signals, 1)),
           "ratio"},
          {"sync.os_ctx_switches_per_op", D(B1.Ctx.total(), B0.Ctx.total()),
           "1/op"},
          {"sync.handoff_p50_us", smoothedMedian(St.HandoffUs), "us"},
          {"sync.handoff_p99_us", percentile(St.HandoffUs, 0.99), "us"},
          {"sync.condvar_pingpong_us", PingPong, "us"},
          {"time.timed_waits_per_op",
           D(B1.Timed.TimedWaits, B0.Timed.TimedWaits), "1/op"},
          {"time.timeouts_per_op", D(B1.Timed.Timeouts, B0.Timed.Timeouts),
           "1/op"},
          {"time.wheel_wakeups_per_op",
           D(B1.Timed.WheelWakeups, B0.Timed.WheelWakeups), "1/op"},
          {"plan.bind_hit_ratio",
           perOp(B1.Plan.BindHits - B0.Plan.BindHits,
                 std::max<uint64_t>(Binds, 1)),
           "ratio"},
          {"plan.cold_binds_per_op", D(B1.Plan.ColdBinds, B0.Plan.ColdBinds),
           "1/op"},
          {"plan.legacy_waits_per_op",
           D(B1.Plan.LegacyWaits, B0.Plan.LegacyWaits), "1/op"},
          {"core.relay_calls_per_op", perOp(Relays, Ops), "1/op"},
          {"core.relay_dirty_skip_ratio",
           perOp(B1.Relay.DirtySkips - B0.Relay.DirtySkips,
                 std::max<uint64_t>(Relays, 1)),
           "ratio"},
          {"core.stamp_short_circuits_per_op",
           D(B1.Relay.StampShortCircuits, B0.Relay.StampShortCircuits),
           "1/op"},
          {"problems.call_p99_us", percentile(St.CallUs, 0.99), "us"},
          {"trace.overhead_pct",
           CpuPlain > 0 ? 100.0 * (CpuTraced - CpuPlain) / CpuPlain : 0.0,
           "%"},
      };
    }
    // Threads share cores when the host has fewer CPUs than the workload.
    Pinned = L.pinned() && static_cast<size_t>(W->threads()) <= Cpus.size();
  }

  // Relay invariance (paper §4.2): AutoSynch never broadcasts.
  uint64_t SignalAlls =
      sync::Counters::global().snapshot().SignalAlls - Sync0.SignalAlls;
  if (SignalAlls)
    Errors.push_back(std::to_string(SignalAlls) + " signalAll call(s)");
  double Steal = stealPct(Ticks0, readCpuTicks());
  if (A.Trace)
    Ms.push_back({"host.steal_pct", Steal, "%"});

  for (const std::string &E : Errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", E.c_str());
  std::printf("{\"host\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"threads\": %d, \"backend\": \"%s\", \"nproc\": %u, "
              "\"allowed_cpus\": %zu, \"pinned\": %s, \"build_type\": "
              "\"%s\", \"compiler\": \"%s\", \"steal_pct\": %.3f}}\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, W->threads(),
              sync::backendName(Backend),
              std::thread::hardware_concurrency(), Cpus.size(),
              Pinned ? "true" : "false", PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, Steal);
  printResult(Errors.empty(), totalOps(), totalFailed(), Ms);
  std::fflush(stdout);
  return Errors.empty() ? 0 : 1;
}
