//===- workload/Engine.cpp - Scenario execution engine ----------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Determinism and shutdown: per-stage token counts are precomputed
// (simulateTokenCounts), so workers claim work from a per-stage atomic
// countdown and exit exactly when their stage's quota is consumed — no
// poison pills. Timestamp tables are indexed by token id and written on
// the producing side of a channel before put(); the monitor lock makes
// them visible to the taking worker (TSan-clean by construction).
//
// Deadlock freedom rests on three arguments:
//  * The graph is a DAG with edges pointing forward, so channel
//    backpressure cannot cycle.
//  * A barrier stage only issues await tickets up to the largest multiple
//    of Parties within its quota, and the Parties-th arrival trips the
//    group synchronously, so blocked workers never exceed Parties-1 and a
//    free worker always remains to feed the group.
//  * A rotation stage's pending tickets are at most Workers consecutive
//    integers (one per worker), whose residues are distinct, so the
//    current turn always has exactly one admissible waiter.
//
//===----------------------------------------------------------------------===//

#include "workload/Engine.h"

#include "problems/BoundedBuffer.h"
#include "problems/CyclicBarrier.h"
#include "problems/ReadersWriters.h"
#include "problems/RoundRobin.h"
#include "support/Check.h"
#include "support/Rng.h"
#include "workload/Json.h"

#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <thread>

using namespace autosynch;
using namespace autosynch::workload;

namespace {

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void atomicMin(std::atomic<uint64_t> &A, uint64_t V) {
  uint64_t Cur = A.load(std::memory_order_relaxed);
  while (V < Cur &&
         !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
}

void atomicMax(std::atomic<uint64_t> &A, uint64_t V) {
  uint64_t Cur = A.load(std::memory_order_relaxed);
  while (V > Cur &&
         !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
}

/// Uniform double in (0, 1].
double unitUniform(Rng &R) {
  return (static_cast<double>(R.next() >> 11) + 1.0) / 9007199254740992.0;
}

/// Everything one stage needs at run time.
struct StageRuntime {
  const StageSpec *Spec = nullptr;
  int64_t ExpectedTokens = 0;

  /// Input channel (null for sources): a bounded-buffer monitor carrying
  /// token ids.
  std::unique_ptr<BoundedBufferIface> In;

  /// The stage's work monitor (at most one is non-null).
  std::unique_ptr<ReadersWritersIface> RW;
  std::unique_ptr<CyclicBarrierIface> Barrier;
  std::unique_ptr<RoundRobinIface> Rotation;

  /// Work-claim countdown: a worker that decrements it to or below zero
  /// stops; total successful claims == ExpectedTokens.
  std::atomic<int64_t> Remaining{0};

  /// Barrier stages: await tickets; tickets at or above AwaitLimit (the
  /// largest multiple of Parties within the quota) pass through without
  /// awaiting so the final generation always fills.
  std::atomic<int64_t> AwaitTickets{0};
  int64_t AwaitLimit = 0;

  /// Rotation stages: global admission tickets.
  std::atomic<int64_t> RotationTickets{0};

  /// First-arrival / last-completion timestamps (throughput span).
  std::atomic<uint64_t> FirstNs{~0ULL};
  std::atomic<uint64_t> LastNs{0};

  /// Channel-op expiries charged to this stage (timed runs only): takes
  /// from the input channel that expired, plus puts into it that expired
  /// against its backpressure. Rare events; one shared counter is fine.
  std::atomic<int64_t> OpTimeouts{0};

  /// Token arrival stamps at this stage, indexed by token id; written by
  /// the producing side before put(), read by the worker after take().
  /// Deliberately sized to the global token count even under fan-out
  /// (O(stages x tokens) memory, ~8 bytes per cell): direct indexing
  /// needs no locking or id remapping on the hot path.
  std::vector<uint64_t> ArrivalNs;

  /// Per-worker histograms, merged after the join.
  std::vector<LatencyHistogram> WorkerLatency;
  std::vector<LatencyHistogram> WorkerEndToEnd; // Allocated for sinks only.
};

class Engine {
public:
  Engine(const ScenarioSpec &Spec, const RunConfig &Cfg)
      : Spec(Spec), Cfg(Cfg) {}

  ScenarioReport run();

private:
  void forward(StageRuntime &From, int64_t Id, uint64_t Now,
               LatencyHistogram *SinkHist);
  void sourceLoop(StageRuntime &St, int64_t IdBase);
  void workerLoop(StageRuntime &St, int WorkerIdx);

  const ScenarioSpec &Spec;
  const RunConfig &Cfg;
  // unique_ptr: StageRuntime holds atomics and is not movable.
  std::vector<std::unique_ptr<StageRuntime>> Stages;
  std::vector<uint64_t> StartNs; ///< Emission stamp per token id.
};

void Engine::forward(StageRuntime &From, int64_t Id, uint64_t Now,
                     LatencyHistogram *SinkHist) {
  const std::vector<int> &Down = From.Spec->Downstream;
  if (Down.empty()) {
    // Sink: the token leaves the system here.
    SinkHist->record(Now - StartNs[Id]);
    return;
  }
  StageRuntime &Dest =
      *Stages[Down[static_cast<uint64_t>(Id) % Down.size()]];
  Dest.ArrivalNs[Id] = Now;
  atomicMin(Dest.FirstNs, Now);
  if (Cfg.OpTimeoutNs == 0) {
    Dest.In->put(Id);
    return;
  }
  // Timed run: bound every put by the op deadline and retry on expiry —
  // conservation is sacred (quotas are exact), the count is the signal.
  while (!Dest.In->putFor(Id, Cfg.OpTimeoutNs))
    Dest.OpTimeouts.fetch_add(1, std::memory_order_relaxed);
}

void Engine::sourceLoop(StageRuntime &St, int64_t IdBase) {
  Arrival Process =
      Cfg.OverrideArrival ? Cfg.Process : St.Spec->Process;
  double Rate = Cfg.OverrideArrival ? Cfg.RatePerSec : St.Spec->RatePerSec;
  AUTOSYNCH_CHECK(Process == Arrival::Closed || Rate > 0.0,
                  "open-loop source without a rate");
  Rng R(Cfg.Seed ^ (static_cast<uint64_t>(IdBase) * 0x9e3779b97f4a7c15ULL));

  uint64_t DueNs = nowNanos();
  for (int64_t T = 0; T != Cfg.TokensPerSource; ++T) {
    int64_t Id = IdBase + T;
    if (Process != Arrival::Closed) {
      double MeanNs = 1e9 / Rate;
      double Wait = Process == Arrival::OpenUniform
                        ? 2.0 * MeanNs * unitUniform(R)
                        : -MeanNs * std::log(unitUniform(R));
      DueNs += static_cast<uint64_t>(Wait);
      uint64_t Now = nowNanos();
      if (Now < DueNs)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(DueNs - Now));
    }
    uint64_t Now = nowNanos();
    StartNs[Id] = Now;
    atomicMin(St.FirstNs, Now);
    atomicMax(St.LastNs, Now);
    forward(St, Id, Now, /*SinkHist=*/nullptr); // Sources are never sinks.
  }
}

void Engine::workerLoop(StageRuntime &St, int WorkerIdx) {
  const StageSpec &S = *St.Spec;
  LatencyHistogram &Latency = St.WorkerLatency[WorkerIdx];
  LatencyHistogram *Sink =
      S.Downstream.empty() ? &St.WorkerEndToEnd[WorkerIdx] : nullptr;

  for (;;) {
    if (St.Remaining.fetch_sub(1, std::memory_order_relaxed) <= 0)
      break;
    int64_t Id;
    if (Cfg.OpTimeoutNs == 0) {
      Id = St.In->take();
    } else {
      while (!St.In->takeFor(Id, Cfg.OpTimeoutNs))
        St.OpTimeouts.fetch_add(1, std::memory_order_relaxed);
    }

    switch (S.Kind) {
    case StageKind::Queue:
      break; // The channel handoff is the work.
    case StageKind::ReadersWriters: {
      // Derive the read/write choice from the token id, not the worker:
      // the op sequence is then identical across mechanisms and backends.
      Rng Coin(Cfg.Seed ^ (static_cast<uint64_t>(Id) + 1) *
                              0xbf58476d1ce4e5b9ULL);
      if (Coin.chance(static_cast<uint64_t>(S.ReadPercent), 100)) {
        St.RW->startRead();
        St.RW->endRead();
      } else {
        St.RW->startWrite();
        St.RW->endWrite();
      }
      break;
    }
    case StageKind::Barrier: {
      int64_t Ticket =
          St.AwaitTickets.fetch_add(1, std::memory_order_relaxed);
      if (Ticket < St.AwaitLimit)
        St.Barrier->await();
      break;
    }
    case StageKind::Rotation: {
      int64_t Ticket =
          St.RotationTickets.fetch_add(1, std::memory_order_relaxed);
      St.Rotation->access(Ticket % S.Workers);
      break;
    }
    case StageKind::Source:
      AUTOSYNCH_UNREACHABLE("sources have no worker loop");
    }

    uint64_t Now = nowNanos();
    Latency.record(Now - St.ArrivalNs[Id]);
    atomicMax(St.LastNs, Now);
    forward(St, Id, Now, Sink);
  }
}

ScenarioReport Engine::run() {
  std::string Problem = Spec.validate();
  AUTOSYNCH_CHECK(Problem.empty(),
                  ("invalid scenario: " + Problem).c_str());

  // Install the run's relay filter before any monitor is instantiated
  // (the problem factories read it through configFor()); restored before
  // returning so a sweep cell cannot leak its filter into later runs.
  RelayFilter PrevFilter = defaultRelayFilter();
  setDefaultRelayFilter(Cfg.Filter);

  std::vector<int64_t> Counts =
      simulateTokenCounts(Spec, Cfg.TokensPerSource);

  int64_t NumSources = 0;
  for (const StageSpec &S : Spec.Stages)
    if (S.Kind == StageKind::Source)
      ++NumSources;
  int64_t TotalTokens = NumSources * Cfg.TokensPerSource;
  StartNs.assign(static_cast<size_t>(TotalTokens), 0);

  // Instantiate the graph's monitors.
  Stages.clear();
  for (size_t I = 0; I != Spec.Stages.size(); ++I)
    Stages.push_back(std::make_unique<StageRuntime>());
  for (size_t I = 0; I != Spec.Stages.size(); ++I) {
    const StageSpec &S = Spec.Stages[I];
    StageRuntime &St = *Stages[I];
    St.Spec = &S;
    St.ExpectedTokens = Counts[I];
    if (S.Kind == StageKind::Source)
      continue;
    St.In = makeBoundedBuffer(Cfg.Mech, S.Capacity, Cfg.Backend);
    St.Remaining.store(Counts[I], std::memory_order_relaxed);
    St.ArrivalNs.assign(static_cast<size_t>(TotalTokens), 0);
    St.WorkerLatency.resize(S.Workers);
    if (S.Downstream.empty())
      St.WorkerEndToEnd.resize(S.Workers);
    switch (S.Kind) {
    case StageKind::ReadersWriters:
      St.RW = makeReadersWriters(Cfg.Mech, Cfg.Backend);
      break;
    case StageKind::Barrier: {
      int64_t Parties = S.Parties > 0 ? S.Parties : S.Workers;
      St.Barrier = makeCyclicBarrier(Cfg.Mech, Parties, Cfg.Backend);
      St.AwaitLimit = (Counts[I] / Parties) * Parties;
      break;
    }
    case StageKind::Rotation:
      St.Rotation = makeRoundRobin(Cfg.Mech, S.Workers, Cfg.Backend);
      break;
    case StageKind::Queue:
      break;
    case StageKind::Source:
      AUTOSYNCH_UNREACHABLE("handled above");
    }
  }

  // Launch everything behind one start gate so the clock starts fair.
  int TotalThreads = 0;
  for (const StageSpec &S : Spec.Stages)
    TotalThreads += S.Kind == StageKind::Source ? 1 : S.Workers;

  std::barrier StartGate(TotalThreads + 1);
  std::vector<std::thread> Pool;
  Pool.reserve(TotalThreads);
  int64_t IdBase = 0;
  for (size_t I = 0; I != Spec.Stages.size(); ++I) {
    StageRuntime &St = *Stages[I];
    if (St.Spec->Kind == StageKind::Source) {
      Pool.emplace_back([this, &St, &StartGate, IdBase] {
        StartGate.arrive_and_wait();
        sourceLoop(St, IdBase);
      });
      IdBase += Cfg.TokensPerSource;
      continue;
    }
    for (int W = 0; W != St.Spec->Workers; ++W) {
      Pool.emplace_back([this, &St, &StartGate, W] {
        StartGate.arrive_and_wait();
        workerLoop(St, W);
      });
    }
  }

  sync::CountersSnapshot Sync0 = sync::Counters::global().snapshot();
  PlanCountersSnapshot Plan0 = PlanCounters::global().snapshot();
  sync::RelayCountersSnapshot Relay0 =
      sync::RelayCounters::global().snapshot();
  sync::TimedCountersSnapshot Time0 =
      sync::TimedCounters::global().snapshot();
  StartGate.arrive_and_wait();
  Stopwatch Watch;
  for (std::thread &T : Pool)
    T.join();
  double Wall = Watch.seconds();

  // Assemble the report.
  ScenarioReport R;
  R.Scenario = Spec.Name;
  R.Mech = Cfg.Mech;
  R.Backend = Cfg.Backend;
  R.Filter = Cfg.Filter;
  R.TotalTokens = TotalTokens;
  R.TotalThreads = TotalThreads;
  R.WallSeconds = Wall;
  R.Sync = sync::Counters::global().snapshot() - Sync0;
  R.Plan = PlanCounters::global().snapshot() - Plan0;
  R.OpTimeoutNs = Cfg.OpTimeoutNs;

  int64_t SinkTokens = 0;
  for (size_t I = 0; I != Stages.size(); ++I) {
    StageRuntime &St = *Stages[I];
    StageReport SR;
    SR.Name = St.Spec->Name;
    SR.Kind = St.Spec->Kind;
    SR.Workers = St.Spec->Kind == StageKind::Source ? 1 : St.Spec->Workers;
    SR.Tokens = St.ExpectedTokens;
    SR.OpTimeouts = St.OpTimeouts.load(std::memory_order_relaxed);
    R.OpTimeouts += SR.OpTimeouts;
    if (St.RW) {
      SR.Reads = St.RW->reads();
      SR.Writes = St.RW->writes();
    }
    for (const LatencyHistogram &H : St.WorkerLatency)
      SR.Latency.merge(H);
    uint64_t First = St.FirstNs.load(std::memory_order_relaxed);
    uint64_t Last = St.LastNs.load(std::memory_order_relaxed);
    double Span = Last > First ? static_cast<double>(Last - First) / 1e9
                               : Wall;
    SR.SpanSeconds = Span;
    SR.Throughput =
        Span > 0.0 ? static_cast<double>(SR.Tokens) / Span : 0.0;
    if (St.Spec->Downstream.empty() &&
        St.Spec->Kind != StageKind::Source) {
      SinkTokens += St.ExpectedTokens;
      for (const LatencyHistogram &H : St.WorkerEndToEnd)
        R.EndToEnd.merge(H);
    }
    R.Stages.push_back(std::move(SR));
  }
  R.Throughput =
      Wall > 0.0 ? static_cast<double>(SinkTokens) / Wall : 0.0;

  // The monitors feed sync::RelayCounters in batches and flush the
  // remainder on destruction, so they must be torn down (the stage
  // reports above are done with them) before the relay delta is taken —
  // otherwise a run with few relays per monitor reports zeros.
  Stages.clear();
  R.Relay = sync::RelayCounters::global().snapshot() - Relay0;
  R.Time = sync::TimedCounters::global().snapshot() - Time0;

  setDefaultRelayFilter(PrevFilter);
  return R;
}

} // namespace

ScenarioReport workload::runScenario(const ScenarioSpec &Spec,
                                     const RunConfig &Cfg) {
  return Engine(Spec, Cfg).run();
}

static void writeHistogramJson(JsonWriter &J, const LatencyHistogram &H) {
  J.beginObject()
      .member("count", H.count())
      .member("mean", H.meanNanos())
      .member("min", H.minNanos())
      .member("p50", H.quantileNanos(0.50))
      .member("p95", H.quantileNanos(0.95))
      .member("p99", H.quantileNanos(0.99))
      .member("max", H.maxNanos())
      .endObject();
}

void workload::writeReportJson(const ScenarioReport &R, JsonWriter &J) {
  J.beginObject()
      .member("scenario", R.Scenario)
      .member("mechanism", mechanismName(R.Mech))
      .member("backend", sync::backendName(R.Backend))
      .member("relay_filter", relayFilterName(R.Filter))
      .member("total_tokens", R.TotalTokens)
      .member("total_threads", R.TotalThreads)
      .member("wall_seconds", R.WallSeconds)
      .member("throughput_tokens_per_sec", R.Throughput);
  J.key("end_to_end_ns");
  writeHistogramJson(J, R.EndToEnd);
  J.key("sync");
  J.beginObject()
      .member("awaits", R.Sync.Awaits)
      .member("signals", R.Sync.Signals)
      .member("signal_alls", R.Sync.SignalAlls)
      .member("wakeups", R.Sync.Wakeups)
      .endObject();
  J.key("plan_cache");
  J.beginObject()
      .member("shape_builds", R.Plan.ShapeBuilds)
      .member("shape_imports", R.Plan.ShapeImports)
      .member("shape_hits", R.Plan.ShapeHits)
      .member("bind_hits", R.Plan.BindHits)
      .member("cold_binds", R.Plan.ColdBinds)
      .member("legacy_waits", R.Plan.LegacyWaits)
      .endObject();
  J.key("relay");
  J.beginObject()
      .member("calls", R.Relay.RelayCalls)
      .member("dirty_skips", R.Relay.DirtySkips)
      .member("filtered_exprs", R.Relay.FilteredExprs)
      .member("stamp_short_circuits", R.Relay.StampShortCircuits)
      .endObject();
  // Schema v4: the deadline-runtime block. op_timeout_ns echoes the
  // per-op bound in force (0 = untimed run), op_timeouts totals the
  // per-stage expiry counts, and the "time" counters are the process-wide
  // deadline-runtime deltas.
  J.member("op_timeout_ns", R.OpTimeoutNs)
      .member("op_timeouts", R.OpTimeouts);
  J.key("time");
  J.beginObject()
      .member("timed_waits", R.Time.TimedWaits)
      .member("timeouts", R.Time.Timeouts)
      .member("cancels", R.Time.Cancels)
      .member("wheel_wakeups", R.Time.WheelWakeups)
      .endObject();
  J.key("stages");
  J.beginArray();
  for (const StageReport &S : R.Stages) {
    J.beginObject()
        .member("name", S.Name)
        .member("kind", stageKindName(S.Kind))
        .member("workers", S.Workers)
        .member("tokens", S.Tokens)
        .member("span_seconds", S.SpanSeconds)
        .member("throughput_tokens_per_sec", S.Throughput);
    if (S.Kind == StageKind::ReadersWriters)
      J.member("reads", S.Reads).member("writes", S.Writes);
    if (R.OpTimeoutNs != 0)
      J.member("op_timeouts", S.OpTimeouts);
    J.key("latency_ns");
    writeHistogramJson(J, S.Latency);
    J.endObject();
  }
  J.endArray();
  J.endObject();
}

void workload::writeReportJson(const ScenarioReport &R, std::ostream &OS) {
  JsonWriter J(OS);
  writeReportJson(R, J);
}
