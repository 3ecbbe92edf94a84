//===- bench/hotpath_waitcycle.cpp - Steady-state waituntil microbench ------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The hot-path microbench behind BENCH_hotpath.json: what does one
// steady-state waitUntil cost, and what does it allocate?
//
// Scenarios:
//  * cycle — two threads hand a token through `turn == me` (the canonical
//    wait/signal cycle: every handoff is one directed signal issued after
//    the monitor unlock). Local values recur, so a plan-cache hit must be
//    completely allocation-free. Reported per mechanism x backend.
//  * fastpath-sweep — one thread calls waitUntil("count >= n") with a
//    fresh n every call while the predicate is already true: the pure
//    bind-and-check cost.
//  * globalize-sweep — a strict producer/consumer handshake where every
//    blocking wait carries a never-repeating local value through the
//    paper's flagship complex predicate `count + n <= cap` (§4.1). Each
//    such wait is a genuinely new predicate, so registration cost is
//    inherent: a cold bind interns the canonical atom.
//  * setup — a fresh monitor plus the first call of each of its predicate
//    shapes, then its destruction, with a 3 ms gap between reps (so each
//    rep starts from cold caches, as a monitor created mid-run would).
//    Reported per problem (BoundedBuffer, RoundRobin, ParamBoundedBuffer)
//    x mechanism (AutoSynch, AutoSynch-T, explicit) as the median ns and
//    heap allocations per set-up, and the plans each set-up built vs
//    imported from the process-wide plan registry. Only the first set-up
//    of a shape in the process may build; the binary asserts that every
//    later one imports all of its plans.
//
// Allocation metrics: `heap_allocs_per_op` counts every operator-new in
// the process during the measured section (interposed below);
// `arena_nodes_per_op` counts expression-arena internings. The hot-path
// properties are asserted, not just reported, so the CI smoke run
// enforces them: a steady-state cycle interns nothing, and every set-up
// after the first imports all of its plans.
//
//===----------------------------------------------------------------------===//

#include "FigureBench.h"
#include "core/Monitor.h"
#include "plan/PlanCache.h"
#include "problems/BoundedBuffer.h"
#include "problems/ParamBoundedBuffer.h"
#include "problems/RoundRobin.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

using namespace autosynch;
using namespace autosynch::bench;

//===----------------------------------------------------------------------===//
// Heap-allocation interposition
//===----------------------------------------------------------------------===//

static std::atomic<uint64_t> GHeapAllocs{0};

static void *countedAlloc(size_t Size) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new(size_t Size) { return countedAlloc(Size); }
void *operator new[](size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }

namespace {

uint64_t heapAllocs() {
  return GHeapAllocs.load(std::memory_order_relaxed);
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Monitors
//===----------------------------------------------------------------------===//

/// Token ring of two: the steady-state wait/signal cycle.
class PingPong : public Monitor {
public:
  explicit PingPong(MonitorConfig Cfg)
      : Monitor(Cfg), Me(local("me")) {}

  void step(int64_t Mine, int64_t Next) {
    Region R(*this);
    waitUntil("turn == me", locals().bindInt(Me, Mine));
    Turn = Next;
  }

  /// Spins until \p N threads are parked (warmup choreography).
  void awaitBlocked(int N) {
    while (true) {
      {
        Region R(*this);
        if (conditionManager().numWaiters() >= N)
          return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  using Monitor::arena;
  using Monitor::conditionManager;
  using Monitor::planCache;

private:
  Shared<int64_t> Turn{*this, "turn", 0};
  VarId Me;
};

/// Fast-path sweep: the predicate is always already true; n never repeats.
class Sweeper : public Monitor {
public:
  explicit Sweeper(MonitorConfig Cfg, int64_t Ceiling)
      : Monitor(Cfg), N(local("n")) {
    Region R(*this);
    Count = Ceiling;
  }

  void probe(int64_t Value) {
    Region R(*this);
    waitUntil("count >= n", locals().bindInt(N, Value));
  }

  using Monitor::arena;
  using Monitor::conditionManager;

private:
  Shared<int64_t> Count{*this, "count", 0};
  VarId N;
};

/// Globalize sweep: a strict two-thread handshake. fill() blocks on the
/// paper's complex predicate `count + n <= cap` with a never-repeating n,
/// then refills the buffer; drain() blocks until full, then empties it.
/// Every fill() wait registers a brand-new globalized predicate.
class Handshake : public Monitor {
public:
  explicit Handshake(MonitorConfig Cfg, int64_t Capacity)
      : Monitor(Cfg), N(local("n")), Cap(Capacity) {
    Region R(*this);
    this->Capacity = Capacity;
    Count = Capacity; // Full: the first fill() blocks.
  }

  void fill(int64_t Fresh) {
    Region R(*this);
    waitUntil("count + n <= cap", locals().bindInt(N, Fresh));
    Count = Cap; // Refill so the next fill() blocks again.
  }

  void drain() {
    Region R(*this);
    waitUntil(Count >= Cap);
    Count = 0;
  }

  using Monitor::arena;
  using Monitor::conditionManager;

private:
  Shared<int64_t> Count{*this, "count", 0};
  Shared<int64_t> Capacity{*this, "cap", 0};
  VarId N;
  int64_t Cap;
};

//===----------------------------------------------------------------------===//
// Cells
//===----------------------------------------------------------------------===//

struct Cell {
  std::string Scenario;
  Mechanism Mech = Mechanism::AutoSynch;
  sync::Backend Backend = sync::Backend::Std;
  int64_t Ops = 0;
  double NsPerOp = 0.0;
  double HeapAllocsPerOp = 0.0;
  double ArenaNodesPerOp = 0.0;
  uint64_t Signals = 0;
  uint64_t Waits = 0;
  uint64_t PlanBindHits = 0;
  uint64_t PlanColdBinds = 0;
  /// Plan-cache misses per op, split into local builds and registry
  /// imports (nonzero only in the setup scenario; the other scenarios
  /// measure steady state, where every lookup hits).
  double ShapeBuildsPerOp = 0.0;
  double ShapeImportsPerOp = 0.0;
};

Cell runCycle(Mechanism Mech, sync::Backend Backend, int64_t Handoffs,
              int Reps) {
  Cell C;
  C.Scenario = "cycle";
  C.Mech = Mech;
  C.Backend = Backend;
  C.Ops = Handoffs;

  double BestSeconds = -1.0;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    MonitorConfig Cfg = configFor(Mech, Backend);
    PingPong M(Cfg);

    // Warm the parse cache, the plan shape, and both signatures so the
    // measured section is pure steady state. Each side is forced to
    // block once: a wait that never blocks stops at the fast-path check
    // and would leave its signature cold (registration happens on the
    // first blocking wait, whichever section that falls in).
    auto Side = [&M](int64_t Mine, int64_t Iters) {
      for (int64_t I = 0; I != Iters; ++I)
        M.step(Mine, 1 - Mine);
    };
    {
      std::thread W1([&] { M.step(1, 0); }); // turn==1 is false: blocks.
      M.awaitBlocked(1);
      M.step(0, 1); // Hands off; W1 restores turn=0.
      W1.join();
      M.step(0, 1); // turn=1 so the other side blocks too.
      std::thread W0([&] { M.step(0, 1); });
      M.awaitBlocked(1);
      M.step(1, 0); // Hands off; W0 sets turn=1.
      W0.join();
      M.step(1, 0); // Restore turn=0 for the measured ping-pong.
    }

    size_t Nodes0 = 0;
    {
      Monitor::Region R(M);
      Nodes0 = M.arena().numNodes();
    }
    M.conditionManager().resetStats();
    uint64_t Heap0 = heapAllocs();
    double T0 = nowSeconds();
    {
      std::thread A([&] { Side(0, Handoffs / 2); });
      std::thread B([&] { Side(1, Handoffs / 2); });
      A.join();
      B.join();
    }
    double Seconds = nowSeconds() - T0;
    uint64_t HeapDelta = heapAllocs() - Heap0;
    size_t NodesDelta = 0;
    {
      Monitor::Region R(M);
      NodesDelta = M.arena().numNodes() - Nodes0;
    }

    if (BestSeconds < 0 || Seconds < BestSeconds) {
      BestSeconds = Seconds;
      C.NsPerOp = Seconds * 1e9 / static_cast<double>(Handoffs);
      C.HeapAllocsPerOp =
          static_cast<double>(HeapDelta) / static_cast<double>(Handoffs);
      C.ArenaNodesPerOp =
          static_cast<double>(NodesDelta) / static_cast<double>(Handoffs);
      const ManagerStats &S = M.conditionManager().stats();
      C.Signals = S.SignalsSent + S.BroadcastSignals;
      C.Waits = S.Waits;
      C.PlanBindHits = S.PlanBindHits;
      C.PlanColdBinds = S.PlanColdBinds;
    }

    if (isAutomatic(Mech)) {
      AUTOSYNCH_CHECK(Cfg.Policy == SignalPolicy::Broadcast ||
                          M.conditionManager().stats().PlanBindHits > 0,
                      "steady-state cycle must hit the plan bind table");
      AUTOSYNCH_CHECK(NodesDelta == 0,
                      "plan-cache cycle hit path must not intern");
    }
  }
  return C;
}

Cell runFastpathSweep(int64_t Ops, int Reps) {
  Cell C;
  C.Scenario = "fastpath-sweep";
  C.Mech = Mechanism::AutoSynch;
  C.Backend = sync::Backend::Std;
  C.Ops = Ops;

  double BestSeconds = -1.0;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    MonitorConfig Cfg = configFor(Mechanism::AutoSynch, sync::Backend::Std);
    Sweeper M(Cfg, /*Ceiling=*/Ops + 2);

    M.probe(1); // Warm the parse cache and the plan shape.
    uint64_t Heap0 = heapAllocs();
    double T0 = nowSeconds();
    for (int64_t I = 0; I != Ops; ++I)
      M.probe(I + 2); // A fresh bound value every call; always true.
    double Seconds = nowSeconds() - T0;
    uint64_t HeapDelta = heapAllocs() - Heap0;

    if (BestSeconds < 0 || Seconds < BestSeconds) {
      BestSeconds = Seconds;
      C.NsPerOp = Seconds * 1e9 / static_cast<double>(Ops);
      C.HeapAllocsPerOp =
          static_cast<double>(HeapDelta) / static_cast<double>(Ops);
      C.ArenaNodesPerOp = 0.0; // The already-true check interns nothing.
    }
  }
  return C;
}

Cell runGlobalizeSweep(int64_t Ops, int Reps) {
  Cell C;
  C.Scenario = "globalize-sweep";
  C.Mech = Mechanism::AutoSynch;
  C.Backend = sync::Backend::Std;
  C.Ops = Ops;

  double BestSeconds = -1.0;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    MonitorConfig Cfg = configFor(Mechanism::AutoSynch, sync::Backend::Std);
    // Every fill() predicate is brand new; an eviction limit keeps the
    // table (and the run) at steady state, the way a real server would.
    Cfg.InactiveCacheLimit = 256;
    const int64_t Cap = 1'000'000'000;
    Handshake M(Cfg, Cap);

    // Warmup is meaningless here (no fill value ever repeats); measure
    // the whole run.
    size_t Nodes0 = 0;
    {
      Monitor::Region R(M);
      Nodes0 = M.arena().numNodes();
    }
    uint64_t Heap0 = heapAllocs();
    double T0 = nowSeconds();
    std::thread Producer([&] {
      // Fresh values < Cap so `count + n <= cap` is satisfiable exactly
      // when the buffer was drained.
      for (int64_t I = 0; I != Ops; ++I)
        M.fill(I + 1);
    });
    std::thread Consumer([&] {
      for (int64_t I = 0; I != Ops; ++I)
        M.drain();
    });
    Producer.join();
    Consumer.join();
    double Seconds = nowSeconds() - T0;
    uint64_t HeapDelta = heapAllocs() - Heap0;
    size_t NodesDelta = 0;
    {
      Monitor::Region R(M);
      NodesDelta = M.arena().numNodes() - Nodes0;
    }

    if (BestSeconds < 0 || Seconds < BestSeconds) {
      BestSeconds = Seconds;
      C.NsPerOp = Seconds * 1e9 / static_cast<double>(Ops);
      C.HeapAllocsPerOp =
          static_cast<double>(HeapDelta) / static_cast<double>(Ops);
      C.ArenaNodesPerOp =
          static_cast<double>(NodesDelta) / static_cast<double>(Ops);
      const ManagerStats &S = M.conditionManager().stats();
      C.Signals = S.SignalsSent + S.BroadcastSignals;
      C.Waits = S.Waits;
      C.PlanBindHits = S.PlanBindHits;
      C.PlanColdBinds = S.PlanColdBinds;
    }
  }
  return C;
}

/// The problems the setup scenario constructs.
enum class SetupProblem { BoundedBuffer, RoundRobin, ParamBoundedBuffer };

const char *setupProblemName(SetupProblem P) {
  switch (P) {
  case SetupProblem::BoundedBuffer:
    return "setup/BoundedBuffer";
  case SetupProblem::RoundRobin:
    return "setup/RoundRobin";
  case SetupProblem::ParamBoundedBuffer:
    return "setup/ParamBoundedBuffer";
  }
  return "setup";
}

/// One set-up: a fresh monitor, the first (non-blocking) call of each of
/// its predicate shapes, and its destruction.
void setupOnce(SetupProblem P, Mechanism Mech) {
  const sync::Backend B = sync::Backend::Std;
  switch (P) {
  case SetupProblem::BoundedBuffer: {
    auto M = makeBoundedBuffer(Mech, 4, B);
    M->put(1);
    M->take();
    return;
  }
  case SetupProblem::RoundRobin:
    makeRoundRobin(Mech, 4, B)->access(0);
    return;
  case SetupProblem::ParamBoundedBuffer: {
    auto M = makeParamBoundedBuffer(Mech, 64, B);
    M->put(5);
    M->take(5);
    return;
  }
  }
}

Cell runSetup(SetupProblem P, Mechanism Mech, int Reps) {
  Cell C;
  C.Scenario = setupProblemName(P);
  C.Mech = Mech;
  C.Ops = Reps;

  std::vector<double> Ns, Allocs;
  uint64_t Builds = 0, Imports = 0;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    PlanCountersSnapshot P0 = PlanCounters::global().snapshot();
    uint64_t Heap0 = heapAllocs();
    double T0 = nowSeconds();
    setupOnce(P, Mech);
    double Seconds = nowSeconds() - T0;
    uint64_t HeapDelta = heapAllocs() - Heap0;
    PlanCountersSnapshot D = PlanCounters::global().snapshot() - P0;

    uint64_t Built = D.ShapeBuilds - D.ShapeImports;
    // The first set-up in the process may plan its shapes; every later
    // one must find them all in the plan registry.
    AUTOSYNCH_CHECK(Rep == 0 || Built == 0,
                    "a repeated set-up must import every plan");
    AUTOSYNCH_CHECK(Rep == 0 || !isAutomatic(Mech) || D.ShapeImports > 0,
                    "an automatic monitor's set-up must import its plans");
    Ns.push_back(Seconds * 1e9);
    Allocs.push_back(static_cast<double>(HeapDelta));
    Builds += Built;
    Imports += D.ShapeImports;
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }

  auto Median = [](std::vector<double> V) {
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };
  C.NsPerOp = Median(Ns);
  C.HeapAllocsPerOp = Median(Allocs);
  C.ShapeBuildsPerOp = static_cast<double>(Builds) / Reps;
  C.ShapeImportsPerOp = static_cast<double>(Imports) / Reps;
  return C;
}

//===----------------------------------------------------------------------===//
// JSON output
//===----------------------------------------------------------------------===//

void writeJson(const std::vector<Cell> &Cells, const std::string &Path) {
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "hotpath_waitcycle: cannot open %s\n",
                 Path.c_str());
    std::exit(1);
  }
  OS << "{\n  \"bench\": \"hotpath_waitcycle\",\n  \"schema\": 2,\n"
     << "  \"runs\": [\n";
  for (size_t I = 0; I != Cells.size(); ++I) {
    const Cell &C = Cells[I];
    OS << "    {\"scenario\": \"" << C.Scenario << "\", \"mechanism\": \""
       << mechanismName(C.Mech) << "\", \"backend\": \""
       << sync::backendName(C.Backend) << "\", \"ops\": " << C.Ops
       << ", \"ns_per_op\": " << C.NsPerOp
       << ", \"heap_allocs_per_op\": " << C.HeapAllocsPerOp
       << ", \"arena_nodes_per_op\": " << C.ArenaNodesPerOp
       << ", \"signals\": " << C.Signals << ", \"waits\": " << C.Waits
       << ", \"plan_bind_hits\": " << C.PlanBindHits
       << ", \"plan_cold_binds\": " << C.PlanColdBinds
       << ", \"shape_builds_per_op\": " << C.ShapeBuildsPerOp
       << ", \"shape_imports_per_op\": " << C.ShapeImportsPerOp << "}"
       << (I + 1 == Cells.size() ? "\n" : ",\n");
  }
  OS << "  ]\n}\n";
  std::printf("# wrote %s (%zu cells)\n", Path.c_str(), Cells.size());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath = "BENCH_hotpath.json";
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--json=", 0) == 0) {
      JsonPath = Arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json=PATH]\n"
                   "env: AUTOSYNCH_BENCH_REPS, AUTOSYNCH_BENCH_SCALE\n",
                   Argv[0]);
      return 2;
    }
  }

  BenchOptions Opts = BenchOptions::fromEnv();
  banner("Hot path - steady-state waituntil cycle and monitor set-up",
         "token handoff ns/op and allocations/op per mechanism x backend; "
         "set-up cost with plans imported from the registry",
         Opts);

  const int64_t Handoffs = Opts.scaled(100000) & ~int64_t(1);
  const int64_t SweepOps = Opts.scaled(50000);

  std::vector<Cell> Cells;
  Table T({"scenario", "mechanism", "backend", "ns/op",
           "heap-allocs/op", "arena-nodes/op", "plan-builds/op",
           "plan-imports/op"});
  auto Record = [&](Cell C) {
    T.addRow({C.Scenario, mechanismName(C.Mech),
              sync::backendName(C.Backend),
              std::to_string(static_cast<int64_t>(C.NsPerOp)),
              std::to_string(C.HeapAllocsPerOp),
              std::to_string(C.ArenaNodesPerOp),
              std::to_string(C.ShapeBuildsPerOp),
              std::to_string(C.ShapeImportsPerOp)});
    Cells.push_back(std::move(C));
  };

  for (sync::Backend B : {sync::Backend::Std, sync::Backend::Futex})
    for (Mechanism Mech :
         {Mechanism::AutoSynch, Mechanism::AutoSynchT, Mechanism::Baseline})
      Record(runCycle(Mech, B, Handoffs, Opts.Reps));
  Record(runFastpathSweep(SweepOps, Opts.Reps));
  Record(runGlobalizeSweep(SweepOps / 4, Opts.Reps));

  // Medians over many reps: a set-up is short and single-threaded, so
  // one rep is noise-dominated.
  const int SetupReps = 10 * Opts.Reps + 1;
  for (SetupProblem P : {SetupProblem::BoundedBuffer, SetupProblem::RoundRobin,
                         SetupProblem::ParamBoundedBuffer})
    for (Mechanism Mech :
         {Mechanism::AutoSynch, Mechanism::AutoSynchT, Mechanism::Explicit})
      Record(runSetup(P, Mech, SetupReps));

  T.print();
  writeJson(Cells, JsonPath);
  return 0;
}
