//===- plan/PlanCache.h - Per-monitor wait-plan cache ----------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The monitor's cache of WaitPlans, keyed by predicate *shape*:
///
///  * parsed predicates — the interned parse result is the shape (locals
///    are already symbolic);
///  * EDSL predicates — literals are abstracted into synthetic Local-scoped
///    slot variables ("$i0", "$b0", ... by occurrence), so `Count >= 3` and
///    `Count >= 7` share one shape `count >= $i0` and one plan. Literal
///    operands of `*`, `/`, and `%` are kept concrete: they are structural
///    (a slot there would make the atom non-linear and untaggable), and
///    they are how shapes like `X * 2 >= 96` still canonicalize onto the
///    same record as `X >= 48`.
///
/// Every waituntil, under every signal policy, gets its plan here: there is
/// no uncached path. Shapes the planner's templates cannot parameterize
/// are cached as Kind::Globalized plans (PlanCacheStats::GlobalizedShapes)
/// and bind per wait through WaitPlan::globalize.
///
/// The cache is append-only like the parse cache: distinct shapes are
/// bounded by distinct waituntil call sites, not by data.
///
/// What is per monitor and what is per process: the cache, and every plan
/// in it, belongs to one monitor — plans point into that monitor's arena,
/// and a hit (the steady state) touches nothing else. A miss consults the
/// process-wide PlanRegistry (plan/PlanRegistry.h) before planning: the
/// shape's key (structure, variable ids/names/types/scopes, DnfLimits)
/// finds the blueprint an earlier monitor exported, which is relocated
/// into this monitor's arena; only a shape new to the process is built
/// (and then exported, while the registry is below its entry cap of
/// PlanRegistry::MaxEntries = 1024 blueprints, about 1-4 MB for shapes the
/// size of the paper's). The registry's mutex is taken with the monitor
/// lock held, never the reverse. PlanCacheStats::ShapeBuilds counts every
/// miss; ShapeImports, the misses a blueprint served.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PLAN_PLANCACHE_H
#define AUTOSYNCH_PLAN_PLANCACHE_H

#include "plan/WaitPlan.h"

#include <atomic>
#include <unordered_map>

namespace autosynch {

/// Per-monitor plan-cache statistics (guarded by the monitor lock).
struct PlanCacheStats {
  uint64_t ShapeBuilds = 0;   ///< Cache misses (built or imported plans).
  uint64_t ShapeHits = 0;     ///< Lookups served by a cached plan.
  uint64_t EdslSkeletons = 0; ///< EDSL predicates abstracted into shapes.
  uint64_t GlobalizedShapes = 0; ///< Shapes planned as Kind::Globalized.
  uint64_t ShapeImports = 0;  ///< Misses served by a registry blueprint.
};

/// Snapshot of the process-wide plan counters (workbench/bench reporting).
struct PlanCountersSnapshot {
  uint64_t ShapeBuilds = 0; ///< Per-monitor plan-cache misses.
  uint64_t ShapeHits = 0;
  uint64_t BindHits = 0;   ///< Signature lookups served by the bind table.
  uint64_t ColdBinds = 0;  ///< Signatures resolved through the cold path.
  /// Waits bound by per-wait globalization (a Globalized plan, or a
  /// binding whose keys overflowed) instead of a plan signature. The name
  /// predates the single wait pipeline; readers of the counter depend on it.
  uint64_t LegacyWaits = 0;
  uint64_t ShapeImports = 0;///< ShapeBuilds served by a registry blueprint.

  PlanCountersSnapshot operator-(const PlanCountersSnapshot &R) const {
    return {ShapeBuilds - R.ShapeBuilds, ShapeHits - R.ShapeHits,
            BindHits - R.BindHits,       ColdBinds - R.ColdBinds,
            LegacyWaits - R.LegacyWaits, ShapeImports - R.ShapeImports};
  }
};

/// Process-wide plan counters, updated with relaxed atomics (aggregates
/// across every monitor in the process; the per-monitor numbers live in
/// PlanCacheStats / ManagerStats).
class PlanCounters {
public:
  static PlanCounters &global();

  void onShapeBuild() { ShapeBuilds.fetch_add(1, std::memory_order_relaxed); }
  void onShapeHit() { ShapeHits.fetch_add(1, std::memory_order_relaxed); }
  void onBindHit() { BindHits.fetch_add(1, std::memory_order_relaxed); }
  void onColdBind() { ColdBinds.fetch_add(1, std::memory_order_relaxed); }
  void onLegacyWait() { LegacyWaits.fetch_add(1, std::memory_order_relaxed); }
  void onShapeImport() {
    ShapeImports.fetch_add(1, std::memory_order_relaxed);
  }

  PlanCountersSnapshot snapshot() const {
    return {ShapeBuilds.load(std::memory_order_relaxed),
            ShapeHits.load(std::memory_order_relaxed),
            BindHits.load(std::memory_order_relaxed),
            ColdBinds.load(std::memory_order_relaxed),
            LegacyWaits.load(std::memory_order_relaxed),
            ShapeImports.load(std::memory_order_relaxed)};
  }

private:
  std::atomic<uint64_t> ShapeBuilds{0};
  std::atomic<uint64_t> ShapeHits{0};
  std::atomic<uint64_t> BindHits{0};
  std::atomic<uint64_t> ColdBinds{0};
  std::atomic<uint64_t> LegacyWaits{0};
  std::atomic<uint64_t> ShapeImports{0};
};

/// The per-monitor shape -> WaitPlan cache. All member functions require
/// the monitor lock (shapes intern into the monitor's arena).
class PlanCache {
public:
  PlanCache(ExprArena &Arena, SymbolTable &Syms) : Arena(Arena), Syms(Syms) {}

  /// Plan for a shape whose locals are already symbolic (parsed
  /// predicates). O(1) on repeat shapes.
  const WaitPlan *forShape(ExprRef Shape, const DnfLimits &Limits);

  /// Plan for an EDSL predicate: abstracts literals into slot variables
  /// and writes their values to \p BoundOut (size >= WaitPlan::MaxSlots)
  /// in slot order, one per slot of the returned plan. EDSL shapes that
  /// the planner cannot parameterize (or with more than MaxSlots literals)
  /// fall back to a Ground plan over \p P itself, which EDSL predicates —
  /// shared variables and literals only — always allow. Fatal error if
  /// \p P mentions a local variable.
  const WaitPlan *forEdsl(ExprRef P, const DnfLimits &Limits, Value *BoundOut);

  const PlanCacheStats &stats() const { return Stats; }
  void resetStats() { Stats = PlanCacheStats(); }

  /// Number of cached shapes.
  size_t size() const { return Plans.size(); }

  /// The I-th synthetic slot variable of type \p Ty, declared on demand
  /// (public for the skeleton walker; not part of the monitor-facing API).
  VarId slotVar(size_t I, TypeKind Ty);

private:
  const WaitPlan *lookupOrBuild(ExprRef Shape, const DnfLimits &Limits);

  ExprArena &Arena;
  SymbolTable &Syms;
  std::unordered_map<ExprRef, std::unique_ptr<WaitPlan>> Plans;
  std::vector<VarId> IntSlotVars, BoolSlotVars;
  PlanCacheStats Stats;
};

} // namespace autosynch

#endif // AUTOSYNCH_PLAN_PLANCACHE_H
