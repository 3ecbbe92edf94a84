//===- plan/PlanRegistry.h - Process-wide wait-plan blueprints -*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide registry of wait-plan *blueprints*. The paper's
/// preprocessor analyses each waituntil once per call site; a plan cache
/// per monitor would redo that analysis for every monitor object. The
/// registry closes the gap: the first monitor to plan a shape exports a
/// copy of the plan here, and every later monitor with the same shape
/// imports it (WaitPlan::relocate into its own arena) instead of running
/// parse -> globalize -> canonicalize -> DNF -> templates -> bytecode.
///
///  * Key: the shape's structure — node kinds, literals, and each
///    variable's VarId, name, type and scope — plus the DnfLimits. That is
///    everything WaitPlan::build reads, so equal keys give equal plans,
///    and two monitor classes that declare the same names in a different
///    order, or with a different scope, get separate blueprints.
///  * Storage: blueprints live in the registry's own expression arena for
///    the whole process. The registry holds at most MaxEntries of them;
///    past that, misses build locally as they would without it.
///  * Locking: one mutex, taken only on a monitor's plan-cache miss and
///    always with that monitor's lock already held (monitor lock ->
///    registry mutex, never the reverse). A plan-cache hit never reaches
///    the registry.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PLAN_PLANREGISTRY_H
#define AUTOSYNCH_PLAN_PLANREGISTRY_H

#include "plan/WaitPlan.h"

#include <mutex>
#include <string>
#include <unordered_map>

namespace autosynch {

class PlanRegistry {
public:
  /// Entry cap. A blueprint (plan, key, variables and arena nodes) takes
  /// about 1.3 KB for a one-atom shape such as `count >= n + 1` and 3.7 KB
  /// for a three-conjunction one (x86-64, glibc malloc), so the cap bounds
  /// the registry at about 1-4 MB for shapes of that size.
  static constexpr size_t MaxEntries = 1024;

  /// The process's registry (never destroyed).
  static PlanRegistry &global();

  /// The registry key of \p Shape, whose variables \p Syms declares,
  /// planned under \p Limits.
  static std::string keyOf(ExprRef Shape, const SymbolTable &Syms,
                           const DnfLimits &Limits);

  /// The blueprint for \p Key relocated into \p To, or null when there is
  /// none.
  std::unique_ptr<WaitPlan> import(const std::string &Key, ExprArena &To);

  /// Stores a copy of \p Plan, built from a shape over \p Syms under
  /// \p Limits, as the blueprint for \p Key unless the key is already
  /// present or the registry is full.
  void publish(std::string Key, const WaitPlan &Plan, const SymbolTable &Syms,
               const DnfLimits &Limits);

  /// One blueprint: everything its key encodes, in readable form.
  struct Blueprint {
    std::unique_ptr<WaitPlan> Plan; ///< Interned in the registry's arena.
    std::vector<VarInfo> Vars;      ///< The shape's variables, by VarId.
    DnfLimits Limits;
  };

  /// The registered blueprints. They are immutable and never removed, so
  /// the pointers stay valid for the life of the process.
  std::vector<const Blueprint *> blueprints() const;

private:
  PlanRegistry() = default;

  mutable std::mutex M;
  ExprArena Arena;
  std::unordered_map<std::string, Blueprint> Blueprints;
};

} // namespace autosynch

#endif // AUTOSYNCH_PLAN_PLANREGISTRY_H
