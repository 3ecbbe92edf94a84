//===- core/MonitorConfig.h - Monitor policy configuration -----*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the automatic-signal monitor. One Monitor
/// implementation instantiates all three automatic mechanisms the paper
/// evaluates (§6.2) by switching the signal policy:
///
///  * Tagged     — "AutoSynch": relay signaling directed by predicate tags.
///  * LinearScan — "AutoSynch-T": relay signaling, tags disabled; the relay
///                 scan evaluates active predicates one by one.
///  * Broadcast  — "Baseline": one condition variable, signalAll on every
///                 exit/block; each woken thread re-evaluates its own
///                 predicate.
///
/// Every policy runs the same waituntil pipeline — plan the predicate's
/// shape, bind the locals, run the compiled check, then
/// ConditionManager::await — and there is no switch to take another: the
/// policy only decides how a blocked waiter is registered and woken.
///
/// The explicit-signal mechanism has no automatic monitor; its problem
/// implementations are hand-written in src/problems/ like the paper's Java.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_CORE_MONITORCONFIG_H
#define AUTOSYNCH_CORE_MONITORCONFIG_H

#include "dnf/Dnf.h"
#include "sync/Mutex.h"

#include <cstddef>

namespace autosynch {

/// How the condition manager signals waiting threads.
enum class SignalPolicy : uint8_t {
  Tagged,     ///< Full AutoSynch (relay invariance + predicate tagging).
  LinearScan, ///< AutoSynch-T (relay invariance, exhaustive scan).
  Broadcast   ///< Baseline (single condition variable + signalAll).
};

/// Returns "tagged", "linear-scan", or "broadcast".
const char *signalPolicyName(SignalPolicy P);

/// How much of the registered-predicate table a relay scan visits.
enum class RelayFilter : uint8_t {
  Always,  ///< Every relay runs the full tag-index/linear search (the
           ///< paper's behavior; kept for ablation).
  DirtySet ///< Relay work is proportional to what changed: a region that
           ///< wrote no shared variable skips the search outright, and a
           ///< search only visits predicates whose read sets intersect
           ///< the variables written since the last empty-handed scan.
};

/// Returns "always" or "dirty".
const char *relayFilterName(RelayFilter F);

struct MonitorConfig {
  SignalPolicy Policy = SignalPolicy::Tagged;

  /// Dirty-set-directed relay signaling (default) vs. the always-scan
  /// baseline. Only affects the relay policies; Broadcast ignores it.
  RelayFilter Filter = RelayFilter::DirtySet;

  /// Lock/condvar backend for the monitor lock and all conditions.
  sync::Backend Backend = sync::Backend::Std;

  /// Record per-phase CPU time (lock / await / relaySignal / tag manager)
  /// for the Table 1 experiment. Off by default: two clock reads per phase.
  bool EnablePhaseTimers = false;

  /// Registered predicates with no waiters are parked in an inactive cache
  /// for reuse (§5.2) instead of being destroyed; the oldest entries are
  /// evicted beyond this limit.
  size_t InactiveCacheLimit = 64;

  /// DNF conversion caps.
  DnfLimits Limits;
};

} // namespace autosynch

#endif // AUTOSYNCH_CORE_MONITORCONFIG_H
