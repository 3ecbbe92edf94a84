//===- core/ConditionManager.h - The AutoSynch condition manager -*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The condition manager (paper §5): it owns the predicate table, the
/// per-predicate condition variables, the tag indices, and the inactive
/// cache, and it implements the relay signaling rule (§4.2):
///
///   "When a thread exits a monitor or goes into waiting state, it checks
///    whether there is some thread waiting on a condition that has become
///    true. If at least one such waiting thread exists, it signals that
///    thread."
///
/// Relay invariance bookkeeping: PendingSignals counts signaled-but-not-yet
/// -resumed threads. Those threads are *active* by the paper's Definition 3
/// ("not waiting ... or has been signaled"), so while one is in flight the
/// relay scan is skipped — if the in-flight thread finds its predicate
/// falsified it re-runs the relay itself, preserving the invariance chain
/// of Proposition 2.
///
/// Dirty-set-directed relays (MonitorConfig::RelayFilter::DirtySet, the
/// default): Monitor::writeSlot reports every value-changing shared write
/// to noteWrite(), which accumulates the written VarIds in a dirty set and
/// bumps a per-variable version counter. The invariant the filter rests on:
///
///   every active (waiter-holding) predicate whose read set does not
///   intersect the accumulated dirty set is false.
///
/// It holds because a scan that returns empty-handed has just (re-)proven
/// every active predicate false — only then is the dirty set cleared — and
/// a predicate over unchanged variables cannot change truth value. Three
/// consequences shape the code:
///
///  * A relay with an empty dirty set skips the search outright (the
///    read-only-exit fast path; Stats.RelayDirtySkips).
///  * A scan that *finds* a winner must NOT clear the dirty set: the scan
///    stopped early, so records it never reached may have been made true
///    by the same writes, and the relay chain (the winner re-relays on its
///    own exit) must still see them as suspect. For the same reason a
///    relay skipped because a signal is in flight (PendingTotal > 0) may
///    not clear or consume the set — the in-flight thread's later relay
///    inherits the accumulated dirt, so no write is ever dropped on the
///    floor between two scans.
///  * Version stamps piggyback on the same counters: recordTrue() stamps a
///    record with the newest version among its read set whenever it
///    evaluates false, and later checks answer "still false" without
///    running the bytecode while that stamp is current
///    (Stats.StampShortCircuits). Stamps are discarded on (re)activation,
///    and eviction destroys the record with its stamp, so cache churn can
///    never resurrect a stale proof.
///
/// All member functions require the monitor lock to be held by the caller
/// (the Monitor wrapper enforces this); the dirty set, version counters,
/// and stamps are all guarded by that lock.
///
/// Timed waits (the src/time/ deadline runtime): await() takes an
/// optional TimedWait carrying a monotonic deadline and an
/// optional CancelToken. A blocked timed waiter registers in the
/// per-manager timer wheel (its own lock shard; see time/TimerWheel.h) and
/// blocks with a *bounded* condvar wait — the wait's own deadline is the
/// guaranteed fallback tick, so expiry never depends on monitor traffic.
/// Exit paths additionally drive the wheel's lazy cascade (processExpiry,
/// polled at the top of every relaySignal through two relaxed loads):
/// expired waiters are marked, woken, and — via the ExpiredWaiters count —
/// retired from relay consideration, so a record whose every waiter has
/// expired is skipped by the search without being evaluated. Three
/// invariants keep this sound against the dirty-set machinery:
///
///  * Predicate-first: a waiter that observes its predicate true returns
///    true even if its deadline passed or its token fired concurrently —
///    a consumed directed signal is thereby *accepted*, never stolen.
///  * Baton passing: a timed waiter that leaves unsatisfied re-runs the
///    relay before returning, because its wakeup may have consumed (or
///    pre-empted) a directed signal another thread now deserves.
///  * Expired-skip soundness: the relay scan may skip a fully-expired
///    record without evaluating it, and an empty-handed scan still clears
///    the dirty set. Safe because nothing ever *waits* on that proof: the
///    expired waiters wake on their own bounded blocks and self-check, and
///    any future waiter of the record evaluates the predicate itself
///    before blocking (and from then on the record is no longer skipped).
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_CORE_CONDITIONMANAGER_H
#define AUTOSYNCH_CORE_CONDITIONMANAGER_H

#include "core/MonitorConfig.h"
#include "core/PhaseTimers.h"
#include "expr/Bytecode.h"
#include "expr/Env.h"
#include "expr/SymbolTable.h"
#include "expr/VarSet.h"
#include "plan/WaitPlan.h"
#include "sync/Counters.h"
#include "tag/TagIndex.h"
#include "time/CancelToken.h"
#include "time/FallbackTicker.h"
#include "time/TimerWheel.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

namespace autosynch {

/// Aggregate signaling statistics, exposed to tests and benches.
struct ManagerStats {
  uint64_t Waits = 0;         ///< await() calls that actually blocked.
  uint64_t RelayCalls = 0;    ///< relaySignal() invocations.
  uint64_t RelaySkips = 0;    ///< Relays skipped (a signal was in flight).
  uint64_t RelayDirtySkips = 0; ///< Relays skipped: empty dirty set (no
                                ///< shared variable changed since the last
                                ///< empty-handed scan).
  uint64_t StampShortCircuits = 0; ///< recordTrue() answers proven by the
                                   ///< version stamp without evaluating.
  uint64_t SignalsSent = 0;   ///< Directed signals issued.
  uint64_t BroadcastSignals = 0; ///< signalAll calls (Broadcast policy).
  uint64_t TimedWaits = 0;    ///< Timed waits that reached the blocking
                              ///< path (already-true fast paths excluded).
  uint64_t Timeouts = 0;      ///< Timed waits that returned false because
                              ///< their deadline passed.
  uint64_t Cancels = 0;       ///< Waits aborted through a CancelToken.
  uint64_t WheelWakeups = 0;  ///< Expired waiters noticed (and woken) by
                              ///< an exit-path wheel advance.
  uint64_t Registrations = 0; ///< Predicates added to the table.
  uint64_t CacheReuses = 0;   ///< Predicates revived from the inactive cache.
  uint64_t Evictions = 0;     ///< Predicates evicted from the cache.
  uint64_t PlanBindHits = 0;  ///< Plan signatures served by the bind table.
  uint64_t PlanColdBinds = 0; ///< Plan signatures resolved the long way.
  TagSearchStats Search;      ///< Tag-directed search work; the relay
                              ///< filter's skip count is Search.FilteredExprs.
};

/// A wakeup picked under the monitor lock but issued after it is released
/// (Monitor::exit), so the signaled thread does not immediately block on
/// the mutex the signaler still holds.
struct DeferredWake {
  sync::Condition *Cond = nullptr;
  bool All = false;

  /// Issues the wakeup (no-op when nothing was picked). Call WITHOUT the
  /// monitor lock.
  void fire() {
    if (!Cond)
      return;
    if (All)
      Cond->signalAll();
    else
      Cond->signal();
  }
};

/// The per-monitor condition manager.
class ConditionManager {
  struct Record; // Defined below; TimedWait carries a back-pointer.

public:
  /// One in-flight timed (or cancellable) wait: a stack-allocated record
  /// the blocking thread threads through the await entry points. Carries
  /// the wheel node (intrusive; zero allocation) and the optional token.
  /// Deadline semantics: Node.DeadlineNs is absolute monotonic
  /// (time::nowNs domain); time::NeverNs plus a token expresses a
  /// cancellation-only wait.
  struct TimedWait {
    TimedWait(uint64_t DeadlineNs, time::CancelToken *Token)
        : Token(Token) {
      Node.DeadlineNs = DeadlineNs;
      Node.Owner = this;
    }

    time::TimerNode Node;
    /// Far-deadline parking slot (time/FallbackTicker.h); used instead
    /// of the wheel node when the deadline is beyond the near horizon.
    time::FarNode FarN;
    time::CancelToken *Token = nullptr;
    /// The record this wait blocks on; set by waitOnRecord so exit-path
    /// expiry processing can retire the waiter from the record.
    Record *Rec = nullptr;
    /// Marked (under the monitor lock) by an exit-path wheel advance that
    /// noticed the deadline passed before the waiter's own bounded block
    /// returned; balanced against Record::ExpiredWaiters on the way out.
    bool Expired = false;

    uint64_t deadlineNs() const { return Node.DeadlineNs; }
    bool cancelled() const { return Token && Token->cancelled(); }
  };

  /// \p SharedEnv must resolve every Shared-scoped variable of \p Syms and
  /// reflect the monitor's current state on each call (the Monitor's slot
  /// environment does; the tag index evaluates shared expressions over
  /// it); \p Slots is the raw backing array of the same state, indexed by
  /// VarId, which every compiled predicate check reads.
  /// All references must outlive the manager.
  ConditionManager(sync::Mutex &MonitorLock, ExprArena &Arena,
                   SymbolTable &Syms, const Env &SharedEnv,
                   const std::vector<Value> &Slots,
                   const MonitorConfig &Cfg);
  ~ConditionManager();
  ConditionManager(const ConditionManager &) = delete;
  ConditionManager &operator=(const ConditionManager &) = delete;

  /// Blocks the calling thread until the wait bound by \p Plan and its
  /// slot values \p Bound holds — the one waituntil pipeline, paper
  /// Fig. 6's register-then-relay-and-wait. The caller has already run the
  /// check (Plan.code() over the shared slots and \p Bound is false).
  /// Registration depends on the plan:
  ///
  ///  * Ground: the plan's canonical form, found in the predicate table.
  ///  * Slotted: the binding resolves to a signature; known signatures map
  ///    straight to their record — zero interning, zero allocation — and
  ///    unknown ones are reconstructed and unified through the canonical
  ///    predicate table.
  ///  * Globalized, or a Slotted binding whose keys overflow int64: the
  ///    shape with \p Bound substituted (WaitPlan::globalize, §4.1) is
  ///    canonicalized and registered.
  ///
  /// The Broadcast policy registers nothing: it blocks on its single
  /// condition and re-runs Plan.code() on every wakeup.
  ///
  /// Monitor lock must be held; it is released while blocked and re-held
  /// on return. Fatal error if the predicate is canonically unsatisfiable
  /// (the wait could never finish — timed waits included: a deadline
  /// bounds waiting for a *possible* condition, it does not legalize an
  /// impossible one).
  ///
  /// With \p TW null this is the classic unbounded wait and always returns
  /// true. With \p TW set, returns true iff the predicate was observed
  /// true, false on deadline expiry or cancellation (predicate-first: see
  /// the file comment).
  bool await(const WaitPlan &Plan, const Value *Bound,
             TimedWait *TW = nullptr);

  /// The relay signaling rule; called on monitor exit and before blocking.
  /// With \p Defer null the winning record is signaled immediately (the
  /// pre-block relay, where the caller is about to release the lock by
  /// waiting anyway); otherwise the pick is recorded in \p Defer and the
  /// caller fires it after releasing the monitor lock.
  void relaySignal(DeferredWake *Defer = nullptr);

  /// Eagerly registers \p Pred (no waiting), mirroring the paper's
  /// constructor-time registration of static shared predicates (Fig. 5).
  /// The predicate starts in the inactive cache and is revived on first
  /// wait. Predicates that canonicalize to true/false are ignored.
  void registerPredicate(ExprRef Pred);

  /// Records that shared variable \p Id changed value: unions it into the
  /// relay dirty set and bumps its version counter. Called by
  /// Monitor::writeSlot under the monitor lock; a no-op when the dirty-set
  /// filter is off or the policy is Broadcast.
  void noteWrite(VarId Id) {
    if (Cfg.Filter != RelayFilter::DirtySet ||
        Cfg.Policy == SignalPolicy::Broadcast)
      return;
    ++GlobalVersion;
    if (Id >= SlotVersions.size())
      SlotVersions.resize(Id + 1, 0);
    SlotVersions[Id] = GlobalVersion;
    AccumDirty.add(Id);
  }

  //===--------------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------------===//

  const ManagerStats &stats() const { return Stats; }
  void resetStats() {
    flushRelayCounters(); // Keep the process-wide totals exact.
    Stats = ManagerStats();
    FlushedRelay = sync::RelayCountersSnapshot();
    FlushedTimed = sync::TimedCountersSnapshot();
  }

  PhaseTimers &timers() { return Timers; }

  /// Registered predicates (active + inactive).
  size_t numRegistered() const { return Table.size(); }
  /// Predicates with at least one waiter (tags registered in the index).
  size_t numActive() const { return ActiveCount; }
  /// Parked predicates available for reuse.
  size_t inactiveCacheSize() const { return Table.size() - ActiveCount; }
  /// Threads currently blocked in await().
  int numWaiters() const { return TotalWaiters; }
  /// Signals issued whose target has not resumed yet.
  int pendingSignals() const { return PendingTotal; }

private:
  static constexpr size_t InvalidPos = static_cast<size_t>(-1);

  /// One registered (globalized, canonicalized) predicate (declared at
  /// the top of the class so TimedWait can point at it).
  struct Record {
    ExprRef Canonical = nullptr;
    Dnf D;
    std::vector<Tag> Tags;
    std::unique_ptr<sync::Condition> Cond;
    CompiledPredicate Code;
    /// Shared variables the predicate reads; drives the relay filter.
    VarSet ReadSet;
    /// Version-stamp of the last false evaluation: while no read-set
    /// variable has a newer version, the predicate is still false and
    /// recordTrue() answers without running the bytecode. Invalidated on
    /// activation (StampValid = false).
    uint64_t FalseVersion = 0;
    bool StampValid = false;
    int Waiters = 0;
    /// Waiters whose deadline an exit-path wheel advance has seen expire
    /// but whose threads have not finished unwinding yet. When every
    /// waiter is expired the record is dead weight for the relay: the
    /// search skips it without evaluating (Search.ExpiredSkips).
    int ExpiredWaiters = 0;
    int PendingSignals = 0;
    bool Active = false;
    /// Whether the record has an entry in InactiveQueue (at most one).
    bool InQueue = false;
    uint64_t LastUse = 0;
    /// Intrusive position in ActiveList (InvalidPos when inactive); no
    /// side-table hashing on activate/deactivate.
    size_t ActiveIdx = InvalidPos;
    /// Intrusive position in the tag index's None list (see TagIndex).
    size_t NoneIdx = InvalidPos;
    /// Plan-signature aliases resolving to this record: pointers to the
    /// owning BindTable keys (stable: unordered_map nodes do not move),
    /// used to erase the aliases on eviction without a second copy of
    /// each signature.
    std::vector<const std::vector<SigEntry> *> SigAliases;
  };

  /// Owned plan-signature key (cold path); lookups use SigView.
  struct SigKey {
    std::vector<SigEntry> E;
  };
  struct SigView {
    const SigEntry *P;
    size_t N;
  };
  struct SigHash {
    using is_transparent = void;
    size_t operator()(const SigKey &K) const {
      return hash(K.E.data(), K.E.size());
    }
    size_t operator()(const SigView &V) const { return hash(V.P, V.N); }
    static size_t hash(const SigEntry *P, size_t N);
  };
  struct SigEq {
    using is_transparent = void;
    static bool eq(const SigEntry *A, size_t NA, const SigEntry *B,
                   size_t NB) {
      if (NA != NB)
        return false;
      for (size_t I = 0; I != NA; ++I)
        if (!(A[I] == B[I]))
          return false;
      return true;
    }
    bool operator()(const SigKey &A, const SigKey &B) const {
      return eq(A.E.data(), A.E.size(), B.E.data(), B.E.size());
    }
    bool operator()(const SigKey &A, const SigView &B) const {
      return eq(A.E.data(), A.E.size(), B.P, B.N);
    }
    bool operator()(const SigView &A, const SigKey &B) const {
      return eq(A.P, A.N, B.E.data(), B.E.size());
    }
  };

  /// Parks \p R in the inactive queue for reuse or eventual eviction.
  void park(Record *R);

  /// Existing record for \p Canonical (with revival bookkeeping), or null.
  Record *lookupExisting(ExprRef Canonical);
  Record *lookupOrRegister(ExprRef Canonical, Dnf D);
  void activate(Record *R);
  void deactivate(Record *R);
  void evictIfNeeded();

  /// The shared blocking loop: activate, relay-and-wait until the record's
  /// predicate holds (or, with \p TW, the deadline/token fires),
  /// deactivate when the last waiter leaves. Returns false only for a
  /// timed wait that left unsatisfied.
  bool waitOnRecord(Record *R, TimedWait *TW);

  /// Drives the timer wheel's lazy cascade from the monitor's wait/exit
  /// paths: fires due timers, marks their waits expired, retires them
  /// from relay consideration, and wakes their threads. Two relaxed loads
  /// and no clock read when no timer could be due.
  void processExpiry();

  /// Full predicate check under the current shared state, answered by the
  /// false-stamp when it is still current (DirtySet filter only).
  bool recordTrue(Record *R);

  /// Runs the record's compiled predicate, no stamping.
  bool evalRecord(Record *R) const;

  /// Newest version among \p S's variables (the stamp domain).
  uint64_t readSetVersion(const VarSet &S) const;

  /// Relay search under the LinearScan policy: evaluate active predicates
  /// one by one, skipping those \p Dirty proves unchanged-false.
  Record *linearScanFindTrue(const VarSet *Dirty);

  /// Relay search under the Tagged policy (TagIndex::findTrue).
  Record *taggedFindTrue(const VarSet *Dirty);

  /// Folds the delta of the per-monitor relay stats since the last flush
  /// into the process-wide sync::RelayCounters. Called every few dozen
  /// relays, on destruction, and from resetStats — never per exit, so the
  /// hot path touches no shared atomics.
  void flushRelayCounters();

  bool awaitBroadcast(const WaitPlan &Plan, const Value *Bound, TimedWait *TW);

  /// Canonicalizes ground \p Pred and finds or registers its record; null
  /// when canonicalization proves it true. Fatal if it proves it false.
  Record *registerGround(ExprRef Pred);

  /// Registers the globalized binding of \p Plan (the per-wait route).
  Record *registerGlobalized(const WaitPlan &Plan, const Value *Bound);

  /// The record a resolved plan signature denotes: a bind-table hit, or a
  /// cold reconstruction that is then remembered as an alias. Null when
  /// canonicalization proves the binding true.
  Record *bindSignature(const SigEntry *Sig, size_t N);

  sync::Mutex &MonitorLock;
  ExprArena &Arena;
  SymbolTable &Syms;
  const Env &SharedEnv;
  const std::vector<Value> &Slots;
  MonitorConfig Cfg;
  PhaseTimers Timers;

  /// Predicate table (§5.2): canonical predicate -> record. Pointer keys
  /// work because canonical predicates are interned.
  std::unordered_map<ExprRef, std::unique_ptr<Record>> Table;

  /// Plan-bind table: resolved plan signature -> record. The steady-state
  /// complex-predicate path; entries are aliases into Table's records.
  std::unordered_map<SigKey, Record *, SigHash, SigEq> BindTable;

  /// Tag indices (Tagged policy).
  TagIndex<Record> Index;

  /// Active records, for the LinearScan policy and diagnostics.
  std::vector<Record *> ActiveList;
  size_t ActiveCount = 0;

  /// Inactive cache in parking order. Each record appears at most once
  /// (Record::InQueue); revived records are skipped lazily on eviction.
  std::deque<Record *> InactiveQueue;

  /// Condition variables of evicted records. Never destroyed before the
  /// manager itself: a deferred wakeup (Monitor::exit signals after the
  /// unlock) may still be in flight for a record whose waiter already
  /// resumed — consuming the pending-signal accounting and allowing
  /// eviction — so destroying the condvar there would race the signal.
  /// Parking it instead makes the late signal a legal spurious wakeup for
  /// whichever record reuses it.
  std::vector<std::unique_ptr<sync::Condition>> CondPool;

  /// Broadcast policy state.
  std::unique_ptr<sync::Condition> BroadcastCond;
  int BroadcastWaiters = 0;

  int TotalWaiters = 0;
  int PendingTotal = 0;
  uint64_t UseTick = 0;

  /// The deadline runtime's per-manager timer wheel (its own internal
  /// lock, sharded off the monitor mutex) and the reusable scratch buffer
  /// advance() fires into (allocation-free steady state).
  time::TimerWheel Wheel;
  std::vector<time::TimerNode *> ExpiredScratch;

  /// Dirty-set relay state (all guarded by the monitor lock): variables
  /// written since the last empty-handed relay scan, the global write
  /// tick, and per-variable last-write versions (indexed by VarId, grown
  /// lazily). See the file comment for the invariant.
  VarSet AccumDirty;
  uint64_t GlobalVersion = 0;
  std::vector<uint64_t> SlotVersions;

  ManagerStats Stats;
  /// Portion of Stats already folded into sync::RelayCounters::global().
  sync::RelayCountersSnapshot FlushedRelay;
  /// Portion of Stats already folded into sync::TimedCounters::global().
  sync::TimedCountersSnapshot FlushedTimed;
};

} // namespace autosynch

#endif // AUTOSYNCH_CORE_CONDITIONMANAGER_H
