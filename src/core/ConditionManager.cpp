//===- core/ConditionManager.cpp - The AutoSynch condition manager ---------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "core/ConditionManager.h"

#include "expr/Eval.h"
#include "expr/Subst.h"
#include "plan/PlanCache.h"
#include "sync/Counters.h"
#include "time/FallbackTicker.h"

#include <bit>

using namespace autosynch;

const char *autosynch::signalPolicyName(SignalPolicy P) {
  switch (P) {
  case SignalPolicy::Tagged:
    return "tagged";
  case SignalPolicy::LinearScan:
    return "linear-scan";
  case SignalPolicy::Broadcast:
    return "broadcast";
  }
  AUTOSYNCH_UNREACHABLE("invalid SignalPolicy");
}

const char *autosynch::relayFilterName(RelayFilter F) {
  switch (F) {
  case RelayFilter::Always:
    return "always";
  case RelayFilter::DirtySet:
    return "dirty";
  }
  AUTOSYNCH_UNREACHABLE("invalid RelayFilter");
}

ConditionManager::ConditionManager(sync::Mutex &MonitorLock,
                                   ExprArena &Arena, SymbolTable &Syms,
                                   const Env &SharedEnv,
                                   const std::vector<Value> &Slots,
                                   const MonitorConfig &Cfg)
    : MonitorLock(MonitorLock), Arena(Arena), Syms(Syms),
      SharedEnv(SharedEnv), Slots(Slots), Cfg(Cfg),
      Timers(Cfg.EnablePhaseTimers) {
  if (Cfg.Policy == SignalPolicy::Broadcast)
    BroadcastCond = MonitorLock.newCondition();
}

size_t ConditionManager::SigHash::hash(const SigEntry *P, size_t N) {
  // FNV-1a over the entry fields.
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  for (size_t I = 0; I != N; ++I) {
    Mix(reinterpret_cast<uintptr_t>(P[I].P));
    Mix(P[I].Tag);
    Mix(static_cast<uint64_t>(P[I].K));
  }
  return static_cast<size_t>(H);
}

ConditionManager::~ConditionManager() {
  AUTOSYNCH_CHECK(TotalWaiters == 0,
                  "destroying a monitor with blocked waiters");
  flushRelayCounters();
}

void ConditionManager::flushRelayCounters() {
  sync::RelayCountersSnapshot Cur{Stats.RelayCalls, Stats.RelayDirtySkips,
                                  Stats.Search.FilteredExprs,
                                  Stats.StampShortCircuits};
  sync::RelayCounters::global().add(Cur - FlushedRelay);
  FlushedRelay = Cur;
  // The deadline-runtime totals ride the same batching cadence.
  sync::TimedCountersSnapshot Timed{Stats.TimedWaits, Stats.Timeouts,
                                    Stats.Cancels, Stats.WheelWakeups};
  sync::TimedCounters::global().add(Timed - FlushedTimed);
  FlushedTimed = Timed;
}

//===----------------------------------------------------------------------===//
// Predicate evaluation
//===----------------------------------------------------------------------===//

bool ConditionManager::evalRecord(Record *R) const {
  // Slot programs read the monitor's shared state straight out of the
  // backing array — no virtual Env dispatch on the relay hot path.
  return R->Code.runRawBool(Slots.data(), nullptr);
}

uint64_t ConditionManager::readSetVersion(const VarSet &S) const {
  if (S.universal())
    return GlobalVersion;
  uint64_t V = 0;
  for (uint64_t M = S.mask(); M != 0; M &= M - 1) {
    auto B = static_cast<size_t>(std::countr_zero(M));
    if (B < SlotVersions.size() && SlotVersions[B] > V)
      V = SlotVersions[B];
  }
  return V;
}

bool ConditionManager::recordTrue(Record *R) {
  if (Cfg.Filter != RelayFilter::DirtySet)
    return evalRecord(R);

  // Predicates are pure functions of the shared slots, so an unchanged
  // read-set version means an unchanged truth value: a current false-stamp
  // answers without touching the bytecode.
  uint64_t Ver = readSetVersion(R->ReadSet);
  if (R->StampValid && R->FalseVersion == Ver) {
    ++Stats.StampShortCircuits;
    return false;
  }
  bool True = evalRecord(R);
  R->StampValid = !True;
  R->FalseVersion = Ver;
  return True;
}

//===----------------------------------------------------------------------===//
// Registration, activation, and the inactive cache (§5.2)
//===----------------------------------------------------------------------===//

ConditionManager::Record *ConditionManager::lookupExisting(ExprRef Canonical) {
  auto It = Table.find(Canonical);
  if (It == Table.end())
    return nullptr;
  if (!It->second->Active)
    ++Stats.CacheReuses;
  return It->second.get();
}

ConditionManager::Record *
ConditionManager::lookupOrRegister(ExprRef Canonical, Dnf D) {
  if (Record *Existing = lookupExisting(Canonical))
    return Existing;

  ++Stats.Registrations;
  auto R = std::make_unique<Record>();
  R->Canonical = Canonical;
  R->D = std::move(D);
  R->Tags = deriveTags(Arena, R->D, Syms);
  // Registered predicates are globalized (shared variables only), so the
  // whole variable set of the canonical form is the read set.
  collectVars(Canonical, R->ReadSet);
  if (!CondPool.empty()) {
    R->Cond = std::move(CondPool.back());
    CondPool.pop_back();
  } else {
    R->Cond = MonitorLock.newCondition();
  }
  R->Code = CompiledPredicate::compile(
      Canonical, [this](VarId V) -> ResolvedVar {
        AUTOSYNCH_CHECK(Syms.isShared(V),
                        "registered predicate mentions a local");
        return {ResolvedVar::Kind::Shared, V};
      });
  Record *Raw = R.get();
  Table.emplace(Canonical, std::move(R));
  // Newly registered predicates start parked; activate() revives them when
  // the first waiter arrives.
  park(Raw);
  return Raw;
}

void ConditionManager::park(Record *R) {
  R->LastUse = ++UseTick;
  if (!R->InQueue) {
    InactiveQueue.push_back(R);
    R->InQueue = true;
  }
}

void ConditionManager::activate(Record *R) {
  if (R->Active)
    return;
  // Revival invalidates the false-stamp: cheap (one eval on the next
  // check), and it keeps "stamps are only trusted on records that stayed
  // active" a local invariant instead of a whole-lifecycle proof.
  R->StampValid = false;
  uint64_t T0 = Timers.start();
  if (Cfg.Policy == SignalPolicy::Tagged)
    for (const Tag &T : R->Tags)
      Index.add(T, R);
  AUTOSYNCH_CHECK(R->ActiveIdx == InvalidPos,
                  "inactive record still holds an active position");
  R->ActiveIdx = ActiveList.size();
  ActiveList.push_back(R);
  ++ActiveCount;
  R->Active = true;
  Timers.stop(PhaseTimers::TagMgmt, T0);
}

void ConditionManager::deactivate(Record *R) {
  AUTOSYNCH_CHECK(R->Active, "deactivating an inactive record");
  AUTOSYNCH_CHECK(R->Waiters == 0, "deactivating a record with waiters");
  AUTOSYNCH_CHECK(R->ExpiredWaiters == 0,
                  "deactivating a record with unretired expired waiters");
  AUTOSYNCH_CHECK(R->PendingSignals == 0,
                  "deactivating a record with an in-flight signal");
  uint64_t T0 = Timers.start();
  if (Cfg.Policy == SignalPolicy::Tagged)
    for (const Tag &T : R->Tags)
      Index.remove(T, R);
  size_t Pos = R->ActiveIdx;
  AUTOSYNCH_CHECK(Pos < ActiveList.size() && ActiveList[Pos] == R,
                  "record's active position is stale");
  ActiveList[Pos] = ActiveList.back();
  ActiveList[Pos]->ActiveIdx = Pos;
  ActiveList.pop_back();
  R->ActiveIdx = InvalidPos;
  --ActiveCount;
  R->Active = false;
  park(R);
  Timers.stop(PhaseTimers::TagMgmt, T0);
  evictIfNeeded();
}

void ConditionManager::evictIfNeeded() {
  // Oldest-first eviction. A queue entry is stale when its record was
  // revived after parking; such records are skipped (they re-enter the
  // queue when they park again).
  while (Table.size() - ActiveCount > Cfg.InactiveCacheLimit &&
         !InactiveQueue.empty()) {
    Record *R = InactiveQueue.front();
    InactiveQueue.pop_front();
    R->InQueue = false;
    if (R->Active)
      continue; // Revived while queued.
    AUTOSYNCH_CHECK(R->Waiters == 0 && R->PendingSignals == 0,
                    "evicting a record in use");
    for (const std::vector<SigEntry> *Alias : R->SigAliases) {
      auto It = BindTable.find(SigView{Alias->data(), Alias->size()});
      AUTOSYNCH_CHECK(It != BindTable.end() && It->second == R,
                      "stale plan-signature alias");
      BindTable.erase(It);
    }
    // Park the condvar, never destroy it here: a deferred exit-wakeup may
    // still be signaling it (see CondPool).
    CondPool.push_back(std::move(R->Cond));
    Table.erase(R->Canonical);
    ++Stats.Evictions;
  }
}

void ConditionManager::registerPredicate(ExprRef Pred) {
  AUTOSYNCH_CHECK(!isComplex(Pred, Syms),
                  "registerPredicate requires a shared predicate");
  CanonicalPredicate CP = canonicalizePredicate(Arena, Pred, Cfg.Limits);
  if (CP.D.isTrue() || CP.D.isFalse())
    return;
  lookupOrRegister(CP.Expr, std::move(CP.D));
  evictIfNeeded();
}

//===----------------------------------------------------------------------===//
// Relay signaling (§4.2)
//===----------------------------------------------------------------------===//

ConditionManager::Record *
ConditionManager::linearScanFindTrue(const VarSet *Dirty) {
  for (Record *R : ActiveList) {
    if (Dirty && !Dirty->intersects(R->ReadSet)) {
      ++Stats.Search.FilteredExprs;
      continue;
    }
    if (R->ExpiredWaiters >= R->Waiters) {
      // Every waiter's deadline has passed; each wakes on its own bounded
      // block, so a directed signal here would be wasted (see the file
      // comment for why skipping without evaluating stays sound).
      ++Stats.Search.ExpiredSkips;
      continue;
    }
    ++Stats.Search.PredicateChecks;
    if (recordTrue(R))
      return R;
  }
  return nullptr;
}

ConditionManager::Record *ConditionManager::taggedFindTrue(const VarSet *Dirty) {
  return Index.findTrue(
      [&](ExprRef SharedExpr) { return eval(SharedExpr, SharedEnv).raw(); },
      [&](Record *R) {
        if (R->ExpiredWaiters >= R->Waiters) {
          // Mid-scan retirement of expired records: answer "not a
          // winner" without touching the record's predicate or stamp.
          ++Stats.Search.ExpiredSkips;
          return false;
        }
        ++Stats.Search.PredicateChecks;
        return recordTrue(R);
      },
      &Stats.Search, Dirty);
}

void ConditionManager::processExpiry() {
  // Gate with two relaxed loads before paying for a clock read (and only
  // then the wheel lock): monitors without timed waiters must not feel
  // the deadline runtime on their exit paths.
  if (Wheel.size() == 0)
    return;
  uint64_t Now = time::nowNs();
  if (Now < Wheel.nextDueBoundNs())
    return;

  ExpiredScratch.clear();
  if (Wheel.advance(Now, ExpiredScratch) == 0)
    return;
  for (time::TimerNode *N : ExpiredScratch) {
    auto *TW = static_cast<TimedWait *>(N->Owner);
    AUTOSYNCH_CHECK(TW && !TW->Expired, "timer fired twice for one wait");
    AUTOSYNCH_CHECK(TW->Rec, "fired timer without a record");
    TW->Expired = true;
    ++TW->Rec->ExpiredWaiters;
    ++Stats.WheelWakeups;
    // Wake the expired thread promptly (it would otherwise return at its
    // own bounded block's deadline — this only accelerates). The signal
    // may land on a sibling waiter of the same record; that thread treats
    // it as a legal spurious wakeup.
    TW->Rec->Cond->signal();
  }
}

void ConditionManager::relaySignal(DeferredWake *Defer) {
  // Exit/wait paths drive the timer wheel's lazy cascade: expired timed
  // waiters are retired from relay consideration before the search picks
  // a winner (near-free when no timer is due; see processExpiry).
  processExpiry();

  uint64_t T0 = Timers.start();
  // The process-wide counters are fed in batches, not per exit: a shared
  // fetch_add here would put cross-monitor cache-line contention on the
  // very path the dirty skip makes cheap.
  if ((++Stats.RelayCalls & 63) == 0)
    flushRelayCounters();

  if (Cfg.Policy == SignalPolicy::Broadcast) {
    // Baseline: wake everyone; each waiter re-evaluates its own predicate.
    // Deliberately unfiltered — the baseline's behavior is a paper
    // comparison point and must stay bit-for-bit.
    if (BroadcastWaiters > 0) {
      if (Defer) {
        Defer->Cond = BroadcastCond.get();
        Defer->All = true;
      } else {
        BroadcastCond->signalAll();
      }
      ++Stats.BroadcastSignals;
    }
    Timers.stop(PhaseTimers::Relay, T0);
    return;
  }

  // A signaled thread that has not resumed yet is active (Definition 3);
  // relay invariance already holds, and that thread will re-relay if its
  // predicate has been falsified in the meantime. The dirty set is left
  // untouched: the in-flight thread's relay must still see these writes.
  if (PendingTotal > 0) {
    ++Stats.RelaySkips;
    Timers.stop(PhaseTimers::Relay, T0);
    return;
  }

  const bool Filtered = Cfg.Filter == RelayFilter::DirtySet;
  if (Filtered && AccumDirty.empty()) {
    // Nothing changed since the last empty-handed scan proved every
    // active predicate false — the read-only-exit fast path: no shared-
    // expression evaluation, no predicate check, no heap visit.
    ++Stats.RelayDirtySkips;
    Timers.stop(PhaseTimers::Relay, T0);
    return;
  }

  const VarSet *Dirty = Filtered ? &AccumDirty : nullptr;
  Record *R = Cfg.Policy == SignalPolicy::Tagged ? taggedFindTrue(Dirty)
                                                 : linearScanFindTrue(Dirty);
  if (R) {
    // All bookkeeping happens here, under the lock, at pick time; only the
    // condvar notification itself may be deferred past the unlock. The
    // non-zero PendingSignals keeps the record alive (eviction refuses
    // records in use) until the signaled thread resumes. The dirty set
    // survives a successful pick: the scan stopped early, so unvisited
    // records may owe their (unknown) truth to the same writes.
    if (Defer)
      Defer->Cond = R->Cond.get();
    else
      R->Cond->signal();
    ++R->PendingSignals;
    ++PendingTotal;
    ++Stats.SignalsSent;
  } else if (Filtered) {
    // Empty-handed scan: every active predicate is (re-)proven false
    // under the current state, so the accumulated dirt is discharged.
    AccumDirty.clear();
  }
  Timers.stop(PhaseTimers::Relay, T0);
}

//===----------------------------------------------------------------------===//
// Waiting (paper Fig. 6)
//===----------------------------------------------------------------------===//

bool ConditionManager::awaitBroadcast(const WaitPlan &Plan,
                                      const Value *Bound, TimedWait *TW) {
  // Broadcast timed waits never register in the wheel: signalAll on every
  // exit already wakes them, and their bounded block is its own fallback
  // tick. The token still needs the registration handshake for a wake
  // that races the final flag check (see time/CancelToken.h).
  time::CancelScope Scope(TW ? TW->Token : nullptr, BroadcastCond.get());
  if (TW)
    ++Stats.TimedWaits; // On entry, like waitOnRecord: a wait that dies
                        // at its first deadline check still counts, so
                        // Timeouts <= TimedWaits holds for every policy.
  bool Waited = false;
  while (true) {
    if (Plan.code().runRawBool(Slots.data(), Bound))
      return true; // Predicate-first, even past the deadline.
    if (TW) {
      if (Scope.cancelled()) {
        ++Stats.Cancels;
        return false;
      }
      if (time::isBounded(TW->deadlineNs()) &&
          time::nowNs() >= TW->deadlineNs()) {
        ++Stats.Timeouts;
        return false;
      }
    }
    if (!Waited) {
      Waited = true;
      ++Stats.Waits;
      // The classic pre-block relay: the region may have changed state
      // before this wait, and the broadcast policy's only bookkeeping is
      // "wake everyone". First iteration only — a woken waiter that
      // re-evaluates false has nothing new to announce, and under
      // epoch-counted (loss-free) timed waits a per-iteration signalAll
      // would ping-pong blocked waiters forever.
      relaySignal();
    }
    ++BroadcastWaiters;
    ++TotalWaiters;
    uint64_t T0 = Timers.start();
    if (TW) {
      // Epoch after every gen-bumping step above and cancel re-checked
      // after the capture: a flag set later necessarily bumps the epoch
      // later, so the bounded wait returns immediately (see
      // sync/Mutex.h on the closed lost-notify window).
      uint64_t Epoch = BroadcastCond->epoch();
      if (!Scope.cancelled())
        BroadcastCond->awaitUntil(TW->deadlineNs(), Epoch);
    } else {
      BroadcastCond->await();
    }
    Timers.stop(PhaseTimers::Await, T0);
    --BroadcastWaiters;
    --TotalWaiters;
  }
}

bool ConditionManager::waitOnRecord(Record *R, TimedWait *TW) {
  activate(R);
  ++R->Waiters;
  ++TotalWaiters;
  ++Stats.Waits;
  time::CancelScope Scope(TW ? TW->Token : nullptr, R->Cond.get());
  bool InWheel = false;
  bool Far = false;
  // Near deadlines are detected by the bounded block itself (awaitUntil's
  // verdict is authoritative: the kernel compared against the same
  // monotonic clock), so the near loop needs no per-wakeup clock read —
  // only this entry check, for waits whose deadline already passed before
  // ever blocking. Far deadlines (beyond the wheel's near horizon) block
  // *unbounded* under the epoch handshake and lean on the process-wide
  // fallback tick for their expiry wake: one armed kernel timer for every
  // far wait in the process, instead of one per block.
  bool DeadlinePassed = false;
  if (TW) {
    ++Stats.TimedWaits;
    TW->Rec = R;
    if (time::isBounded(TW->deadlineNs())) {
      uint64_t Now = time::nowNs();
      DeadlinePassed = Now >= TW->deadlineNs();
      if (!DeadlinePassed) {
        if (TW->deadlineNs() - Now <= time::TimerWheel::NearHorizonNs) {
          Wheel.insert(TW->Node); // O(1); cancelled symmetrically below.
          InWheel = true;
        } else {
          TW->FarN.Cond = R->Cond.get();
          TW->FarN.DeadlineNs = TW->deadlineNs();
          time::FallbackTicker::global().add(TW->FarN);
          Far = true;
        }
      }
    }
  }

  bool Satisfied;
  while (true) {
    if (recordTrue(R)) {
      Satisfied = true;
      break;
    }
    uint64_t Epoch = 0;
    if (TW) {
      // Epoch before the flag checks: a cancel or expiry wake that lands
      // after this line bumps it, and awaitUntil then returns
      // immediately — the lost-notify window is closed (sync/Mutex.h).
      Epoch = R->Cond->epoch();
      if (Far)
        DeadlinePassed = time::nowNs() >= TW->deadlineNs();
      if (DeadlinePassed || TW->Expired || Scope.cancelled()) {
        Satisfied = false;
        break;
      }
    }
    relaySignal(); // Maintain the invariance before blocking.
    uint64_t T0 = Timers.start();
    if (TW) {
      // Far waits pass the unbounded sentinel: no kernel timer; the
      // fallback tick (or any relay/cancel wake) ends the block.
      bool V = R->Cond->awaitUntil(
          Far ? time::NeverNs : TW->deadlineNs(), Epoch);
      DeadlinePassed = DeadlinePassed || V;
    } else {
      R->Cond->await();
    }
    Timers.stop(PhaseTimers::Await, T0);
    if (R->PendingSignals > 0) {
      --R->PendingSignals;
      --PendingTotal;
    }
  }

  if (TW) {
    if (InWheel)
      Wheel.cancel(TW->Node); // No-op if an exit-path advance fired it.
    if (Far)
      time::FallbackTicker::global().remove(TW->FarN);
    if (TW->Expired) {
      AUTOSYNCH_CHECK(R->ExpiredWaiters > 0,
                      "expired-waiter count out of balance");
      --R->ExpiredWaiters;
      TW->Expired = false;
    }
    if (!Satisfied) {
      if (Scope.cancelled())
        ++Stats.Cancels;
      else
        ++Stats.Timeouts;
      // Baton passing: our wakeup may have consumed a directed signal
      // whose chain obligation we are abandoning; re-run the relay so a
      // thread whose predicate became true is still signaled.
      relaySignal();
    }
  }

  --R->Waiters;
  --TotalWaiters;
  if (R->Waiters == 0)
    deactivate(R);
  return Satisfied;
}

ConditionManager::Record *ConditionManager::registerGround(ExprRef Pred) {
  CanonicalPredicate CP = canonicalizePredicate(Arena, Pred, Cfg.Limits);
  if (CP.D.isTrue())
    return nullptr; // Canonicalization may prove it (x >= x).
  AUTOSYNCH_CHECK(!CP.D.isFalse(),
                  "waituntil on an unsatisfiable predicate would never "
                  "return");
  return lookupOrRegister(CP.Expr, std::move(CP.D));
}

ConditionManager::Record *
ConditionManager::registerGlobalized(const WaitPlan &Plan,
                                     const Value *Bound) {
  // Globalization (§4.1): substitute the thread's locals so every other
  // thread can evaluate the predicate on our behalf.
  PlanCounters::global().onLegacyWait();
  return registerGround(Plan.globalize(Arena, Bound));
}

ConditionManager::Record *ConditionManager::bindSignature(const SigEntry *Sig,
                                                          size_t N) {
  auto It = BindTable.find(SigView{Sig, N});
  if (It != BindTable.end()) {
    // Steady state: the signature was seen before; no interning, no
    // allocation, no canonicalization.
    Record *R = It->second;
    ++Stats.PlanBindHits;
    PlanCounters::global().onBindHit();
    if (!R->Active)
      ++Stats.CacheReuses; // Revival parity with the table path.
    return R;
  }
  // Cold: rebuild the ground predicate the signature denotes and unify
  // it through the canonical table (it may already be registered via
  // another shape, eager registration, or per-wait globalization), then
  // remember the signature as an alias.
  ++Stats.PlanColdBinds;
  PlanCounters::global().onColdBind();
  Record *R =
      registerGround(dnfToExpr(Arena, WaitPlan::reconstruct(Arena, Sig, N)));
  if (!R)
    return nullptr; // Subsumption may prove the binding trivially true.
  SigKey Key;
  Key.E.assign(Sig, Sig + N);
  auto [Slot, Inserted] = BindTable.emplace(std::move(Key), R);
  AUTOSYNCH_CHECK(Inserted, "cold bind raced an existing signature");
  R->SigAliases.push_back(&Slot->first.E);
  return R;
}

bool ConditionManager::await(const WaitPlan &Plan, const Value *Bound,
                             TimedWait *TW) {
  AUTOSYNCH_CHECK(Plan.kind() != WaitPlan::Kind::Unsatisfiable,
                  "waituntil on an unsatisfiable predicate would never "
                  "return");
  if (Cfg.Policy == SignalPolicy::Broadcast)
    return awaitBroadcast(Plan, Bound, TW);

  Record *R = nullptr;
  switch (Plan.kind()) {
  case WaitPlan::Kind::Ground:
    // Steady state is a plain table hit; the plan's Dnf is copied only
    // when the record actually has to be (re-)registered.
    R = lookupExisting(Plan.canonical().Expr);
    if (!R)
      R = lookupOrRegister(Plan.canonical().Expr, Plan.canonical().D);
    break;
  case WaitPlan::Kind::Slotted: {
    SigEntry Sig[WaitPlan::MaxSigEntries];
    size_t N = 0;
    switch (Plan.resolve(Bound, Sig, N)) {
    case WaitPlan::ResolveStatus::Resolved:
      R = bindSignature(Sig, N);
      break;
    case WaitPlan::ResolveStatus::True:
      // "True under any shared state" contradicts the caller's false
      // check; resolution and code() derive from the same canonical form.
      AUTOSYNCH_CHECK(false, "plan resolution diverged from evaluation");
      break;
    case WaitPlan::ResolveStatus::False:
      AUTOSYNCH_CHECK(false, "waituntil on an unsatisfiable predicate would "
                             "never return");
      break;
    case WaitPlan::ResolveStatus::Overflow:
      // Key arithmetic left int64. Canonicalizing the globalized
      // predicate stays exact: an atom whose constants overflow degrades
      // to an untagged opaque one.
      R = registerGlobalized(Plan, Bound);
      break;
    }
    break;
  }
  case WaitPlan::Kind::Globalized:
    R = registerGlobalized(Plan, Bound);
    break;
  case WaitPlan::Kind::AlwaysTrue:
  case WaitPlan::Kind::Unsatisfiable:
    break; // AlwaysTrue never gets here: code() is constant true.
  }
  return R ? waitOnRecord(R, TW) : true;
}
