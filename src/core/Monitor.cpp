//===- core/Monitor.cpp - The automatic-signal monitor ---------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "core/Monitor.h"

#include "expr/Subst.h"
#include "parse/PredicateParser.h"

using namespace autosynch;

Monitor::Monitor(MonitorConfig Config)
    : Cfg(Config), Lock(Config.Backend), SharedSlots(Syms, Slots),
      Mgr(Lock, Arena, Syms, SharedSlots, Slots, Cfg), Plans(Arena, Syms) {}

Monitor::~Monitor() = default;

//===----------------------------------------------------------------------===//
// Shared-variable slots
//===----------------------------------------------------------------------===//

VarId Monitor::declareShared(std::string_view Name, TypeKind Ty) {
  VarId Id = Syms.declare(Name, Ty, VarScope::Shared);
  if (Slots.size() < Syms.size())
    Slots.resize(Syms.size());
  return Id;
}

Value Monitor::readSlot(VarId Id) const {
  AUTOSYNCH_CHECK(ownedByCaller(),
                  "shared variable read outside the monitor");
  return Slots[Id];
}

void Monitor::writeSlot(VarId Id, Value V, bool RequireOwned) {
  AUTOSYNCH_CHECK(!RequireOwned || ownedByCaller(),
                  "shared variable write outside the monitor");
  // A write that does not change the value cannot change any predicate:
  // it neither dirties the relay set nor bumps the variable's version, so
  // idempotent stores keep the read-only-exit fast path.
  if (Slots[Id] == V)
    return;
  Slots[Id] = V;
  Mgr.noteWrite(Id);
}

//===----------------------------------------------------------------------===//
// Mutual exclusion (reentrant monitor regions)
//===----------------------------------------------------------------------===//

void Monitor::enter() {
  std::thread::id Me = std::this_thread::get_id();
  if (Owner.load(std::memory_order_relaxed) == Me) {
    ++Depth;
    return;
  }
  uint64_t T0 = Mgr.timers().start();
  Lock.lock();
  Mgr.timers().stop(PhaseTimers::Lock, T0);
  Owner.store(Me, std::memory_order_relaxed);
  Depth = 1;
}

void Monitor::exit() {
  AUTOSYNCH_CHECK(ownedByCaller(), "monitor exit by a non-owning thread");
  if (--Depth > 0)
    return;
  // Relay signaling rule: on exit, hand the monitor to some thread whose
  // condition has become true (paper §4.2). The winner is picked (and all
  // bookkeeping done) under the lock, but the condvar wakeup fires only
  // after the unlock — otherwise the woken thread would immediately block
  // on the mutex this thread still holds (the wake-then-block convoy).
  DeferredWake Wake;
  Mgr.relaySignal(&Wake);
  Owner.store(std::thread::id(), std::memory_order_relaxed);
  Lock.unlock();
  Wake.fire();
}

//===----------------------------------------------------------------------===//
// waituntil
//===----------------------------------------------------------------------===//

bool Monitor::waitUntilImpl(ExprRef Pred, const Env &Locals, ParseEntry *Entry,
                            const TimedSpec &TS) {
  AUTOSYNCH_CHECK(ownedByCaller(), "waitUntil outside the monitor");
  AUTOSYNCH_CHECK(Depth == 1,
                  "waitUntil from a nested monitor region would deadlock");
  std::thread::id Me = Owner.load(std::memory_order_relaxed);
  // The wait releases the monitor lock; other threads own the monitor in
  // the meantime, so ownership is cleared here and restored when the wait
  // returns with the lock re-held. Depth must be restored as well: an
  // intervening region that fully exited leaves Depth at 0, which would
  // misfire the nested-region check on a later waitUntil in this region
  // (and unbalance exit()). We checked Depth == 1 above, so restoring to
  // 1 is exact.
  Owner.store(std::thread::id(), std::memory_order_relaxed);
  bool Satisfied = dispatchWait(Pred, Locals, Entry, TS);
  Owner.store(Me, std::memory_order_relaxed);
  Depth = 1;
  return Satisfied;
}

bool Monitor::dispatchWait(ExprRef Pred, const Env &Locals, ParseEntry *Entry,
                           const TimedSpec &TS) {
  // The one waituntil pipeline: plan the shape (once per monitor; cached),
  // bind this thread's locals, check, then register and wait.
  Value Bound[WaitPlan::MaxSlots];
  const WaitPlan *Plan;
  if (!Entry) {
    Plan = Plans.forEdsl(Pred, Cfg.Limits, Bound); // An EDSL predicate.
  } else {
    if (!Entry->Plan) // Memoized on the parse-cache entry.
      Entry->Plan = Plans.forShape(Pred, Cfg.Limits);
    Plan = Entry->Plan;
    Plan->bindFromEnv(Locals, Bound);
  }

  if (Plan->code().runRawBool(Slots.data(), Bound))
    return true; // Fast path: already true (Fig. 6 checks P first).
  if (!TS.timed())
    return Mgr.await(*Plan, Bound);
  // Timed waits bind their deadline into the same stack frame the plan
  // hit uses — a TimerNode slot, no allocation, no extra lookups.
  ConditionManager::TimedWait TW(TS.deadlineNs(), TS.Token);
  return Mgr.await(*Plan, Bound, &TW);
}

void Monitor::waitUntil(const ExprHandle &P) {
  AUTOSYNCH_CHECK(&P.arena() == &Arena,
                  "predicate built against a different monitor");
  AUTOSYNCH_CHECK(P.type() == TypeKind::Bool,
                  "waitUntil requires a bool predicate");
  waitUntilImpl(P.ref(), EmptyEnv::instance(), nullptr, TimedSpec());
}

void Monitor::waitUntil(std::string_view Pred) {
  ParseEntry &E = parseCached(Pred);
  waitUntilImpl(E.Expr, EmptyEnv::instance(), &E, TimedSpec());
}

void Monitor::waitUntil(std::string_view Pred, const MapEnv &Locals) {
  ParseEntry &E = parseCached(Pred);
  waitUntilImpl(E.Expr, Locals, &E, TimedSpec());
}

//===----------------------------------------------------------------------===//
// Timed and cancellable waits
//===----------------------------------------------------------------------===//

namespace {

Monitor::TimedSpec specFor(std::chrono::nanoseconds Timeout,
                           time::CancelToken *Token) {
  Monitor::TimedSpec TS;
  TS.K = Monitor::TimedSpec::Kind::For;
  TS.Ns = Timeout.count() <= 0 ? 0
                               : static_cast<uint64_t>(Timeout.count());
  TS.Token = Token;
  return TS;
}

Monitor::TimedSpec specBy(time::Deadline D, time::CancelToken *Token) {
  Monitor::TimedSpec TS;
  TS.K = Monitor::TimedSpec::Kind::By;
  TS.Ns = D.Ns;
  TS.Token = Token;
  return TS;
}

} // namespace

bool Monitor::waitUntilFor(const ExprHandle &P,
                           std::chrono::nanoseconds Timeout,
                           time::CancelToken *Token) {
  AUTOSYNCH_CHECK(&P.arena() == &Arena,
                  "predicate built against a different monitor");
  AUTOSYNCH_CHECK(P.type() == TypeKind::Bool,
                  "waitUntilFor requires a bool predicate");
  return waitUntilImpl(P.ref(), EmptyEnv::instance(), nullptr,
                       specFor(Timeout, Token));
}

bool Monitor::waitUntilFor(std::string_view Pred,
                           std::chrono::nanoseconds Timeout,
                           time::CancelToken *Token) {
  ParseEntry &E = parseCached(Pred);
  return waitUntilImpl(E.Expr, EmptyEnv::instance(), &E,
                       specFor(Timeout, Token));
}

bool Monitor::waitUntilFor(std::string_view Pred, const MapEnv &Locals,
                           std::chrono::nanoseconds Timeout,
                           time::CancelToken *Token) {
  ParseEntry &E = parseCached(Pred);
  return waitUntilImpl(E.Expr, Locals, &E, specFor(Timeout, Token));
}

bool Monitor::waitUntilBy(const ExprHandle &P, time::Deadline D,
                          time::CancelToken *Token) {
  AUTOSYNCH_CHECK(&P.arena() == &Arena,
                  "predicate built against a different monitor");
  AUTOSYNCH_CHECK(P.type() == TypeKind::Bool,
                  "waitUntilBy requires a bool predicate");
  return waitUntilImpl(P.ref(), EmptyEnv::instance(), nullptr,
                       specBy(D, Token));
}

bool Monitor::waitUntilBy(std::string_view Pred, time::Deadline D,
                          time::CancelToken *Token) {
  ParseEntry &E = parseCached(Pred);
  return waitUntilImpl(E.Expr, EmptyEnv::instance(), &E, specBy(D, Token));
}

bool Monitor::waitUntilBy(std::string_view Pred, const MapEnv &Locals,
                          time::Deadline D, time::CancelToken *Token) {
  ParseEntry &E = parseCached(Pred);
  return waitUntilImpl(E.Expr, Locals, &E, specBy(D, Token));
}

Monitor::ParseEntry &Monitor::parseCached(std::string_view Pred) {
  auto It = ParseCache.find(Pred); // Heterogeneous: no key allocation.
  if (It != ParseCache.end())
    return It->second;

  PredicateParseOptions Options;
  Options.AutoDeclareLocals = true;
  PredicateParseResult R = parsePredicate(Pred, Arena, Syms, Options);
  if (!R.ok()) {
    std::string Msg = "waituntil predicate \"" + std::string(Pred) +
                      "\": " + R.Error.toString();
    fatalError(__FILE__, __LINE__, Msg.c_str());
  }
  return ParseCache.emplace(std::string(Pred), ParseEntry{R.Expr, nullptr})
      .first->second;
}

VarId Monitor::local(std::string_view Name, TypeKind Ty) {
  if (const VarInfo *Info = Syms.lookup(Name)) {
    AUTOSYNCH_CHECK(Info->Scope == VarScope::Local,
                    "local(): name already declared as a shared variable");
    AUTOSYNCH_CHECK(Info->Type == Ty,
                    "local(): redeclaration with a different type");
    return Info->Id;
  }
  return Syms.declare(Name, Ty, VarScope::Local);
}

void Monitor::registerPredicate(std::string_view Pred) {
  ExprRef E = parseCached(Pred).Expr;
  AUTOSYNCH_CHECK(!isComplex(E, Syms),
                  "registerPredicate requires a shared predicate");
  Mgr.registerPredicate(E);
}
