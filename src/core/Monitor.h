//===- core/Monitor.h - The automatic-signal monitor -----------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing automatic-signal monitor: the C++ rendering of the
/// paper's `AutoSynch class`. Derive from Monitor, declare monitor state as
/// Shared<T> members, wrap each public method body in a Region, and block
/// with waitUntil — no condition variables, no signal/signalAll:
///
/// \code
///   class BoundedBuffer : public autosynch::Monitor {
///   public:
///     explicit BoundedBuffer(int64_t N) : Capacity(N) {}
///
///     void put(int64_t Items) {
///       Region R(*this);
///       waitUntil(Count + Items <= Capacity);   // EDSL predicate
///       Count += Items;
///     }
///
///     int64_t take(int64_t Num) {
///       Region R(*this);
///       waitUntil("count >= num", locals().bindInt(local("num"), Num));
///       Count -= Num;
///       return Num;
///     }
///
///   private:
///     Shared<int64_t> Count{*this, "count", 0};
///     int64_t Capacity;
///   };
/// \endcode
///
/// Two predicate front ends with identical behaviour:
///  * the EDSL (expression templates over Shared<T>): local values are
///    baked in as literals — globalization done by construction;
///  * parsed strings: locals stay symbolic, are parsed once (cached), and
///    are globalized per call from the provided bindings — the path the
///    autosynchc translator emits.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_CORE_MONITOR_H
#define AUTOSYNCH_CORE_MONITOR_H

#include "core/ConditionManager.h"
#include "expr/Builder.h"
#include "plan/PlanCache.h"
#include "time/CancelToken.h"
#include "time/Deadline.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace autosynch {

namespace detail {

/// Environment over the monitor's shared-variable slots; always reflects
/// the current state.
class SlotEnv final : public Env {
public:
  SlotEnv(const SymbolTable &Syms, const std::vector<Value> &Slots)
      : Syms(Syms), Slots(Slots) {}

  Value get(VarId Id) const override {
    AUTOSYNCH_CHECK(has(Id), "unbound shared variable");
    return Slots[Id];
  }

  bool has(VarId Id) const override {
    return Id < Slots.size() && Syms.isShared(Id);
  }

private:
  const SymbolTable &Syms;
  const std::vector<Value> &Slots;
};

} // namespace detail

/// Base class for automatic-signal monitors.
class Monitor {
public:
  Monitor(const Monitor &) = delete;
  Monitor &operator=(const Monitor &) = delete;

  /// RAII monitor section: acquires the monitor lock on construction
  /// (reentrant for the owning thread) and releases it — after running the
  /// relay signaling rule — on destruction.
  class Region {
  public:
    explicit Region(Monitor &M) : M(M) { M.enter(); }
    ~Region() { M.exit(); }
    Region(const Region &) = delete;
    Region &operator=(const Region &) = delete;

  private:
    Monitor &M;
  };

  /// A shared monitor variable (paper Def. 1's set S). Reads and writes
  /// require the calling thread to be inside the monitor.
  template <typename T> class Shared {
    static_assert(std::is_same_v<T, bool> ||
                      (std::is_integral_v<T> && sizeof(T) <= 8),
                  "Shared<T> supports bool and integral types up to 64 bits");

  public:
    Shared(Monitor &M, std::string_view Name, T Initial = T())
        : M(M), Id(M.declareShared(Name, typeKind())) {
      M.writeSlot(Id, toValue(Initial), /*RequireOwned=*/false);
    }

    /// Current value; caller must be inside the monitor.
    T get() const { return fromValue(M.readSlot(Id)); }

    void set(T V) { M.writeSlot(Id, toValue(V), /*RequireOwned=*/true); }

    Shared &operator=(T V) {
      set(V);
      return *this;
    }
    Shared &operator+=(T V) {
      set(static_cast<T>(get() + V));
      return *this;
    }
    Shared &operator-=(T V) {
      set(static_cast<T>(get() - V));
      return *this;
    }

    /// The variable as an EDSL expression.
    ExprHandle expr() const {
      return ExprHandle(M.Arena, M.Arena.var(Id, typeKind()));
    }
    operator ExprHandle() const { return expr(); }

    VarId id() const { return Id; }

  private:
    static constexpr TypeKind typeKind() {
      return std::is_same_v<T, bool> ? TypeKind::Bool : TypeKind::Int;
    }
    static Value toValue(T V) {
      if constexpr (std::is_same_v<T, bool>)
        return Value::makeBool(V);
      else
        return Value::makeInt(static_cast<int64_t>(V));
    }
    static T fromValue(Value V) {
      if constexpr (std::is_same_v<T, bool>)
        return V.asBool();
      else
        return static_cast<T>(V.asInt());
    }

    Monitor &M;
    VarId Id;
  };

  //===--------------------------------------------------------------------===//
  // Introspection (tests and benches)
  //===--------------------------------------------------------------------===//

  ConditionManager &conditionManager() { return Mgr; }
  ExprArena &arena() { return Arena; }
  SymbolTable &symbols() { return Syms; }
  const MonitorConfig &config() const { return Cfg; }
  /// The monitor's wait-plan cache (predicate-shape -> WaitPlan).
  PlanCache &planCache() { return Plans; }

  /// How a wait is bounded (implementation descriptor, public so the
  /// out-of-line helpers can build one). For-timeouts stay relative until
  /// the wait actually blocks (no clock read on the already-true fast
  /// path); the deadline is materialized once, so every retry of the
  /// block loop sees the same instant.
  struct TimedSpec {
    enum class Kind : uint8_t { None, For, By };
    Kind K = Kind::None;
    uint64_t Ns = 0; ///< For: relative timeout; By: absolute deadline.
    time::CancelToken *Token = nullptr;

    bool timed() const { return K != Kind::None; }
    /// The absolute monotonic deadline (clock read only for For).
    uint64_t deadlineNs() const {
      return K == Kind::For ? time::deadlineAfter(time::nowNs(), Ns) : Ns;
    }
  };

protected:
  explicit Monitor(MonitorConfig Config = {});
  ~Monitor();

  /// Blocks until the EDSL predicate \p P holds. Must be called inside the
  /// monitor at region depth 1 (a wait from a nested region would deadlock
  /// and is rejected). Fatal error if \p P is canonically unsatisfiable.
  void waitUntil(const ExprHandle &P);

  /// Blocks until the parsed predicate \p Pred (shared variables only)
  /// holds. The parse is cached per source string.
  void waitUntil(std::string_view Pred);

  /// Blocks until parsed predicate \p Pred holds, with local variables
  /// bound in \p Locals (globalized per call, paper §4.1).
  void waitUntil(std::string_view Pred, const MapEnv &Locals);

  //===--------------------------------------------------------------------===//
  // Timed and cancellable waits (the src/time/ deadline runtime)
  //===--------------------------------------------------------------------===//
  //
  // waitUntilFor bounds the wait by a relative timeout, waitUntilBy by an
  // absolute monotonic deadline (time::Deadline; Deadline::never() plus a
  // CancelToken expresses a cancellation-only wait). All variants return
  // true iff the predicate was observed true — predicate-first: a wait
  // whose predicate holds returns true even if the deadline passed or the
  // token fired concurrently, so a relayed signal is accepted, never
  // stolen — and false on expiry or cancellation, with the monitor
  // re-entered and the region still intact either way. The fast path
  // (predicate already true) reads no clock; timeouts convert to
  // deadlines only when the wait actually blocks. Same restrictions as
  // waitUntil (region depth 1; canonically unsatisfiable predicates are
  // fatal — a deadline bounds a possible wait, it does not legalize an
  // impossible one).

  /// Bounded wait on an EDSL predicate.
  bool waitUntilFor(const ExprHandle &P, std::chrono::nanoseconds Timeout,
                    time::CancelToken *Token = nullptr);

  /// Bounded wait on a parsed shared-only predicate.
  bool waitUntilFor(std::string_view Pred, std::chrono::nanoseconds Timeout,
                    time::CancelToken *Token = nullptr);

  /// Bounded wait on a parsed predicate with local bindings.
  bool waitUntilFor(std::string_view Pred, const MapEnv &Locals,
                    std::chrono::nanoseconds Timeout,
                    time::CancelToken *Token = nullptr);

  /// Deadline wait on an EDSL predicate.
  bool waitUntilBy(const ExprHandle &P, time::Deadline D,
                   time::CancelToken *Token = nullptr);

  /// Deadline wait on a parsed shared-only predicate.
  bool waitUntilBy(std::string_view Pred, time::Deadline D,
                   time::CancelToken *Token = nullptr);

  /// Deadline wait on a parsed predicate with local bindings.
  bool waitUntilBy(std::string_view Pred, const MapEnv &Locals,
                   time::Deadline D, time::CancelToken *Token = nullptr);

  /// Declares (or retrieves) a Local-scoped variable for use in parsed
  /// predicates. Call during construction or while inside the monitor.
  VarId local(std::string_view Name, TypeKind Ty = TypeKind::Int);

  /// Fresh, empty local-bindings environment (sugar for call sites).
  static MapEnv locals() { return MapEnv(); }

  /// Integer literal in this monitor's arena (EDSL convenience).
  ExprHandle lit(int64_t V) { return ExprHandle(Arena, Arena.intLit(V)); }
  /// Boolean literal in this monitor's arena.
  ExprHandle blit(bool V) { return ExprHandle(Arena, Arena.boolLit(V)); }

  /// Eagerly registers a shared predicate (paper Fig. 5 registers all
  /// static shared predicates in the constructor). Purely an optimization;
  /// waits register on demand anyway.
  void registerPredicate(std::string_view Pred);

  /// Runs \p F inside the monitor.
  template <typename Fn> auto synchronized(Fn &&F) {
    Region R(*this);
    return F();
  }

private:
  template <typename> friend class Shared;

  void enter();
  void exit();
  bool ownedByCaller() const {
    return Owner.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

  VarId declareShared(std::string_view Name, TypeKind Ty);
  Value readSlot(VarId Id) const;
  void writeSlot(VarId Id, Value V, bool RequireOwned);

  /// A parse-cache entry: the interned parse plus the memoized WaitPlan
  /// for that shape (filled on first use; plans are never evicted, so the
  /// pointer is stable). Saves a plan-cache hash lookup per parsed wait.
  struct ParseEntry {
    ExprRef Expr = nullptr;
    const WaitPlan *Plan = nullptr;
  };

  ParseEntry &parseCached(std::string_view Pred);

  /// \p Entry is the parse-cache entry of a parsed predicate, null for an
  /// EDSL one.
  bool waitUntilImpl(ExprRef Pred, const Env &Locals, ParseEntry *Entry,
                     const TimedSpec &TS);
  bool dispatchWait(ExprRef Pred, const Env &Locals, ParseEntry *Entry,
                    const TimedSpec &TS);

  /// Heterogeneous string hashing so the parse-cache hit path looks up by
  /// string_view without materializing a std::string key.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
    size_t operator()(const std::string &S) const {
      return std::hash<std::string_view>{}(S);
    }
  };

  MonitorConfig Cfg;
  sync::Mutex Lock;
  ExprArena Arena;
  SymbolTable Syms;
  std::vector<Value> Slots;
  detail::SlotEnv SharedSlots;
  ConditionManager Mgr;
  PlanCache Plans;
  std::unordered_map<std::string, ParseEntry, StringHash, std::equal_to<>>
      ParseCache;
  std::atomic<std::thread::id> Owner{};
  int Depth = 0;
};

} // namespace autosynch

#endif // AUTOSYNCH_CORE_MONITOR_H
