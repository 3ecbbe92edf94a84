//===- plan/WaitPlan.h - Parameterized wait plans --------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wait plans: the front half of the waituntil pipeline (globalization §4.1
/// -> canonicalization -> DNF -> tag-key derivation) run ONCE per predicate
/// *shape* and parameterized over the waiting thread's local values.
///
/// A shape is a predicate expression whose Local-scoped variables are held
/// symbolic — a parsed predicate as written ("count >= n"), or an EDSL
/// expression with its literals abstracted into slots (plan/PlanCache.h).
/// Building a plan canonicalizes the shape symbolically and compiles, per
/// DNF conjunction, small *atom templates* whose constants are linear
/// functions of the slots:
///
///   count >= n      ->  (count, >=, K(n) = n)
///   2*count >= n    ->  (count, >=, K(n) = ceil(n/2))
///   n > 0           ->  guard: bind-time truth test, no shared part
///
/// A steady-state waitUntil then *binds* current local values into the
/// cached plan: evaluate each key form (O(#locals) integer arithmetic),
/// drop conjunctions whose guards fail, and emit a flat, stack-allocated
/// *signature* — the ground canonical form of the globalized predicate,
/// expressed as (interned shared-expression, op, key) triples. The
/// condition manager resolves signatures to predicate records through a
/// hash table with heterogeneous lookup, so the whole hit path performs
/// zero arena interning and zero heap allocation.
///
/// Exactness is never load-bearing: a signature the manager has not seen
/// is reconstructed into an expression and re-canonicalized through the
/// ordinary dnf/ pipeline, unifying with records registered by any other
/// route (eager registration, per-wait globalization, other shapes). The
/// bind path only ever prunes conjunctions it can prove false (guard
/// failure, divisibility, interval contradiction — the same rules the
/// ground canonicalizer applies after substitution), so plans are
/// semantically transparent.
///
/// The planner is total: every shape gets a slot list, a canonical form
/// and a compiled check. Shapes it cannot parameterize (a non-linear atom
/// mixing shared and local variables, more conjunctions or signature
/// entries than the fixed buffers hold) come back as Kind::Globalized:
/// each blocking wait on them substitutes its bound values into the shape
/// (globalize(), paper §4.1) and canonicalizes the result. A parsed
/// predicate with more than MaxSlots distinct locals is a fatal error.
///
/// A plan is per monitor: its expressions are interned in the monitor's
/// arena, so pointer comparisons (signature entries, canonical-table
/// keys) hold within that monitor. What is per process is the *analysis*:
/// the plan registry (plan/PlanRegistry.h) keeps one copy of each shape's
/// plan in its own arena, and relocate() turns it into the plan a fresh
/// monitor would have built — re-interning the expressions, copying the
/// value parts (kind, slots, key forms, read set, bytecode) verbatim.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PLAN_WAITPLAN_H
#define AUTOSYNCH_PLAN_WAITPLAN_H

#include "dnf/Dnf.h"
#include "expr/Bytecode.h"
#include "expr/SymbolTable.h"
#include "expr/VarSet.h"

#include <memory>
#include <vector>

namespace autosynch {

/// One entry of a resolved plan signature. A signature is a flat array of
/// entries: resolved atoms grouped into conjunction segments, each segment
/// terminated by a Separator entry. Entries compare bitwise.
struct SigEntry {
  /// Separator / opaque-atom / resolved-comparison discriminator. Values
  /// >= OpBase encode the comparison ExprKind of a resolved atom.
  enum : uint64_t { Separator = 0, Opaque = 1, OpBase = 2 };

  const void *P = nullptr; ///< Interned shared expression (or whole atom).
  uint64_t Tag = Separator;
  int64_t K = 0;

  static SigEntry separator() { return SigEntry{}; }
  static SigEntry opaque(ExprRef Atom) { return {Atom, Opaque, 0}; }
  static SigEntry resolved(ExprRef Shared, ExprKind Op, int64_t K) {
    return {Shared, OpBase + static_cast<uint64_t>(Op), K};
  }

  bool isSeparator() const { return Tag == Separator; }
  ExprKind op() const { return static_cast<ExprKind>(Tag - OpBase); }

  bool operator==(const SigEntry &R) const {
    return P == R.P && Tag == R.Tag && K == R.K;
  }
};

/// A parameterized wait plan for one predicate shape.
class WaitPlan {
public:
  enum class Kind : uint8_t {
    Ground,        ///< No slots: canonicalized outright at build time.
    Slotted,       ///< Parameterized over local-value slots.
    Globalized,    ///< Shape the planner cannot parameterize (e.g. a
                   ///< non-linear atom mixing shared and local variables);
                   ///< each blocking wait registers globalize()'s result.
    AlwaysTrue,    ///< Canonically true for every binding.
    Unsatisfiable  ///< Canonically false for every binding.
  };

  /// One local-value slot of the shape.
  struct Slot {
    VarId Var = 0;
    TypeKind Type = TypeKind::Int;
  };

  /// More slots than MaxSlots is a fatal error; shapes with more
  /// conjunctions or atoms are planned as Kind::Globalized. The caps size
  /// the fixed buffers resolve() works in (build() enforces them, so
  /// resolution never overflows).
  static constexpr size_t MaxSlots = 16;
  static constexpr size_t MaxConjs = 24;
  static constexpr size_t MaxSigEntries = 96;

  /// Outcome of resolving a binding into a signature.
  enum class ResolveStatus : uint8_t {
    Resolved, ///< Signature written; proceed to record lookup.
    True,     ///< Predicate is true for this binding under any state.
    False,    ///< Predicate is false for this binding under any state
              ///< (an unsatisfiable wait — fatal at the call site).
    Overflow  ///< Key arithmetic overflowed int64; register globalize().
  };

  /// Builds the plan for \p Shape (bool-typed; locals symbolic). Always
  /// returns a plan with its slots, canonical form and code(); shapes
  /// beyond the planner's templates come back as Kind::Globalized. Fatal
  /// error when \p Shape has more than MaxSlots distinct locals.
  static std::unique_ptr<WaitPlan> build(ExprArena &Arena,
                                         const SymbolTable &Syms,
                                         ExprRef Shape, DnfLimits Limits);

  Kind kind() const { return K; }
  ExprRef shape() const { return Shape; }
  const std::vector<Slot> &slots() const { return Slots; }

  /// The symbolic canonical predicate. For Ground plans this is the
  /// finished ground canonical form.
  const CanonicalPredicate &canonical() const { return CP; }

  /// Slot program evaluating the canonical predicate over (shared slots,
  /// bound locals); the allocation-free fast-path check.
  const CompiledPredicate &code() const { return Code; }

  /// The shared variables the canonical shape reads, computed once at
  /// build time. Every ground predicate a binding of this plan registers
  /// reads a subset of these variables, so the dirty-set relay's
  /// per-record read sets agree with the plan-level one regardless of
  /// front end.
  const VarSet &readSet() const { return ReadSet; }

  /// Binds local values out of \p Locals into \p Out (size >= MaxSlots) in
  /// slot order. Fatal error on an unbound or type-mismatched local.
  void bindFromEnv(const Env &Locals, Value *Out) const;

  /// Resolves bound values into a signature. \p Buf must hold at least
  /// MaxSigEntries entries; \p N receives the entry count (including the
  /// per-conjunction separators).
  ResolveStatus resolve(const Value *Bound, SigEntry *Buf, size_t &N) const;

  /// The shape with every slot replaced by its bound value (paper §4.1):
  /// the ground predicate a Globalized plan, or a binding whose keys
  /// overflowed, registers after canonicalization.
  ExprRef globalize(ExprArena &Arena, const Value *Bound) const;

  /// Rebuilds the ground DNF a signature denotes (cold path: the result is
  /// re-canonicalized by the caller to unify with the predicate table).
  static Dnf reconstruct(ExprArena &Arena, const SigEntry *Sig, size_t N);

  /// A copy of this plan over the same symbol table whose expressions are
  /// interned in \p To: the shape, the canonical form and the templates'
  /// atoms and shared expressions are re-interned; everything else (kind,
  /// slots, key forms, read set, bytecode) is copied verbatim. Because
  /// interning is by content, relocating into the arena a plan would have
  /// been built in yields exactly that plan, pointer for pointer.
  std::unique_ptr<WaitPlan> relocate(ExprArena &To) const;

private:
  WaitPlan() = default;

  /// One atom of one conjunction, parameterized over the slots.
  struct AtomTemplate {
    enum class TKind : uint8_t {
      Opaque,      ///< Shared-only atom with no linear form; emitted as-is.
      GroundLinear,///< Shared-only canonical comparison; constant known.
      Linear,      ///< Mixed comparison; key is a linear form of slots.
      Guard,       ///< Local-only canonical comparison; bind-time truth.
      GuardOpaque  ///< Local-only opaque atom; compiled over the slots.
    };

    TKind T = TKind::Opaque;
    ExprRef Atom = nullptr;       ///< Opaque: the interned atom.
    ExprRef SharedExpr = nullptr; ///< GroundLinear/Linear: reduced LHS.
    ExprKind Op = ExprKind::Eq;   ///< Comparison op (Eq/Ne/Le/Ge).
    int64_t K = 0;                ///< GroundLinear constant / Guard RHS.
    uint64_t G = 1;               ///< Linear: gcd the key divides through.
    int64_t KeyC = 0;             ///< Linear/Guard key-form constant.
    /// Linear/Guard key-form terms: (slot index, coefficient).
    std::vector<std::pair<uint32_t, int64_t>> KeyTerms;
    CompiledPredicate Guard;      ///< GuardOpaque program.
  };

  struct ConjTemplate {
    std::vector<AtomTemplate> Atoms;
  };

  /// Builds the slot list from \p Shape; fatal when over MaxSlots.
  void collectSlots(const SymbolTable &Syms);

  /// Lowers the canonical form into per-conjunction templates; false when
  /// the shape is beyond them (the plan is then Globalized).
  bool lowerTemplates(ExprArena &Arena, const SymbolTable &Syms);

  /// Lowers one canonical conjunction into templates; false -> Globalized.
  bool lowerConjunction(ExprArena &Arena, const SymbolTable &Syms,
                       const Conjunction &C);

  /// Slot index of \p Var, or -1.
  int slotIndex(VarId Var) const;

  Kind K = Kind::Globalized;
  ExprRef Shape = nullptr;
  CanonicalPredicate CP;
  VarSet ReadSet;
  std::vector<Slot> Slots;
  std::vector<ConjTemplate> Conjs;
  CompiledPredicate Code;
};

} // namespace autosynch

#endif // AUTOSYNCH_PLAN_WAITPLAN_H
