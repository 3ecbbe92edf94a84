//===- plan/WaitPlan.cpp - Parameterized wait plans -------------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "plan/WaitPlan.h"

#include "dnf/CanonicalAtom.h"
#include "expr/Subst.h"

#include <algorithm>
#include <numeric>

using namespace autosynch;

namespace {

bool compareKeys(int64_t L, ExprKind Op, int64_t R) {
  switch (Op) {
  case ExprKind::Eq:
    return L == R;
  case ExprKind::Ne:
    return L != R;
  case ExprKind::Le:
    return L <= R;
  case ExprKind::Ge:
    return L >= R;
  default:
    AUTOSYNCH_UNREACHABLE("non-canonical op in plan guard");
  }
}

/// Scope census of one expression.
struct ScopeCensus {
  bool AnyShared = false;
  bool AnyLocal = false;
};

void census(ExprRef E, const SymbolTable &Syms, ScopeCensus &Out) {
  if (E->kind() == ExprKind::Var) {
    (Syms.isShared(E->varId()) ? Out.AnyShared : Out.AnyLocal) = true;
    return;
  }
  for (unsigned I = 0; I != E->numOperands(); ++I)
    census(E->operand(I), Syms, Out);
}

/// \p E interned in \p To. Nodes of an arena are already folded, so
/// rebuilding one through the folding constructors yields the same shape.
ExprRef reintern(ExprArena &To, ExprRef E) {
  switch (E->kind()) {
  case ExprKind::IntLit:
    return To.intLit(E->intValue());
  case ExprKind::BoolLit:
    return To.boolLit(E->boolValue());
  case ExprKind::Var:
    return To.var(E->varId(), E->type());
  default:
    break;
  }
  if (E->numOperands() == 1)
    return To.unary(E->kind(), reintern(To, E->lhs()));
  return To.binary(E->kind(), reintern(To, E->lhs()),
                   reintern(To, E->rhs()));
}

bool sigEntryLess(const SigEntry &A, const SigEntry &B) {
  if (A.P != B.P)
    return A.P < B.P;
  if (A.Tag != B.Tag)
    return A.Tag < B.Tag;
  return A.K < B.K;
}

/// Interval tracker replicating dnf/Dnf.cpp's BoundsTracker over resolved
/// keys, with fixed-size storage (pruning is skipped, never invented, when
/// a cap is hit — dropping a conjunction must stay provably sound).
class BindBounds {
public:
  /// Returns false when the conjunction became unsatisfiable.
  bool record(const void *Expr, ExprKind Op, int64_t K) {
    Entry *E = find(Expr);
    if (!E)
      return true; // Out of tracking slots: skip pruning, keep the atom.
    switch (Op) {
    case ExprKind::Eq:
      if (E->HasEq && E->Eq != K)
        return false;
      E->HasEq = true;
      E->Eq = K;
      break;
    case ExprKind::Ne:
      if (E->NeCount < MaxNe)
        E->Ne[E->NeCount++] = K;
      break;
    case ExprKind::Le:
      if (!E->HasHi || K < E->Hi) {
        E->HasHi = true;
        E->Hi = K;
      }
      break;
    case ExprKind::Ge:
      if (!E->HasLo || K > E->Lo) {
        E->HasLo = true;
        E->Lo = K;
      }
      break;
    default:
      AUTOSYNCH_UNREACHABLE("non-canonical op in BindBounds");
    }
    return satisfiable(*E);
  }

private:
  static constexpr size_t MaxExprs = 16;
  static constexpr unsigned MaxNe = 8;

  struct Entry {
    const void *Expr = nullptr;
    bool HasLo = false, HasHi = false, HasEq = false;
    int64_t Lo = 0, Hi = 0, Eq = 0;
    int64_t Ne[MaxNe];
    unsigned NeCount = 0;
  };

  Entry *find(const void *Expr) {
    for (size_t I = 0; I != Count; ++I)
      if (Entries[I].Expr == Expr)
        return &Entries[I];
    if (Count == MaxExprs)
      return nullptr;
    Entries[Count].Expr = Expr;
    return &Entries[Count++];
  }

  bool hasNe(const Entry &E, int64_t K) const {
    for (unsigned I = 0; I != E.NeCount; ++I)
      if (E.Ne[I] == K)
        return true;
    return false;
  }

  bool satisfiable(const Entry &E) const {
    if (E.HasLo && E.HasHi && E.Lo > E.Hi)
      return false;
    if (E.HasEq) {
      if (E.HasLo && E.Eq < E.Lo)
        return false;
      if (E.HasHi && E.Eq > E.Hi)
        return false;
      if (hasNe(E, E.Eq))
        return false;
    }
    if (E.HasLo && E.HasHi && E.Lo == E.Hi && hasNe(E, E.Lo))
      return false;
    return true;
  }

  Entry Entries[MaxExprs];
  size_t Count = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Plan construction
//===----------------------------------------------------------------------===//

int WaitPlan::slotIndex(VarId Var) const {
  for (size_t I = 0; I != Slots.size(); ++I)
    if (Slots[I].Var == Var)
      return static_cast<int>(I);
  return -1;
}

void WaitPlan::collectSlots(const SymbolTable &Syms) {
  // First-occurrence pre-order over the shape; this is the binding order
  // the EDSL skeletonizer emits values in.
  auto Walk = [&](auto &&Self, ExprRef E) -> void {
    if (E->kind() == ExprKind::Var) {
      VarId V = E->varId();
      if (Syms.isLocal(V) && slotIndex(V) < 0) {
        AUTOSYNCH_CHECK(Slots.size() < MaxSlots,
                        "waituntil: predicate has more than 16 distinct "
                        "local variables");
        Slots.push_back({V, Syms.info(V).Type});
      }
      return;
    }
    for (unsigned I = 0; I != E->numOperands(); ++I)
      Self(Self, E->operand(I));
  };
  Walk(Walk, Shape);
}

bool WaitPlan::lowerConjunction(ExprArena &Arena, const SymbolTable &Syms,
                                const Conjunction &C) {
  ConjTemplate CT;
  for (ExprRef Atom : C.Atoms) {
    ScopeCensus SC;
    census(Atom, Syms, SC);

    AtomCanonResult R = canonicalizeAtom(Atom);
    switch (R.Kind) {
    case AtomCanonKind::True:
      continue; // Contributes nothing (defensive; canonicalization folds).
    case AtomCanonKind::False:
      // False under every binding: the whole conjunction is dead.
      return true;
    case AtomCanonKind::Opaque: {
      AtomTemplate T;
      if (!SC.AnyLocal) {
        T.T = AtomTemplate::TKind::Opaque;
        T.Atom = Atom;
      } else if (!SC.AnyShared) {
        T.T = AtomTemplate::TKind::GuardOpaque;
        T.Guard = CompiledPredicate::compile(
            Atom, [this](VarId V) -> ResolvedVar {
              int I = slotIndex(V);
              AUTOSYNCH_CHECK(I >= 0, "guard atom var is not a plan slot");
              return {ResolvedVar::Kind::Local, static_cast<uint32_t>(I)};
            });
      } else {
        return false; // Mixed opaque atom: beyond the planner.
      }
      CT.Atoms.push_back(std::move(T));
      continue;
    }
    case AtomCanonKind::Atom:
      break;
    }

    // Split the canonical linear form into shared and local parts.
    LinearForm Sh;
    std::vector<std::pair<uint32_t, int64_t>> LocalTerms;
    bool Bad = false;
    for (const LinearForm::Term &Term : R.Atom.Lhs.terms()) {
      if (Term.second == INT64_MIN) {
        Bad = true; // Negation below would overflow; give up on the shape.
        break;
      }
      if (Syms.isShared(Term.first)) {
        std::optional<LinearForm> Sum =
            Sh.add(LinearForm::variableForm(Term.first).scale(Term.second)
                       .value());
        AUTOSYNCH_CHECK(Sum.has_value(), "re-summing sorted terms is exact");
        Sh = *Sum;
      } else {
        int I = slotIndex(Term.first);
        AUTOSYNCH_CHECK(I >= 0, "local term var is not a plan slot");
        LocalTerms.push_back({static_cast<uint32_t>(I), Term.second});
      }
    }
    if (Bad)
      return false;

    AtomTemplate T;
    T.Op = R.Atom.Op;

    if (Sh.terms().empty()) {
      // Local-only comparison: a bind-time guard.
      T.T = AtomTemplate::TKind::Guard;
      T.K = R.Atom.Rhs;
      T.KeyC = 0;
      T.KeyTerms = std::move(LocalTerms);
      CT.Atoms.push_back(std::move(T));
      continue;
    }

    if (LocalTerms.empty()) {
      // Shared-only comparison, already canonical from the symbolic pass.
      T.T = AtomTemplate::TKind::GroundLinear;
      T.SharedExpr = linearFormToExpr(Arena, R.Atom.Lhs);
      T.K = R.Atom.Rhs;
      CT.Atoms.push_back(std::move(T));
      continue;
    }

    // Mixed comparison. Ground canonicalization of the substituted atom
    // (a) moves the local part into the constant, (b) makes the leading
    // shared coefficient positive, (c) gcd-reduces the shared coefficients
    // with an integer-exact bound adjustment. (a) and (b) are replayed
    // here; (c)'s rounding depends on the bound value and runs at bind
    // time through the stored gcd.
    T.T = AtomTemplate::TKind::Linear;
    bool Flip = Sh.terms().front().second < 0;
    if (Flip) {
      if (R.Atom.Rhs == INT64_MIN)
        return false; // -K would overflow.
      std::optional<LinearForm> Neg = Sh.negate();
      if (!Neg)
        return false;
      Sh = *Neg;
      T.KeyC = -R.Atom.Rhs;
      T.KeyTerms = std::move(LocalTerms);
      if (T.Op == ExprKind::Le)
        T.Op = ExprKind::Ge;
      else if (T.Op == ExprKind::Ge)
        T.Op = ExprKind::Le;
    } else {
      T.KeyC = R.Atom.Rhs;
      T.KeyTerms = std::move(LocalTerms);
      for (auto &KT : T.KeyTerms)
        KT.second = -KT.second; // K' = K - Lo(vals).
    }

    uint64_t G = 0;
    for (const LinearForm::Term &Term : Sh.terms())
      G = std::gcd(G, static_cast<uint64_t>(
                          Term.second < 0 ? -static_cast<uint64_t>(Term.second)
                                          : static_cast<uint64_t>(Term.second)));
    AUTOSYNCH_CHECK(G > 0, "gcd of a non-constant form is positive");
    T.G = G;
    if (G > 1) {
      LinearForm Reduced;
      for (const LinearForm::Term &Term : Sh.terms()) {
        std::optional<LinearForm> Part =
            LinearForm::variableForm(Term.first)
                .scale(Term.second / static_cast<int64_t>(G));
        std::optional<LinearForm> Sum = Reduced.add(*Part);
        AUTOSYNCH_CHECK(Sum.has_value(), "gcd division cannot overflow");
        Reduced = *Sum;
      }
      Sh = Reduced;
    }
    T.SharedExpr = linearFormToExpr(Arena, Sh);
    CT.Atoms.push_back(std::move(T));
  }

  if (CT.Atoms.size() > 32)
    return false; // Signature buffers are fixed-size.
  Conjs.push_back(std::move(CT));
  return true;
}

std::unique_ptr<WaitPlan> WaitPlan::build(ExprArena &Arena,
                                          const SymbolTable &Syms,
                                          ExprRef Shape, DnfLimits Limits) {
  AUTOSYNCH_CHECK(Shape->type() == TypeKind::Bool,
                  "wait plans require a bool-typed shape");
  static_assert(MaxSlots == 16, "collectSlots' message names the cap");
  std::unique_ptr<WaitPlan> P(new WaitPlan());
  P->Shape = Shape;
  P->collectSlots(Syms);

  // Canonicalize the shape with its locals symbolic. For a shape with no
  // locals this IS the ground canonical form.
  P->CP = canonicalizePredicate(Arena, Shape, Limits);
  P->ReadSet = sharedReadSet(P->CP.Expr, Syms);
  P->Code = CompiledPredicate::compile(
      P->CP.Expr, [&Syms, Raw = P.get()](VarId V) -> ResolvedVar {
        if (Syms.isShared(V))
          return {ResolvedVar::Kind::Shared, V};
        int I = Raw->slotIndex(V);
        AUTOSYNCH_CHECK(I >= 0, "plan expression var is not shared or a slot");
        return {ResolvedVar::Kind::Local, static_cast<uint32_t>(I)};
      });

  if (P->CP.D.isTrue())
    P->K = Kind::AlwaysTrue;
  else if (P->CP.D.isFalse())
    P->K = Kind::Unsatisfiable;
  else if (P->Slots.empty())
    P->K = Kind::Ground;
  else if (P->lowerTemplates(Arena, Syms))
    P->K = Kind::Slotted;
  else
    P->K = Kind::Globalized;
  return P;
}

bool WaitPlan::lowerTemplates(ExprArena &Arena, const SymbolTable &Syms) {
  // The signature buffers resolve() works in are fixed-size.
  if (CP.D.Conjs.size() > MaxConjs)
    return false;
  size_t TotalEntries = 0;
  for (const Conjunction &C : CP.D.Conjs) {
    if (!lowerConjunction(Arena, Syms, C)) {
      Conjs.clear();
      return false;
    }
    TotalEntries += C.Atoms.size() + 1;
  }
  if (TotalEntries > MaxSigEntries) {
    Conjs.clear();
    return false;
  }
  return true;
}

std::unique_ptr<WaitPlan> WaitPlan::relocate(ExprArena &To) const {
  std::unique_ptr<WaitPlan> P(new WaitPlan(*this));
  auto Move = [&To](ExprRef &E) {
    if (E)
      E = reintern(To, E);
  };
  Move(P->Shape);
  Move(P->CP.Expr);
  for (Conjunction &C : P->CP.D.Conjs)
    for (ExprRef &Atom : C.Atoms)
      Move(Atom);
  for (ConjTemplate &CT : P->Conjs)
    for (AtomTemplate &T : CT.Atoms) {
      Move(T.Atom);
      Move(T.SharedExpr);
    }
  return P;
}

//===----------------------------------------------------------------------===//
// Binding and signature resolution
//===----------------------------------------------------------------------===//

ExprRef WaitPlan::globalize(ExprArena &Arena, const Value *Bound) const {
  MapEnv Locals;
  for (size_t I = 0; I != Slots.size(); ++I)
    Locals.bind(Slots[I].Var, Bound[I]);
  return substitute(Arena, Shape, Locals);
}

void WaitPlan::bindFromEnv(const Env &Locals, Value *Out) const {
  for (size_t I = 0; I != Slots.size(); ++I) {
    AUTOSYNCH_CHECK(Locals.has(Slots[I].Var),
                    "waituntil: unbound local variable in predicate");
    Value V = Locals.get(Slots[I].Var);
    AUTOSYNCH_CHECK(V.type() == Slots[I].Type,
                    "waituntil: local bound with mismatched type");
    Out[I] = V;
  }
}

WaitPlan::ResolveStatus WaitPlan::resolve(const Value *Bound, SigEntry *Buf,
                                          size_t &N) const {
  AUTOSYNCH_CHECK(K == Kind::Slotted, "resolve() requires a slotted plan");

  // Evaluates KeyC + sum(coef * Bound[slot]) with overflow checking.
  auto evalKey = [&](const AtomTemplate &T, int64_t &Out) -> bool {
    int64_t Acc = T.KeyC;
    for (const auto &[SlotIdx, Coef] : T.KeyTerms) {
      int64_t Term;
      if (__builtin_mul_overflow(Coef, Bound[SlotIdx].raw(), &Term))
        return false;
      if (__builtin_add_overflow(Acc, Term, &Acc))
        return false;
    }
    Out = Acc;
    return true;
  };

  SigEntry Tmp[MaxSigEntries];
  struct Segment {
    size_t Begin, End;
  };
  Segment Segs[MaxConjs];
  size_t NumSegs = 0;
  size_t Used = 0;

  for (const ConjTemplate &CT : Conjs) {
    size_t Begin = Used;
    bool Dead = false;
    BindBounds Bounds;

    for (const AtomTemplate &T : CT.Atoms) {
      switch (T.T) {
      case AtomTemplate::TKind::Opaque:
        Tmp[Used++] = SigEntry::opaque(T.Atom);
        break;
      case AtomTemplate::TKind::GroundLinear:
        if (!Bounds.record(T.SharedExpr, T.Op, T.K)) {
          Dead = true;
          break;
        }
        Tmp[Used++] = SigEntry::resolved(T.SharedExpr, T.Op, T.K);
        break;
      case AtomTemplate::TKind::Guard: {
        int64_t Key;
        if (!evalKey(T, Key))
          return ResolveStatus::Overflow;
        if (!compareKeys(Key, T.Op, T.K))
          Dead = true;
        break; // True guards contribute nothing.
      }
      case AtomTemplate::TKind::GuardOpaque:
        if (!T.Guard.runRawBool(nullptr, Bound))
          Dead = true;
        break;
      case AtomTemplate::TKind::Linear: {
        int64_t Key;
        if (!evalKey(T, Key))
          return ResolveStatus::Overflow;
        bool AtomTrue = false;
        if (T.G > 1) {
          int64_t Gs = static_cast<int64_t>(T.G);
          switch (T.Op) {
          case ExprKind::Eq:
            if (Key % Gs != 0)
              Dead = true; // g*expr == K unsolvable.
            else
              Key /= Gs;
            break;
          case ExprKind::Ne:
            if (Key % Gs != 0)
              AtomTrue = true; // g*expr != K always holds.
            else
              Key /= Gs;
            break;
          case ExprKind::Le:
            Key = floorDivExact(Key, Gs);
            break;
          case ExprKind::Ge:
            Key = ceilDivExact(Key, Gs);
            break;
          default:
            AUTOSYNCH_UNREACHABLE("non-canonical op in plan template");
          }
        }
        if (Dead || AtomTrue)
          break;
        if (!Bounds.record(T.SharedExpr, T.Op, Key)) {
          Dead = true;
          break;
        }
        Tmp[Used++] = SigEntry::resolved(T.SharedExpr, T.Op, Key);
        break;
      }
      }
      if (Dead)
        break;
    }

    if (Dead) {
      Used = Begin;
      continue;
    }
    if (Used == Begin) {
      // Every atom resolved away true: the predicate holds for this
      // binding under any shared state.
      N = 0;
      return ResolveStatus::True;
    }

    // Canonical entry order within the conjunction (insertion sort: the
    // arrays are tiny) plus duplicate removal.
    for (size_t I = Begin + 1; I < Used; ++I) {
      SigEntry E = Tmp[I];
      size_t J = I;
      while (J > Begin && sigEntryLess(E, Tmp[J - 1])) {
        Tmp[J] = Tmp[J - 1];
        --J;
      }
      Tmp[J] = E;
    }
    size_t W = Begin;
    for (size_t I = Begin; I < Used; ++I)
      if (I == Begin || !(Tmp[I] == Tmp[W - 1]))
        Tmp[W++] = Tmp[I];
    Used = W;

    AUTOSYNCH_CHECK(NumSegs < MaxConjs, "conjunction count exceeds the cap "
                                        "build() enforces");
    Segs[NumSegs++] = {Begin, Used};
  }

  if (NumSegs == 0) {
    N = 0;
    return ResolveStatus::False;
  }

  // Canonical conjunction order: sort the segments lexicographically and
  // drop duplicates. (Subsumption is left to the cold path's full
  // canonicalization; it only affects which alias maps to the record.)
  auto segLess = [&](const Segment &A, const Segment &B) {
    size_t LA = A.End - A.Begin, LB = B.End - B.Begin;
    size_t L = LA < LB ? LA : LB;
    for (size_t I = 0; I != L; ++I) {
      if (sigEntryLess(Tmp[A.Begin + I], Tmp[B.Begin + I]))
        return true;
      if (sigEntryLess(Tmp[B.Begin + I], Tmp[A.Begin + I]))
        return false;
    }
    return LA < LB;
  };
  auto segEqual = [&](const Segment &A, const Segment &B) {
    if (A.End - A.Begin != B.End - B.Begin)
      return false;
    for (size_t I = 0; I != A.End - A.Begin; ++I)
      if (!(Tmp[A.Begin + I] == Tmp[B.Begin + I]))
        return false;
    return true;
  };
  for (size_t I = 1; I < NumSegs; ++I) {
    Segment S = Segs[I];
    size_t J = I;
    while (J > 0 && segLess(S, Segs[J - 1])) {
      Segs[J] = Segs[J - 1];
      --J;
    }
    Segs[J] = S;
  }

  N = 0;
  for (size_t I = 0; I != NumSegs; ++I) {
    if (I > 0 && segEqual(Segs[I], Segs[I - 1]))
      continue;
    for (size_t E = Segs[I].Begin; E != Segs[I].End; ++E)
      Buf[N++] = Tmp[E];
    Buf[N++] = SigEntry::separator();
  }
  return ResolveStatus::Resolved;
}

Dnf WaitPlan::reconstruct(ExprArena &Arena, const SigEntry *Sig, size_t N) {
  Dnf D;
  Conjunction C;
  for (size_t I = 0; I != N; ++I) {
    const SigEntry &E = Sig[I];
    if (E.isSeparator()) {
      D.Conjs.push_back(std::move(C));
      C = Conjunction{};
      continue;
    }
    ExprRef Atom;
    if (E.Tag == SigEntry::Opaque)
      Atom = static_cast<ExprRef>(E.P);
    else
      Atom = Arena.binary(E.op(), static_cast<ExprRef>(E.P),
                          Arena.intLit(E.K));
    C.Atoms.push_back(Atom);
  }
  AUTOSYNCH_CHECK(C.Atoms.empty(), "signature not separator-terminated");
  return D;
}
