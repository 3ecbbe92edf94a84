//===- plan/PlanCache.cpp - Per-monitor wait-plan cache ---------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "plan/PlanCache.h"

#include "expr/Subst.h"
#include "plan/PlanRegistry.h"

#include <string_view>

using namespace autosynch;

PlanCounters &PlanCounters::global() {
  static PlanCounters G;
  return G;
}

VarId PlanCache::slotVar(size_t I, TypeKind Ty) {
  // '$' cannot appear in parsed identifiers, so slot names can never
  // collide with user variables.
  static constexpr std::string_view IntNames[WaitPlan::MaxSlots] = {
      "$i0", "$i1", "$i2",  "$i3",  "$i4",  "$i5",  "$i6",  "$i7",
      "$i8", "$i9", "$i10", "$i11", "$i12", "$i13", "$i14", "$i15"};
  static constexpr std::string_view BoolNames[WaitPlan::MaxSlots] = {
      "$b0", "$b1", "$b2",  "$b3",  "$b4",  "$b5",  "$b6",  "$b7",
      "$b8", "$b9", "$b10", "$b11", "$b12", "$b13", "$b14", "$b15"};
  AUTOSYNCH_CHECK(I < WaitPlan::MaxSlots, "slot index beyond MaxSlots");
  const bool IsInt = Ty == TypeKind::Int;
  std::vector<VarId> &Vars = IsInt ? IntSlotVars : BoolSlotVars;
  while (Vars.size() <= I)
    Vars.push_back(Syms.declare((IsInt ? IntNames : BoolNames)[Vars.size()],
                                Ty, VarScope::Local));
  return Vars[I];
}

const WaitPlan *PlanCache::lookupOrBuild(ExprRef Shape,
                                         const DnfLimits &Limits) {
  auto It = Plans.find(Shape);
  if (It != Plans.end()) {
    ++Stats.ShapeHits;
    PlanCounters::global().onShapeHit();
    return It->second.get();
  }
  ++Stats.ShapeBuilds;
  PlanCounters::global().onShapeBuild();
  // A miss here: import the blueprint another monitor exported, else
  // build and export one (lock order: monitor lock -> registry mutex).
  PlanRegistry &Registry = PlanRegistry::global();
  std::string Key = PlanRegistry::keyOf(Shape, Syms, Limits);
  std::unique_ptr<WaitPlan> P = Registry.import(Key, Arena);
  if (P) {
    ++Stats.ShapeImports;
    PlanCounters::global().onShapeImport();
  } else {
    P = WaitPlan::build(Arena, Syms, Shape, Limits);
    Registry.publish(std::move(Key), *P, Syms, Limits);
  }
  AUTOSYNCH_CHECK(P->shape() == Shape, "imported plan is for another shape");
  if (P->kind() == WaitPlan::Kind::Globalized)
    ++Stats.GlobalizedShapes;
  return Plans.emplace(Shape, std::move(P)).first->second.get();
}

const WaitPlan *PlanCache::forShape(ExprRef Shape, const DnfLimits &Limits) {
  return lookupOrBuild(Shape, Limits);
}

namespace {

/// Skeleton-walk state: literal values collected in walk order.
struct SkeletonWalk {
  PlanCache &Cache;
  ExprArena &Arena;
  Value *BoundOut;
  size_t NumBound = 0;
  size_t IntIdx = 0, BoolIdx = 0;
  bool Overflow = false;

  VarId nextSlot(TypeKind Ty);
  ExprRef walk(ExprRef E, bool AbstractLits);
};

} // namespace

const WaitPlan *PlanCache::forEdsl(ExprRef P, const DnfLimits &Limits,
                                   Value *BoundOut) {
  ++Stats.EdslSkeletons;
  SkeletonWalk W{*this, Arena, BoundOut};
  ExprRef Shape = W.walk(P, /*AbstractLits=*/true);

  if (!W.Overflow) {
    const WaitPlan *Plan = lookupOrBuild(Shape, Limits);
    if (Plan->kind() != WaitPlan::Kind::Globalized) {
      AUTOSYNCH_CHECK(Plan->slots().size() == W.NumBound,
                      "waitUntil: EDSL predicate mentions a local variable");
      return Plan;
    }
  }

  // Too many literals to abstract, or a shape the planner cannot
  // parameterize: plan the concrete predicate itself. EDSL expressions
  // mention only shared variables and literals, so this is a Ground plan
  // over P (one per distinct predicate, like a parsed shared predicate).
  AUTOSYNCH_CHECK(!isComplex(P, Syms),
                  "waitUntil: EDSL predicate mentions a local variable");
  return lookupOrBuild(P, Limits);
}

VarId SkeletonWalk::nextSlot(TypeKind Ty) {
  size_t &Idx = Ty == TypeKind::Int ? IntIdx : BoolIdx;
  return Cache.slotVar(Idx++, Ty);
}

ExprRef SkeletonWalk::walk(ExprRef E, bool AbstractLits) {
  if (Overflow)
    return E;

  if (E->isLiteral()) {
    if (!AbstractLits)
      return E;
    if (NumBound == WaitPlan::MaxSlots) {
      Overflow = true;
      return E;
    }
    Value V = E->literalValue();
    VarId Slot = nextSlot(V.type());
    BoundOut[NumBound++] = V;
    return Arena.var(Slot, V.type());
  }

  switch (E->kind()) {
  case ExprKind::Var:
    return E;
  case ExprKind::Neg:
  case ExprKind::Not: {
    ExprRef Op = walk(E->lhs(), AbstractLits);
    return Op == E->lhs() ? E : Arena.unary(E->kind(), Op);
  }
  default:
    break;
  }

  AUTOSYNCH_CHECK(isBinaryKind(E->kind()), "unexpected node in skeleton");
  // Literal operands of * / % are structural: abstracting them would make
  // the atom non-linear (variable * variable) and untaggable.
  bool Structural = E->kind() == ExprKind::Mul ||
                    E->kind() == ExprKind::Div || E->kind() == ExprKind::Mod;
  ExprRef L = walk(E->lhs(), AbstractLits && !(Structural && E->lhs()->isLiteral()));
  ExprRef R = walk(E->rhs(), AbstractLits && !(Structural && E->rhs()->isLiteral()));
  if (L == E->lhs() && R == E->rhs())
    return E;
  return Arena.binary(E->kind(), L, R);
}
