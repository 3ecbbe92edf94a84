//===- plan/PlanRegistry.cpp - Process-wide wait-plan blueprints ------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "plan/PlanRegistry.h"

#include <algorithm>
#include <cstring>

using namespace autosynch;

namespace {

template <typename T> void appendRaw(std::string &Out, T V) {
  char Buf[sizeof(T)];
  std::memcpy(Buf, &V, sizeof(T));
  Out.append(Buf, sizeof(T));
}

/// Pre-order serialization; each kind fixes its payload and arity, so the
/// encoding is unambiguous.
void appendShape(std::string &Out, ExprRef E, const SymbolTable &Syms) {
  Out.push_back(static_cast<char>(E->kind()));
  switch (E->kind()) {
  case ExprKind::IntLit:
    appendRaw(Out, E->intValue());
    return;
  case ExprKind::BoolLit:
    Out.push_back(E->boolValue() ? 1 : 0);
    return;
  case ExprKind::Var: {
    const VarInfo &Info = Syms.info(E->varId());
    appendRaw(Out, Info.Id);
    Out.push_back(static_cast<char>(Info.Type));
    Out.push_back(static_cast<char>(Info.Scope));
    appendRaw(Out, static_cast<uint32_t>(Info.Name.size()));
    Out.append(Info.Name);
    return;
  }
  default:
    break;
  }
  for (unsigned I = 0; I != E->numOperands(); ++I)
    appendShape(Out, E->operand(I), Syms);
}

/// Adds the variables of \p E to \p Out, keeping it sorted by VarId.
void collectVarInfos(ExprRef E, const SymbolTable &Syms,
                     std::vector<VarInfo> &Out) {
  if (E->kind() == ExprKind::Var) {
    auto It = std::lower_bound(
        Out.begin(), Out.end(), E->varId(),
        [](const VarInfo &I, VarId Id) { return I.Id < Id; });
    if (It == Out.end() || It->Id != E->varId())
      Out.insert(It, Syms.info(E->varId()));
    return;
  }
  for (unsigned I = 0; I != E->numOperands(); ++I)
    collectVarInfos(E->operand(I), Syms, Out);
}

} // namespace

PlanRegistry &PlanRegistry::global() {
  // Leaked on purpose: monitors may plan during static destruction.
  static PlanRegistry *G = new PlanRegistry();
  return *G;
}

std::string PlanRegistry::keyOf(ExprRef Shape, const SymbolTable &Syms,
                                const DnfLimits &Limits) {
  std::string Key;
  Key.reserve(128);
  appendRaw(Key, static_cast<uint64_t>(Limits.MaxConjunctions));
  appendRaw(Key, static_cast<uint64_t>(Limits.MaxAtomsPerConjunction));
  appendShape(Key, Shape, Syms);
  return Key;
}

std::unique_ptr<WaitPlan> PlanRegistry::import(const std::string &Key,
                                               ExprArena &To) {
  std::lock_guard<std::mutex> G(M);
  auto It = Blueprints.find(Key);
  if (It == Blueprints.end())
    return nullptr;
  return It->second.Plan->relocate(To);
}

void PlanRegistry::publish(std::string Key, const WaitPlan &Plan,
                           const SymbolTable &Syms, const DnfLimits &Limits) {
  std::lock_guard<std::mutex> G(M);
  if (Blueprints.size() >= MaxEntries || Blueprints.count(Key))
    return;
  Blueprint &B = Blueprints[std::move(Key)];
  B.Plan = Plan.relocate(Arena);
  collectVarInfos(Plan.shape(), Syms, B.Vars);
  B.Limits = Limits;
}

std::vector<const PlanRegistry::Blueprint *>
PlanRegistry::blueprints() const {
  std::lock_guard<std::mutex> G(M);
  std::vector<const Blueprint *> Out;
  for (const auto &KV : Blueprints)
    Out.push_back(&KV.second);
  return Out;
}
