//===- expr/Env.h - Variable-binding environments --------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Environments bind VarIds to runtime Values during predicate evaluation.
/// The monitor supplies a shared-variable environment (its Shared<T> slots);
/// waituntil callers supply a local environment for globalization.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_EXPR_ENV_H
#define AUTOSYNCH_EXPR_ENV_H

#include "expr/Var.h"

#include <array>
#include <vector>

namespace autosynch {

/// Abstract binding of VarIds to Values.
class Env {
public:
  virtual ~Env() = default;

  /// Returns the value bound to \p Id. Fatal error when unbound — an
  /// evaluated predicate must never mention an unbound variable.
  virtual Value get(VarId Id) const = 0;

  /// Returns true when \p Id has a binding.
  virtual bool has(VarId Id) const = 0;
};

/// An environment with no bindings.
class EmptyEnv final : public Env {
public:
  Value get(VarId) const override {
    AUTOSYNCH_UNREACHABLE("EmptyEnv::get: no bindings");
  }
  bool has(VarId) const override { return false; }

  static const EmptyEnv &instance() {
    static EmptyEnv E;
    return E;
  }
};

/// A small-map environment; the common carrier for waituntil local values.
/// Monitor predicates mention a handful of locals, so bindings live in a
/// fixed inline array (linear scan) and the constructor/bind path performs
/// no heap allocation until the inline capacity overflows — waituntil call
/// sites that build `locals().bindInt(...)` stay allocation-free.
class MapEnv final : public Env {
public:
  MapEnv() = default;

  MapEnv &bind(VarId Id, Value V) {
    for (size_t I = 0; I != Count; ++I) {
      if (at(I).first == Id) {
        at(I).second = V;
        return *this;
      }
    }
    if (Count < Inline.size())
      Inline[Count] = {Id, V};
    else
      Overflow.push_back({Id, V});
    ++Count;
    return *this;
  }

  MapEnv &bindInt(VarId Id, int64_t V) {
    return bind(Id, Value::makeInt(V));
  }

  MapEnv &bindBool(VarId Id, bool V) { return bind(Id, Value::makeBool(V)); }

  Value get(VarId Id) const override {
    const Value *V = find(Id);
    AUTOSYNCH_CHECK(V != nullptr, "unbound variable in MapEnv::get");
    return *V;
  }

  bool has(VarId Id) const override { return find(Id) != nullptr; }

  size_t size() const { return Count; }

private:
  using Entry = std::pair<VarId, Value>;

  Entry &at(size_t I) {
    return I < Inline.size() ? Inline[I] : Overflow[I - Inline.size()];
  }
  const Entry &at(size_t I) const {
    return I < Inline.size() ? Inline[I] : Overflow[I - Inline.size()];
  }

  const Value *find(VarId Id) const {
    for (size_t I = 0; I != Count; ++I)
      if (at(I).first == Id)
        return &at(I).second;
    return nullptr;
  }

  std::array<Entry, 8> Inline{};
  std::vector<Entry> Overflow;
  size_t Count = 0;
};

/// Overlays two environments: looks in First, then in Second. Evaluates a
/// complex predicate over local + shared bindings (e.g. the tests'
/// tree-walk reference for a returned wait).
class OverlayEnv final : public Env {
public:
  OverlayEnv(const Env &First, const Env &Second)
      : First(First), Second(Second) {}

  Value get(VarId Id) const override {
    return First.has(Id) ? First.get(Id) : Second.get(Id);
  }

  bool has(VarId Id) const override {
    return First.has(Id) || Second.has(Id);
  }

private:
  const Env &First;
  const Env &Second;
};

} // namespace autosynch

#endif // AUTOSYNCH_EXPR_ENV_H
