//===- perfbench/Alloc.cpp - Per-thread operator new counting -------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replaces the global operator new/delete so each load thread counts its
/// own heap allocations (library code included) into LoadThread::Allocs.
/// The count is a single-writer relaxed store: no shared cache line. The
/// array and nothrow forms reach these through libstdc++'s defaults.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdlib>
#include <new>

namespace {
thread_local std::atomic<uint64_t> *Sink = nullptr;

inline void count() {
  if (Sink)
    Sink->store(Sink->load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}
} // namespace

void perfbench::countAllocsInto(std::atomic<uint64_t> *Counter) {
  Sink = Counter;
}

void *operator new(std::size_t N) {
  count();
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new(std::size_t N, std::align_val_t A) {
  count();
  std::size_t Align = static_cast<std::size_t>(A);
  std::size_t Size = (N + Align - 1) / Align * Align;
  if (void *P = std::aligned_alloc(Align, Size ? Size : Align))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
