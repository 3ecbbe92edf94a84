//===- perfbench/Harness.cpp - Load threads, spans, host readings ---------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <fstream>
#include <sstream>

#include <pthread.h>
#include <sched.h>
#include <time.h>

using namespace perfbench;

std::atomic<bool> perfbench::Tracing{false};
std::atomic<bool> perfbench::Sampling{false};
std::atomic<uint32_t> perfbench::CurrentWindow{0};

namespace {
constexpr size_t SampleCap = size_t{1} << 18;
constexpr size_t RingSize = size_t{1} << 16; // Power of two.
} // namespace

uint64_t perfbench::processCpuNs() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000u +
         static_cast<uint64_t>(Ts.tv_nsec);
}

const char *perfbench::callName(CallName N) {
  switch (N) {
  case CallName::Put:
    return "put";
  case CallName::Take:
    return "take";
  case CallName::Access:
    return "access";
  }
  return "?";
}

void LoadThread::reset(uint8_t Idx) {
  Index = Idx;
  LatestCause = nullptr;
  Samples.clear();
  Samples.reserve(SampleCap);
  Stride = Countdown = 8;
  Ring.assign(RingSize, Span());
  RingNext = 0;
}

void LoadThread::sample(uint64_t Ns) {
  if (Samples.size() == SampleCap) {
    for (size_t I = 0; I < SampleCap / 2; ++I)
      Samples[I] = Samples[2 * I];
    Samples.resize(SampleCap / 2);
    Stride *= 2;
  }
  Samples.push_back({CurrentWindow.load(std::memory_order_relaxed),
                     Ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(Ns)});
}

std::vector<Span> LoadThread::spans() const {
  std::vector<Span> Out;
  uint64_t N = RingNext < Ring.size() ? RingNext : Ring.size();
  Out.reserve(N);
  for (uint64_t I = RingNext - N; I < RingNext; ++I)
    Out.push_back(Ring[I & (Ring.size() - 1)]);
  return Out;
}

std::vector<int> perfbench::allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

bool perfbench::pinTo(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set) == 0 &&
         sched_getcpu() == Cpu;
}

CpuTicks perfbench::readCpuTicks() {
  std::ifstream In("/proc/stat");
  std::string Line;
  CpuTicks T;
  if (!std::getline(In, Line) || Line.rfind("cpu ", 0) != 0)
    return T;
  std::istringstream Fields(Line.substr(4));
  uint64_t V = 0;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest fields are already counted in user/nice.
  for (int I = 0; I < 8 && Fields >> V; ++I) {
    T.Total += V;
    if (I == 7)
      T.Steal = V;
  }
  return T;
}

double perfbench::stealPct(const CpuTicks &A, const CpuTicks &B) {
  if (B.Total <= A.Total)
    return 0.0;
  return 100.0 * static_cast<double>(B.Steal - A.Steal) /
         static_cast<double>(B.Total - A.Total);
}
