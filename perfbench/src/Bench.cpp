//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "workload/Generator.h"

#include <algorithm>
#include <unordered_set>

using namespace cable;
using namespace perfbench;

bool Outcome::check(bool Ok, const std::string &What) {
  if (Ok)
    return true;
  ++Failed;
  if (Errors.size() < 8)
    Errors.push_back(What);
  return false;
}

double Outcome::roundMs() const {
  double Ms = 0;
  for (const std::vector<double> &Samples : PartMs)
    Ms += median(Samples);
  return Ms;
}

double perfbench::percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t Rank = static_cast<size_t>(P * static_cast<double>(Samples.size() - 1) + 0.5);
  return Samples[std::min(Rank, Samples.size() - 1)];
}

uint64_t perfbench::deriveSeed(uint64_t Base, uint64_t Seed) {
  if (Seed == 0)
    return Base;
  // splitmix64 finalizer, so neighbouring seeds give unrelated inputs.
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Base ^ Z ^ (Z >> 31);
}

uint64_t perfbench::nameSeed(const std::string &Name) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

ProtocolModel perfbench::xtFreeWideModel() {
  ProtocolModel M = protocolByName("XtFree");
  std::vector<ProtoEvent> Uses;
  std::string Alternatives;
  for (size_t I = 0; I < 10; ++I) {
    std::string Name = "Use" + std::to_string(I);
    Uses.push_back(ProtoEvent{Name, {0}});
    Alternatives += (I ? " | " : "") + Name + "(v0)";
  }
  M.Shapes[0].second.Steps[1] = ShapeStep::optional(Uses, 0.5);
  M.CorrectRegex = "[XtMalloc(v0) | XtNew(v0) | XtNewString(v0)] [" +
                   Alternatives + "]* XtFree(v0)";
  return M;
}

TraceSet perfbench::distinctScenarios(const ProtocolModel &M, size_t N,
                                      RNG &Rand) {
  TraceSet Out;
  WorkloadGenerator Gen(M, Out.table());
  std::unordered_set<Trace, TraceHash> Seen;
  for (size_t Draws = 0; Out.size() < N && Draws < 1000 * N; ++Draws) {
    Trace T = Gen.generateScenario(Rand);
    if (Seen.insert(T).second)
      Out.add(std::move(T));
  }
  return Out;
}
