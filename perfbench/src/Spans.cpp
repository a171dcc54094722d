//===- perfbench/src/Spans.cpp - Per-layer span aggregation ---------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "support/TraceEvent.h"

#include <algorithm>
#include <vector>

using namespace perfbench;
using cable::TraceLog;

namespace {

/// The benchmark name of a library span the profile keeps, or null.
const char *libraryLayer(const std::string &Name) {
  if (Name == "lattice-build")
    return "concepts.covers";
  if (Name == "lattice-enumerate" || Name == "next-closure-enumerate")
    return "concepts.enumerate";
  return nullptr;
}

} // namespace

void LayerProfile::collect() {
  std::vector<TraceLog::RawSpan> Raw = TraceLog::drainSpans();
  std::vector<TraceLog::RawSpan *> Mine;
  for (TraceLog::RawSpan &S : Raw) {
    if (S.FlowPhase != 0)
      continue;
    if (const char *Layer = BuilderSpans ? libraryLayer(S.Name) : nullptr)
      S.Name = Layer;
    if (S.Name.find('.') != std::string::npos)
      Mine.push_back(&S);
  }
  // Parents start no later than their children and last at least as long;
  // sorting by (thread, start, longest first) puts each parent before the
  // spans it encloses.
  std::sort(Mine.begin(), Mine.end(), [](const auto *A, const auto *B) {
    if (A->Tid != B->Tid)
      return A->Tid < B->Tid;
    if (A->StartUs != B->StartUs)
      return A->StartUs < B->StartUs;
    return A->DurUs > B->DurUs;
  });
  struct Open {
    const TraceLog::RawSpan *S;
    uint64_t ChildUs;
  };
  std::vector<Open> Stack;
  auto Close = [&] {
    const Open &O = Stack.back();
    Agg &A = BySpan[O.S->Name];
    ++A.Calls;
    A.TotalUs += O.S->DurUs;
    A.SelfUs += O.S->DurUs - std::min(O.ChildUs, O.S->DurUs);
    Stack.pop_back();
  };
  int Tid = -1;
  for (const TraceLog::RawSpan *S : Mine) {
    if (S->Tid != Tid) {
      while (!Stack.empty())
        Close();
      Tid = S->Tid;
    }
    while (!Stack.empty() &&
           Stack.back().S->StartUs + Stack.back().S->DurUs <= S->StartUs)
      Close();
    if (!Stack.empty())
      Stack.back().ChildUs += S->DurUs;
    Stack.push_back({S, 0});
  }
  while (!Stack.empty())
    Close();
}

void LayerProfile::quantity(const std::string &Name, double Value) {
  auto &[Sum, N] = Quantities[Name];
  Sum += Value;
  ++N;
}

uint64_t LayerProfile::calls(const std::string &Span) const {
  auto It = BySpan.find(Span);
  return It == BySpan.end() ? 0 : It->second.Calls;
}

double LayerProfile::selfMs(const std::string &Span) const {
  auto It = BySpan.find(Span);
  return It == BySpan.end() ? 0 : It->second.SelfUs / 1e3;
}

double LayerProfile::totalMs(const std::string &Span) const {
  auto It = BySpan.find(Span);
  return It == BySpan.end() ? 0 : It->second.TotalUs / 1e3;
}

double LayerProfile::meanSelfMs(const std::string &Span) const {
  uint64_t N = calls(Span);
  return N ? selfMs(Span) / static_cast<double>(N) : 0;
}

double LayerProfile::meanQuantity(const std::string &Name) const {
  auto It = Quantities.find(Name);
  if (It == Quantities.end() || It->second.second == 0)
    return 0;
  return It->second.first / static_cast<double>(It->second.second);
}

void LayerProfile::report(std::map<std::string, double> &Out) const {
  for (const auto &[Name, A] : BySpan) {
    Out[Name + "_ms"] = meanSelfMs(Name);
    Out[Name + ".calls"] = static_cast<double>(A.Calls);
  }
  for (const auto &[Name, Q] : Quantities)
    Out[Name] = meanQuantity(Name);
}
