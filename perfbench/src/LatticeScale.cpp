//===- perfbench/src/LatticeScale.cpp - Lattice construction at scale -----===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// `lattice-scale`: one operation is one Session::build over XtFree-style
// scenarios with a widened optional-use alphabet (as in
// bench/scaling_lattice.cpp), against the protocol's reference FA, at 250,
// 500 and 1000 trace classes. Each run draws eight seeded sets of 1000
// distinct scenarios; the smaller inputs are prefixes of each set, and a
// round builds all 24 inputs once. No strategy runs, so the trace, fa
// and concepts layers do all the work, and cover computation dominates.
//
// In the traced run, concepts.enumerate and concepts.covers come from the
// builder's own spans inside each traced Session::build (see Spans.h).
// Classing and the context have no spans in the library, so each traced
// build is paired with the same two steps called through the public API:
// TraceSet::computeClasses and Automaton::executedTransitions into a
// Context.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "cable/Session.h"
#include "concepts/GodinBuilder.h"
#include "support/TraceEvent.h"
#include "workload/ReferenceFA.h"

#include <cstdio>
#include <iterator>

using namespace cable;
using namespace perfbench;

namespace {

constexpr size_t kSizes[] = {250, 500, 1000};
/// Independent trace sets per run. Lattice size varies by about 15% from
/// one set to the next; a round builds all of them, so its time varies
/// far less with the seed than one build does.
constexpr size_t kSets = 8;
/// Classes in the subsample built by the independent (Godin) builder.
constexpr size_t kSubsample = 150;

struct Input {
  TraceSet Traces;
  Automaton Ref;
};

/// The first \p N traces of \p All with their protocol reference FA.
Input prefix(const TraceSet &All, size_t N) {
  std::vector<size_t> Indices(std::min(N, All.size()));
  for (size_t I = 0; I < Indices.size(); ++I)
    Indices[I] = I;
  Input In;
  In.Traces = All.subset(Indices);
  TraceSpan Span("workload.reference_fa");
  In.Ref = makeProtocolReferenceFA(In.Traces.traces(), In.Traces.table(),
                                   xtFreeWideModel());
  return In;
}

/// kSets seeded sets of 1000 distinct scenarios, each built at every size
/// in kSizes (the smaller inputs are prefixes of the set).
std::vector<Input> setUp(const Settings &Set) {
  std::vector<Input> Inputs;
  for (size_t K = 0; K < kSets; ++K) {
    RNG Rand(deriveSeed(0x1A77 + K, Set.Seed));
    TraceSet All;
    {
      TraceSpan Span("workload.generate");
      All = distinctScenarios(xtFreeWideModel(), kSizes[2], Rand);
    }
    for (size_t N : kSizes)
      Inputs.push_back(prefix(All, N));
  }
  return Inputs;
}

StatusOr<Session> build(TraceSet Traces, Automaton Ref, unsigned Threads) {
  SessionOptions Opts;
  Opts.NumThreads = Threads;
  return Session::build(std::move(Traces), std::move(Ref), Opts);
}

/// Every concept is closed under the reference derivations.
bool conceptsClosed(const Session &S) {
  const Context &Ctx = S.context();
  const ConceptLattice &L = S.lattice();
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id) {
    const Concept &C = L.node(Id);
    if (!(Ctx.sigmaReference(C.Extent) == C.Intent) ||
        !(Ctx.tauReference(C.Intent) == C.Extent))
      return false;
  }
  return true;
}

/// Session::build's classing and context steps, one public call each.
void replayContext(const Input &In, LayerProfile &Prof) {
  TraceClasses Classes;
  {
    TraceSpan Span("trace.classes");
    Classes = In.Traces.computeClasses();
  }
  Context Ctx(Classes.numClasses(), In.Ref.numTransitions());
  {
    TraceSpan Span("fa.context");
    for (size_t Obj = 0; Obj < Classes.numClasses(); ++Obj)
      for (size_t A : In.Ref.executedTransitions(Classes.Representatives[Obj],
                                                 In.Traces.table()))
        Ctx.relate(Obj, A);
  }
  Prof.quantity("trace.classes", static_cast<double>(Classes.numClasses()));
  Prof.quantity("fa.context_cells",
                static_cast<double>(Ctx.numObjects() * Ctx.numAttributes()));
}

/// Time of the layer spans that make up a Session::build: the replayed
/// classing and context, and the builder's enumeration and covers.
double layerMs(const LayerProfile &Prof) {
  return Prof.selfMs("trace.classes") + Prof.selfMs("fa.context") +
         Prof.totalMs("concepts.covers");
}

} // namespace

void perfbench::runLatticeScale(const Settings &Set, Outcome &Out) {
  LayerProfile Prof(/*BuilderSpans=*/true);
  auto SetUpAll = [&] { return setUp(Set); };
  std::vector<Input> Inputs = initialSetup(Set, Out, Prof, SetUpAll);
  for (size_t I = 0; I < Inputs.size(); ++I)
    if (!Out.check(Inputs[I].Traces.size() == kSizes[I % std::size(kSizes)],
                   "generator ran out of distinct scenarios"))
      return;

  // Warm-up: one build per input, checked in full; its concept and edge
  // counts are what every later build must reproduce.
  std::vector<std::pair<size_t, size_t>> Shape;
  for (const Input &In : Inputs) {
    StatusOr<Session> S = build(In.Traces, In.Ref, Set.Threads);
    if (!Out.check(S.isOk() && !S->truncated(), "warm-up build failed"))
      return;
    Out.check(S->numObjects() == In.Traces.size(), "classes != traces");
    Out.check(conceptsClosed(*S),
              "a concept is not closed under the reference derivations");
    std::printf("counter lattice-scale.set%zu.%zu classes=%zu concepts=%zu "
                "edges=%zu attributes=%zu\n",
                Shape.size() / std::size(kSizes), In.Traces.size(),
                S->numObjects(), S->lattice().size(), S->lattice().numEdges(),
                S->context().numAttributes());
    Shape.push_back({S->lattice().size(), S->lattice().numEdges()});
  }
  {
    // Independent builder on a subsample.
    Input Sub = prefix(Inputs[0].Traces, kSubsample);
    StatusOr<Session> S = build(Sub.Traces, Sub.Ref, Set.Threads);
    if (Out.check(S.isOk(), "subsample build failed")) {
      ConceptLattice Godin = GodinBuilder::buildLattice(S->context());
      Out.check(Godin.size() == S->lattice().size() &&
                    Godin.numEdges() == S->lattice().numEdges(),
                "Session lattice differs from GodinBuilder on the subsample");
    }
  }

  std::vector<double> TracedMs, PairedUntracedMs, LayerShare;
  double BuildMsTotal = 0, ConceptsTotal = 0;
  Clock::time_point RunStart = Clock::now();
  for (size_t Cycle = 0;
       Cycle == 0 || msSince(RunStart) < Set.Seconds * 1e3; ++Cycle) {
    // The traced run pairs each untraced cycle with a traced one over the
    // same inputs, so the tracing overhead is measured on identical work;
    // which of the two runs first alternates from cycle to cycle.
    for (int Pass = 0; Pass <= (Set.Trace ? 1 : 0); ++Pass) {
      bool Traced = Set.Trace && (Pass == 1) != (Cycle % 2 == 1);
      for (size_t I = 0; I < Inputs.size(); ++I) {
        ++Out.Attempted;
        TraceSet Traces = Inputs[I].Traces;
        Automaton Ref = Inputs[I].Ref;
        TraceLog::setEnabled(Traced);
        // The replay runs before or after the build in alternating cycles,
        // so neither side always runs warm.
        bool ReplayFirst = Cycle % 2 == 1;
        if (Traced && ReplayFirst)
          replayContext(Inputs[I], Prof);
        Clock::time_point T0 = Clock::now();
        StatusOr<Session> S = [&] {
          TraceSpan Span("cable.session_build");
          return build(std::move(Traces), std::move(Ref), Set.Threads);
        }();
        double Ms = msSince(T0);
        if (Traced && !ReplayFirst)
          replayContext(Inputs[I], Prof);
        TraceLog::setEnabled(false);
        double LayerBefore = layerMs(Prof),
               BuildBefore = Prof.totalMs("cable.session_build");
        Prof.collect();
        if (Traced)
          LayerShare.push_back(
              (layerMs(Prof) - LayerBefore) /
              (Prof.totalMs("cable.session_build") - BuildBefore));
        bool Ok = Out.check(S.isOk() && !S->truncated(),
                            "build failed or was truncated") &&
                  Out.check(S->lattice().size() == Shape[I].first &&
                                S->lattice().numEdges() == Shape[I].second,
                            "lattice differs from the warm-up build");
        if (!Ok)
          continue;
        if (Traced) {
          TracedMs.push_back(Ms);
          Prof.quantity("concepts.count",
                        static_cast<double>(S->lattice().size()));
          Prof.quantity("concepts.edges",
                        static_cast<double>(S->lattice().numEdges()));
          continue;
        }
        Out.OpMs.push_back(Ms);
        if (Set.Trace)
          PairedUntracedMs.push_back(Ms);
        Out.part(I, Ms);
        BuildMsTotal += Ms;
        ConceptsTotal += static_cast<double>(Shape[I].first);
      }
    }
    timedSetup(Out, SetUpAll);
  }
  Out.named("build_ms.p50", median(Out.OpMs), "ms");
  Out.named("concepts_per_s", ConceptsTotal / (BuildMsTotal / 1e3), "1/s");
  Out.named("failed_frac",
            static_cast<double>(Out.Failed) /
                static_cast<double>(Out.Attempted),
            "ratio");

  if (!Set.Trace)
    return;
  Prof.report(Out.Layers);
  Out.Layers["concepts.layer_share_pct"] = 100 * median(LayerShare);
  double Traced = 0, Untraced = 0;
  for (double Ms : TracedMs)
    Traced += Ms;
  for (double Ms : PairedUntracedMs)
    Untraced += Ms;
  Out.Layers["tracing.overhead_pct"] = 100 * (Traced / Untraced - 1);
}
