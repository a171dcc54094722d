//===- cable/Strategies.cpp - Labeling strategies (§4.2) -------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "cable/Strategies.h"

#include "support/WordSetArena.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <deque>

using namespace cable;

namespace {

using NodeId = ConceptLattice::NodeId;

/// The reference labeling as one object set per label, so "do these
/// objects share a target label?" is one subset test against the set of
/// the first object's label instead of a walk over the objects.
class LabelSets {
public:
  LabelSets(const ReferenceLabeling &Target, size_t NumObjects)
      : Target(Target.Target) {
    for (size_t Obj = 0; Obj < NumObjects; ++Obj) {
      LabelId L = Target.Target[Obj];
      if (L >= Sets.size())
        Sets.resize(L + 1, BitVector(NumObjects));
      Sets[L].set(Obj);
    }
  }

  /// True if all objects in \p Objects share one target label (vacuously
  /// true for the empty set).
  bool uniform(const BitVector &Objects) const {
    size_t First = Objects.findFirst();
    return First == BitVector::npos ||
           Objects.isSubsetOf(Sets[Target[First]]);
  }

  /// Target label of \p Obj.
  LabelId labelOf(size_t Obj) const { return Target[Obj]; }

  /// The objects whose target label is \p L.
  const BitVector &objectsWith(LabelId L) const { return Sets[L]; }

private:
  const std::vector<LabelId> &Target;
  std::vector<BitVector> Sets;
};

/// Inspecting-then-labeling one concept under the canonical strategy rule:
/// the inspection is already charged by the caller; if the concept's
/// unlabeled traces all share a target label, one label command applies it.
/// Returns true if a label command was issued.
bool labelIfUniform(Session &S, NodeId Id, const LabelSets &Target,
                    StrategyCost &Cost) {
  BitVector U = S.selectObjects(Id, TraceSelect::Unlabeled);
  if (U.none() || !Target.uniform(U))
    return false;
  S.labelTraces(Id, TraceSelect::Unlabeled, Target.labelOf(U.findFirst()));
  ++Cost.LabelOps;
  return true;
}

} // namespace

StrategyCost TopDownStrategy::run(Session &S,
                                  const ReferenceLabeling &Reference) {
  S.clearLabels();
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();
  LabelSets Target(Reference, S.numObjects());

  for (;;) {
    if (S.allLabeled()) {
      Cost.Finished = true;
      return Cost;
    }
    // One breadth-first traversal from the top over concepts that still
    // have unlabeled traces. Sibling order is the strategy's
    // nondeterministic choice; shuffle it when randomized.
    bool Progress = false;
    std::vector<bool> Enqueued(L.size(), false);
    std::deque<NodeId> Queue;
    Queue.push_back(L.top());
    Enqueued[L.top()] = true;
    while (!Queue.empty()) {
      NodeId Id = Queue.front();
      Queue.pop_front();
      if (S.stateOf(Id) != ConceptState::FullyLabeled) {
        ++Cost.Inspections;
        if (labelIfUniform(S, Id, Target, Cost))
          Progress = true;
      }
      std::vector<NodeId> Children = L.children(Id);
      if (Rand)
        Rand->shuffle(Children);
      for (NodeId C : Children)
        if (!Enqueued[C] && S.stateOf(C) != ConceptState::FullyLabeled) {
          Enqueued[C] = true;
          Queue.push_back(C);
        }
    }
    if (!Progress)
      return Cost; // Ill-formed for this labeling; unfinished.
  }
}

StrategyCost BottomUpStrategy::run(Session &S,
                                   const ReferenceLabeling &Reference) {
  S.clearLabels();
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();
  LabelSets Target(Reference, S.numObjects());

  while (!S.allLabeled()) {
    // Ready concepts: not fully labeled, all children fully labeled. The
    // pick among them is the strategy's nondeterministic choice.
    std::vector<NodeId> Ready;
    for (NodeId Id = 0; Id < L.size(); ++Id) {
      if (S.stateOf(Id) == ConceptState::FullyLabeled)
        continue;
      bool ChildrenDone = true;
      for (NodeId C : L.children(Id))
        if (S.stateOf(C) != ConceptState::FullyLabeled) {
          ChildrenDone = false;
          break;
        }
      if (ChildrenDone) {
        Ready.push_back(Id);
        if (!Rand)
          break; // Deterministic: first ready concept.
      }
    }
    if (Ready.empty())
      return Cost; // Unreachable in a finite lattice, but stay safe.
    NodeId Next = Rand ? Ready[Rand->nextIndex(Ready.size())] : Ready[0];
    ++Cost.Inspections;
    if (!labelIfUniform(S, Next, Target, Cost))
      return Cost; // Mixed leaves: lattice ill-formed for this labeling.
  }
  Cost.Finished = true;
  return Cost;
}

StrategyCost RandomStrategy::run(Session &S,
                                 const ReferenceLabeling &Reference) {
  S.clearLabels();
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();
  LabelSets Target(Reference, S.numObjects());

  // The candidates are the not-fully-labeled concepts in id order. An
  // inspection that labels nothing changes no state, so the list is only
  // rebuilt after a label command: each pick draws from the list a rescan
  // before every pick would build, and the RNG sees the same bounds.
  std::vector<NodeId> Candidates;
  bool Stale = true;
  size_t SinceLastLabel = 0;
  while (!S.allLabeled()) {
    if (Stale) {
      Candidates.clear();
      for (NodeId Id = 0; Id < L.size(); ++Id)
        if (S.stateOf(Id) != ConceptState::FullyLabeled)
          Candidates.push_back(Id);
      Stale = false;
    }
    NodeId Pick = Candidates[Rand.nextIndex(Candidates.size())];
    ++Cost.Inspections;
    if (labelIfUniform(S, Pick, Target, Cost)) {
      SinceLastLabel = 0;
      Stale = true;
    } else if (++SinceLastLabel > 4 * L.size() + 64) {
      return Cost; // No labelable concept seems to exist: ill-formed.
    }
  }
  Cost.Finished = true;
  return Cost;
}

StrategyCost OptimalStrategy::run(Session &S,
                                  const ReferenceLabeling &Reference) {
  S.clearLabels();
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();
  size_t N = S.numObjects();

  // Uniform-cost search over labeled-object sets. Every useful move
  // (inspect a concept whose unlabeled traces agree, then label) costs 2;
  // inspecting without labeling can never help a perfectly informed
  // strategy, so moves are exactly the labelable concepts. With unit move
  // costs this is a breadth-first search; the arena is its FIFO queue,
  // so a state's move count is the BFS level it was discovered on.
  if (N == 0) {
    Cost.Finished = true;
    return Cost;
  }
  LabelSets Target(Reference, N);
  BitVector Goal(N);
  Goal.setAll();
  const size_t W = Goal.numWords();

  // The visited set and the FIFO queue in one: states in discovery order.
  WordSetArena States(W);
  std::vector<uint64_t> Labeled(W, 0), Next(W);
  States.insert(Labeled.data());
  size_t Moves = 0, LevelEnd = 1;
  for (size_t Head = 0; Head < States.size(); ++Head) {
    if (Head == LevelEnd) {
      ++Moves;
      LevelEnd = States.size();
    }
    std::memcpy(Labeled.data(), States.key(Head), W * sizeof(uint64_t));
    if (std::equal(Labeled.begin(), Labeled.end(), Goal.words())) {
      Cost.Inspections = Moves;
      Cost.LabelOps = Moves;
      Cost.Finished = true;
      // Leave the session labeled per the target.
      for (size_t Obj = 0; Obj < N; ++Obj)
        S.setLabel(Obj, Reference.Target[Obj]);
      return Cost;
    }
    for (NodeId Id = 0; Id < L.size(); ++Id) {
      // The move labels U = extent \ labeled, if U is nonempty and its
      // target labels agree: U must lie inside the label set of its first
      // object.
      const uint64_t *Extent = L.node(Id).Extent.words();
      size_t First = 0;
      while (First < W && (Extent[First] & ~Labeled[First]) == 0)
        ++First;
      if (First == W)
        continue;
      uint64_t FirstWord = Extent[First] & ~Labeled[First];
      const uint64_t *Class =
          Target.objectsWith(Target.labelOf(First * 64 +
                                            std::countr_zero(FirstWord)))
              .words();
      bool Uniform = true;
      for (size_t I = First; I < W && Uniform; ++I)
        Uniform = (Extent[I] & ~Labeled[I] & ~Class[I]) == 0;
      if (!Uniform)
        continue;
      for (size_t I = 0; I < W; ++I)
        Next[I] = Labeled[I] | Extent[I];
      if (States.insert(Next.data()).second && States.size() > StateCap)
        return Cost; // Cap hit: report unfinished (like the paper's tool).
    }
  }
  return Cost; // No sequence reaches the goal: ill-formed lattice.
}

StrategyCost ExpertSimStrategy::run(Session &S,
                                    const ReferenceLabeling &Reference) {
  S.clearLabels();
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();
  LabelSets Target(Reference, S.numObjects());
  std::vector<bool> Visited(L.size(), false);

  // Depth-first descent from a concept: label it if its unlabeled traces
  // agree; otherwise recurse into its most promising children and sweep up
  // the remainder (the §2.1 workflow: label `popen && pclose` below, then
  // revisit the `popen` concept for the leftovers).
  auto Visit = [&](auto &&Self, NodeId Id) -> void {
    if (Visited[Id] || S.stateOf(Id) == ConceptState::FullyLabeled)
      return;
    Visited[Id] = true;
    ++Cost.Inspections;
    BitVector Unlabeled = S.selectObjects(Id, TraceSelect::Unlabeled);
    bool BigDecision = Unlabeled.count() > 4;
    if (labelIfUniform(S, Id, Target, Cost)) {
      // §4.2: "even when all of a concept's traces should receive the
      // same label, the user might need to inspect the concept's
      // subconcepts to convince himself of that fact." Charge those
      // confidence inspections when the en-masse decision is large.
      if (BigDecision) {
        size_t Checked = 0;
        for (NodeId C : L.children(Id)) {
          if (Checked == 2)
            break;
          if (L.node(C).Extent.any()) {
            ++Cost.Inspections;
            ++Checked;
          }
        }
      }
      return;
    }

    // Mixed concept: order children by the expert's interest — label-pure
    // children first (their intents carry the discriminating transitions),
    // bigger unlabeled sets first within a purity class.
    std::vector<std::pair<NodeId, std::pair<int, size_t>>> Ranked;
    for (NodeId C : L.children(Id)) {
      BitVector U = S.selectObjects(C, TraceSelect::Unlabeled);
      if (U.none())
        continue;
      int Pure = Target.uniform(U) ? 0 : 1;
      Ranked.push_back({C, {Pure, U.count()}});
    }
    std::sort(Ranked.begin(), Ranked.end(), [](const auto &A, const auto &B) {
      if (A.second.first != B.second.first)
        return A.second.first < B.second.first;
      if (A.second.second != B.second.second)
        return A.second.second > B.second.second;
      return A.first < B.first;
    });
    for (const auto &[C, Rank] : Ranked) {
      // Stop descending once the remainder up here is already decidable.
      BitVector U = S.selectObjects(Id, TraceSelect::Unlabeled);
      if (U.none() || Target.uniform(U))
        break;
      Self(Self, C);
    }

    // Revisit and sweep the remainder.
    BitVector U = S.selectObjects(Id, TraceSelect::Unlabeled);
    if (U.any()) {
      ++Cost.Inspections;
      labelIfUniform(S, Id, Target, Cost);
    }
  };

  Visit(Visit, L.top());
  Cost.Finished = S.allLabeled();
  return Cost;
}

StrategyCost BaselineMethod::run(Session &S, const ReferenceLabeling &Target) {
  S.clearLabels();
  StrategyCost Cost;
  // Two operations per class of identical traces: look at it, label it.
  Cost.Inspections = S.numObjects();
  Cost.LabelOps = S.numObjects();
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    S.setLabel(Obj, Target.Target[Obj]);
  Cost.Finished = true;
  return Cost;
}

StrategyCost HandLabelFallbackStrategy::run(Session &S,
                                            const ReferenceLabeling &Target) {
  TopDownStrategy TD;
  StrategyCost Cost = TD.run(S, Target);
  if (Cost.Finished)
    return Cost;
  // Hand-label what the lattice could not separate.
  for (size_t Obj : S.unlabeledObjects()) {
    ++Cost.Inspections;
    ++Cost.LabelOps;
    S.setLabel(Obj, Target.Target[Obj]);
  }
  Cost.Finished = true;
  return Cost;
}

RandomSummary cable::measureRandomMean(Session &S,
                                       const ReferenceLabeling &Target,
                                       size_t NumTrials, uint64_t Seed) {
  RandomSummary Out;
  RNG Root(Seed);
  double Total = 0;
  for (size_t Trial = 0; Trial < NumTrials; ++Trial) {
    RandomStrategy R(Root.fork());
    StrategyCost Cost = R.run(S, Target);
    if (!Cost.Finished)
      return RandomSummary{0, false};
    Total += static_cast<double>(Cost.total());
  }
  Out.MeanTotal = NumTrials == 0 ? 0 : Total / static_cast<double>(NumTrials);
  Out.Finished = true;
  return Out;
}

LowestSummary cable::measureLowestCost(
    Session &S, const ReferenceLabeling &Target, size_t NumTrials,
    uint64_t Seed,
    const std::function<std::unique_ptr<Strategy>(RNG)> &Make) {
  LowestSummary Out;
  RNG Root(Seed);
  for (size_t Trial = 0; Trial < NumTrials; ++Trial) {
    std::unique_ptr<Strategy> Strat = Make(Root.fork());
    StrategyCost Cost = Strat->run(S, Target);
    if (!Cost.Finished)
      continue;
    if (!Out.Finished || Cost.total() < Out.LowestTotal)
      Out.LowestTotal = Cost.total();
    Out.Finished = true;
  }
  return Out;
}
