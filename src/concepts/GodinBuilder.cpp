//===- concepts/GodinBuilder.cpp - Incremental lattice construction -------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/GodinBuilder.h"

#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>

using namespace cable;

namespace {

Metrics::Counter &ObjectsAdded = Metrics::counter("godin.objects-added");
Metrics::Counter &ConceptsCreated = Metrics::counter("godin.concepts-created");

} // namespace

GodinBuilder::GodinBuilder(size_t NumAttributes)
    : NumAttributes(NumAttributes) {
  // Seed with the bottom concept (tau(A), A). With no objects yet,
  // tau(A) = ∅ over an empty object universe.
  Concept Bottom;
  Bottom.Extent = BitVector(0);
  Bottom.Intent = BitVector(NumAttributes);
  Bottom.Intent.setAll();
  Concepts.push_back(std::move(Bottom));
}

void GodinBuilder::addObject(const BitVector &Attrs) {
  assert(Attrs.size() == NumAttributes && "attribute universe mismatch");
  size_t X = NumObjects++;

  // Grow every extent to the new object universe.
  for (Concept &C : Concepts)
    C.Extent.resize(NumObjects);

  // Visit existing concepts in ascending intent size.
  std::vector<size_t> Order(Concepts.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::vector<size_t> IntentCard(Concepts.size());
  for (size_t I = 0; I < Concepts.size(); ++I)
    IntentCard[I] = Concepts[I].Intent.count();
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return IntentCard[A] < IntentCard[B];
  });

  // Intents already present in the updated lattice (modified concepts keep
  // theirs; created concepts add theirs). Blocks duplicate creation.
  std::unordered_map<BitVector, size_t, BitVectorHash> Present;

  size_t NumOld = Concepts.size();
  std::vector<Concept> Created;
  // Candidate-intent scratch reused across the visit: a duplicate intent
  // (the common case on dense lattices) costs no allocation.
  BitVector Int(NumAttributes);
  for (size_t I = 0; I < NumOld; ++I) {
    Concept &C = Concepts[Order[I]];
    if (C.Intent.isSubsetOf(Attrs)) {
      // Modified concept: x joins the extent.
      C.Extent.set(X);
      Present.emplace(C.Intent, Order[I]);
      continue;
    }
    Int = C.Intent;
    Int &= Attrs;
    if (Present.find(Int) != Present.end())
      continue;
    // C is the generator with maximal extent for this intent (it is visited
    // first because its intent is the smallest producing Int).
    Concept N;
    N.Extent = C.Extent;
    N.Extent.set(X);
    N.Intent = Int;
    Present.emplace(N.Intent, NumOld + Created.size());
    Created.push_back(std::move(N));
  }
  for (Concept &N : Created)
    Concepts.push_back(std::move(N));
  ObjectsAdded.add();
  ConceptsCreated.add(Created.size());
}

bool GodinBuilder::addObjectBudgeted(const BitVector &Attrs,
                                     const BudgetMeter &Meter,
                                     size_t MaxConcepts) {
  assert(Attrs.size() == NumAttributes && "attribute universe mismatch");
  if (Meter.expired())
    return false;
  size_t X = NumObjects;

  std::vector<size_t> Order(Concepts.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::vector<size_t> IntentCard(Concepts.size());
  for (size_t I = 0; I < Concepts.size(); ++I)
    IntentCard[I] = Concepts[I].Intent.count();
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return IntentCard[A] < IntentCard[B];
  });

  // Unlike addObject, nothing is mutated during the visit: modified
  // concepts and created concepts are staged and committed only once the
  // whole visit fits the budget, so stopping needs no rollback.
  std::unordered_map<BitVector, size_t, BitVectorHash> Present;
  std::vector<size_t> Modified;
  std::vector<Concept> Created;
  size_t NumOld = Concepts.size();
  BitVector Int(NumAttributes);
  for (size_t I = 0; I < NumOld; ++I) {
    if (Meter.expired())
      return false;
    Concept &C = Concepts[Order[I]];
    if (C.Intent.isSubsetOf(Attrs)) {
      Modified.push_back(Order[I]);
      Present.emplace(C.Intent, Order[I]);
      continue;
    }
    Int = C.Intent;
    Int &= Attrs;
    if (Present.find(Int) != Present.end())
      continue;
    Concept N;
    N.Extent = C.Extent;
    N.Intent = Int;
    Present.emplace(N.Intent, NumOld + Created.size());
    Created.push_back(std::move(N));
  }
  if (NumOld + Created.size() > MaxConcepts)
    return false;

  NumObjects = X + 1;
  for (Concept &C : Concepts)
    C.Extent.resize(NumObjects);
  for (size_t I : Modified)
    Concepts[I].Extent.set(X);
  for (Concept &N : Created) {
    N.Extent.resize(NumObjects);
    N.Extent.set(X);
    Concepts.push_back(std::move(N));
  }
  ObjectsAdded.add();
  ConceptsCreated.add(Created.size());
  return true;
}

ConceptLattice GodinBuilder::build() const {
  // Each object's row is the intent of its object concept, the largest of
  // the intents whose extents hold it, so their union.
  std::vector<BitVector> Rows(NumObjects, BitVector(NumAttributes));
  for (const Concept &C : Concepts)
    for (size_t O : C.Extent)
      Rows[O] |= C.Intent;
  Context Ctx(NumObjects, NumAttributes);
  for (size_t O = 0; O < NumObjects; ++O)
    for (size_t A : Rows[O])
      Ctx.relate(O, A);
  return build(Ctx);
}

ConceptLattice GodinBuilder::build(const Context &Ctx) const {
  assert(Ctx.numObjects() == NumObjects &&
         Ctx.numAttributes() == NumAttributes && "context mismatch");
  std::vector<Concept> Copy = Concepts;
  // With zero objects the seed concept has a zero-sized extent universe;
  // normalize so downstream code can rely on extents sized to numObjects().
  for (Concept &C : Copy)
    C.Extent.resize(NumObjects);
  // The accumulated concepts are all the concepts of the added objects,
  // so the neighbour search runs over exactly their context.
  return expectComplete(
      ConceptLattice::fromCompleteConcepts(Ctx, std::move(Copy)));
}

std::vector<Concept> GodinBuilder::snapshotConcepts(const Context &Ctx,
                                                    size_t Cap) const {
  assert(Ctx.numObjects() >= NumObjects &&
         Ctx.numAttributes() == NumAttributes && "snapshot context too small");
  std::vector<Concept> Copy;
  std::vector<size_t> Keep = mostGeneralConcepts(Concepts, Cap);
  Copy.reserve(Keep.size());
  for (size_t I : Keep) {
    // σ of a set of inserted objects reads only their rows, so every
    // intent here is an intent of the full context as well; τ completes
    // it to that context's concept.
    Concept C;
    C.Extent = Ctx.tau(Concepts[I].Intent);
    C.Intent = Concepts[I].Intent;
    Copy.push_back(std::move(C));
  }
  return Copy;
}

ConceptLattice GodinBuilder::buildLattice(const Context &Ctx) {
  TraceSpan Span("godin-build", static_cast<int64_t>(Ctx.numObjects()));
  GodinBuilder B(Ctx.numAttributes());
  for (size_t O = 0; O < Ctx.numObjects(); ++O)
    B.addObject(Ctx.objectRow(O));
  return B.build(Ctx);
}

LatticeBuildResult
GodinBuilder::buildLatticeBudgeted(const Context &Ctx,
                                   const BudgetMeter &Meter) {
  Status Cells = checkContextCells(Ctx, Meter.budget());
  if (!Cells.isOk()) {
    LatticeBuildResult R;
    R.Lattice = finalizeTruncatedConcepts(Ctx, {}, DeadlineKeepCap);
    R.BuildStatus = std::move(Cells);
    R.Truncated = true;
    return R;
  }

  TraceSpan Span("godin-build", static_cast<int64_t>(Ctx.numObjects()));
  GodinBuilder B(Ctx.numAttributes());
  size_t Max = Meter.budget().MaxConcepts.value_or(SIZE_MAX);
  bool Stopped = false;
  for (size_t O = 0; O < Ctx.numObjects(); ++O) {
    if (!B.addObjectBudgeted(Ctx.objectRow(O), Meter, Max)) {
      Stopped = true;
      break;
    }
  }

  LatticeBuildResult R;
  R.NumEnumerated = B.numConcepts();
  // Even a completed insertion sequence defers to the truncated epilogue
  // when the clock ran out: build()'s cover computation must not start
  // unbounded.
  if (!Stopped && !Meter.expired()) {
    R.Lattice = B.build(Ctx);
    return R;
  }
  BuildStop Stop = Meter.expired() ? BuildStop::Time : BuildStop::ConceptCap;
  R.Truncated = true;
  R.BuildStatus = truncationStatus(Stop, Meter, "lattice construction");
  size_t Cap = Stop == BuildStop::Time ? DeadlineKeepCap : SIZE_MAX;
  R.Lattice = finalizeTruncatedConcepts(Ctx, B.snapshotConcepts(Ctx, Cap), Cap);
  return R;
}
