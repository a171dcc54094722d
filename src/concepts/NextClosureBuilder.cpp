//===- concepts/NextClosureBuilder.cpp - Batch lattice construction -------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/NextClosureBuilder.h"

#include "support/Failpoint.h"
#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <new>
#include <utility>

using namespace cable;

namespace {

// Shared with ParallelBuilder (same registry entries): total closure
// computations and concepts emitted across every builder in the process.
// Enumeration loops accumulate locally and flush once per call, so the
// hot loop never touches an atomic.
Metrics::Counter &NumClosures = Metrics::counter("lattice.closures");
Metrics::Counter &NumConcepts = Metrics::counter("lattice.concepts");
Metrics::Counter &OomContained = Metrics::counter("lattice.oom-contained");

// Deterministic OOM for the containment tests: an `error` here is
// translated into a real std::bad_alloc at the enumeration checkpoint.
Failpoint::Registrar RegLatticeOom("lattice-oom");

} // namespace

std::vector<BitVector>
NextClosureBuilder::allClosedIntents(const Context &Ctx) {
  TraceSpan Span("next-closure-enumerate");
  size_t M = Ctx.numAttributes();
  uint64_t LocalClosures = 1;
  std::vector<BitVector> Out;

  // All candidate/closure buffers live outside the enumeration loop: a
  // rejected candidate (the common case) costs zero allocations, only an
  // accepted concept pays one copy into Out.
  BitVector A(M), B(M), Closed(M), ObjScratch(Ctx.numObjects());
  Ctx.closeIntentInto(BitVector(M), ObjScratch, A);
  Out.push_back(A);

  // The lectically largest closed set is the closure of the full set, which
  // is the full set itself only if reached; iterate until no successor.
  for (;;) {
    bool Advanced = false;
    // Find the lectic successor of A.
    for (size_t IPlus1 = M; IPlus1 > 0; --IPlus1) {
      size_t I = IPlus1 - 1;
      if (A.test(I))
        continue;
      // Candidate: closure((A ∩ {0..I-1}) ∪ {I}).
      B.resetAll();
      for (size_t J : A) {
        if (J >= I)
          break;
        B.set(J);
      }
      B.set(I);
      Ctx.closeIntentInto(B, ObjScratch, Closed);
      ++LocalClosures;
      // Accept iff the closure agrees with A below I (B +_i A in Ganter's
      // notation).
      bool Agrees = true;
      for (size_t J : Closed) {
        if (J >= I)
          break;
        if (!A.test(J)) {
          Agrees = false;
          break;
        }
      }
      if (Agrees) {
        Out.push_back(Closed);
        std::swap(A, Closed);
        Advanced = true;
        break;
      }
    }
    if (!Advanced)
      break;
  }
  NumClosures.add(LocalClosures);
  NumConcepts.add(Out.size());
  return Out;
}

namespace {

/// The lattice of a complete lectic enumeration: extents derived here,
/// covers by neighbour search.
ConceptLattice latticeOfIntents(const Context &Ctx,
                                std::vector<BitVector> Intents) {
  std::vector<Concept> Concepts;
  Concepts.reserve(Intents.size());
  for (BitVector &Intent : Intents) {
    Concept C;
    C.Extent = Ctx.tau(Intent);
    C.Intent = std::move(Intent);
    Concepts.push_back(std::move(C));
  }
  return expectComplete(
      ConceptLattice::fromCompleteConcepts(Ctx, std::move(Concepts)));
}

} // namespace

ConceptLattice NextClosureBuilder::buildLattice(const Context &Ctx) {
  return latticeOfIntents(Ctx, allClosedIntents(Ctx));
}

std::vector<BitVector>
NextClosureBuilder::allClosedIntentsBudgeted(const Context &Ctx,
                                             const BudgetMeter &Meter,
                                             BuildStop &Stop) {
  TraceSpan Span("next-closure-enumerate");
  size_t M = Ctx.numAttributes();
  size_t Max = Meter.budget().MaxConcepts.value_or(SIZE_MAX);
  uint64_t LocalClosures = 1;
  std::vector<BitVector> Out;
  Stop = BuildStop::Complete;

  // The lectic least closed intent is emitted unconditionally so even an
  // already-expired meter yields a nonempty prefix (the top concept).
  BitVector A(M), B(M), Closed(M), ObjScratch(Ctx.numObjects());
  Ctx.closeIntentInto(BitVector(M), ObjScratch, A);
  Out.push_back(A);

  try {
  for (;;) {
    bool Advanced = false;
    for (size_t IPlus1 = M; IPlus1 > 0; --IPlus1) {
      size_t I = IPlus1 - 1;
      if (A.test(I))
        continue;
      // One checkpoint per candidate closure; the closure dominates the
      // cost of the atomic load by orders of magnitude.
      if (Meter.expired()) {
        Stop = BuildStop::Time;
        NumClosures.add(LocalClosures);
        NumConcepts.add(Out.size());
        return Out;
      }
      if (!Failpoint::hit("lattice-oom").isOk())
        throw std::bad_alloc();
      B.resetAll();
      for (size_t J : A) {
        if (J >= I)
          break;
        B.set(J);
      }
      B.set(I);
      Ctx.closeIntentInto(B, ObjScratch, Closed);
      ++LocalClosures;
      bool Agrees = true;
      for (size_t J : Closed) {
        if (J >= I)
          break;
        if (!A.test(J)) {
          Agrees = false;
          break;
        }
      }
      if (Agrees) {
        if (Out.size() >= Max) {
          // A successor exists beyond the cap, so the prefix is proper.
          // Deciding this only *after* finding the successor makes the
          // Truncated flag exact: a context with exactly Max concepts
          // builds complete.
          Stop = BuildStop::ConceptCap;
          NumClosures.add(LocalClosures);
          NumConcepts.add(Out.size());
          return Out;
        }
        Out.push_back(Closed);
        std::swap(A, Closed);
        Advanced = true;
        break;
      }
    }
    if (!Advanced)
      break;
  }
  } catch (const std::bad_alloc &) {
    // Containment: an allocation failure becomes a Memory stop keeping the
    // lectic prefix enumerated so far, so an OOMing build (or shard
    // worker) reports a truncated result instead of terminating.
    Stop = BuildStop::Memory;
    OomContained.add();
  }
  NumClosures.add(LocalClosures);
  NumConcepts.add(Out.size());
  return Out;
}

LatticeBuildResult
NextClosureBuilder::buildLatticeBudgeted(const Context &Ctx,
                                         const BudgetMeter &Meter) {
  Status Cells = checkContextCells(Ctx, Meter.budget());
  if (!Cells.isOk()) {
    LatticeBuildResult R;
    R.Lattice = finalizeTruncatedConcepts(Ctx, {}, DeadlineKeepCap);
    R.BuildStatus = std::move(Cells);
    R.Truncated = true;
    return R;
  }

  try {
    BuildStop Stop;
    std::vector<BitVector> Intents =
        allClosedIntentsBudgeted(Ctx, Meter, Stop);
    // If the deadline hit right as enumeration finished, do not start the
    // cover computation over a possibly huge complete set.
    if (Stop == BuildStop::Complete && Meter.expired())
      Stop = BuildStop::Time;
    if (Stop != BuildStop::Complete) {
      size_t NumEnumerated = Intents.size();
      return makeTruncatedFromIntents(Ctx, std::move(Intents), Stop, Meter,
                                      NumEnumerated);
    }

    LatticeBuildResult R;
    R.NumEnumerated = Intents.size();
    R.Lattice = latticeOfIntents(Ctx, std::move(Intents));
    return R;
  } catch (const std::bad_alloc &) {
    // Last-resort boundary: extent or cover computation ran out of memory
    // after a (possibly complete) enumeration. The intents are gone, but
    // the process — and a shard worker's ability to report — survives.
    OomContained.add();
    LatticeBuildResult R;
    R.Truncated = true;
    R.BuildStatus =
        truncationStatus(BuildStop::Memory, Meter, "lattice construction");
    R.Lattice = finalizeTruncatedConcepts(Ctx, {}, DeadlineKeepCap);
    return R;
  }
}
