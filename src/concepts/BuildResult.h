//===- concepts/BuildResult.h - Budgeted construction results ---*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared result type and helpers for budgeted lattice construction.
/// Concept lattices are worst-case exponential in the context, so every
/// builder has a buildLatticeBudgeted entry point that stops cooperatively
/// at a BudgetMeter checkpoint and returns a *partial* lattice flagged
/// Truncated instead of running unbounded.
///
/// A truncated result is always a well-formed ConceptLattice (the top and
/// bottom concepts of the full context are ensured), just not the complete
/// one; downstream consumers (Session, meet/join) degrade to best
/// approximations on it.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_BUILDRESULT_H
#define CABLE_CONCEPTS_BUILDRESULT_H

#include "concepts/Lattice.h"
#include "support/Budget.h"
#include "support/Status.h"

namespace cable {

/// Why a budgeted enumeration stopped.
enum class BuildStop : uint8_t {
  Complete,   ///< Ran to the end; the lattice is the full one.
  ConceptCap, ///< Budget::MaxConcepts was hit with concepts remaining.
  Time,       ///< The deadline passed or the meter was cancelled.
  Memory,     ///< std::bad_alloc was contained; the prefix survived.
};

/// What a budgeted builder hands back: a lattice (complete, or a partial
/// one when Truncated), the status explaining any truncation, and how many
/// concepts were enumerated before stopping (which can exceed the size of
/// a deadline-truncated lattice; see DeadlineKeepCap).
struct LatticeBuildResult {
  ConceptLattice Lattice;
  Status BuildStatus;
  bool Truncated = false;
  size_t NumEnumerated = 0;
};

/// How many concepts a deadline-truncated result retains. Enumeration can
/// race far past what cover computation (quadratic in the concept count)
/// can afford within the same deadline, so the kept prefix is capped; this
/// keeps "returns within a small factor of the deadline" true regardless
/// of how fast closures are. Budget::MaxConcepts truncation is exact and
/// is not capped.
inline constexpr size_t DeadlineKeepCap = 1024;

/// The indices, in increasing order, of the \p Cap most general of
/// \p Concepts (largest extents; among equal extents the earlier index
/// wins) — the subset finalizeTruncatedConcepts keeps. Every index when
/// there are at most \p Cap concepts.
std::vector<size_t> mostGeneralConcepts(const std::vector<Concept> &Concepts,
                                        size_t Cap);

/// Assembles a well-formed lattice from an arbitrary subset of a context's
/// concepts: reduces to \p Cap (keeping the most general concepts,
/// deterministically), then ensures the context's true top and bottom are
/// present so ConceptLattice's structural invariants hold. Preserves the
/// input order of the kept concepts. Cover edges come from the serial
/// pairwise scan of ConceptLattice::fromConcepts, since a truncated family
/// can miss the closures the neighbour search needs; deadline and memory
/// cuts pass DeadlineKeepCap, which keeps that scan small.
ConceptLattice finalizeTruncatedConcepts(const Context &Ctx,
                                         std::vector<Concept> Concepts,
                                         size_t Cap);

/// The lattice a builder assembled from a concept family it enumerated
/// itself, complete by construction: fromCompleteConcepts cannot fail on
/// it, so a failure is a bug in Cable and aborts.
ConceptLattice expectComplete(StatusOr<ConceptLattice> Lattice);

/// The Status describing a truncated build: Cancelled / ResourceExhausted
/// with a message naming the exhausted limit. \p Stop must not be
/// Complete.
Status truncationStatus(BuildStop Stop, const BudgetMeter &Meter,
                        const char *What);

/// Ok, or ResourceExhausted when the context is larger than
/// Budget::MaxContextCells allows (cells = objects × attributes).
Status checkContextCells(const Context &Ctx, const Budget &B);

/// The common truncated-path epilogue for the lectic enumerators
/// (NextClosure and ParallelBuilder): turns a lectic prefix of closed
/// intents into a LatticeBuildResult. Serial and parallel construction
/// funnel through this one function so a ConceptCap truncation is
/// bit-for-bit identical at every thread count.
LatticeBuildResult makeTruncatedFromIntents(const Context &Ctx,
                                            std::vector<BitVector> Intents,
                                            BuildStop Stop,
                                            const BudgetMeter &Meter,
                                            size_t NumEnumerated);

} // namespace cable

#endif // CABLE_CONCEPTS_BUILDRESULT_H
