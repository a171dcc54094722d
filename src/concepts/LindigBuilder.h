//===- concepts/LindigBuilder.h - Neighbor-based construction ---*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lindig's lattice construction ("Fast Concept Analysis", 2000): start
/// from the bottom concept and repeatedly compute each concept's *upper
/// neighbors* directly, which yields the concepts and the cover (Hasse)
/// edges in one pass. This is the third independent construction in the
/// library — Godin (incremental, the paper's algorithm) and NextClosure
/// (lectic enumeration) produce the concept set, with covers derived
/// afterwards by the dual, attribute-side neighbour search
/// (ConceptLattice::fromCompleteConcepts); Lindig produces covers
/// natively on the object side, so the three cross-validate both the
/// concept set and the edge set.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_LINDIGBUILDER_H
#define CABLE_CONCEPTS_LINDIGBUILDER_H

#include "concepts/BuildResult.h"
#include "concepts/Lattice.h"

namespace cable {

/// Batch construction via upper neighbors.
class LindigBuilder {
public:
  /// Computes the extents of the upper neighbors (immediate covers) of the
  /// concept whose extent is \p Extent. \p Extent must be closed. A
  /// non-null \p Meter is checked before each generator closure; on
  /// expiry the (then incomplete) neighbor list found so far is returned
  /// and the caller is expected to stop.
  static std::vector<BitVector>
  upperNeighborExtents(const Context &Ctx, const BitVector &Extent,
                       const BudgetMeter *Meter = nullptr);

  /// Builds the full concept lattice of \p Ctx, with cover edges taken
  /// from the neighbor computation itself (not recomputed afterwards).
  static ConceptLattice buildLattice(const Context &Ctx);

  /// Budgeted construction: the BFS from the bottom concept stops at the
  /// deadline or as soon as a discovery would exceed Budget::MaxConcepts,
  /// returning the concepts found so far as a Truncated partial lattice
  /// (covers recomputed over the retained subset; see BuildResult.h).
  static LatticeBuildResult buildLatticeBudgeted(const Context &Ctx,
                                                 const BudgetMeter &Meter);
};

} // namespace cable

#endif // CABLE_CONCEPTS_LINDIGBUILDER_H
