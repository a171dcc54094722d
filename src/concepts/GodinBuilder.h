//===- concepts/GodinBuilder.h - Incremental lattice construction -* C++ *-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental concept-set construction after Godin, Missaoui, and Alaoui
/// ("Incremental concept formation algorithms based on Galois (concept)
/// lattices", 1995) — the algorithm the paper uses (§3.1.1), with running
/// time O(2^2k · |O|) for k an upper bound on attributes per object.
///
/// Objects arrive one at a time with their attribute sets. For each new
/// object x with attributes f(x), existing concepts are visited in
/// ascending intent size:
///
///  - a concept (A, B) with B ⊆ f(x) is *modified*: x joins its extent;
///  - otherwise it proposes the intent B ∩ f(x); the first proposer (which
///    provably has the maximal extent) creates the *new* concept
///    (A ∪ {x}, B ∩ f(x)) unless that intent is already present.
///
/// The builder maintains only the concept set; cover edges are computed
/// when build() assembles the ConceptLattice.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_GODINBUILDER_H
#define CABLE_CONCEPTS_GODINBUILDER_H

#include "concepts/BuildResult.h"
#include "concepts/Lattice.h"

#include <cstdint>
#include <vector>

namespace cable {

/// Incrementally accumulates the concepts of a growing context.
class GodinBuilder {
public:
  /// \p NumAttributes fixes the attribute universe up front.
  explicit GodinBuilder(size_t NumAttributes);

  /// Adds the next object (object ids are assigned 0, 1, ... in call
  /// order). \p Attrs must be sized to the attribute universe.
  void addObject(const BitVector &Attrs);

  /// Budgeted addObject: visits existing concepts with a \p Meter
  /// checkpoint per visit, and refuses insertions that would push the
  /// concept count past \p MaxConcepts. All mutation is committed at the
  /// end, so a false return (budget hit) leaves the builder exactly as it
  /// was — the complete lattice of the objects added so far.
  bool addObjectBudgeted(const BitVector &Attrs, const BudgetMeter &Meter,
                         size_t MaxConcepts);

  size_t numObjects() const { return NumObjects; }
  size_t numConcepts() const { return Concepts.size(); }

  /// Assembles the lattice (computes covers, top, bottom).
  ConceptLattice build() const;

  /// The accumulated concepts as concepts of \p Ctx, whose first
  /// numObjects() rows must be the ones added: each kept intent paired
  /// with its extent τ(intent) over all of \p Ctx, so a truncated snapshot
  /// holds genuine concepts of the full context. With a \p Cap, only the
  /// mostGeneralConcepts (by extent within the added objects) are copied,
  /// so a deadline snapshot of a large builder costs Cap copies rather
  /// than numConcepts().
  std::vector<Concept> snapshotConcepts(const Context &Ctx,
                                        size_t Cap = SIZE_MAX) const;

  /// Convenience: runs the incremental algorithm over all objects of
  /// \p Ctx in index order.
  static ConceptLattice buildLattice(const Context &Ctx);

  /// Budgeted construction: the full lattice when the budget suffices,
  /// otherwise a partial lattice flagged Truncated: the full-context
  /// concepts whose intents are those of the objects inserted before
  /// exhaustion, plus the full context's top and bottom (see
  /// BuildResult.h).
  static LatticeBuildResult buildLatticeBudgeted(const Context &Ctx,
                                                 const BudgetMeter &Meter);

private:
  /// build() over \p Ctx, the context of exactly the added objects.
  ConceptLattice build(const Context &Ctx) const;

  size_t NumAttributes;
  size_t NumObjects = 0;
  std::vector<Concept> Concepts;
};

} // namespace cable

#endif // CABLE_CONCEPTS_GODINBUILDER_H
