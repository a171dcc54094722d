//===- tests/concepts/BudgetTest.cpp ---------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Budget-exhaustion suite for all four lattice builders. The adversarial
// input is the contranominal context of dimension N (object i related to
// every attribute but i), whose lattice is the full powerset: 2^N
// concepts. At N=24 that is ~16.7M concepts — unbuildable within a 100 ms
// deadline — so every builder must stop cooperatively, flag the result
// Truncated, and still hand back a well-formed sub-lattice (top, bottom,
// consistent covers) within a small multiple of the deadline.
//
// MaxConcepts truncation is exact and deterministic: serial NextClosure
// and the parallel builder at any thread count return bit-identical
// truncated lattices, and a cap equal to the true concept count does not
// truncate at all.
//
//===----------------------------------------------------------------------===//

#include "concepts/BuildResult.h"
#include "concepts/GodinBuilder.h"
#include "concepts/LindigBuilder.h"
#include "concepts/NextClosureBuilder.h"
#include "concepts/ParallelBuilder.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <set>
#include <thread>

using namespace cable;

// Sanitizers slow wall-clock-sensitive code by an order of magnitude;
// relax the overshoot bound accordingly.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CABLE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CABLE_TEST_SANITIZED 1
#endif
#endif

namespace {

constexpr int DeadlineMs = 100;
#ifdef CABLE_TEST_SANITIZED
constexpr int OvershootFactor = 20;
#else
constexpr int OvershootFactor = 2;
#endif

/// Object i related to every attribute except i: the concept lattice is
/// the boolean lattice with 2^N concepts.
Context contranominal(size_t N) {
  Context Ctx(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (I != J)
        Ctx.relate(I, J);
  return Ctx;
}

Context randomContext(RNG &Rand, size_t MaxObjects, size_t MaxAttrs,
                      double Density) {
  size_t O = Rand.nextIndex(MaxObjects + 1);
  size_t A = Rand.nextIndex(MaxAttrs + 1);
  Context Ctx(O, A);
  for (size_t I = 0; I < O; ++I)
    for (size_t J = 0; J < A; ++J)
      if (Rand.nextBool(Density))
        Ctx.relate(I, J);
  return Ctx;
}

/// A context whose last object has every attribute (rows {0}, {1}, {2},
/// {0,1}, {1,2}, {0,1,2,3}; 7 concepts). An incremental build cut before
/// that object has its own top and bottom, neither of which is the full
/// context's.
Context fullLastRow() {
  Context Ctx(6, 4);
  const std::vector<std::vector<size_t>> Rows = {{0},    {1},    {2},
                                                 {0, 1}, {1, 2}, {0, 1, 2, 3}};
  for (size_t O = 0; O < Rows.size(); ++O)
    for (size_t A : Rows[O])
      Ctx.relate(O, A);
  return Ctx;
}

/// Structural sanity of any (possibly truncated) lattice over \p Ctx.
void expectWellFormed(const ConceptLattice &L, const Context &Ctx) {
  ASSERT_GE(L.size(), 1u);
  // Top holds every object; bottom holds the objects common to every
  // attribute.
  const Concept &Top = L.node(L.top());
  EXPECT_EQ(Top.Extent.count(), Ctx.numObjects());
  BitVector AllAttrs(Ctx.numAttributes());
  AllAttrs.setAll();
  const Concept &Bottom = L.node(L.bottom());
  EXPECT_EQ(Bottom.Extent.toIndices(), Ctx.tau(AllAttrs).toIndices());
  // Every node is a genuine concept of the full context, no intent
  // appears twice, and every cover edge is a strict superset relation on
  // extents.
  std::set<std::vector<size_t>> Intents;
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id) {
    const Concept &C = L.node(Id);
    EXPECT_EQ(Ctx.sigma(C.Extent).toIndices(), C.Intent.toIndices());
    EXPECT_EQ(Ctx.tau(C.Intent).toIndices(), C.Extent.toIndices());
    EXPECT_TRUE(Intents.insert(C.Intent.toIndices()).second)
        << "duplicate intent at node " << Id;
    for (ConceptLattice::NodeId Child : L.children(Id)) {
      EXPECT_TRUE(L.node(Child).Extent.isSubsetOf(C.Extent));
      EXPECT_LT(L.node(Child).Extent.count(), C.Extent.count());
    }
  }
}

/// Node-for-node equality: same size, same extents/intents in the same
/// order, same cover lists.
void expectIdentical(const ConceptLattice &A, const ConceptLattice &B) {
  ASSERT_EQ(A.size(), B.size());
  for (ConceptLattice::NodeId Id = 0; Id < A.size(); ++Id) {
    EXPECT_EQ(A.node(Id).Extent.toIndices(), B.node(Id).Extent.toIndices());
    EXPECT_EQ(A.node(Id).Intent.toIndices(), B.node(Id).Intent.toIndices());
    EXPECT_EQ(A.children(Id), B.children(Id));
  }
  EXPECT_EQ(A.top(), B.top());
  EXPECT_EQ(A.bottom(), B.bottom());
}

struct NamedBuilder {
  const char *Name;
  std::function<LatticeBuildResult(const Context &, const BudgetMeter &)> Run;
};

std::vector<NamedBuilder> allBudgetedBuilders() {
  return {
      {"NextClosure",
       [](const Context &Ctx, const BudgetMeter &M) {
         return NextClosureBuilder::buildLatticeBudgeted(Ctx, M);
       }},
      {"Godin",
       [](const Context &Ctx, const BudgetMeter &M) {
         return GodinBuilder::buildLatticeBudgeted(Ctx, M);
       }},
      {"Lindig",
       [](const Context &Ctx, const BudgetMeter &M) {
         return LindigBuilder::buildLatticeBudgeted(Ctx, M);
       }},
      {"Parallel/1",
       [](const Context &Ctx, const BudgetMeter &M) {
         return ParallelBuilder::buildLatticeBudgeted(Ctx, M, 1u);
       }},
      {"Parallel/4",
       [](const Context &Ctx, const BudgetMeter &M) {
         return ParallelBuilder::buildLatticeBudgeted(Ctx, M, 4u);
       }},
  };
}

} // namespace

TEST(BudgetBuilderTest, DeadlineTruncatesEveryBuilderInTime) {
  Context Ctx = contranominal(24);
  for (const NamedBuilder &B : allBudgetedBuilders()) {
    SCOPED_TRACE(B.Name);
    Budget Limits;
    Limits.TimeLimit = std::chrono::milliseconds(DeadlineMs);
    BudgetMeter Meter(Limits);
    auto T0 = std::chrono::steady_clock::now();
    LatticeBuildResult R = B.Run(Ctx, Meter);
    auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - T0)
                         .count();
    EXPECT_TRUE(R.Truncated);
    EXPECT_FALSE(R.BuildStatus.isOk());
    EXPECT_EQ(R.BuildStatus.code(), ErrorCode::ResourceExhausted);
    EXPECT_LE(ElapsedMs, DeadlineMs * OvershootFactor)
        << B.Name << " overshot the deadline";
    expectWellFormed(R.Lattice, Ctx);
    // 2^24 concepts can't fit; the result must be a strict subset.
    EXPECT_LT(R.Lattice.size(), size_t(1) << 24);
  }
}

TEST(BudgetBuilderTest, ConceptCapTruncatesEveryBuilder) {
  struct Case {
    const char *Name;
    Context Ctx;
    size_t Cap;
  };
  std::vector<Case> Cases = {{"contranominal(16)", contranominal(16), 500}};
  for (size_t Cap = 2; Cap <= 6; ++Cap)
    Cases.push_back({"full last row", fullLastRow(), Cap});
  for (const Case &C : Cases) {
    for (const NamedBuilder &B : allBudgetedBuilders()) {
      SCOPED_TRACE(std::string(C.Name) + " cap " + std::to_string(C.Cap) +
                   " " + B.Name);
      Budget Limits;
      Limits.MaxConcepts = C.Cap;
      BudgetMeter Meter(Limits);
      LatticeBuildResult R = B.Run(C.Ctx, Meter);
      EXPECT_TRUE(R.Truncated);
      EXPECT_EQ(R.BuildStatus.code(), ErrorCode::ResourceExhausted);
      expectWellFormed(R.Lattice, C.Ctx);
      // Cap + the always-ensured top and bottom.
      EXPECT_LE(R.Lattice.size(), C.Cap + 2);
    }
  }
}

TEST(BudgetBuilderTest, ConceptCapIsDeterministicAcrossThreadCounts) {
  Context Ctx = contranominal(16);
  Budget Limits;
  Limits.MaxConcepts = 1000;
  BudgetMeter MSerial(Limits), M1(Limits), M4(Limits);
  LatticeBuildResult Serial =
      NextClosureBuilder::buildLatticeBudgeted(Ctx, MSerial);
  LatticeBuildResult P1 = ParallelBuilder::buildLatticeBudgeted(Ctx, M1, 1u);
  LatticeBuildResult P4 = ParallelBuilder::buildLatticeBudgeted(Ctx, M4, 4u);
  EXPECT_TRUE(Serial.Truncated);
  EXPECT_TRUE(P1.Truncated);
  EXPECT_TRUE(P4.Truncated);
  EXPECT_EQ(Serial.NumEnumerated, P4.NumEnumerated);
  expectIdentical(Serial.Lattice, P1.Lattice);
  expectIdentical(Serial.Lattice, P4.Lattice);
}

TEST(BudgetBuilderTest, ConceptCapDeterminismOnRandomContexts) {
  RNG Rand(0xB1D6E7);
  for (int Trial = 0; Trial < 40; ++Trial) {
    Context Ctx = randomContext(Rand, 10, 10, 0.4);
    size_t TrueSize = NextClosureBuilder::buildLattice(Ctx).size();
    // Caps below, at, and above the true size.
    for (size_t Cap : {size_t(1), TrueSize / 2 + 1, TrueSize, TrueSize + 5}) {
      SCOPED_TRACE("trial " + std::to_string(Trial) + " cap " +
                   std::to_string(Cap));
      Budget Limits;
      Limits.MaxConcepts = Cap;
      BudgetMeter MSerial(Limits), M4(Limits);
      LatticeBuildResult Serial =
          NextClosureBuilder::buildLatticeBudgeted(Ctx, MSerial);
      LatticeBuildResult P4 =
          ParallelBuilder::buildLatticeBudgeted(Ctx, M4, 4u);
      EXPECT_EQ(Serial.Truncated, P4.Truncated);
      expectIdentical(Serial.Lattice, P4.Lattice);
      // The flag is exact: a cap covering the whole lattice never trips.
      if (Cap >= TrueSize) {
        EXPECT_FALSE(Serial.Truncated);
        EXPECT_EQ(Serial.Lattice.size(), TrueSize);
        EXPECT_TRUE(Serial.BuildStatus.isOk());
      } else {
        EXPECT_TRUE(Serial.Truncated);
      }
    }
  }
}

TEST(BudgetBuilderTest, UnlimitedBudgetMatchesUnbudgetedBuild) {
  RNG Rand(0xFEED);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Context Ctx = randomContext(Rand, 9, 9, 0.5);
    ConceptLattice Full = ParallelBuilder::buildLattice(Ctx, 4u);
    Budget Unlimited;
    BudgetMeter Meter(Unlimited);
    LatticeBuildResult R =
        ParallelBuilder::buildLatticeBudgeted(Ctx, Meter, 4u);
    EXPECT_FALSE(R.Truncated);
    EXPECT_TRUE(R.BuildStatus.isOk());
    expectIdentical(Full, R.Lattice);
  }
}

TEST(BudgetBuilderTest, ExternalCancelStopsTheBuild) {
  Context Ctx = contranominal(24);
  Budget Unlimited; // Only cancel() can stop this one.
  BudgetMeter Meter(Unlimited);
  std::thread Canceller([&Meter] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Meter.cancel();
  });
  LatticeBuildResult R = ParallelBuilder::buildLatticeBudgeted(Ctx, Meter, 4u);
  Canceller.join();
  EXPECT_TRUE(R.Truncated);
  EXPECT_EQ(R.BuildStatus.code(), ErrorCode::Cancelled);
  expectWellFormed(R.Lattice, Ctx);
}

TEST(BudgetBuilderTest, ContextCellCapShortCircuits) {
  Context Ctx = contranominal(24); // 576 cells.
  for (const NamedBuilder &B : allBudgetedBuilders()) {
    SCOPED_TRACE(B.Name);
    Budget Limits;
    Limits.MaxContextCells = 100;
    BudgetMeter Meter(Limits);
    LatticeBuildResult R = B.Run(Ctx, Meter);
    EXPECT_TRUE(R.Truncated);
    EXPECT_EQ(R.BuildStatus.code(), ErrorCode::ResourceExhausted);
    // Degenerate but usable: top and bottom only.
    expectWellFormed(R.Lattice, Ctx);
    EXPECT_LE(R.Lattice.size(), 2u);
  }
}

TEST(BudgetBuilderTest, MeetJoinDegradeGracefullyOnTruncatedLattices) {
  Context Ctx = contranominal(10); // 1024 concepts in full.
  Budget Limits;
  Limits.MaxConcepts = 40;
  BudgetMeter Meter(Limits);
  LatticeBuildResult R = ParallelBuilder::buildLatticeBudgeted(Ctx, Meter, 4u);
  ASSERT_TRUE(R.Truncated);
  const ConceptLattice &L = R.Lattice;
  for (ConceptLattice::NodeId A = 0; A < L.size(); ++A) {
    for (ConceptLattice::NodeId B = 0; B < L.size(); ++B) {
      ConceptLattice::NodeId M = L.meet(A, B);
      // Best-approximation meet: a concept below both arguments.
      EXPECT_TRUE(L.node(M).Extent.isSubsetOf(L.node(A).Extent));
      EXPECT_TRUE(L.node(M).Extent.isSubsetOf(L.node(B).Extent));
      ConceptLattice::NodeId J = L.join(A, B);
      EXPECT_TRUE(L.node(J).Intent.isSubsetOf(L.node(A).Intent));
      EXPECT_TRUE(L.node(J).Intent.isSubsetOf(L.node(B).Intent));
    }
  }
}

TEST(BudgetBuilderTest, CappedGodinSnapshotMatchesTrimmingTheFullSnapshot) {
  // A deadline-truncated Godin build copies only the DeadlineKeepCap most
  // general concepts; the lattice must equal trimming a full copy.
  RNG Rand(7);
  for (int Trial = 0; Trial < 20; ++Trial) {
    SCOPED_TRACE(Trial);
    Context Ctx = randomContext(Rand, 40, 14, 0.5);
    GodinBuilder B(Ctx.numAttributes());
    for (size_t O = 0; O < Ctx.numObjects(); ++O)
      B.addObject(Ctx.objectRow(O));
    for (size_t Cap : {size_t(0), size_t(1), size_t(7), size_t(64),
                       B.numConcepts(), B.numConcepts() + 1}) {
      SCOPED_TRACE(Cap);
      std::vector<Concept> Capped = B.snapshotConcepts(Ctx, Cap);
      EXPECT_EQ(Capped.size(), std::min(Cap, B.numConcepts()));
      expectIdentical(
          finalizeTruncatedConcepts(Ctx, std::move(Capped), Cap),
          finalizeTruncatedConcepts(Ctx, B.snapshotConcepts(Ctx), Cap));
    }
  }
}
