//===- tests/concepts/CoversTest.cpp ---------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Differential suite for ConceptLattice::fromCompleteConcepts, the
// neighbour-search cover computation every complete build uses, against
// the pairwise scan of ConceptLattice::fromConcepts: the same
// parent and child lists, in the same order, with and without a pool at
// 1, 2, 4 and 8 threads, on concept vectors in lectic and in shuffled
// order. Contexts: 200 generated ones, among them intents and extents of
// more than one word and the empty corners, contranominal contexts, a
// context with a full row, and the widened-XtFree session contexts the
// lattice-scale benchmark builds. Every builder path, complete or
// truncated, also records its cover computation as a `lattice-covers`
// span.
//
//===----------------------------------------------------------------------===//

#include "cable/Session.h"
#include "concepts/GodinBuilder.h"
#include "concepts/NextClosureBuilder.h"
#include "concepts/ParallelBuilder.h"
#include "support/Metrics.h"
#include "support/RNG.h"
#include "support/ThreadPool.h"
#include "support/TraceEvent.h"
#include "workload/Generator.h"
#include "workload/ReferenceFA.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <unordered_set>

using namespace cable;

namespace {

/// Every concept of \p Ctx, in lectic order of the intents.
std::vector<Concept> allConcepts(const Context &Ctx) {
  std::vector<Concept> Out;
  for (BitVector &Intent : NextClosureBuilder::allClosedIntents(Ctx)) {
    Concept C;
    C.Extent = Ctx.tau(Intent);
    C.Intent = std::move(Intent);
    Out.push_back(std::move(C));
  }
  return Out;
}

void expectSameLattice(const ConceptLattice &Want, const ConceptLattice &Got,
                       const std::string &What) {
  ASSERT_EQ(Want.size(), Got.size()) << What;
  EXPECT_EQ(Want.top(), Got.top()) << What;
  EXPECT_EQ(Want.bottom(), Got.bottom()) << What;
  for (ConceptLattice::NodeId Id = 0; Id < Want.size(); ++Id) {
    ASSERT_TRUE(Want.node(Id).Extent == Got.node(Id).Extent) << What;
    ASSERT_TRUE(Want.node(Id).Intent == Got.node(Id).Intent) << What;
    ASSERT_EQ(Want.parents(Id), Got.parents(Id)) << What << " c" << Id;
    ASSERT_EQ(Want.children(Id), Got.children(Id)) << What << " c" << Id;
  }
}

/// The neighbour search equals the pairwise scan on \p Concepts at every
/// thread count; \p Verify adds ConceptLattice::verify, which is cubic in
/// the lattice size.
void expectCoversMatchOracle(const Context &Ctx,
                             const std::vector<Concept> &Concepts,
                             const std::string &What, bool Verify) {
  ConceptLattice Oracle = ConceptLattice::fromConcepts(Concepts);
  StatusOr<ConceptLattice> Serial =
      ConceptLattice::fromCompleteConcepts(Ctx, Concepts);
  ASSERT_TRUE(Serial.isOk()) << What << ": " << Serial.status().message();
  expectSameLattice(Oracle, *Serial, What + " serial");
  for (unsigned T : {1u, 2u, 4u, 8u}) {
    ThreadPool Pool(T);
    StatusOr<ConceptLattice> Parallel =
        ConceptLattice::fromCompleteConcepts(Ctx, Concepts, &Pool);
    ASSERT_TRUE(Parallel.isOk()) << What << ": " << Parallel.status().message();
    expectSameLattice(Oracle, *Parallel,
                      What + " threads=" + std::to_string(T));
  }
  if (Verify) {
    std::string Why;
    EXPECT_TRUE(Serial->verify(Ctx, &Why)) << What << ": " << Why;
  }
}

/// Lectic order, then a seeded shuffle of the same concepts.
void expectCoversMatchOracle(const Context &Ctx, const std::string &What,
                             bool Verify = true) {
  std::vector<Concept> Concepts = allConcepts(Ctx);
  expectCoversMatchOracle(Ctx, Concepts, What + " lectic", Verify);
  RNG Rand(Concepts.size() * 7919 + Ctx.numAttributes());
  for (size_t I = Concepts.size(); I > 1; --I)
    std::swap(Concepts[I - 1], Concepts[Rand.nextIndex(I)]);
  expectCoversMatchOracle(Ctx, Concepts, What + " shuffled", Verify);
}

/// Four shapes by seed: small, wide (more than 64 attributes), tall (more
/// than 64 objects), and both; the multi-word shapes are sparse so their
/// lattices stay small enough for verify.
Context seededContext(uint64_t Seed) {
  RNG Rand(Seed * 0x9E3779B97F4A7C15ULL + 0xC0FFEE);
  size_t O = 0, A = 0;
  double Density = 0;
  switch (Seed % 4) {
  case 0:
    O = Rand.nextIndex(13);
    A = Rand.nextIndex(11);
    Density = 0.05 + 0.9 * Rand.nextDouble();
    break;
  case 1:
    O = Rand.nextIndex(11);
    A = 65 + Rand.nextIndex(40);
    Density = 0.05 + 0.5 * Rand.nextDouble();
    break;
  case 2:
    O = 65 + Rand.nextIndex(70);
    A = Rand.nextIndex(9);
    Density = 0.05 + 0.9 * Rand.nextDouble();
    break;
  case 3:
    O = 65 + Rand.nextIndex(20);
    A = 65 + Rand.nextIndex(20);
    Density = 0.01 + 0.04 * Rand.nextDouble();
    break;
  }
  Context Ctx(O, A);
  for (size_t I = 0; I < O; ++I)
    for (size_t J = 0; J < A; ++J)
      if (Rand.nextBool(Density))
        Ctx.relate(I, J);
  return Ctx;
}

Context contranominal(size_t N) {
  Context Ctx(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (I != J)
        Ctx.relate(I, J);
  return Ctx;
}

/// XtFree with ten interchangeable optional uses, as the lattice-scale
/// benchmark widens it.
ProtocolModel xtFreeWide() {
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

} // namespace

class CoversDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoversDifferentialTest, NeighbourSearchMatchesPairwiseScan) {
  Context Ctx = seededContext(GetParam());
  expectCoversMatchOracle(Ctx, std::to_string(Ctx.numObjects()) + "x" +
                                   std::to_string(Ctx.numAttributes()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoversDifferentialTest,
                         ::testing::Range<uint64_t>(0, 200));

TEST(CoversTest, EmptyCorners) {
  expectCoversMatchOracle(Context(0, 0), "0x0");
  expectCoversMatchOracle(Context(5, 0), "5x0");
  expectCoversMatchOracle(Context(0, 6), "0x6");
  expectCoversMatchOracle(Context(0, 70), "0x70");
  expectCoversMatchOracle(Context(70, 0), "70x0");
  expectCoversMatchOracle(Context(4, 5), "4x5 empty relation");
}

TEST(CoversTest, Contranominal) {
  for (size_t N : {1, 2, 5, 8})
    expectCoversMatchOracle(contranominal(N),
                            "contranominal " + std::to_string(N));
  // 4096 concepts: too many for verify, the oracle still applies.
  expectCoversMatchOracle(contranominal(12), "contranominal 12",
                          /*Verify=*/false);
}

TEST(CoversTest, FullRow) {
  // The last object has every attribute, so the bottom concept has a
  // nonempty extent.
  Context Ctx(6, 4);
  const std::vector<std::vector<size_t>> Rows = {{0},    {1},    {2},
                                                 {0, 1}, {1, 2}, {0, 1, 2, 3}};
  for (size_t O = 0; O < Rows.size(); ++O)
    for (size_t A : Rows[O])
      Ctx.relate(O, A);
  expectCoversMatchOracle(Ctx, "full last row");
  Context Wide(3, 70);
  for (size_t A = 0; A < 70; ++A) {
    Wide.relate(0, A);
    if (A % 3 == 0)
      Wide.relate(1, A);
  }
  expectCoversMatchOracle(Wide, "full row, 70 attributes");
}

TEST(CoversTest, WidenedXtFreeSessionContexts) {
  ProtocolModel Model = xtFreeWide();
  for (uint64_t Seed : {1, 2}) {
    RNG Rand(Seed);
    TraceSet Traces;
    WorkloadGenerator Gen(Model, Traces.table());
    std::unordered_set<Trace, TraceHash> Seen;
    for (size_t Draws = 0; Traces.size() < 300 && Draws < 300000; ++Draws) {
      Trace T = Gen.generateScenario(Rand);
      if (Seen.insert(T).second)
        Traces.add(std::move(T));
    }
    Automaton Ref =
        makeProtocolReferenceFA(Traces.traces(), Traces.table(), Model);
    StatusOr<Session> S = Session::build(std::move(Traces), std::move(Ref));
    ASSERT_TRUE(S.isOk());
    const Context &Ctx = S->context();
    SCOPED_TRACE(std::to_string(Ctx.numObjects()) + "x" +
                 std::to_string(Ctx.numAttributes()));
    expectCoversMatchOracle(Ctx, "XtFree-wide seed " + std::to_string(Seed),
                            /*Verify=*/false);
    // The session's own lattice is the complete build's.
    expectSameLattice(ConceptLattice::fromConcepts(allConcepts(Ctx)),
                      S->lattice(), "session lattice");
  }
}

TEST(CoversTest, IncompleteFamiliesAreRefused) {
  // Every concept but the top is a lower cover of another, so dropping any
  // one of them leaves the search a closure it cannot find; a repeated
  // concept makes two nodes claim one intent. Either way no lattice comes
  // back, serial or pooled.
  ThreadPool Pool(4);
  for (uint64_t Seed : {0, 1, 2, 3, 4, 5, 6, 7}) {
    Context Ctx = seededContext(Seed);
    std::vector<Concept> All = allConcepts(Ctx);
    SCOPED_TRACE("seed " + std::to_string(Seed) + ", " +
                 std::to_string(All.size()) + " concepts");
    // allConcepts is lectic, so the top (closure of the empty set) is first.
    for (size_t Drop = 1; Drop < All.size(); ++Drop) {
      std::vector<Concept> Family = All;
      Family.erase(Family.begin() + Drop);
      EXPECT_FALSE(ConceptLattice::fromCompleteConcepts(Ctx, Family).isOk())
          << "dropped " << Drop;
      EXPECT_FALSE(
          ConceptLattice::fromCompleteConcepts(Ctx, Family, &Pool).isOk())
          << "dropped " << Drop;
    }
    std::vector<Concept> Repeated = All;
    Repeated.push_back(All.back());
    EXPECT_FALSE(ConceptLattice::fromCompleteConcepts(Ctx, Repeated).isOk());
  }
}

TEST(CoversTest, EveryCoverComputationEmitsItsSpan) {
  Context Ctx = contranominal(5); // 32 concepts.
  auto Truncated = [&] {
    Budget Capped;
    Capped.MaxConcepts = 3;
    BudgetMeter Meter(Capped);
    return NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter).Lattice;
  };
  using Path = std::pair<const char *, std::function<ConceptLattice()>>;
  const std::vector<Path> Paths = {
      {"NextClosure", [&] { return NextClosureBuilder::buildLattice(Ctx); }},
      {"Godin", [&] { return GodinBuilder::buildLattice(Ctx); }},
      {"Parallel/4", [&] { return ParallelBuilder::buildLattice(Ctx, 4u); }},
      {"truncated", Truncated}};
  TraceLog::setEnabled(true);
  for (const auto &[Name, Build] : Paths) {
    SCOPED_TRACE(Name);
    TraceLog::drainSpans();
    ConceptLattice L = Build();
    std::vector<int64_t> Args;
    for (const TraceLog::RawSpan &S : TraceLog::drainSpans())
      if (S.Name == "lattice-covers")
        Args.push_back(S.Arg);
    EXPECT_EQ(Args, std::vector<int64_t>{static_cast<int64_t>(L.size())});
  }
  TraceLog::setEnabled(false);
}

TEST(CoversTest, ArmedSearchCountsOneSigmaPerGenerator) {
  // The search counts its closures per thread, not per call: every concept
  // (A, B) evaluates one sigma per attribute outside B, serial or pooled.
  Context Ctx = contranominal(8);
  std::vector<Concept> All = allConcepts(Ctx);
  uint64_t Want = 0;
  for (const Concept &C : All)
    Want += Ctx.numAttributes() - C.Intent.count();
  Metrics::Counter &Sigma = Metrics::counter("context.sigma-calls");
  Metrics::setEnabled(true);
  ThreadPool Pool(4);
  for (ThreadPool *P : {static_cast<ThreadPool *>(nullptr), &Pool}) {
    uint64_t Before = Sigma.value();
    ASSERT_TRUE(ConceptLattice::fromCompleteConcepts(Ctx, All, P).isOk());
    EXPECT_EQ(Sigma.value() - Before, Want) << (P ? "pooled" : "serial");
  }
  Metrics::setEnabled(false);
}
