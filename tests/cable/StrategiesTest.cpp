//===- tests/cable/StrategiesTest.cpp --------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "cable/Strategies.h"

#include "../TestHelpers.h"
#include "fa/Templates.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_set>

using namespace cable;
using cable::test::compileFA;
using cable::test::parseTraces;

namespace {

/// A session where traces containing `bad_op` are erroneous — cleanly
/// separable by the unordered lattice.
struct SeparableFixture {
  std::unique_ptr<Session> S;
  ReferenceLabeling Target;

  SeparableFixture() {
    TraceSet Traces = parseTraces("open(v0) close(v0)\n"
                                  "open(v0) read(v0) close(v0)\n"
                                  "open(v0) write(v0) close(v0)\n"
                                  "open(v0) read(v0) write(v0) close(v0)\n"
                                  "open(v0) bad_op(v0) close(v0)\n"
                                  "open(v0) read(v0) bad_op(v0) close(v0)\n");
    Automaton Ref =
        makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
    S = std::make_unique<Session>(std::move(Traces), std::move(Ref));
    std::vector<std::string> Names;
    for (size_t Obj = 0; Obj < S->numObjects(); ++Obj) {
      bool Bad = false;
      for (EventId E : S->object(Obj).events())
        if (S->table().nameText(S->table().event(E).Name) == "bad_op")
          Bad = true;
      Names.push_back(Bad ? "bad" : "good");
    }
    Target = makeReferenceLabeling(*S, Names);
  }
};

void expectMatchesTarget(const Session &S, const ReferenceLabeling &Target) {
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj) {
    ASSERT_TRUE(S.labelOf(Obj).has_value()) << "object " << Obj;
    EXPECT_EQ(*S.labelOf(Obj), Target.Target[Obj]) << "object " << Obj;
  }
}

/// A random session over the unordered FA with a target labeling.
struct RandomFixture {
  std::unique_ptr<Session> S;
  ReferenceLabeling Target;
};

/// Shapes of random sessions. The wide ones have over 64 distinct traces,
/// so labeled-object sets span several words.
enum class Shape {
  Small,        ///< 2-8 traces over {a, b, c}.
  ManyTraces,   ///< 150 traces over {a, b, c}: few concepts, small search.
  ManyConcepts, ///< 150 traces over {a..h}: ~200 concepts, capped search.
};

/// Separable by construction: "bad" traces contain the event `err`.
/// \p RandomLabels replaces that rule with coin flips (usually
/// ill-formed).
RandomFixture makeRandomFixture(uint64_t Seed, Shape Sh = Shape::Small,
                                bool RandomLabels = false) {
  RNG Rand(Seed);
  TraceSet Traces;
  std::vector<std::string> Pool{"a", "b", "c"};
  if (Sh == Shape::ManyConcepts)
    Pool.insert(Pool.end(), {"d", "e", "f", "g", "h"});
  size_t N = Sh == Shape::Small ? 2 + Rand.nextIndex(7) : 150;
  size_t MaxLen = Sh == Shape::Small        ? 3
                  : Sh == Shape::ManyTraces ? 8
                                            : 5;
  for (size_t I = 0; I < N; ++I) {
    Trace T;
    size_t Len = 1 + Rand.nextIndex(MaxLen);
    for (size_t J = 0; J < Len; ++J)
      T.append(Traces.table().internEvent(Pool[Rand.nextIndex(Pool.size())]));
    if (Rand.nextBool(0.4))
      T.append(Traces.table().internEvent("err"));
    Traces.add(std::move(T));
  }
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  RandomFixture F;
  F.S = std::make_unique<Session>(std::move(Traces), std::move(Ref));
  std::vector<std::string> Names;
  for (size_t Obj = 0; Obj < F.S->numObjects(); ++Obj) {
    bool Bad = false;
    for (EventId E : F.S->object(Obj).events())
      if (F.S->table().nameText(F.S->table().event(E).Name) == "err")
        Bad = true;
    if (RandomLabels)
      Bad = Rand.nextBool(0.5);
    Names.push_back(Bad ? "bad" : "good");
  }
  F.Target = makeReferenceLabeling(*F.S, Names);
  return F;
}

/// The Optimal search in its plainest form — every state a heap BitVector
/// in both an unordered_set (visited) and a deque (FIFO) — as the oracle
/// for OptimalStrategy's flat-arena search: same discovery order, same
/// `Seen.size() > StateCap` rule.
StrategyCost referenceOptimal(Session &S, const ReferenceLabeling &Target,
                              size_t StateCap) {
  S.clearLabels();
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();
  size_t N = S.numObjects();
  BitVector Start(N);
  BitVector Goal(N);
  Goal.setAll();
  if (N == 0) {
    Cost.Finished = true;
    return Cost;
  }
  std::unordered_set<BitVector, BitVectorHash> Seen;
  std::deque<std::pair<BitVector, size_t>> Queue;
  Seen.insert(Start);
  Queue.emplace_back(Start, 0);
  while (!Queue.empty()) {
    auto [Labeled, Moves] = Queue.front();
    Queue.pop_front();
    if (Labeled == Goal) {
      Cost.Inspections = Moves;
      Cost.LabelOps = Moves;
      Cost.Finished = true;
      return Cost;
    }
    for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id) {
      BitVector U = L.node(Id).Extent;
      U.andNot(Labeled);
      if (U.none() || !Target.uniform(U))
        continue;
      BitVector NextSet = Labeled;
      NextSet |= U;
      if (Seen.insert(NextSet).second) {
        if (Seen.size() > StateCap)
          return Cost;
        Queue.emplace_back(std::move(NextSet), Moves + 1);
      }
    }
  }
  return Cost;
}

/// Random in its plainest form: rescans the not-fully-labeled concepts
/// before every pick. RandomStrategy rebuilds its list only after a label
/// command and must draw the same picks.
StrategyCost referenceRandom(Session &S, const ReferenceLabeling &Target,
                             RNG Rand) {
  S.clearLabels();
  StrategyCost Cost;
  const ConceptLattice &L = S.lattice();
  size_t SinceLastLabel = 0;
  while (!S.allLabeled()) {
    std::vector<ConceptLattice::NodeId> Candidates;
    for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id)
      if (S.stateOf(Id) != ConceptState::FullyLabeled)
        Candidates.push_back(Id);
    ConceptLattice::NodeId Pick = Candidates[Rand.nextIndex(Candidates.size())];
    ++Cost.Inspections;
    BitVector U = S.selectObjects(Pick, TraceSelect::Unlabeled);
    if (U.any() && Target.uniform(U)) {
      S.labelTraces(Pick, TraceSelect::Unlabeled, Target.sharedLabel(U));
      ++Cost.LabelOps;
      SinceLastLabel = 0;
    } else if (++SinceLastLabel > 4 * L.size() + 64) {
      return Cost;
    }
  }
  Cost.Finished = true;
  return Cost;
}

void expectSameCost(const StrategyCost &Got, const StrategyCost &Want) {
  EXPECT_EQ(Got.Finished, Want.Finished);
  EXPECT_EQ(Got.Inspections, Want.Inspections);
  EXPECT_EQ(Got.LabelOps, Want.LabelOps);
}

/// Runs both Optimal searches at every cap in \p Caps and compares them.
void expectOptimalMatchesReference(Session &S, const ReferenceLabeling &Target,
                                   std::initializer_list<size_t> Caps) {
  for (size_t Cap : Caps) {
    SCOPED_TRACE("state cap " + std::to_string(Cap));
    StrategyCost Want = referenceOptimal(S, Target, Cap);
    StrategyCost Got = OptimalStrategy(Cap).run(S, Target);
    expectSameCost(Got, Want);
    if (Got.Finished)
      expectMatchesTarget(S, Target);
  }
}

/// Runs \p Trials trials of both Random versions from one seeded fork
/// stream and compares them trial by trial.
void expectRandomMatchesReference(Session &S, const ReferenceLabeling &Target,
                                  uint64_t Seed, size_t Trials) {
  RNG Root(Seed);
  for (size_t Trial = 0; Trial < Trials; ++Trial) {
    SCOPED_TRACE("trial " + std::to_string(Trial));
    RNG Rand = Root.fork();
    StrategyCost Want = referenceRandom(S, Target, Rand);
    StrategyCost Got = RandomStrategy(Rand).run(S, Target);
    expectSameCost(Got, Want);
  }
}

} // namespace

TEST(StrategiesTest, TopDownFinishesAndMatchesTarget) {
  SeparableFixture F;
  TopDownStrategy TD;
  StrategyCost Cost = TD.run(*F.S, F.Target);
  EXPECT_TRUE(Cost.Finished);
  EXPECT_GT(Cost.Inspections, 0u);
  EXPECT_GT(Cost.LabelOps, 0u);
  expectMatchesTarget(*F.S, F.Target);
}

TEST(StrategiesTest, BottomUpFinishesAndMatchesTarget) {
  SeparableFixture F;
  BottomUpStrategy BU;
  StrategyCost Cost = BU.run(*F.S, F.Target);
  EXPECT_TRUE(Cost.Finished);
  expectMatchesTarget(*F.S, F.Target);
}

TEST(StrategiesTest, RandomFinishesAndMatchesTarget) {
  SeparableFixture F;
  RandomStrategy R(RNG{17});
  StrategyCost Cost = R.run(*F.S, F.Target);
  EXPECT_TRUE(Cost.Finished);
  expectMatchesTarget(*F.S, F.Target);
}

TEST(StrategiesTest, ExpertFinishesAndMatchesTarget) {
  SeparableFixture F;
  ExpertSimStrategy E;
  StrategyCost Cost = E.run(*F.S, F.Target);
  EXPECT_TRUE(Cost.Finished);
  expectMatchesTarget(*F.S, F.Target);
}

TEST(StrategiesTest, OptimalFinishesAndMatchesTarget) {
  SeparableFixture F;
  OptimalStrategy O;
  StrategyCost Cost = O.run(*F.S, F.Target);
  EXPECT_TRUE(Cost.Finished);
  EXPECT_EQ(Cost.Inspections, Cost.LabelOps)
      << "optimal never inspects without labeling";
  expectMatchesTarget(*F.S, F.Target);
}

TEST(StrategiesTest, BaselineCostsTwoPerClass) {
  SeparableFixture F;
  BaselineMethod B;
  StrategyCost Cost = B.run(*F.S, F.Target);
  EXPECT_TRUE(Cost.Finished);
  EXPECT_EQ(Cost.total(), 2 * F.S->numObjects());
  expectMatchesTarget(*F.S, F.Target);
}

TEST(StrategiesTest, OptimalIsNoWorseThanOtherStrategies) {
  SeparableFixture F;
  OptimalStrategy O;
  size_t OptCost = O.run(*F.S, F.Target).total();
  TopDownStrategy TD;
  EXPECT_LE(OptCost, TD.run(*F.S, F.Target).total());
  BottomUpStrategy BU;
  EXPECT_LE(OptCost, BU.run(*F.S, F.Target).total());
  ExpertSimStrategy E;
  EXPECT_LE(OptCost, E.run(*F.S, F.Target).total());
  RandomStrategy R(RNG{3});
  EXPECT_LE(OptCost, R.run(*F.S, F.Target).total());
}

TEST(StrategiesTest, OptimalLowerBoundTwoMovesHere) {
  // Two labels exist, so at least two label commands (and two
  // inspections) are needed; with a perfect lattice that's also enough.
  SeparableFixture F;
  OptimalStrategy O;
  StrategyCost Cost = O.run(*F.S, F.Target);
  EXPECT_GE(Cost.total(), 4u);
}

TEST(StrategiesTest, IllFormedLatticeReportedUnfinished) {
  // §4.3 parity example: no strategy can finish.
  TraceSet Traces = parseTraces("foo\nfoo foo\nfoo foo foo\n");
  Automaton Ref = compileFA("foo*", Traces.table());
  Session S(std::move(Traces), std::move(Ref));
  std::vector<std::string> Names;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Names.push_back(S.object(Obj).size() % 2 == 0 ? "good" : "bad");
  ReferenceLabeling Target = makeReferenceLabeling(S, Names);

  TopDownStrategy TD;
  EXPECT_FALSE(TD.run(S, Target).Finished);
  BottomUpStrategy BU;
  EXPECT_FALSE(BU.run(S, Target).Finished);
  RandomStrategy R(RNG{5});
  EXPECT_FALSE(R.run(S, Target).Finished);
  ExpertSimStrategy E;
  EXPECT_FALSE(E.run(S, Target).Finished);
  OptimalStrategy O;
  EXPECT_FALSE(O.run(S, Target).Finished);
}

TEST(StrategiesTest, SingleLabelSessionCostsOneVisit) {
  TraceSet Traces = parseTraces("a\nb\na b\n");
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  Session S(std::move(Traces), std::move(Ref));
  ReferenceLabeling Target = makeReferenceLabeling(
      S, std::vector<std::string>(S.numObjects(), "good"));
  OptimalStrategy O;
  StrategyCost Cost = O.run(S, Target);
  EXPECT_TRUE(Cost.Finished);
  EXPECT_EQ(Cost.total(), 2u) << "label everything at the top concept";
  TopDownStrategy TD;
  StrategyCost TDCost = TD.run(S, Target);
  EXPECT_TRUE(TDCost.Finished);
  EXPECT_EQ(TDCost.total(), 2u) << "top-down labels at the top immediately";
}

TEST(StrategiesTest, RandomMeanIsAveraged) {
  SeparableFixture F;
  RandomSummary Summary = measureRandomMean(*F.S, F.Target, 32, 99);
  EXPECT_TRUE(Summary.Finished);
  // The mean sits between the optimal cost and a generous upper bound.
  OptimalStrategy O;
  double Opt = static_cast<double>(O.run(*F.S, F.Target).total());
  EXPECT_GE(Summary.MeanTotal, Opt);
  EXPECT_LE(Summary.MeanTotal,
            static_cast<double>(8 * F.S->lattice().size()));
}

TEST(StrategiesTest, MeasureRandomMeanIsDeterministicPerSeed) {
  SeparableFixture F;
  RandomSummary A = measureRandomMean(*F.S, F.Target, 16, 7);
  RandomSummary B = measureRandomMean(*F.S, F.Target, 16, 7);
  EXPECT_EQ(A.MeanTotal, B.MeanTotal);
}

TEST(StrategiesTest, OptimalStateCapReportsUnfinished) {
  SeparableFixture F;
  OptimalStrategy Tiny(/*StateCap=*/1);
  StrategyCost Cost = Tiny.run(*F.S, F.Target);
  EXPECT_FALSE(Cost.Finished)
      << "a 1-state cap must abort like the paper's tool on large specs";
}

TEST(StrategiesTest, HandLabelFallbackMatchesTopDownWhenWellFormed) {
  SeparableFixture F;
  HandLabelFallbackStrategy HL;
  StrategyCost HLCost = HL.run(*F.S, F.Target);
  ASSERT_TRUE(HLCost.Finished);
  expectMatchesTarget(*F.S, F.Target);
  TopDownStrategy TD;
  StrategyCost TDCost = TD.run(*F.S, F.Target);
  ASSERT_TRUE(TDCost.Finished);
  EXPECT_EQ(HLCost.total(), TDCost.total());
}

TEST(StrategiesTest, HandLabelFallbackFinishesIllFormedLattices) {
  TraceSet Traces = parseTraces("foo\nfoo foo\nfoo foo foo\n");
  Automaton Ref = compileFA("foo*", Traces.table());
  Session S(std::move(Traces), std::move(Ref));
  std::vector<std::string> Names;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Names.push_back(S.object(Obj).size() % 2 == 0 ? "good" : "bad");
  ReferenceLabeling Target = makeReferenceLabeling(S, Names);

  TopDownStrategy TD;
  StrategyCost Stalled = TD.run(S, Target);
  ASSERT_FALSE(Stalled.Finished);
  size_t LeftOver = S.unlabeledObjects().count();

  HandLabelFallbackStrategy HL;
  StrategyCost Cost = HL.run(S, Target);
  ASSERT_TRUE(Cost.Finished);
  EXPECT_EQ(Cost.total(), Stalled.total() + 2 * LeftOver);
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    EXPECT_EQ(*S.labelOf(Obj), Target.Target[Obj]);
}

TEST(StrategiesTest, RandomizedTopDownStillFinishes) {
  SeparableFixture F;
  for (uint64_t Seed : {1u, 2u, 3u}) {
    TopDownStrategy TD{RNG(Seed)};
    StrategyCost Cost = TD.run(*F.S, F.Target);
    EXPECT_TRUE(Cost.Finished);
    expectMatchesTarget(*F.S, F.Target);
  }
}

TEST(StrategiesTest, RandomizedBottomUpStillFinishes) {
  SeparableFixture F;
  for (uint64_t Seed : {1u, 2u, 3u}) {
    BottomUpStrategy BU{RNG(Seed)};
    StrategyCost Cost = BU.run(*F.S, F.Target);
    EXPECT_TRUE(Cost.Finished);
    expectMatchesTarget(*F.S, F.Target);
  }
}

TEST(StrategiesTest, MeasureLowestCostTakesTheMinimum) {
  SeparableFixture F;
  LowestSummary Low = measureLowestCost(
      *F.S, F.Target, 32, 5, [](RNG Rand) -> std::unique_ptr<Strategy> {
        return std::make_unique<TopDownStrategy>(Rand);
      });
  ASSERT_TRUE(Low.Finished);
  // Bounded below by Optimal.
  OptimalStrategy O;
  StrategyCost Opt = O.run(*F.S, F.Target);
  ASSERT_TRUE(Opt.Finished);
  EXPECT_GE(Low.LowestTotal, Opt.total());
  // And it really is the minimum of the trials: replaying the same seeded
  // fork stream by hand gives the same number.
  RNG Root(5);
  size_t Expected = static_cast<size_t>(-1);
  for (int Trial = 0; Trial < 32; ++Trial) {
    TopDownStrategy TD{Root.fork()};
    StrategyCost Cost = TD.run(*F.S, F.Target);
    ASSERT_TRUE(Cost.Finished);
    Expected = std::min(Expected, Cost.total());
  }
  EXPECT_EQ(Low.LowestTotal, Expected);
}

TEST(StrategiesTest, MeasureLowestCostUnfinishedOnIllFormed) {
  TraceSet Traces = parseTraces("foo\nfoo foo\nfoo foo foo\n");
  Automaton Ref = compileFA("foo*", Traces.table());
  Session S(std::move(Traces), std::move(Ref));
  std::vector<std::string> Names;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Names.push_back(S.object(Obj).size() % 2 == 0 ? "good" : "bad");
  ReferenceLabeling Target = makeReferenceLabeling(S, Names);
  LowestSummary Low = measureLowestCost(
      S, Target, 4, 5, [](RNG Rand) -> std::unique_ptr<Strategy> {
        return std::make_unique<BottomUpStrategy>(Rand);
      });
  EXPECT_FALSE(Low.Finished);
}

/// Property: on random separable sessions every strategy agrees with the
/// target labeling and optimal is minimal.
class StrategyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyPropertyTest, AllStrategiesAgreeOnSeparableSessions) {
  RandomFixture F = makeRandomFixture(GetParam());
  Session &S = *F.S;
  const ReferenceLabeling &Target = F.Target;
  ASSERT_TRUE(checkWellFormed(S, Target).LatticeWellFormed);

  OptimalStrategy O;
  StrategyCost Opt = O.run(S, Target);
  ASSERT_TRUE(Opt.Finished);

  std::vector<std::unique_ptr<Strategy>> Others;
  Others.push_back(std::make_unique<TopDownStrategy>());
  Others.push_back(std::make_unique<BottomUpStrategy>());
  Others.push_back(std::make_unique<ExpertSimStrategy>());
  Others.push_back(std::make_unique<RandomStrategy>(RNG{GetParam() * 31}));
  Others.push_back(std::make_unique<BaselineMethod>());
  for (auto &Strat : Others) {
    StrategyCost Cost = Strat->run(S, Target);
    EXPECT_TRUE(Cost.Finished) << Strat->name();
    EXPECT_LE(Opt.total(), Cost.total())
        << Strat->name() << " beat Optimal, which is impossible";
    for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
      EXPECT_EQ(*S.labelOf(Obj), Target.Target[Obj]) << Strat->name();
  }
}

TEST_P(StrategyPropertyTest, OptimalMatchesReferenceSearchAtEveryCap) {
  RandomFixture F = makeRandomFixture(GetParam());
  expectOptimalMatchesReference(*F.S, F.Target,
                                {1, 10, 100, 1000, 2'000'000});
}

TEST_P(StrategyPropertyTest, RandomMatchesRescanningReference) {
  RandomFixture F = makeRandomFixture(GetParam());
  expectRandomMatchesReference(*F.S, F.Target, GetParam() * 31 + 1, 16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

TEST(StrategiesTest, OptimalMatchesReferenceOnMultiWordStates) {
  bool SawFinished = false;
  for (Shape Sh : {Shape::ManyTraces, Shape::ManyConcepts}) {
    for (uint64_t Seed : {1u, 2u}) {
      for (bool RandomLabels : {false, true}) {
        SCOPED_TRACE("shape " + std::to_string(static_cast<int>(Sh)) +
                     ", seed " + std::to_string(Seed) +
                     (RandomLabels ? ", random labels" : ", err labels"));
        RandomFixture F = makeRandomFixture(Seed, Sh, RandomLabels);
        ASSERT_GT(F.S->numObjects(), 64u) << "states must span several words";
        expectOptimalMatchesReference(*F.S, F.Target,
                                      {1, 10, 100, 1000, 5000});
        SawFinished |= OptimalStrategy(5000).run(*F.S, F.Target).Finished;
      }
    }
  }
  EXPECT_TRUE(SawFinished) << "no wide search reached its goal";
}

TEST(StrategiesTest, RandomMatchesRescanningReferenceOnWideSessions) {
  for (Shape Sh : {Shape::ManyTraces, Shape::ManyConcepts}) {
    for (uint64_t Seed : {1u, 2u, 3u}) {
      for (bool RandomLabels : {false, true}) {
        SCOPED_TRACE("shape " + std::to_string(static_cast<int>(Sh)) +
                     ", seed " + std::to_string(Seed) +
                     (RandomLabels ? ", random labels" : ", err labels"));
        RandomFixture F = makeRandomFixture(Seed, Sh, RandomLabels);
        expectRandomMatchesReference(*F.S, F.Target, Seed, 8);
      }
    }
  }
}

TEST(StrategiesTest, RandomAndOptimalMatchReferencesOnIllFormedLattice) {
  TraceSet Traces = parseTraces("foo\nfoo foo\nfoo foo foo\n");
  Automaton Ref = compileFA("foo*", Traces.table());
  Session S(std::move(Traces), std::move(Ref));
  std::vector<std::string> Names;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Names.push_back(S.object(Obj).size() % 2 == 0 ? "good" : "bad");
  ReferenceLabeling Target = makeReferenceLabeling(S, Names);
  expectRandomMatchesReference(S, Target, 11, 4);
  expectOptimalMatchesReference(S, Target, {1, 10, 100, 1000, 2'000'000});
}
