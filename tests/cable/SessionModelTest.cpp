//===- tests/cable/SessionModelTest.cpp ------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Model-based testing of the Session's labeling state machine: a random
// sequence of label / setLabel / undo / mergeBack / loadLabels /
// loadSnapshot / clearLabels operations is applied both to the Session and
// to a trivial reference model (a map from object to label plus an
// explicit history). After every step the two must agree, and the derived
// views (concept states, selections in every mode, label populations) must
// match recomputation from the model — so a labeled-object set that falls
// out of step with the labels on any write path fails here.
//
//===----------------------------------------------------------------------===//

#include "cable/Session.h"

#include "../TestHelpers.h"
#include "fa/Templates.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>

using namespace cable;

namespace {

/// The reference model: labels plus an undo history of full snapshots.
struct Model {
  std::vector<std::optional<LabelId>> Labels;
  std::vector<std::vector<std::optional<LabelId>>> History;

  explicit Model(size_t N) : Labels(N) {}

  void snapshot() { History.push_back(Labels); }
  bool undo() {
    if (History.empty())
      return false;
    Labels = History.back();
    History.pop_back();
    return true;
  }
};

Session makeRandomSession(RNG &Rand) {
  TraceSet Traces;
  std::vector<std::string> Pool{"a", "b", "c", "d"};
  size_t N = 3 + Rand.nextIndex(8);
  for (size_t I = 0; I < N; ++I) {
    Trace T;
    size_t Len = 1 + Rand.nextIndex(4);
    for (size_t J = 0; J < Len; ++J)
      T.append(Traces.table().internEvent(Pool[Rand.nextIndex(Pool.size())]));
    Traces.add(std::move(T));
  }
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  return Session(std::move(Traces), std::move(Ref));
}

void expectAgreement(const Session &S, const Model &M) {
  ASSERT_EQ(M.Labels.size(), S.numObjects());
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    EXPECT_EQ(S.labelOf(Obj), M.Labels[Obj]) << "object " << Obj;

  // Global views.
  size_t Unlabeled = 0;
  for (const auto &L : M.Labels)
    Unlabeled += !L.has_value();
  EXPECT_EQ(S.unlabeledObjects().count(), Unlabeled);
  EXPECT_EQ(S.allLabeled(), Unlabeled == 0);
  EXPECT_EQ(S.undoDepth(), M.History.size());
  for (LabelId L = 0; L < S.numLabels(); ++L) {
    size_t With = 0;
    for (const auto &Label : M.Labels)
      With += Label == std::optional<LabelId>(L);
    EXPECT_EQ(S.objectsWithLabel(L).count(), With) << "label " << L;
  }

  // Concept states recomputed from the model.
  for (ConceptLattice::NodeId Id = 0; Id < S.lattice().size(); ++Id) {
    bool AnyLabeled = false, AnyUnlabeled = false;
    for (size_t Obj : S.lattice().node(Id).Extent) {
      (M.Labels[Obj] ? AnyLabeled : AnyUnlabeled) = true;
    }
    ConceptState Expected =
        AnyLabeled && AnyUnlabeled
            ? ConceptState::PartlyLabeled
            : (AnyUnlabeled ? ConceptState::Unlabeled
                            : ConceptState::FullyLabeled);
    EXPECT_EQ(S.stateOf(Id), Expected) << "concept " << Id;

    // Selections in all three modes, recomputed from the model.
    const BitVector &Extent = S.lattice().node(Id).Extent;
    EXPECT_EQ(S.selectObjects(Id, TraceSelect::All), Extent)
        << "concept " << Id;
    BitVector Unlabeled(S.numObjects());
    for (size_t Obj : Extent)
      if (!M.Labels[Obj])
        Unlabeled.set(Obj);
    EXPECT_EQ(S.selectObjects(Id, TraceSelect::Unlabeled), Unlabeled)
        << "concept " << Id;
    for (LabelId L = 0; L < S.numLabels(); ++L) {
      BitVector With(S.numObjects());
      for (size_t Obj : Extent)
        if (M.Labels[Obj] == std::optional<LabelId>(L))
          With.set(Obj);
      EXPECT_EQ(S.selectObjects(Id, TraceSelect::WithLabel, L), With)
          << "concept " << Id << ", label " << L;
    }
  }
}

} // namespace

class SessionModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SessionModelTest, RandomOperationSequencesAgreeWithModel) {
  RNG Rand(GetParam() * 9176 + 3);
  Session S = makeRandomSession(Rand);
  Model M(S.numObjects());

  LabelId Good = S.internLabel("good");
  LabelId Bad = S.internLabel("bad");
  std::vector<LabelId> AllLabels{Good, Bad};

  // A saved snapshot and the model state it was taken in.
  std::optional<std::pair<std::string, Model>> Saved;

  for (int Step = 0; Step < 100; ++Step) {
    switch (Rand.nextBounded(8)) {
    case 0: { // labelTraces with a random selection mode.
      auto Id = static_cast<ConceptLattice::NodeId>(
          Rand.nextIndex(S.lattice().size()));
      LabelId L = AllLabels[Rand.nextIndex(AllLabels.size())];
      size_t Mode = Rand.nextBounded(3);
      TraceSelect Select = Mode == 0   ? TraceSelect::All
                           : Mode == 1 ? TraceSelect::Unlabeled
                                       : TraceSelect::WithLabel;
      std::optional<LabelId> From;
      if (Select == TraceSelect::WithLabel)
        From = AllLabels[Rand.nextIndex(AllLabels.size())];

      M.snapshot();
      size_t Changed = S.labelTraces(Id, Select, L, From);
      size_t ModelChanged = 0;
      for (size_t Obj : S.lattice().node(Id).Extent) {
        bool Selected =
            Select == TraceSelect::All ||
            (Select == TraceSelect::Unlabeled && !M.Labels[Obj]) ||
            (Select == TraceSelect::WithLabel && M.Labels[Obj] == From);
        if (Selected && M.Labels[Obj] != std::optional<LabelId>(L)) {
          M.Labels[Obj] = L;
          ++ModelChanged;
        }
      }
      EXPECT_EQ(Changed, ModelChanged);
      break;
    }
    case 1: { // setLabel.
      size_t Obj = Rand.nextIndex(S.numObjects());
      LabelId L = AllLabels[Rand.nextIndex(AllLabels.size())];
      M.snapshot();
      S.setLabel(Obj, L);
      M.Labels[Obj] = L;
      break;
    }
    case 2: { // undo.
      bool Expected = M.undo();
      EXPECT_EQ(S.undo(), Expected);
      break;
    }
    case 3: { // focus + label inside + mergeBack.
      auto Id = static_cast<ConceptLattice::NodeId>(
          Rand.nextIndex(S.lattice().size()));
      if (S.lattice().node(Id).Extent.none())
        break;
      FocusSession F = S.focus(
          Id, makeUnorderedFA(templateAlphabet(S.allTraces().traces()),
                              S.table()));
      // Label a random sub-object with a random label.
      size_t SubObj = Rand.nextIndex(F.Sub.numObjects());
      LabelId L = F.Sub.internLabel(Rand.nextBool(0.5) ? "good" : "bad");
      F.Sub.setLabel(SubObj, L);
      M.snapshot();
      S.mergeBack(F);
      M.Labels[F.ParentObjects[SubObj]] =
          S.internLabel(F.Sub.labelName(L));
      break;
    }
    case 4: { // Serialization round trip must be faithful mid-stream.
      std::string Saved = S.serializeLabels();
      size_t Lines = 0;
      for (char C : Saved)
        Lines += C == '\n';
      size_t LabeledCount = 0;
      for (const auto &L : M.Labels)
        LabeledCount += L.has_value();
      EXPECT_EQ(Lines, LabeledCount);
      break;
    }
    case 5: { // loadLabels: may name a trace twice (last line wins) and
              // may end in a malformed line that rolls everything back.
      std::string Text;
      std::vector<std::pair<size_t, std::string>> Lines;
      size_t NumLines = 1 + Rand.nextIndex(6);
      for (size_t I = 0; I < NumLines; ++I) {
        size_t Obj = Rand.nextIndex(S.numObjects());
        if (!Lines.empty() && Rand.nextBool(0.4))
          Obj = Lines[Rand.nextIndex(Lines.size())].first;
        const char *Name = Rand.nextBool(0.5)   ? "good"
                           : Rand.nextBool(0.5) ? "bad"
                                                : "ugly";
        Lines.emplace_back(Obj, Name);
        Text += std::string(Name) + " " + S.object(Obj).render(S.table()) +
                "\n";
      }
      Text += "good unknown_event\n"; // Counted as unmatched.
      bool Malformed = Rand.nextBool(0.3);
      if (Malformed)
        Text += "justonetoken\n";
      std::string Err;
      size_t Unmatched = 0;
      bool Ok = S.loadLabels(Text, Err, &Unmatched);
      EXPECT_EQ(Ok, !Malformed) << Err;
      if (!Ok)
        break; // The session must be unchanged: the model is.
      EXPECT_EQ(Unmatched, 1u);
      M.snapshot();
      for (const auto &[Obj, Name] : Lines)
        M.Labels[Obj] = S.internLabel(Name);
      break;
    }
    case 6: { // Snapshot round trip: save now, or restore an earlier save.
      if (!Saved || Rand.nextBool(0.5)) {
        Saved.emplace(S.serializeSnapshot(), M);
        break;
      }
      ASSERT_TRUE(S.loadSnapshot(Saved->first).isOk());
      M = Saved->second;
      EXPECT_EQ(S.serializeSnapshot(), Saved->first);
      break;
    }
    case 7: { // clearLabels drops labels and history.
      if (!Rand.nextBool(0.3))
        break;
      S.clearLabels();
      M = Model(S.numObjects());
      break;
    }
    }
    expectAgreement(S, M);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionModelTest,
                         ::testing::Range<uint64_t>(0, 20));
