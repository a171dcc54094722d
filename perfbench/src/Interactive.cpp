//===- perfbench/src/Interactive.cpp - One scripted Cable user ------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// `interactive`: one user labels a session of a few thousand concepts
// (widened-XtFree scenarios against the protocol's reference FA), one
// command at a time. One operation is one session: labeling it from
// scratch and the Step 3 re-learn, timed as the user's wait on its
// commands. Each command's latency is reported too (command_ms.*).
//
// Where the user goes and what the user labels is ExpertSimStrategy, the
// repository's model of the §5.3 expert: a depth-first descent from the top
// concept that labels a concept when its unlabeled traces agree (and then
// inspects up to two children when more than four traces were labeled en
// masse), and otherwise visits the children, label-pure ones first, before
// sweeping the concept's remainder. Reading a concept's colour is stateOf
// and reading its unlabeled traces is selectObjects; an inspection is the
// concept's two textual views, Show transitions (its intent, the
// transitions the expert steers by) and Show traces; a label is labelTraces
// on the unlabeled traces. Traces the descent leaves are labeled by hand
// (setLabel, §4.3). Before timing, a pass with the extras below turned off
// must issue exactly ExpertSimStrategy's inspections and labels on every
// session. Once everything is labeled, Step 3 re-learns the `good` traces
// with sk-strings; then the labels are cleared and the user labels the
// session again, making the same choices.
//
// The extras are assumptions: no recorded Cable session exists to measure
// them from, and the model above does not call these commands. Each is
// placed where the paper's workflow puts the call, at a rate chosen so that
// it occurs in every round while the expert's reads and labels stay most of
// the commands; the report prints the share of every command type, so the
// resulting mix is shown, not asserted.
//  - Show FA (sk-strings) before every label of at most kShowFAMax traces:
//    the learner on a large selection takes up to seconds, which a user
//    would not wait for on every decision.
//  - The Advisor on every mixed concept the descent visits: the concepts
//    the user cannot label en masse are the ones it helps with. With
//    probability kFocusRate the user then opens a Focus sub-session on its
//    first seed, labels inside it (same model, no further focusing) and
//    merges back.
//  - With probability kUndoRate a label is undone and repeated, which also
//    checks that undo restores the prior labeling exactly.
//  - After every write the lattice view is recoloured (`ls`: stateOf over
//    every concept), and the finished session is saved as coloured DOT.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "cable/Advisor.h"
#include "cable/Session.h"
#include "cable/Strategies.h"
#include "support/TraceEvent.h"
#include "workload/Oracle.h"
#include "workload/ReferenceFA.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

using namespace cable;
using namespace perfbench;

namespace {

/// Trace classes per session (about 3,000 concepts).
constexpr size_t kClasses = 200;
/// Sessions per run. The Step 3 re-learn dominates a session's wait time
/// and varies with the traces; a round labels every session once, so its
/// time varies far less with the seed than one session's does.
constexpr size_t kSessions = 24;

// Assumed extras (see the file comment).
constexpr size_t kShowFAMax = 48;
constexpr double kFocusRate = 0.25;
constexpr double kUndoRate = 0.2;

/// Commands that read or change the labeling.
const char *const kLabelingState[] = {
    "cable.state",     "cable.select",     "cable.label",     "cable.undo",
    "cable.set_label", "cable.state_scan", "cable.merge_back"};

/// Commands issued, by span name.
using CommandCounts = std::map<std::string, uint64_t>;

using Labels = std::vector<std::optional<LabelId>>;

Labels snapshot(const Session &S) {
  Labels Out(S.numObjects());
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Out[Obj] = S.labelOf(Obj);
  return Out;
}

class User {
public:
  /// \p Extras turns the assumed commands on; without them the user is
  /// ExpertSimStrategy issuing commands.
  User(RNG Rand, bool Extras, Outcome &Out, std::vector<double> &Latency,
       CommandCounts &Counts, LayerProfile &Prof)
      : Rand(Rand), Extras(Extras), Out(Out), Latency(Latency),
        Counts(Counts), Prof(Prof) {}

  /// Labels \p S completely per \p T; \p Nested marks a Focus sub-session
  /// (no further focusing inside it).
  void labelAll(Session &S, const ReferenceLabeling &T, bool Nested);

  /// Step 3: re-learn the `good` traces and check the final labeling.
  void finish(Session &S, const ReferenceLabeling &T);

  /// The expert's operations issued so far, in the paper's cost model.
  size_t inspections() const { return Inspections; }
  size_t labels() const { return LabelOps; }

private:
  RNG Rand;
  bool Extras;
  Outcome &Out;
  std::vector<double> &Latency;
  CommandCounts &Counts;
  LayerProfile &Prof;
  size_t Inspections = 0, LabelOps = 0;

  /// Times one command under a span named \p Span.
  template <typename Fn> auto command(const char *Span, Fn &&F) {
    ++Counts[Span];
    Clock::time_point T0 = Clock::now();
    auto R = [&] {
      TraceSpan S(Span);
      return F();
    }();
    Latency.push_back(msSince(T0));
    return R;
  }

  BitVector unlabeled(const Session &S, Session::NodeId C) {
    return command("cable.select",
                   [&] { return S.selectObjects(C, TraceSelect::Unlabeled); });
  }
  void inspect(const Session &S, Session::NodeId C) {
    ++Inspections;
    command("cable.show_transitions",
            [&] { return S.showTransitions(C).size(); });
    command("cable.show_traces", [&] {
      return S.showTraces(C, TraceSelect::Unlabeled).size();
    });
  }
  void visit(Session &S, const ReferenceLabeling &T, Session::NodeId C,
             std::vector<char> &Visited, bool Nested);
  void decide(Session &S, Session::NodeId C, const BitVector &Sel, LabelId L);
  void showFA(const Session &S, Session::NodeId C, TraceSelect Select,
              std::optional<LabelId> From, const char *Span);
  void focus(Session &S, const ReferenceLabeling &T, Session::NodeId C);
  void recolour(const Session &S);
};

void User::showFA(const Session &S, Session::NodeId C, TraceSelect Select,
                  std::optional<LabelId> From, const char *Span) {
  Automaton FA = command(Span, [&] { return S.showFA(C, Select, From); });
  Prof.quantity(std::string(Span) + "_states",
                static_cast<double>(FA.numStates()));
  bool AcceptsAll = true;
  for (size_t Obj : S.selectObjects(C, Select, From))
    AcceptsAll = AcceptsAll && FA.accepts(S.object(Obj), S.table());
  Out.check(AcceptsAll, "Show FA rejects a trace it summarised");
}

/// Labels the unlabeled traces \p Sel of \p C with \p L, with the assumed
/// Show FA before and undo after.
void User::decide(Session &S, Session::NodeId C, const BitVector &Sel,
                  LabelId L) {
  if (Extras && Sel.count() <= kShowFAMax)
    showFA(S, C, TraceSelect::Unlabeled, std::nullopt, "learner.show_fa");
  ++LabelOps;
  Labels Before = Extras && Rand.nextBool(kUndoRate) ? snapshot(S) : Labels();
  command("cable.label",
          [&] { return S.labelTraces(C, TraceSelect::Unlabeled, L); });
  recolour(S);
  if (Before.empty())
    return;
  Labels After = snapshot(S);
  command("cable.undo", [&] { return S.undo(); });
  recolour(S);
  Out.check(snapshot(S) == Before, "undo did not restore the prior labeling");
  command("cable.label",
          [&] { return S.labelTraces(C, TraceSelect::Unlabeled, L); });
  recolour(S);
  Out.check(snapshot(S) == After, "redo after undo labeled differently");
}

void User::focus(Session &S, const ReferenceLabeling &T, Session::NodeId C) {
  std::vector<SeedSuggestion> Seeds =
      command("cable.advisor", [&] { return suggestFocusSeeds(S, C); });
  if (Seeds.empty() || !Rand.nextBool(kFocusRate))
    return;
  FocusSession F = command("cable.focus", [&] {
    return S.focus(C, buildSuggestedFocusFA(S, C, Seeds.front().Seed));
  });
  ReferenceLabeling SubT;
  for (size_t Parent : F.ParentObjects)
    SubT.Target.push_back(F.Sub.internLabel(S.labelName(T.Target[Parent])));
  labelAll(F.Sub, SubT, /*Nested=*/true);
  command("cable.merge_back", [&] {
    S.mergeBack(F);
    return 0;
  });
  recolour(S);
  bool Merged = true;
  for (size_t Parent : F.ParentObjects)
    Merged = Merged && S.labelOf(Parent) == T.Target[Parent];
  Out.check(Merged, "mergeBack left a focus trace with the wrong label");
}

void User::recolour(const Session &S) {
  if (!Extras)
    return;
  command("cable.state_scan", [&] {
    size_t Red = 0;
    for (Session::NodeId Id = 0; Id < S.lattice().size(); ++Id)
      Red += S.stateOf(Id) == ConceptState::FullyLabeled;
    return Red;
  });
}

/// ExpertSimStrategy's Visit (cable/Strategies.cpp), issuing a command for
/// every read and write it makes, plus the assumed extras.
void User::visit(Session &S, const ReferenceLabeling &T, Session::NodeId C,
                 std::vector<char> &Visited, bool Nested) {
  if (Visited[C] || command("cable.state", [&] { return S.stateOf(C); }) ==
                        ConceptState::FullyLabeled)
    return;
  Visited[C] = 1;
  const ConceptLattice &L = S.lattice();
  BitVector Sel = unlabeled(S, C);
  inspect(S, C);
  if (Sel.any() && T.uniform(Sel)) {
    decide(S, C, Sel, T.sharedLabel(Sel));
    // The expert's confidence inspections after a large en-masse label.
    if (Sel.count() > 4) {
      size_t Checked = 0;
      for (Session::NodeId Child : L.children(C)) {
        if (Checked == 2)
          break;
        if (L.node(Child).Extent.any()) {
          inspect(S, Child);
          ++Checked;
        }
      }
    }
    return;
  }

  if (Extras && !Nested) {
    focus(S, T, C);
    if (command("cable.state", [&] { return S.stateOf(C); }) ==
        ConceptState::FullyLabeled)
      return;
  }

  // Label-pure children first, bigger unlabeled sets first within each.
  std::vector<std::pair<Session::NodeId, std::pair<int, size_t>>> Ranked;
  for (Session::NodeId Child : L.children(C)) {
    BitVector U = unlabeled(S, Child);
    if (U.any())
      Ranked.push_back({Child, {T.uniform(U) ? 0 : 1, U.count()}});
  }
  std::sort(Ranked.begin(), Ranked.end(), [](const auto &A, const auto &B) {
    if (A.second.first != B.second.first)
      return A.second.first < B.second.first;
    if (A.second.second != B.second.second)
      return A.second.second > B.second.second;
    return A.first < B.first;
  });
  for (const auto &[Child, Rank] : Ranked) {
    BitVector U = unlabeled(S, C);
    if (U.none() || T.uniform(U))
      break;
    visit(S, T, Child, Visited, Nested);
  }

  // Revisit and sweep the remainder.
  BitVector U = unlabeled(S, C);
  if (U.any()) {
    inspect(S, C);
    if (T.uniform(U))
      decide(S, C, U, T.sharedLabel(U));
  }
}

void User::labelAll(Session &S, const ReferenceLabeling &T, bool Nested) {
  std::vector<char> Visited(S.lattice().size(), 0);
  visit(S, T, S.lattice().top(), Visited, Nested);
  // §4.3: traces no concept separates are labeled by hand.
  BitVector Left = S.unlabeledObjects();
  for (size_t Obj : Left)
    command("cable.set_label", [&] {
      S.setLabel(Obj, T.Target[Obj]);
      return 0;
    });
  if (Left.any())
    recolour(S);
}

void User::finish(Session &S, const ReferenceLabeling &T) {
  if (Extras)
    command("cable.render_dot", [&] { return S.renderDot("session").size(); });
  std::optional<LabelId> Good;
  for (LabelId L = 0; L < S.numLabels(); ++L)
    if (S.labelName(L) == "good")
      Good = L;
  if (Good)
    showFA(S, S.lattice().top(), TraceSelect::WithLabel, Good,
           "learner.relearn");
  bool Exact = true;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Exact = Exact && S.labelOf(Obj) == T.Target[Obj];
  Out.check(Exact, "final labeling differs from the target");
}

struct Setup {
  std::unique_ptr<Session> S;
  ReferenceLabeling Target;
};

Setup setUp(uint64_t Seed, const Settings &Set, Outcome &Out) {
  Setup Su;
  ProtocolModel M = xtFreeWideModel();
  RNG Rand(Seed);
  TraceSet Traces;
  {
    TraceSpan Span("workload.generate");
    Traces = distinctScenarios(M, kClasses, Rand);
  }
  if (!Out.check(Traces.size() == kClasses,
                 "generator ran out of distinct scenarios"))
    return Su;
  Automaton Ref;
  {
    TraceSpan Span("workload.reference_fa");
    Ref = makeProtocolReferenceFA(Traces.traces(), Traces.table(), M);
  }
  {
    TraceSpan Span("cable.session_build");
    SessionOptions Opts;
    Opts.NumThreads = Set.Threads;
    StatusOr<Session> Built =
        Session::build(std::move(Traces), std::move(Ref), Opts);
    if (!Out.check(Built.isOk() && !Built->truncated(),
                   "Session::build failed"))
      return Su;
    Su.S = std::make_unique<Session>(std::move(*Built));
  }
  {
    TraceSpan Span("workload.oracle");
    Oracle Truth(M, Su.S->table());
    Su.Target = Truth.referenceLabeling(*Su.S);
  }
  return Su;
}

} // namespace

void perfbench::runInteractive(const Settings &Set, Outcome &Out) {
  LayerProfile Prof;
  auto SetUpAll = [&] {
    std::vector<Setup> Sessions;
    for (size_t K = 0; K < kSessions; ++K)
      Sessions.push_back(setUp(deriveSeed(0x17E7 + K, Set.Seed), Set, Out));
    return Sessions;
  };
  std::vector<Setup> Sessions = initialSetup(Set, Out, Prof, SetUpAll);
  for (const Setup &Su : Sessions) {
    if (!Su.S)
      return;
    std::printf("counter interactive classes=%zu concepts=%zu edges=%zu\n",
                Su.S->numObjects(), Su.S->lattice().size(),
                Su.S->lattice().numEdges());
  }

  // The user model check: with the extras off, the user issues exactly
  // ExpertSimStrategy's inspections and labels on every session.
  std::vector<double> Discard;
  CommandCounts Counts;
  for (Setup &Su : Sessions) {
    StrategyCost Expert = ExpertSimStrategy().run(*Su.S, Su.Target);
    Su.S->clearLabels();
    User U(RNG(0), /*Extras=*/false, Out, Discard, Counts, Prof);
    U.labelAll(*Su.S, Su.Target, /*Nested=*/false);
    Out.check(U.inspections() == Expert.Inspections &&
                  U.labels() == Expert.LabelOps,
              "the user's inspections and labels differ from "
              "ExpertSimStrategy's");
  }

  // A user works in one session at a time. Each session in turn is
  // labeled once untimed (warm-up), then again and again for its share of
  // the run, at least twice. The user draws the same choices every time,
  // so the samples of one session differ only by the host. An operation is
  // one labeling: the user's wait on its commands, from the first read to
  // the Step 3 re-learn; the commands' own latencies go to \p Latency.
  auto Label = [&](size_t K, bool Traced, std::vector<double> &Latency,
                   CommandCounts &Issued) {
    size_t Before = Latency.size();
    TraceLog::setEnabled(Traced);
    Session &S = *Sessions[K].S;
    S.clearLabels();
    User U(RNG(deriveSeed(0xE000 + K, Set.Seed)), /*Extras=*/true, Out,
           Latency, Issued, Prof);
    U.labelAll(S, Sessions[K].Target, /*Nested=*/false);
    U.finish(S, Sessions[K].Target);
    TraceLog::setEnabled(false);
    Prof.collect();
    double Ms = 0;
    for (size_t I = Before; I < Latency.size(); ++I)
      Ms += Latency[I];
    return Ms;
  };

  std::vector<double> CommandMs, TracedMs, PairedUntracedMs;
  CommandCounts WarmCounts, TracedCounts;
  Counts.clear();
  double SliceMs = Set.Seconds * 1e3 / static_cast<double>(Sessions.size());
  for (size_t K = 0; K < Sessions.size(); ++K) {
    Clock::time_point Start = Clock::now();
    Label(K, false, Discard, WarmCounts);
    Discard.clear();
    for (size_t N = 0; N < 2 || msSince(Start) < SliceMs; ++N) {
      // In the traced run the same labeling runs again, traced, for the
      // overhead comparison; which of the two runs first alternates.
      bool TracedFirst = Set.Trace && N % 2 == 1;
      if (TracedFirst)
        TracedMs.push_back(Label(K, true, Discard, TracedCounts));
      double Ms = Label(K, false, CommandMs, Counts);
      Out.OpMs.push_back(Ms);
      Out.part(K, Ms);
      if (Set.Trace && !TracedFirst)
        TracedMs.push_back(Label(K, true, Discard, TracedCounts));
      if (Set.Trace)
        PairedUntracedMs.push_back(Ms);
      Discard.clear();
    }
  }
  for (int I = 0; I < 2; ++I)
    timedSetup(Out, SetUpAll);
  Out.Attempted = CommandMs.size();
  // The measured command mix.
  double LabelingState = 0;
  for (const auto &[Name, N] : Counts) {
    double Share = 100 * static_cast<double>(N) /
                   static_cast<double>(Out.Attempted);
    std::printf("counter interactive.command.%s count=%llu share_pct=%.3f\n",
                Name.c_str(), static_cast<unsigned long long>(N), Share);
    if (std::find_if(std::begin(kLabelingState), std::end(kLabelingState),
                     [&](const char *L) { return Name == L; }) !=
        std::end(kLabelingState))
      LabelingState += Share;
  }
  Out.named("command_ms.p50", percentile(CommandMs, 0.5), "ms");
  Out.named("command_ms.p99", percentile(CommandMs, 0.99), "ms");
  Out.named("commands", static_cast<double>(CommandMs.size()), "count");
  Out.named("labeling_state_share_pct", LabelingState, "%");
  Out.named("failed_frac",
            static_cast<double>(Out.Failed) /
                static_cast<double>(Out.Attempted),
            "ratio");

  if (!Set.Trace)
    return;
  Prof.report(Out.Layers);
  Out.Layers["cable.labeling_state_share_pct"] = LabelingState;
  double T = 0, U = 0;
  for (double Ms : TracedMs)
    T += Ms;
  for (double Ms : PairedUntracedMs)
    U += Ms;
  Out.Layers["tracing.overhead_pct"] = 100 * (T / U - 1);
}
