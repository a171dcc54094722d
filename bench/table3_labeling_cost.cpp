//===- bench/table3_labeling_cost.cpp - Reproduces Table 3 -----------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Table 3: the cost (inspections + label operations, §4.2) of obtaining
// the expert's labeling with each method:
//
//   Baseline  — 2 ops per class of identical traces (no lattice);
//   Expert    — simulated expert (mostly top-down, steered by
//               discriminating transitions);
//   Top-down / Bottom-up — the automatic traversals; like the paper,
//               the lowest cost over their nondeterministic orderings
//               (64 sampled orders);
//   Random    — arithmetic mean of 1024 trials (as in the paper);
//   Optimal   — exhaustive search; '-' when the state cap is hit, like
//               the paper's evaluation program on its largest four specs.
//
// Shapes to check against the paper: Expert well under Baseline overall
// (less than a third of the decisions on average; 28 vs 224 on the
// XtFree-like row), near-parity on specs with <10 unique traces,
// Bottom-up == Baseline on loop-free specs, Top-down and Random beating
// Baseline nearly everywhere.
//
// BENCH_table3_labeling_cost.json times each strategy cell in its own
// section (strategy-baseline ... strategy-optimal, one sample per spec)
// and records each spec's classes, concepts, cover edges and strategy
// costs as counters `<spec>.<quantity>` (-1 for a cell that did not
// finish), so a change in any cell shows up as a diff in the JSON.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace cable;
using namespace cable::bench;

int main() {
  cable::bench::BenchReport Report("table3_labeling_cost");
  std::printf("Table 3: cost of labeling, by method "
              "(Random = mean of 1024 trials)\n\n");

  TablePrinter T({{"Specification", 14},
                  {"Unique", 6},
                  {"Baseline", 8},
                  {"Expert", 6},
                  {"Top-down", 8},
                  {"Bottom-up", 9},
                  {"Random", 7},
                  {"Optimal", 7}});

  double ExpertTotal = 0, BaselineTotal = 0;
  for (SpecEvaluation &E : evaluateAllProtocols()) {
    Session &S = *E.S;
    const std::string &Spec = E.Model.Name;
    auto Count = [&](const char *Quantity, double Value) {
      Report.counter(Spec + "." + Quantity, Value);
    };
    Count("classes", static_cast<double>(S.numObjects()));
    Count("concepts", static_cast<double>(S.lattice().size()));
    Count("edges", static_cast<double>(S.lattice().numEdges()));

    auto Timed = [&](const char *Section, auto &&Fn) {
      BenchTimer Timer(Report, Section);
      return Fn();
    };
    size_t BaselineCost = Timed("strategy-baseline", [&] {
      return BaselineMethod().run(S, E.Target).total();
    });
    StrategyCost ExpertCost = Timed("strategy-expert", [&] {
      return ExpertSimStrategy().run(S, E.Target);
    });

    // The paper reports the lowest cost over Top-down's and Bottom-up's
    // nondeterministic orderings; sample 64 randomized orders each.
    LowestSummary TDCost = Timed("strategy-topdown", [&] {
      return measureLowestCost(
          S, E.Target, 64, 0x7D, [](RNG Rand) -> std::unique_ptr<Strategy> {
            return std::make_unique<TopDownStrategy>(Rand);
          });
    });
    LowestSummary BUCost = Timed("strategy-bottomup", [&] {
      return measureLowestCost(
          S, E.Target, 64, 0xB0, [](RNG Rand) -> std::unique_ptr<Strategy> {
            return std::make_unique<BottomUpStrategy>(Rand);
          });
    });

    RandomSummary Random = Timed("strategy-random", [&] {
      return measureRandomMean(S, E.Target, 1024, 0xCAB1E);
    });

    StrategyCost OptCost = Timed("strategy-optimal", [&] {
      return OptimalStrategy(/*StateCap=*/250'000).run(S, E.Target);
    });

    auto OrMinusOne = [](bool Finished, double Cost) {
      return Finished ? Cost : -1;
    };
    Count("baseline", static_cast<double>(BaselineCost));
    Count("expert", OrMinusOne(ExpertCost.Finished,
                               static_cast<double>(ExpertCost.total())));
    Count("topdown", OrMinusOne(TDCost.Finished,
                                static_cast<double>(TDCost.LowestTotal)));
    Count("bottomup", OrMinusOne(BUCost.Finished,
                                 static_cast<double>(BUCost.LowestTotal)));
    Count("random", OrMinusOne(Random.Finished, Random.MeanTotal));
    Count("optimal", OrMinusOne(OptCost.Finished,
                                static_cast<double>(OptCost.total())));

    auto Fmt = [](const StrategyCost &C) {
      return C.Finished ? cell(C.total()) : std::string("-");
    };
    auto FmtLow = [](const LowestSummary &C) {
      return C.Finished ? cell(C.LowestTotal) : std::string("-");
    };
    T.addRow({E.Model.Name, cell(S.numObjects()), cell(BaselineCost),
              Fmt(ExpertCost), FmtLow(TDCost), FmtLow(BUCost),
              Random.Finished ? cell1(Random.MeanTotal) : std::string("-"),
              Fmt(OptCost)});

    if (ExpertCost.Finished) {
      ExpertTotal += static_cast<double>(ExpertCost.total());
      BaselineTotal += static_cast<double>(BaselineCost);
    }
  }

  T.print();
  Report.counter("expert_total", ExpertTotal);
  Report.counter("baseline_total", BaselineTotal);
  std::printf("\nTotals: Expert %.0f vs Baseline %.0f ops "
              "(ratio %.2f; paper: < 1/3 on average).\n"
              "'-' = did not finish (Optimal state cap, like the paper's "
              "four largest specs).\n",
              ExpertTotal, BaselineTotal, ExpertTotal / BaselineTotal);
  Report.write();
  return 0;
}
