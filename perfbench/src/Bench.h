//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the command-line settings, the result a
/// workload hands back to main (end-to-end metrics, per-layer metrics,
/// correctness verdict), seed derivation, and small timing helpers.
///
/// Every workload is closed-loop with one client: each call into the
/// library starts after the previous one returned.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_PERFBENCH_BENCH_H
#define CABLE_PERFBENCH_BENCH_H

#include "support/RNG.h"
#include "trace/TraceSet.h"
#include "workload/Protocols.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Settings from the command line.
struct Settings {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  /// Traced run: arm TraceLog around the benchmark's layer spans and
  /// report per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// Lattice-builder workers for every Session::build (never above nproc).
  unsigned Threads = 1;
};

/// What a workload reports back to main.
struct Outcome {
  /// Operations issued (Table 3 cells, lattice builds, user commands) and
  /// those that errored or failed a correctness check.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// First few check failures, for the report.
  std::vector<std::string> Errors;

  /// Set-up time samples in milliseconds, each the mean of back-to-back
  /// set-ups lasting at least kSetupSampleMs together. One set-up takes
  /// from milliseconds (table3) to over a second (interactive) while a
  /// shared host's speed shifts over seconds, so each workload takes
  /// samples spread over the run and setup_s is their median.
  std::vector<double> SetupMs;
  /// Latency of each timed operation in milliseconds (untraced ops only).
  std::vector<double> OpMs;
  /// Time of each part of a round in milliseconds, by part, over the
  /// untraced rounds. A round is one fixed unit of work (a Table 3
  /// evaluation; one build of every input; one labeling session on every
  /// input) and its parts are its protocol rows, builds or sessions.
  std::vector<std::vector<double>> PartMs;

  /// The issue-level named metrics of this workload (table3_s,
  /// build_ms.p50, ...), printed as readable lines before the result.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Named;

  /// Per-layer metrics from the traced run, by name.
  std::map<std::string, double> Layers;

  /// Records a correctness check; a false \p Ok counts one failed
  /// operation and keeps the message.
  bool check(bool Ok, const std::string &What);

  void part(size_t I, double Ms) {
    if (PartMs.size() <= I)
      PartMs.resize(I + 1);
    PartMs[I].push_back(Ms);
  }

  /// The time of one round: the sum of its parts' medians, so a slow
  /// stretch of a shared host that lands on a few samples of a part does
  /// not move it.
  double roundMs() const;

  void named(const std::string &Name, double Value, const std::string &Unit) {
    Named.push_back({Name, {Value, Unit}});
  }
};

/// Nearest-rank percentile over a copy of \p Samples (0 when empty).
double percentile(std::vector<double> Samples, double P);

/// Median over a copy of \p Samples (0 when empty).
inline double median(std::vector<double> Samples) {
  return percentile(std::move(Samples), 0.5);
}

/// Shortest stretch of back-to-back set-ups one set-up sample averages.
constexpr double kSetupSampleMs = 400;

/// Runs \p SetUp back to back until kSetupSampleMs have passed, appends the
/// mean time of one set-up to \p Out.SetupMs and returns the last inputs.
template <typename Fn> auto timedSetup(Outcome &Out, Fn &&SetUp) {
  Clock::time_point T0 = Clock::now();
  auto R = SetUp();
  size_t N = 1;
  for (; msSince(T0) < kSetupSampleMs; ++N)
    R = SetUp();
  Out.SetupMs.push_back(msSince(T0) / static_cast<double>(N));
  return R;
}

/// The benchmark seed folded into a per-input constant. Seed 0 leaves
/// \p Base unchanged, so the default seed reproduces the repository's
/// Table 3 bench byte for byte.
uint64_t deriveSeed(uint64_t Base, uint64_t Seed);

/// FNV-1a of \p Name (the per-protocol seed the Table 3 bench uses).
uint64_t nameSeed(const std::string &Name);

/// XtFree with the optional-use step widened to ten events Use0..Use9, as
/// in bench/scaling_lattice.cpp's xtFreeScaleContext, and the correct
/// regex widened to match so the oracle labels these traces.
cable::ProtocolModel xtFreeWideModel();

/// The first \p N distinct scenarios \p M's seeded generator produces
/// (fewer only if it keeps repeating itself).
cable::TraceSet distinctScenarios(const cable::ProtocolModel &M, size_t N,
                                  cable::RNG &Rand);

void runTable3(const Settings &S, Outcome &Out);
void runLatticeScale(const Settings &S, Outcome &Out);
void runInteractive(const Settings &S, Outcome &Out);

} // namespace perfbench

#endif // CABLE_PERFBENCH_BENCH_H
