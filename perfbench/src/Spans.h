//===- perfbench/src/Spans.h - Per-layer span aggregation -------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run wraps each call the benchmark makes into a library layer
/// in a support/TraceEvent TraceSpan named `<layer>.<call>` (for example
/// `cable.label` or `trace.classes`). The library's own spans carry no dot
/// in their names and are ignored, except that a profile made with
/// \p BuilderSpans keeps the lattice builder's under benchmark names:
/// Session::build's `lattice-build` span as `concepts.covers` and the
/// enumeration nested in it (`lattice-enumerate`, or
/// `next-closure-enumerate` with one thread) as `concepts.enumerate`, so the
/// self time of `concepts.covers` is the build minus enumeration: extents,
/// covers and lattice assembly. The rest are ignored. LayerProfile drains
/// the TraceLog after each operation, so its rings never wrap, and folds
/// every kept span into per-name call counts, total time and self time: a
/// span's duration minus the time covered by kept spans nested directly
/// inside it on the same thread.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_PERFBENCH_SPANS_H
#define CABLE_PERFBENCH_SPANS_H

#include "Bench.h"

#include "support/TraceEvent.h"

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

class LayerProfile {
public:
  explicit LayerProfile(bool BuilderSpans = false)
      : BuilderSpans(BuilderSpans) {}

  /// Drains every span recorded so far into the aggregates.
  void collect();

  /// Adds one observation of a per-call quantity (classes, concepts, FA
  /// states, ...); reported as its mean.
  void quantity(const std::string &Name, double Value);

  uint64_t calls(const std::string &Span) const;
  /// Total self time of \p Span in milliseconds.
  double selfMs(const std::string &Span) const;
  /// Total time of \p Span in milliseconds, nested spans included.
  double totalMs(const std::string &Span) const;
  /// Mean self time per call in milliseconds (0 when never called).
  double meanSelfMs(const std::string &Span) const;
  /// Mean of a quantity (0 when never observed).
  double meanQuantity(const std::string &Name) const;

  /// Writes `<span>_ms` (mean self time) and `<span>.calls` for every
  /// span seen, and every quantity's mean, into \p Out.
  void report(std::map<std::string, double> &Out) const;

private:
  struct Agg {
    uint64_t Calls = 0;
    uint64_t SelfUs = 0;
    uint64_t TotalUs = 0;
  };
  bool BuilderSpans;
  std::map<std::string, Agg> BySpan;
  std::map<std::string, std::pair<double, uint64_t>> Quantities;
};

/// Sets the workload's inputs up once untimed (with TraceLog armed in the
/// traced run, so set-up layers get spans), then takes two timed set-up
/// samples into \p Out.SetupMs, and returns the last inputs.
template <typename Fn>
auto initialSetup(const Settings &Set, Outcome &Out, LayerProfile &Prof,
                  Fn &&SetUp) {
  cable::TraceLog::setEnabled(Set.Trace);
  auto Inputs = SetUp();
  cable::TraceLog::setEnabled(false);
  Prof.collect();
  for (int I = 0; I < 2; ++I)
    Inputs = timedSetup(Out, SetUp);
  return Inputs;
}

} // namespace perfbench

#endif // CABLE_PERFBENCH_SPANS_H
