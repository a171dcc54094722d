//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload <table3|lattice-scale|interactive> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Runs one workload in this process (so peak RSS is the workload's own),
// prints a readable report, and ends with one line of JSON:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (setup_s, round_s, op_ms.p50,
// peak_rss_mb), the workload's named metrics, and with --trace 1 the
// per-layer metrics. Exits 1 when any correctness check failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/BuildInfo.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/TraceEvent.h"
#include "support/simd/Kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <thread>

#include <sys/resource.h>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <table3|lattice-scale|"
               "interactive> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

bool parse(int Argc, char **Argv, Settings &S) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Flag = Argv[I], *Value = Argv[I + 1];
    char *End = nullptr;
    if (!std::strcmp(Flag, "--workload")) {
      S.Workload = Value;
    } else if (!std::strcmp(Flag, "--seed")) {
      S.Seed = std::strtoull(Value, &End, 10);
      if (*End)
        return false;
    } else if (!std::strcmp(Flag, "--seconds")) {
      S.Seconds = std::strtod(Value, &End);
      if (*End || !(S.Seconds > 0))
        return false;
    } else if (!std::strcmp(Flag, "--trace")) {
      if (std::strcmp(Value, "0") && std::strcmp(Value, "1"))
        return false;
      S.Trace = Value[0] == '1';
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && !S.Workload.empty();
}

void printJsonNumber(double V) {
  std::printf("%.17g", std::isfinite(V) ? V : 0.0);
}

} // namespace

int main(int Argc, char **Argv) {
  Settings Set;
  if (!parse(Argc, Argv, Set))
    return usage();
  // At most four lattice-builder workers, never more than the machine has.
  // table3's lattices have at most a few hundred concepts: one worker
  // builds them in microseconds, while starting a pool for each of the 17
  // builds took most of the set-up and made it swing with the host's
  // scheduling.
  Set.Threads =
      Set.Workload == "table3"
          ? 1u
          : std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

  // End-to-end numbers are measured with every instrument disarmed; the
  // traced run arms TraceLog only around its own spans.
  cable::Metrics::setEnabled(false);
  cable::TraceLog::setEnabled(false);
  cable::Log::setEnabled(false);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "threads=%u kernel=%s build_type=%s\n",
              Set.Workload.c_str(), static_cast<unsigned long long>(Set.Seed),
              Set.Seconds, Set.Trace ? 1 : 0, Set.Threads,
              cable::simd::levelName(cable::simd::activeLevel()),
              cable::buildinfo::kBuildType);

  Outcome Out;
  try {
    if (Set.Workload == "table3")
      runTable3(Set, Out);
    else if (Set.Workload == "lattice-scale")
      runLatticeScale(Set, Out);
    else if (Set.Workload == "interactive")
      runInteractive(Set, Out);
    else
      return usage();
  } catch (const std::exception &E) {
    Out.check(false, std::string("exception: ") + E.what());
  }
  if (Out.OpMs.empty() || Out.PartMs.empty())
    Out.check(false, "no operation was timed");
  Out.check(cable::TraceLog::droppedCount() == 0,
            "a trace ring wrapped; per-layer figures are incomplete");

  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  Out.named("setup_s", median(Out.SetupMs) / 1e3, "s");
  Out.named("op_ms.p50", median(Out.OpMs), "ms");
  Out.named("round_s", Out.roundMs() / 1e3, "s");
  Out.named("peak_rss_mb", static_cast<double>(Usage.ru_maxrss) / 1024.0,
            "MB");
  std::map<std::string, double> Metrics;
  for (const auto &[Name, ValueUnit] : Out.Named) {
    std::printf("metric %s %.6g %s\n", Name.c_str(), ValueUnit.first,
                ValueUnit.second.c_str());
    Metrics[Name] = ValueUnit.first;
  }
  for (const auto &[Name, Value] : Out.Layers) {
    std::printf("layer %s %.6g\n", Name.c_str(), Value);
    Metrics[Name] = Value;
  }
  for (const std::string &E : Out.Errors)
    std::printf("FAILED: %s\n", E.c_str());

  bool Correct = Out.Errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(Out.Attempted, 1)),
              static_cast<unsigned long long>(Out.Failed));
  const char *Sep = "";
  for (const auto &[Name, Value] : Metrics) {
    std::printf("%s\"%s\": ", Sep, Name.c_str());
    printJsonNumber(Value);
    Sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
