//===- concepts/ShardedBuilder.h - Multi-process construction ---*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-isolated lattice construction: ParallelBuilder's lectic-prefix
/// partition lifted across OS processes. A supervisor in the parent forks
/// N shard workers (which inherit the read-only Context through fork, so
/// nothing large crosses the wire), hands each worker one block at a time
/// over a CRC-framed socketpair protocol (see Subprocess.h / FORMATS.md,
/// "Shard wire protocol"), and merges the returned intent shards with the
/// same canonical descending-minimum merge ParallelBuilder uses — so the
/// result is bit-for-bit identical to serial NextClosure at any worker
/// count.
///
/// The robustness contract: a worker that crashes (SIGSEGV, SIGKILL,
/// nonzero exit), wedges past its per-shard deadline, or returns a torn or
/// corrupt frame never aborts the build. Its block is reassigned under a
/// bounded retry budget with exponential respawn backoff; when the budget
/// runs out — or forking is unavailable — construction degrades to the
/// in-process path (whole-build ParallelBuilder fallback, or per-block
/// inline computation), which preserves the determinism guarantee.
///
/// BudgetMeter limits propagate into workers: MaxConcepts caps each block
/// exactly as in ParallelBuilder (so a ConceptCap truncation is identical
/// at every worker count), the remaining deadline rides in each block
/// request, and a cancel kills the worker group.
///
/// Worker-lifecycle failpoints (`shard-pre-fork`, `shard-post-compute`,
/// `shard-pre-reply`, `shard-mid-frame`) fire in the worker process only;
/// the kill matrix drives every supervisor recovery path through them.
/// `shard-drop-intent` makes a worker reply one intent short: the merged
/// family then fails the cover search's completeness check and the whole
/// build reruns in-process.
/// Supervision is surfaced through `shard.*` metrics, and when
/// observability is armed the workers themselves are not blind spots:
/// each block reply (and a final shutdown handshake) carries a telemetry
/// flush — metric deltas, trace spans, ring-drop counts — that the
/// supervisor merges into the process-wide registry and trace, stitching
/// worker activity onto the supervisor's timeline as per-process tracks
/// with dispatch -> compute -> merge flow arrows. Telemetry is
/// best-effort: a worker that dies mid-interval loses only that
/// interval, the loss ticks `shard.telemetry-lost`, and the lattice
/// result is unaffected. Fault-free, merged counters equal a serial
/// build's exactly. (See docs/OBSERVABILITY.md, "Multi-process
/// observability".)
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CONCEPTS_SHARDEDBUILDER_H
#define CABLE_CONCEPTS_SHARDEDBUILDER_H

#include "concepts/BuildResult.h"
#include "concepts/Lattice.h"

#include <chrono>

namespace cable {

/// Supervisor knobs. Defaults match the `--shard-*` tool flags.
struct ShardOptions {
  /// Worker processes to fork. 0 disables sharding entirely (the caller
  /// should use ParallelBuilder); the supervisor clamps to the number of
  /// partition blocks.
  unsigned NumWorkers = 0;

  /// Per-shard deadline: how long one worker may hold one block before the
  /// supervisor declares it wedged, SIGKILLs it, and reassigns the block.
  std::chrono::milliseconds ShardTimeout{30000};

  /// Retries per block beyond the first attempt. Once a block has failed
  /// 1 + MaxRetries times it is computed inline in the supervisor.
  unsigned MaxRetries = 3;

  /// Base respawn backoff after a worker death; doubles per consecutive
  /// failure of the same worker slot (capped at 64x).
  std::chrono::milliseconds RetryBackoff{10};

  /// Threads for the in-process phases (cover computation, and the
  /// whole-build fallback). Same semantics as ParallelBuilder.
  unsigned NumThreads = 0;
};

/// Multi-process batch construction with a supervising parent.
class ShardedBuilder {
public:
  /// Builds the full concept lattice of \p Ctx with Opts.NumWorkers shard
  /// worker processes. Bit-for-bit identical to
  /// NextClosureBuilder::buildLattice regardless of worker count or
  /// injected worker failures.
  static ConceptLattice buildLattice(const Context &Ctx,
                                     const ShardOptions &Opts);

  /// Budgeted construction with the same truncation semantics as
  /// ParallelBuilder::buildLatticeBudgeted: a MaxConcepts cut is exact and
  /// identical at every worker count; deadline/cancel cuts keep a clean
  /// lectic prefix. Worker failures consume the retry budget, never the
  /// build.
  static LatticeBuildResult buildLatticeBudgeted(const Context &Ctx,
                                                 const BudgetMeter &Meter,
                                                 const ShardOptions &Opts);
};

} // namespace cable

#endif // CABLE_CONCEPTS_SHARDEDBUILDER_H
