//===- tests/concepts/ShardedBuilderTest.cpp -------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The multi-process determinism and robustness contract. Sharded builds
// must be bit-for-bit identical to serial NextClosure at every worker
// count — on generated contexts, degenerate corners, and exact ConceptCap
// truncations — and must stay identical when workers are crashed, wedged,
// or made to lie at every lifecycle failpoint. std::bad_alloc containment
// at the budgeted boundary is covered here too, via the `lattice-oom`
// failpoint.
//
//===----------------------------------------------------------------------===//

#include "concepts/NextClosureBuilder.h"
#include "concepts/ParallelBuilder.h"
#include "concepts/ShardedBuilder.h"

#include "support/Failpoint.h"
#include "support/Metrics.h"
#include "support/RNG.h"
#include "support/Subprocess.h"
#include "support/TraceEvent.h"

#include <gtest/gtest.h>

using namespace cable;

namespace {

/// Asserts two lattices are bit-for-bit identical: same node ids, same
/// extents/intents, same parent/child adjacency in the same order.
void expectIdenticalLattices(const ConceptLattice &A, const ConceptLattice &B,
                             const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  EXPECT_EQ(A.top(), B.top()) << What;
  EXPECT_EQ(A.bottom(), B.bottom()) << What;
  EXPECT_EQ(A.numEdges(), B.numEdges()) << What;
  for (ConceptLattice::NodeId Id = 0; Id < A.size(); ++Id) {
    EXPECT_TRUE(A.node(Id).Extent == B.node(Id).Extent) << What << " c" << Id;
    EXPECT_TRUE(A.node(Id).Intent == B.node(Id).Intent) << What << " c" << Id;
    EXPECT_EQ(A.parents(Id), B.parents(Id)) << What << " c" << Id;
    EXPECT_EQ(A.children(Id), B.children(Id)) << What << " c" << Id;
  }
}

/// Same seeded generator as the differential suite, so the sharded sweep
/// covers the same tall/wide/sparse/dense regimes.
Context seededContext(uint64_t Seed) {
  RNG Rand(Seed * 6364136223846793005ULL + 1442695040888963407ULL);
  size_t O = Rand.nextIndex(13); // 0..12 objects
  size_t A = Rand.nextIndex(11); // 0..10 attributes
  double Density = 0.05 + 0.9 * Rand.nextDouble();
  Context Ctx(O, A);
  for (size_t I = 0; I < O; ++I)
    for (size_t J = 0; J < A; ++J)
      if (Rand.nextBool(Density))
        Ctx.relate(I, J);
  return Ctx;
}

/// The 5x5 contranominal scale: 2^5 = 32 concepts, so a small MaxConcepts
/// is guaranteed to truncate.
Context contranominalContext() {
  Context Ctx(5, 5);
  for (size_t O = 0; O < 5; ++O)
    for (size_t A = 0; A < 5; ++A)
      if (O != A)
        Ctx.relate(O, A);
  return Ctx;
}

ShardOptions shardOpts(unsigned Workers) {
  ShardOptions Opts;
  Opts.NumWorkers = Workers;
  Opts.NumThreads = 2;
  return Opts;
}

/// Fast-failure knobs for the fault-injection tests: one retry, millisecond
/// backoff, so a crash-every-spawn site degrades inline in well under a
/// second instead of walking the full default budget.
ShardOptions faultyOpts(unsigned Workers,
                        std::chrono::milliseconds Timeout =
                            std::chrono::milliseconds(30000)) {
  ShardOptions Opts = shardOpts(Workers);
  Opts.ShardTimeout = Timeout;
  Opts.MaxRetries = 1;
  Opts.RetryBackoff = std::chrono::milliseconds(1);
  return Opts;
}

void expectShardedMatchesSerial(const Context &Ctx, const ShardOptions &Opts,
                                const std::string &What) {
  ConceptLattice Serial = NextClosureBuilder::buildLattice(Ctx);
  ConceptLattice Sharded = ShardedBuilder::buildLattice(Ctx, Opts);
  expectIdenticalLattices(Serial, Sharded, What);
  std::string Why;
  EXPECT_TRUE(Sharded.verify(Ctx, &Why)) << What << ": " << Why;
}

} // namespace

/// The determinism sweep: bit-for-bit identical to serial NextClosure at
/// every worker count, including counts far above the block count.
class ShardedDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardedDeterminismTest, BitForBitIdenticalAcrossWorkerCounts) {
  Context Ctx = seededContext(GetParam() * 131 + 29);
  ConceptLattice Serial = NextClosureBuilder::buildLattice(Ctx);
  for (unsigned W : {1u, 2u, 4u, 8u}) {
    ConceptLattice Sharded = ShardedBuilder::buildLattice(Ctx, shardOpts(W));
    expectIdenticalLattices(Serial, Sharded,
                            "workers=" + std::to_string(W));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDeterminismTest,
                         ::testing::Range<uint64_t>(0, 12));

TEST(ShardedDegenerateTest, EmptyContext) {
  expectShardedMatchesSerial(Context(0, 0), shardOpts(4), "0x0 context");
}

TEST(ShardedDegenerateTest, ObjectsWithoutAttributes) {
  // No attributes means no partition blocks at all: the build is the top
  // concept alone and must not wait on workers that have nothing to do.
  expectShardedMatchesSerial(Context(5, 0), shardOpts(4), "5x0 context");
}

TEST(ShardedDegenerateTest, AttributesWithoutObjects) {
  expectShardedMatchesSerial(Context(0, 6), shardOpts(4), "0x6 context");
}

TEST(ShardedDegenerateTest, FullRelation) {
  Context Ctx(4, 5);
  for (size_t O = 0; O < 4; ++O)
    for (size_t A = 0; A < 5; ++A)
      Ctx.relate(O, A);
  expectShardedMatchesSerial(Ctx, shardOpts(8), "full relation");
}

TEST(ShardedFallbackTest, ZeroWorkersUsesTheInProcessPath) {
  Context Ctx = seededContext(777);
  expectShardedMatchesSerial(Ctx, shardOpts(0), "workers=0 fallback");
}

/// A MaxConcepts cut is exact and identical at every worker count: the
/// canonical merge truncates the same lectic prefix the serial enumerator
/// stops at.
TEST(ShardedBudgetTest, ConceptCapCutIsIdenticalToSerial) {
  Context Ctx = contranominalContext();
  Budget B;
  B.MaxConcepts = 7;
  BudgetMeter SerialMeter(B);
  LatticeBuildResult Serial =
      NextClosureBuilder::buildLatticeBudgeted(Ctx, SerialMeter);
  ASSERT_TRUE(Serial.Truncated);
  for (unsigned W : {1u, 2u, 4u}) {
    BudgetMeter Meter(B);
    LatticeBuildResult Sharded =
        ShardedBuilder::buildLatticeBudgeted(Ctx, Meter, shardOpts(W));
    EXPECT_TRUE(Sharded.Truncated) << "workers=" << W;
    EXPECT_FALSE(Sharded.BuildStatus.isOk()) << "workers=" << W;
    expectIdenticalLattices(Serial.Lattice, Sharded.Lattice,
                            "cap=7 workers=" + std::to_string(W));
  }
}

TEST(ShardedBudgetTest, ExpiredMeterStillReturnsAWellFormedLattice) {
  Context Ctx = seededContext(4242);
  Budget B;
  B.TimeLimit = std::chrono::milliseconds(0);
  BudgetMeter Meter(B);
  LatticeBuildResult R =
      ShardedBuilder::buildLatticeBudgeted(Ctx, Meter, shardOpts(4));
  EXPECT_TRUE(R.Truncated);
  EXPECT_EQ(ErrorCode::ResourceExhausted, R.BuildStatus.code());
  std::string Why;
  EXPECT_TRUE(R.Lattice.verify(Ctx, &Why)) << Why;
}

TEST(ShardedBudgetTest, CancelledMeterReportsCancellation) {
  Context Ctx = seededContext(4242);
  BudgetMeter Meter{Budget{}};
  Meter.cancel();
  LatticeBuildResult R =
      ShardedBuilder::buildLatticeBudgeted(Ctx, Meter, shardOpts(2));
  EXPECT_TRUE(R.Truncated);
  EXPECT_EQ(ErrorCode::Cancelled, R.BuildStatus.code());
  std::string Why;
  EXPECT_TRUE(R.Lattice.verify(Ctx, &Why)) << Why;
}

/// The fault matrix, in-process edition: every worker-lifecycle failpoint,
/// in crash and error modes, must leave the recovered lattice bit-for-bit
/// identical to serial. Failpoint arming is fork-copied, so an @1 fault on
/// a site every worker passes re-fires in every respawn — driving the
/// supervisor through retry, reassignment, and finally inline degradation,
/// all of which must preserve the result.
class ShardedFaultTest : public ::testing::Test {
protected:
  void TearDown() override { Failpoint::reset(); }
};

TEST_F(ShardedFaultTest, CrashAtEveryLifecycleSiteRecoversIdentically) {
  Context Ctx = seededContext(99);
  for (const char *Site :
       {"shard-pre-fork", "shard-post-compute", "shard-pre-reply",
        "shard-mid-frame"}) {
    ASSERT_TRUE(
        Failpoint::configure(std::string(Site) + "=crash").isOk());
    expectShardedMatchesSerial(Ctx, faultyOpts(2),
                               std::string(Site) + "=crash");
    Failpoint::reset();
  }
}

TEST_F(ShardedFaultTest, ErrorAtEveryLifecycleSiteRecoversIdentically) {
  Context Ctx = seededContext(99);
  for (const char *Site :
       {"shard-pre-fork", "shard-post-compute", "shard-pre-reply",
        "shard-mid-frame"}) {
    ASSERT_TRUE(
        Failpoint::configure(std::string(Site) + "=error").isOk());
    expectShardedMatchesSerial(Ctx, faultyOpts(2),
                               std::string(Site) + "=error");
    Failpoint::reset();
  }
}

TEST_F(ShardedFaultTest, LaterTriggerIndexRecoversByRetryAlone) {
  // An @3 fault fires once in one worker's lifetime; the supervisor
  // recovers it with a plain retry/reassign, no degradation needed.
  Context Ctx = seededContext(99);
  ASSERT_TRUE(Failpoint::configure("shard-post-compute=crash@3").isOk());
  expectShardedMatchesSerial(Ctx, faultyOpts(4), "post-compute crash@3");
}

TEST_F(ShardedFaultTest, WedgedWorkerIsTimedOutAndRecovered) {
  Context Ctx = seededContext(99);
  ASSERT_TRUE(Failpoint::configure("shard-post-compute=hang").isOk());
  expectShardedMatchesSerial(
      Ctx, faultyOpts(2, std::chrono::milliseconds(100)),
      "post-compute hang");
}

TEST_F(ShardedFaultTest, WellFormedReplyMissingAnIntentRerunsInProcess) {
  // Every worker answers each nonempty block one intent short: the frames
  // pass every structural check, the merged family fails the cover
  // search's completeness check, and the supervisor redoes the build
  // in-process instead of aborting or returning a wrong lattice.
  Context Ctx = contranominalContext();
  ASSERT_TRUE(Failpoint::configure("shard-drop-intent=error").isOk());
  Metrics::reset();
  Metrics::setEnabled(true);
  expectShardedMatchesSerial(Ctx, shardOpts(2), "drop-intent");
  EXPECT_EQ(Metrics::counterValue("shard.degraded-builds"), 1u);
  Metrics::setEnabled(false);
  Metrics::reset();
}

TEST_F(ShardedFaultTest, FaultsUnderAConceptCapKeepTheCutExact) {
  // Crash-recovery and budget truncation compose: the reassembled prefix
  // under MaxConcepts is still the serial one.
  Context Ctx = contranominalContext();
  Budget B;
  B.MaxConcepts = 7;
  BudgetMeter SerialMeter(B);
  LatticeBuildResult Serial =
      NextClosureBuilder::buildLatticeBudgeted(Ctx, SerialMeter);
  ASSERT_TRUE(Serial.Truncated);
  ASSERT_TRUE(Failpoint::configure("shard-pre-reply=crash@2").isOk());
  BudgetMeter Meter(B);
  LatticeBuildResult Sharded =
      ShardedBuilder::buildLatticeBudgeted(Ctx, Meter, faultyOpts(2));
  EXPECT_TRUE(Sharded.Truncated);
  expectIdenticalLattices(Serial.Lattice, Sharded.Lattice,
                          "cap=7 with pre-reply crash");
}

/// std::bad_alloc containment at the budgeted boundary, driven by the
/// `lattice-oom` failpoint.
class OomContainmentTest : public ::testing::Test {
protected:
  void TearDown() override { Failpoint::reset(); }
};

TEST_F(OomContainmentTest, SerialBuilderKeepsThePrefixAndReportsExhaustion) {
  Context Ctx = seededContext(4242);
  ASSERT_TRUE(Failpoint::configure("lattice-oom=error@4").isOk());
  BudgetMeter Meter{Budget{}};
  LatticeBuildResult R = NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
  EXPECT_TRUE(R.Truncated);
  EXPECT_EQ(ErrorCode::ResourceExhausted, R.BuildStatus.code());
  EXPECT_NE(std::string::npos, R.BuildStatus.message().find("memory"));
  std::string Why;
  EXPECT_TRUE(R.Lattice.verify(Ctx, &Why)) << Why;
  EXPECT_GE(R.Lattice.size(), 2u); // Top and bottom survive at minimum.
}

TEST_F(OomContainmentTest, ParallelBuilderContainsTheThrowPerBlock) {
  Context Ctx = seededContext(4242);
  ASSERT_TRUE(Failpoint::configure("lattice-oom=error@2").isOk());
  BudgetMeter Meter{Budget{}};
  LatticeBuildResult R =
      ParallelBuilder::buildLatticeBudgeted(Ctx, Meter, /*NumThreads=*/2);
  EXPECT_TRUE(R.Truncated);
  EXPECT_EQ(ErrorCode::ResourceExhausted, R.BuildStatus.code());
  std::string Why;
  EXPECT_TRUE(R.Lattice.verify(Ctx, &Why)) << Why;
}

TEST_F(OomContainmentTest, WorkerOomBecomesAnErrorReplyNotACrash) {
  // A worker whose block allocation fails reports 'E' and lives; the
  // supervisor's retry (the failpoint has burned its one shot in that
  // worker) completes the build identically.
  Context Ctx = seededContext(99);
  ConceptLattice Serial = NextClosureBuilder::buildLattice(Ctx);
  ASSERT_TRUE(Failpoint::configure("lattice-oom=error@2").isOk());
  // Default retries: with 2 workers and one burnable shot each, every
  // block completes on a worker before inline degradation could arm the
  // parent's own copy of the failpoint.
  ConceptLattice Sharded = ShardedBuilder::buildLattice(Ctx, shardOpts(2));
  expectIdenticalLattices(Serial, Sharded, "worker oom");
}

/// Cross-process telemetry: workers flush Metrics deltas and TraceLog
/// rings back to the supervisor, which merges them so a fault-free
/// sharded build reports exactly the serial enumeration ledger, crashes
/// are accounted on shard.telemetry-lost, and one trace export shows
/// every process on a shared timeline.
class ShardedTelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    Metrics::reset();
    TraceLog::reset();
    Metrics::setEnabled(true);
  }
  void TearDown() override {
    Metrics::setEnabled(false);
    TraceLog::setEnabled(false);
    Failpoint::reset();
    Metrics::reset();
    TraceLog::reset();
  }
};

TEST_F(ShardedTelemetryTest, FaultFreeClosureCountsMatchSerial) {
  Context Ctx = seededContext(99);
  ConceptLattice Serial = NextClosureBuilder::buildLattice(Ctx);
  uint64_t SerialClosures = Metrics::counterValue("lattice.closures");
  uint64_t SerialConcepts = Metrics::counterValue("lattice.concepts");
  ASSERT_GT(SerialClosures, 0u);
  for (unsigned W : {1u, 2u, 4u, 8u}) {
    Metrics::reset();
    ConceptLattice Sharded = ShardedBuilder::buildLattice(Ctx, shardOpts(W));
    expectIdenticalLattices(Serial, Sharded, "workers=" + std::to_string(W));
    // Counter conservation: the supervisor's own closure(∅) plus the
    // workers' flushed per-block deltas must equal the serial ledger —
    // same closures performed, merely in other processes.
    EXPECT_EQ(Metrics::counterValue("lattice.closures"), SerialClosures)
        << "workers=" << W;
    EXPECT_EQ(Metrics::counterValue("lattice.concepts"), SerialConcepts)
        << "workers=" << W;
    EXPECT_EQ(Metrics::counterValue("shard.telemetry-lost"), 0u)
        << "workers=" << W;
    // Every dispatched block's flush plus one shutdown flush per worker.
    EXPECT_GE(Metrics::counterValue("shard.telemetry-merged"),
              Metrics::counterValue("shard.blocks-dispatched"))
        << "workers=" << W;
  }
}

TEST_F(ShardedTelemetryTest, KernelCountsAreWorkerCountInvariant) {
  Context Ctx = seededContext(101);
  // The in-process parallel builder shares the sharded path's assembly,
  // so its armed kernel tally is the reference the merged cross-process
  // tally must hit exactly, at every worker count.
  BudgetMeter RefMeter{Budget{}};
  ParallelBuilder::buildLatticeBudgeted(Ctx, RefMeter, /*NumThreads=*/2);
  uint64_t RefFusedAnd = Metrics::counterValue("kernels.fused-and-calls");
  uint64_t RefSigma = Metrics::counterValue("context.sigma-calls");
  for (unsigned W : {1u, 2u, 4u, 8u}) {
    Metrics::reset();
    ShardedBuilder::buildLattice(Ctx, shardOpts(W));
    EXPECT_EQ(Metrics::counterValue("kernels.fused-and-calls"), RefFusedAnd)
        << "workers=" << W;
    EXPECT_EQ(Metrics::counterValue("context.sigma-calls"), RefSigma)
        << "workers=" << W;
  }
}

TEST_F(ShardedTelemetryTest, CrashedWorkersAreAccountedAsLostFlushes) {
  Context Ctx = seededContext(99);
  ASSERT_TRUE(Failpoint::configure("shard-pre-reply=crash").isOk());
  ConceptLattice Serial = NextClosureBuilder::buildLattice(Ctx);
  Metrics::reset();
  ConceptLattice Sharded = ShardedBuilder::buildLattice(Ctx, faultyOpts(2));
  expectIdenticalLattices(Serial, Sharded, "crash accounting");
  // Every crash-killed attempt forfeits its flush; the ledger must say
  // so, and merged + lost must cover every dispatched attempt.
  uint64_t Lost = Metrics::counterValue("shard.telemetry-lost");
  uint64_t Merged = Metrics::counterValue("shard.telemetry-merged");
  uint64_t Dispatched = Metrics::counterValue("shard.blocks-dispatched");
  EXPECT_GE(Lost, 1u);
  EXPECT_GE(Merged + Lost, Dispatched);
}

TEST_F(ShardedTelemetryTest, SharedTraceShowsWorkerTracksAndFlowArrows) {
  TraceLog::setEnabled(true);
  Context Ctx = seededContext(99);
  ShardedBuilder::buildLattice(Ctx, shardOpts(2));
  std::string Json = TraceLog::exportJson("shard-test");
  // Supervisor-side spans plus at least one ingested worker track with
  // the full dispatch -> compute -> merge flow chain.
  EXPECT_NE(Json.find("\"shard-supervise\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"shard-dispatch\""), std::string::npos);
  EXPECT_NE(Json.find("\"shard-block\""), std::string::npos);
  EXPECT_NE(Json.find("\"shard-merge\""), std::string::npos);
  EXPECT_NE(Json.find("\"shard-worker-"), std::string::npos);
  EXPECT_NE(Json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"t\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(Json.find("\"bp\": \"e\""), std::string::npos);
}

TEST_F(ShardedTelemetryTest, PerWorkerBlockAttributionCoversAllBlocks) {
  Context Ctx = seededContext(99);
  ShardedBuilder::buildLattice(Ctx, shardOpts(4));
  uint64_t Dispatched = Metrics::counterValue("shard.blocks-dispatched");
  ASSERT_GT(Dispatched, 0u);
  uint64_t Attributed = 0;
  for (int I = 0; I < 8; ++I)
    Attributed += Metrics::counterValue("shard.worker-blocks." +
                                        std::to_string(I));
  // Fault-free every dispatched block lands on exactly one worker.
  EXPECT_EQ(Attributed, Dispatched);
  EXPECT_GE(Metrics::gauge("shard.workers").high(), 1);
}

TEST_F(ShardedTelemetryTest, DisarmedBuildsSkipTelemetryEntirely) {
  Metrics::setEnabled(false);
  Context Ctx = seededContext(99);
  ConceptLattice Serial = NextClosureBuilder::buildLattice(Ctx);
  ConceptLattice Sharded = ShardedBuilder::buildLattice(Ctx, shardOpts(2));
  expectIdenticalLattices(Serial, Sharded, "disarmed telemetry");
  Metrics::setEnabled(true);
  EXPECT_EQ(Metrics::counterValue("shard.telemetry-merged"), 0u);
  EXPECT_EQ(Metrics::counterValue("shard.telemetry-lost"), 0u);
}
