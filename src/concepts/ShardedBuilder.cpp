//===- concepts/ShardedBuilder.cpp - Multi-process construction ------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Wire protocol (payloads ride inside Subprocess frames; see FORMATS.md):
//
//   request  'B' : u8 'B', u32 block, u64 maxConcepts (0 = none),
//                  u32 deadlineMs (0 = none), u64 flowId, u8 telemetry
//   request  'Q' : u8 'Q', u8 telemetry      -> final 'T' if requested,
//                                               then worker _exit(0)
//   reply    'K' : u8 'K', u32 block, u8 stop, u64 numIntents, u64 numBits,
//                  numIntents * ceil(numBits/64) LE u64 words
//   reply    'E' : u8 'E', u32 block, u8 errorCode, message bytes
//   reply    'T' : u8 'T', u32 block (0xffffffff = shutdown flush),
//                  u64 flowId, u32 metricsLen, Metrics::encodeSamples
//                  bytes, u32 numSpans, numSpans span records (see
//                  FORMATS.md), u64 droppedDelta
//
// All integers little-endian. A reply whose length does not match its own
// counts, whose stop/tag/block is out of range, or whose frame fails the
// CRC is rejected and handled exactly like a worker crash: the block is
// reassigned, never trusted.
//
// When telemetry is requested ('B'/'Q' flag, set when Metrics or TraceLog
// is armed in the supervisor), a worker follows every K/E reply — and
// answers every 'Q' — with one 'T' frame carrying its Metrics delta since
// the previous flush plus its drained TraceLog ring. The supervisor
// merges deltas into the process-wide registry and stitches spans into
// the trace export as per-pid tracks; a flush that never arrives (crash,
// timeout, torn frame) is counted on `shard.telemetry-lost`, never
// retried — block results are authoritative, telemetry is best-effort.
//
// Failure handling is a ladder, every rung preserving determinism:
//
//   worker error reply ('E')     -> retry the block (worker stays up)
//   worker crash / torn frame /
//   timeout / protocol violation -> SIGKILL + respawn with backoff,
//                                   block reassigned
//   block out of retries         -> computed inline in the supervisor
//   restart budget exhausted or
//   fork unavailable             -> in-process ParallelBuilder fallback
//
//===----------------------------------------------------------------------===//

#include "concepts/ShardedBuilder.h"

#include "concepts/NextClosureBuilder.h"
#include "concepts/ParallelBuilder.h"
#include "support/AtomicFile.h"
#include "support/CrashDump.h"
#include "support/Failpoint.h"
#include "support/Json.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/RunReport.h"
#include "support/Subprocess.h"
#include "support/ThreadPool.h"
#include "support/TraceEvent.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <new>
#include <thread>
#include <utility>

#include <poll.h>

using namespace cable;

namespace {

// Worker-lifecycle failpoints. All four fire in the worker process only
// (shard-pre-fork in the freshly forked child, the rest while serving a
// block), so a `crash` kills the worker and exercises the supervisor's
// recovery path rather than the build.
Failpoint::Registrar RegPostCompute("shard-post-compute");
Failpoint::Registrar RegPreReply("shard-pre-reply");
Failpoint::Registrar RegMidFrame("shard-mid-frame");
// A buggy worker rather than a dying one: a well-formed reply one intent
// short, which only the supervisor's completeness check can catch.
Failpoint::Registrar RegDropIntent("shard-drop-intent");

Metrics::Counter &ShardBuilds = Metrics::counter("shard.builds");
Metrics::Counter &BlocksDispatched =
    Metrics::counter("shard.blocks-dispatched");
Metrics::Counter &ShardRetries = Metrics::counter("shard.retries");
Metrics::Counter &ShardReassigned = Metrics::counter("shard.reassigned");
Metrics::Counter &ShardTimedOut = Metrics::counter("shard.timed-out");
Metrics::Counter &WorkerRestarts = Metrics::counter("shard.worker-restarts");
Metrics::Counter &WorkerCrashes = Metrics::counter("shard.worker-crashes");
Metrics::Counter &FramesRejected = Metrics::counter("shard.frames-rejected");
Metrics::Counter &ErrorReplies = Metrics::counter("shard.error-replies");
Metrics::Counter &DegradedBlocks = Metrics::counter("shard.degraded-blocks");
Metrics::Counter &DegradedBuilds = Metrics::counter("shard.degraded-builds");
Metrics::Counter &TelemetryMerged =
    Metrics::counter("shard.telemetry-merged");
Metrics::Counter &TelemetryLost = Metrics::counter("shard.telemetry-lost");
Metrics::Gauge &WorkersGauge = Metrics::gauge("shard.workers");

// The same registry entries the in-process builders maintain: the merge
// below is the sharded path's share of the closure/concept ledger, and
// fault-free it must sum (with the workers' flushed deltas) to exactly
// the serial builder's counts.
Metrics::Counter &NumClosures = Metrics::counter("lattice.closures");
Metrics::Counter &NumConcepts = Metrics::counter("lattice.concepts");

/// Process-unique flow ids, one per dispatched block attempt. The
/// supervisor stamps the id into the 'B' request and records the 's'
/// flow instant; the worker echoes it as a 't' inside its compute span;
/// the merge records the 'f' — one arrow per block across pid tracks.
std::atomic<uint64_t> NextFlowId{1};

// -- Payload encoding ------------------------------------------------------

void putU8(std::string &S, uint8_t V) { S.push_back(static_cast<char>(V)); }

void putU16(std::string &S, uint16_t V) {
  S.push_back(static_cast<char>(V & 0xff));
  S.push_back(static_cast<char>((V >> 8) & 0xff));
}

void putU32(std::string &S, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    S.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64(std::string &S, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    S.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

bool getU8(std::string_view &S, uint8_t &V) {
  if (S.size() < 1)
    return false;
  V = static_cast<uint8_t>(S[0]);
  S.remove_prefix(1);
  return true;
}

bool getU16(std::string_view &S, uint16_t &V) {
  if (S.size() < 2)
    return false;
  V = static_cast<uint16_t>(static_cast<uint8_t>(S[0]) |
                            (static_cast<uint16_t>(static_cast<uint8_t>(S[1]))
                             << 8));
  S.remove_prefix(2);
  return true;
}

bool getU32(std::string_view &S, uint32_t &V) {
  if (S.size() < 4)
    return false;
  V = 0;
  for (int I = 3; I >= 0; --I)
    V = (V << 8) | static_cast<uint8_t>(S[I]);
  S.remove_prefix(4);
  return true;
}

bool getU64(std::string_view &S, uint64_t &V) {
  if (S.size() < 8)
    return false;
  V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | static_cast<uint8_t>(S[I]);
  S.remove_prefix(8);
  return true;
}

std::string encodeBlockRequest(uint32_t Block, uint64_t MaxConcepts,
                               uint32_t DeadlineMs, uint64_t FlowId,
                               bool Telemetry) {
  std::string S;
  putU8(S, 'B');
  putU32(S, Block);
  putU64(S, MaxConcepts);
  putU32(S, DeadlineMs);
  putU64(S, FlowId);
  putU8(S, Telemetry ? 1 : 0);
  return S;
}

std::string encodeBlockReply(uint32_t Block, BuildStop Stop, uint64_t NumBits,
                             const std::vector<BitVector> &Intents) {
  std::string S;
  S.reserve(1 + 4 + 1 + 8 + 8 + Intents.size() * ((NumBits + 63) / 64) * 8);
  putU8(S, 'K');
  putU32(S, Block);
  putU8(S, static_cast<uint8_t>(Stop));
  putU64(S, Intents.size());
  putU64(S, NumBits);
  for (const BitVector &V : Intents)
    for (size_t W = 0; W < V.numWords(); ++W)
      putU64(S, V.words()[W]);
  return S;
}

std::string encodeErrorReply(uint32_t Block, const Status &S) {
  std::string Out;
  putU8(Out, 'E');
  putU32(Out, Block);
  putU8(Out, static_cast<uint8_t>(S.code()));
  Out.append(S.message());
  return Out;
}

/// The `block` value a worker stamps on the final flush it sends in
/// answer to 'Q' — there is no block, the flush covers everything since
/// the last one.
constexpr uint32_t ShutdownFlushBlock = 0xffffffffu;

/// Telemetry decode bounds: a corrupted-but-CRC-valid frame (a buggy
/// worker) must not drive giant allocations in the supervisor.
constexpr uint32_t MaxWireSpans = 1u << 20;
constexpr uint16_t MaxWireSpanName = 4096;

/// Encodes one telemetry flush ('T'). Span records are fixed-layout:
/// u16 nameLen, name, u64 startUs, u64 durUs, u64 arg, u8 hasArg,
/// u8 flowPhase, u64 flowId, u32 tid, u16 threadNameLen, threadName.
std::string encodeTelemetry(uint32_t Block, uint64_t FlowId,
                            const std::vector<Metrics::Sample> &Delta,
                            const std::vector<TraceLog::RawSpan> &Spans,
                            uint64_t DroppedDelta,
                            const std::vector<Log::Record> &LogRecords,
                            uint64_t LogDroppedDelta) {
  std::string S;
  putU8(S, 'T');
  putU32(S, Block);
  putU64(S, FlowId);
  std::string Blob = Metrics::encodeSamples(Delta);
  putU32(S, static_cast<uint32_t>(Blob.size()));
  S.append(Blob);
  putU32(S, static_cast<uint32_t>(Spans.size()));
  for (const TraceLog::RawSpan &Sp : Spans) {
    size_t NameLen = std::min<size_t>(Sp.Name.size(), MaxWireSpanName);
    putU16(S, static_cast<uint16_t>(NameLen));
    S.append(Sp.Name, 0, NameLen);
    putU64(S, Sp.StartUs);
    putU64(S, Sp.DurUs);
    putU64(S, static_cast<uint64_t>(Sp.Arg));
    putU8(S, Sp.HasArg ? 1 : 0);
    putU8(S, Sp.FlowPhase);
    putU64(S, Sp.FlowId);
    putU32(S, static_cast<uint32_t>(Sp.Tid));
    size_t ThreadLen = std::min<size_t>(Sp.ThreadName.size(), MaxWireSpanName);
    putU16(S, static_cast<uint16_t>(ThreadLen));
    S.append(Sp.ThreadName, 0, ThreadLen);
  }
  putU64(S, DroppedDelta);
  // Piggybacked structured-log delta (docs/FORMATS.md): the records a
  // worker emitted since its previous flush, riding the same frame so the
  // supervisor merges one coherent multi-process log with no extra wire
  // round-trips.
  std::string LogBlob = Log::encodeRecords(LogRecords);
  putU32(S, static_cast<uint32_t>(LogBlob.size()));
  S.append(LogBlob);
  putU64(S, LogDroppedDelta);
  return S;
}

/// A decoded worker telemetry flush.
struct TelemetryRecord {
  uint32_t Block = 0;
  uint64_t FlowId = 0;
  std::vector<Metrics::Sample> Delta;
  std::vector<TraceLog::RawSpan> Spans;
  uint64_t DroppedDelta = 0;
  std::vector<Log::Record> LogRecords;
  uint64_t LogDroppedDelta = 0;
};

bool getBytes(std::string_view &S, size_t N, std::string &Out) {
  if (S.size() < N)
    return false;
  Out.assign(S.substr(0, N));
  S.remove_prefix(N);
  return true;
}

/// Strict telemetry decode, the same stance as decodeReply: every count
/// is bounds-checked and the payload must be consumed exactly. A failure
/// costs the flush, never the already-accepted block result.
bool decodeTelemetry(std::string_view S, TelemetryRecord &T) {
  uint8_t Tag = 0;
  if (!getU8(S, Tag) || Tag != 'T' || !getU32(S, T.Block) ||
      !getU64(S, T.FlowId))
    return false;
  uint32_t MetricsLen = 0;
  if (!getU32(S, MetricsLen) || S.size() < MetricsLen ||
      !Metrics::decodeSamples(S.substr(0, MetricsLen), T.Delta))
    return false;
  S.remove_prefix(MetricsLen);
  uint32_t NumSpans = 0;
  if (!getU32(S, NumSpans) || NumSpans > MaxWireSpans)
    return false;
  T.Spans.clear();
  T.Spans.reserve(std::min<uint32_t>(NumSpans, 4096));
  for (uint32_t I = 0; I < NumSpans; ++I) {
    TraceLog::RawSpan Sp;
    uint16_t NameLen = 0, ThreadLen = 0;
    uint64_t Arg = 0;
    uint8_t HasArg = 0;
    uint32_t Tid = 0;
    if (!getU16(S, NameLen) || NameLen > MaxWireSpanName ||
        !getBytes(S, NameLen, Sp.Name) || !getU64(S, Sp.StartUs) ||
        !getU64(S, Sp.DurUs) || !getU64(S, Arg) || !getU8(S, HasArg) ||
        !getU8(S, Sp.FlowPhase) || !getU64(S, Sp.FlowId) ||
        !getU32(S, Tid) || !getU16(S, ThreadLen) ||
        ThreadLen > MaxWireSpanName || !getBytes(S, ThreadLen, Sp.ThreadName))
      return false;
    Sp.Arg = static_cast<int64_t>(Arg);
    Sp.HasArg = HasArg != 0;
    Sp.Tid = static_cast<int>(Tid);
    T.Spans.push_back(std::move(Sp));
  }
  if (!getU64(S, T.DroppedDelta))
    return false;
  uint32_t LogLen = 0;
  if (!getU32(S, LogLen) || S.size() < LogLen ||
      !Log::decodeRecords(S.substr(0, LogLen), T.LogRecords))
    return false;
  S.remove_prefix(LogLen);
  return getU64(S, T.LogDroppedDelta) && S.empty();
}

/// A decoded worker reply. Exactly one of Intents / Err is meaningful,
/// keyed on Tag.
struct ShardReply {
  uint8_t Tag = 0; ///< 'K' or 'E'.
  uint32_t Block = 0;
  BuildStop Stop = BuildStop::Complete;
  std::vector<BitVector> Intents;
  Status Err;
};

/// Strict reply decode: every count is cross-checked against the payload
/// length and the context's attribute universe, so a corrupted-but-CRC-
/// valid frame (a buggy worker) is rejected, not trusted.
StatusOr<ShardReply> decodeReply(std::string_view S, size_t NumAttributes) {
  ShardReply R;
  if (!getU8(S, R.Tag) || !getU32(S, R.Block))
    return Status::error(ErrorCode::IoError, "shard reply too short");
  if (R.Tag == 'E') {
    uint8_t Code = 0;
    if (!getU8(S, Code) || Code > static_cast<uint8_t>(ErrorCode::Internal) ||
        Code == 0)
      return Status::error(ErrorCode::IoError,
                           "shard error reply with a bad error code");
    R.Err = Status::error(static_cast<ErrorCode>(Code), std::string(S));
    return R;
  }
  if (R.Tag != 'K')
    return Status::error(ErrorCode::IoError, "unknown shard reply tag");
  uint8_t StopByte = 0;
  uint64_t NumIntents = 0, NumBits = 0;
  if (!getU8(S, StopByte) || !getU64(S, NumIntents) || !getU64(S, NumBits))
    return Status::error(ErrorCode::IoError, "shard reply header too short");
  if (StopByte > static_cast<uint8_t>(BuildStop::Memory))
    return Status::error(ErrorCode::IoError,
                         "shard reply with a bad stop reason");
  R.Stop = static_cast<BuildStop>(StopByte);
  if (NumBits != NumAttributes)
    return Status::error(ErrorCode::IoError,
                         "shard reply universe mismatch: " +
                             std::to_string(NumBits) + " bits, expected " +
                             std::to_string(NumAttributes));
  size_t WordsPer = (NumAttributes + 63) / 64;
  if (WordsPer == 0 ||
      NumIntents > static_cast<uint64_t>(MaxFrameBytes) / (WordsPer * 8) ||
      S.size() != NumIntents * WordsPer * 8)
    return Status::error(ErrorCode::IoError,
                         "shard reply length does not match its counts");
  R.Intents.reserve(NumIntents);
  for (uint64_t I = 0; I < NumIntents; ++I) {
    BitVector V(NumAttributes);
    for (size_t W = 0; W < WordsPer; ++W) {
      uint64_t Word = 0;
      getU64(S, Word);
      if (W + 1 == WordsPer)
        Word &= V.tailMask(); // Re-establish the tail invariant defensively.
      V.words()[W] = Word;
    }
    R.Intents.push_back(std::move(V));
  }
  return R;
}

// -- Worker ----------------------------------------------------------------

/// Sends one reply frame in two halves with the `shard-mid-frame`
/// failpoint between them: a `crash` there leaves a genuinely torn frame
/// on the wire, an `error` abandons the stream mid-frame (the worker bails
/// like a failed write), a `hang` wedges with half a frame sent — each a
/// distinct supervisor-recovery path. A non-empty \p Flush is a telemetry
/// payload, framed and sent in the same write as the reply's second half.
bool sendReplySplit(int Fd, std::string_view Payload, std::string_view Flush) {
  std::string Frame = encodeFramedRecord(Payload);
  size_t Half = Frame.size() / 2;
  if (!Flush.empty())
    Frame += encodeFramedRecord(Flush);
  if (!sendBytes(Fd, Frame.data(), Half).isOk())
    return false;
  if (!Failpoint::hit("shard-mid-frame").isOk())
    return false;
  return sendBytes(Fd, Frame.data() + Half, Frame.size() - Half).isOk();
}

/// The shard worker loop: serve block requests until 'Q' or a broken
/// parent socket. Runs in the forked child, which inherits the read-only
/// \p Ctx and \p TopIntent — only indices, intents, and telemetry cross
/// the wire.
/// Exit codes: 0 clean, 3 parent socket broken, 4 protocol violation,
/// 9 reply or flush write failed (includes an injected mid-frame fault).
int shardWorkerMain(const Context &Ctx, const BitVector &TopIntent, int Fd) {
  size_t M = Ctx.numAttributes();
  // The fork copied the supervisor's live counter values into this
  // process; baseline them away so each flush carries only what this
  // worker did since the previous one. (The trace rings were already
  // cleared by Subprocess::spawn.)
  std::vector<Metrics::Sample> Baseline = Metrics::snapshot();
  uint64_t DroppedBase = TraceLog::droppedCount();
  uint64_t LogDroppedBase = Log::droppedCount();
  // One hello per worker: even a fault-free merged log shows every
  // process that took part, and the kill matrix can tell "worker died
  // before serving" from "worker never started".
  CABLE_LOG_INFO("shard", "shard-worker-started",
                 "worker online, serving block requests",
                 {Log::num("attributes", static_cast<int64_t>(M))});
  auto encodeFlush = [&](uint32_t Block, uint64_t FlowId) {
    std::vector<Metrics::Sample> Delta = Metrics::deltaSince(Baseline);
    std::vector<TraceLog::RawSpan> Spans = TraceLog::drainSpans();
    uint64_t Dropped = TraceLog::droppedCount();
    // drainRecords is its own delta: Subprocess::spawn cleared the rings
    // at fork, and each flush empties them again.
    std::vector<Log::Record> LogRecords = Log::drainRecords();
    uint64_t LogDropped = Log::droppedCount();
    std::string T =
        encodeTelemetry(Block, FlowId, Delta, Spans, Dropped - DroppedBase,
                        LogRecords, LogDropped - LogDroppedBase);
    DroppedBase = Dropped;
    LogDroppedBase = LogDropped;
    Baseline = Metrics::snapshot();
    return T;
  };
  for (;;) {
    StatusOr<std::string> FrameOr = recvFrame(Fd);
    if (!FrameOr)
      return 3;
    std::string_view In = *FrameOr;
    uint8_t Tag = 0;
    if (!getU8(In, Tag))
      return 4;
    if (Tag == 'Q') {
      // The shutdown flush: whatever accumulated since the last block
      // reply (for a worker that never served one, its whole life).
      uint8_t Telemetry = 0;
      if (getU8(In, Telemetry) && Telemetry &&
          !sendFrame(Fd, encodeFlush(ShutdownFlushBlock, 0)).isOk())
        return 9;
      return 0;
    }
    uint32_t Block = 0, DeadlineMs = 0;
    uint64_t MaxConcepts = 0, FlowId = 0;
    uint8_t Telemetry = 0;
    if (Tag != 'B' || !getU32(In, Block) || !getU64(In, MaxConcepts) ||
        !getU32(In, DeadlineMs) || !getU64(In, FlowId) ||
        !getU8(In, Telemetry) || Block >= M)
      return 4;

    std::string Reply;
    try {
      Budget B;
      if (MaxConcepts)
        B.MaxConcepts = MaxConcepts;
      if (DeadlineMs)
        B.TimeLimit = std::chrono::milliseconds(DeadlineMs);
      BudgetMeter WorkerMeter(B);
      BuildStop Stop = BuildStop::Complete;
      std::vector<BitVector> Intents;
      {
        // The worker leg of the dispatch -> compute -> merge flow arrow;
        // the supervisor stamped FlowId into the request.
        TraceSpan BlockSpan("shard-block", static_cast<int64_t>(Block));
        TraceLog::recordFlow(FlowId, 't');
        Intents = ParallelBuilder::blockIntentsBudgeted(
            Ctx, Block, TopIntent, WorkerMeter, Stop);
      }
      if (!Intents.empty() && !Failpoint::hit("shard-drop-intent").isOk())
        Intents.pop_back();
      if (Status S = Failpoint::hit("shard-post-compute"); !S.isOk())
        Reply = encodeErrorReply(Block, S);
      else {
        Reply = encodeBlockReply(Block, Stop, M, Intents);
        if (Status S2 = Failpoint::hit("shard-pre-reply"); !S2.isOk())
          Reply = encodeErrorReply(Block, S2);
      }
    } catch (const std::bad_alloc &) {
      // blockIntentsBudgeted contains its own OOM (Memory stop); this
      // covers allocation failure while serializing the reply. The worker
      // reports instead of vanishing.
      Reply = encodeErrorReply(
          Block, Status::error(ErrorCode::ResourceExhausted,
                               "shard worker out of memory on block " +
                                   std::to_string(Block)));
    }
    // One write carries the reply and its flush, so the supervisor reads
    // the flush as soon as it has the reply, without waiting for this
    // process to run again.
    if (!sendReplySplit(Fd, Reply,
                        Telemetry ? encodeFlush(Block, FlowId) : std::string()))
      return 9;
  }
}

// -- Supervisor ------------------------------------------------------------

using Clock = std::chrono::steady_clock;

struct WorkerSlot {
  Subprocess Proc;
  int Index = 0;  ///< Stable slot number; names the worker's trace track.
  int Block = -1; ///< Block in flight, -1 when idle.
  uint64_t FlowId = 0; ///< Flow id stamped on the in-flight dispatch.
  Metrics::Counter *BlocksServed = nullptr; ///< shard.worker-blocks.<index>.
  Clock::time_point Deadline{};
  Clock::time_point RespawnAt{};
  unsigned ConsecutiveFailures = 0;
  bool Alive = false;
  bool Retired = false; ///< Out of restart budget; never respawned.
};

/// Remaining whole milliseconds of the meter's deadline, clamped to
/// [1, u32max]; 0 = no deadline configured.
uint32_t remainingBudgetMs(const BudgetMeter &Meter) {
  const auto &Limit = Meter.budget().TimeLimit;
  if (!Limit)
    return 0;
  int64_t Left = Limit->count() - Meter.elapsed().count();
  if (Left <= 0)
    return 1; // Expired: workers see an already-dead deadline.
  return static_cast<uint32_t>(
      std::min<int64_t>(Left, std::numeric_limits<uint32_t>::max()));
}

class Supervisor {
public:
  Supervisor(const Context &Ctx, const BudgetMeter &Meter,
             const ShardOptions &Opts, const BitVector &TopIntent)
      : Ctx(Ctx), Meter(Meter), Opts(Opts), TopIntent(TopIntent),
        M(Ctx.numAttributes()), Blocks(M), Stops(M, BuildStop::Complete),
        State(M, BlockState::Pending), Attempts(M, 0),
        TelemetryOn(Metrics::enabled() || TraceLog::enabled() ||
                    Log::structuredEnabled()) {
    // Every closed intent contains closure(∅), so blocks whose minimum
    // attribute lies above min(closure(∅)) are provably empty: serial
    // NextClosure never probes there, and dispatching them would both
    // waste workers and tilt the closure-count conservation ledger.
    // Mark them Done up front.
    size_t MinTop = TopIntent.findFirst();
    size_t NumBlocks = MinTop == BitVector::npos ? M : MinTop + 1;
    for (size_t P = NumBlocks; P < M; ++P)
      State[P] = BlockState::Done;
    NumDone = M - NumBlocks;
    unsigned Workers =
        std::min<size_t>(Opts.NumWorkers, NumBlocks ? NumBlocks : 1);
    Slots.resize(std::max(1u, Workers));
    for (size_t I = 0; I < Slots.size(); ++I) {
      Slots[I].Index = static_cast<int>(I);
      Slots[I].BlocksServed =
          &Metrics::counter("shard.worker-blocks." + std::to_string(I));
    }
    WorkersGauge.set(static_cast<int64_t>(Slots.size()));
    WorkersGauge.addHighWater(0); // Raise the high-water to the new value.
    RestartBudget = static_cast<unsigned>(Slots.size()) *
                        (Opts.MaxRetries + 1) +
                    8;
  }

  /// Runs the supervision loop to completion. On return every block is
  /// Done (computed by a worker or inline) and all workers are shut down.
  void run() {
    TraceSpan Span("shard-supervise", static_cast<int64_t>(Slots.size()));
    for (size_t I = 0; I < Slots.size(); ++I)
      trySpawn(Slots[I], /*IsRestart=*/false);
    while (NumDone < M) {
      if (Meter.expired()) {
        // Deadline or cancel: take the worker group down and let the
        // inline path stamp Time stops on whatever remains (each inline
        // call sees the expired meter and returns immediately).
        shutdownWorkers();
        degradeRemaining();
        break;
      }
      respawnDueSlots();
      assignPending();
      if (!anyInFlight()) {
        if (!anyUsableSlot()) {
          // Every slot dead with no budget left: finish in-process.
          degradeRemaining();
          break;
        }
        if (NumDone < M && !anyAssignable()) {
          // Workers exist but all are backing off; wait out the nearest
          // respawn time rather than spinning.
          sleepUntilNextEvent();
        }
        continue;
      }
      pollInFlight();
      expireDeadlines();
    }
    shutdownWorkers();
  }

  std::vector<std::vector<BitVector>> takeBlocks() {
    return std::move(Blocks);
  }
  const std::vector<BuildStop> &stops() const { return Stops; }

private:
  enum class BlockState : uint8_t { Pending, InFlight, Done };

  const Context &Ctx;
  const BudgetMeter &Meter;
  const ShardOptions &Opts;
  const BitVector &TopIntent;
  size_t M;
  std::vector<std::vector<BitVector>> Blocks;
  std::vector<BuildStop> Stops;
  std::vector<BlockState> State;
  std::vector<unsigned> Attempts;
  std::vector<WorkerSlot> Slots;
  unsigned RestartBudget = 0;
  size_t NumDone = 0;
  /// Captured once at construction: whether 'B'/'Q' requests ask workers
  /// to flush telemetry. Workers inherit the armed substrate flags by
  /// fork, so the supervisor's view is authoritative for the whole build.
  bool TelemetryOn = false;

  /// Next block to hand out: highest pending minimum attribute, matching
  /// the canonical merge order so the merge's prefix completes earliest.
  int nextPending() const {
    for (size_t P = M; P > 0; --P)
      if (State[P - 1] == BlockState::Pending)
        return static_cast<int>(P - 1);
    return -1;
  }

  bool anyInFlight() const {
    for (const WorkerSlot &S : Slots)
      if (S.Alive && S.Block >= 0)
        return true;
    return false;
  }

  bool anyUsableSlot() const {
    for (const WorkerSlot &S : Slots)
      if (S.Alive || !S.Retired)
        return true;
    return false;
  }

  bool anyAssignable() const {
    for (const WorkerSlot &S : Slots)
      if (S.Alive && S.Block < 0)
        return true;
    return false;
  }

  std::vector<int> siblingFds(const WorkerSlot &Except) const {
    std::vector<int> Fds;
    for (const WorkerSlot &S : Slots)
      if (&S != &Except && S.Alive && S.Proc.fd() >= 0)
        Fds.push_back(S.Proc.fd());
    return Fds;
  }

  void trySpawn(WorkerSlot &Slot, bool IsRestart) {
    if (Slot.Retired)
      return;
    if (IsRestart) {
      if (RestartBudget == 0) {
        Slot.Retired = true;
        return;
      }
      --RestartBudget;
    }
    StatusOr<Subprocess> P = Subprocess::spawn(
        [this](int Fd) { return shardWorkerMain(Ctx, TopIntent, Fd); },
        siblingFds(Slot));
    if (!P) {
      // fork/socketpair failure: retire the slot; if every slot retires
      // the run loop degrades in-process.
      Slot.Retired = true;
      return;
    }
    Slot.Proc = std::move(*P);
    Slot.Alive = true;
    Slot.Block = -1;
    if (IsRestart) {
      WorkerRestarts.add();
      CABLE_LOG_INFO("shard", "shard-worker-respawn",
                     "worker slot respawned after a failure",
                     {Log::num("slot", Slot.Index),
                      Log::num("pid", Slot.Proc.pid())});
    }
  }

  void respawnDueSlots() {
    Clock::time_point Now = Clock::now();
    for (WorkerSlot &S : Slots)
      if (!S.Alive && !S.Retired && Now >= S.RespawnAt)
        trySpawn(S, /*IsRestart=*/true);
  }

  void assignPending() {
    for (WorkerSlot &S : Slots) {
      if (!S.Alive || S.Block >= 0)
        continue;
      int P = nextPending();
      if (P < 0)
        return;
      ++Attempts[P];
      uint64_t FlowId = NextFlowId.fetch_add(1, std::memory_order_relaxed);
      std::string Req = encodeBlockRequest(
          static_cast<uint32_t>(P), Meter.budget().MaxConcepts.value_or(0),
          remainingBudgetMs(Meter), FlowId, TelemetryOn);
      bool SendOk;
      {
        // The supervisor-side origin of the per-block flow arrow; the
        // 's' instant binds to this span on the supervisor track.
        TraceSpan Dispatch("shard-dispatch", static_cast<int64_t>(P));
        SendOk = sendFrame(S.Proc.fd(), Req).isOk();
        if (SendOk)
          TraceLog::recordFlow(FlowId, 's');
      }
      if (!SendOk) {
        // The worker died while idle; its socket is a dead letter box.
        --Attempts[P]; // The attempt never started.
        slotFailed(S, /*TimedOut=*/false);
        continue;
      }
      State[P] = BlockState::InFlight;
      S.Block = P;
      S.FlowId = FlowId;
      S.Deadline = Clock::now() + Opts.ShardTimeout;
      BlocksDispatched.add();
    }
  }

  /// Computes a block in the supervisor with the build's own meter — the
  /// per-block degradation rung, used when a block runs out of retries.
  void computeInline(size_t P) {
    DegradedBlocks.add();
    CABLE_LOG_WARN("shard", "shard-block-degraded",
                   "block out of retries; computing in the supervisor",
                   {Log::num("block", static_cast<int64_t>(P)),
                    Log::num("attempts", Attempts[P])});
    Blocks[P] = ParallelBuilder::blockIntentsBudgeted(Ctx, P, TopIntent,
                                                      Meter, Stops[P]);
    State[P] = BlockState::Done;
    ++NumDone;
  }

  void degradeRemaining() {
    for (size_t P = M; P > 0; --P)
      if (State[P - 1] != BlockState::Done)
        computeInline(P - 1);
  }

  /// A block attempt failed (crash, timeout, torn frame, error reply).
  /// Requeues it, or computes it inline once its retries are spent.
  void blockAttemptFailed(size_t P) {
    if (Attempts[P] >= Opts.MaxRetries + 1)
      computeInline(P);
    else
      State[P] = BlockState::Pending;
  }

  /// Attaches a crashed worker's flight-recorder dump to the run report
  /// (sharded.crash_dumps). Only dumps the worker actually wrote count:
  /// SIGKILLed and hung workers leave an empty pre-opened file, which is
  /// skipped, as is anything that fails JSON validation — a half-written
  /// dump must not corrupt the report.
  void collectWorkerDump(int Pid) {
    if (!CrashDump::installed())
      return;
    StatusOr<std::string> Doc =
        readFileToString(CrashDump::dumpPathForPid(Pid));
    if (!Doc || Doc->empty())
      return;
    while (!Doc->empty() && (Doc->back() == '\n' || Doc->back() == ' '))
      Doc->pop_back();
    std::string Err;
    if (Doc->empty() || !validateJson(*Doc, Err))
      return;
    addCollectedCrashDump(std::move(*Doc));
  }

  /// Kills and reaps a failed worker, reassigns its block, and schedules a
  /// backed-off respawn.
  void slotFailed(WorkerSlot &S, bool TimedOut) {
    int FailedBlock = S.Block;
    // wait() reaps the child and clears its pid; the log records and the
    // flight-recorder dump path both need the pid it died under.
    int FailedPid = static_cast<int>(S.Proc.pid());
    if (TimedOut) {
      ShardTimedOut.add();
      CABLE_LOG_WARN("shard", "shard-worker-hung",
                     "worker missed its shard deadline; killing it",
                     {Log::num("slot", S.Index), Log::num("pid", FailedPid),
                      Log::num("block", FailedBlock)});
    }
    if (S.Block >= 0) {
      ShardReassigned.add();
      // The in-flight attempt's flush dies with the worker: whatever it
      // counted toward this attempt is gone, and the ledger says so.
      if (TelemetryOn) {
        TelemetryLost.add();
        CABLE_LOG_WARN("shard", "shard-telemetry-lost",
                       "in-flight attempt's flush died with the worker",
                       {Log::num("slot", S.Index),
                        Log::num("block", FailedBlock)});
      }
      size_t P = static_cast<size_t>(S.Block);
      S.Block = -1;
      blockAttemptFailed(P);
    }
    S.Proc.kill();
    Subprocess::ExitStatus Exit = S.Proc.wait();
    if (Exit.Signaled || Exit.Code != 0) {
      WorkerCrashes.add();
      CABLE_LOG_WARN("shard", "shard-worker-crashed",
                     "worker died abnormally; containing the failure",
                     {Log::num("slot", S.Index), Log::num("pid", FailedPid),
                      Log::num("block", FailedBlock),
                      Log::str("cause", Exit.Signaled ? "signal" : "exit"),
                      Log::num("code", Exit.Code)});
      collectWorkerDump(FailedPid);
    }
    S.Proc.closeFd();
    S.Alive = false;
    unsigned Shift = std::min(S.ConsecutiveFailures, 6u);
    ++S.ConsecutiveFailures;
    S.RespawnAt = Clock::now() + Opts.RetryBackoff * (1u << Shift);
    if (RestartBudget == 0)
      S.Retired = true;
  }

  /// One worker produced a complete, CRC-valid frame; act on it. Returns
  /// true when the worker is still trusted (so a telemetry flush may
  /// follow on the same stream), false when it was failed and killed.
  bool handleReply(WorkerSlot &S, std::string_view Payload) {
    StatusOr<ShardReply> ReplyOr = decodeReply(Payload, M);
    if (!ReplyOr ||
        ReplyOr->Block != static_cast<uint32_t>(S.Block)) {
      // Structurally bad or misaddressed reply: treat the worker as
      // compromised — same path as a crash.
      FramesRejected.add();
      slotFailed(S, /*TimedOut=*/false);
      return false;
    }
    size_t P = static_cast<size_t>(S.Block);
    S.Block = -1;
    S.ConsecutiveFailures = 0;
    if (ReplyOr->Tag == 'E') {
      // The worker reported a failure but is itself healthy: retry
      // without a respawn.
      ErrorReplies.add();
      ShardRetries.add();
      blockAttemptFailed(P);
      return true;
    }
    {
      // Close this block's dispatch -> compute -> merge flow arrow on
      // the supervisor track.
      TraceSpan Merge("shard-merge", static_cast<int64_t>(P));
      TraceLog::recordFlow(S.FlowId, 'f');
      Blocks[P] = std::move(ReplyOr->Intents);
      Stops[P] = ReplyOr->Stop;
    }
    State[P] = BlockState::Done;
    ++NumDone;
    S.BlocksServed->add();
    return true;
  }

  /// Reads and merges the telemetry flush a worker sends right after a
  /// block reply. The block result (already accepted) is never rolled
  /// back: a bad or missing flush costs only the flush itself, counted
  /// on shard.telemetry-lost, and the worker is recycled like a crash.
  void readTelemetry(WorkerSlot &S) {
    int FrameMs = static_cast<int>(std::max<int64_t>(
        1, std::chrono::duration_cast<std::chrono::milliseconds>(
               S.Deadline - Clock::now())
               .count()));
    StatusOr<std::string> FrameOr = recvFrame(S.Proc.fd(), FrameMs);
    bool TimedOut =
        !FrameOr && FrameOr.status().code() == ErrorCode::ResourceExhausted;
    TelemetryRecord T;
    if (!FrameOr || !decodeTelemetry(*FrameOr, T)) {
      TelemetryLost.add();
      CABLE_LOG_WARN("shard", "shard-telemetry-lost",
                     "post-reply flush missing or torn",
                     {Log::num("slot", S.Index)});
      slotFailed(S, TimedOut);
      return;
    }
    mergeTelemetry(S, T);
  }

  /// Folds one decoded flush into the process-wide registry and trace:
  /// counters add, histograms merge bucket-wise, gauges keep the high
  /// water; spans land on a per-pid foreign track named after the slot.
  void mergeTelemetry(WorkerSlot &S, TelemetryRecord &T) {
    Metrics::mergeDelta(T.Delta);
    // Ingest even an empty flush: it registers the worker's pid track,
    // so the exported trace shows every spawned process — an idle
    // worker renders as an empty named track, not a gap.
    TraceLog::ingestRemote(S.Proc.pid(),
                           "shard-worker-" + std::to_string(S.Index),
                           std::move(T.Spans), T.DroppedDelta);
    Log::ingestRemote(static_cast<int>(S.Proc.pid()),
                      std::move(T.LogRecords), T.LogDroppedDelta);
    TelemetryMerged.add();
  }

  void pollInFlight() {
    std::vector<struct pollfd> Fds;
    std::vector<WorkerSlot *> FdSlots;
    Clock::time_point Now = Clock::now();
    Clock::time_point Nearest = Now + std::chrono::milliseconds(50);
    for (WorkerSlot &S : Slots) {
      if (S.Alive && S.Block >= 0) {
        Fds.push_back({S.Proc.fd(), POLLIN, 0});
        FdSlots.push_back(&S);
        Nearest = std::min(Nearest, S.Deadline);
      }
      if (!S.Alive && !S.Retired)
        Nearest = std::min(Nearest, S.RespawnAt);
    }
    if (Fds.empty())
      return;
    auto WaitMs = std::chrono::duration_cast<std::chrono::milliseconds>(
        Nearest - Now);
    int Timeout = static_cast<int>(std::max<int64_t>(0, WaitMs.count()));
    int Rc = ::poll(Fds.data(), Fds.size(), Timeout);
    if (Rc <= 0)
      return; // Timeout or EINTR; deadlines are handled by the caller.
    for (size_t I = 0; I < Fds.size(); ++I) {
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      WorkerSlot &S = *FdSlots[I];
      if (!S.Alive || S.Block < 0)
        continue; // A previous iteration already failed this slot.
      // Data (or EOF) is ready; bound the frame read by the shard
      // deadline so a worker that wedges mid-frame cannot stall the
      // supervisor past it.
      int FrameMs = static_cast<int>(std::max<int64_t>(
          1, std::chrono::duration_cast<std::chrono::milliseconds>(
                 S.Deadline - Clock::now())
                 .count()));
      StatusOr<std::string> FrameOr = recvFrame(S.Proc.fd(), FrameMs);
      if (!FrameOr) {
        // EOF, torn frame, corrupt frame, or a mid-frame wedge: all are
        // worker failures, distinguished only in metrics.
        bool TimedOut = FrameOr.status().code() == ErrorCode::ResourceExhausted;
        if (!TimedOut)
          FramesRejected.add();
        slotFailed(S, TimedOut);
        continue;
      }
      if (handleReply(S, *FrameOr) && TelemetryOn)
        readTelemetry(S);
    }
  }

  void expireDeadlines() {
    Clock::time_point Now = Clock::now();
    for (WorkerSlot &S : Slots)
      if (S.Alive && S.Block >= 0 && Now >= S.Deadline)
        slotFailed(S, /*TimedOut=*/true);
  }

  void sleepUntilNextEvent() {
    Clock::time_point Now = Clock::now();
    Clock::time_point Nearest = Now + std::chrono::milliseconds(50);
    for (const WorkerSlot &S : Slots)
      if (!S.Alive && !S.Retired)
        Nearest = std::min(Nearest, S.RespawnAt);
    if (Nearest > Now)
      std::this_thread::sleep_for(Nearest - Now);
  }

  /// Ends one worker: kill, reap, close, mark dead.
  void putDown(WorkerSlot &S) {
    S.Proc.kill();
    S.Proc.wait();
    S.Proc.closeFd();
    S.Alive = false;
  }

  /// Reaps a worker that was asked to quit, killing it if it is still
  /// running at \p Until. Its socket end closes only when it exits, so
  /// the wait blocks in poll until that EOF (or the grace runs out)
  /// rather than sleeping in fixed quanta.
  void awaitExit(WorkerSlot &S, Clock::time_point Until) {
    while (!S.Proc.tryWait()) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
          Until - Clock::now());
      if (Left.count() <= 0) {
        S.Proc.kill();
        break;
      }
      // Returns at once from EOF on, so only the last moments of the
      // exit, between closing its files and becoming reapable, spin.
      struct pollfd Fd = {S.Proc.fd(), POLLIN, 0};
      ::poll(&Fd, 1, static_cast<int>(Left.count()));
    }
    S.Proc.wait();
    S.Proc.closeFd();
    S.Alive = false;
  }

  void shutdownWorkers() {
    // Best-effort graceful quit so clean exits show up as such; a worker
    // that does not exit promptly is killed. Idle workers are blocked in
    // recvFrame, so 'Q' turns around fast. With telemetry armed the 'Q'
    // also requests a final flush, which the worker sends before exiting.
    // Every worker is told to quit before any is waited on, so their
    // flushes and exits overlap.
    std::vector<WorkerSlot *> Quitting;
    for (WorkerSlot &S : Slots) {
      if (!S.Alive)
        continue;
      if (S.Block >= 0) {
        // Mid-block at shutdown (cancel or deadline): the next frame on
        // the wire would be the block reply, not a flush — skip the
        // handshake, write the attempt's telemetry off as lost, and put
        // the worker down hard.
        if (TelemetryOn) {
          TelemetryLost.add();
          CABLE_LOG_WARN("shard", "shard-telemetry-lost",
                         "worker still mid-block at shutdown",
                         {Log::num("slot", S.Index),
                          Log::num("block", S.Block)});
        }
        S.Block = -1;
        putDown(S);
        continue;
      }
      std::string Quit(1, 'Q');
      putU8(Quit, TelemetryOn ? 1 : 0);
      if (sendFrame(S.Proc.fd(), Quit).isOk())
        Quitting.push_back(&S);
      else
        putDown(S);
    }
    if (TelemetryOn) {
      for (WorkerSlot *S : Quitting) {
        // The final-flush handshake: a worker that cannot produce it
        // within a second forfeits the flush, never the shutdown.
        StatusOr<std::string> FrameOr = recvFrame(S->Proc.fd(), 1000);
        TelemetryRecord T;
        if (FrameOr && decodeTelemetry(*FrameOr, T)) {
          mergeTelemetry(*S, T);
        } else {
          TelemetryLost.add();
          CABLE_LOG_WARN("shard", "shard-telemetry-lost",
                         "final flush not produced within the grace period",
                         {Log::num("slot", S->Index)});
        }
      }
    }
    // Give them a beat, then force.
    Clock::time_point Until = Clock::now() + std::chrono::milliseconds(200);
    for (WorkerSlot *S : Quitting)
      awaitExit(*S, Until);
  }
};

} // namespace

LatticeBuildResult
ShardedBuilder::buildLatticeBudgeted(const Context &Ctx,
                                     const BudgetMeter &Meter,
                                     const ShardOptions &Opts) {
  if (Opts.NumWorkers == 0 || !Subprocess::forkSupported()) {
    // Sharding unavailable or not requested: the whole-build rung of the
    // degradation ladder.
    if (Opts.NumWorkers != 0) {
      DegradedBuilds.add();
      CABLE_LOG_WARN("shard", "shard-build-degraded",
                     "sharding unavailable; whole build runs in-process",
                     {Log::num("workers_requested",
                               static_cast<int64_t>(Opts.NumWorkers))});
    }
    return ParallelBuilder::buildLatticeBudgeted(Ctx, Meter, Opts.NumThreads);
  }

  Status Cells = checkContextCells(Ctx, Meter.budget());
  if (!Cells.isOk()) {
    LatticeBuildResult R;
    R.Lattice = finalizeTruncatedConcepts(Ctx, {}, DeadlineKeepCap);
    R.BuildStatus = std::move(Cells);
    R.Truncated = true;
    return R;
  }

  ShardBuilds.add();
  size_t M = Ctx.numAttributes();
  size_t Max = Meter.budget().MaxConcepts.value_or(SIZE_MAX);
  BitVector TopIntent = Ctx.closeIntent(BitVector(M));

  // Workers are forked while this process is still single-threaded (the
  // cover-computation pool below is created only after every worker has
  // exited), so children never inherit a held malloc or pool lock.
  std::vector<std::vector<BitVector>> BlockIntents;
  std::vector<BuildStop> BlockStops;
  if (M > 0) {
    Supervisor Sup(Ctx, Meter, Opts, TopIntent);
    Sup.run();
    BlockIntents = Sup.takeBlocks();
    BlockStops = Sup.stops();
  }

  try {
    // Canonical merge, identical to ParallelBuilder::allClosedIntentsBudgeted:
    // descending minimum attribute, cut at the global cap or the first
    // incomplete block. Everything kept is a lectic prefix.
    BuildStop Stop = BuildStop::Complete;
    std::vector<BitVector> Out;
    size_t Total = 1;
    for (const std::vector<BitVector> &B : BlockIntents)
      Total += B.size();
    Out.reserve(std::min(Total, Max));
    Out.push_back(std::move(TopIntent));
    for (size_t P = M; P > 0 && Stop == BuildStop::Complete; --P) {
      for (BitVector &Intent : BlockIntents[P - 1]) {
        if (Out.size() >= Max) {
          Stop = BuildStop::ConceptCap;
          break;
        }
        Out.push_back(std::move(Intent));
      }
      if (Stop == BuildStop::Complete &&
          BlockStops[P - 1] != BuildStop::Complete)
        Stop = BlockStops[P - 1];
    }

    // The supervisor's share of the ledger the in-process builders keep:
    // closure(∅) was computed once, above, in this process. Block-level
    // closures arrive through worker telemetry flushes (or the inline
    // degradation path), so a fault-free sharded build's merged
    // lattice.closures equals the serial builder's count exactly.
    NumClosures.add(1);
    NumConcepts.add(Out.size());

    if (Stop == BuildStop::Complete && Meter.expired())
      Stop = BuildStop::Time;
    if (Stop != BuildStop::Complete) {
      size_t NumEnumerated = Out.size();
      return makeTruncatedFromIntents(Ctx, std::move(Out), Stop, Meter,
                                      NumEnumerated);
    }

    LatticeBuildResult R;
    R.NumEnumerated = Out.size();
    ThreadPool Pool(ThreadPool::resolveThreadCount(Opts.NumThreads));
    StatusOr<ConceptLattice> L =
        ParallelBuilder::assembleLattice(Ctx, Pool, std::move(Out));
    if (!L) {
      // Well-formed replies whose intents are not every concept: a buggy
      // worker. Its output is dropped whole and the build redone here.
      DegradedBuilds.add();
      CABLE_LOG_WARN("shard", "shard-build-degraded",
                     "worker intents are not every concept; whole build "
                     "runs in-process",
                     {Log::str("cause", L.status().message())});
      return ParallelBuilder::buildLatticeBudgeted(Ctx, Meter,
                                                   Opts.NumThreads);
    }
    R.Lattice = std::move(*L);
    return R;
  } catch (const std::bad_alloc &) {
    // Same boundary containment as the in-process builders.
    Metrics::counter("lattice.oom-contained").add();
    LatticeBuildResult R;
    R.Truncated = true;
    R.BuildStatus =
        truncationStatus(BuildStop::Memory, Meter, "lattice construction");
    R.Lattice = finalizeTruncatedConcepts(Ctx, {}, DeadlineKeepCap);
    return R;
  }
}

ConceptLattice ShardedBuilder::buildLattice(const Context &Ctx,
                                            const ShardOptions &Opts) {
  BudgetMeter Meter{Budget{}};
  return buildLatticeBudgeted(Ctx, Meter, Opts).Lattice;
}
