//===- support/TraceEvent.cpp - Scoped tracing spans -----------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/TraceEvent.h"

#include "support/AtomicFile.h"
#include "support/BuildInfo.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include <unistd.h>

using namespace cable;

std::atomic<bool> TraceLog::Armed{false};
std::atomic<bool> TraceLog::StacksArmed{false};

namespace {

/// Satellite of the overwrite-oldest ring policy: truncation is visible
/// in --stats and run reports, never silent.
Metrics::Counter &SpansDropped = Metrics::counter("trace.spans-dropped");

struct Event {
  std::string Name;
  uint64_t StartUs = 0;
  uint64_t DurUs = 0;
  int64_t Arg = 0;
  bool HasArg = false;
  uint8_t FlowPhase = 0; ///< 0 = span; 's'/'t'/'f' = flow instant
  uint64_t FlowId = 0;
};

/// A span adopted from another process (a shard worker's flush).
struct ForeignSpan {
  int64_t Pid = 0;
  TraceLog::RawSpan S;
};

/// One thread's span ring. Appends come only from the owning thread; the
/// mutex exists to serialize appends against the exporter (spans are
/// coarse — per command, per partition, per fsync — so the uncontended
/// lock is noise).
struct ThreadRing {
  std::mutex Mutex;
  int Tid = 0;
  std::string Name;
  std::vector<Event> Ring;
  size_t Capacity = 0;
  size_t Next = 0;     ///< Ring insertion cursor.
  uint64_t Total = 0;  ///< Spans ever recorded here.
  uint64_t Dropped = 0;
};

struct Global {
  std::mutex Mutex;
  std::vector<std::shared_ptr<ThreadRing>> Rings;
  int NextTid = 1;
  size_t RingCapacity = 65536;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  /// Spans ingested from worker processes, plus their track names.
  /// Bounded so a chatty fleet cannot grow the supervisor without limit.
  std::vector<ForeignSpan> Foreign;
  std::vector<std::pair<int64_t, std::string>> ForeignProcs;
  size_t ForeignCapacity = 1 << 20;
  uint64_t ForeignDropped = 0;
};

/// Intentionally leaked (spans can be recorded during static teardown).
Global &global() {
  static Global *G = new Global;
  return *G;
}

ThreadRing &myRing() {
  thread_local std::shared_ptr<ThreadRing> Mine = [] {
    Global &G = global();
    auto R = std::make_shared<ThreadRing>();
    std::lock_guard<std::mutex> Lock(G.Mutex);
    R->Tid = G.NextTid++;
    R->Capacity = std::max<size_t>(G.RingCapacity, 4);
    G.Rings.push_back(R);
    return R;
  }();
  return *Mine;
}

} // namespace

void TraceLog::setEnabled(bool On) {
  global(); // Pin the epoch before the first span.
  Armed.store(On, std::memory_order_relaxed);
}

uint64_t TraceLog::nowUs() {
  Global &G = global();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - G.Epoch)
          .count());
}

void TraceLog::setThreadName(std::string Name) {
  ThreadRing &R = myRing();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Name = std::move(Name);
}

namespace {

void appendEvent(Event E) {
  ThreadRing &R = myRing();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  if (R.Ring.size() < R.Capacity) {
    R.Ring.push_back(std::move(E));
  } else {
    // Wraparound: overwrite the oldest slot.
    R.Ring[R.Next] = std::move(E);
    ++R.Dropped;
    SpansDropped.add();
  }
  R.Next = (R.Next + 1) % R.Capacity;
  ++R.Total;
}

} // namespace

void TraceLog::record(std::string Name, uint64_t StartUs, uint64_t DurUs,
                      int64_t Arg, bool HasArg) {
  Event E;
  E.Name = std::move(Name);
  E.StartUs = StartUs;
  E.DurUs = DurUs;
  E.Arg = Arg;
  E.HasArg = HasArg;
  appendEvent(std::move(E));
}

void TraceLog::recordFlow(uint64_t FlowId, char Phase) {
  if (!enabled())
    return;
  Event E;
  E.Name = "shard-flow";
  E.StartUs = nowUs();
  E.FlowPhase = static_cast<uint8_t>(Phase);
  E.FlowId = FlowId;
  appendEvent(std::move(E));
}

std::vector<TraceLog::RawSpan> TraceLog::drainSpans() {
  Global &G = global();
  std::vector<std::shared_ptr<ThreadRing>> Rings;
  {
    std::lock_guard<std::mutex> Lock(G.Mutex);
    Rings = G.Rings;
  }
  std::vector<RawSpan> Out;
  for (const auto &RP : Rings) {
    std::lock_guard<std::mutex> Lock(RP->Mutex);
    ThreadRing &R = *RP;
    size_t N = R.Ring.size();
    size_t First = N < R.Capacity ? 0 : R.Next;
    for (size_t I = 0; I < N; ++I) {
      Event &E = R.Ring[(First + I) % N];
      RawSpan S;
      S.Name = std::move(E.Name);
      S.StartUs = E.StartUs;
      S.DurUs = E.DurUs;
      S.Arg = E.Arg;
      S.HasArg = E.HasArg;
      S.FlowPhase = E.FlowPhase;
      S.FlowId = E.FlowId;
      S.Tid = R.Tid;
      S.ThreadName = R.Name;
      Out.push_back(std::move(S));
    }
    R.Ring.clear();
    R.Next = 0;
  }
  return Out;
}

void TraceLog::ingestRemote(int64_t Pid, std::string_view ProcessName,
                            std::vector<RawSpan> Spans, uint64_t DroppedDelta) {
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  bool Known = false;
  for (const auto &[P, Name] : G.ForeignProcs)
    Known = Known || P == Pid;
  if (!Known)
    G.ForeignProcs.emplace_back(Pid, std::string(ProcessName));
  G.ForeignDropped += DroppedDelta;
  for (RawSpan &S : Spans) {
    if (G.Foreign.size() >= G.ForeignCapacity) {
      ++G.ForeignDropped;
      SpansDropped.add();
      continue;
    }
    ForeignSpan F;
    F.Pid = Pid;
    F.S = std::move(S);
    G.Foreign.push_back(std::move(F));
  }
}

void TraceLog::resetAfterFork() {
  Global &G = global();
  ThreadRing &Mine = myRing();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  // Only the forking thread lives on in the child, so only its ring can
  // ever record again; the others (every thread the parent ever ran)
  // would just be walked by each drain.
  std::erase_if(G.Rings, [&](const std::shared_ptr<ThreadRing> &R) {
    return R.get() != &Mine;
  });
  std::lock_guard<std::mutex> RLock(Mine.Mutex);
  Mine.Ring.clear();
  Mine.Next = 0;
  Mine.Total = 0;
  Mine.Dropped = 0;
  G.Foreign.clear();
  G.ForeignProcs.clear();
  G.ForeignDropped = 0;
}

uint64_t TraceLog::spanCount() {
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  uint64_t N = 0;
  for (const auto &R : G.Rings) {
    std::lock_guard<std::mutex> RLock(R->Mutex);
    N += R->Total;
  }
  return N;
}

uint64_t TraceLog::droppedCount() {
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  uint64_t N = G.ForeignDropped; // Remote losses reported via ingestRemote.
  for (const auto &R : G.Rings) {
    std::lock_guard<std::mutex> RLock(R->Mutex);
    N += R->Dropped;
  }
  return N;
}

void TraceLog::reset() {
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  for (const auto &R : G.Rings) {
    std::lock_guard<std::mutex> RLock(R->Mutex);
    R->Ring.clear();
    R->Next = 0;
    R->Total = 0;
    R->Dropped = 0;
    R->Capacity = std::max<size_t>(G.RingCapacity, 4);
  }
  G.Foreign.clear();
  G.ForeignProcs.clear();
  G.ForeignDropped = 0;
}

void TraceLog::setRingCapacity(size_t Events) {
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  G.RingCapacity = std::max<size_t>(Events, 4);
}

//===----------------------------------------------------------------------===//
// Active-span stacks. All storage is fixed and pre-allocated (the global
// slot array is static, the per-thread stacks are leaked heap blocks
// registered with a release-stored count), so a signal handler can walk
// every thread's stack with plain loads. Depth is published with release
// stores after the name bytes land; a racing reader sees at worst a stale
// frame, never a torn one.
//===----------------------------------------------------------------------===//

namespace {

struct SpanStack {
  uint32_t Tid = 0;
  char ThreadName[TraceLog::kCrashStackNameBytes] = {0};
  std::atomic<uint32_t> Depth{0};
  char Frames[TraceLog::kCrashStackMaxDepth]
             [TraceLog::kCrashStackNameBytes] = {{0}};
};

constexpr size_t kMaxSpanStacks = 256;
SpanStack *GSpanStacks[kMaxSpanStacks];
std::atomic<size_t> GNumSpanStacks{0};

thread_local SpanStack *MySpanStack = nullptr;

void copyFrameName(char *Dst, std::string_view Name) {
  size_t N = std::min(Name.size(), TraceLog::kCrashStackNameBytes - 1);
  std::memcpy(Dst, Name.data(), N);
  Dst[N] = '\0';
}

SpanStack *mySpanStack() {
  if (MySpanStack)
    return MySpanStack;
  // Resolve the ring first (it takes the global lock itself): the stack
  // shares the ring's tid and thread name so dumps and traces correlate.
  ThreadRing &Ring = myRing();
  auto *S = new SpanStack; // leaked: dumps may outlive the thread
  S->Tid = static_cast<uint32_t>(Ring.Tid);
  {
    std::lock_guard<std::mutex> Lock(Ring.Mutex);
    copyFrameName(S->ThreadName, Ring.Name);
  }
  Global &G = global();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  size_t N = GNumSpanStacks.load(std::memory_order_relaxed);
  if (N >= kMaxSpanStacks) {
    delete S;
    return nullptr; // beyond any plausible thread count; frames just absent
  }
  GSpanStacks[N] = S;
  GNumSpanStacks.store(N + 1, std::memory_order_release);
  MySpanStack = S;
  return S;
}

} // namespace

void TraceLog::setStackCapture(bool On) {
  global(); // pin the epoch/registry like setEnabled does
  StacksArmed.store(On, std::memory_order_relaxed);
}

bool TraceLog::pushCrashStack(std::string_view Name) {
  SpanStack *S = mySpanStack();
  if (!S)
    return false;
  uint32_t D = S->Depth.load(std::memory_order_relaxed);
  if (D >= kCrashStackMaxDepth)
    return false; // deeper frames silently absent from dumps
  copyFrameName(S->Frames[D], Name);
  S->Depth.store(D + 1, std::memory_order_release);
  return true;
}

void TraceLog::popCrashStack() {
  SpanStack *S = MySpanStack;
  if (!S)
    return;
  uint32_t D = S->Depth.load(std::memory_order_relaxed);
  if (D > 0)
    S->Depth.store(D - 1, std::memory_order_release);
}

size_t TraceLog::crashStackCount() {
  return GNumSpanStacks.load(std::memory_order_acquire);
}

bool TraceLog::crashStackRead(size_t I, CrashStackView &Out) {
  if (I >= GNumSpanStacks.load(std::memory_order_acquire))
    return false;
  const SpanStack *S = GSpanStacks[I];
  Out.Tid = S->Tid;
  Out.ThreadName = S->ThreadName;
  uint32_t D = S->Depth.load(std::memory_order_acquire);
  Out.Depth = D < kCrashStackMaxDepth ? D : kCrashStackMaxDepth;
  Out.Frames = &S->Frames[0][0];
  return true;
}

namespace {

/// One trace event, local or foreign. Flow instants ('s'/'t'/'f') bind
/// by (cat, id) to the slice enclosing their timestamp on their track;
/// a finish ('f') needs bp:"e" to attach to the enclosing slice.
void writeEventJson(JsonWriter &W, const Event &E, int64_t Pid, int Tid) {
  W.beginObject();
  W.member("name", std::string_view(E.Name));
  if (E.FlowPhase == 0) {
    W.member("cat", std::string_view("cable"));
    W.member("ph", std::string_view("X"));
    W.member("ts", E.StartUs);
    W.member("dur", E.DurUs);
  } else {
    char Ph[2] = {static_cast<char>(E.FlowPhase), 0};
    W.member("cat", std::string_view("shard"));
    W.member("ph", std::string_view(Ph, 1));
    W.member("id", E.FlowId);
    W.member("ts", E.StartUs);
    if (E.FlowPhase == 'f')
      W.member("bp", std::string_view("e"));
  }
  W.member("pid", Pid);
  W.member("tid", static_cast<int64_t>(Tid));
  if (E.HasArg) {
    W.key("args");
    W.beginObject();
    W.member("n", E.Arg);
    W.endObject();
  }
  W.endObject();
}

void writeMetadataJson(JsonWriter &W, std::string_view MetaName, int64_t Pid,
                       int64_t Tid, bool HasTid, std::string_view Name) {
  W.beginObject();
  W.member("name", MetaName);
  W.member("ph", std::string_view("M"));
  W.member("pid", Pid);
  if (HasTid)
    W.member("tid", Tid);
  W.key("args");
  W.beginObject();
  W.member("name", Name);
  W.endObject();
  W.endObject();
}

} // namespace

std::string TraceLog::exportJson(std::string_view ToolName) {
  Global &G = global();
  int64_t Pid = static_cast<int64_t>(::getpid());

  // Snapshot the ring list, then drain each ring under its own lock.
  std::vector<std::shared_ptr<ThreadRing>> Rings;
  {
    std::lock_guard<std::mutex> Lock(G.Mutex);
    Rings = G.Rings;
  }

  JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  writeMetadataJson(W, "process_name", Pid, 0, false, ToolName);
  uint64_t TotalDropped = 0;
  for (const auto &RP : Rings) {
    std::lock_guard<std::mutex> Lock(RP->Mutex);
    ThreadRing &R = *RP;
    TotalDropped += R.Dropped;
    if (!R.Name.empty())
      writeMetadataJson(W, "thread_name", Pid, R.Tid, true, R.Name);
    // Oldest-first: after wraparound the oldest surviving event sits at
    // the insertion cursor.
    size_t N = R.Ring.size();
    size_t First = N < R.Capacity ? 0 : R.Next;
    for (size_t I = 0; I < N; ++I)
      writeEventJson(W, R.Ring[(First + I) % N], Pid, R.Tid);
  }
  // Spans ingested from worker processes render as their own pid tracks
  // on the same steady-clock timeline (fork preserves the epoch).
  {
    std::lock_guard<std::mutex> Lock(G.Mutex);
    TotalDropped += G.ForeignDropped;
    for (const auto &[FPid, Name] : G.ForeignProcs)
      writeMetadataJson(W, "process_name", FPid, 0, false, Name);
    std::vector<std::pair<int64_t, int>> NamedThreads;
    for (const ForeignSpan &F : G.Foreign) {
      if (!F.S.ThreadName.empty()) {
        std::pair<int64_t, int> Key(F.Pid, F.S.Tid);
        if (std::find(NamedThreads.begin(), NamedThreads.end(), Key) ==
            NamedThreads.end()) {
          NamedThreads.push_back(Key);
          writeMetadataJson(W, "thread_name", F.Pid, F.S.Tid, true,
                            F.S.ThreadName);
        }
      }
      Event E;
      E.Name = F.S.Name;
      E.StartUs = F.S.StartUs;
      E.DurUs = F.S.DurUs;
      E.Arg = F.S.Arg;
      E.HasArg = F.S.HasArg;
      E.FlowPhase = F.S.FlowPhase;
      E.FlowId = F.S.FlowId;
      writeEventJson(W, E, F.Pid, F.S.Tid);
    }
  }
  W.endArray();
  W.key("otherData");
  W.beginObject();
  W.member("tool", ToolName);
  W.member("version", std::string_view(buildinfo::kVersion));
  W.member("git_sha", std::string_view(buildinfo::kGitSha));
  W.member("build_type", std::string_view(buildinfo::kBuildType));
  W.member("sanitize", std::string_view(buildinfo::kSanitize));
  W.member("dropped_events", TotalDropped);
  W.endObject();
  W.member("displayTimeUnit", std::string_view("ms"));
  W.endObject();
  return W.take();
}

Status TraceLog::writeJson(const std::string &Path,
                           std::string_view ToolName) {
  return AtomicFile::write(Path, exportJson(ToolName));
}
