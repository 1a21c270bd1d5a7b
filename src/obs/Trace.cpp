//===- obs/Trace.cpp - Deterministic per-worker span tracer -----------------===//

#include "obs/Trace.h"

#include "obs/AllocHook.h"
#include "obs/BuildInfo.h"
#include "support/StrUtil.h"

#ifndef HCVLIW_NO_TRACE

#include <algorithm>
#include <cstdio>

using namespace hcvliw;
using namespace hcvliw::obs;

//===----------------------------------------------------------------------===//
// TraceBuffer
//===----------------------------------------------------------------------===//

TraceBuffer::TraceBuffer(size_t CapacityPow2, unsigned ThreadId)
    // new Slot[] default-initializes: no byte of the ring is written here.
    : Ring(new Slot[CapacityPow2]), Mask(CapacityPow2 - 1), Tid(ThreadId) {}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {

std::atomic<uint64_t> TracerGenerationCounter{1};

size_t roundUpPow2(size_t N) {
  size_t P = 1;
  while (P < N && P < (size_t(1) << 30))
    P <<= 1;
  return P;
}

} // namespace

Tracer::Tracer()
    : Epoch(std::chrono::steady_clock::now()),
      Generation(
          TracerGenerationCounter.fetch_add(1, std::memory_order_relaxed)) {}

void Tracer::enable(const TraceOptions &O) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Opts = O;
  Opts.BufferEvents = roundUpPow2(std::max<size_t>(Opts.BufferEvents, 16));
  // Restart: drop previously recorded events (buffers whose capacity no
  // longer matches are replaced; the thread map keeps the same slots).
  for (std::unique_ptr<TraceBuffer> &B : Buffers) {
    if (B->capacity() != Opts.BufferEvents) {
      auto Fresh = std::make_unique<TraceBuffer>(Opts.BufferEvents, B->Tid);
      for (auto &KV : PerThread)
        if (KV.second == B.get())
          KV.second = Fresh.get();
      B = std::move(Fresh);
    } else {
      B->Written = 0;
    }
  }
  Epoch = std::chrono::steady_clock::now();
  Enabled_.store(true, std::memory_order_relaxed);
}

/// The thread-local (tracer generation, buffer) cache: one entry per
/// thread, revalidated by generation so a new Tracer at a recycled
/// address never aliases a dead one's buffers.
namespace {
thread_local uint64_t CachedGeneration = 0;
thread_local TraceBuffer *CachedBuffer = nullptr;
} // namespace

TraceBuffer &Tracer::buffer() {
  if (CachedGeneration == Generation)
    return *CachedBuffer;
  return bufferSlow();
}

TraceBuffer &Tracer::bufferSlow() {
  const std::thread::id Self = std::this_thread::get_id();
  auto remember = [&](TraceBuffer *B) -> TraceBuffer & {
    CachedGeneration = Generation;
    CachedBuffer = B;
    return *B;
  };
  size_t Cap;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (auto It = PerThread.find(Self); It != PerThread.end())
      return remember(It->second);
    Cap = Opts.BufferEvents ? roundUpPow2(Opts.BufferEvents)
                            : TraceOptions().BufferEvents;
  }
  // Allocate outside the lock, so one worker's set-up never stalls
  // another's first span. Only this thread registers Self, so nothing
  // can have registered it in between.
  auto Fresh = std::make_unique<TraceBuffer>(Cap, 0);
  std::lock_guard<std::mutex> Lock(Mutex);
  Fresh->Tid = static_cast<unsigned>(Buffers.size());
  Buffers.push_back(std::move(Fresh));
  PerThread[Self] = Buffers.back().get();
  return remember(Buffers.back().get());
}

uint64_t Tracer::totalEvents() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t N = 0;
  for (const auto &B : Buffers)
    N += B->written();
  return N;
}

uint64_t Tracer::droppedEvents() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t N = 0;
  for (const auto &B : Buffers)
    N += B->dropped();
  return N;
}

size_t Tracer::numBuffers() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Buffers.size();
}

//===----------------------------------------------------------------------===//
// Span
//===----------------------------------------------------------------------===//

void Span::open(Tracer *Tr, const char *StaticName, std::string_view Suffix) {
  T = Tr;
  size_t N = std::min<size_t>(std::strlen(StaticName),
                              TraceEvent::NameCap - 1);
  std::memcpy(Name, StaticName, N);
  if (!Suffix.empty()) {
    size_t S = std::min<size_t>(Suffix.size(), TraceEvent::NameCap - 1 - N);
    std::memcpy(Name + N, Suffix.data(), S);
    N += S;
  }
  Name[N] = '\0';
  Allocs0 = allocCount();
  StartNs = Tr->nowNs();
}

void Span::close() {
  if (!T)
    return;
  TraceEvent E;
  uint64_t End = T->nowNs();
  std::memcpy(E.Name, Name, TraceEvent::NameCap);
  E.StartNs = StartNs;
  E.DurNs = End > StartNs ? End - StartNs : 0;
  uint64_t Allocs1 = allocCount();
  E.AllocDelta = Allocs1 > Allocs0 ? Allocs1 - Allocs0 : 0;
  E.NumArgs = NumArgs;
  for (unsigned I = 0; I < NumArgs; ++I) {
    E.ArgKey[I] = ArgKey[I];
    E.ArgVal[I] = ArgVal[I];
  }
  T->buffer().push(E);
  T = nullptr;
}

//===----------------------------------------------------------------------===//
// Chrome-trace-event export
//===----------------------------------------------------------------------===//

namespace {

void appendEvent(std::string &J, const TraceEvent &E, unsigned Tid,
                 bool HaveAllocHook) {
  // ts/dur are microseconds (the trace-event convention); %.3f keeps
  // nanosecond resolution.
  J += "{\"name\": \"";
  J += jsonEscape(E.Name);
  J += formatString("\", \"cat\": \"hcvliw\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u",
                    static_cast<double>(E.StartNs) / 1000.0,
                    static_cast<double>(E.DurNs) / 1000.0, Tid);
  if (E.NumArgs > 0 || HaveAllocHook) {
    J += ", \"args\": {";
    bool First = true;
    if (HaveAllocHook) {
      J += formatString("\"allocs\": %llu",
                        static_cast<unsigned long long>(E.AllocDelta));
      First = false;
    }
    for (unsigned I = 0; I < E.NumArgs; ++I) {
      if (!First)
        J += ", ";
      First = false;
      J += '"';
      J += jsonEscape(E.ArgKey[I]);
      J += formatString("\": %lld", static_cast<long long>(E.ArgVal[I]));
    }
    J += "}";
  }
  J += "}";
}

} // namespace

std::string Tracer::chromeTraceJson() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string J = "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": ";
  uint64_t Total = 0, Dropped = 0;
  for (const auto &B : Buffers) {
    Total += B->written();
    Dropped += B->dropped();
  }
  // Provenance header: which build produced this trace.
  std::string Build = buildInfoJson();
  J += formatString("{\"build\": %s, \"total_events\": %llu, "
                    "\"dropped_events\": %llu, \"workers\": %zu}",
                    Build.c_str(), static_cast<unsigned long long>(Total),
                    static_cast<unsigned long long>(Dropped),
                    Buffers.size());
  J += ",\n\"traceEvents\": [";
  bool HaveAllocHook =
      AllocCounterPtr.load(std::memory_order_acquire) != nullptr;
  bool First = true;
  for (const auto &B : Buffers) {
    // Thread-name metadata so Perfetto labels the worker tracks.
    J += First ? "\n " : ",\n ";
    First = false;
    J += formatString("{\"name\": \"thread_name\", \"ph\": \"M\", "
                      "\"pid\": 1, \"tid\": %u, "
                      "\"args\": {\"name\": \"%s\"}}",
                      B->Tid,
                      B->Tid == 0 ? "main" : formatString("worker-%u", B->Tid)
                                                 .c_str());
    // Oldest surviving event first (a wrapped ring starts mid-stream).
    uint64_t Kept = std::min<uint64_t>(B->Written, B->capacity());
    uint64_t Start = B->Written - Kept;
    for (uint64_t I = Start; I < B->Written; ++I) {
      J += ",\n ";
      appendEvent(J, B->event(I), B->Tid, HaveAllocHook);
    }
  }
  J += "\n]\n}\n";
  return J;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::string J = chromeTraceJson();
  std::FILE *Out = std::fopen(Path.c_str(), "wb");
  if (!Out) {
    std::fprintf(stderr, "warning: cannot write trace file %s\n",
                 Path.c_str());
    return false;
  }
  std::fwrite(J.data(), 1, J.size(), Out);
  std::fclose(Out);
  return true;
}

#else // HCVLIW_NO_TRACE

#include <cstdio>

using namespace hcvliw;
using namespace hcvliw::obs;

std::string Tracer::chromeTraceJson() const {
  // Compiled-out tracer: an empty but well-formed trace, still carrying
  // the provenance header.
  std::string J = "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": ";
  J += "{\"build\": " + buildInfoJson() +
       ", \"total_events\": 0, \"dropped_events\": 0, \"workers\": 0, "
       "\"compiled_out\": true}";
  J += ",\n\"traceEvents\": []\n}\n";
  return J;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::string J = chromeTraceJson();
  std::FILE *Out = std::fopen(Path.c_str(), "wb");
  if (!Out) {
    std::fprintf(stderr, "warning: cannot write trace file %s\n",
                 Path.c_str());
    return false;
  }
  std::fwrite(J.data(), 1, J.size(), Out);
  std::fclose(Out);
  return true;
}

#endif // HCVLIW_NO_TRACE
