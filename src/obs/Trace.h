//===- obs/Trace.h - Deterministic per-worker span tracer --------*- C++ -*-===//
///
/// \file
/// The tracing half of the observability layer (src/obs/): RAII Span
/// scopes recorded into per-worker ring buffers and exported as a
/// Chrome-trace-event JSON file that loads directly in Perfetto or
/// chrome://tracing.
///
/// Design constraints, in order:
///
///   - *Tracing never perturbs results.* Spans only observe: they read
///     the steady clock and append fixed-size records to the calling
///     thread's own buffer. No span takes a lock on the hot path, no
///     span allocates, and nothing downstream reads trace state — so a
///     suite run with tracing enabled is bit-identical to one with it
///     disabled, for any thread count (pinned by
///     tests/obs/TraceSuiteIdentityTest).
///   - *Off means free.* A Span constructed against a null tracer or a
///     disabled one is a single branch; with HCVLIW_NO_TRACE defined
///     the whole layer compiles down to empty inline stubs.
///   - *Per-worker buffers.* Each thread that opens a span gets its own
///     ring buffer (thread-keyed, exactly like the Session's
///     ScheduleScratchPool arenas), so concurrent workers never
///     contend. A full ring wraps, overwriting the *oldest* records:
///     complete-events are written at span end, so the outermost spans
///     (program, suite) finish last and always survive a wrap.
///
/// Ownership contract: the Tracer outlives every Span opened against it
/// and every thread that traced through it; export (chromeTraceJson /
/// writeChromeTrace) requires that no span is concurrently open —
/// the tools export after the run completes.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_OBS_TRACE_H
#define HCVLIW_OBS_TRACE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#ifndef HCVLIW_NO_TRACE
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>
#endif

namespace hcvliw {
namespace obs {

/// One completed span: fixed size, copied into the ring by value. Arg
/// keys must be string literals (the record stores the pointer).
struct TraceEvent {
  static constexpr unsigned NameCap = 48;
  static constexpr unsigned MaxArgs = 4;
  char Name[NameCap];
  uint64_t StartNs = 0; ///< relative to the tracer's enable() epoch
  uint64_t DurNs = 0;
  uint64_t AllocDelta = 0; ///< heap allocations inside the span (0 when
                           ///< no alloc hook is installed; obs/AllocHook.h)
  unsigned NumArgs = 0;
  const char *ArgKey[MaxArgs] = {nullptr, nullptr, nullptr, nullptr};
  int64_t ArgVal[MaxArgs] = {0, 0, 0, 0};
};

struct TraceOptions {
  /// Ring capacity per worker thread, in events (rounded up to a power
  /// of two). A full ring wraps and overwrites the oldest events; the
  /// exporter reports how many were lost.
  size_t BufferEvents = 1u << 16;
};

#ifndef HCVLIW_NO_TRACE

/// One worker thread's ring. Written only by its owner thread; read by
/// the exporter after the run (see the Tracer ownership contract).
///
/// The storage is left uninitialized: a default 64k-event ring is ~9 MB,
/// and zeroing it would bill several milliseconds to each worker's first
/// span. A slot is written by push() before anything reads it (the
/// exporter reads only the Written slots), so pages are touched as
/// events arrive.
class TraceBuffer {
  friend class Tracer;
  static_assert(std::is_trivially_copyable_v<TraceEvent> &&
                    std::is_trivially_destructible_v<TraceEvent>,
                "ring slots are raw storage");
  struct alignas(TraceEvent) Slot {
    unsigned char Bytes[sizeof(TraceEvent)];
  };
  std::unique_ptr<Slot[]> Ring; ///< capacity is a power of two
  size_t Mask = 0;
  uint64_t Written = 0; ///< events ever pushed (wraps overwrite)
  unsigned Tid = 0;     ///< registration order; trace-only identity

  /// The event pushed as number \p I (I < Written, not yet overwritten).
  const TraceEvent &event(uint64_t I) const {
    return *std::launder(
        reinterpret_cast<const TraceEvent *>(&Ring[I & Mask]));
  }

public:
  explicit TraceBuffer(size_t CapacityPow2, unsigned Tid);
  void push(const TraceEvent &E) {
    new (&Ring[Written++ & Mask]) TraceEvent(E);
  }
  size_t capacity() const { return Mask + 1; }
  uint64_t written() const { return Written; }
  uint64_t dropped() const {
    return Written > capacity() ? Written - capacity() : 0;
  }
};

class Tracer {
  std::atomic<bool> Enabled_{false};
  TraceOptions Opts;
  std::chrono::steady_clock::time_point Epoch;
  uint64_t Generation; ///< distinguishes tracer instances for the
                       ///< thread-local buffer cache
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<TraceBuffer>> Buffers;
  std::unordered_map<std::thread::id, TraceBuffer *> PerThread;

  TraceBuffer &bufferSlow();

public:
  Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Starts (or restarts) recording: resets every buffer and the time
  /// epoch. Not callable while spans are open.
  void enable(const TraceOptions &O = TraceOptions());
  /// Stops recording (already-buffered events stay exportable).
  void disable() { Enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return Enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the enable() epoch.
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  /// The calling thread's ring (created on first use; cached in a
  /// thread-local afterwards, so the steady state takes no lock).
  TraceBuffer &buffer();

  uint64_t totalEvents() const;   ///< events recorded (dropped included)
  uint64_t droppedEvents() const; ///< events lost to ring wraps
  size_t numBuffers() const;

  /// The whole trace as a Chrome-trace-event JSON object (loads in
  /// Perfetto / chrome://tracing): {"traceEvents": [...], "otherData":
  /// {build provenance, drop counts}}. Call only when no span is open.
  std::string chromeTraceJson() const;
  /// Writes chromeTraceJson() to \p Path; false (with a warning on
  /// stderr) on IO errors.
  bool writeChromeTrace(const std::string &Path) const;
};

/// RAII span scope. Usage:
///
///   obs::Span Sp(Trace, "part.coarsen");         // static name
///   obs::Span Sp(Trace, "program:", Prog.Name);  // name + suffix
///   Sp.arg("placements", SR.Placements);          // literal keys only
///
/// Cost when \p T is null or disabled: one branch. The span records one
/// complete-event (start, duration, alloc delta, args) into the calling
/// thread's ring at destruction.
class Span {
  Tracer *T = nullptr;
  uint64_t StartNs = 0;
  uint64_t Allocs0 = 0;
  char Name[TraceEvent::NameCap];
  unsigned NumArgs = 0;
  const char *ArgKey[TraceEvent::MaxArgs];
  int64_t ArgVal[TraceEvent::MaxArgs];

  void open(Tracer *Tr, const char *StaticName, std::string_view Suffix);

public:
  Span(Tracer *Tr, const char *StaticName) {
    if (Tr && Tr->enabled())
      open(Tr, StaticName, {});
  }
  Span(Tracer *Tr, const char *StaticName, std::string_view Suffix) {
    if (Tr && Tr->enabled())
      open(Tr, StaticName, Suffix);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span() { close(); }

  /// True when this span is actually recording (tracer on at open).
  bool active() const { return T != nullptr; }

  /// Attaches a counter to the span (\p Key must be a string literal;
  /// at most TraceEvent::MaxArgs stick, extras are dropped).
  void arg(const char *Key, int64_t Value) {
    if (!T || NumArgs >= TraceEvent::MaxArgs)
      return;
    ArgKey[NumArgs] = Key;
    ArgVal[NumArgs] = Value;
    ++NumArgs;
  }

  /// Ends the span early (the destructor is then a no-op).
  void close();
};

#else // HCVLIW_NO_TRACE: the whole layer compiles to empty stubs.

class TraceBuffer {};

class Tracer {
public:
  Tracer() = default;
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;
  void enable(const TraceOptions & = TraceOptions()) {}
  void disable() {}
  bool enabled() const { return false; }
  uint64_t nowNs() const { return 0; }
  uint64_t totalEvents() const { return 0; }
  uint64_t droppedEvents() const { return 0; }
  size_t numBuffers() const { return 0; }
  std::string chromeTraceJson() const;
  bool writeChromeTrace(const std::string &Path) const;
};

class Span {
public:
  Span(Tracer *, const char *) {}
  Span(Tracer *, const char *, std::string_view) {}
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  bool active() const { return false; }
  void arg(const char *, int64_t) {}
  void close() {}
};

#endif // HCVLIW_NO_TRACE

} // namespace obs
} // namespace hcvliw

#endif // HCVLIW_OBS_TRACE_H
