// Lock-light span tracer emitting Chrome trace-event / Perfetto-compatible
// JSON (see src/obs/README.md for the event taxonomy and how to view traces).
//
// Design constraints, in order:
//  1. Near-zero cost when disabled at runtime: every emit path starts with a
//     single relaxed atomic load (`Enabled()`); the EGERIA_TRACE_SCOPE macro
//     compiles to that load plus two register writes when tracing is off.
//  2. Thread-safe without a global hot lock: events land in a per-thread
//     buffer guarded by a per-buffer mutex. The mutex is uncontended on the
//     emit path (only Flush/Reset ever touch another thread's buffer), so
//     emits cost one uncontended lock — and, unlike a racy lock-free ring,
//     the scheme is trivially TSan-clean.
//  3. Bounded memory: each thread buffers at most kMaxEventsPerThread events;
//     overflow drops the event and counts the drop (reported in the flushed
//     file's otherData.dropped_events so a truncated trace is never mistaken
//     for a complete one).
//
// Category and name strings MUST be string literals (or otherwise outlive the
// final Flush): events store the pointers, not copies. Args are a small
// preformatted JSON object copied inline into the event.
//
// Cross-rank alignment: each rank calls MarkSync() immediately after a
// transport barrier; the steady-clock stamp is written to the trace file's
// otherData.clock_sync_us and tools/egeria_trace shifts each rank's events by
// (sync_rank0 - sync_rank_r) when merging, so one wall-aligned timeline comes
// out of per-process steady clocks.
#ifndef EGERIA_SRC_OBS_TRACE_H_
#define EGERIA_SRC_OBS_TRACE_H_

#include <cstdarg>
#include <cstdint>
#include <string>

namespace egeria {
namespace trace {

// ---------------------------------------------------------------- lifecycle

// True when tracing is on. Single relaxed atomic load; safe to call from any
// thread at any time.
bool Enabled();

// Turns tracing on/off at runtime. Spans opened while enabled still emit
// after a disable (their events are simply dropped by the buffer check);
// spans opened while disabled never emit.
void SetEnabled(bool on);

// Enables tracing iff EGERIA_TRACE is set to a truthy value ("1", "true",
// "on", "yes"; case-insensitive). Idempotent.
void InitFromEnv();

// ------------------------------------------------------------------ metadata

// The rank becomes the `pid` of every event this process emits, which is what
// groups one rank's tracks together after tools/egeria_trace merges per-rank
// files. Default 0. Set once, before threads start emitting.
void SetProcessRank(int rank);
int ProcessRank();

// Human-readable process label ("egeria_worker rank 1"); shows up as the
// process_name metadata row in Perfetto.
void SetProcessLabel(const std::string& label);

// Names the calling thread's track ("trainer", "rank1", "ckpt_writer",
// "hb_monitor"). First call wins; safe to call with tracing disabled.
void SetThreadName(const char* name);

// Records the current steady-clock time as this process's clock-sync point.
// Call immediately after a cross-rank barrier so every rank stamps the same
// global instant; the merge tool aligns timelines on these stamps.
void MarkSync();

// ------------------------------------------------------------------ emission

// Monotonic nanoseconds on the tracer's own clock (steady_clock relative to a
// process-start anchor). Usable even when tracing is disabled.
int64_t NowNs();

// Complete event ("ph":"X"): a span with explicit start and duration.
// `args_json`, when non-null, must be a complete JSON object ("{...}").
void AddComplete(const char* cat, const char* name, int64_t start_ns,
                 int64_t dur_ns, const char* args_json = nullptr);

// Same, but marked low priority: once a thread's buffer passes ~7/8 capacity
// these are dropped (and counted) while normal events keep landing. Use for
// high-volume detail (per-GEMM spans) so it can never crowd out the coarse
// phase spans that tools/egeria_trace reconciles against TrainResult.
void AddCompleteLowPrio(const char* cat, const char* name, int64_t start_ns,
                        int64_t dur_ns, const char* args_json = nullptr);

// Instant event ("ph":"i", thread-scoped) at the current time.
void AddInstant(const char* cat, const char* name,
                const char* args_json = nullptr);

// printf-style instant: formats the args JSON only when tracing is enabled.
// `fmt` must produce a complete JSON object.
void AddInstantF(const char* cat, const char* name, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

// ---------------------------------------------------------------- extraction

// Serializes every thread's buffered events (plus process/thread metadata and
// the clock-sync stamp) as Chrome trace-event JSON at `path`, then clears the
// buffers. One event per line — tools/egeria_trace relies on that. Returns
// false on I/O failure. Safe to call with tracing disabled (flushes whatever
// was buffered while it was enabled).
bool Flush(const std::string& path);

// Same serialization to a string (tests, in-memory inspection).
std::string FlushToString();

// Same serialization WITHOUT clearing the buffers: a read-only snapshot for
// live inspection (the /trace exporter endpoint scrapes this while the run
// keeps appending). Events emitted concurrently may or may not be included.
std::string SnapshotToString();

// Drops all buffered events and zeroes drop counters. Tests only.
void ResetForTest();

// Total events dropped to per-thread buffer overflow since the last flush.
uint64_t DroppedEvents();

// Number of events currently buffered across all threads (tests).
size_t BufferedEventCount();

// --------------------------------------------------------------------- spans

// RAII span: records the start time if tracing is enabled at construction and
// emits a complete event at destruction. SetArgs attaches a formatted JSON
// object (no-op when the span is inactive, so callers can format args
// unconditionally without paying when tracing is off — but prefer guarding
// expensive formatting with `active()`).
class Span {
 public:
  Span(const char* cat, const char* name) {
    if (Enabled()) {
      cat_ = cat;
      name_ = name;
      start_ns_ = NowNs();
    }
  }
  ~Span() {
    if (cat_ != nullptr) {
      AddComplete(cat_, name_, start_ns_, NowNs() - start_ns_,
                  args_[0] != '\0' ? args_ : nullptr);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return cat_ != nullptr; }
  // `fmt` must produce a complete JSON object; truncated to the inline cap.
  void SetArgs(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

 private:
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
  char args_[96] = {0};
};

#define EGERIA_TRACE_CONCAT_INNER(a, b) a##b
#define EGERIA_TRACE_CONCAT(a, b) EGERIA_TRACE_CONCAT_INNER(a, b)

// Usage: EGERIA_TRACE_SCOPE("trainer", "fp");
#define EGERIA_TRACE_SCOPE(cat, name) \
  ::egeria::trace::Span EGERIA_TRACE_CONCAT(egeria_trace_span_, __LINE__)( \
      cat, name)

}  // namespace trace
}  // namespace egeria

#endif  // EGERIA_SRC_OBS_TRACE_H_
