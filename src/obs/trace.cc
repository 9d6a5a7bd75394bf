#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

namespace egeria {
namespace trace {
namespace {

constexpr size_t kMaxEventsPerThread = 1 << 16;  // ~8.5 MB/thread worst case
constexpr size_t kArgsCap = 96;

struct Event {
  const char* cat;
  const char* name;
  int64_t ts_ns;
  int64_t dur_ns;  // complete events only
  char ph;         // 'X' or 'i'
  char args[kArgsCap];
};

struct ThreadBuffer {
  std::mutex mu;
  std::vector<Event> events;
  std::string name;  // thread_name metadata; empty until SetThreadName
  int tid = 0;
  uint64_t dropped = 0;
};

// Registry of every thread buffer ever created. Buffers are shared_ptr so a
// thread may exit (its thread_local reference dies) while Flush can still
// drain what it emitted. The registry only grows; threads are few and
// long-lived in this codebase (trainer or rank, controller, ckpt_writer,
// heartbeat, pool).
struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 1;  // tid 0 is reserved for process-scoped metadata rows
  std::string process_label;
};

std::atomic<bool> g_enabled{false};
std::atomic<int> g_rank{0};
std::atomic<int64_t> g_sync_ns{-1};

Registry& GetRegistry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// All timestamps are relative to this process-start anchor so the emitted
// microsecond values stay small and single-file traces start near t=0.
int64_t Anchor() {
  static const int64_t anchor = SteadyNs();
  return anchor;
}

ThreadBuffer* LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> local = [] {
    auto buf = std::make_shared<ThreadBuffer>();
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    buf->tid = reg.next_tid++;
    reg.buffers.push_back(buf);
    return buf;
  }();
  return local.get();
}

// Low-priority events stop landing at this watermark so coarse phase spans
// always have headroom (see AddCompleteLowPrio in the header).
constexpr size_t kLowPrioLimit = kMaxEventsPerThread - (kMaxEventsPerThread / 8);

void Push(const char* cat, const char* name, char ph, int64_t ts_ns,
          int64_t dur_ns, const char* args_json, bool low_prio = false) {
  ThreadBuffer* b = LocalBuffer();
  std::lock_guard<std::mutex> lock(b->mu);
  if (b->events.size() >= (low_prio ? kLowPrioLimit : kMaxEventsPerThread)) {
    ++b->dropped;
    return;
  }
  b->events.emplace_back();
  Event& e = b->events.back();
  e.cat = cat;
  e.name = name;
  e.ph = ph;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.args[0] = '\0';
  if (args_json != nullptr) {
    std::snprintf(e.args, sizeof(e.args), "%s", args_json);
  }
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out->push_back(c);
  }
}

void AppendMicros(std::string* out, int64_t ns) {
  // Microseconds with fixed 3-decimal (nanosecond) precision, no locale.
  char buf[48];
  int64_t us = ns / 1000;
  int64_t frac = ns % 1000;
  if (frac < 0) {  // events before the anchor cannot happen, but be safe
    frac += 1000;
    us -= 1;
  }
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(us),
                static_cast<long long>(frac));
  out->append(buf);
}

// Serializes all buffers into Chrome trace-event JSON. One event per line:
// tools/egeria_trace parses the output line-wise with no JSON library.
std::string Serialize(bool clear_buffers) {
  Registry& reg = GetRegistry();
  int rank = g_rank.load(std::memory_order_relaxed);

  struct Drained {
    std::vector<Event> events;
    std::string name;
    int tid;
  };
  std::vector<Drained> drained;
  uint64_t dropped = 0;
  std::string label;
  {
    std::lock_guard<std::mutex> reg_lock(reg.mu);
    label = reg.process_label;
    drained.reserve(reg.buffers.size());
    for (auto& buf : reg.buffers) {
      std::lock_guard<std::mutex> lock(buf->mu);
      dropped += buf->dropped;
      Drained d;
      d.name = buf->name;
      d.tid = buf->tid;
      if (clear_buffers) {
        d.events = std::move(buf->events);
        buf->events.clear();
        buf->dropped = 0;
      } else {
        d.events = buf->events;
      }
      drained.push_back(std::move(d));
    }
  }
  if (label.empty()) {
    label = "egeria rank " + std::to_string(rank);
  }

  std::string out;
  size_t total = 0;
  for (const auto& d : drained) total += d.events.size();
  out.reserve(128 * (total + drained.size() + 2) + 512);

  out.append("{\"displayTimeUnit\":\"ms\",\n");
  int64_t sync = g_sync_ns.load(std::memory_order_relaxed);
  out.append("\"otherData\":{\"rank\":").append(std::to_string(rank));
  out.append(",\"clock_sync_us\":");
  if (sync >= 0) {
    AppendMicros(&out, sync - Anchor());
  } else {
    out.append("-1");
  }
  out.append(",\"dropped_events\":").append(std::to_string(dropped));
  out.append(",\"process_label\":\"");
  AppendEscaped(&out, label);
  out.append("\"},\n\"traceEvents\":[\n");

  char pidbuf[32];
  std::snprintf(pidbuf, sizeof(pidbuf), "%d", rank);
  bool first = true;
  auto comma = [&out, &first] {
    if (!first) out.append(",\n");
    first = false;
  };

  comma();
  out.append("{\"ph\":\"M\",\"pid\":").append(pidbuf);
  out.append(",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"");
  AppendEscaped(&out, label);
  out.append("\"}}");

  for (const auto& d : drained) {
    comma();
    out.append("{\"ph\":\"M\",\"pid\":").append(pidbuf);
    out.append(",\"tid\":").append(std::to_string(d.tid));
    out.append(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
    AppendEscaped(&out, d.name.empty() ? "thread_" + std::to_string(d.tid)
                                       : d.name);
    out.append("\"}}");
  }

  for (const auto& d : drained) {
    for (const Event& e : d.events) {
      comma();
      out.push_back('{');
      out.append("\"ph\":\"");
      out.push_back(e.ph);
      out.append("\",\"pid\":").append(pidbuf);
      out.append(",\"tid\":").append(std::to_string(d.tid));
      out.append(",\"ts\":");
      AppendMicros(&out, e.ts_ns);
      if (e.ph == 'X') {
        out.append(",\"dur\":");
        AppendMicros(&out, e.dur_ns);
      }
      if (e.ph == 'i') {
        out.append(",\"s\":\"t\"");
      }
      out.append(",\"cat\":\"").append(e.cat);
      out.append("\",\"name\":\"").append(e.name);
      out.push_back('"');
      if (e.args[0] != '\0') {
        out.append(",\"args\":").append(e.args);
      }
      out.push_back('}');
    }
  }
  out.append("\n]}\n");
  return out;
}

bool TruthyEnv(const char* value) {
  if (value == nullptr) return false;
  std::string v(value);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return v == "1" || v == "true" || v == "on" || v == "yes";
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) {
  Anchor();  // pin the time base before the first event
  g_enabled.store(on, std::memory_order_relaxed);
}

void InitFromEnv() {
  if (TruthyEnv(std::getenv("EGERIA_TRACE"))) SetEnabled(true);
}

void SetProcessRank(int rank) {
  g_rank.store(rank, std::memory_order_relaxed);
}

int ProcessRank() { return g_rank.load(std::memory_order_relaxed); }

void SetProcessLabel(const std::string& label) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.process_label = label;
}

void SetThreadName(const char* name) {
  ThreadBuffer* b = LocalBuffer();
  std::lock_guard<std::mutex> lock(b->mu);
  if (b->name.empty()) b->name = name;
}

void MarkSync() { g_sync_ns.store(SteadyNs(), std::memory_order_relaxed); }

int64_t NowNs() { return SteadyNs() - Anchor(); }

void AddComplete(const char* cat, const char* name, int64_t start_ns,
                 int64_t dur_ns, const char* args_json) {
  if (!Enabled()) return;
  Push(cat, name, 'X', start_ns, dur_ns, args_json);
}

void AddCompleteLowPrio(const char* cat, const char* name, int64_t start_ns,
                        int64_t dur_ns, const char* args_json) {
  if (!Enabled()) return;
  Push(cat, name, 'X', start_ns, dur_ns, args_json, /*low_prio=*/true);
}

void AddInstant(const char* cat, const char* name, const char* args_json) {
  if (!Enabled()) return;
  Push(cat, name, 'i', NowNs(), 0, args_json);
}

void AddInstantF(const char* cat, const char* name, const char* fmt, ...) {
  if (!Enabled()) return;
  char args[kArgsCap];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(args, sizeof(args), fmt, ap);
  va_end(ap);
  Push(cat, name, 'i', NowNs(), 0, args);
}

void Span::SetArgs(const char* fmt, ...) {
  if (cat_ == nullptr) return;
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(args_, sizeof(args_), fmt, ap);
  va_end(ap);
}

bool Flush(const std::string& path) {
  std::string json = Serialize(/*clear_buffers=*/true);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  return static_cast<bool>(out);
}

std::string FlushToString() { return Serialize(/*clear_buffers=*/true); }

std::string SnapshotToString() { return Serialize(/*clear_buffers=*/false); }

void ResetForTest() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  for (auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    buf->events.clear();
    buf->dropped = 0;
  }
}

uint64_t DroppedEvents() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  uint64_t dropped = 0;
  for (auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    dropped += buf->dropped;
  }
  return dropped;
}

size_t BufferedEventCount() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  size_t n = 0;
  for (auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

}  // namespace trace
}  // namespace egeria
