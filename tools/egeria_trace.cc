// egeria_trace: merge per-rank trace files into one Perfetto-loadable
// timeline and summarize/reconcile the per-phase span totals.
//
//   egeria_trace [--out=merged.json] [--reconcile=rank_0.log]
//                [--tolerance-pct=5] [--diagnose] [--straggler-skew=2]
//                trace_rank0.json [trace_rank1.json ...]
//
// Input files are the Chrome trace-event JSON emitted by trace::Flush — one
// event per line (the tracer guarantees that), with the per-process clock-sync
// stamp in otherData.clock_sync_us. The merge shifts every rank's timestamps
// by (sync_rank0 - sync_rank_r), so the per-process steady clocks land on one
// wall-aligned timeline (every rank stamps MarkSync right after the initial
// weight broadcast — the same global instant). A final global offset keeps all
// merged timestamps non-negative.
//
// The summary sums complete-event ("X") durations per rank per cat.name. With
// --reconcile=LOG, the rank-0 totals for trainer.data/fp/bp/opt/train must
// match the data_s/fp_s/bp_s/opt_s/train_s fields of the EGERIA_RESULT line
// in LOG within --tolerance-pct (default 5%, with a 10 ms absolute floor for
// sub-noise phases); any mismatch exits 1. This closes the loop between the
// trace, the metrics registry, and RankTrainResult — all three are fed by the
// same obs::ScopedPhase intervals, so a reconcile failure means clock or
// plumbing breakage, not legitimate skew.
//
// --diagnose runs the bottleneck diagnosis engine over the merged timeline:
// a per-rank phase breakdown with the unattributed gap (time inside
// trainer.train covered by no phase span — where cross-rank waits like a
// frontier broadcast stalled behind a straggler land), a critical path (the
// slowest rank's data, compute and wait, where a rank's wait is its comm_wait
// plus its gap), a data-/compute-/comm-wait-bound
// classification naming the dominant phase and rank, and straggler detection
// (per-rank load = compute + gap; skew = max/median, reported when it exceeds
// --straggler-skew). Output is a human report plus one machine-readable
// `EGERIA_DIAGNOSIS {json}` line that scripts/bench_trajectory.py records as
// advisory metrics.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct TraceEvent {
  char ph = 'X';
  int rank = 0;
  int tid = 0;
  double ts_us = 0.0;   // merged (shifted) timestamp
  double dur_us = 0.0;  // 'X' only
  std::string cat;
  std::string name;
  std::string args;  // raw JSON object, may be empty
};

struct RankFile {
  int rank = 0;
  double sync_us = -1.0;
  uint64_t dropped = 0;
  std::string label;
  std::vector<TraceEvent> events;               // ph 'X' or 'i'
  std::vector<std::pair<int, std::string>> threads;  // tid -> name
};

// ---- minimal line-wise JSON field extraction (format written by trace.cc) --

bool FindNumber(const std::string& line, const char* key, double* out) {
  const std::string pat = std::string("\"") + key + "\":";
  const size_t p = line.find(pat);
  if (p == std::string::npos) {
    return false;
  }
  *out = std::strtod(line.c_str() + p + pat.size(), nullptr);
  return true;
}

bool FindString(const std::string& line, const char* key, std::string* out) {
  const std::string pat = std::string("\"") + key + "\":\"";
  const size_t p = line.find(pat);
  if (p == std::string::npos) {
    return false;
  }
  const size_t start = p + pat.size();
  size_t end = start;
  while (end < line.size() && line[end] != '"') {
    if (line[end] == '\\') {
      ++end;
    }
    ++end;
  }
  *out = line.substr(start, end - start);
  return true;
}

// The args value is a complete JSON object with no nested objects (the tracer
// caps it at 96 preformatted chars), so the first '}' closes it.
bool FindArgs(const std::string& line, std::string* out) {
  const size_t p = line.find("\"args\":{");
  if (p == std::string::npos) {
    return false;
  }
  const size_t start = p + 7;
  const size_t end = line.find('}', start);
  if (end == std::string::npos) {
    return false;
  }
  *out = line.substr(start, end - start + 1);
  return true;
}

bool ParseRankFile(const std::string& path, RankFile* out, std::string* error) {
  std::ifstream is(path);
  if (!is) {
    *error = path + ": cannot open";
    return false;
  }
  bool saw_other_data = false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("\"otherData\":", 0) == 0) {
      double v = 0.0;
      if (FindNumber(line, "rank", &v)) {
        out->rank = static_cast<int>(v);
      }
      if (FindNumber(line, "clock_sync_us", &v)) {
        out->sync_us = v;
      }
      if (FindNumber(line, "dropped_events", &v)) {
        out->dropped = static_cast<uint64_t>(v);
      }
      FindString(line, "process_label", &out->label);
      saw_other_data = true;
      continue;
    }
    if (line.rfind("{\"ph\":", 0) != 0) {
      continue;  // header/footer lines
    }
    std::string ph;
    if (!FindString(line, "ph", &ph) || ph.empty()) {
      *error = path + ": malformed event line: " + line;
      return false;
    }
    if (ph[0] == 'M') {
      double tid = 0.0;
      std::string tname;
      // thread_name metadata rows carry the name inside args.
      if (FindNumber(line, "tid", &tid) && FindString(line, "name", &tname)) {
        std::string args;
        if (tname == "thread_name" && FindArgs(line, &args)) {
          std::string inner;
          if (FindString(args, "name", &inner)) {
            out->threads.emplace_back(static_cast<int>(tid), inner);
          }
        }
      }
      continue;
    }
    TraceEvent e;
    e.ph = ph[0];
    double v = 0.0;
    if (!FindNumber(line, "ts", &v)) {
      *error = path + ": event without ts: " + line;
      return false;
    }
    e.ts_us = v;
    if (FindNumber(line, "tid", &v)) {
      e.tid = static_cast<int>(v);
    }
    if (e.ph == 'X') {
      if (!FindNumber(line, "dur", &v)) {
        *error = path + ": complete event without dur: " + line;
        return false;
      }
      e.dur_us = v;
    }
    FindString(line, "cat", &e.cat);
    FindString(line, "name", &e.name);
    FindArgs(line, &e.args);
    out->events.push_back(std::move(e));
  }
  if (!saw_other_data) {
    *error = path + ": no otherData header (not an egeria trace?)";
    return false;
  }
  for (TraceEvent& e : out->events) {
    e.rank = out->rank;
  }
  return true;
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
}

bool WriteMerged(const std::string& path, const std::vector<RankFile>& ranks,
                 uint64_t dropped_total) {
  std::string out;
  out.append("{\"displayTimeUnit\":\"ms\",\n");
  out.append("\"otherData\":{\"merged_ranks\":")
      .append(std::to_string(ranks.size()));
  out.append(",\"dropped_events\":").append(std::to_string(dropped_total));
  out.append("},\n\"traceEvents\":[\n");
  bool first = true;
  auto comma = [&out, &first] {
    if (!first) {
      out.append(",\n");
    }
    first = false;
  };
  char buf[64];
  for (const RankFile& rf : ranks) {
    comma();
    std::snprintf(buf, sizeof(buf), "%d", rf.rank);
    out.append("{\"ph\":\"M\",\"pid\":").append(buf);
    out.append(",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"");
    AppendEscaped(&out, rf.label.empty()
                            ? "rank " + std::to_string(rf.rank)
                            : rf.label);
    out.append("\"}}");
    for (const auto& [tid, tname] : rf.threads) {
      comma();
      out.append("{\"ph\":\"M\",\"pid\":").append(buf);
      out.append(",\"tid\":").append(std::to_string(tid));
      out.append(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
      AppendEscaped(&out, tname);
      out.append("\"}}");
    }
  }
  for (const RankFile& rf : ranks) {
    for (const TraceEvent& e : rf.events) {
      comma();
      out.append("{\"ph\":\"");
      out.push_back(e.ph);
      out.append("\",\"pid\":").append(std::to_string(e.rank));
      out.append(",\"tid\":").append(std::to_string(e.tid));
      std::snprintf(buf, sizeof(buf), "%.3f", e.ts_us);
      out.append(",\"ts\":").append(buf);
      if (e.ph == 'X') {
        std::snprintf(buf, sizeof(buf), "%.3f", e.dur_us);
        out.append(",\"dur\":").append(buf);
      }
      if (e.ph == 'i') {
        out.append(",\"s\":\"t\"");
      }
      out.append(",\"cat\":\"");
      AppendEscaped(&out, e.cat);
      out.append("\",\"name\":\"");
      AppendEscaped(&out, e.name);
      out.push_back('"');
      if (!e.args.empty()) {
        out.append(",\"args\":").append(e.args);
      }
      out.push_back('}');
    }
  }
  out.append("\n]}\n");
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    return false;
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
  os.flush();
  return static_cast<bool>(os);
}

// EGERIA_RESULT key=value fields from a worker log (last such line wins).
std::map<std::string, std::string> ParseResultLine(const std::string& path) {
  std::map<std::string, std::string> kv;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("EGERIA_RESULT", 0) != 0) {
      continue;
    }
    kv.clear();
    std::istringstream fields(line);
    std::string field;
    fields >> field;  // the EGERIA_RESULT tag itself
    while (fields >> field) {
      const size_t eq = field.find('=');
      if (eq != std::string::npos) {
        kv[field.substr(0, eq)] = field.substr(eq + 1);
      }
    }
  }
  return kv;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string reconcile_log;
  double tolerance_pct = 5.0;
  bool diagnose = false;
  double straggler_skew_threshold = 2.0;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--out=", 6) == 0) {
      out_path = a + 6;
    } else if (std::strncmp(a, "--reconcile=", 12) == 0) {
      reconcile_log = a + 12;
    } else if (std::strncmp(a, "--tolerance-pct=", 16) == 0) {
      tolerance_pct = std::atof(a + 16);
    } else if (std::strcmp(a, "--diagnose") == 0) {
      diagnose = true;
    } else if (std::strncmp(a, "--straggler-skew=", 17) == 0) {
      straggler_skew_threshold = std::atof(a + 17);
    } else if (a[0] == '-') {
      std::fprintf(stderr, "egeria_trace: unknown flag %s\n", a);
      return 2;
    } else {
      inputs.emplace_back(a);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "usage: egeria_trace [--out=FILE] [--reconcile=RANK0_LOG] "
                 "[--tolerance-pct=P] [--diagnose] [--straggler-skew=S] "
                 "trace_rank0.json [...]\n");
    return 2;
  }

  std::vector<RankFile> ranks;
  for (const std::string& path : inputs) {
    RankFile rf;
    std::string error;
    if (!ParseRankFile(path, &rf, &error)) {
      std::fprintf(stderr, "egeria_trace: %s\n", error.c_str());
      return 1;
    }
    ranks.push_back(std::move(rf));
  }
  std::sort(ranks.begin(), ranks.end(),
            [](const RankFile& a, const RankFile& b) { return a.rank < b.rank; });

  // Clock alignment: shift rank r by (sync_0 - sync_r) so the MarkSync
  // instants coincide, then lift everything to keep timestamps non-negative.
  const double sync0 = ranks[0].sync_us;
  bool aligned = sync0 >= 0.0;
  for (const RankFile& rf : ranks) {
    aligned = aligned && rf.sync_us >= 0.0;
  }
  if (!aligned && ranks.size() > 1) {
    std::fprintf(stderr,
                 "egeria_trace: warning: clock_sync_us missing in some inputs; "
                 "merging without cross-rank alignment\n");
  }
  double min_ts = 0.0;
  uint64_t dropped_total = 0;
  for (RankFile& rf : ranks) {
    const double shift = aligned ? sync0 - rf.sync_us : 0.0;
    dropped_total += rf.dropped;
    for (TraceEvent& e : rf.events) {
      e.ts_us += shift;
      min_ts = std::min(min_ts, e.ts_us);
    }
  }
  if (min_ts < 0.0) {
    for (RankFile& rf : ranks) {
      for (TraceEvent& e : rf.events) {
        e.ts_us -= min_ts;
      }
    }
  }

  if (!out_path.empty()) {
    if (!WriteMerged(out_path, ranks, dropped_total)) {
      std::fprintf(stderr, "egeria_trace: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("merged %zu rank(s) -> %s\n", ranks.size(), out_path.c_str());
  }
  if (dropped_total > 0) {
    std::fprintf(stderr,
                 "egeria_trace: warning: %llu event(s) were dropped to buffer "
                 "overflow; totals are lower bounds\n",
                 static_cast<unsigned long long>(dropped_total));
  }

  // ---- per-phase summary: sum of complete-event durations per rank ----
  struct Total {
    double seconds = 0.0;
    int64_t count = 0;
  };
  std::map<std::pair<int, std::string>, Total> totals;
  for (const RankFile& rf : ranks) {
    for (const TraceEvent& e : rf.events) {
      if (e.ph != 'X') {
        continue;
      }
      Total& t = totals[{rf.rank, e.cat + "." + e.name}];
      t.seconds += e.dur_us * 1e-6;
      t.count += 1;
    }
  }
  std::printf("%-6s %-24s %12s %10s\n", "rank", "phase", "total_s", "count");
  for (const auto& [key, t] : totals) {
    std::printf("%-6d %-24s %12.6f %10lld\n", key.first, key.second.c_str(),
                t.seconds, static_cast<long long>(t.count));
  }

  // ---- reconciliation against the worker's EGERIA_RESULT line ----
  if (!reconcile_log.empty()) {
    const auto kv = ParseResultLine(reconcile_log);
    if (kv.empty()) {
      std::fprintf(stderr, "egeria_trace: no EGERIA_RESULT line in %s\n",
                   reconcile_log.c_str());
      return 1;
    }
    const int rank0 = ranks[0].rank;
    // trainer.opt is the owner's shard step on the ring path and the full
    // replicated step on the reference path; both run on the rank's thread.
    const std::pair<const char*, const char*> phases[] = {
        {"trainer.data", "data_s"}, {"trainer.fp", "fp_s"},
        {"trainer.bp", "bp_s"},     {"trainer.opt", "opt_s"},
        {"trainer.train", "train_s"},
    };
    bool ok = true;
    for (const auto& [span_key, result_key] : phases) {
      const auto it = kv.find(result_key);
      if (it == kv.end()) {
        std::fprintf(stderr,
                     "egeria_trace: EGERIA_RESULT in %s has no %s field "
                     "(worker predates the tracing layer?)\n",
                     reconcile_log.c_str(), result_key);
        ok = false;
        continue;
      }
      const double expect = std::atof(it->second.c_str());
      const auto tit = totals.find({rank0, span_key});
      const double got = tit != totals.end() ? tit->second.seconds : 0.0;
      // Relative tolerance with a 10 ms absolute floor: phases near zero
      // (e.g. the shard step of a tiny model) must not fail on scheduler noise.
      const double tol = std::max(expect * tolerance_pct / 100.0, 0.010);
      const bool match = std::abs(got - expect) <= tol;
      std::printf("reconcile %-14s trace=%.6f result=%.6f tol=%.6f %s\n",
                  span_key, got, expect, tol, match ? "OK" : "MISMATCH");
      ok = ok && match;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "egeria_trace: reconciliation FAILED (trace totals "
                   "disagree with EGERIA_RESULT beyond %.1f%%)\n",
                   tolerance_pct);
      return 1;
    }
    std::printf("reconcile: all phases within %.1f%%\n", tolerance_pct);
  }

  // ---- bottleneck diagnosis over the merged timeline ----
  if (diagnose) {
    struct RankDiag {
      double data = 0.0, fp = 0.0, bp = 0.0, opt = 0.0;
      double comm_wait = 0.0, train = 0.0;
      double compute() const { return fp + bp + opt; }
      // Train-loop time covered by no phase span: cross-rank waits outside
      // the instrumented phases (e.g. a frontier broadcast stalled behind a
      // straggler's injected delay) land here.
      double gap() const {
        return std::max(0.0, train - (data + compute() + comm_wait));
      }
      double load() const { return compute() + gap(); }
      // Every second the rank spent waiting on its peers, inside or outside
      // a comm_wait span.
      double wait() const { return comm_wait + gap(); }
    };
    std::map<int, RankDiag> diag;
    for (const RankFile& rf : ranks) {
      RankDiag& d = diag[rf.rank];
      auto total = [&](const char* key) {
        const auto it = totals.find({rf.rank, key});
        return it != totals.end() ? it->second.seconds : 0.0;
      };
      d.data = total("trainer.data");
      d.fp = total("trainer.fp");
      d.bp = total("trainer.bp");
      d.opt = total("trainer.opt");
      d.comm_wait = total("trainer.comm_wait");
      d.train = total("trainer.train");
    }

    std::printf("\n---- diagnosis ----\n");
    std::printf("%-6s %10s %10s %10s %10s %12s %10s %10s\n", "rank", "data_s",
                "fp_s", "bp_s", "opt_s", "comm_wait_s", "gap_s", "train_s");
    for (const auto& [rank, d] : diag) {
      std::printf("%-6d %10.3f %10.3f %10.3f %10.3f %12.3f %10.3f %10.3f\n",
                  rank, d.data, d.fp, d.bp, d.opt, d.comm_wait, d.gap(),
                  d.train);
    }

    // Per-phase maxima: the slowest rank of each phase bounds the world
    // (data-parallel ranks sync every iteration).
    struct PhaseMax {
      const char* name;
      double seconds = 0.0;
      int rank = 0;
    };
    PhaseMax phase_max[] = {{"data"}, {"compute"}, {"comm_wait"}, {"gap"}, {"wait"}};
    for (const auto& [rank, d] : diag) {
      const double vals[] = {d.data, d.compute(), d.comm_wait, d.gap(), d.wait()};
      for (int i = 0; i < 5; ++i) {
        if (vals[i] > phase_max[i].seconds) {
          phase_max[i].seconds = vals[i];
          phase_max[i].rank = rank;
        }
      }
    }
    // The critical path adds the slowest data, compute and wait. A
    // straggler's stall is its own gap and its peers' comm_wait at the same
    // time, so the path takes each rank's comm_wait + gap as one wait:
    // adding the two maxima would count the stall twice.
    const PhaseMax* path[] = {&phase_max[0], &phase_max[1], &phase_max[4]};
    double critical_path_s = 0.0;
    std::printf("critical path:");
    for (const PhaseMax* pm : path) {
      critical_path_s += pm->seconds;
      std::printf(" %s=%.3fs(rank %d)", pm->name, pm->seconds, pm->rank);
    }
    std::printf(" total=%.3fs\n", critical_path_s);

    double wall_s = 0.0;
    for (const auto& [rank, d] : diag) {
      wall_s = std::max(wall_s, d.train);
    }

    // Classification: which phase's slowest rank dominates the critical path.
    // data/compute name the slow rank directly; comm_wait is symptomatic (the
    // waiter is the victim), so the straggler analysis below names the cause.
    const PhaseMax* dominant = &phase_max[0];
    for (int i = 1; i < 3; ++i) {
      if (phase_max[i].seconds > dominant->seconds) {
        dominant = &phase_max[i];
      }
    }
    // The unattributed gap is a cross-rank wait just like comm_wait: fold it
    // into the comm-wait-bound class rather than inventing a fourth label.
    const char* classification;
    const char* dominant_phase = dominant->name;
    if (std::strcmp(dominant->name, "data") == 0) {
      classification = "data-bound";
    } else if (std::strcmp(dominant->name, "compute") == 0) {
      classification = "compute-bound";
    } else {
      classification = "comm-wait-bound";
    }
    if (phase_max[3].seconds > dominant->seconds) {  // gap dominates all
      classification = "comm-wait-bound";
      dominant_phase = "gap";
      dominant = &phase_max[3];
    }

    // Straggler: the rank whose own work (compute + unattributed stalls)
    // exceeds the median rank's by the skew threshold. comm_wait is excluded
    // from load — waiting on others is the OPPOSITE of straggling.
    std::vector<double> loads;
    int straggler_rank = -1;
    double max_load = 0.0;
    for (const auto& [rank, d] : diag) {
      loads.push_back(d.load());
      if (d.load() > max_load) {
        max_load = d.load();
        straggler_rank = rank;
      }
    }
    std::sort(loads.begin(), loads.end());
    const double median_load = loads[(loads.size() - 1) / 2];
    const double straggler_skew =
        max_load / std::max(median_load, 0.010);
    if (loads.size() < 2 || straggler_skew < straggler_skew_threshold) {
      straggler_rank = -1;
    }

    std::printf("classification: %s (dominant phase %s, %.3fs on rank %d)\n",
                classification, dominant_phase, dominant->seconds,
                dominant->rank);
    if (straggler_rank >= 0) {
      std::printf("straggler: rank %d (load skew %.2fx over the median)\n",
                  straggler_rank, straggler_skew);
    } else {
      std::printf("straggler: none (max load skew %.2fx, threshold %.2fx)\n",
                  straggler_skew, straggler_skew_threshold);
    }
    std::printf(
        "EGERIA_DIAGNOSIS {\"classification\":\"%s\","
        "\"dominant_phase\":\"%s\",\"dominant_rank\":%d,"
        "\"dominant_seconds\":%.6f,\"straggler_rank\":%d,"
        "\"straggler_skew\":%.4f,"
        "\"critical_path_s\":%.6f,\"wall_s\":%.6f,\"ranks\":%zu}\n",
        classification, dominant_phase, dominant->rank, dominant->seconds,
        straggler_rank, straggler_skew, critical_path_s, wall_s, diag.size());
  }
  return 0;
}
