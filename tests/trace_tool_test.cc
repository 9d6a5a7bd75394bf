// tools/egeria_trace itself: merge ordering across skewed per-rank clocks,
// the reconcile tolerance math (relative band + 10 ms absolute floor), and
// --diagnose classification/straggler results on synthetic,
// hand-built trace files where every expected number is known in closed form.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace {

struct ToolRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

ToolRun RunTraceTool(const std::string& args) {
  ToolRun r;
  const std::string cmd = std::string(EGERIA_TRACE_BIN) + " " + args + " 2>&1";
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) {
    return r;
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) {
    r.output.append(buf, n);
  }
  const int rc = ::pclose(p);
  r.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return r;
}

// One complete-event line in the exact one-event-per-line format trace.cc
// emits (ts/dur in microseconds).
std::string SpanLine(int rank, int tid, double ts_us, double dur_us,
                     const char* cat, const char* name) {
  char line[256];
  std::snprintf(line,
                sizeof(line),
                "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                "\"dur\":%.3f,\"cat\":\"%s\",\"name\":\"%s\"},\n",
                rank, tid, ts_us, dur_us, cat, name);
  return line;
}

void WriteTraceFile(const std::string& path, int rank, double sync_us,
                    const std::vector<std::string>& event_lines) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out)) << path;
  out << "{\"displayTimeUnit\":\"ms\",\n";
  out << "\"otherData\":{\"rank\":" << rank << ",\"clock_sync_us\":" << sync_us
      << ",\"dropped_events\":0,\"process_label\":\"synthetic rank " << rank
      << "\"},\n";
  out << "\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":" << rank
      << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"synthetic\"}},\n";
  for (const std::string& line : event_lines) {
    out << line;
  }
  out << "{\"ph\":\"i\",\"pid\":" << rank
      << ",\"tid\":1,\"ts\":0.000,\"s\":\"t\",\"cat\":\"meta\",\"name\":\"end\"}\n";
  out << "]}\n";
}

std::string TmpPath(const char* name) { return ::testing::TempDir() + name; }

// Reads the first event line of `path` whose pid matches and returns its ts.
double MergedTs(const std::string& path, int pid, const char* name) {
  std::ifstream is(path);
  std::string line;
  const std::string pid_pat = "\"pid\":" + std::to_string(pid);
  const std::string name_pat = std::string("\"name\":\"") + name + "\"";
  while (std::getline(is, line)) {
    if (line.rfind("{\"ph\":\"X\"", 0) == 0 &&
        line.find(pid_pat) != std::string::npos &&
        line.find(name_pat) != std::string::npos) {
      const size_t p = line.find("\"ts\":");
      if (p != std::string::npos) {
        return std::strtod(line.c_str() + p + 5, nullptr);
      }
    }
  }
  return -1.0;
}

// Extracts a numeric field from the EGERIA_DIAGNOSIS json line.
bool DiagnosisField(const std::string& output, const char* key, double* out) {
  const size_t d = output.find("EGERIA_DIAGNOSIS ");
  if (d == std::string::npos) {
    return false;
  }
  const std::string pat = std::string("\"") + key + "\":";
  const size_t p = output.find(pat, d);
  if (p == std::string::npos) {
    return false;
  }
  *out = std::strtod(output.c_str() + p + pat.size(), nullptr);
  return true;
}

TEST(TraceToolTest, MergeAlignsSkewedClocksOnSyncStamps) {
  // Rank 1's steady clock reads 4000µs ahead at the shared sync instant, so
  // its events shift by (sync_0 - sync_1) = -4000; a final global lift keeps
  // every timestamp non-negative. Absolute values therefore depend on the
  // lift — the invariant is the cross-rank delta: 5500 - 500 = 5000µs of raw
  // skew collapses to 1000µs of real offset once the clocks are aligned.
  const std::string r0 = TmpPath("/tt_merge_r0.json");
  const std::string r1 = TmpPath("/tt_merge_r1.json");
  const std::string merged = TmpPath("/tt_merged.json");
  WriteTraceFile(r0, 0, 1000.0,
                 {SpanLine(0, 1, 500.0, 100.0, "trainer", "fp")});
  WriteTraceFile(r1, 1, 5000.0,
                 {SpanLine(1, 1, 5500.0, 100.0, "trainer", "fp")});
  const ToolRun run =
      RunTraceTool("--out=" + merged + " " + r0 + " " + r1);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const double ts0 = MergedTs(merged, 0, "fp");
  const double ts1 = MergedTs(merged, 1, "fp");
  ASSERT_GE(ts0, 0.0);
  ASSERT_GE(ts1, 0.0);
  EXPECT_DOUBLE_EQ(ts1 - ts0, 1000.0);
}

TEST(TraceToolTest, ReconcileToleranceBandAndAbsoluteFloor) {
  const std::string r0 = TmpPath("/tt_rec_r0.json");
  // Totals: data=0.1s fp=0.3s bp=0.5s train=1.0s; no opt span at all.
  WriteTraceFile(
      r0, 0, 0.0,
      {SpanLine(0, 1, 0.0, 1000000.0, "trainer", "train"),
       SpanLine(0, 1, 0.0, 100000.0, "trainer", "data"),
       SpanLine(0, 1, 100000.0, 300000.0, "trainer", "fp"),
       SpanLine(0, 1, 400000.0, 500000.0, "trainer", "bp")});

  // In tolerance: every phase within 5%, and the missing opt span passes via
  // the 10 ms absolute floor (result says 4 ms, trace says 0).
  const std::string good_log = TmpPath("/tt_rec_good.log");
  {
    std::ofstream log(good_log, std::ios::trunc);
    log << "EGERIA_RESULT rank=0 data_s=0.102 fp_s=0.295 bp_s=0.510 "
           "opt_s=0.004 train_s=1.010\n";
  }
  ToolRun run = RunTraceTool("--reconcile=" + good_log + " " + r0);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("reconcile: all phases within"),
            std::string::npos);

  // Out of tolerance: train_s off by 20% (and far beyond the 10 ms floor).
  const std::string bad_log = TmpPath("/tt_rec_bad.log");
  {
    std::ofstream log(bad_log, std::ios::trunc);
    log << "EGERIA_RESULT rank=0 data_s=0.100 fp_s=0.300 bp_s=0.500 "
           "opt_s=0.000 train_s=1.200\n";
  }
  run = RunTraceTool("--reconcile=" + bad_log + " " + r0);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("MISMATCH"), std::string::npos);

  // A looser band admits the same 20% skew.
  run = RunTraceTool("--tolerance-pct=25 --reconcile=" + bad_log + " " + r0);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(TraceToolTest, DiagnoseNamesStragglerAndCommWaitBound) {
  // Rank 1 carries a 1.85 s unattributed gap (the injected-delay signature:
  // time inside trainer.train covered by no phase span); rank 0 spends 1.6 s
  // in comm_wait waiting for it. Loads: r0 = 1.0 + 0.3, r1 = 1.0 + 1.85 →
  // skew 2.85/1.3 ≈ 2.19 over the default 2.0 threshold. Each rank runs the
  // ring round after backward: comm_wait (reduce-scatter), opt (shard step),
  // comm_wait (all-gather).
  const std::string r0 = TmpPath("/tt_diag_r0.json");
  const std::string r1 = TmpPath("/tt_diag_r1.json");
  WriteTraceFile(
      r0, 0, 0.0,
      {SpanLine(0, 1, 0.0, 3000000.0, "trainer", "train"),
       SpanLine(0, 1, 0.0, 100000.0, "trainer", "data"),
       SpanLine(0, 1, 100000.0, 300000.0, "trainer", "fp"),
       SpanLine(0, 1, 400000.0, 500000.0, "trainer", "bp"),
       // Ring spans nest inside comm_wait and never add to the breakdown.
       SpanLine(0, 1, 900000.0, 500000.0, "trainer", "comm_wait"),
       SpanLine(0, 1, 900000.0, 500000.0, "ring", "reduce_scatter"),
       SpanLine(0, 1, 1400000.0, 200000.0, "trainer", "opt"),
       SpanLine(0, 1, 1600000.0, 1100000.0, "trainer", "comm_wait"),
       SpanLine(0, 1, 1600000.0, 1100000.0, "ring", "all_gather")});
  WriteTraceFile(
      r1, 1, 0.0,
      {SpanLine(1, 1, 0.0, 3000000.0, "trainer", "train"),
       SpanLine(1, 1, 0.0, 100000.0, "trainer", "data"),
       SpanLine(1, 1, 100000.0, 300000.0, "trainer", "fp"),
       SpanLine(1, 1, 400000.0, 500000.0, "trainer", "bp"),
       SpanLine(1, 1, 900000.0, 25000.0, "trainer", "comm_wait"),
       SpanLine(1, 1, 925000.0, 200000.0, "trainer", "opt"),
       SpanLine(1, 1, 1125000.0, 25000.0, "trainer", "comm_wait")});

  const ToolRun run = RunTraceTool("--diagnose " + r0 + " " + r1);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"classification\":\"comm-wait-bound\""),
            std::string::npos)
      << run.output;
  double v = 0.0;
  ASSERT_TRUE(DiagnosisField(run.output, "straggler_rank", &v)) << run.output;
  EXPECT_EQ(static_cast<int>(v), 1);
  ASSERT_TRUE(DiagnosisField(run.output, "straggler_skew", &v));
  EXPECT_NEAR(v, 2.85 / 1.3, 0.01);
  ASSERT_TRUE(DiagnosisField(run.output, "dominant_seconds", &v));
  EXPECT_NEAR(v, 1.85, 0.001);  // rank 1's gap outweighs rank 0's 1.6 s wait

  // A raised threshold silences the straggler verdict but keeps the class.
  const ToolRun strict =
      RunTraceTool("--diagnose --straggler-skew=5 " + r0 + " " + r1);
  ASSERT_EQ(strict.exit_code, 0) << strict.output;
  ASSERT_TRUE(DiagnosisField(strict.output, "straggler_rank", &v));
  EXPECT_EQ(static_cast<int>(v), -1);
  EXPECT_NE(strict.output.find("straggler: none"), std::string::npos);
}

TEST(TraceToolTest, DiagnoseCountsAStragglersStallOnce) {
  // The shape of scripts/check.sh's injected-delay drill: rank 1 stalls for
  // 2.402 s outside every phase span (its gap), and rank 0 waits 2.405 s for
  // it in comm_wait. Both are the same stall, so the critical path, which
  // takes each rank's comm_wait + gap as one wait, stays within the wall
  // clock: 0.002 + 0.011 + max(2.405 + 0.005, 0.003 + 2.402) = 2.423 s.
  const std::string r0 = TmpPath("/tt_stall_r0.json");
  const std::string r1 = TmpPath("/tt_stall_r1.json");
  WriteTraceFile(
      r0, 0, 0.0,
      {SpanLine(0, 1, 0.0, 2423000.0, "trainer", "train"),
       SpanLine(0, 1, 0.0, 2000.0, "trainer", "data"),
       SpanLine(0, 1, 2000.0, 4000.0, "trainer", "fp"),
       SpanLine(0, 1, 6000.0, 6000.0, "trainer", "bp"),
       SpanLine(0, 1, 12000.0, 2405000.0, "trainer", "comm_wait"),
       SpanLine(0, 1, 2417000.0, 1000.0, "trainer", "opt")});
  WriteTraceFile(
      r1, 1, 0.0,
      {SpanLine(1, 1, 0.0, 2418000.0, "trainer", "train"),
       SpanLine(1, 1, 0.0, 2000.0, "trainer", "data"),
       SpanLine(1, 1, 2000.0, 4000.0, "trainer", "fp"),
       SpanLine(1, 1, 6000.0, 6000.0, "trainer", "bp"),
       SpanLine(1, 1, 2414000.0, 3000.0, "trainer", "comm_wait"),
       SpanLine(1, 1, 2417000.0, 1000.0, "trainer", "opt")});

  const ToolRun run = RunTraceTool("--diagnose " + r0 + " " + r1);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"classification\":\"comm-wait-bound\""),
            std::string::npos)
      << run.output;
  double v = 0.0;
  ASSERT_TRUE(DiagnosisField(run.output, "straggler_rank", &v)) << run.output;
  EXPECT_EQ(static_cast<int>(v), 1);
  double critical_path_s = 0.0;
  double wall_s = 0.0;
  ASSERT_TRUE(DiagnosisField(run.output, "critical_path_s", &critical_path_s));
  ASSERT_TRUE(DiagnosisField(run.output, "wall_s", &wall_s));
  EXPECT_NEAR(wall_s, 2.423, 1e-6);
  EXPECT_LE(critical_path_s, wall_s) << run.output;
  EXPECT_NEAR(critical_path_s, 2.423, 1e-6);
}

TEST(TraceToolTest, DiagnoseClassifiesComputeBoundBalancedRun) {
  // Both ranks identical and compute-heavy: no straggler, compute-bound.
  const std::vector<std::string> events = {
      SpanLine(0, 1, 0.0, 2900000.0, "trainer", "train"),
      SpanLine(0, 1, 0.0, 100000.0, "trainer", "data"),
      SpanLine(0, 1, 100000.0, 1000000.0, "trainer", "fp"),
      SpanLine(0, 1, 1100000.0, 1000000.0, "trainer", "bp"),
      SpanLine(0, 1, 2100000.0, 200000.0, "trainer", "comm_wait"),
      SpanLine(0, 1, 2100000.0, 200000.0, "ring", "star_reduce"),
      SpanLine(0, 1, 2300000.0, 500000.0, "trainer", "opt")};
  const std::string r0 = TmpPath("/tt_cb_r0.json");
  const std::string r1 = TmpPath("/tt_cb_r1.json");
  WriteTraceFile(r0, 0, 0.0, events);
  WriteTraceFile(r1, 1, 0.0, events);  // rank inside lines is cosmetic

  const ToolRun run = RunTraceTool("--diagnose " + r0 + " " + r1);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"classification\":\"compute-bound\""),
            std::string::npos)
      << run.output;
  double v = 0.0;
  ASSERT_TRUE(DiagnosisField(run.output, "straggler_rank", &v));
  EXPECT_EQ(static_cast<int>(v), -1);
  ASSERT_TRUE(DiagnosisField(run.output, "critical_path_s", &v));
  // data 0.1 + compute 2.5 + wait (comm_wait 0.2 + gap 0.1) = 2.9 (== train).
  EXPECT_NEAR(v, 2.9, 0.01);
  // The diagnosis carries no overlap metric: there is one ring schedule.
  EXPECT_FALSE(DiagnosisField(run.output, "overlap_efficiency_pct", &v));
}

}  // namespace
