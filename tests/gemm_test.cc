// Kernel-conformance harness for the packed, blocked, multithreaded Gemm
// dispatch (src/tensor/gemm.h), parameterized over dtype x transpose x
// accumulate x shape.
//
// Every microkernel (fp32, fp16-storage in all operand mixes, int8 dot4) is
// checked against an fp64 triple-loop reference that reads the *stored* operand
// values (i.e. after fp16/int8 rounding), with dtype-aware error bounds:
//   - fp32 / fp16 paths: a running-sum bound scaled to fp32 machine epsilon and
//     the element's absolute term sum (gamma_k-style; the fp16 storage rounding
//     itself is exact in the reference, so only fp32 accumulation error
//     remains), plus a bitwise check against an exact emulation of the kernel's
//     documented accumulation contract (per-element fp32 FMA chain in k order,
//     kKc-blocks folded in ascending order).
//   - int8: exact int32 equality (the kernel contract is integer-exact), with
//     the reference asserting the true value fits int32.
// Shapes cover full tiles, edge tiles, every cache-blocking boundary, the
// B-panel fan-out path, and k % 4 != 0 (int8 dot4 padding).
//
// Multithreaded bitwise determinism is locked in per dtype (repeat-run
// stability) and across thread counts (EGERIA_NUM_THREADS=1 vs =8 subprocess
// hash comparison).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <unistd.h>
#include <string>
#include <vector>

#include "src/tensor/compute_pool.h"
#include "src/tensor/gemm.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

// The k-block extent the accumulation contract is specified against (matches
// kKc in gemm.cc; the bitwise emulation below depends on it).
constexpr int64_t kKBlock = 384;

struct GemmCase {
  int64_t m;
  int64_t k;
  int64_t n;
};

// Shapes: degenerate (1x1x1), sub-tile, prime/odd edges, k % 4 in {1,2,3}
// (int8 dot4 tail), k straddling the kKc=384 block boundary, multi-block m
// (the row-parallel dimension), and large-flop problems with m inside a single
// microkernel panel (the B-panel fan-out path).
const GemmCase kCases[] = {
    {1, 1, 1},      {3, 129, 7},    {257, 63, 31},  {6, 16, 6},
    {14, 32, 14},   {2, 500, 3},    {113, 97, 89},  {128, 128, 128},
    {240, 384, 48}, {17, 385, 33},  {1, 7, 513},    {9, 700, 1200},
    {30, 601, 500}, {5, 102, 37},
};

std::vector<float> RandomVec(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) {
    x = rng.NextGaussian() * 0.5F;
  }
  return v;
}

std::vector<_Float16> ToF16(const std::vector<float>& v) {
  std::vector<_Float16> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    out[i] = static_cast<_Float16>(v[i]);
  }
  return out;
}

std::vector<int8_t> ToI8(const std::vector<float>& v) {
  std::vector<int8_t> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    // Map the gaussian floats onto the full signed range deterministically.
    const float scaled = v[i] * 120.0F;
    out[i] = static_cast<int8_t>(
        std::max(-127.0F, std::min(127.0F, std::round(scaled))));
  }
  return out;
}

int64_t SrcIndexA(int64_t i, int64_t p, int64_t m, int64_t k, bool trans_a) {
  return trans_a ? p * m + i : i * k + p;
}

int64_t SrcIndexB(int64_t p, int64_t j, int64_t k, int64_t n, bool trans_b) {
  return trans_b ? j * k + p : p * n + j;
}

// fp64 triple loop over the stored operand values. Also returns the absolute
// term sum per element (for the error bound).
template <class SA, class SB>
void RefGemmF64(const std::vector<SA>& a, const std::vector<SB>& b,
                const std::vector<float>& c0, std::vector<double>& ref,
                std::vector<double>& abs_sum, int64_t m, int64_t k, int64_t n,
                bool trans_a, bool trans_b, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double s = accumulate ? static_cast<double>(c0[static_cast<size_t>(i * n + j)])
                            : 0.0;
      double abss = std::abs(s);
      for (int64_t p = 0; p < k; ++p) {
        const double av =
            static_cast<double>(a[static_cast<size_t>(SrcIndexA(i, p, m, k, trans_a))]);
        const double bv =
            static_cast<double>(b[static_cast<size_t>(SrcIndexB(p, j, k, n, trans_b))]);
        s += av * bv;
        abss += std::abs(av * bv);
      }
      ref[static_cast<size_t>(i * n + j)] = s;
      abs_sum[static_cast<size_t>(i * n + j)] = abss;
    }
  }
}

// Exact emulation of the fp-path accumulation contract: per element, an fp32
// FMA chain over k ascending within each kKc block, block sums folded into C in
// ascending block order (the first block overwriting when accumulate=false).
template <class SA, class SB>
void EmulateF32Contract(const std::vector<SA>& a, const std::vector<SB>& b,
                        std::vector<float>& c, int64_t m, int64_t k, int64_t n,
                        bool trans_a, bool trans_b, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float out = accumulate ? c[static_cast<size_t>(i * n + j)] : 0.0F;
      bool first = !accumulate;
      for (int64_t pc = 0; pc < k; pc += kKBlock) {
        const int64_t kc = std::min(kKBlock, k - pc);
        float acc = 0.0F;
        for (int64_t p = pc; p < pc + kc; ++p) {
          const float av =
              static_cast<float>(a[static_cast<size_t>(SrcIndexA(i, p, m, k, trans_a))]);
          const float bv =
              static_cast<float>(b[static_cast<size_t>(SrcIndexB(p, j, k, n, trans_b))]);
          acc = std::fmaf(av, bv, acc);
        }
        out = first ? acc : out + acc;
        first = false;
      }
      c[static_cast<size_t>(i * n + j)] = out;
    }
  }
}

// One dtype combination of the parameterized conformance run.
enum class Combo { kF32, kF16F16, kF32F16, kF16F32, kI8 };

const char* ComboName(Combo c) {
  switch (c) {
    case Combo::kF32: return "f32xf32";
    case Combo::kF16F16: return "f16xf16";
    case Combo::kF32F16: return "f32xf16";
    case Combo::kF16F32: return "f16xf32";
    case Combo::kI8: return "i8xi8";
  }
  return "?";
}

// Runs the kernel + fp64 reference + contract emulation for one fp-family
// combo and asserts the dtype-aware bounds.
template <class SA, class SB>
void CheckFpCombo(Combo combo, const std::vector<float>& af,
                  const std::vector<float>& bf, const GemmCase& shape,
                  bool trans_a, bool trans_b, bool accumulate, Rng& rng) {
  const int64_t m = shape.m;
  const int64_t k = shape.k;
  const int64_t n = shape.n;
  std::vector<SA> a;
  std::vector<SB> b;
  if constexpr (std::is_same_v<SA, float>) {
    a = af;
  } else {
    a = ToF16(af);
  }
  if constexpr (std::is_same_v<SB, float>) {
    b = bf;
  } else {
    b = ToF16(bf);
  }
  // Seed C with garbage so accumulate=false must fully overwrite it.
  std::vector<float> c = RandomVec(m * n, rng);
  const std::vector<float> c0 = c;
  Gemm(a.data(), b.data(), c.data(), m, k, n, trans_a, trans_b, accumulate);

  std::vector<double> ref(static_cast<size_t>(m * n));
  std::vector<double> abs_sum(static_cast<size_t>(m * n));
  RefGemmF64(a, b, c0, ref, abs_sum, m, k, n, trans_a, trans_b, accumulate);
  std::vector<float> emulated = c0;
  EmulateF32Contract(a, b, emulated, m, k, n, trans_a, trans_b, accumulate);

  // gamma_k-style running-sum bound in fp32 epsilon, scaled by the element's
  // absolute term sum (the fp16 storage rounding is applied identically in the
  // reference, so only accumulation error remains for every combo).
  const double eps32 = 1.1920929e-7;
  for (int64_t i = 0; i < m * n; ++i) {
    const double bound =
        static_cast<double>(k + 2) * eps32 * (abs_sum[static_cast<size_t>(i)] + 1.0);
    ASSERT_NEAR(static_cast<double>(c[static_cast<size_t>(i)]),
                ref[static_cast<size_t>(i)], bound)
        << ComboName(combo) << " i=" << i << " m=" << m << " k=" << k
        << " n=" << n << " ta=" << trans_a << " tb=" << trans_b
        << " acc=" << accumulate;
#if defined(__FMA__)
    // The bitwise check assumes the compiler contracts the microkernel's
    // mul+add into FMA (the gcc/clang default at -O3 on FMA targets). Without
    // FMA hardware the kernel legitimately rounds twice per step, so only the
    // gamma_k bound above applies there.
    ASSERT_EQ(c[static_cast<size_t>(i)], emulated[static_cast<size_t>(i)])
        << "accumulation contract (fp32 FMA chain, " << kKBlock
        << "-wide k blocks) violated: " << ComboName(combo) << " i=" << i
        << " m=" << m << " k=" << k << " n=" << n << " ta=" << trans_a
        << " tb=" << trans_b << " acc=" << accumulate;
#endif
  }
}

void CheckI8Combo(const std::vector<float>& af, const std::vector<float>& bf,
                  const GemmCase& shape, bool trans_a, bool trans_b,
                  bool accumulate, Rng& rng) {
  const int64_t m = shape.m;
  const int64_t k = shape.k;
  const int64_t n = shape.n;
  const std::vector<int8_t> a = ToI8(af);
  const std::vector<int8_t> b = ToI8(bf);
  std::vector<int32_t> c(static_cast<size_t>(m * n));
  for (auto& v : c) {
    v = static_cast<int32_t>(rng.NextGaussian() * 1000.0F);  // garbage seed
  }
  const std::vector<int32_t> c0 = c;
  Gemm(a.data(), b.data(), c.data(), m, k, n, trans_a, trans_b, accumulate);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int64_t s = accumulate ? c0[static_cast<size_t>(i * n + j)] : 0;
      for (int64_t p = 0; p < k; ++p) {
        s += static_cast<int64_t>(a[static_cast<size_t>(SrcIndexA(i, p, m, k, trans_a))]) *
             static_cast<int64_t>(b[static_cast<size_t>(SrcIndexB(p, j, k, n, trans_b))]);
      }
      ASSERT_GE(s, INT32_MIN);  // test shapes must stay integer-exact
      ASSERT_LE(s, INT32_MAX);
      ASSERT_EQ(static_cast<int64_t>(c[static_cast<size_t>(i * n + j)]), s)
          << "i8xi8 i=" << i << " j=" << j << " m=" << m << " k=" << k
          << " n=" << n << " ta=" << trans_a << " tb=" << trans_b
          << " acc=" << accumulate;
    }
  }
}

class GemmConformanceTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmConformanceTest, AllDtypeTransposeAccumulateModesMatchReference) {
  const GemmCase shape = GetParam();
  Rng rng(shape.m * 1000003 + shape.k * 1009 + shape.n);
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      for (const bool accumulate : {false, true}) {
        const std::vector<float> af = RandomVec(shape.m * shape.k, rng);
        const std::vector<float> bf = RandomVec(shape.k * shape.n, rng);
        CheckFpCombo<float, float>(Combo::kF32, af, bf, shape, trans_a, trans_b,
                                   accumulate, rng);
        CheckFpCombo<_Float16, _Float16>(Combo::kF16F16, af, bf, shape, trans_a,
                                         trans_b, accumulate, rng);
        CheckFpCombo<float, _Float16>(Combo::kF32F16, af, bf, shape, trans_a,
                                      trans_b, accumulate, rng);
        CheckFpCombo<_Float16, float>(Combo::kF16F32, af, bf, shape, trans_a,
                                      trans_b, accumulate, rng);
        CheckI8Combo(af, bf, shape, trans_a, trans_b, accumulate, rng);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmConformanceTest, ::testing::ValuesIn(kCases));

TEST(GemmTest, BatchedMatchesPerItem) {
  Rng rng(99);
  const int64_t batch = 5;
  const int64_t m = 33;
  const int64_t k = 65;
  const int64_t n = 17;
  const std::vector<float> a = RandomVec(batch * m * k, rng);
  const std::vector<float> b = RandomVec(batch * k * n, rng);
  std::vector<float> c_batched(static_cast<size_t>(batch * m * n), 0.0F);
  std::vector<float> c_items = c_batched;
  BatchedGemm(a.data(), b.data(), c_batched.data(), batch, m, k, n,
              /*trans_a=*/false, /*trans_b=*/true, /*accumulate=*/false);
  for (int64_t bi = 0; bi < batch; ++bi) {
    Gemm(a.data() + bi * m * k, b.data() + bi * k * n, c_items.data() + bi * m * n,
         m, k, n, /*trans_a=*/false, /*trans_b=*/true, /*accumulate=*/false);
  }
  // Batch parallelism must not change any item's arithmetic.
  EXPECT_EQ(0, std::memcmp(c_batched.data(), c_items.data(),
                           c_batched.size() * sizeof(float)));
}

// ---------------------------------------------------------------- determinism
//
// The shape spans several row blocks so runs are actually parallel whenever the
// pool has threads; each dtype must produce bitwise-identical bytes on every
// run (threads own disjoint C tiles; per-element arithmetic order is fixed).

template <class Fn>
void ExpectBitwiseStable(const char* what, int64_t out_bytes, const Fn& run) {
  std::vector<char> first(static_cast<size_t>(out_bytes));
  run(first.data());
  for (int round = 0; round < 5; ++round) {
    std::vector<char> again(static_cast<size_t>(out_bytes));
    run(again.data());
    ASSERT_EQ(0, std::memcmp(first.data(), again.data(), first.size()))
        << what << " diverged on round " << round << " at "
        << ComputePoolThreads() << " threads";
  }
}

TEST(GemmDeterminism, Fp32MultithreadedOutputIsBitwiseStable) {
  Rng rng(7);
  const int64_t m = 461;
  const int64_t k = 257;
  const int64_t n = 131;
  const std::vector<float> a = RandomVec(m * k, rng);
  const std::vector<float> b = RandomVec(k * n, rng);
  ExpectBitwiseStable("f32", m * n * static_cast<int64_t>(sizeof(float)),
                      [&](char* out) {
                        Gemm(a.data(), b.data(), reinterpret_cast<float*>(out),
                             m, k, n, false, false, false);
                      });
}

TEST(GemmDeterminism, Fp16MultithreadedOutputIsBitwiseStable) {
  Rng rng(8);
  const int64_t m = 461;
  const int64_t k = 390;  // spans the kKc block boundary
  const int64_t n = 131;
  const std::vector<_Float16> a = ToF16(RandomVec(m * k, rng));
  const std::vector<_Float16> b = ToF16(RandomVec(k * n, rng));
  ExpectBitwiseStable("f16", m * n * static_cast<int64_t>(sizeof(float)),
                      [&](char* out) {
                        Gemm(a.data(), b.data(), reinterpret_cast<float*>(out),
                             m, k, n, false, true, false);
                      });
}

TEST(GemmDeterminism, Int8MultithreadedOutputIsBitwiseStable) {
  Rng rng(9);
  const int64_t m = 461;
  const int64_t k = 258;  // k % 4 != 0: dot4 padding in every block
  const int64_t n = 131;
  const std::vector<int8_t> a = ToI8(RandomVec(m * k, rng));
  const std::vector<int8_t> b = ToI8(RandomVec(k * n, rng));
  ExpectBitwiseStable("i8", m * n * static_cast<int64_t>(sizeof(int32_t)),
                      [&](char* out) {
                        Gemm(a.data(), b.data(), reinterpret_cast<int32_t*>(out),
                             m, k, n, false, false, false);
                      });
}

// FNV-1a over the result bytes of one gemm per dtype; printed by the child
// process in the thread-count invariance test below. Runs unconditionally (it
// is cheap) so the parent can filter on this test name.
uint64_t HashBytes(uint64_t h, const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

TEST(GemmThreadHashChild, EmitResultHash) {
  Rng rng(31337);
  uint64_t h = 1469598103934665603ULL;
  {
    const int64_t m = 211;
    const int64_t k = 307;
    const int64_t n = 97;
    const std::vector<float> a = RandomVec(m * k, rng);
    const std::vector<float> b = RandomVec(k * n, rng);
    std::vector<float> c(static_cast<size_t>(m * n), 0.0F);
    Gemm(a.data(), b.data(), c.data(), m, k, n, false, false, false);
    h = HashBytes(h, c.data(), c.size() * sizeof(float));
  }
  {
    const int64_t m = 97;
    const int64_t k = 385;
    const int64_t n = 64;
    const std::vector<_Float16> a = ToF16(RandomVec(m * k, rng));
    const std::vector<float> b = RandomVec(k * n, rng);
    std::vector<float> c(static_cast<size_t>(m * n), 0.0F);
    Gemm(a.data(), b.data(), c.data(), m, k, n, false, false, false);
    h = HashBytes(h, c.data(), c.size() * sizeof(float));
  }
  {
    const int64_t m = 113;
    const int64_t k = 203;
    const int64_t n = 77;
    const std::vector<int8_t> a = ToI8(RandomVec(m * k, rng));
    const std::vector<int8_t> b = ToI8(RandomVec(k * n, rng));
    std::vector<int32_t> c(static_cast<size_t>(m * n), 0);
    Gemm(a.data(), b.data(), c.data(), m, k, n, false, true, false);
    h = HashBytes(h, c.data(), c.size() * sizeof(int32_t));
  }
  std::printf("GEMM_HASH=%016llx\n", static_cast<unsigned long long>(h));
}

// Regression: EGERIA_NUM_THREADS=1 and =8 must agree bitwise. The pool width
// is fixed for a process lifetime, so each count runs in a child process that
// re-executes this binary filtered to the hash-emitting test above.
TEST(GemmDeterminism, ThreadCount1And8AgreeBitwise) {
  // Resolve the real binary path up front: /proc/self/exe inside the popen'd
  // shell would point at the shell, not this test.
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) {
    GTEST_SKIP() << "could not resolve /proc/self/exe";
  }
  self[len] = '\0';
  const auto child_hash = [&self](int threads) -> std::string {
    char cmd[4608];
    std::snprintf(cmd, sizeof(cmd),
                  "EGERIA_NUM_THREADS=%d '%s' "
                  "--gtest_filter=GemmThreadHashChild.EmitResultHash 2>/dev/null",
                  threads, self);
    FILE* pipe = popen(cmd, "r");
    if (pipe == nullptr) {
      return "";
    }
    std::string hash;
    char line[512];
    while (std::fgets(line, sizeof(line), pipe) != nullptr) {
      if (std::strncmp(line, "GEMM_HASH=", 10) == 0) {
        hash.assign(line + 10);
        while (!hash.empty() && (hash.back() == '\n' || hash.back() == '\r')) {
          hash.pop_back();
        }
      }
    }
    pclose(pipe);
    return hash;
  };
  const std::string h1 = child_hash(1);
  const std::string h8 = child_hash(8);
  if (h1.empty() || h8.empty()) {
    GTEST_SKIP() << "could not re-exec self to vary EGERIA_NUM_THREADS";
  }
  EXPECT_EQ(h1, h8) << "results must be bitwise identical across thread counts";
}

TEST(GemmTest, ZeroSizedProblemsAreSafe) {
  const float* nof = nullptr;
  const int8_t* noi = nullptr;
  std::vector<float> c(4, 1.0F);
  // k == 0, accumulate=false: C must be zeroed, nothing read from A/B.
  Gemm(nof, nof, c.data(), 2, 0, 2, false, false, /*accumulate=*/false);
  for (float v : c) {
    EXPECT_EQ(v, 0.0F);
  }
  std::fill(c.begin(), c.end(), 3.0F);
  // k == 0, accumulate=true: C is untouched.
  Gemm(nof, nof, c.data(), 2, 0, 2, false, false, /*accumulate=*/true);
  for (float v : c) {
    EXPECT_EQ(v, 3.0F);
  }
  // m == 0 / n == 0: no-ops, for the int8 path too.
  Gemm(nof, nof, static_cast<float*>(nullptr), 0, 3, 2, false, false, false);
  Gemm(nof, nof, static_cast<float*>(nullptr), 2, 3, 0, false, false, false);
  std::vector<int32_t> ci(4, 5);
  Gemm(noi, noi, ci.data(), 2, 0, 2, false, false, /*accumulate=*/false);
  for (int32_t v : ci) {
    EXPECT_EQ(v, 0);
  }
}

}  // namespace
}  // namespace egeria
