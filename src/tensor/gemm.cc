#include "src/tensor/gemm.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/compute_pool.h"
#include "src/util/logging.h"

#include "src/util/intrin_diag.h"

#if defined(__AVX512F__) || defined(__F16C__)
#include <immintrin.h>
#endif

#if defined(__GNUC__) || defined(__clang__)
#define EGERIA_RESTRICT __restrict__
#else
#define EGERIA_RESTRICT
#endif

namespace egeria {

namespace {

// Register tile: each microkernel invocation keeps an MR x NR fp32 (or int32)
// accumulator block live across the whole k loop. With AVX-512 (32 vector
// registers) a 14 x 32 tile uses 28 ZMM accumulators plus the A broadcast and
// two B loads; narrower register files get 6 x 16 (12 YMM accumulators on
// AVX2). Measured on the CI machine: 14 x 32 sustains ~120 GFLOP/s
// single-threaded at 256^3 vs ~21 for the naive i-k-j loop it replaced.
#if defined(__AVX512F__)
constexpr int64_t kMr = 14;
constexpr int64_t kNr = 32;
#else
constexpr int64_t kMr = 6;
constexpr int64_t kNr = 16;
#endif
// Cache blocking: the packed A block (kMc x kKc floats = 168 KiB) targets L2, the
// packed B panel reused by one row of microkernels (kKc x kNr = 48 KiB) streams
// through L1/L2, and the packed B block (kKc x kNc <= 6 MiB) targets L3. kMc must
// be a multiple of both tile heights (112 = 8*14, 96 would break the 14-row tile).
// The int8 path reuses the same extents (its packed panels are 4x smaller, which
// only deepens the cache residency margins).
constexpr int64_t kKc = 384;
constexpr int64_t kMc = (112 / kMr) * kMr;  // 112 for the 14-row tile, 108 for 6.
constexpr int64_t kNc = 4096;

// Below this many multiply-adds, thread spawn/join overhead beats the speedup and
// the whole problem runs on the calling thread.
constexpr int64_t kParallelFlopThreshold = int64_t{1} << 19;

int64_t RoundUp(int64_t v, int64_t to) { return (v + to - 1) / to * to; }

// k extent of an int8 panel in dot4 groups (k is zero-padded to a multiple of 4
// inside each packed k-block).
int64_t I8Groups(int64_t kc) { return (kc + 3) / 4; }

// Per-instantiation thread-local packing scratch (Slot 0: B, Slot 1: A). Each
// dtype path gets its own buffers so mixed-precision callers never thrash one
// another's capacity.
template <class TR, int kSlot>
std::vector<char>& PackScratch() {
  thread_local std::vector<char> buf;
  return buf;
}

// ------------------------------------------------------------- fp16 conversion
//
// gcc does not auto-vectorize _Float16 -> float conversion (each scalar cast
// costs a libcall-grade sequence: measured 0.6 Gelem/s scalar vs 9.3 with
// vcvtph2ps), so contiguous conversions go through explicit intrinsics.
// The NOWARN span covers the packing/microkernel helpers these intrinsics
// inline into; it ends before the traits/driver section.
EGERIA_BEGIN_INTRIN_NOWARN

inline void ConvertF16Row(const _Float16* EGERIA_RESTRICT src,
                          float* EGERIA_RESTRICT dst, int64_t n) {
  int64_t i = 0;
#if defined(__AVX512F__)
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i,
                     _mm512_cvtph_ps(_mm256_loadu_si256(
                         reinterpret_cast<const __m256i*>(src + i))));
  }
#if defined(__AVX512BW__) && defined(__AVX512VL__)
  if (i < n) {
    // Masked tail: keeps short rows (e.g. the trans_a pack's MR-wide reads)
    // on the vcvtph2ps path instead of falling into scalar conversion.
    const __mmask16 m = static_cast<__mmask16>((1U << (n - i)) - 1U);
    _mm512_mask_storeu_ps(dst + i, m,
                          _mm512_cvtph_ps(_mm256_maskz_loadu_epi16(m, src + i)));
    i = n;
  }
#endif
#elif defined(__F16C__)
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i,
                     _mm256_cvtph_ps(_mm_loadu_si128(
                         reinterpret_cast<const __m128i*>(src + i))));
  }
#endif
  for (; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]);
  }
}

// -------------------------------------------------- fp32/fp16 -> fp32 packing
//
// A is packed into column-major MR-row panels: panel ib holds rows
// [ib*MR, ib*MR+MR) as ap[ib*kc*MR + p*MR + r], so the microkernel reads MR
// contiguous floats per k step. Short edge panels are zero-padded to MR, which
// keeps the microkernel branch-free; the store path clips the padding. B is
// packed the same way into NR-column panels. _Float16 sources are converted to
// fp32 here — panels are cache-resident and reused across the orthogonal
// extent, so the conversion cost is O(mk + kn) against O(mkn) compute while
// the operand itself streams from memory at half bandwidth.

template <class Src>
void PackAF(const Src* a, int64_t lda, bool trans_a, int64_t ic, int64_t pc,
            int64_t mc, int64_t kc, float* EGERIA_RESTRICT dst) {
  const int64_t panels = (mc + kMr - 1) / kMr;
  float staging[kKc];
  for (int64_t ib = 0; ib < panels; ++ib) {
    const int64_t i0 = ic + ib * kMr;
    const int64_t mr = std::min<int64_t>(kMr, ic + mc - i0);
    float* EGERIA_RESTRICT panel = dst + ib * kc * kMr;
    if (trans_a) {
      // A stored [k, m]: each k step reads mr contiguous values.
      for (int64_t p = 0; p < kc; ++p) {
        const Src* src = a + (pc + p) * lda + i0;
        float* out = panel + p * kMr;
        if constexpr (std::is_same_v<Src, float>) {
          for (int64_t r = 0; r < mr; ++r) {
            out[r] = src[r];
          }
        } else {
          ConvertF16Row(src, out, mr);  // Masked-tail vcvtph2ps, not scalar.
        }
        for (int64_t r = mr; r < kMr; ++r) {
          out[r] = 0.0F;
        }
      }
    } else {
      // A stored [m, k]: walk each row once, scattering with stride MR.
      for (int64_t r = 0; r < mr; ++r) {
        const Src* src = a + (i0 + r) * lda + pc;
        const float* row;
        if constexpr (std::is_same_v<Src, float>) {
          row = src;
        } else {
          ConvertF16Row(src, staging, kc);
          row = staging;
        }
        for (int64_t p = 0; p < kc; ++p) {
          panel[p * kMr + r] = row[p];
        }
      }
      for (int64_t r = mr; r < kMr; ++r) {
        for (int64_t p = 0; p < kc; ++p) {
          panel[p * kMr + r] = 0.0F;
        }
      }
    }
  }
}

template <class Src>
void PackBPanelF(const Src* b, int64_t ldb, bool trans_b, int64_t jc, int64_t pc,
                 int64_t nc, int64_t kc, int64_t jb, float* EGERIA_RESTRICT dst) {
  const int64_t j0 = jc + jb * kNr;
  const int64_t nr = std::min<int64_t>(kNr, jc + nc - j0);
  float* EGERIA_RESTRICT panel = dst + jb * kc * kNr;
  if (trans_b) {
    // B stored [n, k]: walk each column's row once, scattering with stride NR.
    float staging[kKc];
    for (int64_t j = 0; j < nr; ++j) {
      const Src* src = b + (j0 + j) * ldb + pc;
      const float* row;
      if constexpr (std::is_same_v<Src, float>) {
        row = src;
      } else {
        ConvertF16Row(src, staging, kc);
        row = staging;
      }
      for (int64_t p = 0; p < kc; ++p) {
        panel[p * kNr + j] = row[p];
      }
    }
    for (int64_t j = nr; j < kNr; ++j) {
      for (int64_t p = 0; p < kc; ++p) {
        panel[p * kNr + j] = 0.0F;
      }
    }
  } else {
    // B stored [k, n]: each k step copies nr contiguous values.
    for (int64_t p = 0; p < kc; ++p) {
      const Src* src = b + (pc + p) * ldb + j0;
      float* out = panel + p * kNr;
      if constexpr (std::is_same_v<Src, float>) {
        for (int64_t j = 0; j < nr; ++j) {
          out[j] = src[j];
        }
      } else {
        ConvertF16Row(src, out, nr);
      }
      for (int64_t j = nr; j < kNr; ++j) {
        out[j] = 0.0F;
      }
    }
  }
}

// ------------------------------------------------------------ fp32 microkernel

// acc[MR][NR] += A-panel * B-panel over kc steps. The accumulator array is small
// enough for the compiler to keep in vector registers; `#pragma omp simd` marks
// the NR loop as dependence-free so it vectorizes without intrinsics.
inline void MicroKernelAcc(int64_t kc, const float* EGERIA_RESTRICT ap,
                           const float* EGERIA_RESTRICT bp,
                           float acc[kMr][kNr]) {
  for (int64_t p = 0; p < kc; ++p) {
    const float* EGERIA_RESTRICT arow = ap + p * kMr;
    const float* EGERIA_RESTRICT brow = bp + p * kNr;
    for (int64_t i = 0; i < kMr; ++i) {
      const float av = arow[i];
#pragma omp simd
      for (int64_t j = 0; j < kNr; ++j) {
        acc[i][j] += av * brow[j];
      }
    }
  }
}

#if defined(__AVX512F__)
// Explicit-intrinsic tile: 14 rows x two 16-lane accumulators = 28 of the 32
// ZMM registers stay live across the whole k loop. This used to be left to the
// auto-vectorizer, which silently cost 4-5x when gcc's per-uarch tuning chose
// 256-bit vectors (-mprefer-vector-width=256 is the default on several AVX-512
// parts, gcc 12 on Sapphire Rapids included): at 256 bits the 448-float
// accumulator needs 56 vector registers, so the whole tile spilled to the
// stack and every k step paid 56 load+store round-trips. The arithmetic is
// bit-identical to the portable kernel above — same per-element fold order (p
// ascending), one fused multiply-add per element per step, matching the FMA
// contraction -O3 applies to the scalar loop.
template <bool kOverwrite>
void MicroKernelFullZmm(int64_t kc, const float* EGERIA_RESTRICT ap,
                        const float* EGERIA_RESTRICT bp,
                        float* EGERIA_RESTRICT c, int64_t ldc) {
  static_assert(kNr == 32, "ZMM tile assumes two 16-lane accumulators per row");
  __m512 acc[kMr][2];
  for (int64_t i = 0; i < kMr; ++i) {
    acc[i][0] = _mm512_setzero_ps();
    acc[i][1] = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < kc; ++p) {
    const __m512 b0 = _mm512_loadu_ps(bp + p * kNr);
    const __m512 b1 = _mm512_loadu_ps(bp + p * kNr + 16);
    const float* arow = ap + p * kMr;
    for (int64_t i = 0; i < kMr; ++i) {
      const __m512 va = _mm512_set1_ps(arow[i]);
      acc[i][0] = _mm512_fmadd_ps(va, b0, acc[i][0]);
      acc[i][1] = _mm512_fmadd_ps(va, b1, acc[i][1]);
    }
  }
  for (int64_t i = 0; i < kMr; ++i) {
    float* crow = c + i * ldc;
    if (kOverwrite) {
      _mm512_storeu_ps(crow, acc[i][0]);
      _mm512_storeu_ps(crow + 16, acc[i][1]);
    } else {
      _mm512_storeu_ps(crow, _mm512_add_ps(_mm512_loadu_ps(crow), acc[i][0]));
      _mm512_storeu_ps(crow + 16,
                       _mm512_add_ps(_mm512_loadu_ps(crow + 16), acc[i][1]));
    }
  }
}
#endif

// Full MR x NR tile: store straight into C.
template <bool kOverwrite>
void MicroKernelFull(int64_t kc, const float* EGERIA_RESTRICT ap,
                     const float* EGERIA_RESTRICT bp, float* EGERIA_RESTRICT c,
                     int64_t ldc) {
#if defined(__AVX512F__)
  MicroKernelFullZmm<kOverwrite>(kc, ap, bp, c, ldc);
#else
  float acc[kMr][kNr] = {};
  MicroKernelAcc(kc, ap, bp, acc);
  for (int64_t i = 0; i < kMr; ++i) {
    float* crow = c + i * ldc;
#pragma omp simd
    for (int64_t j = 0; j < kNr; ++j) {
      crow[j] = kOverwrite ? acc[i][j] : crow[j] + acc[i][j];
    }
  }
#endif
}

// Edge tile: compute the full padded tile, store only the valid mr x nr corner.
void MicroKernelEdge(int64_t kc, const float* EGERIA_RESTRICT ap,
                     const float* EGERIA_RESTRICT bp, float* EGERIA_RESTRICT c,
                     int64_t ldc, int64_t mr, int64_t nr, bool overwrite) {
  float acc[kMr][kNr];
#if defined(__AVX512F__)
  MicroKernelFullZmm<true>(kc, ap, bp, &acc[0][0], kNr);
#else
  std::memset(acc, 0, sizeof(acc));
  MicroKernelAcc(kc, ap, bp, acc);
#endif
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < nr; ++j) {
      crow[j] = overwrite ? acc[i][j] : crow[j] + acc[i][j];
    }
  }
}

// One packed A block (mc x kc) times the packed B block (kc x nc) into C.
void BlockMultiplyF(const float* apack, const float* bpack, float* c, int64_t ldc,
                    int64_t mc, int64_t nc, int64_t kc, bool overwrite) {
  const int64_t mpanels = (mc + kMr - 1) / kMr;
  const int64_t npanels = (nc + kNr - 1) / kNr;
  for (int64_t ib = 0; ib < mpanels; ++ib) {
    const int64_t mr = std::min<int64_t>(kMr, mc - ib * kMr);
    const float* ap = apack + ib * kc * kMr;
    for (int64_t jb = 0; jb < npanels; ++jb) {
      const int64_t nr = std::min<int64_t>(kNr, nc - jb * kNr);
      const float* bp = bpack + jb * kc * kNr;
      float* ctile = c + ib * kMr * ldc + jb * kNr;
      if (mr == kMr && nr == kNr) {
        if (overwrite) {
          MicroKernelFull<true>(kc, ap, bp, ctile, ldc);
        } else {
          MicroKernelFull<false>(kc, ap, bp, ctile, ldc);
        }
      } else {
        MicroKernelEdge(kc, ap, bp, ctile, ldc, mr, nr, overwrite);
      }
    }
  }
}

// ----------------------------------------------------------------- int8 packing
//
// dot4 layout: k is grouped in fours so one 32-bit accumulator lane absorbs four
// 8-bit products per step (vpdpbusd shape). A panels hold [kc4][MR][4] as
// *uint8* with +128 bias (u8 = s8 XOR 0x80) because VNNI's vpdpbusd multiplies
// unsigned-by-signed; the bias is cancelled exactly by a compensation row
// appended to each B panel: comp[j] = -128 * sum_p b[p][j], which initializes
// every accumulator row. B panels hold [kc4][NR][4] signed. k positions past kc
// pack as a=+128 (i.e. 0) and b=0 so padded groups contribute nothing.

void PackAI8(const int8_t* a, int64_t lda, bool trans_a, int64_t ic, int64_t pc,
             int64_t mc, int64_t kc, uint8_t* EGERIA_RESTRICT dst) {
  const int64_t panels = (mc + kMr - 1) / kMr;
  const int64_t kc4 = I8Groups(kc);
  const int64_t full4 = kc / 4;  // complete groups needing no tail handling
  for (int64_t ib = 0; ib < panels; ++ib) {
    const int64_t i0 = ic + ib * kMr;
    const int64_t mr = std::min<int64_t>(kMr, ic + mc - i0);
    uint8_t* EGERIA_RESTRICT panel = dst + ib * kc4 * kMr * 4;
    if (!trans_a) {
      // A stored [m, k]: each row's dot4 groups are contiguous 4-byte words;
      // the +128 bias is a bytewise XOR 0x80, so whole words flip in one op.
      for (int64_t r = 0; r < mr; ++r) {
        const int8_t* src = a + (i0 + r) * lda + pc;
        for (int64_t p4 = 0; p4 < full4; ++p4) {
          uint32_t w;
          std::memcpy(&w, src + p4 * 4, 4);
          w ^= 0x80808080U;
          std::memcpy(panel + p4 * kMr * 4 + r * 4, &w, 4);
        }
        if (full4 < kc4) {
          uint8_t* out = panel + full4 * kMr * 4 + r * 4;
          for (int64_t q = 0; q < 4; ++q) {
            const int64_t p = full4 * 4 + q;
            out[q] = p < kc ? static_cast<uint8_t>(src[p]) ^ 0x80U : 0x80U;
          }
        }
      }
    } else {
      // A stored [k, m]: strided per element (no hot caller uses this layout).
      for (int64_t r = 0; r < mr; ++r) {
        for (int64_t p4 = 0; p4 < kc4; ++p4) {
          uint8_t* out = panel + p4 * kMr * 4 + r * 4;
          for (int64_t q = 0; q < 4; ++q) {
            const int64_t p = p4 * 4 + q;
            out[q] = p < kc
                         ? static_cast<uint8_t>(a[(pc + p) * lda + i0 + r]) ^ 0x80U
                         : 0x80U;
          }
        }
      }
    }
    // Rows past mr: bias value only (their C rows are clipped at store time,
    // but defined bytes keep the kernel's integer math bounded).
    for (int64_t p4 = 0; p4 < kc4; ++p4) {
      for (int64_t r = mr; r < kMr; ++r) {
        std::memset(panel + p4 * kMr * 4 + r * 4, 0x80, 4);
      }
    }
  }
}

// Byte strides of one packed int8 B panel: the dot4 body plus the int32
// compensation row appended at the end.
int64_t BPanelBytesI8(int64_t kc) {
  return I8Groups(kc) * kNr * 4 + kNr * static_cast<int64_t>(sizeof(int32_t));
}

#if defined(__AVX512VBMI__)
// Interleaves 4 consecutive k rows of 32 contiguous int8 columns into the dot4
// layout [j][q] with two byte-permutes. Index tables: output byte (j*4+q) pulls
// row q's column j; rows 0-1 live in the first source register, 2-3 in the
// second (bit 6 of the index selects the second source).
struct Dot4PermIdx {
  alignas(64) int8_t lo[64];
  alignas(64) int8_t hi[64];
  constexpr Dot4PermIdx() : lo(), hi() {
    for (int i = 0; i < 64; ++i) {
      const int q = i & 3;
      lo[i] = static_cast<int8_t>(q < 2 ? q * 32 + i / 4 : 64 + (q - 2) * 32 + i / 4);
      hi[i] = static_cast<int8_t>(lo[i] + 16);
    }
  }
};
constexpr Dot4PermIdx kDot4PermIdx;
#endif

void PackBPanelI8(const int8_t* b, int64_t ldb, bool trans_b, int64_t jc,
                  int64_t pc, int64_t nc, int64_t kc, int64_t jb,
                  char* EGERIA_RESTRICT dst_base) {
  const int64_t j0 = jc + jb * kNr;
  const int64_t nr = std::min<int64_t>(kNr, jc + nc - j0);
  const int64_t kc4 = I8Groups(kc);
  int8_t* EGERIA_RESTRICT panel =
      reinterpret_cast<int8_t*>(dst_base + jb * BPanelBytesI8(kc));
  if (trans_b) {
    // B stored [n, k]: each column's dot4 groups are contiguous 4-byte words
    // scattered with stride NR*4.
    for (int64_t j = 0; j < nr; ++j) {
      const int8_t* src = b + (j0 + j) * ldb + pc;
      const int64_t full4 = kc / 4;
      for (int64_t p4 = 0; p4 < full4; ++p4) {
        std::memcpy(panel + p4 * kNr * 4 + j * 4, src + p4 * 4, 4);
      }
      if (full4 < kc4) {
        int8_t* out = panel + full4 * kNr * 4 + j * 4;
        for (int64_t q = 0; q < 4; ++q) {
          const int64_t p = full4 * 4 + q;
          out[q] = p < kc ? src[p] : 0;
        }
      }
    }
    for (int64_t p4 = 0; p4 < kc4; ++p4) {
      for (int64_t j = nr; j < kNr; ++j) {
        std::memset(panel + p4 * kNr * 4 + j * 4, 0, 4);
      }
    }
  } else {
    // B stored [k, n]: transpose 4 k-rows at a time into the dot4 interleave.
    int64_t p4 = 0;
#if defined(__AVX512VBMI__)
    if (nr == kNr) {
      const __m512i idx_lo =
          _mm512_load_si512(reinterpret_cast<const void*>(kDot4PermIdx.lo));
      const __m512i idx_hi =
          _mm512_load_si512(reinterpret_cast<const void*>(kDot4PermIdx.hi));
      for (; (p4 + 1) * 4 <= kc; ++p4) {
        const int8_t* src = b + (pc + p4 * 4) * ldb + j0;
        const __m512i z01 = _mm512_inserti64x4(
            _mm512_castsi256_si512(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src))),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + ldb)), 1);
        const __m512i z23 = _mm512_inserti64x4(
            _mm512_castsi256_si512(_mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(src + 2 * ldb))),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 3 * ldb)),
            1);
        int8_t* out = panel + p4 * kNr * 4;
        _mm512_storeu_si512(out, _mm512_permutex2var_epi8(z01, idx_lo, z23));
        _mm512_storeu_si512(out + 64, _mm512_permutex2var_epi8(z01, idx_hi, z23));
      }
    }
#endif
    for (; p4 < kc4; ++p4) {
      int8_t* out = panel + p4 * kNr * 4;
      for (int64_t q = 0; q < 4; ++q) {
        const int64_t p = p4 * 4 + q;
        if (p < kc) {
          const int8_t* src = b + (pc + p) * ldb + j0;
          for (int64_t j = 0; j < nr; ++j) {
            out[j * 4 + q] = src[j];
          }
        } else {
          for (int64_t j = 0; j < nr; ++j) {
            out[j * 4 + q] = 0;
          }
        }
      }
      for (int64_t j = nr; j < kNr; ++j) {
        std::memset(out + j * 4, 0, 4);
      }
    }
  }
  // Compensation row: comp[j] = -128 * sum_p b[p][j], computed from the packed
  // bytes (padding is zero, so it never contributes).
  int32_t* comp = reinterpret_cast<int32_t*>(panel + kc4 * kNr * 4);
  int32_t sums[kNr * 4] = {};
  for (int64_t p4 = 0; p4 < kc4; ++p4) {
    const int8_t* blk = panel + p4 * kNr * 4;
#pragma omp simd
    for (int64_t t = 0; t < kNr * 4; ++t) {
      sums[t] += blk[t];
    }
  }
  for (int64_t j = 0; j < kNr; ++j) {
    comp[j] = -128 * (sums[j * 4] + sums[j * 4 + 1] + sums[j * 4 + 2] +
                      sums[j * 4 + 3]);
  }
}

// ------------------------------------------------------------ int8 microkernel

#if defined(__AVX512VNNI__)
// vpdpbusd tile: every 32-bit lane absorbs a 4-deep u8*s8 dot per step. The
// accumulators start from the compensation row, which cancels the +128 A bias.
// C is written through `cbuf` when clipping is needed (edge tiles).
template <bool kOverwrite>
void MicroI8FullVnni(int64_t kc4, const uint8_t* EGERIA_RESTRICT ap,
                     const int8_t* EGERIA_RESTRICT bp, const int32_t* comp,
                     int32_t* EGERIA_RESTRICT c, int64_t ldc) {
  static_assert(kNr == 32, "VNNI tile assumes two 16-lane accumulators per row");
  const __m512i comp0 = _mm512_loadu_si512(comp);
  const __m512i comp1 = _mm512_loadu_si512(comp + 16);
  __m512i acc[kMr][2];
  for (int64_t i = 0; i < kMr; ++i) {
    acc[i][0] = comp0;
    acc[i][1] = comp1;
  }
  for (int64_t p = 0; p < kc4; ++p) {
    const __m512i b0 = _mm512_loadu_si512(bp + p * kNr * 4);
    const __m512i b1 = _mm512_loadu_si512(bp + p * kNr * 4 + 64);
    const uint8_t* ablk = ap + p * kMr * 4;
    for (int64_t i = 0; i < kMr; ++i) {
      int32_t aword;
      std::memcpy(&aword, ablk + i * 4, 4);
      const __m512i va = _mm512_set1_epi32(aword);
      acc[i][0] = _mm512_dpbusd_epi32(acc[i][0], va, b0);
      acc[i][1] = _mm512_dpbusd_epi32(acc[i][1], va, b1);
    }
  }
  for (int64_t i = 0; i < kMr; ++i) {
    int32_t* crow = c + i * ldc;
    if (kOverwrite) {
      _mm512_storeu_si512(crow, acc[i][0]);
      _mm512_storeu_si512(crow + 16, acc[i][1]);
    } else {
      _mm512_storeu_si512(
          crow, _mm512_add_epi32(_mm512_loadu_si512(crow), acc[i][0]));
      _mm512_storeu_si512(
          crow + 16, _mm512_add_epi32(_mm512_loadu_si512(crow + 16), acc[i][1]));
    }
  }
}
#endif

// Portable dot4 tile (also the scalar reference for the VNNI path): same packed
// layout and compensation semantics, auto-vectorized widening arithmetic.
inline void MicroI8Acc(int64_t kc4, const uint8_t* EGERIA_RESTRICT ap,
                       const int8_t* EGERIA_RESTRICT bp, const int32_t* comp,
                       int32_t acc[kMr][kNr]) {
  for (int64_t i = 0; i < kMr; ++i) {
    for (int64_t j = 0; j < kNr; ++j) {
      acc[i][j] = comp[j];
    }
  }
  for (int64_t p = 0; p < kc4; ++p) {
    const uint8_t* ablk = ap + p * kMr * 4;
    const int8_t* bblk = bp + p * kNr * 4;
    for (int64_t i = 0; i < kMr; ++i) {
      const int32_t a0 = ablk[i * 4 + 0];
      const int32_t a1 = ablk[i * 4 + 1];
      const int32_t a2 = ablk[i * 4 + 2];
      const int32_t a3 = ablk[i * 4 + 3];
#pragma omp simd
      for (int64_t j = 0; j < kNr; ++j) {
        acc[i][j] += a0 * bblk[j * 4 + 0] + a1 * bblk[j * 4 + 1] +
                     a2 * bblk[j * 4 + 2] + a3 * bblk[j * 4 + 3];
      }
    }
  }
}

void MicroI8Edge(int64_t kc4, const uint8_t* ap, const int8_t* bp,
                 const int32_t* comp, int32_t* c, int64_t ldc, int64_t mr,
                 int64_t nr, bool overwrite) {
  int32_t acc[kMr][kNr];
#if defined(__AVX512VNNI__)
  MicroI8FullVnni<true>(kc4, ap, bp, comp, &acc[0][0], kNr);
#else
  MicroI8Acc(kc4, ap, bp, comp, acc);
#endif
  for (int64_t i = 0; i < mr; ++i) {
    int32_t* crow = c + i * ldc;
    for (int64_t j = 0; j < nr; ++j) {
      crow[j] = overwrite ? acc[i][j] : crow[j] + acc[i][j];
    }
  }
}

void BlockMultiplyI8(const uint8_t* apack, const char* bpack, int32_t* c,
                     int64_t ldc, int64_t mc, int64_t nc, int64_t kc,
                     bool overwrite) {
  const int64_t kc4 = I8Groups(kc);
  const int64_t mpanels = (mc + kMr - 1) / kMr;
  const int64_t npanels = (nc + kNr - 1) / kNr;
  for (int64_t ib = 0; ib < mpanels; ++ib) {
    const int64_t mr = std::min<int64_t>(kMr, mc - ib * kMr);
    const uint8_t* ap = apack + ib * kc4 * kMr * 4;
    for (int64_t jb = 0; jb < npanels; ++jb) {
      const int64_t nr = std::min<int64_t>(kNr, nc - jb * kNr);
      const int8_t* bp =
          reinterpret_cast<const int8_t*>(bpack + jb * BPanelBytesI8(kc));
      const int32_t* comp = reinterpret_cast<const int32_t*>(bp + kc4 * kNr * 4);
      int32_t* ctile = c + ib * kMr * ldc + jb * kNr;
      if (mr == kMr && nr == kNr) {
#if defined(__AVX512VNNI__)
        if (overwrite) {
          MicroI8FullVnni<true>(kc4, ap, bp, comp, ctile, ldc);
        } else {
          MicroI8FullVnni<false>(kc4, ap, bp, comp, ctile, ldc);
        }
#else
        int32_t acc[kMr][kNr];
        MicroI8Acc(kc4, ap, bp, comp, acc);
        for (int64_t i = 0; i < kMr; ++i) {
          int32_t* crow = ctile + i * ldc;
#pragma omp simd
          for (int64_t j = 0; j < kNr; ++j) {
            crow[j] = overwrite ? acc[i][j] : crow[j] + acc[i][j];
          }
        }
#endif
      } else {
        MicroI8Edge(kc4, ap, bp, comp, ctile, ldc, mr, nr, overwrite);
      }
    }
  }
}
EGERIA_END_INTRIN_NOWARN

// ------------------------------------------------------------- dtype traits
//
// Each trait binds a (SrcA, SrcB, Out) triple to its packing routines, packed
// panel strides, and block-multiply. The driver below owns blocking, scratch,
// and threading for all of them.

template <class SA, class SB>
struct FpTraits {
  using SrcA = SA;
  using SrcB = SB;
  using Out = float;
  static int64_t APanelBytes(int64_t kc) {
    return kc * kMr * static_cast<int64_t>(sizeof(float));
  }
  static int64_t BPanelBytes(int64_t kc) {
    return kc * kNr * static_cast<int64_t>(sizeof(float));
  }
  static void PackA(const SrcA* a, int64_t lda, bool trans_a, int64_t ic,
                    int64_t pc, int64_t mc, int64_t kc, char* dst) {
    PackAF<SrcA>(a, lda, trans_a, ic, pc, mc, kc, reinterpret_cast<float*>(dst));
  }
  static void PackBPanel(const SrcB* b, int64_t ldb, bool trans_b, int64_t jc,
                         int64_t pc, int64_t nc, int64_t kc, int64_t jb,
                         char* dst) {
    PackBPanelF<SrcB>(b, ldb, trans_b, jc, pc, nc, kc, jb,
                      reinterpret_cast<float*>(dst));
  }
  static void BlockMultiply(const char* apack, const char* bpack, Out* c,
                            int64_t ldc, int64_t mc, int64_t nc, int64_t kc,
                            bool overwrite) {
    BlockMultiplyF(reinterpret_cast<const float*>(apack),
                   reinterpret_cast<const float*>(bpack), c, ldc, mc, nc, kc,
                   overwrite);
  }
};

struct I8Traits {
  using SrcA = int8_t;
  using SrcB = int8_t;
  using Out = int32_t;
  static int64_t APanelBytes(int64_t kc) { return I8Groups(kc) * kMr * 4; }
  static int64_t BPanelBytes(int64_t kc) { return BPanelBytesI8(kc); }
  static void PackA(const SrcA* a, int64_t lda, bool trans_a, int64_t ic,
                    int64_t pc, int64_t mc, int64_t kc, char* dst) {
    PackAI8(a, lda, trans_a, ic, pc, mc, kc, reinterpret_cast<uint8_t*>(dst));
  }
  static void PackBPanel(const SrcB* b, int64_t ldb, bool trans_b, int64_t jc,
                         int64_t pc, int64_t nc, int64_t kc, int64_t jb,
                         char* dst) {
    PackBPanelI8(b, ldb, trans_b, jc, pc, nc, kc, jb, dst);
  }
  static void BlockMultiply(const char* apack, const char* bpack, Out* c,
                            int64_t ldc, int64_t mc, int64_t nc, int64_t kc,
                            bool overwrite) {
    BlockMultiplyI8(reinterpret_cast<const uint8_t*>(apack), bpack, c, ldc, mc,
                    nc, kc, overwrite);
  }
};

// ------------------------------------------------------------------- driver
//
// One Goto/BLIS block schedule for every dtype: jc (L3 B block) -> pc (k block,
// folded into C in fixed ascending order) -> parallel mc row blocks. Thread
// partitions own disjoint C tiles, so per-element arithmetic order — and hence
// the result, bitwise — is independent of the thread count.

template <class TR>
void GemmDriver(const typename TR::SrcA* a, const typename TR::SrcB* b,
                typename TR::Out* c, int64_t m, int64_t k, int64_t n,
                bool trans_a, bool trans_b, bool accumulate) {
  using Out = typename TR::Out;
  if (m <= 0 || n <= 0) {
    return;
  }
  if (k <= 0) {
    if (!accumulate) {
      std::fill(c, c + m * n, Out{});
    }
    return;
  }
  const int64_t lda = trans_a ? m : k;
  const int64_t ldb = trans_b ? k : n;
  const bool parallel = 2 * m * n * k >= kParallelFlopThreshold;

  std::vector<char>& bpack = PackScratch<TR, 0>();
  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(kNc, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      // The pc == 0 pass either overwrites C (accumulate=false) or adds to its
      // existing contents; every later pass accumulates partial products.
      const bool overwrite = pc == 0 && !accumulate;

      const int64_t npanels = (nc + kNr - 1) / kNr;
      const int64_t bstride = TR::BPanelBytes(kc);
      bpack.resize(static_cast<size_t>(npanels * bstride));
      char* bpack_data = bpack.data();
      const auto pack_b = [&](int64_t lo, int64_t hi) {
        for (int64_t jb = lo; jb < hi; ++jb) {
          TR::PackBPanel(b, ldb, trans_b, jc, pc, nc, kc, jb, bpack_data);
        }
      };
      if (parallel && nc * kc >= (int64_t{1} << 16)) {
        ParallelFor(npanels, 1, pack_b);
      } else {
        pack_b(0, npanels);
      }

      // Row-block height: kMc single-threaded (best packing reuse); when
      // parallel, shrink toward one block per thread — at kMr granularity — so
      // short-m problems (conv layers, small batches) still fan out.
      int64_t mc_step = kMc;
      if (parallel) {
        const int64_t threads = ComputePoolThreads();
        const int64_t want = RoundUp((m + threads - 1) / threads, kMr);
        mc_step = std::max<int64_t>(kMr, std::min(kMc, want));
      }
      const int64_t mblocks = (m + mc_step - 1) / mc_step;
      const auto run_blocks = [&](int64_t lo, int64_t hi) {
        std::vector<char>& apack = PackScratch<TR, 1>();
        apack.resize(static_cast<size_t>((RoundUp(mc_step, kMr) / kMr) *
                                         TR::APanelBytes(kc)));
        for (int64_t blk = lo; blk < hi; ++blk) {
          const int64_t ic = blk * mc_step;
          const int64_t mc = std::min(mc_step, m - ic);
          TR::PackA(a, lda, trans_a, ic, pc, mc, kc, apack.data());
          TR::BlockMultiply(apack.data(), bpack_data, c + ic * n + jc, n, mc, nc,
                            kc, overwrite);
        }
      };
      if (parallel && mblocks > 1) {
        ParallelFor(mblocks, 1, run_blocks);
      } else if (parallel) {
        // m fits one microkernel panel: fan out over B panels instead (each
        // writes a disjoint column tile of C).
        std::vector<char>& apack = PackScratch<TR, 1>();
        apack.resize(
            static_cast<size_t>((RoundUp(m, kMr) / kMr) * TR::APanelBytes(kc)));
        TR::PackA(a, lda, trans_a, 0, pc, m, kc, apack.data());
        const char* apack_data = apack.data();
        ParallelFor(npanels, 1, [&](int64_t lo, int64_t hi) {
          for (int64_t jb = lo; jb < hi; ++jb) {
            const int64_t nr = std::min<int64_t>(kNr, nc - jb * kNr);
            TR::BlockMultiply(apack_data, bpack_data + jb * bstride,
                              c + jc + jb * kNr, n, m, nr, kc, overwrite);
          }
        });
      } else {
        run_blocks(0, mblocks);
      }
    }
  }
}

// Dispatch-layer observability. Each typed entry point bumps an always-on
// per-dtype call counter (one relaxed atomic add; the reference is resolved
// once via a function-local static) and, when tracing is enabled and the
// problem is big enough to matter, emits a low-priority span with the shape
// as args. Low priority + the volume floor keep the many small GEMMs (the
// reference model's per-item convolutions, attention heads) from flooding the
// per-thread buffers (see src/obs/trace.h).
constexpr int64_t kGemmTraceMinVolume = int64_t{1} << 20;  // m*k*n

class GemmTraceScope {
 public:
  GemmTraceScope(const char* dtype, int64_t m, int64_t k, int64_t n) {
    if (trace::Enabled() && m * k * n >= kGemmTraceMinVolume) {
      dtype_ = dtype;
      std::snprintf(args_, sizeof(args_),
                    "{\"m\":%lld,\"k\":%lld,\"n\":%lld}",
                    static_cast<long long>(m), static_cast<long long>(k),
                    static_cast<long long>(n));
      start_ns_ = trace::NowNs();
    }
  }
  ~GemmTraceScope() {
    if (dtype_ != nullptr) {
      trace::AddCompleteLowPrio("gemm", dtype_, start_ns_,
                                trace::NowNs() - start_ns_, args_);
    }
  }

 private:
  const char* dtype_ = nullptr;
  int64_t start_ns_ = 0;
  char args_[64];
};

}  // namespace

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
          bool trans_a, bool trans_b, bool accumulate) {
  static obs::Counter& calls = obs::GetCounter("gemm.calls_fp32");
  calls.Add(1);
  GemmTraceScope span("fp32", m, k, n);
  GemmDriver<FpTraits<float, float>>(a, b, c, m, k, n, trans_a, trans_b, accumulate);
}

void Gemm(const _Float16* a, const _Float16* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate) {
  static obs::Counter& calls = obs::GetCounter("gemm.calls_fp16");
  calls.Add(1);
  GemmTraceScope span("fp16", m, k, n);
  GemmDriver<FpTraits<_Float16, _Float16>>(a, b, c, m, k, n, trans_a, trans_b,
                                           accumulate);
}

void Gemm(const float* a, const _Float16* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate) {
  static obs::Counter& calls = obs::GetCounter("gemm.calls_mixed");
  calls.Add(1);
  GemmTraceScope span("mixed_f32f16", m, k, n);
  GemmDriver<FpTraits<float, _Float16>>(a, b, c, m, k, n, trans_a, trans_b,
                                        accumulate);
}

void Gemm(const _Float16* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate) {
  static obs::Counter& calls = obs::GetCounter("gemm.calls_mixed");
  calls.Add(1);
  GemmTraceScope span("mixed_f16f32", m, k, n);
  GemmDriver<FpTraits<_Float16, float>>(a, b, c, m, k, n, trans_a, trans_b,
                                        accumulate);
}

void Gemm(const int8_t* a, const int8_t* b, int32_t* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate) {
  static obs::Counter& calls = obs::GetCounter("gemm.calls_int8");
  calls.Add(1);
  GemmTraceScope span("int8", m, k, n);
  GemmDriver<I8Traits>(a, b, c, m, k, n, trans_a, trans_b, accumulate);
}

void BatchedGemm(const float* a, const float* b, float* c, int64_t batch, int64_t m,
                 int64_t k, int64_t n, bool trans_a, bool trans_b, bool accumulate) {
  if (batch <= 0) {
    return;
  }
  static obs::Counter& calls = obs::GetCounter("gemm.calls_batched");
  calls.Add(1);
  trace::Span span("gemm", "batched");
  if (span.active()) {
    span.SetArgs("{\"batch\":%lld,\"m\":%lld,\"k\":%lld,\"n\":%lld}",
                 static_cast<long long>(batch), static_cast<long long>(m),
                 static_cast<long long>(k), static_cast<long long>(n));
  }
  const int64_t a_stride = m * k;
  const int64_t b_stride = k * n;
  const int64_t c_stride = m * n;
  const auto run = [&](int64_t lo, int64_t hi) {
    for (int64_t bi = lo; bi < hi; ++bi) {
      Gemm(a + bi * a_stride, b + bi * b_stride, c + bi * c_stride, m, k, n, trans_a,
           trans_b, accumulate);
    }
  };
  // Many small problems parallelize best across items (the nested Gemm then runs
  // serially); few large ones are better served by Gemm's internal row-block
  // parallelism.
  if (batch >= ComputePoolThreads()) {
    ParallelFor(batch, 1, run);
  } else {
    run(0, batch);
  }
}

}  // namespace egeria
