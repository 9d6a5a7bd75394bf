#include "src/tensor/conv.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <vector>

#include "src/tensor/compute_pool.h"
#include "src/util/intrin_diag.h"
#include "src/util/logging.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace egeria {

namespace {

// Batch items per vector: lane l of group g is item 16*g + l.
constexpr int64_t kLanes = 16;
// Every reduction chain restarts from +0 after this many steps, and its
// partial sum is added to the running result, as gemm.cc folds its k blocks.
// Must equal gemm.cc's kKc; tests/conv_test.cc fails when they differ.
constexpr int64_t kChainSplit = 384;
// Register tiles (accumulators of kLanes floats each). Forward: output
// channels x output pixels. Input gradient: input channels x output pixels,
// one kernel tap at a time. Weight gradient: output channels x taps, inside a
// chunk of kLanes taps that the batch fold transposes as one 16x16 block.
constexpr int kFwdOc = 4;
constexpr int kFwdPix = 6;
constexpr int kDxCi = 4;
constexpr int kDxPix = 6;
constexpr int kDwOc = 4;
constexpr int kDwTap = 4;
// Below this many multiply-adds per call a kernel runs on the calling thread.
constexpr int64_t kParallelWork = int64_t{1} << 19;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Smallest ParallelFor chunk, in tasks of `task_work` multiply-adds each.
int64_t Grain(int64_t task_work) {
  return std::max<int64_t>(1, kParallelWork / std::max<int64_t>(1, task_work));
}

struct FreeDeleter {
  void operator()(float* p) const { std::free(p); }
};
using Buffer = std::unique_ptr<float[], FreeDeleter>;

// 64-byte aligned, so every lane vector is one aligned cache line.
float* AllocLanes(int64_t floats) {
  const auto bytes = static_cast<size_t>(
      CeilDiv(std::max<int64_t>(floats, 1) * static_cast<int64_t>(sizeof(float)), 64) *
      64);
  void* p = std::aligned_alloc(64, bytes);
  EGERIA_CHECK_MSG(p != nullptr, "conv: lane buffer allocation failed");
  return static_cast<float*>(p);
}

// Calls f(std::integral_constant<int, n>) for a runtime n in [1, N], so edge
// tiles get fully unrolled kernels too.
template <int N, class F>
void WithCount(int64_t n, const F& f) {
  if constexpr (N > 1) {
    if (n < N) {
      WithCount<N - 1>(n, f);
      return;
    }
  }
  f(std::integral_constant<int, N>{});
}

// Strides of the lane layout and the address offset tables shared by the
// three kernels. An input group is [c][hp][wp][kLanes], hp = h + 2*pad; the
// value under tap p = (ci, kh, kw) of output pixel q sits at pix[q] + tap[p].
struct Geometry {
  explicit Geometry(const ConvInput& x)
      : batch(x.batch()),
        c(x.channels()),
        h(x.height()),
        w(x.width()),
        pad(x.geom().pad),
        dil(x.geom().dilation),
        hp(h + 2 * pad),
        wp(w + 2 * pad),
        plane(hp * wp * kLanes),
        groups(CeilDiv(batch, kLanes)),
        kh(x.geom().kernel_h),
        kw(x.geom().kernel_w),
        ckk(c * kh * kw),
        oh(x.geom().OutH(h)),
        ow(x.geom().OutW(w)),
        ohow(oh * ow) {
    const int64_t s = x.geom().stride;
    pix.resize(static_cast<size_t>(ohow));
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        pix[static_cast<size_t>(oy * ow + ox)] = (oy * s * wp + ox * s) * kLanes;
      }
    }
    tap.resize(static_cast<size_t>(ckk));
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t y = 0; y < kh; ++y) {
        for (int64_t x0 = 0; x0 < kw; ++x0) {
          tap[static_cast<size_t>((ci * kh + y) * kw + x0)] =
              ci * plane + TapOffset(y, x0);
        }
      }
    }
  }

  // Offset of tap (y, x) within one channel plane.
  int64_t TapOffset(int64_t y, int64_t x) const { return (y * wp + x) * dil * kLanes; }
  // Lanes holding real items in group g.
  int64_t Valid(int64_t g) const { return std::min(kLanes, batch - g * kLanes); }

  int64_t batch, c, h, w, pad, dil, hp, wp, plane, groups, kh, kw, ckk, oh, ow, ohow;
  std::vector<int64_t> pix;
  std::vector<int64_t> tap;
};

// ------------------------------------------------------------------ vectors
//
// One Vec holds one value for each of the kLanes items of a group. VFma is one
// multiply-add exactly as gemm.cc's microkernel does it on the same build:
// a fused multiply-add with AVX-512, otherwise the portable `acc += a * b`,
// which the compiler contracts to an FMA where the target has one.

EGERIA_BEGIN_INTRIN_NOWARN

#if defined(__AVX512F__)
using Vec = __m512;
inline Vec VLoad(const float* p) { return _mm512_load_ps(p); }
inline void VStore(float* p, Vec a) { _mm512_store_ps(p, a); }
inline Vec VSet(float s) { return _mm512_set1_ps(s); }
inline Vec VAdd(Vec a, Vec b) { return _mm512_add_ps(a, b); }
inline void VFma(Vec a, Vec b, Vec& acc) { acc = _mm512_fmadd_ps(a, b, acc); }

// r[i][j] <- r[j][i] across 16 registers.
inline void Transpose16(Vec r[16]) {
  Vec t[16];
  for (int i = 0; i < 8; ++i) {
    t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
    t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
  }
  for (int i = 0; i < 4; ++i) {
    const __m512d a = _mm512_castps_pd(t[4 * i]);
    const __m512d b = _mm512_castps_pd(t[4 * i + 1]);
    const __m512d c = _mm512_castps_pd(t[4 * i + 2]);
    const __m512d d = _mm512_castps_pd(t[4 * i + 3]);
    r[4 * i] = _mm512_castpd_ps(_mm512_unpacklo_pd(a, c));
    r[4 * i + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(a, c));
    r[4 * i + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(b, d));
    r[4 * i + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(b, d));
  }
  for (int i = 0; i < 4; ++i) {
    t[i] = _mm512_shuffle_f32x4(r[i], r[4 + i], 0x88);
    t[4 + i] = _mm512_shuffle_f32x4(r[i], r[4 + i], 0xdd);
    t[8 + i] = _mm512_shuffle_f32x4(r[8 + i], r[12 + i], 0x88);
    t[12 + i] = _mm512_shuffle_f32x4(r[8 + i], r[12 + i], 0xdd);
  }
  for (int i = 0; i < 4; ++i) {
    r[i] = _mm512_shuffle_f32x4(t[i], t[8 + i], 0x88);
    r[8 + i] = _mm512_shuffle_f32x4(t[i], t[8 + i], 0xdd);
    r[4 + i] = _mm512_shuffle_f32x4(t[4 + i], t[12 + i], 0x88);
    r[12 + i] = _mm512_shuffle_f32x4(t[4 + i], t[12 + i], 0xdd);
  }
}

inline __mmask16 FirstN(int64_t n) { return static_cast<__mmask16>((1U << n) - 1U); }

// dst[x][l] = src[l * item_stride + x] for x < len; lanes from nvalid on are 0.
void PackRow(const float* src, int64_t item_stride, int64_t nvalid, int64_t len,
             float* dst) {
  for (int64_t x0 = 0; x0 < len; x0 += kLanes) {
    const int64_t n = std::min(kLanes, len - x0);
    const __mmask16 m = FirstN(n);
    Vec r[16];
    for (int64_t l = 0; l < kLanes; ++l) {
      r[l] = l < nvalid ? _mm512_maskz_loadu_ps(m, src + l * item_stride + x0)
                        : VSet(0.0F);
    }
    Transpose16(r);
    for (int64_t i = 0; i < n; ++i) {
      VStore(dst + (x0 + i) * kLanes, r[i]);
    }
  }
}

// dst[l * item_stride + x] = src[x][l] for x < len and l < nvalid.
void UnpackRow(const float* src, int64_t len, float* dst, int64_t item_stride,
               int64_t nvalid) {
  for (int64_t x0 = 0; x0 < len; x0 += kLanes) {
    const int64_t n = std::min(kLanes, len - x0);
    const __mmask16 m = FirstN(n);
    Vec r[16];
    for (int64_t i = 0; i < kLanes; ++i) {
      r[i] = i < n ? VLoad(src + (x0 + i) * kLanes) : VSet(0.0F);
    }
    Transpose16(r);
    for (int64_t l = 0; l < nvalid; ++l) {
      _mm512_mask_storeu_ps(dst + l * item_stride + x0, m, r[l]);
    }
  }
}

// Transposes the 16x16 block at p (rows of kLanes floats) in place.
void TransposeBlock(float* p) {
  Vec r[16];
  for (int i = 0; i < 16; ++i) {
    r[i] = VLoad(p + i * kLanes);
  }
  Transpose16(r);
  for (int i = 0; i < 16; ++i) {
    VStore(p + i * kLanes, r[i]);
  }
}
#else
struct Vec {
  float v[kLanes];
};
inline Vec VLoad(const float* p) {
  Vec r;
  for (int64_t l = 0; l < kLanes; ++l) {
    r.v[l] = p[l];
  }
  return r;
}
inline void VStore(float* p, const Vec& a) {
  for (int64_t l = 0; l < kLanes; ++l) {
    p[l] = a.v[l];
  }
}
inline Vec VSet(float s) {
  Vec r;
  for (int64_t l = 0; l < kLanes; ++l) {
    r.v[l] = s;
  }
  return r;
}
inline Vec VAdd(const Vec& a, const Vec& b) {
  Vec r;
#pragma omp simd
  for (int64_t l = 0; l < kLanes; ++l) {
    r.v[l] = a.v[l] + b.v[l];
  }
  return r;
}
inline void VFma(const Vec& a, const Vec& b, Vec& acc) {
#pragma omp simd
  for (int64_t l = 0; l < kLanes; ++l) {
    acc.v[l] += a.v[l] * b.v[l];
  }
}

void PackRow(const float* src, int64_t item_stride, int64_t nvalid, int64_t len,
             float* dst) {
  for (int64_t l = 0; l < kLanes; ++l) {
    const float* s = src + l * item_stride;
    for (int64_t x = 0; x < len; ++x) {
      dst[x * kLanes + l] = l < nvalid ? s[x] : 0.0F;
    }
  }
}

void UnpackRow(const float* src, int64_t len, float* dst, int64_t item_stride,
               int64_t nvalid) {
  for (int64_t l = 0; l < nvalid; ++l) {
    float* d = dst + l * item_stride;
    for (int64_t x = 0; x < len; ++x) {
      d[x] = src[x * kLanes + l];
    }
  }
}

void TransposeBlock(float* p) {
  for (int64_t i = 0; i < kLanes; ++i) {
    for (int64_t j = i + 1; j < kLanes; ++j) {
      std::swap(p[i * kLanes + j], p[j * kLanes + i]);
    }
  }
}
#endif

// ------------------------------------------------------------------ kernels

// Forward tile: y[o][q] (=|+=) sum over p in [k0, k1) of w[p][o] * x[q][p],
// for OCB output channels and PB output pixels; y rows are ystride apart.
template <int OCB, int PB>
void FwdTile(const float* xg, const int64_t* pix, const int64_t* tap,
             const float* w, int64_t k0, int64_t k1, float* y, int64_t ystride,
             bool first) {
  Vec acc[OCB][PB];
  for (int o = 0; o < OCB; ++o) {
    for (int q = 0; q < PB; ++q) {
      acc[o][q] = VSet(0.0F);
    }
  }
  const float* xq[PB];
  for (int q = 0; q < PB; ++q) {
    xq[q] = xg + pix[q];
  }
  for (int64_t p = k0; p < k1; ++p) {
    const int64_t t = tap[p];
    Vec xv[PB];
    for (int q = 0; q < PB; ++q) {
      xv[q] = VLoad(xq[q] + t);
    }
    const float* wp = w + p * OCB;
    for (int o = 0; o < OCB; ++o) {
      const Vec wv = VSet(wp[o]);
      for (int q = 0; q < PB; ++q) {
        VFma(wv, xv[q], acc[o][q]);
      }
    }
  }
  for (int o = 0; o < OCB; ++o) {
    for (int q = 0; q < PB; ++q) {
      float* dst = y + o * ystride + q * kLanes;
      VStore(dst, first ? acc[o][q] : VAdd(VLoad(dst), acc[o][q]));
    }
  }
}

// Adds one tap's column gradient into the padded input gradient dx, for CIB
// input channels at PB consecutive output pixels: per (channel, pixel), a
// chain over output channels of w[oc][c] * dy[oc][q]. Past the first chain
// block the running sum lives in memory, so the common single block keeps
// only its accumulators in registers.
template <int CIB, int PB>
void DxTile(const float* dy, int64_t ohow, const float* w, int64_t oc, float* dx,
            int64_t plane, const int64_t* pix, int64_t toff) {
  alignas(64) float sum[CIB][PB][kLanes];
  for (int64_t k0 = 0; k0 < oc; k0 += kChainSplit) {
    const int64_t k1 = std::min(oc, k0 + kChainSplit);
    Vec acc[CIB][PB];
    for (int c = 0; c < CIB; ++c) {
      for (int q = 0; q < PB; ++q) {
        acc[c][q] = VSet(0.0F);
      }
    }
    for (int64_t o = k0; o < k1; ++o) {
      const float* d = dy + o * ohow * kLanes;
      Vec dv[PB];
      for (int q = 0; q < PB; ++q) {
        dv[q] = VLoad(d + q * kLanes);
      }
      const float* wo = w + o * CIB;
      for (int c = 0; c < CIB; ++c) {
        const Vec wv = VSet(wo[c]);
        for (int q = 0; q < PB; ++q) {
          VFma(wv, dv[q], acc[c][q]);
        }
      }
    }
    if (k1 == oc && k0 == 0) {
      for (int c = 0; c < CIB; ++c) {
        for (int q = 0; q < PB; ++q) {
          float* dst = dx + c * plane + pix[q] + toff;
          VStore(dst, VAdd(VLoad(dst), acc[c][q]));
        }
      }
      return;
    }
    for (int c = 0; c < CIB; ++c) {
      for (int q = 0; q < PB; ++q) {
        VStore(sum[c][q], k0 == 0 ? acc[c][q] : VAdd(VLoad(sum[c][q]), acc[c][q]));
      }
    }
  }
  for (int c = 0; c < CIB; ++c) {
    for (int q = 0; q < PB; ++q) {
      float* dst = dx + c * plane + pix[q] + toff;
      VStore(dst, VAdd(VLoad(dst), VLoad(sum[c][q])));
    }
  }
}

// out[o][t] = per-item sum over pixels q in [q0, q1) of dy[o][q] * x[q][t],
// for OCB output channels and TB taps; out rows are kLanes taps apart.
template <int OCB, int TB>
void DwTile(const float* dy, int64_t ohow, const float* xg, const int64_t* pix,
            const int64_t* tap, int64_t q0, int64_t q1, float* out) {
  Vec acc[OCB][TB];
  for (int o = 0; o < OCB; ++o) {
    for (int t = 0; t < TB; ++t) {
      acc[o][t] = VSet(0.0F);
    }
  }
  int64_t toff[TB];
  for (int t = 0; t < TB; ++t) {
    toff[t] = tap[t];
  }
  for (int64_t q = q0; q < q1; ++q) {
    const float* xb = xg + pix[q];
    Vec xv[TB];
    for (int t = 0; t < TB; ++t) {
      xv[t] = VLoad(xb + toff[t]);
    }
    for (int o = 0; o < OCB; ++o) {
      const Vec d = VLoad(dy + (o * ohow + q) * kLanes);
      for (int t = 0; t < TB; ++t) {
        VFma(d, xv[t], acc[o][t]);
      }
    }
  }
  for (int o = 0; o < OCB; ++o) {
    for (int t = 0; t < TB; ++t) {
      VStore(out + (o * kLanes + t) * kLanes, acc[o][t]);
    }
  }
}

void AddBias(float* y, int64_t n, float b) {
  const Vec bv = VSet(b);
  for (int64_t q = 0; q < n; ++q) {
    VStore(y + q * kLanes, VAdd(VLoad(y + q * kLanes), bv));
  }
}

EGERIA_END_INTRIN_NOWARN

// dW: per item, a chain over pixels; the items fold in ascending order, the
// first assigned, and the fold is added to grad once.
void WeightGrad(const Geometry& g, const float* x, const float* dy, int64_t oc,
                int64_t ocp, float* grad) {
  const int64_t otiles = ocp / kDwOc;
  const int64_t chunks = CeilDiv(g.ckk, kLanes);
  const int64_t blocks = CeilDiv(g.ohow, kChainSplit);
  // Taps past ckk read real data into sums that are never folded.
  std::vector<int64_t> tap(static_cast<size_t>(chunks * kLanes), 0);
  std::copy(g.tap.begin(), g.tap.end(), tap.begin());
  const int64_t block_floats = kDwOc * kLanes * kLanes;
  const int64_t task_work = g.groups * kLanes * kDwOc * kLanes * g.ohow;
  ParallelFor(otiles * chunks, Grain(task_work), [&](int64_t lo, int64_t hi) {
    Buffer part(AllocLanes(blocks * block_floats));
    alignas(64) float sum[kDwOc * kLanes] = {};
    for (int64_t task = lo; task < hi; ++task) {
      const int64_t o0 = task / chunks * kDwOc;
      const int64_t p0 = task % chunks * kLanes;
      bool first = true;
      for (int64_t grp = 0; grp < g.groups; ++grp) {
        const float* xg = x + grp * g.c * g.plane;
        const float* dyg = dy + (grp * ocp + o0) * g.ohow * kLanes;
        for (int64_t j = 0; j < blocks; ++j) {
          const int64_t q0 = j * kChainSplit;
          const int64_t q1 = std::min(g.ohow, q0 + kChainSplit);
          float* pj = part.get() + j * block_floats;
          for (int64_t t0 = 0; t0 < kLanes; t0 += kDwTap) {
            DwTile<kDwOc, kDwTap>(dyg, g.ohow, xg, g.pix.data(),
                                  tap.data() + p0 + t0, q0, q1, pj + t0 * kLanes);
          }
          // Row l of each block now holds item l's sums for the chunk's taps.
          for (int64_t o = 0; o < kDwOc; ++o) {
            TransposeBlock(pj + o * kLanes * kLanes);
          }
        }
        for (int64_t l = 0; l < g.Valid(grp); ++l) {
          for (int64_t j = 0; j < blocks; ++j) {
            for (int64_t o = 0; o < kDwOc; ++o) {
              const float* row = part.get() + j * block_floats + (o * kLanes + l) * kLanes;
              float* s = sum + o * kLanes;
              VStore(s, first ? VLoad(row) : VAdd(VLoad(s), VLoad(row)));
            }
            first = false;
          }
        }
      }
      const int64_t np = std::min(kLanes, g.ckk - p0);
      for (int64_t o = 0; o < kDwOc && o0 + o < oc; ++o) {
        float* dst = grad + (o0 + o) * g.ckk + p0;
        const float* s = sum + o * kLanes;
        for (int64_t e = 0; e < np; ++e) {
          dst[e] += s[e];
        }
      }
    }
  });
}

// dX: per (tap, pixel), a chain over output channels, added into a zeroed
// input gradient in ascending tap order.
Tensor InputGrad(const Geometry& g, const float* dy, int64_t oc, int64_t ocp,
                 const float* w) {
  const int64_t kk = g.kh * g.kw;
  const int64_t tiles = CeilDiv(g.c, kDxCi);
  // Weights as [tile][tap][oc][kDxCi], zero past c: one line per chain step.
  std::vector<float> wb(static_cast<size_t>(tiles * kk * oc * kDxCi), 0.0F);
  for (int64_t o = 0; o < oc; ++o) {
    for (int64_t p = 0; p < g.ckk; ++p) {
      const int64_t ci = p / kk;
      wb[static_cast<size_t>(((ci / kDxCi * kk + p % kk) * oc + o) * kDxCi +
                             ci % kDxCi)] = w[o * g.ckk + p];
    }
  }
  Tensor dx = Tensor::Uninitialized({g.batch, g.c, g.h, g.w});
  float* dxp = dx.Data();
  const int64_t hw = g.h * g.w;
  const int64_t task_work = kLanes * kDxCi * g.ohow * kk * oc;
  ParallelFor(g.groups * tiles, Grain(task_work), [&](int64_t lo, int64_t hi) {
    Buffer lanes(AllocLanes(kDxCi * g.plane));
    float* dxg = lanes.get();
    for (int64_t task = lo; task < hi; ++task) {
      const int64_t grp = task / tiles;
      const int64_t tile = task % tiles;
      std::memset(dxg, 0, static_cast<size_t>(kDxCi * g.plane) * sizeof(float));
      const float* dyg = dy + grp * ocp * g.ohow * kLanes;
      for (int64_t y = 0; y < g.kh; ++y) {
        for (int64_t x0 = 0; x0 < g.kw; ++x0) {
          const int64_t toff = g.TapOffset(y, x0);
          const float* wt = wb.data() + ((tile * kk) + y * g.kw + x0) * oc * kDxCi;
          for (int64_t q0 = 0; q0 < g.ohow; q0 += kDxPix) {
            WithCount<kDxPix>(std::min<int64_t>(kDxPix, g.ohow - q0), [&](auto pb) {
              DxTile<kDxCi, decltype(pb)::value>(dyg + q0 * kLanes, g.ohow, wt, oc,
                                                 dxg, g.plane, g.pix.data() + q0,
                                                 toff);
            });
          }
        }
      }
      const int64_t nvalid = g.Valid(grp);
      for (int64_t cl = 0; cl < kDxCi && tile * kDxCi + cl < g.c; ++cl) {
        const int64_t ci = tile * kDxCi + cl;
        for (int64_t y = 0; y < g.h; ++y) {
          UnpackRow(dxg + cl * g.plane + ((y + g.pad) * g.wp + g.pad) * kLanes, g.w,
                    dxp + (grp * kLanes * g.c + ci) * hw + y * g.w, g.c * hw, nvalid);
        }
      }
    }
  });
  return dx;
}

}  // namespace

ConvInput::ConvInput(const Tensor& input, const ConvGeom& geom)
    : batch_(input.Size(0)),
      channels_(input.Size(1)),
      height_(input.Size(2)),
      width_(input.Size(3)),
      geom_(geom) {
  EGERIA_CHECK(input.Dim() == 4);
  EGERIA_CHECK_MSG(geom.OutH(height_) > 0 && geom.OutW(width_) > 0,
                   "conv: empty output");
  const Geometry g(*this);
  lanes_ = std::shared_ptr<float>(AllocLanes(g.groups * g.c * g.plane), FreeDeleter());
  float* lanes = lanes_.get();
  const float* src = input.Data();
  const int64_t hw = g.h * g.w;
  const int64_t row = g.wp * kLanes;
  const auto zero = [](float* p, int64_t n) {
    std::memset(p, 0, static_cast<size_t>(n) * sizeof(float));
  };
  ParallelFor(g.groups * g.c, Grain(g.plane), [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const int64_t grp = t / g.c;
      const int64_t ci = t % g.c;
      float* dst = lanes + t * g.plane;
      zero(dst, g.pad * row);
      zero(dst + (g.pad + g.h) * row, g.pad * row);
      for (int64_t y = 0; y < g.h; ++y) {
        float* r = dst + (y + g.pad) * row;
        zero(r, g.pad * kLanes);
        PackRow(src + (grp * kLanes * g.c + ci) * hw + y * g.w, g.c * hw, g.Valid(grp),
                g.w, r + g.pad * kLanes);
        zero(r + (g.pad + g.w) * kLanes, g.pad * kLanes);
      }
    }
  });
}

Tensor ConvForward(const ConvInput& x, const Tensor& weight, const float* bias) {
  EGERIA_CHECK_MSG(x.Defined(), "ConvForward: empty input");
  const Geometry g(x);
  EGERIA_CHECK(weight.Dim() == 2 && weight.Size(1) == g.ckk);
  const int64_t oc = weight.Size(0);
  const int64_t tiles = CeilDiv(oc, kFwdOc);
  // Weights as [tile][p][kFwdOc], zero past oc: one line per chain step.
  std::vector<float> wt(static_cast<size_t>(tiles * g.ckk * kFwdOc), 0.0F);
  const float* w = weight.Data();
  for (int64_t o = 0; o < oc; ++o) {
    for (int64_t p = 0; p < g.ckk; ++p) {
      wt[static_cast<size_t>((o / kFwdOc * g.ckk + p) * kFwdOc + o % kFwdOc)] =
          w[o * g.ckk + p];
    }
  }
  Tensor out = Tensor::Uninitialized({g.batch, oc, g.oh, g.ow});
  float* op = out.Data();
  const float* xl = x.lanes_.get();
  const int64_t ystride = g.ohow * kLanes;
  const int64_t task_work = kLanes * kFwdOc * g.ohow * g.ckk;
  ParallelFor(g.groups * tiles, Grain(task_work), [&](int64_t lo, int64_t hi) {
    Buffer y(AllocLanes(kFwdOc * ystride));
    for (int64_t task = lo; task < hi; ++task) {
      const int64_t grp = task / tiles;
      const int64_t tile = task % tiles;
      const float* xg = xl + grp * g.c * g.plane;
      const float* wtile = wt.data() + tile * g.ckk * kFwdOc;
      for (int64_t k0 = 0; k0 < g.ckk; k0 += kChainSplit) {
        const int64_t k1 = std::min(g.ckk, k0 + kChainSplit);
        for (int64_t q0 = 0; q0 < g.ohow; q0 += kFwdPix) {
          WithCount<kFwdPix>(std::min<int64_t>(kFwdPix, g.ohow - q0), [&](auto pb) {
            FwdTile<kFwdOc, decltype(pb)::value>(xg, g.pix.data() + q0, g.tap.data(),
                                                 wtile, k0, k1, y.get() + q0 * kLanes,
                                                 ystride, k0 == 0);
          });
        }
      }
      for (int64_t o = 0; o < kFwdOc && tile * kFwdOc + o < oc; ++o) {
        const int64_t oi = tile * kFwdOc + o;
        float* yo = y.get() + o * ystride;
        if (bias != nullptr) {
          AddBias(yo, g.ohow, bias[oi]);
        }
        UnpackRow(yo, g.ohow, op + (grp * kLanes * oc + oi) * g.ohow, oc * g.ohow,
                  g.Valid(grp));
      }
    }
  });
  return out;
}

Tensor ConvBackward(const ConvInput& x, const Tensor& grad_out, const Tensor& weight,
                    float* grad_weight, float* grad_bias) {
  EGERIA_CHECK_MSG(x.Defined(), "ConvBackward: empty input");
  const Geometry g(x);
  EGERIA_CHECK(weight.Dim() == 2 && weight.Size(1) == g.ckk);
  const int64_t oc = weight.Size(0);
  EGERIA_CHECK_MSG(grad_out.Dim() == 4 && grad_out.Size(0) == g.batch &&
                       grad_out.Size(1) == oc && grad_out.Size(2) == g.oh &&
                       grad_out.Size(3) == g.ow,
                   "ConvBackward: grad_out " + grad_out.ShapeStr() +
                       " does not match the packed input");
  const float* dyp = grad_out.Data();
  if (grad_bias != nullptr) {
    // Per item a double sum over pixels; items fold in ascending order.
    for (int64_t c = 0; c < oc; ++c) {
      double total = 0.0;
      for (int64_t b = 0; b < g.batch; ++b) {
        const float* plane = dyp + (b * oc + c) * g.ohow;
        double s = 0.0;
        for (int64_t i = 0; i < g.ohow; ++i) {
          s += plane[i];
        }
        total += s;
      }
      grad_bias[c] += static_cast<float>(total);
    }
  }
  // dy in lanes, [groups][ocp][ohow][kLanes]; rows from oc to ocp are zero.
  const int64_t ocp = CeilDiv(oc, kDwOc) * kDwOc;
  Buffer dy(AllocLanes(g.groups * ocp * g.ohow * kLanes));
  ParallelFor(g.groups * ocp, Grain(g.ohow * kLanes), [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const int64_t grp = t / ocp;
      const int64_t o = t % ocp;
      float* dst = dy.get() + t * g.ohow * kLanes;
      if (o < oc) {
        PackRow(dyp + (grp * kLanes * oc + o) * g.ohow, oc * g.ohow, g.Valid(grp),
                g.ohow, dst);
      } else {
        std::memset(dst, 0, static_cast<size_t>(g.ohow * kLanes) * sizeof(float));
      }
    }
  });
  WeightGrad(g, x.lanes_.get(), dy.get(), oc, ocp, grad_weight);
  return InputGrad(g, dy.get(), oc, ocp, weight.Data());
}

}  // namespace egeria
