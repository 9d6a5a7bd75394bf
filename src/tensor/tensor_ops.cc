#include "src/tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/tensor/compute_pool.h"
#include "src/util/logging.h"

namespace egeria {

Tensor MatMul(const Tensor& a, const Tensor& b) {
  EGERIA_CHECK(a.Dim() == 2 && b.Dim() == 2);
  const int64_t m = a.Size(0);
  const int64_t k = a.Size(1);
  const int64_t n = b.Size(1);
  EGERIA_CHECK_MSG(b.Size(0) == k, "MatMul inner dim mismatch");
  Tensor c = Tensor::Uninitialized({m, n});
  Gemm(a.Data(), b.Data(), c.Data(), m, k, n, /*trans_a=*/false, /*trans_b=*/false,
       /*accumulate=*/false);
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  EGERIA_CHECK(a.Dim() == 2 && b.Dim() == 2);
  const int64_t k = a.Size(0);
  const int64_t m = a.Size(1);
  const int64_t n = b.Size(1);
  EGERIA_CHECK_MSG(b.Size(0) == k, "MatMulTransA inner dim mismatch");
  Tensor c = Tensor::Uninitialized({m, n});
  Gemm(a.Data(), b.Data(), c.Data(), m, k, n, /*trans_a=*/true, /*trans_b=*/false,
       /*accumulate=*/false);
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  EGERIA_CHECK(a.Dim() == 2 && b.Dim() == 2);
  const int64_t m = a.Size(0);
  const int64_t k = a.Size(1);
  const int64_t n = b.Size(0);
  EGERIA_CHECK_MSG(b.Size(1) == k, "MatMulTransB inner dim mismatch");
  Tensor c = Tensor::Uninitialized({m, n});
  Gemm(a.Data(), b.Data(), c.Data(), m, k, n, /*trans_a=*/false, /*trans_b=*/true,
       /*accumulate=*/false);
  return c;
}

Tensor BatchedMatMul(const Tensor& a, const Tensor& b, bool trans_b) {
  EGERIA_CHECK(a.Dim() == 3 && b.Dim() == 3);
  const int64_t batch = a.Size(0);
  EGERIA_CHECK(b.Size(0) == batch);
  const int64_t m = a.Size(1);
  const int64_t k = a.Size(2);
  const int64_t n = trans_b ? b.Size(1) : b.Size(2);
  EGERIA_CHECK((trans_b ? b.Size(2) : b.Size(1)) == k);
  Tensor c = Tensor::Uninitialized({batch, m, n});
  BatchedGemm(a.Data(), b.Data(), c.Data(), batch, m, k, n, /*trans_a=*/false, trans_b,
              /*accumulate=*/false);
  return c;
}

Tensor BatchedMatMulTransA(const Tensor& a, const Tensor& b) {
  EGERIA_CHECK(a.Dim() == 3 && b.Dim() == 3);
  const int64_t batch = a.Size(0);
  EGERIA_CHECK(b.Size(0) == batch);
  const int64_t k = a.Size(1);
  const int64_t m = a.Size(2);
  const int64_t n = b.Size(2);
  EGERIA_CHECK(b.Size(1) == k);
  Tensor c = Tensor::Uninitialized({batch, m, n});
  BatchedGemm(a.Data(), b.Data(), c.Data(), batch, m, k, n, /*trans_a=*/true,
              /*trans_b=*/false, /*accumulate=*/false);
  return c;
}

namespace {

// One image [c,h,w] -> columns [c*kh*kw, oh*ow]; element type generic so the
// int8 quantized path can gather bytes.
template <class T>
void Im2ColItem(const T* img, int64_t c, int64_t h, int64_t w, const ConvGeom& g,
                T* col) {
  const int64_t oh = g.OutH(h);
  const int64_t ow = g.OutW(w);
  for (int64_t ci = 0; ci < c; ++ci) {
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const int64_t row = (ci * g.kernel_h + kh) * g.kernel_w + kw;
        T* dst = col + row * oh * ow;
        // stride 1 / dilation 1 (the dominant case): each output row is the
        // source row shifted by kw-pad — zeroed edges around one contiguous
        // copy. The generic gather below covers everything else.
        const bool contiguous = g.stride == 1 && g.dilation == 1;
        const int64_t shift = kw * g.dilation - g.pad;  // ix = ox + shift
        const int64_t ox_lo = contiguous ? std::min<int64_t>(ow, std::max<int64_t>(0, -shift)) : 0;
        const int64_t ox_hi = contiguous ? std::max<int64_t>(ox_lo, std::min<int64_t>(ow, w - shift)) : 0;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * g.stride - g.pad + kh * g.dilation;
          if (iy < 0 || iy >= h) {
            std::fill(dst + oy * ow, dst + (oy + 1) * ow, T{});
            continue;
          }
          const T* src_row = img + (ci * h + iy) * w;
          if (contiguous) {
            T* out_row = dst + oy * ow;
            std::fill(out_row, out_row + ox_lo, T{});
            std::memcpy(out_row + ox_lo, src_row + ox_lo + shift,
                        static_cast<size_t>(ox_hi - ox_lo) * sizeof(T));
            std::fill(out_row + ox_hi, out_row + ow, T{});
            continue;
          }
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * g.stride - g.pad + kw * g.dilation;
            dst[oy * ow + ox] = (ix >= 0 && ix < w) ? src_row[ix] : T{};
          }
        }
      }
    }
  }
}

}  // namespace

Tensor Im2Col(const Tensor& input, const ConvGeom& g) {
  EGERIA_CHECK(input.Dim() == 4);
  const int64_t b = input.Size(0);
  const int64_t c = input.Size(1);
  const int64_t h = input.Size(2);
  const int64_t w = input.Size(3);
  const int64_t oh = g.OutH(h);
  const int64_t ow = g.OutW(w);
  EGERIA_CHECK_MSG(oh > 0 && ow > 0, "Im2Col produced empty output");
  Tensor cols = Tensor::Uninitialized({b, c * g.kernel_h * g.kernel_w, oh * ow});
  const float* in = input.Data();
  float* out = cols.Data();
  const int64_t col_rows = c * g.kernel_h * g.kernel_w;
  // Batch items write disjoint column blocks, so the loop shards cleanly.
  ParallelFor(b, 1, [&](int64_t b_lo, int64_t b_hi) {
    for (int64_t bi = b_lo; bi < b_hi; ++bi) {
      Im2ColItem(in + bi * c * h * w, c, h, w, g, out + bi * col_rows * oh * ow);
    }
  });
  return cols;
}

void Im2ColItemI8(const int8_t* img, int64_t c, int64_t h, int64_t w,
                  const ConvGeom& g, int8_t* out) {
  Im2ColItem(img, c, h, w, g, out);
}

std::pair<Tensor, Tensor> MaxPool2dForward(const Tensor& input, int64_t kernel,
                                           int64_t stride) {
  EGERIA_CHECK(input.Dim() == 4);
  const int64_t b = input.Size(0);
  const int64_t c = input.Size(1);
  const int64_t h = input.Size(2);
  const int64_t w = input.Size(3);
  const int64_t oh = (h - kernel) / stride + 1;
  const int64_t ow = (w - kernel) / stride + 1;
  EGERIA_CHECK(oh > 0 && ow > 0);
  Tensor out({b, c, oh, ow});
  Tensor argmax({b, c, oh, ow});
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* plane = input.Data() + (bi * c + ci) * h * w;
      float* oplane = out.Data() + (bi * c + ci) * oh * ow;
      float* aplane = argmax.Data() + (bi * c + ci) * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = 0;
          for (int64_t ky = 0; ky < kernel; ++ky) {
            for (int64_t kx = 0; kx < kernel; ++kx) {
              const int64_t iy = oy * stride + ky;
              const int64_t ix = ox * stride + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = iy * w + ix;
              }
            }
          }
          oplane[oy * ow + ox] = best;
          aplane[oy * ow + ox] = static_cast<float>(best_idx);
        }
      }
    }
  }
  return {out, argmax};
}

Tensor MaxPool2dBackward(const Tensor& grad_out, const Tensor& argmax, int64_t in_h,
                         int64_t in_w) {
  EGERIA_CHECK(grad_out.Dim() == 4 && argmax.SameShape(grad_out));
  const int64_t b = grad_out.Size(0);
  const int64_t c = grad_out.Size(1);
  const int64_t oh = grad_out.Size(2);
  const int64_t ow = grad_out.Size(3);
  Tensor grad_in({b, c, in_h, in_w});
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* gplane = grad_out.Data() + (bi * c + ci) * oh * ow;
      const float* aplane = argmax.Data() + (bi * c + ci) * oh * ow;
      float* iplane = grad_in.Data() + (bi * c + ci) * in_h * in_w;
      for (int64_t i = 0; i < oh * ow; ++i) {
        iplane[static_cast<int64_t>(aplane[i])] += gplane[i];
      }
    }
  }
  return grad_in;
}

Tensor AvgPool2dForward(const Tensor& input, int64_t kernel, int64_t stride) {
  EGERIA_CHECK(input.Dim() == 4);
  const int64_t b = input.Size(0);
  const int64_t c = input.Size(1);
  const int64_t h = input.Size(2);
  const int64_t w = input.Size(3);
  const int64_t oh = (h - kernel) / stride + 1;
  const int64_t ow = (w - kernel) / stride + 1;
  EGERIA_CHECK(oh > 0 && ow > 0);
  Tensor out({b, c, oh, ow});
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* plane = input.Data() + (bi * c + ci) * h * w;
      float* oplane = out.Data() + (bi * c + ci) * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float s = 0.0F;
          for (int64_t ky = 0; ky < kernel; ++ky) {
            for (int64_t kx = 0; kx < kernel; ++kx) {
              s += plane[(oy * stride + ky) * w + ox * stride + kx];
            }
          }
          oplane[oy * ow + ox] = s * inv;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2dBackward(const Tensor& grad_out, int64_t kernel, int64_t stride,
                         int64_t in_h, int64_t in_w) {
  EGERIA_CHECK(grad_out.Dim() == 4);
  const int64_t b = grad_out.Size(0);
  const int64_t c = grad_out.Size(1);
  const int64_t oh = grad_out.Size(2);
  const int64_t ow = grad_out.Size(3);
  Tensor grad_in({b, c, in_h, in_w});
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* gplane = grad_out.Data() + (bi * c + ci) * oh * ow;
      float* iplane = grad_in.Data() + (bi * c + ci) * in_h * in_w;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const float g = gplane[oy * ow + ox] * inv;
          for (int64_t ky = 0; ky < kernel; ++ky) {
            for (int64_t kx = 0; kx < kernel; ++kx) {
              iplane[(oy * stride + ky) * in_w + ox * stride + kx] += g;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor GlobalAvgPoolForward(const Tensor& input) {
  EGERIA_CHECK(input.Dim() == 4);
  const int64_t b = input.Size(0);
  const int64_t c = input.Size(1);
  const int64_t hw = input.Size(2) * input.Size(3);
  Tensor out({b, c});
  const float inv = 1.0F / static_cast<float>(hw);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* plane = input.Data() + (bi * c + ci) * hw;
      double s = 0.0;
      for (int64_t i = 0; i < hw; ++i) {
        s += plane[i];
      }
      out.At(bi, ci) = static_cast<float>(s) * inv;
    }
  }
  return out;
}

Tensor GlobalAvgPoolBackward(const Tensor& grad_out, int64_t h, int64_t w) {
  EGERIA_CHECK(grad_out.Dim() == 2);
  const int64_t b = grad_out.Size(0);
  const int64_t c = grad_out.Size(1);
  Tensor grad_in({b, c, h, w});
  const float inv = 1.0F / static_cast<float>(h * w);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float g = grad_out.At(bi, ci) * inv;
      float* plane = grad_in.Data() + (bi * c + ci) * h * w;
      for (int64_t i = 0; i < h * w; ++i) {
        plane[i] = g;
      }
    }
  }
  return grad_in;
}

Tensor Softmax(const Tensor& logits) {
  EGERIA_CHECK(logits.Dim() >= 1);
  const int64_t n = logits.Size(-1);
  const int64_t rows = logits.NumEl() / n;
  Tensor out = logits.Clone();
  float* p = out.Data();
  // Rows are independent; the grain keeps per-chunk work above pool overhead.
  ParallelFor(rows, 4096 / std::max<int64_t>(n, 1) + 1, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      float* row = p + r * n;
      float mx = row[0];
      for (int64_t i = 1; i < n; ++i) {
        mx = std::max(mx, row[i]);
      }
      double sum = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        row[i] = std::exp(row[i] - mx);
        sum += row[i];
      }
      const float inv = static_cast<float>(1.0 / sum);
      for (int64_t i = 0; i < n; ++i) {
        row[i] *= inv;
      }
    }
  });
  return out;
}

Tensor LogSoftmax(const Tensor& logits) {
  EGERIA_CHECK(logits.Dim() >= 1);
  const int64_t n = logits.Size(-1);
  const int64_t rows = logits.NumEl() / n;
  Tensor out = logits.Clone();
  float* p = out.Data();
  ParallelFor(rows, 4096 / std::max<int64_t>(n, 1) + 1, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      float* row = p + r * n;
      float mx = row[0];
      for (int64_t i = 1; i < n; ++i) {
        mx = std::max(mx, row[i]);
      }
      double sum = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        sum += std::exp(static_cast<double>(row[i] - mx));
      }
      const float lse = mx + static_cast<float>(std::log(sum));
      for (int64_t i = 0; i < n; ++i) {
        row[i] -= lse;
      }
    }
  });
  return out;
}

Tensor Transpose2d(const Tensor& a) {
  EGERIA_CHECK(a.Dim() == 2);
  const int64_t m = a.Size(0);
  const int64_t n = a.Size(1);
  Tensor t({n, m});
  const float* ap = a.Data();
  float* tp = t.Data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      tp[j * m + i] = ap[i * n + j];
    }
  }
  return t;
}

Tensor SwapAxes12(const Tensor& a) {
  EGERIA_CHECK(a.Dim() == 4);
  const int64_t b = a.Size(0);
  const int64_t t = a.Size(1);
  const int64_t h = a.Size(2);
  const int64_t d = a.Size(3);
  Tensor out({b, h, t, d});
  const float* ap = a.Data();
  float* op = out.Data();
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ti = 0; ti < t; ++ti) {
      for (int64_t hi = 0; hi < h; ++hi) {
        const float* src = ap + ((bi * t + ti) * h + hi) * d;
        float* dst = op + ((bi * h + hi) * t + ti) * d;
        std::copy(src, src + d, dst);
      }
    }
  }
  return out;
}

Tensor BilinearUpsampleForward(const Tensor& input, int64_t out_h, int64_t out_w) {
  EGERIA_CHECK(input.Dim() == 4);
  const int64_t b = input.Size(0);
  const int64_t c = input.Size(1);
  const int64_t h = input.Size(2);
  const int64_t w = input.Size(3);
  Tensor out({b, c, out_h, out_w});
  const float scale_y = static_cast<float>(h) / static_cast<float>(out_h);
  const float scale_x = static_cast<float>(w) / static_cast<float>(out_w);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* plane = input.Data() + (bi * c + ci) * h * w;
      float* oplane = out.Data() + (bi * c + ci) * out_h * out_w;
      for (int64_t oy = 0; oy < out_h; ++oy) {
        float sy = (static_cast<float>(oy) + 0.5F) * scale_y - 0.5F;
        sy = std::max(0.0F, std::min(sy, static_cast<float>(h - 1)));
        const int64_t y0 = static_cast<int64_t>(sy);
        const int64_t y1 = std::min(y0 + 1, h - 1);
        const float fy = sy - static_cast<float>(y0);
        for (int64_t ox = 0; ox < out_w; ++ox) {
          float sx = (static_cast<float>(ox) + 0.5F) * scale_x - 0.5F;
          sx = std::max(0.0F, std::min(sx, static_cast<float>(w - 1)));
          const int64_t x0 = static_cast<int64_t>(sx);
          const int64_t x1 = std::min(x0 + 1, w - 1);
          const float fx = sx - static_cast<float>(x0);
          const float v = (1 - fy) * ((1 - fx) * plane[y0 * w + x0] + fx * plane[y0 * w + x1]) +
                          fy * ((1 - fx) * plane[y1 * w + x0] + fx * plane[y1 * w + x1]);
          oplane[oy * out_w + ox] = v;
        }
      }
    }
  }
  return out;
}

Tensor BilinearUpsampleBackward(const Tensor& grad_out, int64_t in_h, int64_t in_w) {
  EGERIA_CHECK(grad_out.Dim() == 4);
  const int64_t b = grad_out.Size(0);
  const int64_t c = grad_out.Size(1);
  const int64_t oh = grad_out.Size(2);
  const int64_t ow = grad_out.Size(3);
  Tensor grad_in({b, c, in_h, in_w});
  const float scale_y = static_cast<float>(in_h) / static_cast<float>(oh);
  const float scale_x = static_cast<float>(in_w) / static_cast<float>(ow);
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* gplane = grad_out.Data() + (bi * c + ci) * oh * ow;
      float* iplane = grad_in.Data() + (bi * c + ci) * in_h * in_w;
      for (int64_t oy = 0; oy < oh; ++oy) {
        float sy = (static_cast<float>(oy) + 0.5F) * scale_y - 0.5F;
        sy = std::max(0.0F, std::min(sy, static_cast<float>(in_h - 1)));
        const int64_t y0 = static_cast<int64_t>(sy);
        const int64_t y1 = std::min(y0 + 1, in_h - 1);
        const float fy = sy - static_cast<float>(y0);
        for (int64_t ox = 0; ox < ow; ++ox) {
          float sx = (static_cast<float>(ox) + 0.5F) * scale_x - 0.5F;
          sx = std::max(0.0F, std::min(sx, static_cast<float>(in_w - 1)));
          const int64_t x0 = static_cast<int64_t>(sx);
          const int64_t x1 = std::min(x0 + 1, in_w - 1);
          const float fx = sx - static_cast<float>(x0);
          const float g = gplane[oy * ow + ox];
          iplane[y0 * in_w + x0] += (1 - fy) * (1 - fx) * g;
          iplane[y0 * in_w + x1] += (1 - fy) * fx * g;
          iplane[y1 * in_w + x0] += fy * (1 - fx) * g;
          iplane[y1 * in_w + x1] += fy * fx * g;
        }
      }
    }
  }
  return grad_in;
}

Tensor ConcatChannels(const std::vector<Tensor>& inputs) {
  EGERIA_CHECK(!inputs.empty());
  const int64_t b = inputs[0].Size(0);
  const int64_t h = inputs[0].Size(2);
  const int64_t w = inputs[0].Size(3);
  int64_t total_c = 0;
  for (const auto& t : inputs) {
    EGERIA_CHECK(t.Dim() == 4 && t.Size(0) == b && t.Size(2) == h && t.Size(3) == w);
    total_c += t.Size(1);
  }
  Tensor out({b, total_c, h, w});
  for (int64_t bi = 0; bi < b; ++bi) {
    int64_t c_off = 0;
    for (const auto& t : inputs) {
      const int64_t ci = t.Size(1);
      const float* src = t.Data() + bi * ci * h * w;
      float* dst = out.Data() + (bi * total_c + c_off) * h * w;
      std::copy(src, src + ci * h * w, dst);
      c_off += ci;
    }
  }
  return out;
}

std::vector<Tensor> SplitChannels(const Tensor& grad, const std::vector<int64_t>& channels) {
  EGERIA_CHECK(grad.Dim() == 4);
  const int64_t b = grad.Size(0);
  const int64_t h = grad.Size(2);
  const int64_t w = grad.Size(3);
  int64_t total_c = 0;
  for (int64_t c : channels) {
    total_c += c;
  }
  EGERIA_CHECK(total_c == grad.Size(1));
  std::vector<Tensor> outs;
  outs.reserve(channels.size());
  for (int64_t c : channels) {
    outs.emplace_back(std::vector<int64_t>{b, c, h, w});
  }
  for (int64_t bi = 0; bi < b; ++bi) {
    int64_t c_off = 0;
    for (size_t k = 0; k < channels.size(); ++k) {
      const int64_t ci = channels[k];
      const float* src = grad.Data() + (bi * total_c + c_off) * h * w;
      float* dst = outs[k].Data() + bi * ci * h * w;
      std::copy(src, src + ci * h * w, dst);
      c_off += ci;
    }
  }
  return outs;
}

}  // namespace egeria
