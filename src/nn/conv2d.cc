#include "src/nn/conv2d.h"

#include <utility>
#include <vector>

#include "src/nn/init.h"
#include "src/tensor/compute_pool.h"
#include "src/util/logging.h"

namespace egeria {

namespace {

ConvGeom MakeGeom(int64_t kernel, int64_t stride, int64_t pad, int64_t dilation) {
  ConvGeom g;
  g.kernel_h = kernel;
  g.kernel_w = kernel;
  g.stride = stride;
  g.pad = (pad >= 0) ? pad : dilation * (kernel - 1) / 2;
  g.dilation = dilation;
  return g;
}

}  // namespace

Conv2d::Conv2d(std::string name, int64_t in_channels, int64_t out_channels, int64_t kernel,
               Rng& rng, int64_t stride, int64_t pad, int64_t dilation, bool bias)
    : Module(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      geom_(MakeGeom(kernel, stride, pad, dilation)),
      has_bias_(bias) {
  const int64_t fan_in = in_channels * kernel * kernel;
  weight_ = Parameter(name_ + ".weight", KaimingNormal({out_channels, fan_in}, fan_in, rng));
  if (has_bias_) {
    bias_ = Parameter(name_ + ".bias", Tensor::Zeros({out_channels}));
  }
}

Tensor Conv2d::Forward(const Tensor& input) {
  EGERIA_CHECK(input.Dim() == 4);
  EGERIA_CHECK_MSG(input.Size(1) == in_channels_, name_ + ": in_channels mismatch");
  ConvInput x(input, geom_);
  Tensor out =
      ConvForward(x, weight_.value, has_bias_ ? bias_.value.Data() : nullptr);
  if (training_) {
    cached_input_ = std::move(x);
  }
  return out;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_input_.Defined(), name_ + ": Backward without Forward");
  const std::vector<int64_t> expected{cached_input_.batch(), out_channels_,
                                      geom_.OutH(cached_input_.height()),
                                      geom_.OutW(cached_input_.width())};
  EGERIA_CHECK_MSG(grad_output.Shape() == expected,
                   name_ + ": grad_output " + grad_output.ShapeStr() +
                       " does not match the cached training Forward");
  return ConvBackward(cached_input_, grad_output, weight_.value, weight_.grad.Data(),
                      has_bias_ ? bias_.grad.Data() : nullptr);
}

std::vector<Parameter*> Conv2d::LocalParams() {
  std::vector<Parameter*> params{&weight_};
  if (has_bias_) {
    params.push_back(&bias_);
  }
  return params;
}

std::unique_ptr<Module> Conv2d::CloneForInference(const InferenceFactory& factory) const {
  return factory.MakeConv2d(*this);
}

DepthwiseConv2d::DepthwiseConv2d(std::string name, int64_t channels, int64_t kernel,
                                 Rng& rng, int64_t stride, int64_t pad)
    : Module(std::move(name)),
      channels_(channels),
      geom_(MakeGeom(kernel, stride, pad, /*dilation=*/1)) {
  const int64_t fan_in = kernel * kernel;
  weight_ = Parameter(name_ + ".weight", KaimingNormal({channels, fan_in}, fan_in, rng));
}

Tensor DepthwiseConv2d::Forward(const Tensor& input) {
  EGERIA_CHECK(input.Dim() == 4 && input.Size(1) == channels_);
  if (training_) {
    cached_input_ = input;
  }
  const int64_t b = input.Size(0);
  const int64_t h = input.Size(2);
  const int64_t w = input.Size(3);
  const int64_t oh = geom_.OutH(h);
  const int64_t ow = geom_.OutW(w);
  Tensor out({b, channels_, oh, ow});
  const int64_t k = geom_.kernel_h;
  // (batch, channel) planes are independent — shard the flattened pair index.
  ParallelFor(b * channels_, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t bc = lo; bc < hi; ++bc) {
      const int64_t bi = bc / channels_;
      const int64_t c = bc % channels_;
      const float* plane = input.Data() + (bi * channels_ + c) * h * w;
      const float* kern = weight_.value.Data() + c * k * k;
      float* oplane = out.Data() + (bi * channels_ + c) * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float s = 0.0F;
          for (int64_t ky = 0; ky < k; ++ky) {
            const int64_t iy = oy * geom_.stride - geom_.pad + ky;
            if (iy < 0 || iy >= h) {
              continue;
            }
            for (int64_t kx = 0; kx < k; ++kx) {
              const int64_t ix = ox * geom_.stride - geom_.pad + kx;
              if (ix < 0 || ix >= w) {
                continue;
              }
              s += kern[ky * k + kx] * plane[iy * w + ix];
            }
          }
          oplane[oy * ow + ox] = s;
        }
      }
    }
  });
  return out;
}

Tensor DepthwiseConv2d::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_input_.Defined(), name_ + ": Backward without Forward");
  const int64_t b = cached_input_.Size(0);
  const int64_t h = cached_input_.Size(2);
  const int64_t w = cached_input_.Size(3);
  const int64_t oh = geom_.OutH(h);
  const int64_t ow = geom_.OutW(w);
  const int64_t k = geom_.kernel_h;
  Tensor grad_in({b, channels_, h, w});
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t c = 0; c < channels_; ++c) {
      const float* plane = cached_input_.Data() + (bi * channels_ + c) * h * w;
      const float* gplane = grad_output.Data() + (bi * channels_ + c) * oh * ow;
      const float* kern = weight_.value.Data() + c * k * k;
      float* dkern = weight_.grad.Data() + c * k * k;
      float* iplane = grad_in.Data() + (bi * channels_ + c) * h * w;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const float g = gplane[oy * ow + ox];
          if (g == 0.0F) {
            continue;
          }
          for (int64_t ky = 0; ky < k; ++ky) {
            const int64_t iy = oy * geom_.stride - geom_.pad + ky;
            if (iy < 0 || iy >= h) {
              continue;
            }
            for (int64_t kx = 0; kx < k; ++kx) {
              const int64_t ix = ox * geom_.stride - geom_.pad + kx;
              if (ix < 0 || ix >= w) {
                continue;
              }
              dkern[ky * k + kx] += g * plane[iy * w + ix];
              iplane[iy * w + ix] += g * kern[ky * k + kx];
            }
          }
        }
      }
    }
  }
  return grad_in;
}

std::vector<Parameter*> DepthwiseConv2d::LocalParams() { return {&weight_}; }

std::unique_ptr<Module> DepthwiseConv2d::CloneForInference(
    const InferenceFactory& factory) const {
  return factory.MakeDepthwiseConv2d(*this);
}

}  // namespace egeria
