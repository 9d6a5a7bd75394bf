// Microbenchmarks of the compute kernels and metrics (google-benchmark).
//
// Reproduces two paper claims quantitatively:
//  - SP loss is much cheaper than PWCCA ("~10x lower overhead", S3);
//  - the int8 reference forward is faster than fp32 (Table 2's speed column).
#include <benchmark/benchmark.h>

#include <vector>

#include "src/metrics/pwcca.h"
#include "src/metrics/sp_loss.h"
#include "src/nn/batchnorm.h"
#include "src/nn/conv2d.h"
#include "src/nn/linear.h"
#include "src/quant/quantized_modules.h"
#include "src/tensor/gemm.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  // items_per_second * 2 = FLOP/s (each item is one multiply-add).
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

// fp16-storage GEMM (fp16 weights x fp32 activations, the inference layout).
void BM_MatMulFp16(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  std::vector<_Float16> bh(static_cast<size_t>(n * n));
  for (int64_t i = 0; i < n * n; ++i) {
    bh[static_cast<size_t>(i)] = static_cast<_Float16>(b.Data()[i]);
  }
  Tensor c = Tensor::Uninitialized({n, n});
  for (auto _ : state) {
    Gemm(a.Data(), bh.data(), c.Data(), n, n, n, false, false, false);
    benchmark::DoNotOptimize(c.Data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulFp16)->Arg(256);

// int8 dot4 GEMM into exact int32 (requantization excluded: that cost is
// measured end-to-end by the conv/linear benches below).
void BM_MatMulInt8(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  std::vector<int8_t> a(static_cast<size_t>(n * n));
  std::vector<int8_t> b(static_cast<size_t>(n * n));
  for (auto& v : a) {
    v = static_cast<int8_t>(static_cast<int>(rng.NextBelow(255)) - 127);
  }
  for (auto& v : b) {
    v = static_cast<int8_t>(static_cast<int>(rng.NextBelow(255)) - 127);
  }
  std::vector<int32_t> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    Gemm(a.data(), b.data(), c.data(), n, n, n, false, false, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulInt8)->Arg(256);

void BM_ConvForwardFloat(benchmark::State& state) {
  Rng rng(2);
  Conv2d conv("c", 16, 16, 3, rng);
  conv.SetTraining(false);
  Tensor x = Tensor::Randn({8, 16, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
}
BENCHMARK(BM_ConvForwardFloat);

// One training step's convolution work (Forward, then Backward) on the layer
// shapes the presets train. Args: batch, in channels, out channels, spatial
// size, kernel, dilation ("same" padding, stride 1).
void BM_Conv2dTrainStep(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t in_c = state.range(1);
  const int64_t out_c = state.range(2);
  const int64_t hw = state.range(3);
  Rng rng(5);
  Conv2d conv("c", in_c, out_c, state.range(4), rng, /*stride=*/1, /*pad=*/-1,
              /*dilation=*/state.range(5));
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  Tensor dy = Tensor::Randn({batch, out_c, hw, hw}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
    benchmark::DoNotOptimize(conv.Backward(dy));
  }
}
BENCHMARK(BM_Conv2dTrainStep)
    ->ArgNames({"b", "in", "out", "hw", "k", "d"})
    // ResNet-56 (cnn-freeze, cnn-nofreeze) stages.
    ->Args({16, 4, 4, 12, 3, 1})
    ->Args({16, 8, 8, 6, 3, 1})
    ->Args({16, 16, 16, 3, 3, 1})
    // ResNet-20 (dist-w2) stages.
    ->Args({16, 8, 8, 12, 3, 1})
    ->Args({16, 32, 32, 3, 3, 1})
    // fig10 and the tiny distributed preset.
    ->Args({8, 20, 20, 12, 3, 1})
    ->Args({8, 4, 4, 10, 3, 1})
    // ResNet-50 bottleneck 1x1 projections.
    ->Args({16, 16, 8, 16, 1, 1})
    ->Args({16, 128, 32, 2, 1, 1})
    // MobileNetV2 1x1 expansions.
    ->Args({16, 80, 320, 3, 1, 1})
    ->Args({16, 4, 24, 12, 1, 1})
    // DeepLab's dilated 3x3.
    ->Args({16, 24, 24, 6, 3, 2});

// BatchNorm2d forward + backward with batch statistics, at the ResNet shapes
// above (channels = the convolution's output channels).
void BM_BatchNorm2dTrainStep(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t channels = state.range(1);
  const int64_t hw = state.range(2);
  Rng rng(6);
  BatchNorm2d bn("bn", channels);
  Tensor x = Tensor::Randn({batch, channels, hw, hw}, rng);
  Tensor dy = Tensor::Randn({batch, channels, hw, hw}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn.Forward(x));
    benchmark::DoNotOptimize(bn.Backward(dy));
  }
}
BENCHMARK(BM_BatchNorm2dTrainStep)
    ->ArgNames({"b", "c", "hw"})
    // ResNet-56 (cnn-freeze, cnn-nofreeze) stages.
    ->Args({16, 4, 12})
    ->Args({16, 8, 6})
    ->Args({16, 16, 3})
    // ResNet-20 (dist-w2) stages.
    ->Args({16, 8, 12})
    ->Args({16, 32, 3});

void BM_ConvForwardInt8(benchmark::State& state) {
  Rng rng(2);
  Conv2d fp("c", 16, 16, 3, rng);
  QuantConv2d conv(fp, QuantMode::kStatic);
  Tensor x = Tensor::Randn({8, 16, 16, 16}, rng);
  conv.Forward(x);  // calibration
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
}
BENCHMARK(BM_ConvForwardInt8);

void BM_ConvForwardFp16(benchmark::State& state) {
  Rng rng(2);
  Conv2d fp("c", 16, 16, 3, rng);
  Fp16Conv2d conv(fp);
  Tensor x = Tensor::Randn({8, 16, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
}
BENCHMARK(BM_ConvForwardFp16);

void BM_LinearForwardFloat(benchmark::State& state) {
  Rng rng(3);
  Linear fc("l", 256, 256, rng);
  fc.SetTraining(false);
  Tensor x = Tensor::Randn({32, 256}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fc.Forward(x));
  }
}
BENCHMARK(BM_LinearForwardFloat);

void BM_LinearForwardInt8(benchmark::State& state) {
  Rng rng(3);
  Linear fp("l", 256, 256, rng);
  QuantLinear fc(fp, QuantMode::kDynamic);
  Tensor x = Tensor::Randn({32, 256}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fc.Forward(x));
  }
}
BENCHMARK(BM_LinearForwardInt8);

// SP loss vs PWCCA on the same activation pair — the paper's ~10x cost claim.
void BM_SpLoss(benchmark::State& state) {
  Rng rng(4);
  Tensor a = Tensor::Randn({16, 32, 8, 8}, rng);
  Tensor b = Tensor::Randn({16, 32, 8, 8}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpLoss(a, b));
  }
}
BENCHMARK(BM_SpLoss);

void BM_Pwcca(benchmark::State& state) {
  Rng rng(4);
  Tensor a = ActivationsToSamples(Tensor::Randn({16, 32, 8, 8}, rng));
  Tensor b = ActivationsToSamples(Tensor::Randn({16, 32, 8, 8}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PwccaDistance(a, b));
  }
}
BENCHMARK(BM_Pwcca);

}  // namespace
}  // namespace egeria
