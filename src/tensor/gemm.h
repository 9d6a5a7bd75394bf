// Packed, cache-blocked, multithreaded GEMM with mixed-precision dtype paths.
//
// One dispatch serves every matmul in the repo (dense layers, attention, CCA
// metrics, quantized reference kernels and their im2col convolutions; training
// convolutions run src/tensor/conv.h instead): C[m,n] (+)= op(A) *
// op(B) with row-major storage, where op transposes the operand's two
// dimensions. All dtypes share one Goto/BLIS blocking and compute-pool
// threading model — see src/tensor/README.md for the blocking parameters,
// packing layouts, and accumulation rules.
//
// Three storage dtypes are supported, selected by overload (or dynamically via
// the GemmDtype-tagged entry point):
//   fp32         — float operands, fp32 accumulation (the training path).
//   fp16         — _Float16 storage for either or both operands; panels are
//                  converted to fp32 at pack time so the fp32 microkernel runs
//                  unchanged (fp32 accumulation, half the operand bandwidth).
//   int8         — int8 operands, exact int32 accumulation via a dot4
//                  (vpdpbusd/VNNI-style) microkernel; per-channel requantization
//                  belongs to the caller (src/quant).
//
// Accumulation semantics are uniform across transpose combinations and dtypes:
// fp32 (or int32) microkernel accumulators, with k-blocks folded into C in a
// fixed order. Results are bitwise identical for any thread count (threads
// partition disjoint C tiles; the arithmetic order per C element never depends
// on the partition).
#ifndef EGERIA_SRC_TENSOR_GEMM_H_
#define EGERIA_SRC_TENSOR_GEMM_H_

#include <cstdint>

namespace egeria {

// Storage dtype tag for the dynamic Gemm entry point.
enum class GemmDtype : uint8_t { kF32, kF16, kI8 };

// C[m,n] (+)= op(A)[m,k] * op(B)[k,n].
// A is stored row-major as [m,k] (or [k,m] when trans_a); B as [k,n] (or [n,k]
// when trans_b). When accumulate is false, C is overwritten (no prior zero-fill
// of C is needed); when true, the product is added to C's existing contents.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
          bool trans_a, bool trans_b, bool accumulate);

// fp16-storage variants: operands held as _Float16 stream at half bandwidth and
// are converted to fp32 panels during packing; accumulation is fp32. The mixed
// overloads cover the inference-kernel layouts (fp16 weights x fp32
// activations) without materializing a converted copy of either operand.
void Gemm(const _Float16* a, const _Float16* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate);
void Gemm(const float* a, const _Float16* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate);
void Gemm(const _Float16* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate);

// int8 variant: C[m,n] (+)= op(A) * op(B) with *exact* int32 accumulation
// (dot4 microkernel; results are integer-exact as long as the true value of
// every C element stays within int32, which holds for k < ~130k at full-range
// int8 inputs). Dequantization / per-channel rescale is the caller's job.
void Gemm(const int8_t* a, const int8_t* b, int32_t* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate);

// Dynamic-dtype entry point: dispatches on the operand dtype tags. Supported
// combinations: (f32,f32) and any mix of f32/f16 write a float C; (i8,i8)
// writes an int32 C. Anything else CHECK-fails.
void Gemm(GemmDtype a_dtype, GemmDtype b_dtype, const void* a, const void* b,
          void* c, int64_t m, int64_t k, int64_t n, bool trans_a, bool trans_b,
          bool accumulate);

// Batched variant over `batch` independent problems laid out contiguously:
// C[bi] (+)= op(A[bi]) * op(B[bi]). Parallelizes across batch items (each item
// then runs a single-threaded Gemm), or within the single item when batch == 1.
void BatchedGemm(const float* a, const float* b, float* c, int64_t batch, int64_t m,
                 int64_t k, int64_t n, bool trans_a, bool trans_b, bool accumulate);

}  // namespace egeria

#endif  // EGERIA_SRC_TENSOR_GEMM_H_
