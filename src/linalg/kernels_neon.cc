// NEON kernels (aarch64).
//
// Implements the arithmetic spec from simd.h with 128-bit fused
// multiply-adds: each 8-wide accumulator bank is a (lo, hi) float32x4 pair,
// vfmaq_f32 per 4-element half-chunk, the fixed reduction tree, and a scalar
// fused tail (std::fmaf compiles to fmadd on aarch64, same single rounding).
// NEON is baseline on aarch64, so no per-function target attributes are
// needed; dispatch still goes through the table so SEESAW_FORCE_KERNEL can
// pin the scalar reference.
//
// DotBatch pairs queries so each row chunk load feeds two accumulator
// chains; ScoreBlock walks rows through DotBatch. Per-(row, query)
// accumulation order is exactly the spec, so results are bitwise equal to
// the scalar reference and to the AVX2 kernels.
#include "linalg/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>
#include <cstddef>

namespace seesaw::linalg {
namespace {

/// Spec reduction: s = A + B lanewise, u[l] = s[l] + s[l+4],
/// result = (u0 + u1) + (u2 + u3).
inline float Reduce(float32x4_t a_lo, float32x4_t a_hi, float32x4_t b_lo,
                    float32x4_t b_hi) {
  const float32x4_t s_lo = vaddq_f32(a_lo, b_lo);  // s[0..3]
  const float32x4_t s_hi = vaddq_f32(a_hi, b_hi);  // s[4..7]
  const float32x4_t u = vaddq_f32(s_lo, s_hi);     // u[l] = s[l] + s[l+4]
  const float32x2_t p =
      vpadd_f32(vget_low_f32(u), vget_high_f32(u));  // {u0+u1, u2+u3}
  return vget_lane_f32(p, 0) + vget_lane_f32(p, 1);
}

float DotNeon(VecSpan a, VecSpan b) {
  const float* pa = a.data();
  const float* pb = b.data();
  const size_t n = a.size();
  float32x4_t a_lo = vdupq_n_f32(0.0f), a_hi = vdupq_n_f32(0.0f);
  float32x4_t b_lo = vdupq_n_f32(0.0f), b_hi = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    a_lo = vfmaq_f32(a_lo, vld1q_f32(pa + i), vld1q_f32(pb + i));
    a_hi = vfmaq_f32(a_hi, vld1q_f32(pa + i + 4), vld1q_f32(pb + i + 4));
    b_lo = vfmaq_f32(b_lo, vld1q_f32(pa + i + 8), vld1q_f32(pb + i + 8));
    b_hi = vfmaq_f32(b_hi, vld1q_f32(pa + i + 12), vld1q_f32(pb + i + 12));
  }
  if (i + 8 <= n) {
    a_lo = vfmaq_f32(a_lo, vld1q_f32(pa + i), vld1q_f32(pb + i));
    a_hi = vfmaq_f32(a_hi, vld1q_f32(pa + i + 4), vld1q_f32(pb + i + 4));
    i += 8;
  }
  float r = Reduce(a_lo, a_hi, b_lo, b_hi);
  for (; i < n; ++i) r = std::fmaf(pa[i], pb[i], r);
  return r;
}

/// One row against two queries; row chunks are loaded once.
void Dot1R2Q(const float* pa, const float* q0, const float* q1, size_t n,
             float* out0, float* out1) {
  float32x4_t a0_lo = vdupq_n_f32(0.0f), a0_hi = vdupq_n_f32(0.0f);
  float32x4_t b0_lo = vdupq_n_f32(0.0f), b0_hi = vdupq_n_f32(0.0f);
  float32x4_t a1_lo = vdupq_n_f32(0.0f), a1_hi = vdupq_n_f32(0.0f);
  float32x4_t b1_lo = vdupq_n_f32(0.0f), b1_hi = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const float32x4_t v0 = vld1q_f32(pa + i);
    const float32x4_t v1 = vld1q_f32(pa + i + 4);
    const float32x4_t v2 = vld1q_f32(pa + i + 8);
    const float32x4_t v3 = vld1q_f32(pa + i + 12);
    a0_lo = vfmaq_f32(a0_lo, v0, vld1q_f32(q0 + i));
    a0_hi = vfmaq_f32(a0_hi, v1, vld1q_f32(q0 + i + 4));
    b0_lo = vfmaq_f32(b0_lo, v2, vld1q_f32(q0 + i + 8));
    b0_hi = vfmaq_f32(b0_hi, v3, vld1q_f32(q0 + i + 12));
    a1_lo = vfmaq_f32(a1_lo, v0, vld1q_f32(q1 + i));
    a1_hi = vfmaq_f32(a1_hi, v1, vld1q_f32(q1 + i + 4));
    b1_lo = vfmaq_f32(b1_lo, v2, vld1q_f32(q1 + i + 8));
    b1_hi = vfmaq_f32(b1_hi, v3, vld1q_f32(q1 + i + 12));
  }
  if (i + 8 <= n) {
    const float32x4_t v0 = vld1q_f32(pa + i);
    const float32x4_t v1 = vld1q_f32(pa + i + 4);
    a0_lo = vfmaq_f32(a0_lo, v0, vld1q_f32(q0 + i));
    a0_hi = vfmaq_f32(a0_hi, v1, vld1q_f32(q0 + i + 4));
    a1_lo = vfmaq_f32(a1_lo, v0, vld1q_f32(q1 + i));
    a1_hi = vfmaq_f32(a1_hi, v1, vld1q_f32(q1 + i + 4));
    i += 8;
  }
  float r0 = Reduce(a0_lo, a0_hi, b0_lo, b0_hi);
  float r1 = Reduce(a1_lo, a1_hi, b1_lo, b1_hi);
  for (; i < n; ++i) {
    r0 = std::fmaf(pa[i], q0[i], r0);
    r1 = std::fmaf(pa[i], q1[i], r1);
  }
  *out0 = r0;
  *out1 = r1;
}

void DotBatchNeon(VecSpan a, const VecSpan* queries, size_t num_queries,
                  float* out) {
  size_t q = 0;
  for (; q + 2 <= num_queries; q += 2) {
    Dot1R2Q(a.data(), queries[q].data(), queries[q + 1].data(), a.size(),
            out + q, out + q + 1);
  }
  if (q < num_queries) out[q] = DotNeon(a, queries[q]);
}

void ScoreBlockNeon(const float* rows, size_t num_rows, size_t dim,
                    const VecSpan* queries, size_t num_queries, float* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    DotBatchNeon(VecSpan(rows + r * dim, dim), queries, num_queries,
                 out + r * num_queries);
  }
}

// ------------------------------------------------------------- int8 family --
// Widening-multiply path (baseline NEON, no +dotprod feature probe needed):
// vmull_s8 widens 8 products to int16, vpadalq_s16 pairwise-accumulates them
// into int32 lanes. Integer sums are exact, so this matches the scalar
// reference bitwise regardless of chunking; an sdot fast path can drop in
// later behind a runtime feature check without changing results.

int32_t DotI8Neon(const int8_t* a, const int8_t* b, size_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const int8x16_t va = vld1q_s8(a + i);
    const int8x16_t vb = vld1q_s8(b + i);
    const int16x8_t lo = vmull_s8(vget_low_s8(va), vget_low_s8(vb));
    const int16x8_t hi = vmull_s8(vget_high_s8(va), vget_high_s8(vb));
    acc = vpadalq_s16(acc, lo);
    acc = vpadalq_s16(acc, hi);
  }
  int32_t r = vaddvq_s32(acc);
  for (; i < n; ++i) {
    r += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return r;
}

void ScoreBlockI8Neon(const int8_t* rows, const float* row_scales,
                      size_t num_rows, size_t dim, const int8_t* queries,
                      const float* query_scales, size_t num_queries,
                      float* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    const int8_t* row = rows + r * dim;
    for (size_t q = 0; q < num_queries; ++q) {
      const int32_t s = DotI8Neon(row, queries + q * dim, dim);
      out[r * num_queries + q] =
          static_cast<float>(s) * (row_scales[r] * query_scales[q]);
    }
  }
}

}  // namespace

namespace internal {

const KernelTable* NeonKernelsOrNull() {
  static constexpr KernelTable kTable = {"neon", DotNeon, ScoreBlockNeon};
  return &kTable;
}

const Int8KernelTable* NeonInt8KernelsOrNull() {
  static constexpr Int8KernelTable kTable = {"neon", DotI8Neon,
                                             ScoreBlockI8Neon};
  return &kTable;
}

}  // namespace internal
}  // namespace seesaw::linalg

#else  // !aarch64

namespace seesaw::linalg::internal {
const KernelTable* NeonKernelsOrNull() { return nullptr; }
const Int8KernelTable* NeonInt8KernelsOrNull() { return nullptr; }
}  // namespace seesaw::linalg::internal

#endif
