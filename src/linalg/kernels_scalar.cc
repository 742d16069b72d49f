// Portable scalar reference kernels.
//
// This is the ground truth for the arithmetic spec in simd.h: eight fused
// lanes in two interleaved banks, the fixed reduction tree, and a sequential
// fused tail. std::fmaf is a correctly-rounded fused multiply-add on every
// conforming platform, i.e. the exact per-lane operation vfmadd/vfma perform
// in the vector kernels — so those kernels are bitwise-reproducible against
// this file on any machine.
#include <cmath>
#include <cstddef>

#include "linalg/simd.h"

namespace seesaw::linalg {
namespace {

constexpr size_t kLanes = 8;

float DotScalar(VecSpan a, VecSpan b) {
  const float* pa = a.data();
  const float* pb = b.data();
  const size_t n = a.size();
  float acc_a[kLanes] = {};
  float acc_b[kLanes] = {};
  size_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      acc_a[l] = std::fmaf(pa[i + l], pb[i + l], acc_a[l]);
    }
    for (size_t l = 0; l < kLanes; ++l) {
      acc_b[l] = std::fmaf(pa[i + kLanes + l], pb[i + kLanes + l], acc_b[l]);
    }
  }
  if (i + kLanes <= n) {
    for (size_t l = 0; l < kLanes; ++l) {
      acc_a[l] = std::fmaf(pa[i + l], pb[i + l], acc_a[l]);
    }
    i += kLanes;
  }
  float s[kLanes];
  for (size_t l = 0; l < kLanes; ++l) s[l] = acc_a[l] + acc_b[l];
  const float u0 = s[0] + s[4];
  const float u1 = s[1] + s[5];
  const float u2 = s[2] + s[6];
  const float u3 = s[3] + s[7];
  float r = (u0 + u1) + (u2 + u3);
  for (; i < n; ++i) r = std::fmaf(pa[i], pb[i], r);
  return r;
}

void DotBatchScalar(VecSpan a, const VecSpan* queries, size_t num_queries,
                    float* out) {
  for (size_t q = 0; q < num_queries; ++q) out[q] = DotScalar(a, queries[q]);
}

void ScoreBlockScalar(const float* rows, size_t num_rows, size_t dim,
                      const VecSpan* queries, size_t num_queries, float* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    DotBatchScalar(VecSpan(rows + r * dim, dim), queries, num_queries,
                   out + r * num_queries);
  }
}

// ------------------------------------------------------------- int8 family --
// The int32 accumulation is exact (|q| <= 127, so dims up to 2^17 cannot
// overflow), which makes the scalar loop the full spec: vector kernels may
// reorder the integer sums freely and still match bitwise. The only float
// ops are the two fixed-order scale multiplies in ScoreBlockI8Scalar.

int32_t DotI8Scalar(const int8_t* a, const int8_t* b, size_t n) {
  int32_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

void ScoreBlockI8Scalar(const int8_t* rows, const float* row_scales,
                        size_t num_rows, size_t dim, const int8_t* queries,
                        const float* query_scales, size_t num_queries,
                        float* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    const int8_t* row = rows + r * dim;
    for (size_t q = 0; q < num_queries; ++q) {
      const int32_t acc = DotI8Scalar(row, queries + q * dim, dim);
      const float combined = row_scales[r] * query_scales[q];
      out[r * num_queries + q] = static_cast<float>(acc) * combined;
    }
  }
}

}  // namespace

const KernelTable& ScalarKernels() {
  static constexpr KernelTable kTable = {"scalar", DotScalar, ScoreBlockScalar};
  return kTable;
}

const Int8KernelTable& ScalarInt8Kernels() {
  static constexpr Int8KernelTable kTable = {"scalar", DotI8Scalar,
                                             ScoreBlockI8Scalar};
  return kTable;
}

}  // namespace seesaw::linalg
