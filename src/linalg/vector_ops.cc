#include "linalg/vector_ops.h"

#include <cmath>

#include "common/check.h"
#include "linalg/simd.h"

namespace seesaw::linalg {

namespace {
constexpr float kNormEpsilon = 1e-12f;
}  // namespace

float Dot(VecSpan a, VecSpan b) {
  SEESAW_CHECK_EQ(a.size(), b.size());
  return ActiveKernels().dot(a, b);
}

double DotDouble(VecSpan a, VecSpan b) {
  SEESAW_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return s;
}

float SquaredNorm(VecSpan a) { return Dot(a, a); }

float Norm(VecSpan a) { return std::sqrt(SquaredNorm(a)); }

float SquaredDistance(VecSpan a, VecSpan b) {
  SEESAW_CHECK_EQ(a.size(), b.size());
  float s = 0.f;
  for (size_t i = 0; i < a.size(); ++i) {
    float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void Axpy(float alpha, VecSpan x, MutVecSpan y) {
  SEESAW_CHECK_EQ(x.size(), y.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void Scale(float alpha, MutVecSpan x) {
  for (float& v : x) v *= alpha;
}

VectorF Normalized(VecSpan a) {
  VectorF out(a.begin(), a.end());
  NormalizeInPlace(out);
  return out;
}

float NormalizeInPlace(MutVecSpan a) {
  float n = Norm(a);
  if (n > kNormEpsilon) {
    Scale(1.0f / n, a);
  }
  return n;
}

VectorF Add(VecSpan a, VecSpan b) {
  SEESAW_CHECK_EQ(a.size(), b.size());
  VectorF out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

VectorF Sub(VecSpan a, VecSpan b) {
  SEESAW_CHECK_EQ(a.size(), b.size());
  VectorF out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

VectorF Scaled(float alpha, VecSpan a) {
  VectorF out(a.begin(), a.end());
  Scale(alpha, out);
  return out;
}

float Cosine(VecSpan a, VecSpan b) {
  float na = Norm(a);
  float nb = Norm(b);
  if (na <= kNormEpsilon || nb <= kNormEpsilon) return 0.0f;
  return Dot(a, b) / (na * nb);
}

VectorF Zeros(size_t dim) { return VectorF(dim, 0.0f); }

}  // namespace seesaw::linalg
