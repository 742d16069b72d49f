// Dense float32 vector kernels.
//
// Embeddings in seesaw are float32 (like CLIP activations) and unit-normed;
// these free functions are the hot path for scoring and optimization.
#ifndef SEESAW_LINALG_VECTOR_OPS_H_
#define SEESAW_LINALG_VECTOR_OPS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace seesaw::linalg {

/// Dense float vector. Kept as a plain std::vector so rows of MatrixF and
/// user-held vectors interoperate without copies (via std::span).
using VectorF = std::vector<float>;

/// Read-only view over contiguous floats.
using VecSpan = std::span<const float>;

/// Mutable view over contiguous floats.
using MutVecSpan = std::span<float>;

/// Inner product <a, b>. Sizes must match.
///
/// Dot and MatrixF::ScoreBlock both route through the runtime-dispatched
/// SIMD kernel layer (linalg/simd.h): AVX2+FMA on x86-64, NEON on aarch64,
/// scalar reference otherwise. Every kernel computes the same fixed
/// accumulation spec, so results are bitwise identical across kernels (and
/// overridable via SEESAW_FORCE_KERNEL / ForceKernels for testing).
float Dot(VecSpan a, VecSpan b);

/// Inner product accumulated in double precision. Use where downstream code
/// is sensitive to accumulation noise (e.g. optimizer line searches over a
/// sum of thousands of per-example losses).
double DotDouble(VecSpan a, VecSpan b);

/// Squared Euclidean norm ||a||^2.
float SquaredNorm(VecSpan a);

/// Euclidean norm ||a||.
float Norm(VecSpan a);

/// Squared Euclidean distance ||a - b||^2.
float SquaredDistance(VecSpan a, VecSpan b);

/// y += alpha * x (sizes must match).
void Axpy(float alpha, VecSpan x, MutVecSpan y);

/// x *= alpha.
void Scale(float alpha, MutVecSpan x);

/// Returns a / ||a||. If ||a|| is ~0, returns a copy of `a` unchanged.
VectorF Normalized(VecSpan a);

/// Normalizes in place; no-op on (near-)zero vectors. Returns the pre-
/// normalization norm.
float NormalizeInPlace(MutVecSpan a);

/// Elementwise a + b.
VectorF Add(VecSpan a, VecSpan b);

/// Elementwise a - b.
VectorF Sub(VecSpan a, VecSpan b);

/// alpha * a (new vector).
VectorF Scaled(float alpha, VecSpan a);

/// Cosine similarity <a,b>/(||a|| ||b||); 0 if either norm is ~0.
float Cosine(VecSpan a, VecSpan b);

/// All-zero vector of dimension `dim`.
VectorF Zeros(size_t dim);

}  // namespace seesaw::linalg

#endif  // SEESAW_LINALG_VECTOR_OPS_H_
