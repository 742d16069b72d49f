// Symmetric per-row int8 quantization of embedding tables.
//
// At million-row scale the fp32 scan is memory-bandwidth-bound: every
// TopKBatch streams rows*dim*4 bytes through the core. Quantizing the table
// to int8 cuts that stream 4x and lets the integer kernels process 32 MACs
// per instruction, which is where the 2-4x scan speedup at n >= 1M comes
// from (BENCH_scale.json).
//
// Scheme: symmetric (zero-point-free) per-row quantization.
//
//   scale_r = max_i |row[i]| / 127          (1.0 for an all-zero row)
//   q[i]    = clamp(round(row[i] / scale_r), -127, 127)
//
// Queries are quantized the same way once per scan. The approximate score is
//
//   score(r, q) = float(sum_i q_row[i] * q_query[i]) * (scale_r * scale_q)
//
// with the integer sum accumulated exactly in int32 (dim <= 131072 cannot
// overflow: |q| <= 127 so each product is <= 16129). Because the integer sum
// is exact regardless of accumulation order, every int8 kernel is bitwise
// identical by construction — the only float ops are the two multiplies
// above, performed in one fixed order by every implementation.
//
// The [-127, 127] clamp (never -128) is load-bearing for the AVX2 kernel:
// vpmaddubsw saturates pairs at int16, and 2 * 127 * 127 = 32258 < 32767 is
// the margin that makes the sign-trick path exact. See kernels_avx2.cc.
//
// Accuracy: quantization is a new kernel *family* — scores are not bitwise
// comparable to the fp32 scan. The cross-family contract is recall@k against
// the fp32 scan (>= 0.99 recall@100 on clustered CLIP-like data; gated in
// tests/quantized_kernel_test.cc and re-checked by bench_scale at scale).
#ifndef SEESAW_LINALG_QUANTIZE_H_
#define SEESAW_LINALG_QUANTIZE_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace seesaw::linalg {

/// A row-major int8 table with one float scale per row. Rows are contiguous
/// (row stride == cols), matching the Int8KernelTable::score_block layout.
struct QuantizedTable {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<int8_t> data;    // rows * cols, row-major
  std::vector<float> scales;   // per-row dequantization scale

  bool empty() const { return rows == 0 || cols == 0; }
  const int8_t* Row(size_t r) const { return data.data() + r * cols; }
  float scale(size_t r) const { return scales[r]; }
};

/// One quantized vector (a query quantized at scan time).
struct QuantizedVector {
  std::vector<int8_t> data;
  float scale = 1.0f;
};

/// Quantizes one float vector symmetrically into `out`, which must hold
/// src.size() bytes; returns the scale. Deterministic: round-to-nearest-even
/// (std::nearbyintf under the default rounding mode), clamped to ±127. The
/// batched scan quantizes each query straight into its slot of one
/// contiguous query block.
float QuantizeVectorInto(VecSpan src, int8_t* out);

/// Convenience wrapper building a QuantizedVector.
QuantizedVector QuantizeQuery(VecSpan query);

/// Quantizes every row of `table` independently.
QuantizedTable QuantizeRows(const MatrixF& table);

/// Reconstructs row `r` of a quantized table as floats (for round-trip
/// error tests): out[i] = q[i] * scale_r. The per-element reconstruction
/// error is bounded by scale_r / 2 = max|row| / 254.
VectorF DequantizeRow(const QuantizedTable& table, size_t r);

}  // namespace seesaw::linalg

#endif  // SEESAW_LINALG_QUANTIZE_H_
