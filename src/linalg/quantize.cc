#include "linalg/quantize.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace seesaw::linalg {

namespace {

/// Largest |x| over a span; 0 for empty spans.
float MaxAbs(VecSpan v) {
  float m = 0.0f;
  for (float x : v) m = std::max(m, std::fabs(x));
  return m;
}

/// Quantizes `src` with a known scale into `out` (sized already).
void QuantizeWithScale(VecSpan src, float scale, int8_t* out) {
  const float inv = 1.0f / scale;
  for (size_t i = 0; i < src.size(); ++i) {
    // nearbyintf rounds to nearest-even under the default rounding mode —
    // the same on every platform, keeping quantized tables reproducible.
    float q = std::nearbyintf(src[i] * inv);
    q = std::min(127.0f, std::max(-127.0f, q));
    out[i] = static_cast<int8_t>(q);
  }
}

}  // namespace

float QuantizeVectorInto(VecSpan src, int8_t* out) {
  const float max_abs = MaxAbs(src);
  // An all-zero (or empty) vector quantizes to zeros with unit scale, so
  // dequantization is exact and no division by zero occurs.
  const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  QuantizeWithScale(src, scale, out);
  return scale;
}

QuantizedVector QuantizeQuery(VecSpan query) {
  QuantizedVector q;
  q.data.resize(query.size());
  q.scale = QuantizeVectorInto(query, q.data.data());
  return q;
}

QuantizedTable QuantizeRows(const MatrixF& table) {
  QuantizedTable out;
  out.rows = table.rows();
  out.cols = table.cols();
  out.data.resize(out.rows * out.cols);
  out.scales.resize(out.rows);
  for (size_t r = 0; r < out.rows; ++r) {
    VecSpan row = table.Row(r);
    const float max_abs = MaxAbs(row);
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    out.scales[r] = scale;
    QuantizeWithScale(row, scale, out.data.data() + r * out.cols);
  }
  return out;
}

VectorF DequantizeRow(const QuantizedTable& table, size_t r) {
  SEESAW_CHECK_LT(r, table.rows);
  VectorF out(table.cols);
  const int8_t* q = table.Row(r);
  const float scale = table.scales[r];
  for (size_t i = 0; i < table.cols; ++i) {
    out[i] = static_cast<float>(q[i]) * scale;
  }
  return out;
}

}  // namespace seesaw::linalg
