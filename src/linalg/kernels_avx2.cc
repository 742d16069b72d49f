// AVX2+FMA kernels (x86-64).
//
// Implements the arithmetic spec from simd.h with 256-bit fused
// multiply-adds: one __m256 per accumulator bank, _mm256_fmadd_ps per
// 8-element chunk, the fixed shuffle reduction, and a scalar fused tail.
// std::fmaf inside these functions compiles to vfmadd, so tail lanes use the
// same single-rounding operation as the vector body.
//
// Every function carries a per-function target attribute instead of the TU
// being compiled with -mavx2: only these bodies get AVX2 codegen, so nothing
// here can leak AVX2 instructions into inline functions shared with generic
// TUs, and the binary still boots on pre-AVX2 CPUs (dispatch probes CPUID
// before ever calling in).
//
// Register blocking: DotBatch pairs queries (row chunks loaded once feed two
// accumulator chains) and ScoreBlock pairs rows x queries (a 2x2
// micro-kernel, eight live accumulator chains). Blocking only shares loads —
// each (row, query) pair's accumulation order is exactly the spec, keeping
// blocked results bitwise equal to per-pair Dot.
#include "linalg/simd.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <vector>

#define SEESAW_AVX2_FN __attribute__((target("avx2,fma")))

namespace seesaw::linalg {
namespace {

/// Spec reduction: s = A + B lanewise, u[l] = s[l] + s[l+4],
/// result = (u0 + u1) + (u2 + u3).
SEESAW_AVX2_FN inline float Reduce(__m256 acc_a, __m256 acc_b) {
  const __m256 s = _mm256_add_ps(acc_a, acc_b);
  const __m128 u =
      _mm_add_ps(_mm256_castps256_ps128(s), _mm256_extractf128_ps(s, 1));
  __m128 shuf = _mm_movehdup_ps(u);   // u1 u1 u3 u3
  __m128 sums = _mm_add_ps(u, shuf);  // u0+u1 . u2+u3 .
  shuf = _mm_movehl_ps(shuf, sums);   // u2+u3 in lane 0
  sums = _mm_add_ss(sums, shuf);      // (u0+u1) + (u2+u3)
  return _mm_cvtss_f32(sums);
}

SEESAW_AVX2_FN float DotAvx2(VecSpan a, VecSpan b) {
  const float* pa = a.data();
  const float* pb = b.data();
  const size_t n = a.size();
  __m256 acc_a = _mm256_setzero_ps();
  __m256 acc_b = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc_a = _mm256_fmadd_ps(_mm256_loadu_ps(pa + i), _mm256_loadu_ps(pb + i),
                            acc_a);
    acc_b = _mm256_fmadd_ps(_mm256_loadu_ps(pa + i + 8),
                            _mm256_loadu_ps(pb + i + 8), acc_b);
  }
  if (i + 8 <= n) {
    acc_a = _mm256_fmadd_ps(_mm256_loadu_ps(pa + i), _mm256_loadu_ps(pb + i),
                            acc_a);
    i += 8;
  }
  float r = Reduce(acc_a, acc_b);
  for (; i < n; ++i) r = std::fmaf(pa[i], pb[i], r);
  return r;
}

/// One row against two queries; row chunks are loaded once.
SEESAW_AVX2_FN void Dot1R2Q(const float* pa, const float* q0, const float* q1,
                            size_t n, float* out0, float* out1) {
  __m256 a0 = _mm256_setzero_ps(), b0 = _mm256_setzero_ps();
  __m256 a1 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 va = _mm256_loadu_ps(pa + i);
    const __m256 vb = _mm256_loadu_ps(pa + i + 8);
    a0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(q0 + i), a0);
    b0 = _mm256_fmadd_ps(vb, _mm256_loadu_ps(q0 + i + 8), b0);
    a1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(q1 + i), a1);
    b1 = _mm256_fmadd_ps(vb, _mm256_loadu_ps(q1 + i + 8), b1);
  }
  if (i + 8 <= n) {
    const __m256 va = _mm256_loadu_ps(pa + i);
    a0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(q0 + i), a0);
    a1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(q1 + i), a1);
    i += 8;
  }
  float r0 = Reduce(a0, b0);
  float r1 = Reduce(a1, b1);
  for (; i < n; ++i) {
    r0 = std::fmaf(pa[i], q0[i], r0);
    r1 = std::fmaf(pa[i], q1[i], r1);
  }
  *out0 = r0;
  *out1 = r1;
}

/// Two rows against two queries: the 2x2 micro-kernel. Four dot products
/// share every row/query chunk load, and the four independent accumulator
/// chains hide FMA latency.
SEESAW_AVX2_FN void Dot2R2Q(const float* r0, const float* r1, const float* q0,
                            const float* q1, size_t n, float* out_row0,
                            float* out_row1) {
  __m256 a00 = _mm256_setzero_ps(), b00 = _mm256_setzero_ps();
  __m256 a01 = _mm256_setzero_ps(), b01 = _mm256_setzero_ps();
  __m256 a10 = _mm256_setzero_ps(), b10 = _mm256_setzero_ps();
  __m256 a11 = _mm256_setzero_ps(), b11 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 vr0a = _mm256_loadu_ps(r0 + i);
    const __m256 vr0b = _mm256_loadu_ps(r0 + i + 8);
    const __m256 vr1a = _mm256_loadu_ps(r1 + i);
    const __m256 vr1b = _mm256_loadu_ps(r1 + i + 8);
    const __m256 vq0a = _mm256_loadu_ps(q0 + i);
    const __m256 vq0b = _mm256_loadu_ps(q0 + i + 8);
    const __m256 vq1a = _mm256_loadu_ps(q1 + i);
    const __m256 vq1b = _mm256_loadu_ps(q1 + i + 8);
    a00 = _mm256_fmadd_ps(vr0a, vq0a, a00);
    b00 = _mm256_fmadd_ps(vr0b, vq0b, b00);
    a01 = _mm256_fmadd_ps(vr0a, vq1a, a01);
    b01 = _mm256_fmadd_ps(vr0b, vq1b, b01);
    a10 = _mm256_fmadd_ps(vr1a, vq0a, a10);
    b10 = _mm256_fmadd_ps(vr1b, vq0b, b10);
    a11 = _mm256_fmadd_ps(vr1a, vq1a, a11);
    b11 = _mm256_fmadd_ps(vr1b, vq1b, b11);
  }
  if (i + 8 <= n) {
    const __m256 vr0a = _mm256_loadu_ps(r0 + i);
    const __m256 vr1a = _mm256_loadu_ps(r1 + i);
    const __m256 vq0a = _mm256_loadu_ps(q0 + i);
    const __m256 vq1a = _mm256_loadu_ps(q1 + i);
    a00 = _mm256_fmadd_ps(vr0a, vq0a, a00);
    a01 = _mm256_fmadd_ps(vr0a, vq1a, a01);
    a10 = _mm256_fmadd_ps(vr1a, vq0a, a10);
    a11 = _mm256_fmadd_ps(vr1a, vq1a, a11);
    i += 8;
  }
  float s00 = Reduce(a00, b00);
  float s01 = Reduce(a01, b01);
  float s10 = Reduce(a10, b10);
  float s11 = Reduce(a11, b11);
  for (; i < n; ++i) {
    s00 = std::fmaf(r0[i], q0[i], s00);
    s01 = std::fmaf(r0[i], q1[i], s01);
    s10 = std::fmaf(r1[i], q0[i], s10);
    s11 = std::fmaf(r1[i], q1[i], s11);
  }
  out_row0[0] = s00;
  out_row0[1] = s01;
  out_row1[0] = s10;
  out_row1[1] = s11;
}

SEESAW_AVX2_FN void DotBatchAvx2(VecSpan a, const VecSpan* queries,
                                 size_t num_queries, float* out) {
  size_t q = 0;
  for (; q + 2 <= num_queries; q += 2) {
    Dot1R2Q(a.data(), queries[q].data(), queries[q + 1].data(), a.size(),
            out + q, out + q + 1);
  }
  if (q < num_queries) out[q] = DotAvx2(a, queries[q]);
}

SEESAW_AVX2_FN void ScoreBlockAvx2(const float* rows, size_t num_rows,
                                   size_t dim, const VecSpan* queries,
                                   size_t num_queries, float* out) {
  size_t r = 0;
  for (; r + 2 <= num_rows; r += 2) {
    const float* row0 = rows + r * dim;
    const float* row1 = row0 + dim;
    float* out0 = out + r * num_queries;
    float* out1 = out0 + num_queries;
    size_t q = 0;
    for (; q + 2 <= num_queries; q += 2) {
      Dot2R2Q(row0, row1, queries[q].data(), queries[q + 1].data(), dim,
              out0 + q, out1 + q);
    }
    if (q < num_queries) {
      out0[q] = DotAvx2(VecSpan(row0, dim), queries[q]);
      out1[q] = DotAvx2(VecSpan(row1, dim), queries[q]);
    }
  }
  if (r < num_rows) {
    DotBatchAvx2(VecSpan(rows + r * dim, dim), queries, num_queries,
                 out + r * num_queries);
  }
}

// ------------------------------------------------------------- int8 family --
// vpmaddubsw multiplies unsigned-by-signed bytes and saturates the pairwise
// int16 sums, so signed x signed inputs go through the sign trick:
//
//   |a| * (b * sign(a))  ==  a * b        (elementwise)
//
// with |a| <= 127 from the quantizer's [-127, 127] clamp, each pair sum is
// bounded by 2 * 127 * 127 = 32258 < 32767 — no saturation, the path is
// exact. The pair sums widen to int32 via vpmaddwd against ones and
// accumulate with plain adds, so any chunk order yields the same exact sum
// and bitwise parity with the scalar reference is structural.

/// Sum of the eight int32 lanes.
SEESAW_AVX2_FN inline int32_t ReduceI32(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

SEESAW_AVX2_FN int32_t DotI8Avx2(const int8_t* a, const int8_t* b, size_t n) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i abs_a = _mm256_sign_epi8(va, va);
    const __m256i sgn_b = _mm256_sign_epi8(vb, va);
    const __m256i pairs = _mm256_maddubs_epi16(abs_a, sgn_b);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
  }
  int32_t r = ReduceI32(acc);
  for (; i < n; ++i) {
    r += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return r;
}

/// One int8 row against two quantized queries; row chunks are loaded once.
SEESAW_AVX2_FN void DotI8_1R2Q(const int8_t* a, const int8_t* q0,
                               const int8_t* q1, size_t n, int32_t* out0,
                               int32_t* out1) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i abs_a = _mm256_sign_epi8(va, va);
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q0 + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q1 + i));
    acc0 = _mm256_add_epi32(
        acc0,
        _mm256_madd_epi16(_mm256_maddubs_epi16(abs_a, _mm256_sign_epi8(v0, va)),
                          ones));
    acc1 = _mm256_add_epi32(
        acc1,
        _mm256_madd_epi16(_mm256_maddubs_epi16(abs_a, _mm256_sign_epi8(v1, va)),
                          ones));
  }
  int32_t r0 = ReduceI32(acc0);
  int32_t r1 = ReduceI32(acc1);
  for (; i < n; ++i) {
    const int32_t ai = a[i];
    r0 += ai * static_cast<int32_t>(q0[i]);
    r1 += ai * static_cast<int32_t>(q1[i]);
  }
  *out0 = r0;
  *out1 = r1;
}

/// Sums each of four int32 accumulators into one lane: returns
/// [reduce(a0), reduce(a1), reduce(a2), reduce(a3)]. Three hadds replace
/// four full per-accumulator reductions.
SEESAW_AVX2_FN inline __m128i ReduceI32x4(__m256i a0, __m256i a1, __m256i a2,
                                          __m256i a3) {
  const __m256i t01 = _mm256_hadd_epi32(a0, a1);
  const __m256i t23 = _mm256_hadd_epi32(a2, a3);
  const __m256i t = _mm256_hadd_epi32(t01, t23);
  return _mm_add_epi32(_mm256_castsi256_si128(t),
                       _mm256_extracti128_si256(t, 1));
}

/// One vpmaddubsw/vpmaddwd term of query chunk `q` against the prepared
/// |a| / sign(a) row chunk.
SEESAW_AVX2_FN inline __m256i MaddI8Term(__m256i abs_a, __m256i va,
                                         const int8_t* q, __m256i ones) {
  const __m256i vq = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q));
  return _mm256_madd_epi16(
      _mm256_maddubs_epi16(abs_a, _mm256_sign_epi8(vq, va)), ones);
}

/// One int8 row against four quantized queries: the row chunk is loaded and
/// |a|/sign-prepared once, reused four times, and all four accumulators
/// reduce together. Exact int32 accumulation keeps this bitwise identical
/// to four scalar dots regardless of the blocking.
SEESAW_AVX2_FN void DotI8_1R4Q(const int8_t* a, const int8_t* const* qs,
                               size_t n, int32_t* out) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i abs_a = _mm256_sign_epi8(va, va);
    acc0 = _mm256_add_epi32(acc0, MaddI8Term(abs_a, va, qs[0] + i, ones));
    acc1 = _mm256_add_epi32(acc1, MaddI8Term(abs_a, va, qs[1] + i, ones));
    acc2 = _mm256_add_epi32(acc2, MaddI8Term(abs_a, va, qs[2] + i, ones));
    acc3 = _mm256_add_epi32(acc3, MaddI8Term(abs_a, va, qs[3] + i, ones));
  }
  __m128i r = ReduceI32x4(acc0, acc1, acc2, acc3);
  alignas(16) int32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), r);
  for (; i < n; ++i) {
    const int32_t ai = a[i];
    lanes[0] += ai * static_cast<int32_t>(qs[0][i]);
    lanes[1] += ai * static_cast<int32_t>(qs[1][i]);
    lanes[2] += ai * static_cast<int32_t>(qs[2][i]);
    lanes[3] += ai * static_cast<int32_t>(qs[3][i]);
  }
  out[0] = lanes[0];
  out[1] = lanes[1];
  out[2] = lanes[2];
  out[3] = lanes[3];
}

SEESAW_AVX2_FN void ScoreBlockI8Avx2(const int8_t* rows,
                                     const float* row_scales, size_t num_rows,
                                     size_t dim, const int8_t* queries,
                                     const float* query_scales,
                                     size_t num_queries, float* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    const int8_t* row = rows + r * dim;
    float* out_row = out + r * num_queries;
    size_t q = 0;
    for (; q + 4 <= num_queries; q += 4) {
      const int8_t* qs[4] = {queries + q * dim, queries + (q + 1) * dim,
                             queries + (q + 2) * dim, queries + (q + 3) * dim};
      int32_t s[4];
      DotI8_1R4Q(row, qs, dim, s);
      for (size_t j = 0; j < 4; ++j) {
        out_row[q + j] =
            static_cast<float>(s[j]) * (row_scales[r] * query_scales[q + j]);
      }
    }
    for (; q + 2 <= num_queries; q += 2) {
      int32_t s0, s1;
      DotI8_1R2Q(row, queries + q * dim, queries + (q + 1) * dim, dim, &s0,
                 &s1);
      out_row[q] =
          static_cast<float>(s0) * (row_scales[r] * query_scales[q]);
      out_row[q + 1] =
          static_cast<float>(s1) * (row_scales[r] * query_scales[q + 1]);
    }
    if (q < num_queries) {
      const int32_t s = DotI8Avx2(row, queries + q * dim, dim);
      out_row[q] = static_cast<float>(s) * (row_scales[r] * query_scales[q]);
    }
  }
}

}  // namespace

// --------------------------------------------------- avx512vnni int8 family --
// vpdpbusd fuses the maddubs/maddwd/add triple into one unsigned-by-signed
// dot-accumulate with an exact (non-saturating) int32 destination, and the
// 512-bit registers halve the chunk count. vpsignb has no EVEX form, so
// instead of a per-chunk sign trick these kernels use the offset identity:
//
//   (a XOR 0x80) as u8  ==  a + 128, so
//   dot_u8s8(a + 128, q)  ==  dot(a, q) + 128 * sum(q)
//
// One vpxord per *row* chunk lifts the row into u8 range, every query term
// is then a single vpdpbusd, and the row-invariant correction 128 * sum(q)
// is computed once per call and subtracted in int32. Each 4-byte group sums
// to at most 4 * 255 * 127, exact in int32; all arithmetic stays integer,
// so bitwise parity with the scalar reference is structural, same as the
// AVX2 path. (This identity is also clamp-agnostic: it is exact even for
// -128, unlike sign-trick formulations.)

// The explicit avx2+fma in the target list keeps the AVX2 helpers above
// inlinable into these functions (GCC only inlines across target
// attributes when the callee's set is a subset of the caller's).
#define SEESAW_AVX512VNNI_FN                    \
  __attribute__((                               \
      target("avx2,fma,avx512f,avx512bw,avx512vl,avx512vnni")))

namespace {

/// Row chunk lifted into u8 range: (a XOR 0x80) == a + 128 as unsigned.
SEESAW_AVX512VNNI_FN inline __m512i OffsetRowChunk(const int8_t* a) {
  return _mm512_xor_si512(_mm512_loadu_si512(a), _mm512_set1_epi8(-128));
}

SEESAW_AVX512VNNI_FN inline int32_t ReduceI32Zmm(__m512i acc) {
  return ReduceI32(_mm256_add_epi32(_mm512_castsi512_si256(acc),
                                    _mm512_extracti64x4_epi64(acc, 1)));
}

/// Joint reduction of four zmm accumulators: fold each to ymm, then share
/// the three-hadd transpose — far cheaper than four full reductions.
SEESAW_AVX512VNNI_FN inline __m128i ReduceI32x4Zmm(__m512i a0, __m512i a1,
                                                   __m512i a2, __m512i a3) {
  const __m256i f0 = _mm256_add_epi32(_mm512_castsi512_si256(a0),
                                      _mm512_extracti64x4_epi64(a0, 1));
  const __m256i f1 = _mm256_add_epi32(_mm512_castsi512_si256(a1),
                                      _mm512_extracti64x4_epi64(a1, 1));
  const __m256i f2 = _mm256_add_epi32(_mm512_castsi512_si256(a2),
                                      _mm512_extracti64x4_epi64(a2, 1));
  const __m256i f3 = _mm256_add_epi32(_mm512_castsi512_si256(a3),
                                      _mm512_extracti64x4_epi64(a3, 1));
  return ReduceI32x4(f0, f1, f2, f3);
}

/// 128 * sum(q[0:n&~63]) — the row-invariant correction for one query over
/// the vectorized prefix (the scalar tail never goes through the offset
/// trick, so it needs no correction). Computed as dpbusd against a constant
/// all-128 unsigned operand.
SEESAW_AVX512VNNI_FN int32_t QueryCorrection(const int8_t* q, size_t n) {
  const __m512i v128 = _mm512_set1_epi8(-128);  // 0x80 == 128 as unsigned
  __m512i acc = _mm512_setzero_si512();
  for (size_t i = 0; i + 64 <= n; i += 64) {
    acc = _mm512_dpbusd_epi32(acc, v128, _mm512_loadu_si512(q + i));
  }
  return ReduceI32Zmm(acc);
}

SEESAW_AVX512VNNI_FN int32_t DotI8Vnni(const int8_t* a, const int8_t* b,
                                       size_t n) {
  const __m512i v128 = _mm512_set1_epi8(-128);
  __m512i acc = _mm512_setzero_si512();
  __m512i corr = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i vb = _mm512_loadu_si512(b + i);
    acc = _mm512_dpbusd_epi32(acc, OffsetRowChunk(a + i), vb);
    corr = _mm512_dpbusd_epi32(corr, v128, vb);
  }
  int32_t r = ReduceI32Zmm(_mm512_sub_epi32(acc, corr));
  for (; i < n; ++i) {
    r += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return r;
}

/// One int8 row against four quantized queries; the offset row chunk is
/// prepared once and reused four times. `corr[j]` must be
/// QueryCorrection(qs[j], n).
SEESAW_AVX512VNNI_FN void DotI8Vnni1R4Q(const int8_t* a,
                                        const int8_t* const* qs,
                                        const int32_t* corr, size_t n,
                                        int32_t* out) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  __m512i acc2 = _mm512_setzero_si512();
  __m512i acc3 = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i ua = OffsetRowChunk(a + i);
    acc0 = _mm512_dpbusd_epi32(acc0, ua, _mm512_loadu_si512(qs[0] + i));
    acc1 = _mm512_dpbusd_epi32(acc1, ua, _mm512_loadu_si512(qs[1] + i));
    acc2 = _mm512_dpbusd_epi32(acc2, ua, _mm512_loadu_si512(qs[2] + i));
    acc3 = _mm512_dpbusd_epi32(acc3, ua, _mm512_loadu_si512(qs[3] + i));
  }
  alignas(16) int32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                  ReduceI32x4Zmm(acc0, acc1, acc2, acc3));
  for (int j = 0; j < 4; ++j) lanes[j] -= corr[j];
  for (; i < n; ++i) {
    const int32_t ai = a[i];
    lanes[0] += ai * static_cast<int32_t>(qs[0][i]);
    lanes[1] += ai * static_cast<int32_t>(qs[1][i]);
    lanes[2] += ai * static_cast<int32_t>(qs[2][i]);
    lanes[3] += ai * static_cast<int32_t>(qs[3][i]);
  }
  out[0] = lanes[0];
  out[1] = lanes[1];
  out[2] = lanes[2];
  out[3] = lanes[3];
}

/// One int8 row against eight quantized queries: the offset row chunk is
/// prepared once per 64 dims and feeds eight bare vpdpbusd accumulators, so
/// row bytes are touched exactly once per row regardless of batch depth.
SEESAW_AVX512VNNI_FN void DotI8Vnni1R8Q(const int8_t* a,
                                        const int8_t* const* qs,
                                        const int32_t* corr, size_t n,
                                        int32_t* out) {
  __m512i acc[8];
  for (int j = 0; j < 8; ++j) acc[j] = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i ua = OffsetRowChunk(a + i);
    acc[0] = _mm512_dpbusd_epi32(acc[0], ua, _mm512_loadu_si512(qs[0] + i));
    acc[1] = _mm512_dpbusd_epi32(acc[1], ua, _mm512_loadu_si512(qs[1] + i));
    acc[2] = _mm512_dpbusd_epi32(acc[2], ua, _mm512_loadu_si512(qs[2] + i));
    acc[3] = _mm512_dpbusd_epi32(acc[3], ua, _mm512_loadu_si512(qs[3] + i));
    acc[4] = _mm512_dpbusd_epi32(acc[4], ua, _mm512_loadu_si512(qs[4] + i));
    acc[5] = _mm512_dpbusd_epi32(acc[5], ua, _mm512_loadu_si512(qs[5] + i));
    acc[6] = _mm512_dpbusd_epi32(acc[6], ua, _mm512_loadu_si512(qs[6] + i));
    acc[7] = _mm512_dpbusd_epi32(acc[7], ua, _mm512_loadu_si512(qs[7] + i));
  }
  alignas(16) int32_t lanes[8];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                  ReduceI32x4Zmm(acc[0], acc[1], acc[2], acc[3]));
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes + 4),
                  ReduceI32x4Zmm(acc[4], acc[5], acc[6], acc[7]));
  for (int j = 0; j < 8; ++j) lanes[j] -= corr[j];
  for (; i < n; ++i) {
    const int32_t ai = a[i];
    for (int j = 0; j < 8; ++j) {
      lanes[j] += ai * static_cast<int32_t>(qs[j][i]);
    }
  }
  for (int j = 0; j < 8; ++j) out[j] = lanes[j];
}

/// dim == 128 row sweep for one group of eight queries: all sixteen query
/// chunks stay register-resident across the row loop (16 zmm + 8
/// accumulators + 2 row chunks fits the 32-register file), so each row
/// costs two loads + two XORs + sixteen vpdpbusd before the joint
/// reduction. The correction subtract, int-to-float conversion, and the
/// two scale multiplies run as 4-lane vector ops — elementwise the same
/// two-rounding sequence `float(s) * (row_scale * query_scale)` as the
/// scalar reference, so bitwise parity holds lane for lane.
SEESAW_AVX512VNNI_FN void ScoreRows8Q128(const int8_t* rows,
                                         const float* row_scales,
                                         size_t num_rows,
                                         const int8_t* const* qs,
                                         const int32_t* corr,
                                         const float* qscales,
                                         size_t out_stride, float* out) {
  const __m512i q00 = _mm512_loadu_si512(qs[0]);
  const __m512i q01 = _mm512_loadu_si512(qs[0] + 64);
  const __m512i q10 = _mm512_loadu_si512(qs[1]);
  const __m512i q11 = _mm512_loadu_si512(qs[1] + 64);
  const __m512i q20 = _mm512_loadu_si512(qs[2]);
  const __m512i q21 = _mm512_loadu_si512(qs[2] + 64);
  const __m512i q30 = _mm512_loadu_si512(qs[3]);
  const __m512i q31 = _mm512_loadu_si512(qs[3] + 64);
  const __m512i q40 = _mm512_loadu_si512(qs[4]);
  const __m512i q41 = _mm512_loadu_si512(qs[4] + 64);
  const __m512i q50 = _mm512_loadu_si512(qs[5]);
  const __m512i q51 = _mm512_loadu_si512(qs[5] + 64);
  const __m512i q60 = _mm512_loadu_si512(qs[6]);
  const __m512i q61 = _mm512_loadu_si512(qs[6] + 64);
  const __m512i q70 = _mm512_loadu_si512(qs[7]);
  const __m512i q71 = _mm512_loadu_si512(qs[7] + 64);
  const __m128i c0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(corr));
  const __m128i c1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(corr + 4));
  const __m128 qsc0 = _mm_loadu_ps(qscales);
  const __m128 qsc1 = _mm_loadu_ps(qscales + 4);
  const __m512i zero = _mm512_setzero_si512();
  const int8_t* row = rows;
  for (size_t r = 0; r < num_rows; ++r, row += 128, out += out_stride) {
    const __m512i ua0 = OffsetRowChunk(row);
    const __m512i ua1 = OffsetRowChunk(row + 64);
    const __m512i a0 =
        _mm512_dpbusd_epi32(_mm512_dpbusd_epi32(zero, ua0, q00), ua1, q01);
    const __m512i a1 =
        _mm512_dpbusd_epi32(_mm512_dpbusd_epi32(zero, ua0, q10), ua1, q11);
    const __m512i a2 =
        _mm512_dpbusd_epi32(_mm512_dpbusd_epi32(zero, ua0, q20), ua1, q21);
    const __m512i a3 =
        _mm512_dpbusd_epi32(_mm512_dpbusd_epi32(zero, ua0, q30), ua1, q31);
    const __m512i a4 =
        _mm512_dpbusd_epi32(_mm512_dpbusd_epi32(zero, ua0, q40), ua1, q41);
    const __m512i a5 =
        _mm512_dpbusd_epi32(_mm512_dpbusd_epi32(zero, ua0, q50), ua1, q51);
    const __m512i a6 =
        _mm512_dpbusd_epi32(_mm512_dpbusd_epi32(zero, ua0, q60), ua1, q61);
    const __m512i a7 =
        _mm512_dpbusd_epi32(_mm512_dpbusd_epi32(zero, ua0, q70), ua1, q71);
    const __m128i s0 = _mm_sub_epi32(ReduceI32x4Zmm(a0, a1, a2, a3), c0);
    const __m128i s1 = _mm_sub_epi32(ReduceI32x4Zmm(a4, a5, a6, a7), c1);
    const __m128 rs = _mm_set1_ps(row_scales[r]);
    _mm_storeu_ps(out,
                  _mm_mul_ps(_mm_cvtepi32_ps(s0), _mm_mul_ps(rs, qsc0)));
    _mm_storeu_ps(out + 4,
                  _mm_mul_ps(_mm_cvtepi32_ps(s1), _mm_mul_ps(rs, qsc1)));
  }
}

SEESAW_AVX512VNNI_FN void ScoreBlockI8Vnni(const int8_t* rows,
                                           const float* row_scales,
                                           size_t num_rows, size_t dim,
                                           const int8_t* queries,
                                           const float* query_scales,
                                           size_t num_queries, float* out) {
  // Query pointers are row-invariant; materializing them once keeps the row
  // loop's address arithmetic down to two pointer increments.
  constexpr size_t kMaxStackQueries = 64;
  const int8_t* qp_stack[kMaxStackQueries];
  std::vector<const int8_t*> qp_heap;
  const int8_t** qp = qp_stack;
  if (num_queries > kMaxStackQueries) {
    qp_heap.resize(num_queries);
    qp = qp_heap.data();
  }
  for (size_t q = 0; q < num_queries; ++q) qp[q] = queries + q * dim;

  // Per-query offset corrections, computed once per call (the cost is one
  // dpbusd pass over the queries, amortized across every row of the block).
  constexpr size_t kMaxStackCorr = 64;
  int32_t corr_stack[kMaxStackCorr];
  std::vector<int32_t> corr_heap;
  int32_t* corr = corr_stack;
  if (num_queries > kMaxStackCorr) {
    corr_heap.resize(num_queries);
    corr = corr_heap.data();
  }
  for (size_t q = 0; q < num_queries; ++q) {
    corr[q] = QueryCorrection(qp[q], dim);
  }

  // CLIP-like tables (dim == 128) take the register-resident row sweep per
  // eight-query group; sweeping rows per group instead of queries per row
  // changes only the cell visit order, not any cell's arithmetic, so the
  // family's bitwise contract is unaffected.
  if (dim == 128) {
    size_t q = 0;
    for (; q + 8 <= num_queries; q += 8) {
      ScoreRows8Q128(rows, row_scales, num_rows, qp + q, corr + q,
                     query_scales + q, num_queries, out + q);
    }
    if (q == num_queries) return;
    const int8_t* rest_row = rows;
    float* rest_out = out;
    for (size_t r = 0; r < num_rows;
         ++r, rest_row += dim, rest_out += num_queries) {
      const float row_scale = row_scales[r];
      for (size_t j = q; j < num_queries; ++j) {
        const int32_t s = DotI8Vnni(rest_row, qp[j], dim);
        rest_out[j] = static_cast<float>(s) * (row_scale * query_scales[j]);
      }
    }
    return;
  }

  const int8_t* row = rows;
  float* out_row = out;
  for (size_t r = 0; r < num_rows; ++r, row += dim, out_row += num_queries) {
    const float row_scale = row_scales[r];
    size_t q = 0;
    for (; q + 8 <= num_queries; q += 8) {
      int32_t s[8];
      DotI8Vnni1R8Q(row, qp + q, corr + q, dim, s);
      for (size_t j = 0; j < 8; ++j) {
        out_row[q + j] =
            static_cast<float>(s[j]) * (row_scale * query_scales[q + j]);
      }
    }
    for (; q + 4 <= num_queries; q += 4) {
      int32_t s[4];
      DotI8Vnni1R4Q(row, qp + q, corr + q, dim, s);
      for (size_t j = 0; j < 4; ++j) {
        out_row[q + j] =
            static_cast<float>(s[j]) * (row_scale * query_scales[q + j]);
      }
    }
    for (; q < num_queries; ++q) {
      const int32_t s = DotI8Vnni(row, qp[q], dim);
      out_row[q] = static_cast<float>(s) * (row_scale * query_scales[q]);
    }
  }
}

}  // namespace

namespace internal {

const KernelTable* Avx2KernelsOrNull() {
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
    return nullptr;
  }
  static constexpr KernelTable kTable = {"avx2", DotAvx2, ScoreBlockAvx2};
  return &kTable;
}

const Int8KernelTable* Avx2Int8KernelsOrNull() {
  if (Avx2KernelsOrNull() == nullptr) return nullptr;
  static constexpr Int8KernelTable kTable = {"avx2", DotI8Avx2,
                                             ScoreBlockI8Avx2};
  return &kTable;
}

const KernelTable* Avx512VnniKernelsOrNull() {
  if (Avx2KernelsOrNull() == nullptr || !__builtin_cpu_supports("avx512f") ||
      !__builtin_cpu_supports("avx512bw") ||
      !__builtin_cpu_supports("avx512vl") ||
      !__builtin_cpu_supports("avx512vnni")) {
    return nullptr;
  }
  // The avx512vnni *configuration* upgrades only the int8 scoring path. Its
  // fp32 members are the AVX2 functions: the fp32 family contract pins the
  // 8-float-lane accumulation spec (bitwise parity across kernels), and the
  // fp32 scan is DRAM-bound anyway — wider vectors buy nothing there.
  static constexpr KernelTable kTable = {"avx512vnni", DotAvx2, ScoreBlockAvx2};
  return &kTable;
}

const Int8KernelTable* Avx512VnniInt8KernelsOrNull() {
  if (Avx512VnniKernelsOrNull() == nullptr) return nullptr;
  static constexpr Int8KernelTable kTable = {"avx512vnni", DotI8Vnni,
                                             ScoreBlockI8Vnni};
  return &kTable;
}

}  // namespace internal
}  // namespace seesaw::linalg

#else  // !x86

namespace seesaw::linalg::internal {
const KernelTable* Avx2KernelsOrNull() { return nullptr; }
const Int8KernelTable* Avx2Int8KernelsOrNull() { return nullptr; }
const KernelTable* Avx512VnniKernelsOrNull() { return nullptr; }
const Int8KernelTable* Avx512VnniInt8KernelsOrNull() { return nullptr; }
}  // namespace seesaw::linalg::internal

#endif
