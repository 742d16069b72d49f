// Parity tests for the runtime-dispatched SIMD kernel layer (linalg/simd.h).
//
// Every kernel the host CPU supports is forced in turn and checked for
// *bitwise* equality against the scalar reference — over odd dims, remainder
// tails, unaligned spans, wide dynamic range, and ±inf/NaN inputs. Bitwise
// (not approximate) equality is the contract the batched query engine's
// parity guarantees rest on, so any reassociation or masked-lane bug in an
// intrinsics path fails these tests loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "linalg/vector_ops.h"

namespace seesaw::linalg {
namespace {

uint32_t Bits(float v) { return std::bit_cast<uint32_t>(v); }

/// Bitwise equality with a readable failure message. NaNs must match on the
/// exact bit pattern too: all kernels perform the identical sequence of
/// IEEE operations, so payload and sign must agree.
::testing::AssertionResult BitEq(float expected, float actual) {
  if (Bits(expected) == Bits(actual)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "expected " << expected << " (0x" << std::hex << Bits(expected)
         << ") got " << actual << " (0x" << Bits(actual) << ")";
}

/// Random floats across ~12 decades of magnitude so any change in
/// accumulation order shifts low-order bits.
VectorF RandomVector(Rng& rng, size_t n) {
  VectorF v(n);
  for (float& x : v) {
    double mag = rng.LogNormal(/*mu=*/0.0, /*sigma=*/4.0);
    x = static_cast<float>((rng.Bernoulli(0.5) ? mag : -mag));
  }
  return v;
}

std::vector<size_t> SweepDims() {
  std::vector<size_t> dims;
  for (size_t d = 0; d <= 34; ++d) dims.push_back(d);  // all tail shapes
  for (size_t d : {63u, 64u, 65u, 100u, 127u, 128u, 129u, 255u, 256u, 257u,
                   511u, 512u, 513u}) {
    dims.push_back(d);
  }
  return dims;
}

class SimdKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { ASSERT_TRUE(ForceKernels("auto")); }
};

TEST_F(SimdKernelTest, ScalarIsAlwaysSupported) {
  auto names = SupportedKernels();
  EXPECT_NE(std::find(names.begin(), names.end(), "scalar"), names.end());
  for (const std::string& name : names) {
    EXPECT_NE(FindKernels(name), nullptr) << name;
  }
}

TEST_F(SimdKernelTest, DotBitwiseParityAcrossKernelsAndDims) {
  const KernelTable& ref = ScalarKernels();
  Rng rng(7);
  for (const std::string& name : SupportedKernels()) {
    const KernelTable* kernel = FindKernels(name);
    ASSERT_NE(kernel, nullptr);
    for (size_t dim : SweepDims()) {
      VectorF a = RandomVector(rng, dim);
      VectorF b = RandomVector(rng, dim);
      EXPECT_TRUE(BitEq(ref.dot(a, b), kernel->dot(a, b)))
          << name << " dim=" << dim;
    }
  }
}

TEST_F(SimdKernelTest, ScoreBlockBitwiseEqualsDotPerCell) {
  Rng rng(13);
  for (const std::string& name : SupportedKernels()) {
    const KernelTable* kernel = FindKernels(name);
    ASSERT_NE(kernel, nullptr);
    for (size_t dim : {5u, 33u, 128u, 200u}) {
      for (size_t rows : {1u, 2u, 3u, 5u, 8u}) {
        MatrixF table(rows, dim);
        for (size_t r = 0; r < rows; ++r) {
          VectorF row = RandomVector(rng, dim);
          std::copy(row.begin(), row.end(), table.MutableRow(r).begin());
        }
        for (size_t batch : {1u, 2u, 3u, 4u, 7u}) {
          std::vector<VectorF> queries;
          for (size_t q = 0; q < batch; ++q) {
            queries.push_back(RandomVector(rng, dim));
          }
          std::vector<VecSpan> spans(queries.begin(), queries.end());
          std::vector<float> out(rows * batch);
          kernel->score_block(table.data().data(), rows, dim, spans.data(),
                              batch, out.data());
          for (size_t r = 0; r < rows; ++r) {
            for (size_t q = 0; q < batch; ++q) {
              EXPECT_TRUE(BitEq(ScalarKernels().dot(table.Row(r), spans[q]),
                                out[r * batch + q]))
                  << name << " dim=" << dim << " rows=" << rows
                  << " batch=" << batch << " r=" << r << " q=" << q;
            }
          }
        }
      }
    }
  }
}

TEST_F(SimdKernelTest, UnalignedSpansMatchScalar) {
  Rng rng(17);
  const size_t dim = 131;
  // Backing buffers with headroom; sub-spans start at every misalignment a
  // float pointer can have relative to a 32-byte vector register.
  VectorF a_buf = RandomVector(rng, dim + 8);
  VectorF b_buf = RandomVector(rng, dim + 8);
  for (const std::string& name : SupportedKernels()) {
    const KernelTable* kernel = FindKernels(name);
    ASSERT_NE(kernel, nullptr);
    for (size_t offset_a = 0; offset_a < 8; ++offset_a) {
      for (size_t offset_b : {0u, 1u, 3u, 7u}) {
        VecSpan a(a_buf.data() + offset_a, dim);
        VecSpan b(b_buf.data() + offset_b, dim);
        EXPECT_TRUE(BitEq(ScalarKernels().dot(a, b), kernel->dot(a, b)))
            << name << " offsets " << offset_a << "," << offset_b;
      }
    }
  }
}

TEST_F(SimdKernelTest, NonFiniteInputsMatchScalarBitwise) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(19);
  // Every placement lands the special value in a different kernel region:
  // the 16-wide body (both banks), the single 8-chunk, and the scalar tail.
  const size_t dim = 45;  // 2x16 body + 8-chunk + 5 tail
  const size_t placements[] = {0, 7, 12, 23, 33, 39, 40, 44};
  const float specials[] = {kInf, -kInf, kNan, 0.0f, -0.0f};
  for (const std::string& name : SupportedKernels()) {
    const KernelTable* kernel = FindKernels(name);
    ASSERT_NE(kernel, nullptr);
    for (size_t pos : placements) {
      for (float special : specials) {
        VectorF a = RandomVector(rng, dim);
        VectorF b = RandomVector(rng, dim);
        a[pos] = special;
        float expected = ScalarKernels().dot(a, b);
        EXPECT_TRUE(BitEq(expected, kernel->dot(a, b)))
            << name << " pos=" << pos << " special=" << special;
        // inf * inf and inf * -inf in separate lanes -> inf + (-inf) = NaN
        // must propagate identically through the reduction tree.
        b[pos] = special;
        EXPECT_TRUE(BitEq(ScalarKernels().dot(a, b), kernel->dot(a, b)))
            << name << " pos=" << pos << " special^2=" << special;
      }
    }
  }
}

TEST_F(SimdKernelTest, PublicApiRoutesThroughForcedKernel) {
  Rng rng(23);
  const size_t dim = 77;
  VectorF a = RandomVector(rng, dim);
  VectorF b = RandomVector(rng, dim);
  const float want = ScalarKernels().dot(a, b);
  for (const std::string& name : SupportedKernels()) {
    ASSERT_TRUE(ForceKernels(name));
    EXPECT_STREQ(ActiveKernels().name, name.c_str());
    EXPECT_TRUE(BitEq(want, Dot(a, b))) << name;

    std::vector<VecSpan> queries = {a, b};
    MatrixF table(3, dim);
    for (size_t r = 0; r < 3; ++r) {
      VectorF row = RandomVector(rng, dim);
      std::copy(row.begin(), row.end(), table.MutableRow(r).begin());
    }
    std::vector<float> scores(3 * 2);
    table.ScoreBlock(0, 3, queries, MutVecSpan(scores.data(), scores.size()));
    for (size_t r = 0; r < 3; ++r) {
      for (size_t q = 0; q < 2; ++q) {
        EXPECT_TRUE(BitEq(ScalarKernels().dot(table.Row(r), queries[q]),
                          scores[r * 2 + q]))
            << name << " r=" << r << " q=" << q;
      }
    }
  }
}

TEST_F(SimdKernelTest, ForceKernelsRejectsUnknownAndUnsupported) {
  EXPECT_FALSE(ForceKernels("bogus"));
  EXPECT_FALSE(ForceKernels(""));
  auto names = SupportedKernels();
  auto supported = [&](const char* n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  if (!supported("avx2")) EXPECT_FALSE(ForceKernels("avx2"));
  if (!supported("neon")) EXPECT_FALSE(ForceKernels("neon"));
  // A failed force leaves the active table usable.
  VectorF a = {1.0f, 2.0f, 3.0f};
  EXPECT_TRUE(BitEq(ScalarKernels().dot(a, a), Dot(a, a)));
}

TEST_F(SimdKernelTest, EnvVarForcesKernelAtFirstResolution) {
  ASSERT_EQ(setenv("SEESAW_FORCE_KERNEL", "scalar", /*overwrite=*/1), 0);
  internal::ResetKernelsForTest();
  EXPECT_STREQ(ActiveKernels().name, "scalar");
  ASSERT_EQ(unsetenv("SEESAW_FORCE_KERNEL"), 0);
  internal::ResetKernelsForTest();
  // Auto detection resolves to the best supported kernel.
  EXPECT_EQ(std::string(ActiveKernels().name), SupportedKernels().front());
}

TEST_F(SimdKernelTest, EmptyInputsAreZero) {
  for (const std::string& name : SupportedKernels()) {
    const KernelTable* kernel = FindKernels(name);
    ASSERT_NE(kernel, nullptr);
    EXPECT_TRUE(BitEq(0.0f, kernel->dot(VecSpan{}, VecSpan{}))) << name;
    kernel->score_block(nullptr, 0, 0, nullptr, 0, nullptr);
  }
}

}  // namespace
}  // namespace seesaw::linalg
