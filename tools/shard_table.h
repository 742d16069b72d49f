// Deterministic synthetic vector table shared by the shard-serving mode of
// seesaw_server and remote_parity_gate: both ends of the remote smoke test
// must rebuild bit-identical tables from (rows, dim, seed) alone, or the
// bitwise remote-vs-local parity check would be comparing different data.
#ifndef SEESAW_TOOLS_SHARD_TABLE_H_
#define SEESAW_TOOLS_SHARD_TABLE_H_

#include <cstdint>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace seesaw::tools {

/// Unit-norm rows from a seeded Gaussian (test_util::RandomTable is this
/// table too).
inline linalg::MatrixF DeterministicTable(size_t rows, size_t dim,
                                          uint64_t seed) {
  Rng rng(seed);
  linalg::MatrixF table(rows, dim);
  for (size_t i = 0; i < rows; ++i) {
    auto row = table.MutableRow(i);
    for (size_t j = 0; j < dim; ++j) {
      row[j] = static_cast<float>(rng.Gaussian());
    }
    linalg::NormalizeInPlace(row);
  }
  return table;
}

}  // namespace seesaw::tools

#endif  // SEESAW_TOOLS_SHARD_TABLE_H_
