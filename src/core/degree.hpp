// In-memory vertex-degree computation (paper Fig. 8, "mapping" stage).
//
// The adjacency rows of an edge block are mapped onto consecutive sub-array
// rows; the degree of every destination vertex is the column sum of those
// 1-bit rows. PIM-Assembler computes the sums with a carry-save reduction:
// every three rows are compressed to a (Carry, Sum) pair — one TRA for the
// carry, two two-row XORs for the sum — written back to reserved rows; the
// resulting multi-bit vertical numbers are then combined with bit-serial
// additions (2 compute cycles per bit) until one number per column remains.
// All 256 columns advance in parallel at every step.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph_map.hpp"
#include "dram/device.hpp"
#include "dram/subarray.hpp"

namespace pima::runtime {
class DevicePool;   // runtime/shard.hpp
class PoolRunner;
}  // namespace pima::runtime

namespace pima::core {

/// Column sums of `rows` (each a 1-bit-per-column adjacency row) computed
/// entirely with PIM operations inside `sa`. Returns one sum per column.
/// Requires enough free data rows for inputs + carry-save intermediates
/// (≈ 3× the input row count).
std::vector<std::uint32_t> pim_column_sums(dram::Subarray& sa,
                                           const std::vector<BitVector>& rows);

/// Degrees of every vertex of `g`, computed block by block (block (i,j)
/// of the partition runs on its own sub-array; per-vertex partial degrees
/// from the M blocks of a row/column are accumulated by the controller).
struct DegreeResult {
  std::vector<std::uint32_t> in_degree;
  std::vector<std::uint32_t> out_degree;
};

/// One column-sum kernel of the block walk: the adjacency rows of block
/// (i, j) — sums are in-degrees of interval j — or of its transpose — sums
/// are out-degrees of interval i — on the sub-array the scheduler places
/// it at.
struct DegreeKernel {
  std::size_t flat = 0;  ///< sub-array the kernel runs on
  const EdgeBlock* block = nullptr;
  bool transposed = false;
  std::size_t row_count = 0;  ///< vertices of the row interval

  /// The block in kernel orientation: rows are the row interval's
  /// vertices, columns the column interval's (the transpose reverses every
  /// edge).
  EdgeBlock oriented() const;

  /// The kernel's input rows (built on demand, so an engine task can
  /// build them on its channel).
  std::vector<BitVector> rows(std::size_t width) const;
};

/// The block walk in issue order: every non-empty block in row-major
/// order, its in-degree kernel then its out-degree kernel. Throws when an
/// interval is wider than a sub-array row.
std::vector<DegreeKernel> degree_kernels(const dram::Geometry& geometry,
                                         const GraphPartition& partition);

/// Runs every kernel of degree_kernels() on the pool: sub-arrays resolve
/// through the pool's owner routing, and with a runner each kernel is
/// dispatched to the channel owning its sub-array (inline otherwise). Sums
/// are accumulated in walk order after the barrier, so the result and
/// every CommandStats are bit-identical for any device or channel count.
DegreeResult pim_degrees(runtime::DevicePool& pool,
                         const assembly::DeBruijnGraph& g,
                         const GraphPartition& partition,
                         runtime::PoolRunner* runner = nullptr);

}  // namespace pima::core
