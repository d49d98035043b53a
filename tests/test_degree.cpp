#include "core/degree.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dna/genome.hpp"
#include "runtime/shard.hpp"

namespace pima::core {
namespace {

dram::Geometry degree_geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 64;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  return g;
}

TEST(ColumnSums, EmptyInputIsZero) {
  dram::Device dev(degree_geometry());
  const auto sums = pim_column_sums(dev.subarray(0), {});
  for (const auto s : sums) EXPECT_EQ(s, 0u);
}

TEST(ColumnSums, SingleRowPassesThrough) {
  dram::Device dev(degree_geometry());
  BitVector row(64);
  row.set(0, true);
  row.set(63, true);
  const auto sums = pim_column_sums(dev.subarray(0), {row});
  EXPECT_EQ(sums[0], 1u);
  EXPECT_EQ(sums[63], 1u);
  EXPECT_EQ(sums[10], 0u);
}

TEST(ColumnSums, PaperFig8Example) {
  // Fig. 8 sums the adjacency matrix of a 6-vertex graph; the final row of
  // per-column degrees reads 4 3 3 2 3 1.
  const char* matrix[6] = {"011110", "100011", "100110",
                           "101000", "111000", "010000"};
  std::vector<BitVector> rows;
  for (const auto* r : matrix) {
    BitVector row(64);
    for (std::size_t c = 0; c < 6; ++c) row.set(c, r[c] == '1');
    rows.push_back(std::move(row));
  }
  dram::Device dev(degree_geometry());
  const auto sums = pim_column_sums(dev.subarray(0), rows);
  const std::uint32_t expect[6] = {4, 3, 3, 2, 3, 1};
  for (std::size_t c = 0; c < 6; ++c) EXPECT_EQ(sums[c], expect[c]) << c;
}

TEST(ColumnSums, MismatchedWidthThrows) {
  dram::Device dev(degree_geometry());
  EXPECT_THROW(pim_column_sums(dev.subarray(0), {BitVector(32)}),
               pima::PreconditionError);
}

TEST(ColumnSums, CommandsAreAccounted) {
  dram::Device dev(degree_geometry());
  BitVector a(64), b(64), c(64);
  a.fill(true);
  b.set(3, true);
  pim_column_sums(dev.subarray(0), {a, b, c});
  const auto& st = dev.subarray(0).stats();
  // A 3-row compression must issue at least one TRA and two-row XORs.
  EXPECT_GE(
      st.counts[static_cast<std::size_t>(dram::CommandKind::kAapTra)], 1u);
  EXPECT_GE(
      st.counts[static_cast<std::size_t>(dram::CommandKind::kAapTwoRow)], 2u);
}

// Property: column sums computed in-memory equal the software popcount per
// column, across row-count regimes that exercise single numbers, one
// compression level, and deep carry-save trees with recycling.
class ColumnSumProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ColumnSumProperty, MatchesSoftware) {
  const std::size_t n_rows = GetParam();
  dram::Device dev(degree_geometry());
  Rng rng(1000 + n_rows);
  std::vector<BitVector> rows;
  std::vector<std::uint32_t> expect(64, 0);
  for (std::size_t r = 0; r < n_rows; ++r) {
    BitVector row(64);
    for (std::size_t c = 0; c < 64; ++c) {
      const bool bit = rng.bernoulli(0.4);
      row.set(c, bit);
      if (bit) ++expect[c];
    }
    rows.push_back(std::move(row));
  }
  const auto sums = pim_column_sums(dev.subarray(0), rows);
  for (std::size_t c = 0; c < 64; ++c) EXPECT_EQ(sums[c], expect[c]) << c;
}

INSTANTIATE_TEST_SUITE_P(RowCounts, ColumnSumProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 9, 16, 33, 64));

// The kernel fuses each carry-save bit step (Subarray::compress_bit) unless
// a trace sink is attached; both runs must leave the same sums, counts,
// rows and latch.
TEST(ColumnSums, FusedKernelMatchesTracedPrimitiveKernel) {
  dram::Geometry g = degree_geometry();
  g.rows = 1024;
  g.columns = 256;
  for (const std::size_t n_rows : {16u, 64u, 256u}) {
    Rng rng(500 + n_rows);
    std::vector<BitVector> rows;
    for (std::size_t r = 0; r < n_rows; ++r) {
      BitVector row(g.columns);
      for (std::size_t c = 0; c < g.columns; ++c)
        row.set(c, rng.bernoulli(0.3));
      rows.push_back(std::move(row));
    }
    dram::Subarray fused(g, circuit::default_technology());
    dram::Subarray traced(g, circuit::default_technology());
    dram::TraceSink trace;
    traced.attach_trace(&trace);
    const auto fused_sums = pim_column_sums(fused, rows);
    const auto traced_sums = pim_column_sums(traced, rows);
    EXPECT_EQ(fused_sums, traced_sums) << n_rows;
    for (std::size_t k = 0; k < dram::kCommandKindCount; ++k)
      EXPECT_EQ(fused.stats().counts[k], traced.stats().counts[k])
          << n_rows << " kind " << k;
    EXPECT_EQ(trace.size(), traced.stats().total_commands() + 1)
        << "every command plus add_vertical's latch reset is traced";
    for (dram::RowAddr r = 0; r < g.rows; ++r)
      ASSERT_EQ(fused.peek_row(r), traced.peek_row(r)) << n_rows << " " << r;
    EXPECT_EQ(fused.peek_latch(), traced.peek_latch()) << n_rows;
  }
}

TEST(PimDegrees, MatchesGraphDegrees) {
  dna::GenomeParams gp;
  gp.length = 400;
  gp.repeat_count = 2;
  gp.repeat_length = 40;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 50;
  const auto reads = dna::sample_reads(genome, rp);
  const auto g = assembly::DeBruijnGraph::from_counter(
      assembly::build_hashmap(reads, 12));

  dram::Device dev(degree_geometry());
  runtime::DevicePool pool(dev, 1);
  const auto partition = partition_graph(g, 12);  // intervals ≤ 64 columns
  const auto degrees = pim_degrees(pool, g, partition);

  ASSERT_EQ(degrees.in_degree.size(), g.node_count());
  for (assembly::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(degrees.in_degree[v], g.in_degree(v)) << "in " << v;
    EXPECT_EQ(degrees.out_degree[v], g.out_degree(v)) << "out " << v;
  }
}

TEST(PimDegrees, MultiplicityContributes) {
  // One read with a repeated k-mer: multiplicity-2 edge must count twice.
  std::vector<dna::Sequence> reads{
      dna::Sequence::from_string("CGTGCGTGCTT")};
  const auto g = assembly::DeBruijnGraph::from_counter(
      assembly::build_hashmap(reads, 5), /*use_multiplicity=*/true);
  dram::Device dev(degree_geometry());
  runtime::DevicePool pool(dev, 1);
  const auto degrees = pim_degrees(pool, g, partition_graph(g, 2));
  std::uint64_t in_total = 0;
  for (const auto d : degrees.in_degree) in_total += d;
  EXPECT_EQ(in_total, g.edge_instances());
}

}  // namespace
}  // namespace pima::core
