// Reliability / failure-injection tests: corrupt stored cells between
// operations and check the system's observable behaviour. The paper's
// Table I quantifies sensing failures; these tests exercise what a stored-
// bit failure does to the algorithms built on top.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/pim_hash_table.hpp"
#include "core/pipeline.hpp"
#include "dna/genome.hpp"
#include "dram/dpu.hpp"
#include "dram/subarray.hpp"
#include "runtime/shard.hpp"

namespace pima {
namespace {

dram::Geometry geometry() {
  dram::Geometry g;
  g.rows = 256;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 4;
  g.mats_per_bank = 1;
  g.banks = 1;
  return g;
}

TEST(FaultInjection, FlipIsVisibleAndReversible) {
  dram::Subarray sa(geometry(), circuit::default_technology());
  EXPECT_FALSE(sa.peek_row(3).get(17));
  sa.inject_bit_flip(3, 17);
  EXPECT_TRUE(sa.peek_row(3).get(17));
  sa.inject_bit_flip(3, 17);
  EXPECT_FALSE(sa.peek_row(3).get(17));
  EXPECT_THROW(sa.inject_bit_flip(3, 256), PreconditionError);
  EXPECT_THROW(sa.inject_bit_flip(999, 0), PreconditionError);
}

TEST(FaultInjection, FlipDoesNotCostCommands) {
  dram::Subarray sa(geometry(), circuit::default_technology());
  sa.inject_bit_flip(0, 0);
  EXPECT_EQ(sa.stats().total_commands(), 0u);
}

TEST(FaultInjection, ComparatorDetectsCorruptedKey) {
  // A stored key row gets one flipped cell; the row-parallel XNOR + DPU
  // AND must report a mismatch against the original query.
  dram::Subarray sa(geometry(), circuit::default_technology());
  BitVector key(256);
  for (std::size_t i = 0; i < 32; ++i) key.set(i, (i * 7) % 3 == 0);
  sa.write_row(0, key);
  sa.write_row(1, key);
  sa.compare_rows(0, 1, 10);
  EXPECT_TRUE(dram::Dpu::and_reduce(sa, 10, 32));

  sa.inject_bit_flip(1, 13);
  sa.compare_rows(0, 1, 10);
  EXPECT_FALSE(dram::Dpu::and_reduce(sa, 10, 32));
  // The fault position is identifiable from the match bits.
  EXPECT_FALSE(sa.peek_row(10).get(13));
  EXPECT_EQ(sa.peek_row(10).popcount(), 255u);
}

TEST(FaultInjection, FaultOutsideKeyBitsIsMasked) {
  // The DPU reduces only the first 2k bits; padding faults must not
  // produce false mismatches.
  dram::Subarray sa(geometry(), circuit::default_technology());
  BitVector key(256);
  key.set(0, true);
  sa.write_row(0, key);
  sa.write_row(1, key);
  sa.inject_bit_flip(1, 200);  // beyond a 32-bit key
  sa.compare_rows(0, 1, 10);
  EXPECT_TRUE(dram::Dpu::and_reduce(sa, 10, 32));
  EXPECT_FALSE(dram::Dpu::and_reduce(sa, 10, 256));
}

TEST(FaultInjection, HashTableTreatsCorruptedKeyAsDistinct) {
  // After a key-row bit flip, the stored key no longer equals the logical
  // k-mer: the next arrival of that k-mer probes past it and re-inserts.
  dram::Device dev(geometry());
  runtime::DevicePool pool(dev, 1);
  core::PimHashTable table(pool, 1);
  const auto seq = dna::Sequence::from_string("ACGTACGTACGTACGT");
  const auto km = assembly::Kmer::from_sequence(seq, 0, 16);
  table.insert_or_increment(km);
  EXPECT_EQ(table.lookup(km).value(), 1u);

  // Find the occupied key row and corrupt it.
  bool corrupted = false;
  for (std::size_t slot = 0; slot < table.layout().kmer_rows && !corrupted;
       ++slot) {
    if (table.peek_slot(0, slot)) {
      dev.subarray(0).inject_bit_flip(table.layout().kmer_row(slot), 5);
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);
  // The logical k-mer is no longer found...
  EXPECT_FALSE(table.lookup(km).has_value());
  // ...and a new arrival creates a fresh entry rather than corrupting the
  // old count.
  EXPECT_EQ(table.insert_or_increment(km), 1u);
  EXPECT_EQ(table.distinct_kmers(), 2u);
}

TEST(FaultInjection, ComputeRowFlipCorruptsTwoRowActivation) {
  // A weak cell in a staged operand (x1..x8) corrupts the activation it
  // feeds: the XNOR result flips in exactly the faulted column.
  dram::Subarray sa(geometry(), circuit::default_technology());
  const dram::RowAddr x1 = sa.compute_row(0);
  const dram::RowAddr x2 = sa.compute_row(1);
  const dram::RowAddr dst = sa.compute_row(2);
  BitVector a(256), b(256);
  for (std::size_t i = 0; i < 256; ++i) {
    a.set(i, i % 3 == 0);
    b.set(i, i % 5 == 0);
  }
  sa.write_row(x1, a);
  sa.write_row(x2, b);
  sa.aap_xnor(x1, x2, dst);
  const BitVector clean = sa.peek_row(dst);

  sa.write_row(x1, a);
  sa.write_row(x2, b);
  sa.inject_bit_flip(x1, 42);
  sa.aap_xnor(x1, x2, dst);
  const BitVector& faulty = sa.peek_row(dst);
  for (std::size_t c = 0; c < 256; ++c)
    EXPECT_EQ(faulty.get(c), c == 42 ? !clean.get(c) : clean.get(c)) << c;
}

TEST(FaultInjection, LatchFlipPropagatesThroughSumCycle) {
  // An upset carry latch bit is consumed by the next sum cycle:
  // dst ← a ⊕ b ⊕ latch feels the flip in exactly that column.
  dram::Subarray sa(geometry(), circuit::default_technology());
  const dram::RowAddr x1 = sa.compute_row(0);
  const dram::RowAddr x2 = sa.compute_row(1);
  const dram::RowAddr dst = sa.compute_row(2);
  BitVector ones(256), zeros(256);
  ones.fill(true);
  sa.write_row(x1, ones);
  sa.write_row(x2, zeros);
  sa.reset_latch();
  sa.inject_latch_flip(7);
  EXPECT_TRUE(sa.peek_latch().get(7));
  sa.sum_cycle(x1, x2, dst);  // 1 ⊕ 0 ⊕ latch
  for (std::size_t c = 0; c < 256; ++c)
    EXPECT_EQ(sa.peek_row(dst).get(c), c != 7) << c;
}

TEST(FaultInjection, LatchFlipIsZeroCostAndBoundsChecked) {
  dram::Subarray sa(geometry(), circuit::default_technology());
  sa.inject_latch_flip(0);
  EXPECT_EQ(sa.stats().total_commands(), 0u);
  EXPECT_THROW(sa.inject_latch_flip(256), PreconditionError);
}

TEST(FaultInjection, AdditionPropagatesFaultyOperandBit) {
  // Corrupting bit row i of an operand changes the vertical sum by 2^i in
  // exactly the faulted column — arithmetic felt end to end.
  dram::Subarray sa(geometry(), circuit::default_technology());
  const std::vector<dram::RowAddr> a{0, 1}, b{4, 5}, s{8, 9};
  BitVector zero(256);
  for (const auto r : {0u, 1u, 4u, 5u}) sa.write_row(r, zero);
  // a = 1 everywhere (bit0 set), b = 0.
  BitVector ones(256);
  ones.fill(true);
  sa.write_row(0, ones);
  sa.inject_bit_flip(4, 99);  // b gains +1 in column 99
  sa.add_vertical(a, b, s, 20);
  for (std::size_t c = 0; c < 256; ++c) {
    const int sum = (sa.peek_row(8).get(c) ? 1 : 0) +
                    (sa.peek_row(9).get(c) ? 2 : 0);
    EXPECT_EQ(sum, c == 99 ? 2 : 1) << c;
  }
}

// ---- Fault-path determinism under randomized configurations --------------
//
// The determinism contract extends to the stochastic fault process: every
// FaultInjector RNG is forked from (config seed, sub-array flat index), and
// per-sub-array command sequences are channel-count invariant — so the
// whole FaultStats roll-up must be bit-identical for any --threads value,
// whatever the configuration. Checked over randomized fault configs, not
// just one hand-picked point.
TEST(FaultInjection, RandomizedConfigsAreThreadCountInvariant) {
  dna::GenomeParams gp;
  gp.length = 700;
  gp.repeat_count = 0;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 5.0;
  rp.read_length = 70;
  const auto reads = dna::sample_reads(genome, rp);

  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 8;
  g.mats_per_bank = 1;
  g.banks = 1;

  Rng rng(4242);
  for (int trial = 0; trial < 3; ++trial) {
    core::PipelineOptions opt;
    opt.k = 15;
    opt.hash_shards = 4;
    opt.fault.variation = 0.10 + 0.05 * static_cast<double>(rng.uniform(4));
    opt.fault.seed = rng();
    opt.fault.retention_flip_per_op = rng.bernoulli(0.5) ? 1e-4 : 0.0;
    opt.fault.weak_row_fraction = rng.bernoulli(0.5) ? 0.02 : 0.0;
    opt.recovery.mode = rng.bernoulli(0.5) ? runtime::RecoveryMode::kRetry
                                           : runtime::RecoveryMode::kVote;

    auto run = [&](std::size_t threads) {
      core::PipelineOptions o = opt;
      o.threads = threads;
      dram::Device dev(g);
      return core::run_pipeline(dev, reads, o);
    };
    const auto serial = run(1);
    const auto parallel = run(3);
    EXPECT_EQ(serial.fault_stats, parallel.fault_stats)
        << "trial " << trial << " variation " << opt.fault.variation
        << " seed " << opt.fault.seed;
    EXPECT_GT(serial.fault_stats.injected, 0u) << "trial " << trial;
  }
}

}  // namespace
}  // namespace pima
