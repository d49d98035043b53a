#include "dram/subarray.hpp"

#include <gtest/gtest.h>

#include "circuit/sense_amp.hpp"
#include "common/rng.hpp"
#include "dram/dpu.hpp"

namespace pima::dram {
namespace {

Geometry small_geometry() {
  Geometry g;
  g.rows = 64;
  g.compute_rows = 8;
  g.columns = 64;
  g.subarrays_per_mat = 1;
  g.mats_per_bank = 1;
  g.banks = 1;
  return g;
}

BitVector random_row(Rng& rng, std::size_t n) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

class SubarrayTest : public ::testing::Test {
 protected:
  SubarrayTest() : sa_(small_geometry(), circuit::default_technology()) {}
  Subarray sa_;
};

TEST_F(SubarrayTest, GeometryRegions) {
  EXPECT_EQ(sa_.geometry().data_rows(), 56u);
  EXPECT_EQ(sa_.compute_row(0), 56u);
  EXPECT_EQ(sa_.compute_row(7), 63u);
  EXPECT_THROW(sa_.compute_row(8), pima::PreconditionError);
  EXPECT_FALSE(sa_.is_compute_row(55));
  EXPECT_TRUE(sa_.is_compute_row(56));
}

TEST_F(SubarrayTest, WriteReadRoundTrip) {
  Rng rng(1);
  const auto bits = random_row(rng, 64);
  sa_.write_row(5, bits);
  EXPECT_EQ(sa_.read_row(5), bits);
  EXPECT_EQ(sa_.peek_row(5), bits);
}

TEST_F(SubarrayTest, WriteValidatesWidthAndAddress) {
  EXPECT_THROW(sa_.write_row(5, BitVector(63)), pima::PreconditionError);
  EXPECT_THROW(sa_.write_row(64, BitVector(64)), pima::PreconditionError);
  EXPECT_THROW(sa_.read_row(100), pima::PreconditionError);
}

TEST_F(SubarrayTest, AapCopyClones) {
  Rng rng(2);
  const auto bits = random_row(rng, 64);
  sa_.write_row(3, bits);
  sa_.aap_copy(3, 40);
  EXPECT_EQ(sa_.peek_row(40), bits);
  EXPECT_EQ(sa_.peek_row(3), bits);  // source preserved (RowClone)
}

TEST_F(SubarrayTest, XnorComputesAndDestroysOperands) {
  Rng rng(3);
  const auto a = random_row(rng, 64);
  const auto b = random_row(rng, 64);
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1);
  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.aap_xnor(x1, x2, 10);
  const auto expect = BitVector::bit_xnor(a, b);
  EXPECT_EQ(sa_.peek_row(10), expect);
  // Charge sharing destroyed the operands; SA restored the result.
  EXPECT_EQ(sa_.peek_row(x1), expect);
  EXPECT_EQ(sa_.peek_row(x2), expect);
}

TEST_F(SubarrayTest, XorVariant) {
  Rng rng(4);
  const auto a = random_row(rng, 64);
  const auto b = random_row(rng, 64);
  sa_.write_row(sa_.compute_row(0), a);
  sa_.write_row(sa_.compute_row(1), b);
  sa_.aap_xor(sa_.compute_row(0), sa_.compute_row(1), 11);
  EXPECT_EQ(sa_.peek_row(11), BitVector::bit_xor(a, b));
}

TEST_F(SubarrayTest, MultiRowActivationRestrictedToComputeRows) {
  // The modified row decoder only spans x1..x8 (paper Fig. 1b).
  EXPECT_THROW(sa_.aap_xnor(1, 2, 10), pima::PreconditionError);
  EXPECT_THROW(sa_.aap_xnor(sa_.compute_row(0), 2, 10),
               pima::PreconditionError);
  EXPECT_THROW(sa_.aap_tra_carry(1, 2, 3, 10), pima::PreconditionError);
  EXPECT_THROW(sa_.sum_cycle(1, 2, 10), pima::PreconditionError);
  // Distinct-row requirements.
  const auto x1 = sa_.compute_row(0);
  EXPECT_THROW(sa_.aap_xnor(x1, x1, 10), pima::PreconditionError);
  EXPECT_THROW(sa_.aap_tra_carry(x1, x1, sa_.compute_row(2), 10),
               pima::PreconditionError);
}

TEST_F(SubarrayTest, TraMajorityAndLatch) {
  Rng rng(5);
  const auto a = random_row(rng, 64);
  const auto b = random_row(rng, 64);
  const auto c = random_row(rng, 64);
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1),
             x3 = sa_.compute_row(2);
  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.write_row(x3, c);
  sa_.aap_tra_carry(x1, x2, x3, 12);
  const auto maj = BitVector::bit_maj3(a, b, c);
  EXPECT_EQ(sa_.peek_row(12), maj);
  EXPECT_EQ(sa_.peek_latch(), maj);
  // Ambit semantics: all three activated rows hold the majority.
  EXPECT_EQ(sa_.peek_row(x1), maj);
  EXPECT_EQ(sa_.peek_row(x2), maj);
  EXPECT_EQ(sa_.peek_row(x3), maj);
}

// dst may alias one of the activated rows (add_vertical issues TRA with
// dst == xc); the result must land regardless of which store is elided.
TEST_F(SubarrayTest, TwoRowOpsAllowDstAliasingAnOperand) {
  Rng rng(21);
  const auto a = random_row(rng, 64);
  const auto b = random_row(rng, 64);
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1);

  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.aap_xnor(x1, x2, x1);  // dst == first operand
  const auto xnor = BitVector::bit_xnor(a, b);
  EXPECT_EQ(sa_.peek_row(x1), xnor);
  EXPECT_EQ(sa_.peek_row(x2), xnor);

  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.aap_xor(x1, x2, x2);  // dst == second operand
  const auto xorr = BitVector::bit_xor(a, b);
  EXPECT_EQ(sa_.peek_row(x1), xorr);
  EXPECT_EQ(sa_.peek_row(x2), xorr);

  sa_.reset_latch();  // zero carry → sum cycle degenerates to XOR
  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.sum_cycle(x1, x2, x2);  // dst == second operand
  EXPECT_EQ(sa_.peek_row(x1), xorr);
  EXPECT_EQ(sa_.peek_row(x2), xorr);
}

TEST_F(SubarrayTest, TraCarryAllowsDstAliasingThirdOperand) {
  // The add_vertical production pattern: aap_tra_carry(x1, x2, x3, x3).
  Rng rng(22);
  const auto a = random_row(rng, 64);
  const auto b = random_row(rng, 64);
  const auto c = random_row(rng, 64);
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1),
             x3 = sa_.compute_row(2);
  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.write_row(x3, c);
  sa_.aap_tra_carry(x1, x2, x3, x3);
  const auto maj = BitVector::bit_maj3(a, b, c);
  EXPECT_EQ(sa_.peek_row(x1), maj);
  EXPECT_EQ(sa_.peek_row(x2), maj);
  EXPECT_EQ(sa_.peek_row(x3), maj);
  EXPECT_EQ(sa_.peek_latch(), maj);
}

TEST_F(SubarrayTest, SumCycleCombinesLatch) {
  Rng rng(6);
  const auto a = random_row(rng, 64);
  const auto b = random_row(rng, 64);
  const auto carry = random_row(rng, 64);
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1),
             x3 = sa_.compute_row(2);
  // Load the latch with `carry` via TRA(x,x,x)... use three copies.
  sa_.write_row(x1, carry);
  sa_.write_row(x2, carry);
  sa_.write_row(x3, carry);
  sa_.aap_tra_carry(x1, x2, x3, 13);
  ASSERT_EQ(sa_.peek_latch(), carry);
  sa_.write_row(x1, a);
  sa_.write_row(x2, b);
  sa_.sum_cycle(x1, x2, 14);
  const auto expect =
      BitVector::bit_xor(BitVector::bit_xor(a, b), carry);
  EXPECT_EQ(sa_.peek_row(14), expect);
}

TEST_F(SubarrayTest, ResetLatchClears) {
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1),
             x3 = sa_.compute_row(2);
  BitVector ones(64);
  ones.fill(true);
  sa_.write_row(x1, ones);
  sa_.write_row(x2, ones);
  sa_.write_row(x3, ones);
  sa_.aap_tra_carry(x1, x2, x3, 12);
  EXPECT_TRUE(sa_.peek_latch().all());
  sa_.reset_latch();
  EXPECT_TRUE(sa_.peek_latch().none());
}

TEST_F(SubarrayTest, CompareRowsLeavesMatchBits) {
  Rng rng(7);
  const auto a = random_row(rng, 64);
  auto b = a;
  b.set(17, !b.get(17));
  sa_.write_row(1, a);
  sa_.write_row(2, b);
  sa_.compare_rows(1, 2, 20);
  const auto& result = sa_.peek_row(20);
  EXPECT_FALSE(result.get(17));
  EXPECT_EQ(result.popcount(), 63u);
  // Data rows a, b must be intact (compare staged copies, not originals).
  EXPECT_EQ(sa_.peek_row(1), a);
  EXPECT_EQ(sa_.peek_row(2), b);
}

TEST_F(SubarrayTest, StatsAccumulateAndClear) {
  sa_.write_row(1, BitVector(64));
  sa_.aap_copy(1, 2);
  sa_.compare_rows(1, 2, 20);
  const auto& st = sa_.stats();
  EXPECT_EQ(st.counts[static_cast<std::size_t>(CommandKind::kRowWrite)], 1u);
  EXPECT_EQ(st.counts[static_cast<std::size_t>(CommandKind::kAapCopy)], 3u);
  EXPECT_EQ(st.counts[static_cast<std::size_t>(CommandKind::kAapTwoRow)], 1u);
  EXPECT_GT(sa_.cost().busy_ns, 0.0);
  EXPECT_GT(sa_.cost().energy_pj, 0.0);
  sa_.clear_stats();
  EXPECT_EQ(sa_.stats().total_commands(), 0u);
}

TEST_F(SubarrayTest, CommandCostsMatchTimingModel) {
  const auto& t = circuit::default_technology().timing;
  sa_.aap_copy(1, 2);
  EXPECT_DOUBLE_EQ(sa_.cost().busy_ns, t.aap_ns());
  sa_.clear_stats();
  sa_.write_row(sa_.compute_row(0), BitVector(64));
  sa_.write_row(sa_.compute_row(1), BitVector(64));
  sa_.clear_stats();
  sa_.aap_xnor(sa_.compute_row(0), sa_.compute_row(1), 3);
  EXPECT_DOUBLE_EQ(sa_.cost().busy_ns, t.aap_ns());
}

// Vertical multi-bit addition: property test against software addition on
// random operands, sweeping operand widths.
class AddVertical : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AddVertical, MatchesSoftwareAddition) {
  const std::size_t m = GetParam();
  Subarray sa(small_geometry(), circuit::default_technology());
  const std::size_t cols = sa.geometry().columns;
  Rng rng(100 + m);

  // Build two m-bit vertical operands: element j lives in column j.
  std::vector<std::uint64_t> a_vals(cols), b_vals(cols);
  const std::uint64_t mask = (std::uint64_t{1} << m) - 1;
  for (std::size_t j = 0; j < cols; ++j) {
    a_vals[j] = rng() & mask;
    b_vals[j] = rng() & mask;
  }
  std::vector<RowAddr> a_rows, b_rows, s_rows;
  for (std::size_t bit = 0; bit < m; ++bit) {
    BitVector ar(cols), br(cols);
    for (std::size_t j = 0; j < cols; ++j) {
      ar.set(j, (a_vals[j] >> bit) & 1u);
      br.set(j, (b_vals[j] >> bit) & 1u);
    }
    sa.write_row(bit, ar);
    sa.write_row(16 + bit, br);
    a_rows.push_back(bit);
    b_rows.push_back(16 + bit);
    s_rows.push_back(32 + bit);
  }
  const RowAddr carry_row = 50;
  sa.add_vertical(a_rows, b_rows, s_rows, carry_row);

  for (std::size_t j = 0; j < cols; ++j) {
    std::uint64_t got = 0;
    for (std::size_t bit = 0; bit < m; ++bit)
      if (sa.peek_row(s_rows[bit]).get(j)) got |= std::uint64_t{1} << bit;
    if (sa.peek_row(carry_row).get(j)) got |= std::uint64_t{1} << m;
    EXPECT_EQ(got, a_vals[j] + b_vals[j]) << "column " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AddVertical,
                         ::testing::Values(1, 2, 3, 4, 8, 12));

TEST_F(SubarrayTest, AapCopyRejectsAliasedRows) {
  // src == des would activate the same row twice — electrically a refresh,
  // not a RowClone — so the model rejects it instead of silently absorbing
  // a controller bug.
  EXPECT_THROW(sa_.aap_copy(3, 3), pima::PreconditionError);
  const auto x1 = sa_.compute_row(0);
  EXPECT_THROW(sa_.aap_copy(x1, x1), pima::PreconditionError);
  EXPECT_NO_THROW(sa_.aap_copy(3, 4));
}

TEST_F(SubarrayTest, SumCycleAllOnesOperandsWithCarry) {
  // Edge of the carry chain: 1 ⊕ 1 ⊕ 1 = 1 in every column.
  const auto x1 = sa_.compute_row(0), x2 = sa_.compute_row(1),
             x3 = sa_.compute_row(2);
  BitVector ones(64);
  ones.fill(true);
  sa_.write_row(x1, ones);
  sa_.write_row(x2, ones);
  sa_.write_row(x3, ones);
  sa_.aap_tra_carry(x1, x2, x3, 12);  // latch ← all ones
  sa_.write_row(x1, ones);
  sa_.write_row(x2, ones);
  sa_.sum_cycle(x1, x2, 14);
  EXPECT_TRUE(sa_.peek_row(14).all());
  // The latch is consumed, not cleared: a second sum sees it again.
  EXPECT_TRUE(sa_.peek_latch().all());
  BitVector zeros(64);
  sa_.write_row(x1, zeros);
  sa_.write_row(x2, zeros);
  sa_.sum_cycle(x1, x2, 15);
  EXPECT_TRUE(sa_.peek_row(15).all());  // 0 ⊕ 0 ⊕ 1 = 1
}

// Full carry ripple: all-ones + 1 = 0 with carry-out in every column — the
// longest possible carry chain through the vertical adder.
TEST(AddVerticalEdges, AllOnesPlusOneRipplesThroughEveryBit) {
  Subarray sa(small_geometry(), circuit::default_technology());
  const std::size_t cols = sa.geometry().columns;
  const std::size_t m = 12;
  std::vector<RowAddr> a_rows, b_rows, s_rows;
  BitVector ones(cols), zeros(cols);
  ones.fill(true);
  for (std::size_t bit = 0; bit < m; ++bit) {
    sa.write_row(bit, ones);                      // a = 2^m - 1
    sa.write_row(16 + bit, bit == 0 ? ones : zeros);  // b = 1
    a_rows.push_back(bit);
    b_rows.push_back(16 + bit);
    s_rows.push_back(32 + bit);
  }
  sa.add_vertical(a_rows, b_rows, s_rows, 50);
  for (std::size_t bit = 0; bit < m; ++bit)
    EXPECT_TRUE(sa.peek_row(s_rows[bit]).none()) << "sum bit " << bit;
  EXPECT_TRUE(sa.peek_row(50).all());  // carry-out in every column
}

// All-ones + all-ones: sum = 2^m+1 - 2, i.e. bit 0 clear, bits 1..m-1 set,
// carry-out set — exercises simultaneous generate+propagate in every stage.
TEST(AddVerticalEdges, AllOnesPlusAllOnes) {
  Subarray sa(small_geometry(), circuit::default_technology());
  const std::size_t cols = sa.geometry().columns;
  const std::size_t m = 12;
  std::vector<RowAddr> a_rows, b_rows, s_rows;
  BitVector ones(cols);
  ones.fill(true);
  for (std::size_t bit = 0; bit < m; ++bit) {
    sa.write_row(bit, ones);
    sa.write_row(16 + bit, ones);
    a_rows.push_back(bit);
    b_rows.push_back(16 + bit);
    s_rows.push_back(32 + bit);
  }
  sa.add_vertical(a_rows, b_rows, s_rows, 50);
  EXPECT_TRUE(sa.peek_row(s_rows[0]).none());
  for (std::size_t bit = 1; bit < m; ++bit)
    EXPECT_TRUE(sa.peek_row(s_rows[bit]).all()) << "sum bit " << bit;
  EXPECT_TRUE(sa.peek_row(50).all());
}

TEST(AddVerticalErrors, MismatchedSpansThrow) {
  Subarray sa(small_geometry(), circuit::default_technology());
  EXPECT_THROW(sa.add_vertical({1, 2}, {3}, {4, 5}, 6),
               pima::PreconditionError);
  EXPECT_THROW(sa.add_vertical({}, {}, {}, 6), pima::PreconditionError);
}

// Cross-validation: the word-parallel functional kernels must agree with
// the analog SenseAmp model bit-for-bit on random rows.
TEST(SubarrayCrossValidation, FunctionalMatchesAnalogModel) {
  Subarray sa(small_geometry(), circuit::default_technology());
  circuit::SenseAmp analog(circuit::default_technology().tech);
  Rng rng(2024);
  const std::size_t cols = sa.geometry().columns;
  const auto a = random_row(rng, cols);
  const auto b = random_row(rng, cols);
  const auto c = random_row(rng, cols);

  const auto x1 = sa.compute_row(0), x2 = sa.compute_row(1),
             x3 = sa.compute_row(2);
  sa.write_row(x1, a);
  sa.write_row(x2, b);
  sa.aap_xnor(x1, x2, 10);
  for (std::size_t i = 0; i < cols; ++i)
    EXPECT_EQ(sa.peek_row(10).get(i), analog.xnor2(a.get(i), b.get(i)));

  sa.write_row(x1, a);
  sa.write_row(x2, b);
  sa.write_row(x3, c);
  sa.aap_tra_carry(x1, x2, x3, 11);
  for (std::size_t i = 0; i < cols; ++i)
    EXPECT_EQ(sa.peek_row(11).get(i),
              analog.carry(a.get(i), b.get(i), c.get(i)));
}

// ---- The μops against the primitives they stand for ----

// Columns that are not a multiple of 64 also check the tail invariant.
Geometry fused_geometry() {
  Geometry g = small_geometry();
  g.columns = 200;
  return g;
}

void compress_primitives(Subarray& sa, RowAddr a, RowAddr b, RowAddr c,
                         RowAddr sum, RowAddr carry) {
  const RowAddr x1 = sa.compute_row(0), x2 = sa.compute_row(1),
                x3 = sa.compute_row(2);
  sa.aap_copy(a, x1);
  sa.aap_copy(b, x2);
  sa.aap_xor(x1, x2, x1);
  sa.aap_copy(c, x2);
  sa.aap_xor(x1, x2, sum);
  sa.aap_copy(a, x1);
  sa.aap_copy(b, x2);
  sa.aap_copy(c, x3);
  sa.aap_tra_carry(x1, x2, x3, carry);
}

// Two sub-arrays with the same random rows (compute rows and latch too):
// one runs the μop, the other the primitive sequence.
struct FusedPair {
  explicit FusedPair(std::uint64_t seed)
      : fused(fused_geometry(), circuit::default_technology()),
        primitive(fused_geometry(), circuit::default_technology()) {
    Rng rng(seed);
    const std::size_t cols = fused.geometry().columns;
    for (RowAddr r = 0; r < fused.geometry().rows; ++r) {
      const auto row = random_row(rng, cols);
      fused.write_row(r, row);
      primitive.write_row(r, row);
    }
    for (std::size_t col = 0; col < cols; ++col) {
      if (!rng.bernoulli(0.5)) continue;
      fused.inject_latch_flip(col);
      primitive.inject_latch_flip(col);
    }
  }

  void run(RowAddr a, RowAddr b, RowAddr c, RowAddr sum, RowAddr carry) {
    fused.compress_bit(a, b, c, sum, carry);
    compress_primitives(primitive, a, b, c, sum, carry);
  }

  // match_rows on one side, compare_rows + Dpu::and_reduce on the other;
  // both must give the same answer.
  bool match(RowAddr a, RowAddr b, RowAddr result, std::size_t width) {
    const bool got = fused.match_rows(a, b, result, width);
    primitive.compare_rows(a, b, result);
    const bool want = Dpu::and_reduce(primitive, result, width);
    EXPECT_EQ(got, want) << "a=" << a << " b=" << b << " width=" << width;
    return got;
  }

  // Gives row b the image of row a on both sides, with column `flip`
  // inverted when it is a column.
  void make_near_copy(RowAddr a, RowAddr b, std::size_t flip) {
    for (Subarray* sa : {&fused, &primitive}) {
      sa->write_row(b, sa->peek_row(a));
      if (flip < sa->geometry().columns) sa->inject_bit_flip(b, flip);
    }
  }

  void expect_same_state() const {
    for (RowAddr r = 0; r < fused.geometry().rows; ++r)
      EXPECT_EQ(fused.peek_row(r), primitive.peek_row(r)) << "row " << r;
    EXPECT_EQ(fused.peek_latch(), primitive.peek_latch());
    for (std::size_t k = 0; k < kCommandKindCount; ++k)
      EXPECT_EQ(fused.stats().counts[k], primitive.stats().counts[k])
          << "kind " << k;
  }

  Subarray fused, primitive;
};

void expect_same_trace(const TraceSink& got, const TraceSink& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got.program()[i], want.program()[i]) << i;
}

TEST(CompressBit, MatchesPrimitiveSequenceOnRandomRows) {
  const RowAddr data = fused_geometry().data_rows();
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    FusedPair p(seed);
    Rng pick(seed + 7);
    for (int step = 0; step < 8; ++step) {
      const RowAddr a = pick.uniform(data), b = pick.uniform(data),
                    c = pick.uniform(data);
      RowAddr sum = pick.uniform(data);
      while (sum == a || sum == b || sum == c) sum = pick.uniform(data);
      // About half the steps alias carry with sum or with operand a.
      const RowAddr carry = pick.bernoulli(0.5) ? pick.uniform(data)
                                                : (step % 2 ? sum : a);
      p.run(a, b, c, sum, carry);
    }
    p.expect_same_state();
    if (::testing::Test::HasFailure()) FAIL() << "seed " << seed;
  }
}

TEST(CompressBit, RepeatedOperandsAndAliasedDestinations) {
  // {a, b, c, sum, carry}: the repeated zero-row padding compress passes,
  // a == b, carry == sum, carry == an operand, and sum aliasing an operand
  // or a compute-row operand (both take the primitive fallback).
  const RowAddr x4 = fused_geometry().data_rows() + 3;
  const RowAddr cases[][5] = {
      {0, 0, 0, 1, 2},  {3, 3, 4, 5, 6}, {3, 4, 3, 5, 6},
      {7, 8, 9, 10, 10}, {7, 8, 9, 10, 8}, {7, 8, 9, 7, 11},
      {7, 8, 9, 9, 11},  {x4, 8, 9, 10, 11}, {7, 8, 9, 10, x4},
  };
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    for (const auto& k : cases) {
      FusedPair p(seed);
      p.run(k[0], k[1], k[2], k[3], k[4]);
      p.expect_same_state();
      if (::testing::Test::HasFailure())
        FAIL() << "seed " << seed << " a=" << k[0] << " sum=" << k[3];
    }
  }
}

TEST(CompressBit, TracedRunRecordsThePrimitiveSequence) {
  FusedPair p(3);
  TraceSink fused_trace, primitive_trace;
  p.fused.attach_trace(&fused_trace);
  p.primitive.attach_trace(&primitive_trace);
  p.run(0, 0, 0, 1, 2);
  p.run(3, 4, 5, 6, 6);
  p.expect_same_state();
  EXPECT_EQ(fused_trace.size(), 18u);
  expect_same_trace(fused_trace, primitive_trace);
}

TEST(CompressBit, OutOfRangeRowThrowsWhereThePrimitivesDo) {
  FusedPair p(5);
  const RowAddr past = fused_geometry().rows;
  EXPECT_THROW(p.fused.compress_bit(0, 1, 2, past, 4), PreconditionError);
  EXPECT_THROW(compress_primitives(p.primitive, 0, 1, 2, past, 4),
               PreconditionError);
  p.expect_same_state();
}

TEST(MatchRows, MatchesPrimitiveSequenceOnRandomRows) {
  const RowAddr data = fused_geometry().data_rows();
  const std::size_t cols = fused_geometry().columns;
  const RowAddr x1 = data, x2 = data + 1, x4 = data + 3;
  const std::size_t widths[] = {0, 1, 63, 64, 65, cols};
  std::size_t matches = 0, probes = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    FusedPair p(seed);
    Rng pick(seed + 11);
    for (int step = 0; step < 12; ++step) {
      const RowAddr a = pick.uniform(data);
      RowAddr b = pick.uniform(data);
      // A third of the probes compare a key that equals a, or differs from
      // it in one column, so both answers occur at every width.
      if (step % 3 == 0 && b != a)
        p.make_near_copy(a, b,
                         pick.bernoulli(0.3) ? cols : pick.uniform(cols));
      if (step == 5) b = a;
      const RowAddr results[] = {x4, x1, x2, pick.uniform(data)};
      const RowAddr result = results[pick.uniform(4)];
      const std::size_t width = pick.bernoulli(0.5)
                                    ? widths[pick.uniform(6)]
                                    : pick.uniform(cols + 1);
      if (p.match(a, b, result, width)) ++matches;
      ++probes;
    }
    p.expect_same_state();
    if (::testing::Test::HasFailure()) FAIL() << "seed " << seed;
  }
  // Both outcomes were exercised.
  EXPECT_GT(matches, probes / 10);
  EXPECT_LT(matches, probes - probes / 10);
}

TEST(MatchRows, WidthMasksExactlyTheFirstColumns) {
  // b differs from a in one column d: the probe matches iff d >= width.
  const std::size_t cols = fused_geometry().columns;
  const RowAddr x4 = fused_geometry().data_rows() + 3;
  for (const std::size_t width : {std::size_t{0}, std::size_t{1},
                                  std::size_t{63}, std::size_t{64},
                                  std::size_t{65}, cols}) {
    for (const std::size_t d : {std::size_t{0}, width - 1, width, width + 1,
                                std::size_t{63}, std::size_t{64},
                                cols - 1}) {
      if (d >= cols) continue;
      FusedPair p(width * 1000 + d);
      p.make_near_copy(3, 4, d);
      EXPECT_EQ(p.match(3, 4, x4, width), d >= width)
          << "width " << width << " differing column " << d;
      // Equal rows match at every width.
      EXPECT_TRUE(p.match(3, 3, x4, width)) << "width " << width;
      p.expect_same_state();
    }
  }
}

TEST(MatchRows, TracedRunRecordsThePrimitiveSequence) {
  FusedPair p(4);
  TraceSink fused_trace, primitive_trace;
  p.fused.attach_trace(&fused_trace);
  p.primitive.attach_trace(&primitive_trace);
  const RowAddr x1 = fused_geometry().data_rows();
  p.make_near_copy(1, 2, 70);
  p.match(1, 2, x1 + 3, 64);
  p.match(1, 2, x1 + 3, 71);
  p.match(5, 5, x1, 200);
  p.match(6, 7, 8, 33);
  p.expect_same_state();
  EXPECT_EQ(fused_trace.size(), 1u + 4u * 4);  // one row write, 4 probes
  expect_same_trace(fused_trace, primitive_trace);
}

TEST(MatchRows, FaultInjectedRunMakesTheSameDraws) {
  FaultConfig cfg;
  cfg.variation = 0.30;
  cfg.rate_multiplier = 50.0;
  cfg.retention_flip_per_op = 0.2;
  cfg.calibration_trials = 300;
  const auto model = std::make_shared<const FaultModel>(
      circuit::default_technology().tech, cfg);
  FusedPair p(6);
  const auto fi = std::make_shared<FaultInjector>(model, 3, fused_geometry());
  const auto pi = std::make_shared<FaultInjector>(model, 3, fused_geometry());
  p.fused.attach_fault_injector(fi);
  p.primitive.attach_fault_injector(pi);
  Rng pick(8);
  const RowAddr data = fused_geometry().data_rows();
  const std::size_t cols = fused_geometry().columns;
  for (int step = 0; step < 200; ++step) {
    const RowAddr a = pick.uniform(data), b = pick.uniform(data);
    if (step % 2 == 0 && a != b) p.make_near_copy(a, b, cols);
    p.match(a, b, data + 3, pick.uniform(cols + 1));
  }
  p.expect_same_state();
  EXPECT_GT(fi->counters().compute_flips, 0u);
  EXPECT_GT(fi->counters().retention_flips, 0u);
  EXPECT_EQ(fi->counters().compute_flips, pi->counters().compute_flips);
  EXPECT_EQ(fi->counters().retention_flips, pi->counters().retention_flips);
  EXPECT_EQ(fi->counters().faulty_ops, pi->counters().faulty_ops);
}

TEST(MatchRows, OutOfRangeRowsAndWidthsThrowWhereThePrimitivesDo) {
  const Geometry g = fused_geometry();
  const RowAddr x1 = g.data_rows(), x2 = x1 + 1, x4 = x1 + 3;
  // {a, b, result, width}: a row past the array in each position, operands
  // staged from compute rows (x1 onto itself, x2 onto itself), and a width
  // past the row.
  const std::size_t cases[][4] = {
      {g.rows, 1, x4, 8},  {1, g.rows, x4, 8},  {1, 2, g.rows, 8},
      {x1, 2, x4, 8},      {1, x2, x4, 8},      {1, 2, x4, g.columns + 1},
      {1, 2, 3, g.columns + 64},
  };
  for (const auto& c : cases) {
    FusedPair p(c[0] + c[1] + c[2] + c[3]);
    EXPECT_THROW(p.fused.match_rows(c[0], c[1], c[2], c[3]),
                 PreconditionError);
    EXPECT_THROW(
        {
          p.primitive.compare_rows(c[0], c[1], c[2]);
          Dpu::and_reduce(p.primitive, c[2], c[3]);
        },
        PreconditionError);
    p.expect_same_state();
    if (::testing::Test::HasFailure())
      FAIL() << "a=" << c[0] << " b=" << c[1] << " result=" << c[2]
             << " width=" << c[3];
  }
  // A compute-row operand that the copy accepts takes the primitive path.
  FusedPair p(9);
  p.match(x4, 1, 2, 64);
  p.expect_same_state();
}

TEST(UpdateRow, OneCostedWriteWithTheEditedImageAsPayload) {
  Subarray plain(small_geometry(), circuit::default_technology());
  Subarray traced(small_geometry(), circuit::default_technology());
  TraceSink trace;
  traced.attach_trace(&trace);
  Rng rng(9);
  const auto row = random_row(rng, 64);
  const auto edit = [](BitVector& r) { r.set(5, !r.get(5)); };
  for (Subarray* sa : {&plain, &traced}) {
    sa->write_row(3, row);
    sa->update_row(3, edit);
  }
  BitVector want = row;
  edit(want);
  EXPECT_EQ(plain.peek_row(3), want);
  EXPECT_EQ(traced.peek_row(3), want);
  const auto writes = static_cast<std::size_t>(CommandKind::kRowWrite);
  EXPECT_EQ(plain.stats().counts[writes], 2u);
  EXPECT_EQ(traced.stats().counts[writes], 2u);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.program()[1].op, Opcode::kRowWrite);
  EXPECT_EQ(trace.program()[1].payload, want);
}

}  // namespace
}  // namespace pima::dram
