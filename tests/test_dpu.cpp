#include "dram/dpu.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dram/subarray.hpp"

namespace pima::dram {
namespace {

Geometry tiny() {
  Geometry g;
  g.rows = 32;
  g.compute_rows = 8;
  g.columns = 64;
  return g;
}

class DpuTest : public ::testing::Test {
 protected:
  DpuTest() : sa_(tiny(), circuit::default_technology()) {}
  Subarray sa_;
};

TEST_F(DpuTest, AndReduceFullRow) {
  BitVector ones(64);
  ones.fill(true);
  sa_.write_row(0, ones);
  EXPECT_TRUE(Dpu::and_reduce(sa_, 0, 64));
  ones.set(63, false);
  sa_.write_row(0, ones);
  EXPECT_FALSE(Dpu::and_reduce(sa_, 0, 64));
}

TEST_F(DpuTest, AndReducePrefixIgnoresTail) {
  // The paper's k-mer compare only reduces the first 2k bits; a mismatch
  // in padding must not matter.
  BitVector v(64);
  for (std::size_t i = 0; i < 32; ++i) v.set(i, true);
  sa_.write_row(0, v);
  EXPECT_TRUE(Dpu::and_reduce(sa_, 0, 32));
  EXPECT_FALSE(Dpu::and_reduce(sa_, 0, 33));
}

TEST_F(DpuTest, OrReduce) {
  BitVector v(64);
  sa_.write_row(0, v);
  EXPECT_FALSE(Dpu::or_reduce(sa_, 0, 64));
  v.set(40, true);
  sa_.write_row(0, v);
  EXPECT_TRUE(Dpu::or_reduce(sa_, 0, 64));
  EXPECT_FALSE(Dpu::or_reduce(sa_, 0, 40));  // prefix excludes bit 40
}

TEST_F(DpuTest, Popcount) {
  BitVector v(64);
  v.set(0, true);
  v.set(10, true);
  v.set(63, true);
  sa_.write_row(0, v);
  EXPECT_EQ(Dpu::popcount(sa_, 0, 64), 3u);
  EXPECT_EQ(Dpu::popcount(sa_, 0, 11), 2u);
}

TEST_F(DpuTest, WidthValidated) {
  EXPECT_THROW(Dpu::and_reduce(sa_, 0, 65), pima::PreconditionError);
}

TEST_F(DpuTest, EmptyWidthReductions) {
  // Width 0: AND over nothing is vacuously true, OR is false, count is 0 —
  // the identities of the respective reductions.
  BitVector v(64);
  v.fill(true);
  sa_.write_row(0, v);
  EXPECT_TRUE(Dpu::and_reduce(sa_, 0, 0));
  EXPECT_FALSE(Dpu::or_reduce(sa_, 0, 0));
  EXPECT_EQ(Dpu::popcount(sa_, 0, 0), 0u);
}

TEST_F(DpuTest, SingleColumnReductions) {
  BitVector v(64);
  v.set(0, true);
  sa_.write_row(0, v);
  EXPECT_TRUE(Dpu::and_reduce(sa_, 0, 1));
  EXPECT_TRUE(Dpu::or_reduce(sa_, 0, 1));
  EXPECT_EQ(Dpu::popcount(sa_, 0, 1), 1u);
  v.set(0, false);
  sa_.write_row(0, v);
  EXPECT_FALSE(Dpu::and_reduce(sa_, 0, 1));
  EXPECT_FALSE(Dpu::or_reduce(sa_, 0, 1));
  EXPECT_EQ(Dpu::popcount(sa_, 0, 1), 0u);
}

TEST_F(DpuTest, ReduceIsCosted) {
  sa_.write_row(0, BitVector(64));
  sa_.clear_stats();
  Dpu::and_reduce(sa_, 0, 64);
  EXPECT_EQ(
      sa_.stats().counts[static_cast<std::size_t>(CommandKind::kDpuReduce)],
      1u);
  EXPECT_GT(sa_.cost().energy_pj, 0.0);
}

// Word-wise reductions against a per-bit reference: 256 columns (four full
// words) and 100 columns (a ragged 36-bit tail word), every width from each
// start, so ranges start mid-word, cross one or more word boundaries and
// end at the tail.
TEST_F(DpuTest, ReductionsCrossWordBoundaries) {
  for (const std::size_t cols : {std::size_t{256}, std::size_t{100}}) {
    Geometry g = tiny();
    g.columns = cols;
    Subarray sa(g, circuit::default_technology());
    Rng rng(cols);
    // Random, mostly-ones, all-ones and all-zeros rows.
    for (const double p : {0.5, 0.97, 1.0, 0.0}) {
      BitVector bits(cols);
      for (std::size_t c = 0; c < cols; ++c) bits.set(c, rng.bernoulli(p));
      sa.write_row(0, bits);
      auto count = [&](std::size_t lo, std::size_t width) {
        std::size_t n = 0;
        for (std::size_t c = lo; c < lo + width; ++c) n += bits.get(c);
        return n;
      };
      for (std::size_t width = 0; width <= cols; ++width) {
        SCOPED_TRACE(::testing::Message()
                     << "cols " << cols << " p " << p << " width " << width);
        const std::size_t ref = count(0, width);
        EXPECT_EQ(Dpu::and_reduce(sa, 0, width), ref == width);
        EXPECT_EQ(Dpu::or_reduce(sa, 0, width), ref > 0);
        EXPECT_EQ(Dpu::popcount(sa, 0, width), ref);
      }
      for (const std::size_t lo : {0u, 1u, 63u, 64u, 65u, 127u}) {
        if (lo > cols) continue;
        for (std::size_t width = 0; lo + width <= cols; ++width) {
          SCOPED_TRACE(::testing::Message() << "cols " << cols << " p " << p
                                            << " lo " << lo << " width "
                                            << width);
          EXPECT_EQ(Dpu::popcount_range(sa, 0, lo, width), count(lo, width));
        }
      }
    }
    EXPECT_THROW(Dpu::popcount(sa, 0, cols + 1), pima::PreconditionError);
    EXPECT_THROW(Dpu::popcount_range(sa, 0, 65, cols - 64),
                 pima::PreconditionError);
  }
}

}  // namespace
}  // namespace pima::dram
