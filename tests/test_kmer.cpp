#include "assembly/kmer.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dna/genome.hpp"

namespace pima::assembly {
namespace {

TEST(Kmer, FromSequenceAndBack) {
  const auto seq = dna::Sequence::from_string("CGTGC");
  const auto km = Kmer::from_sequence(seq, 0, 5);
  EXPECT_EQ(km.k(), 5u);
  EXPECT_EQ(km.to_string(), "CGTGC");
  EXPECT_EQ(km.base(0), dna::Base::C);
  EXPECT_EQ(km.base(4), dna::Base::C);
}

TEST(Kmer, WindowOffsets) {
  const auto seq = dna::Sequence::from_string("CGTGCGTGCTT");
  EXPECT_EQ(Kmer::from_sequence(seq, 1, 5).to_string(), "GTGCG");
  EXPECT_EQ(Kmer::from_sequence(seq, 6, 5).to_string(), "TGCTT");
  EXPECT_THROW(Kmer::from_sequence(seq, 7, 5), pima::PreconditionError);
}

TEST(Kmer, PackedEncodingMatchesPaper) {
  // "TG" → T=00 in bits [0,2), G=01 in bits [2,4) → packed 0b0100.
  const auto seq = dna::Sequence::from_string("TG");
  EXPECT_EQ(Kmer::from_sequence(seq, 0, 2).packed(), 0b0100u);
}

TEST(Kmer, ConstructorValidation) {
  EXPECT_THROW(Kmer(0, 0), pima::PreconditionError);
  EXPECT_THROW(Kmer(0, 33), pima::PreconditionError);
  EXPECT_THROW(Kmer(0b10000, 2), pima::PreconditionError);  // stray bits
  EXPECT_NO_THROW(Kmer(~std::uint64_t{0}, 32));
}

TEST(Kmer, RollingMatchesFresh) {
  const auto seq = dna::Sequence::from_string("CGTGCGTGCTTACGGA");
  const std::size_t k = 5;
  Kmer window = Kmer::from_sequence(seq, 0, k);
  for (std::size_t i = 1; i + k <= seq.size(); ++i) {
    window = window.rolled(seq.at(i + k - 1));
    EXPECT_EQ(window, Kmer::from_sequence(seq, i, k)) << "pos " << i;
  }
}

TEST(Kmer, RollingAtMaxK) {
  dna::GenomeParams gp;
  gp.length = 100;
  gp.repeat_count = 0;
  const auto seq = dna::generate_genome(gp);
  Kmer window = Kmer::from_sequence(seq, 0, 32);
  for (std::size_t i = 1; i + 32 <= seq.size(); ++i) {
    window = window.rolled(seq.at(i + 31));
    ASSERT_EQ(window, Kmer::from_sequence(seq, i, 32)) << i;
  }
}

TEST(Kmer, PrefixSuffix) {
  const auto seq = dna::Sequence::from_string("CGTG");
  const auto km = Kmer::from_sequence(seq, 0, 4);
  EXPECT_EQ(km.prefix().to_string(), "CGT");
  EXPECT_EQ(km.suffix().to_string(), "GTG");
  EXPECT_EQ(km.prefix().k(), 3u);
}

TEST(Kmer, ReverseComplement) {
  const auto seq = dna::Sequence::from_string("AACGT");
  const auto km = Kmer::from_sequence(seq, 0, 5);
  EXPECT_EQ(km.reverse_complement().to_string(), "ACGTT");
  EXPECT_EQ(km.reverse_complement().reverse_complement(), km);
}

TEST(Kmer, CanonicalIsStrandInvariant) {
  const auto seq = dna::Sequence::from_string("AACGT");
  const auto km = Kmer::from_sequence(seq, 0, 5);
  EXPECT_EQ(km.canonical(), km.reverse_complement().canonical());
}

TEST(Kmer, EqualityIncludesK) {
  EXPECT_NE(Kmer(0, 3), Kmer(0, 4));
  EXPECT_EQ(Kmer(5, 3), Kmer(5, 3));
}

TEST(Kmer, HashSpreads) {
  // Consecutive k-mers must land in different buckets almost always.
  pima::Rng rng(1);
  dna::GenomeParams gp;
  gp.length = 2000;
  gp.repeat_count = 0;
  const auto seq = dna::generate_genome(gp);
  std::size_t collisions = 0;
  constexpr std::size_t kBuckets = 64;
  for (std::size_t i = 0; i + 17 <= seq.size(); ++i) {
    const auto a = Kmer::from_sequence(seq, i, 16);
    const auto b = Kmer::from_sequence(seq, i + 1, 16);
    if (a.hash() % kBuckets == b.hash() % kBuckets) ++collisions;
  }
  // Expected collision rate 1/64 ≈ 1.6%; allow up to 4%.
  EXPECT_LT(collisions, (seq.size() * 4) / 100);
}

// Round-trip property across all evaluated k values (paper: 16/22/26/32).
class KmerRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KmerRoundTrip, SequenceRoundTripAndDbInvariants) {
  const std::size_t k = GetParam();
  dna::GenomeParams gp;
  gp.length = 500;
  gp.repeat_count = 0;
  gp.seed = 77 + k;
  const auto seq = dna::generate_genome(gp);
  for (std::size_t i = 0; i + k <= seq.size(); i += 13) {
    const auto km = Kmer::from_sequence(seq, i, k);
    EXPECT_EQ(km.to_string(), seq.subseq(i, k).to_string());
    // de Bruijn identity: suffix of prefix == prefix of suffix.
    if (k >= 3) {
      EXPECT_EQ(km.prefix().suffix(), km.suffix().prefix());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperKValues, KmerRoundTrip,
                         ::testing::Values(2, 5, 16, 22, 26, 31, 32));

}  // namespace
}  // namespace pima::assembly
