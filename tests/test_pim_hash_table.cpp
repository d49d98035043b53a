#include "core/pim_hash_table.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_map>

#include "dna/genome.hpp"
#include "dram/command.hpp"
#include "runtime/shard.hpp"

namespace pima::core {
namespace {

using assembly::Kmer;

dram::Geometry test_geometry() {
  dram::Geometry g;
  g.rows = 256;  // 248 data rows → ~200-key shards, fast tests
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 8;
  g.mats_per_bank = 1;
  g.banks = 1;
  return g;
}

Kmer kmer_of(const std::string& s) {
  const auto seq = dna::Sequence::from_string(s);
  return Kmer::from_sequence(seq, 0, seq.size());
}

TEST(PimHashTable, InsertAndIncrement) {
  dram::Device dev(test_geometry());
  runtime::DevicePool pool(dev, 1);
  PimHashTable table(pool, 2);
  EXPECT_EQ(table.insert_or_increment(kmer_of("CGTGC")), 1u);
  EXPECT_EQ(table.insert_or_increment(kmer_of("CGTGC")), 2u);
  EXPECT_EQ(table.insert_or_increment(kmer_of("GTGCG")), 1u);
  EXPECT_EQ(table.distinct_kmers(), 2u);
  EXPECT_EQ(table.lookup(kmer_of("CGTGC")).value(), 2u);
  EXPECT_EQ(table.lookup(kmer_of("GTGCG")).value(), 1u);
  EXPECT_FALSE(table.lookup(kmer_of("AAAAA")).has_value());
}

TEST(PimHashTable, PaperFig5bExampleInDram) {
  dram::Device dev(test_geometry());
  runtime::DevicePool pool(dev, 1);
  PimHashTable table(pool, 2);
  const auto s = dna::Sequence::from_string("CGTGCGTGCTT");
  for (std::size_t i = 0; i + 5 <= s.size(); ++i)
    table.insert_or_increment(Kmer::from_sequence(s, i, 5));
  EXPECT_EQ(table.distinct_kmers(), 6u);
  EXPECT_EQ(table.lookup(kmer_of("CGTGC")).value(), 2u);
  EXPECT_EQ(table.lookup(kmer_of("TGCTT")).value(), 1u);
}

TEST(PimHashTable, KeysLiveInDramRows) {
  dram::Device dev(test_geometry());
  runtime::DevicePool pool(dev, 1);
  PimHashTable table(pool, 1);
  table.insert_or_increment(kmer_of("CGTGCGTGCTTACGG"));
  // Find the occupied slot and decode the row image.
  bool found = false;
  for (std::size_t slot = 0; slot < table.layout().kmer_rows; ++slot) {
    const auto entry = table.peek_slot(0, slot);
    if (!entry) continue;
    EXPECT_EQ(entry->first.to_string(), "CGTGCGTGCTTACGG");
    EXPECT_EQ(entry->second, 1u);
    found = true;
  }
  EXPECT_TRUE(found);
}

// The key row holds Sequence::to_bits(0, k) zero padded to the row width —
// checked against the row itself, not through the table's own decoder —
// and extract() returns every inserted k-mer. k = 32 fills the whole first
// word, the edge of the decoder's mask.
TEST(PimHashTable, KeyRowImageIsTwoBitSequence) {
  for (const std::size_t k : {std::size_t{15}, std::size_t{32}}) {
    SCOPED_TRACE(k);
    dram::Device dev(test_geometry());
    runtime::DevicePool pool(dev, 1);
    PimHashTable table(pool, 1);
    const std::size_t width = test_geometry().columns;
    dna::GenomeParams gp;
    gp.length = 400;
    gp.seed = 7 + k;
    const auto genome = dna::generate_genome(gp);

    std::multiset<std::string> expected_images;
    std::set<Kmer> inserted;
    for (std::size_t i = 0; i + k <= genome.size(); i += 3) {
      const Kmer km = Kmer::from_sequence(genome, i, k);
      if (!inserted.insert(km).second) continue;
      BitVector image(width);
      image.copy_range_from(genome.to_bits(i, k), 0);
      expected_images.insert(image.to_string());
      table.insert_or_increment(km);
    }
    ASSERT_GT(inserted.size(), 100u);

    const dram::Subarray& sa = pool.subarray(table.shard_subarray_flat(0));
    std::multiset<std::string> row_images;
    for (std::size_t slot = 0; slot < table.layout().kmer_rows; ++slot)
      if (table.peek_slot(0, slot))
        row_images.insert(sa.peek_row(table.layout().kmer_row(slot))
                              .to_string());
    EXPECT_EQ(row_images, expected_images);

    const auto entries = table.extract();
    EXPECT_EQ(entries.size(), inserted.size());
    std::set<Kmer> extracted;
    for (const auto& [km, freq] : entries) {
      EXPECT_EQ(freq, 1u);
      extracted.insert(km);
    }
    EXPECT_EQ(extracted, inserted);
  }
}

TEST(PimHashTable, SaturatingEightBitCounter) {
  dram::Device dev(test_geometry());
  runtime::DevicePool pool(dev, 1);
  PimHashTable table(pool, 1);
  const auto km = kmer_of("ACGTACGTACGT");
  for (int i = 0; i < 300; ++i) table.insert_or_increment(km);
  EXPECT_EQ(table.lookup(km).value(), 255u);  // saturates, never wraps
}

TEST(PimHashTable, MixedKRejected) {
  dram::Device dev(test_geometry());
  runtime::DevicePool pool(dev, 1);
  PimHashTable table(pool, 1);
  table.insert_or_increment(kmer_of("ACGTA"));
  EXPECT_THROW(table.insert_or_increment(kmer_of("ACGTAC")),
               pima::PreconditionError);
  EXPECT_FALSE(table.lookup(kmer_of("ACGTAC")).has_value());
}

TEST(PimHashTable, OverlongKmerRejected) {
  dram::Geometry g = test_geometry();
  g.columns = 32;  // 16 bp max
  dram::Device dev(g);
  runtime::DevicePool pool(dev, 1);
  PimHashTable table(pool, 1);
  EXPECT_THROW(table.insert_or_increment(kmer_of("ACGTACGTACGTACGTACGTA")),
               pima::PreconditionError);
}

TEST(PimHashTable, ShardFullThrows) {
  dram::Geometry g = test_geometry();
  g.rows = 32;  // tiny shard (≈12 keys)
  dram::Device dev(g);
  runtime::DevicePool pool(dev, 1);
  PimHashTable table(pool, 1);
  dna::GenomeParams gp;
  gp.length = 600;
  gp.repeat_count = 0;
  const auto genome = dna::generate_genome(gp);
  EXPECT_THROW(
      {
        for (std::size_t i = 0; i + 16 <= genome.size(); ++i)
          table.insert_or_increment(Kmer::from_sequence(genome, i, 16));
      },
      pima::SimulationError);
}

TEST(PimHashTable, MatchesSoftwareCounterOnRandomReads) {
  dram::Device dev(test_geometry());
  runtime::DevicePool pool(dev, 1);
  PimHashTable table(pool, 8);

  dna::GenomeParams gp;
  gp.length = 1200;
  gp.repeat_count = 2;
  gp.repeat_length = 80;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 70;
  const auto reads = dna::sample_reads(genome, rp);

  const std::size_t k = 16;
  std::unordered_map<Kmer, std::uint32_t> ref;
  for (const auto& r : reads) {
    for (std::size_t i = 0; i + k <= r.size(); ++i) {
      const auto km = Kmer::from_sequence(r, i, k);
      table.insert_or_increment(km);
      ++ref[km];
    }
  }
  EXPECT_EQ(table.distinct_kmers(), ref.size());
  for (const auto& [km, freq] : ref)
    ASSERT_EQ(table.lookup(km).value_or(0), std::min<std::uint32_t>(freq, 255))
        << km.to_string();

  // extract() returns exactly the reference multiset.
  const auto entries = table.extract();
  EXPECT_EQ(entries.size(), ref.size());
  for (const auto& [km, freq] : entries)
    EXPECT_EQ(std::min<std::uint32_t>(ref.at(km), 255), freq);
}

TEST(PimHashTable, CommandsAreCosted) {
  dram::Device dev(test_geometry());
  runtime::DevicePool pool(dev, 1);
  PimHashTable table(pool, 1);
  table.insert_or_increment(kmer_of("ACGTACGT"));
  table.insert_or_increment(kmer_of("ACGTACGT"));
  const auto stats = dev.roll_up();
  EXPECT_GT(stats.commands, 0u);
  EXPECT_GT(stats.energy_pj, 0.0);
  EXPECT_GT(stats.time_ns, 0.0);
  // The second arrival must have used the single-cycle compare + DPU path.
  const auto& sa_stats = dev.subarray(0).stats();
  EXPECT_GE(sa_stats.counts[static_cast<std::size_t>(
                dram::CommandKind::kAapTwoRow)],
            1u);
  EXPECT_GE(sa_stats.counts[static_cast<std::size_t>(
                dram::CommandKind::kDpuReduce)],
            1u);
}

TEST(PimHashTable, ShardsSpreadAcrossSubarrays) {
  dram::Device dev(test_geometry());
  runtime::DevicePool pool(dev, 1);
  PimHashTable table(pool, 8);
  dna::GenomeParams gp;
  gp.length = 800;
  gp.repeat_count = 0;
  const auto genome = dna::generate_genome(gp);
  for (std::size_t i = 0; i + 20 <= genome.size(); i += 3)
    table.insert_or_increment(Kmer::from_sequence(genome, i, 20));
  // Hash routing must touch most shards.
  EXPECT_GE(dev.roll_up().subarrays_used, 6u);
}

// A stream that fills two shards to about 80% (long linear-probe chains),
// drives a few counters past 255, and looks up absent k-mers (each walks a
// chain to an empty slot).
struct ProbeStream {
  std::vector<Kmer> present, absent;
};

ProbeStream probe_stream(std::size_t k) {
  dna::GenomeParams gp;
  gp.length = 400;
  gp.repeat_count = 0;
  gp.seed = 31;
  const auto genome = dna::generate_genome(gp);
  ProbeStream s;
  std::set<Kmer> seen;
  for (std::size_t i = 0; i + k <= genome.size(); ++i) {
    const Kmer km = Kmer::from_sequence(genome, i, k);
    if (seen.insert(km).second) s.present.push_back(km);
  }
  gp.seed = 32;
  const auto other = dna::generate_genome(gp);
  for (std::size_t i = 0; i + k <= 60; ++i) {
    const Kmer km = Kmer::from_sequence(other, i, k);
    if (!seen.count(km)) s.absent.push_back(km);
  }
  return s;
}

// The fused probe (plain table) against the primitive probe (a trace sink
// on every sub-array makes match_rows issue compare_rows + and_reduce): the
// same k-mer stream must leave the same rows, counts and table.
TEST(PimHashTable, FusedProbeMatchesTracedPrimitiveProbe) {
  const std::size_t k = 16;
  const ProbeStream stream = probe_stream(k);
  for (const MappingPolicy policy :
       {MappingPolicy::kCorrelated, MappingPolicy::kCentralValues}) {
    SCOPED_TRACE(policy == MappingPolicy::kCorrelated ? "correlated"
                                                      : "central values");
    dram::Device plain_dev(test_geometry()), traced_dev(test_geometry());
    runtime::DevicePool plain_pool(plain_dev, 1), traced_pool(traced_dev, 1);
    traced_pool.enable_tracing();
    PimHashTable plain(plain_pool, 2, 0, policy);
    PimHashTable traced(traced_pool, 2, 0, policy);
    ASSERT_GT(stream.present.size(), plain.capacity() * 3 / 4);
    for (PimHashTable* t : {&plain, &traced}) {
      for (const Kmer& km : stream.present) t->insert_or_increment(km);
      for (std::size_t i = 0; i < 300; ++i)
        for (std::size_t j = 0; j < 4; ++j)
          t->insert_or_increment(stream.present[j * 50]);
      for (std::size_t i = 0; i < stream.present.size(); i += 7)
        t->insert_or_increment(stream.present[i]);
      for (const Kmer& km : stream.absent) EXPECT_FALSE(t->lookup(km));
      EXPECT_EQ(t->lookup(stream.present[0]).value(), 255u);
    }
    const std::size_t arrays =
        policy == MappingPolicy::kCentralValues ? 3 : 2;
    for (std::size_t flat = 0; flat < arrays; ++flat) {
      const dram::Subarray& p = plain_pool.subarray(flat);
      const dram::Subarray& q = traced_pool.subarray(flat);
      for (dram::RowAddr r = 0; r < test_geometry().rows; ++r)
        ASSERT_EQ(p.peek_row(r).to_string(), q.peek_row(r).to_string())
            << "sub-array " << flat << " row " << r;
      for (std::size_t kind = 0; kind < dram::kCommandKindCount; ++kind)
        EXPECT_EQ(p.stats().counts[kind], q.stats().counts[kind])
            << "sub-array " << flat << " kind " << kind;
    }
    ASSERT_NE(traced_dev.trace_if(0), nullptr);
    EXPECT_GT(traced_dev.trace_if(0)->size(), 0u);
    EXPECT_EQ(plain.extract(), traced.extract());
  }
}

// Under kCentralValues adjacent slots of different shards share a value
// row: a counter write, saturating ones included, leaves every other
// counter as it was, and peek_slot reads what lookup reads.
TEST(PimHashTable, CentralCounterWritesLeaveNeighboursIntact) {
  dram::Device dev(test_geometry());
  runtime::DevicePool pool(dev, 1);
  PimHashTable table(pool, 2, 0, MappingPolicy::kCentralValues);
  const ProbeStream stream = probe_stream(16);
  std::unordered_map<Kmer, std::uint32_t> ref;
  const auto check_all = [&] {
    for (std::size_t shard = 0; shard < 2; ++shard)
      for (std::size_t slot = 0; slot < table.layout().kmer_rows; ++slot) {
        const auto entry = table.peek_slot(shard, slot);
        if (!entry) continue;
        ASSERT_EQ(entry->second, std::min<std::uint32_t>(ref.at(entry->first),
                                                         255))
            << "shard " << shard << " slot " << slot;
      }
  };
  // 96 k-mers; k-mer i is inserted 1 + (37·i mod 300) times, so about
  // a sixth of the counters saturate.
  const std::size_t n = 96;
  for (std::size_t round = 0; round < 300; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      if (round > (37 * i) % 300) continue;
      const Kmer& km = stream.present[i];
      EXPECT_EQ(table.insert_or_increment(km),
                std::min<std::uint32_t>(++ref[km], 255));
    }
    check_all();
    if (::testing::Test::HasFailure()) FAIL() << "round " << round;
  }
  check_all();
  std::size_t saturated = 0;
  for (std::size_t shard = 0; shard < 2; ++shard)
    for (std::size_t slot = 0; slot < table.layout().kmer_rows; ++slot)
      if (const auto entry = table.peek_slot(shard, slot)) {
        EXPECT_EQ(table.lookup(entry->first).value(), entry->second);
        if (entry->second == 255) ++saturated;
      }
  EXPECT_GT(saturated, 8u);
}

TEST(PimHashTable, ConstructorValidation) {
  dram::Device dev(test_geometry());
  runtime::DevicePool pool(dev, 1);
  EXPECT_THROW(PimHashTable(pool, 0), pima::PreconditionError);
  EXPECT_THROW(PimHashTable(pool, 9), pima::PreconditionError);  // > 8 arrays
  EXPECT_NO_THROW(PimHashTable(pool, 4, 4));
}

}  // namespace
}  // namespace pima::core
