// google-benchmark microbenchmarks of the simulator itself: throughput of
// the functional kernels the experiments are built on. These measure the
// host-side simulation speed (how fast *we* simulate), not the modelled
// hardware performance — useful when scaling workloads up.
#include <benchmark/benchmark.h>

#include "assembly/hash_table.hpp"
#include "common/rng.hpp"
#include "core/degree.hpp"
#include "core/pim_hash_table.hpp"
#include "dna/genome.hpp"
#include "dram/dpu.hpp"
#include "dram/subarray.hpp"
#include "runtime/shard.hpp"

using namespace pima;

namespace {

dram::Geometry micro_geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  return g;
}

void BM_SubarrayXnor(benchmark::State& state) {
  dram::Subarray sa(micro_geometry(), circuit::default_technology());
  BitVector ones(256);
  ones.fill(true);
  sa.write_row(0, ones);
  sa.write_row(1, BitVector(256));
  for (auto _ : state) {
    sa.compare_rows(0, 1, 10);
    benchmark::DoNotOptimize(sa.peek_row(10));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_SubarrayXnor);

// One carry-save bit step: the fused compress_bit μop (arg 1) against the
// nine primitive calls it stands for (arg 0). Same rows, same result.
void BM_CompressBit(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  dram::Subarray sa(micro_geometry(), circuit::default_technology());
  Rng rng(11);
  for (dram::RowAddr r = 0; r < 3; ++r) {
    BitVector row(256);
    for (std::size_t w = 0; w < row.word_count(); ++w)
      row.set_word(w, rng());
    sa.write_row(r, row);
  }
  const auto x1 = sa.compute_row(0), x2 = sa.compute_row(1),
             x3 = sa.compute_row(2);
  for (auto _ : state) {
    if (fused) {
      sa.compress_bit(0, 1, 2, 3, 4);
    } else {
      sa.aap_copy(0, x1);
      sa.aap_copy(1, x2);
      sa.aap_xor(x1, x2, x1);
      sa.aap_copy(2, x2);
      sa.aap_xor(x1, x2, 3);
      sa.aap_copy(0, x1);
      sa.aap_copy(1, x2);
      sa.aap_copy(2, x3);
      sa.aap_tra_carry(x1, x2, x3, 4);
    }
    benchmark::DoNotOptimize(sa.peek_row(4));
  }
  state.SetLabel(fused ? "fused" : "9 primitives");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_CompressBit)->Arg(0)->Arg(1);

// One k-mer probe (k = 17, a matching key): the fused match_rows μop
// (arg 1) against compare_rows + Dpu::and_reduce (arg 0), the sequence a
// traced or fault-injected table issues. Same rows, same answer.
void BM_HashProbe(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  dram::Subarray sa(micro_geometry(), circuit::default_technology());
  Rng rng(12);
  BitVector key(256);
  key.set_word(0, rng() & ((std::uint64_t{1} << 34) - 1));
  sa.write_row(0, key);
  sa.write_row(1, key);
  const auto result = sa.compute_row(3);
  for (auto _ : state) {
    if (fused) {
      benchmark::DoNotOptimize(sa.match_rows(0, 1, result, 34));
    } else {
      sa.compare_rows(0, 1, result);
      benchmark::DoNotOptimize(dram::Dpu::and_reduce(sa, result, 34));
    }
  }
  state.SetLabel(fused ? "fused" : "compare_rows + and_reduce");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashProbe)->Arg(0)->Arg(1);

void BM_SubarrayAddVertical(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  dram::Subarray sa(micro_geometry(), circuit::default_technology());
  std::vector<dram::RowAddr> a, b, s;
  for (std::size_t i = 0; i < m; ++i) {
    a.push_back(i);
    b.push_back(64 + i);
    s.push_back(128 + i);
  }
  for (auto _ : state) {
    sa.add_vertical(a, b, s, 200);
    benchmark::DoNotOptimize(sa.peek_row(200));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_SubarrayAddVertical)->Arg(8)->Arg(16)->Arg(32);

void BM_PimHashInsert(benchmark::State& state) {
  dna::GenomeParams gp;
  gp.length = 2000;
  gp.repeat_count = 0;
  const auto genome = dna::generate_genome(gp);
  std::vector<assembly::Kmer> kmers;
  for (std::size_t i = 0; i + 16 <= genome.size(); ++i)
    kmers.push_back(assembly::Kmer::from_sequence(genome, i, 16));
  for (auto _ : state) {
    state.PauseTiming();
    dram::Device dev(micro_geometry());
    runtime::DevicePool pool(dev, 1);
    core::PimHashTable table(pool, 8);
    state.ResumeTiming();
    for (const auto& km : kmers)
      benchmark::DoNotOptimize(table.insert_or_increment(km));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kmers.size()));
}
BENCHMARK(BM_PimHashInsert);

void BM_SoftwareKmerCounting(benchmark::State& state) {
  dna::GenomeParams gp;
  gp.length = 20000;
  gp.repeat_count = 0;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 8.0;
  rp.read_length = 100;
  const auto reads = dna::sample_reads(genome, rp);
  for (auto _ : state) {
    const auto table = assembly::build_hashmap(reads, 21);
    benchmark::DoNotOptimize(table.distinct_kmers());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(reads.size() * 80));
}
BENCHMARK(BM_SoftwareKmerCounting);

void BM_PimColumnSums(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dram::Device dev(micro_geometry());
  Rng rng(5);
  std::vector<BitVector> rows;
  for (std::size_t r = 0; r < n; ++r) {
    BitVector row(256);
    for (std::size_t c = 0; c < 256; ++c) row.set(c, rng.bernoulli(0.3));
    rows.push_back(std::move(row));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pim_column_sums(dev.subarray(0), rows));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 256);
}
BENCHMARK(BM_PimColumnSums)->Arg(16)->Arg(64);

}  // namespace
