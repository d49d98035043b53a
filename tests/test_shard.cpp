// Cross-shard determinism battery (ctest -L shard, DESIGN.md §14).
//
// The multi-device contract: a run sharded over any number of simulated
// devices is indistinguishable — bit for bit — from the single-device run.
// The battery pins every observable surface: contigs, per-stage DeviceStats
// roll-ups, the model-class Prometheus snapshot, the merged command trace,
// and the per-device command sub-streams replayed through the golden model.
// Plus the folds: any sub-array order gives the same roll-up, each stage's
// energy is its per-kind breakdown total, and DeviceStats / FaultStats
// compose associatively.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "core/pipeline.hpp"
#include "dna/genome.hpp"
#include "dram/device.hpp"
#include "dram/isa.hpp"
#include "dram/trace.hpp"
#include "runtime/recovery.hpp"
#include "runtime/shard.hpp"
#include "telemetry/session.hpp"
#include "verify/fuzz.hpp"

namespace pima {
namespace {

dram::Geometry pipeline_geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  return g;
}

std::vector<dna::Sequence> workload_reads(std::uint64_t seed) {
  dna::GenomeParams gp;
  gp.length = 700;
  gp.repeat_count = 0;
  gp.seed = seed;
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 70;
  rp.seed = seed + 1;
  return dna::sample_reads(dna::generate_genome(gp), rp);
}

struct RunOutput {
  core::PipelineResult result;
  std::string model_snapshot;  ///< json_snapshot(model_only) — byte oracle
};

RunOutput run_config(const std::vector<dna::Sequence>& reads,
                     std::size_t devices, std::size_t threads,
                     bool capture = false) {
  auto& session = telemetry::TelemetrySession::instance();
  session.reset();
  session.enable_metrics();
  dram::Device device(pipeline_geometry());
  core::PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.devices = devices;
  opt.threads = threads;
  opt.capture_trace = capture;
  RunOutput out;
  out.result = core::run_pipeline(device, reads, opt);
  out.model_snapshot = session.metrics().json_snapshot(/*model_only=*/true);
  session.reset();
  return out;
}

void expect_bit_identical(const core::PipelineResult& a,
                          const core::PipelineResult& b) {
  EXPECT_EQ(a.contigs, b.contigs);
  EXPECT_EQ(a.distinct_kmers, b.distinct_kmers);
  EXPECT_EQ(a.graph_nodes, b.graph_nodes);
  EXPECT_EQ(a.graph_edges, b.graph_edges);
  EXPECT_EQ(a.hashmap.device, b.hashmap.device);
  EXPECT_EQ(a.debruijn.device, b.debruijn.device);
  EXPECT_EQ(a.traverse.device, b.traverse.device);
  EXPECT_EQ(a.fault_stats, b.fault_stats);
}

// ---- the battery: devices × threads × seeds --------------------------------

TEST(ShardBattery, OutputsBitIdenticalAcrossDeviceAndThreadCounts) {
  for (const std::uint64_t seed : {std::uint64_t{101}, std::uint64_t{202}}) {
    const auto reads = workload_reads(seed);
    const auto baseline = run_config(reads, 1, 1);
    ASSERT_FALSE(baseline.result.contigs.empty());
    ASSERT_FALSE(baseline.model_snapshot.empty());
    for (const std::size_t devices : {1u, 2u, 4u, 16u}) {
      for (const std::size_t threads : {1u, 4u}) {
        if (devices == 1 && threads == 1) continue;
        const auto run = run_config(reads, devices, threads);
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " devices=" + std::to_string(devices) +
                     " threads=" + std::to_string(threads));
        expect_bit_identical(run.result, baseline.result);
        // The model-class metrics snapshot derives only from simulated
        // state — equal bytes for every (devices, threads) combination.
        EXPECT_EQ(run.model_snapshot, baseline.model_snapshot);
      }
    }
  }
}

// ---- per-device differential: captured sub-streams vs golden model ---------

TEST(ShardDifferential, PerDeviceTraceReplaysThroughGoldenModel) {
  const auto reads = workload_reads(303);
  const auto single = run_config(reads, 1, 1, /*capture=*/true);
  const auto sharded = run_config(reads, 4, 1, /*capture=*/true);
  // The merged capture is itself a determinism oracle: logical flat order,
  // so equal streams for any device count.
  ASSERT_FALSE(sharded.result.trace.empty());
  EXPECT_EQ(sharded.result.trace, single.result.trace);

  verify::FuzzOptions opts;
  opts.geometry = pipeline_geometry();
  // Every captured command already executed once on the production pool,
  // so a rejection during replay is a divergence, not an agreement.
  opts.diff.accept_symmetric_rejection = false;
  for (std::size_t d = 0; d < 4; ++d) {
    dram::Program part;
    for (const auto& inst : sharded.result.trace)
      if (inst.subarray % 4 == d) part.push_back(inst);
    ASSERT_FALSE(part.empty()) << "device " << d << " ran nothing";
    const auto divergence = verify::run_candidate(part, opts);
    EXPECT_FALSE(divergence.has_value())
        << "device " << d << ": " << divergence->report();
  }
}

// ---- DevicePool folds vs a single device -----------------------------------

dram::Geometry tiny_geometry() {
  dram::Geometry g;
  g.rows = 64;
  g.compute_rows = 8;
  g.columns = 64;
  g.subarrays_per_mat = 4;
  g.mats_per_bank = 2;
  g.banks = 1;
  return g;
}

// The same command sequence issued through a 3-device pool and through one
// bare device must produce identical roll-ups: per-kind counts and waits
// are integers, so the pool's per-device folds sum to the single-device
// fold exactly.
TEST(DevicePoolFolds, MatchSingleDeviceBitForBit) {
  const auto geom = tiny_geometry();
  dram::Device single(geom);
  dram::Device primary(geom);
  runtime::DevicePool pool(primary, 3);

  const auto issue = [&](auto&& subarray_of) {
    for (const std::size_t flat : {0u, 1u, 2u, 5u, 7u}) {
      auto& sa = subarray_of(flat);
      sa.write_row(0, BitVector(geom.columns));
      sa.write_row(1, BitVector(geom.columns));
      sa.aap_copy(0, sa.compute_row(0));
      sa.aap_copy(1, sa.compute_row(1));
      sa.aap_xor(sa.compute_row(0), sa.compute_row(1), 2);
      sa.wait_ns(100 * flat);
    }
  };
  issue([&](std::size_t flat) -> dram::Subarray& {
    return single.subarray(flat);
  });
  issue([&](std::size_t flat) -> dram::Subarray& {
    return pool.subarray(flat);
  });

  EXPECT_EQ(pool.roll_up(), single.roll_up());
  EXPECT_EQ(pool.instantiated_count(), single.instantiated_count());
  const dram::CommandStats pc = pool.fold().commands();
  const dram::CommandStats sc = single.fold().commands();
  EXPECT_EQ(pc.total_commands(), sc.total_commands());
  EXPECT_EQ(pc.wait_ns, sc.wait_ns);
  EXPECT_EQ(pc.wait_ns, 1500u);
  for (std::size_t k = 0; k < dram::kCommandKindCount; ++k)
    EXPECT_EQ(pc.counts[k], sc.counts[k]) << "command kind " << k;
}

// Per-command energies are not dyadic (a 256-column ROW_WRITE costs
// 151.2 pJ), so summing per-sub-array energy doubles gives a different
// result in every order. StatsFold sums integer counts and derives the
// doubles once, so flat order, shuffled order and per-device folds joined
// in device order all give the same DeviceStats bit for bit.
TEST(DevicePoolFolds, AnyFoldOrderIsBitIdentical) {
  const auto& tech = circuit::default_technology();
  const std::size_t columns = 256;
  std::mt19937_64 rng{11};
  std::vector<dram::CommandStats> records(64);
  for (auto& st : records) {
    for (auto& c : st.counts) c = rng() % 5000;
    st.wait_ns = rng() % 4 == 0 ? 100 * (rng() % 8) : 0;
  }
  records[5] = {};  // a zero-command sub-array is the identity
  dram::StatsFold flat(columns, tech);
  for (const auto& st : records) flat.add_subarray(st);
  const dram::DeviceStats want = flat.stats();
  EXPECT_EQ(want.subarrays_used, records.size() - 1);
  EXPECT_EQ(want.energy_pj,
            dram::breakdown_from_stats(flat.commands(), columns, tech)
                .total_energy_pj);

  for (std::size_t trial = 0; trial < 16; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    auto shuffled = records;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    dram::StatsFold any(columns, tech);
    for (const auto& st : shuffled) any.add_subarray(st);
    EXPECT_EQ(any.stats(), want);

    const std::size_t devices = 2 + trial % 7;
    dram::StatsFold joined(columns, tech);
    for (std::size_t d = 0; d < devices; ++d) {
      dram::StatsFold part(columns, tech);
      for (std::size_t i = d; i < records.size(); i += devices)
        part.add_subarray(records[i]);
      joined.add(part);
    }
    EXPECT_EQ(joined.stats(), want);
    EXPECT_EQ(joined.commands(), flat.commands());
  }
}

// Each stage's energy is derived from its summed per-kind counts, so it is
// the breakdown total of those counts exactly. The per-stage counts are
// read from the cumulative pima_dram_commands_total{kind} counters at each
// stage's checkpoint. Stage 2 is thousands of ROW_WRITEs, whose 151.2 pJ
// do not sum to count × 151.2 one command at a time.
TEST(StageFold, EnergyIsTheBreakdownTotalOfEachStage) {
  const auto reads = workload_reads(404);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pima_stage_fold_" + std::to_string(::getpid()));
  const auto& tech = circuit::default_technology();
  const std::size_t columns = pipeline_geometry().columns;
  std::filesystem::create_directories(dir);
  for (const std::size_t devices : {1u, 4u}) {
    SCOPED_TRACE("devices=" + std::to_string(devices));
    auto& session = telemetry::TelemetrySession::instance();
    session.reset();
    session.enable_metrics();
    std::vector<dram::CommandStats> per_stage;
    dram::CommandStats seen;
    dram::Device device(pipeline_geometry());
    core::PipelineOptions opt;
    opt.k = 15;
    opt.hash_shards = 8;
    opt.devices = devices;
    opt.threads = 2;
    opt.checkpoint_dir = dir.string();
    opt.on_checkpoint = [&](std::uint32_t, const std::string&) {
      dram::CommandStats stage;
      for (std::size_t k = 0; k < dram::kCommandKindCount; ++k) {
        const auto kind = static_cast<dram::CommandKind>(k);
        const telemetry::Labels labels = {
            {"kind", std::string(dram::to_string(kind))}};
        const auto now = static_cast<std::size_t>(
            session.metrics()
                .counter("pima_dram_commands_total", "", labels)
                .value());
        stage.counts[k] = now - seen.counts[k];
        seen.counts[k] = now;
      }
      per_stage.push_back(stage);
    };
    const auto result = core::run_pipeline(device, reads, opt);
    session.reset();
    ASSERT_EQ(per_stage.size(), 3u);
    EXPECT_GT(per_stage[1].counts[static_cast<std::size_t>(
                  dram::CommandKind::kRowWrite)],
              1000u);
    const core::StageStats* stages[] = {&result.hashmap, &result.debruijn,
                                        &result.traverse};
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(stages[i]->device.commands, per_stage[i].total_commands())
          << stages[i]->name;
      EXPECT_EQ(stages[i]->device.energy_pj,
                dram::breakdown_from_stats(per_stage[i], columns, tech)
                    .total_energy_pj)
          << stages[i]->name;
    }
  }
  std::filesystem::remove_all(dir);
}

// ---- fold algebra -----------------------------------------------------------

// Stages compose with DeviceStats::operator+ in one fixed order (hashmap,
// debruijn, traverse). Integer-valued doubles below 2^40 add exactly, so
// the algebra of that composition is testable bit for bit here.
dram::DeviceStats random_stats(std::mt19937_64& rng) {
  dram::DeviceStats s;
  s.time_ns = static_cast<double>(rng() % (1u << 20));
  s.serial_ns = static_cast<double>(rng() % (1u << 20));
  s.energy_pj = static_cast<double>(rng() % (1u << 20));
  s.commands = rng() % 1000;
  s.subarrays_used = rng() % 64;
  return s;
}

runtime::FaultStats random_fault_stats(std::mt19937_64& rng) {
  runtime::FaultStats f;
  f.injected = rng() % 1000;
  f.detected = rng() % 1000;
  f.retried = rng() % 1000;
  f.remapped = rng() % 1000;
  f.escaped = rng() % 1000;
  f.vote_corrections = rng() % 1000;
  f.host_fallbacks = rng() % 1000;
  f.degraded_subarrays = rng() % 1000;
  return f;
}

TEST(FoldAlgebra, DeviceStatsAssociativeCommutativeWithIdentity) {
  std::mt19937_64 rng{7};
  for (int i = 0; i < 100; ++i) {
    const auto a = random_stats(rng), b = random_stats(rng),
               c = random_stats(rng);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a + dram::DeviceStats{}, a);
    EXPECT_EQ(dram::DeviceStats{} + a, a);
  }
}

TEST(FoldAlgebra, FaultStatsAssociativeCommutativeWithIdentity) {
  std::mt19937_64 rng{8};
  for (int i = 0; i < 100; ++i) {
    const auto a = random_fault_stats(rng), b = random_fault_stats(rng),
               c = random_fault_stats(rng);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a + runtime::FaultStats{}, a);
    EXPECT_EQ(runtime::FaultStats{} + a, a);
  }
}

TEST(ShardPlanBasics, OwnerPartitionsFlatSpace) {
  runtime::ShardPlan one;
  EXPECT_FALSE(one.sharded());
  EXPECT_EQ(one.owner_of(17), 0u);
  runtime::ShardPlan four{4};
  EXPECT_TRUE(four.sharded());
  for (std::size_t flat = 0; flat < 32; ++flat)
    EXPECT_EQ(four.owner_of(flat), flat % 4);
}

}  // namespace
}  // namespace pima
