// The device shards behind the Fig.-5 controller (DESIGN.md §14–15).
//
// run_pipeline (pipeline.cpp) is written once, against ShardBackend: the
// verbs a stage needs from the shards. Two implementations
// (shard_backend.cpp):
//
//   * InProcessBackend — runtime::DevicePool + PoolRunner + the
//     PimHashTable (and the RecoveryManager of a fault-aware run), all in
//     the controller's address space;
//   * IsolatedBackend — one pima_devd worker process per device under the
//     runtime::ProcSupervisor; every verb is a request from the verb table
//     of shard_worker.hpp.
//
// Both route k-mers with the same function (hash shard s at flat s, owner
// = flat % devices, channel = Scheduler::channel_of) and fold stats with
// dram::StatsFold (integer counts and a max, exact in any order), so a run
// is bit-identical whichever backend executed it — which is also why a
// checkpoint cut under one resumes under the other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "assembly/debruijn.hpp"
#include "assembly/kmer.hpp"
#include "core/graph_map.hpp"
#include "core/pipeline.hpp"
#include "dram/device.hpp"
#include "dram/isa.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/recovery.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/shard.hpp"
#include "telemetry/metrics.hpp"

namespace pima::core {

/// One stage's statistics: StatsFold::stats() and the summed per-kind
/// record it derives them from, so `device.energy_pj` equals
/// breakdown_from_stats(commands).total_energy_pj bit for bit.
struct StageRollUp {
  dram::DeviceStats device;
  dram::CommandStats commands;  ///< per-kind split for the breakdown
};

class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Submission slots: one per (device, channel), devices-major.
  std::size_t kmer_slots() const {
    return plan_.devices * scheduler_.channels();
  }
  /// The slot owning a k-mer's hash shard (shard s lives at flat s).
  std::size_t kmer_slot(const assembly::Kmer& kmer) const;

  /// Queues a batch of hash-table inserts on a slot's channel.
  virtual void submit_kmers(std::size_t slot,
                            std::vector<assembly::Kmer> batch) = 0;
  /// Submits a program split by owning device, in program order.
  virtual void submit_program(dram::Program program) = 0;
  /// Runs every degree_kernels() kernel of the partition, then drains.
  virtual void run_degree_blocks(const assembly::DeBruijnGraph& graph,
                                 const GraphPartition& partition) = 0;
  /// Barrier over every device; rethrows the first typed failure (lowest
  /// device first) after all devices drained.
  virtual void drain() = 0;
  /// One hash shard's (k-mer, frequency) entries in slot order.
  virtual std::vector<std::pair<assembly::Kmer, std::uint32_t>> extract_shard(
      std::size_t shard) = 0;
  virtual std::size_t distinct_kmers() = 0;
  /// The stage's stats, folded over every sub-array, then cleared.
  virtual StageRollUp take_stage_stats() = 0;
  /// Stage boundary (worker span harvest, journal truncation, shard
  /// checkpoints).
  virtual void mark_stage_done(std::uint32_t /*stage*/) {}
  /// Every traced command in logical flat order: the per-device captures
  /// joined by dram::merge_by_flat.
  virtual dram::Program captured_program() = 0;
  /// Fault counters of this run (zero without the fault model).
  virtual runtime::FaultStats fault_stats() const { return {}; }
  virtual void export_metrics(telemetry::MetricsRegistry& /*registry*/) const {
  }

 protected:
  ShardBackend(const dram::Geometry& geometry, const PipelineOptions& options);

  std::size_t channels() const { return scheduler_.channels(); }

  runtime::ShardPlan plan_;
  /// Channel placement inside a device (every device has the same).
  runtime::Scheduler scheduler_;
  std::size_t hash_shards_;
};

/// The shards in this address space: DevicePool + PoolRunner + the
/// PimHashTable (+ the RecoveryManager of a fault-aware run). `device`
/// becomes device 0 of the pool; its stats are cleared.
std::unique_ptr<ShardBackend> make_in_process_backend(
    dram::Device& device, const PipelineOptions& options);

/// The shards in pima_devd worker processes under a ProcSupervisor; every
/// verb is one request per worker that owns a part of it. A fresh run
/// (`resume_stage` 0) first removes shard checkpoints a previous run left
/// in the checkpoint directory; a resumed run inherits them.
std::unique_ptr<ShardBackend> make_isolated_backend(
    const dram::Device& device, const PipelineOptions& options,
    const runtime::CheckpointFingerprint& fingerprint,
    std::uint32_t resume_stage);

}  // namespace pima::core
