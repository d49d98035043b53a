#include "core/shard_backend.hpp"

#include <exception>
#include <filesystem>
#include <string>

#include "core/degree.hpp"
#include "core/pim_hash_table.hpp"
#include "core/shard_worker.hpp"
#include "runtime/engine.hpp"
#include "runtime/procpool.hpp"
#include "telemetry/session.hpp"

namespace pima::core {

ShardBackend::ShardBackend(const dram::Geometry& geometry,
                           const PipelineOptions& options)
    : plan_{options.devices},
      scheduler_(geometry.total_subarrays(),
                 runtime::resolve_channels(options.threads)),
      hash_shards_(options.hash_shards) {}

std::size_t ShardBackend::kmer_slot(const assembly::Kmer& kmer) const {
  const std::size_t flat = PimHashTable::shard_of(kmer, hash_shards_);
  return plan_.owner_of(flat) * channels() + scheduler_.channel_of(flat);
}

namespace {

// ---- InProcessBackend -------------------------------------------------------

runtime::EngineOptions engine_options(const PipelineOptions& o) {
  runtime::EngineOptions e;
  e.channels = o.threads;
  e.queue_capacity = o.queue_capacity;
  e.capture_trace = o.capture_trace;
  e.stall_timeout_ms = o.stall_timeout_ms;
  return e;
}

class InProcessBackend final : public ShardBackend {
 public:
  InProcessBackend(dram::Device& device, const PipelineOptions& options)
      : ShardBackend(device.geometry(), options),
        pool_(device, options.devices),
        runner_(pool_, engine_options(options)),
        table_(pool_, options.hash_shards) {
    pool_.clear_stats();
    // Fault-aware execution: the Table-I-calibrated fault model on every
    // pool device, and the table's critical probes routed through the
    // recovery layer. With faults off and recovery kOff (the default)
    // nothing here runs and the run is bit-identical to the unfaulted
    // build.
    pool_.enable_faults(options.fault);
    if (options.fault.enabled() ||
        options.recovery.mode != runtime::RecoveryMode::kOff)
      recovery_ =
          std::make_unique<runtime::RecoveryManager>(pool_, options.recovery);
    table_.bind_key_length(options.k);
    table_.attach_recovery(recovery_.get());
  }

  // Queued inserts reference the table: stop them before it dies.
  ~InProcessBackend() override { runner_.quiesce(); }

  void submit_kmers(std::size_t slot,
                    std::vector<assembly::Kmer> batch) override {
    runtime::submit_or_surface(runner_, [&] {
      runner_.engine(slot / channels())
          .submit(slot % channels(), [this, batch = std::move(batch)] {
            for (const auto& kmer : batch) table_.insert_or_increment(kmer);
          });
    });
  }

  void submit_program(dram::Program program) override {
    runner_.submit_program(std::move(program));
  }

  void run_degree_blocks(const assembly::DeBruijnGraph& graph,
                         const GraphPartition& partition) override {
    // Only the device work matters downstream, not the degrees.
    (void)pim_degrees(pool_, graph, partition, &runner_);
  }

  void drain() override { runner_.drain(); }

  std::vector<std::pair<assembly::Kmer, std::uint32_t>> extract_shard(
      std::size_t shard) override {
    return table_.extract_shard(shard);
  }

  std::size_t distinct_kmers() override { return table_.distinct_kmers(); }

  StageRollUp take_stage_stats() override {
    const dram::StatsFold fold = pool_.fold();
    pool_.clear_stats();
    return {fold.stats(), fold.commands()};
  }

  dram::Program captured_program() override {
    return pool_.captured_program();
  }

  runtime::FaultStats fault_stats() const override {
    return recovery_ ? recovery_->roll_up() : runtime::FaultStats{};
  }

  void export_metrics(telemetry::MetricsRegistry& registry) const override {
    runner_.export_metrics(registry);
    if (recovery_) recovery_->export_metrics(registry);
  }

 private:
  runtime::DevicePool pool_;
  runtime::PoolRunner runner_;
  std::unique_ptr<runtime::RecoveryManager> recovery_;
  PimHashTable table_;
};

// ---- IsolatedBackend --------------------------------------------------------

runtime::ProcPoolOptions pool_options(
    const PipelineOptions& o, const runtime::CheckpointFingerprint& fp) {
  runtime::ProcPoolOptions p;
  p.devices = o.devices;
  p.devd_path = o.isolate_opts.devd_path;
  p.liveness_timeout_s = o.isolate_opts.liveness_timeout_s;
  p.restart_budget = o.isolate_opts.restart_budget;
  p.restart_backoff_ms = o.isolate_opts.restart_backoff_ms;
  // A traced run must keep the whole journal: a restarted worker rebuilds
  // its trace sinks only by replaying every command since init.
  p.journal_truncation = !o.capture_trace;
  p.checkpoint_dir = o.checkpoint_dir;
  p.fingerprint = fp;
  p.child_iofault = o.isolate_opts.child_iofault;
  return p;
}

WorkerInit worker_init(const dram::Device& device, const PipelineOptions& o) {
  WorkerInit init;
  init.geometry = device.geometry();
  init.technology = device.technology();
  init.devices = o.devices;
  init.k = o.k;
  init.hash_shards = o.hash_shards;
  init.channels = runtime::resolve_channels(o.threads);
  init.queue_capacity = o.queue_capacity;
  init.capture_trace = o.capture_trace;
  init.stall_timeout_ms = o.stall_timeout_ms;
  return init;
}

class IsolatedBackend final : public ShardBackend {
 public:
  IsolatedBackend(const dram::Device& device, const PipelineOptions& options,
                  const runtime::CheckpointFingerprint& fingerprint,
                  std::uint32_t resume_stage)
      : ShardBackend(device.geometry(), options),
        geometry_(device.geometry()),
        technology_(device.technology()),
        k_(options.k),
        sup_(pool_options(options, fingerprint),
             [init = worker_init(device, options)](std::size_t d) {
               WorkerInit wi = init;
               wi.device = d;
               // Stitched tracing: when the controller captures spans, the
               // workers do too; the supervisor harvests them at stage
               // boundaries.
               wi.trace_spans = telemetry::tracer().enabled();
               return worker_init_to_json(wi);
             }) {
    if (resume_stage == 0 && !options.checkpoint_dir.empty()) {
      for (std::size_t d = 0; d < options.devices; ++d) {
        std::error_code ec;
        std::filesystem::remove(options.checkpoint_dir + "/shard-" +
                                    std::to_string(d) + ".ckpt",
                                ec);
      }
    }
    sup_.start();
    if (resume_stage > 0) sup_.mark_stage_done(resume_stage);
  }

  void submit_kmers(std::size_t slot,
                    std::vector<assembly::Kmer> batch) override {
    sup_.rpc(slot / channels(), kmers_request(slot % channels(), batch));
  }

  void submit_program(dram::Program program) override {
    const auto parts = plan_.split(std::move(program));
    for (std::size_t d = 0; d < parts.size(); ++d)
      if (!parts[d].empty()) sup_.rpc(d, program_request(parts[d]));
  }

  void run_degree_blocks(const assembly::DeBruijnGraph&,
                         const GraphPartition& partition) override {
    // One request per worker carries every kernel it owns, in walk order,
    // so each sub-array sees the in-process command sequence. The workers
    // run the full carry-save reduction and drop the sums, so the device
    // traffic matches the in-process run command for command.
    std::vector<std::vector<DegreeKernel>> owned(sup_.devices());
    for (const DegreeKernel& kernel : degree_kernels(geometry_, partition))
      owned[plan_.owner_of(kernel.flat)].push_back(kernel);
    std::vector<net::Json> requests;
    requests.reserve(owned.size());
    for (const auto& kernels : owned)
      requests.push_back(degree_block_request(kernels));
    sup_.rpc_all(requests);
    drain();
  }

  void drain() override {
    std::exception_ptr first;
    for (std::size_t d = 0; d < sup_.devices(); ++d) {
      try {
        sup_.rpc(d, verb_request("drain"));
      } catch (const runtime::ProcPoolDegradedError&) {
        throw;  // nothing left to drain
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
  }

  std::vector<std::pair<assembly::Kmer, std::uint32_t>> extract_shard(
      std::size_t shard) override {
    // Journaled: reading a shard out issues ROW_READs, which a restarted
    // worker must replay for the stage's stats and trace to match.
    return extract_entries(
        sup_.rpc(plan_.owner_of(shard), extract_request(shard)), k_);
  }

  std::size_t distinct_kmers() override {
    std::size_t n = 0;
    for (std::size_t d = 0; d < sup_.devices(); ++d)
      n += static_cast<std::size_t>(
          sup_.query(d, verb_request("distinct")).get_uint64("value"));
    return n;
  }

  StageRollUp take_stage_stats() override {
    dram::StatsFold fold(geometry_.columns, technology_);
    for (std::size_t d = 0; d < sup_.devices(); ++d)
      for (const auto& entry :
           stats_entries(sup_.query(d, verb_request("stats"))))
        fold.add_subarray(entry.second);
    for (std::size_t d = 0; d < sup_.devices(); ++d)
      sup_.rpc(d, verb_request("clear_stats"));
    return {fold.stats(), fold.commands()};
  }

  void mark_stage_done(std::uint32_t stage) override {
    sup_.mark_stage_done(stage);
  }

  dram::Program captured_program() override {
    std::vector<dram::Program> parts;
    parts.reserve(sup_.devices());
    for (std::size_t d = 0; d < sup_.devices(); ++d)
      parts.push_back(fetch_trace(
          [&](const net::Json& request) { return sup_.query(d, request); }));
    return dram::merge_by_flat(std::move(parts));
  }

 private:
  dram::Geometry geometry_;
  circuit::Technology technology_;
  std::size_t k_;
  runtime::ProcSupervisor sup_;
};

}  // namespace

std::unique_ptr<ShardBackend> make_in_process_backend(
    dram::Device& device, const PipelineOptions& options) {
  return std::make_unique<InProcessBackend>(device, options);
}

std::unique_ptr<ShardBackend> make_isolated_backend(
    const dram::Device& device, const PipelineOptions& options,
    const runtime::CheckpointFingerprint& fingerprint,
    std::uint32_t resume_stage) {
  return std::make_unique<IsolatedBackend>(device, options, fingerprint,
                                           resume_stage);
}

}  // namespace pima::core
