#include "core/pipeline.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_map.hpp"
#include "core/pipeline_detail.hpp"
#include "core/shard_backend.hpp"
#include "runtime/engine.hpp"
#include "runtime/procpool.hpp"
#include "telemetry/log.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/session.hpp"
#include "telemetry/telemetry.hpp"

namespace pima::core {

dram::DeviceStats PipelineResult::total() const {
  return hashmap.device + debruijn.device + traverse.device;
}

namespace detail {

GraphPartition partition_fitting(const assembly::DeBruijnGraph& g,
                                 const dram::Geometry& geom,
                                 std::uint32_t requested) {
  const std::size_t width = geom.columns;
  std::uint32_t m =
      requested > 0
          ? requested
          : static_cast<std::uint32_t>(
                std::max<std::size_t>(1, (g.node_count() + (width * 4) / 5 - 1) /
                                             ((width * 4) / 5)));
  for (;; ++m) {
    GraphPartition p = partition_graph(g, m);
    const bool fits = std::all_of(
        p.interval_vertices.begin(), p.interval_vertices.end(),
        [&](const auto& iv) { return iv.size() <= width; });
    if (fits) return p;
    PIMA_CHECK(requested == 0,
               "requested interval count leaves an oversized interval");
  }
}

runtime::CheckpointFingerprint make_fingerprint(const dram::Geometry& geom,
                                                const PipelineOptions& o) {
  runtime::CheckpointFingerprint fp;
  fp.k = o.k;
  fp.hash_shards = o.hash_shards;
  fp.devices = o.devices;
  fp.graph_intervals = o.graph_intervals;
  fp.use_multiplicity = o.use_multiplicity;
  fp.euler_contigs = o.euler_contigs;
  fp.traversal = static_cast<std::uint8_t>(o.traversal);
  fp.rows = geom.rows;
  fp.compute_rows = geom.compute_rows;
  fp.columns = geom.columns;
  fp.subarrays_per_mat = geom.subarrays_per_mat;
  fp.mats_per_bank = geom.mats_per_bank;
  fp.banks = geom.banks;
  fp.fault_variation = o.fault.variation;
  fp.fault_seed = o.fault.seed;
  fp.fault_retention = o.fault.retention_flip_per_op;
  fp.fault_weak_rows = o.fault.weak_row_fraction;
  fp.recovery_mode = static_cast<std::uint8_t>(o.recovery.mode);
  return fp;
}

}  // namespace detail

namespace {

using detail::make_fingerprint;
using detail::partition_fitting;

// Batched k-mer submission: the controller routes every k-mer of the read
// stream to the (device, channel) slot owning its hash shard and flushes
// per-slot batches (in-process, the bounded queues' backpressure throttles
// the controller when the channel executors fall behind). Per-shard insert
// order equals read-stream order for any device and channel count — this
// is the sharded pipeline's k-mer count shuffle, done at submission time.
void submit_kmer_stream(ShardBackend& backend,
                        const std::vector<dna::Sequence>& reads,
                        std::size_t k, const runtime::CancelToken* cancel) {
  constexpr std::size_t kKmerBatch = 128;
  std::vector<std::vector<assembly::Kmer>> pending(backend.kmer_slots());
  auto flush = [&](std::size_t slot) {
    auto& batch = pending[slot];
    if (batch.empty()) return;
    backend.submit_kmers(slot, std::move(batch));
    batch = {};
    batch.reserve(kKmerBatch);
  };

  // Live progress counters: bumped on the controller thread only, once per
  // read, so the totals are deterministic for any channel count (model
  // class) and cost nothing per k-mer.
  telemetry::Counter* reads_ctr = nullptr;
  telemetry::Counter* kmers_ctr = nullptr;
  if (telemetry::metrics_enabled()) {
    auto& registry = telemetry::metrics();
    reads_ctr = &registry.counter(telemetry::kReadsTotal,
                                  "reads streamed through k-mer analysis");
    kmers_ctr =
        &registry.counter(telemetry::kKmersTotal, "k-mer windows submitted");
  }

  for (const auto& read : reads) {
    if (cancel != nullptr) cancel->throw_if_requested();
    if (read.size() < k) {
      if (reads_ctr != nullptr) reads_ctr->increment();
      continue;
    }
    assembly::Kmer window = assembly::Kmer::from_sequence(read, 0, k);
    for (std::size_t i = 0;; ++i) {
      const std::size_t slot = backend.kmer_slot(window);
      pending[slot].push_back(window);
      if (pending[slot].size() >= kKmerBatch) flush(slot);
      if (i + k >= read.size()) break;
      window = window.rolled(read.at(i + k));
    }
    if (reads_ctr != nullptr) {
      reads_ctr->increment();
      kmers_ctr->add(static_cast<double>(read.size() - k + 1));
    }
  }
  for (std::size_t slot = 0; slot < pending.size(); ++slot) flush(slot);
  backend.drain();
}

// Streams a stage's instructions to the backend in bounded slices:
// in-flight memory stays constant and (in-process) the queues'
// backpressure paces the controller.
class SlicedProgram {
 public:
  SlicedProgram(ShardBackend& backend, const runtime::CancelToken* cancel)
      : backend_(backend), cancel_(cancel) {
    program_.reserve(kSlice);
  }

  void push(dram::Instruction inst) {
    program_.push_back(std::move(inst));
    if (program_.size() < kSlice) return;
    if (cancel_ != nullptr) cancel_->throw_if_requested();
    backend_.submit_program(std::move(program_));
    program_ = {};
    program_.reserve(kSlice);
  }

  /// Submits the last slice and drains.
  void finish() {
    backend_.submit_program(std::move(program_));
    program_ = {};
    backend_.drain();
  }

 private:
  static constexpr std::size_t kSlice = 8192;
  ShardBackend& backend_;
  const runtime::CancelToken* cancel_;
  dram::Program program_;
};

// The Fig.-5 controller: one body for both backends.
PipelineResult run_stages(dram::Device& device,
                          const std::vector<dna::Sequence>& reads,
                          const PipelineOptions& options, bool isolated) {
  PipelineResult result;
  const dram::Geometry& geometry = device.geometry();

  PIMA_TEL_NAME_TRACK(runtime::Engine::kMainTrack, "main");
  PIMA_TEL_SET_THREAD_TRACK(runtime::Engine::kMainTrack);
  PIMA_TEL_SPAN("pipeline");
  if (telemetry::metrics_enabled())
    telemetry::metrics()
        .counter(telemetry::kReadsExpected, "reads in the input stream")
        .add(static_cast<double>(reads.size()));
  // Per-stage model metrics: stage roll-up plus the per-CommandKind
  // energy/latency split, derived from the same breakdown_from_stats the
  // report tables use — the two can never disagree.
  const auto export_stage = [&](const char* stage,
                                const dram::DeviceStats& st,
                                const dram::CommandStats& cmds) {
    if (!telemetry::metrics_enabled()) return;
    auto& registry = telemetry::metrics();
    const telemetry::Labels labels = {{"stage", stage}};
    registry
        .counter("pima_stage_commands_total", "DRAM commands per stage",
                 labels)
        .add(static_cast<double>(st.commands));
    registry
        .counter("pima_stage_time_ns_total",
                 "simulated critical-path time per stage (ns)", labels)
        .add(st.time_ns);
    registry
        .counter("pima_stage_energy_pj_total",
                 "simulated energy per stage (pJ)", labels)
        .add(st.energy_pj);
    registry
        .gauge("pima_stage_subarrays_used", "sub-arrays touched per stage",
               labels)
        .set(static_cast<double>(st.subarrays_used));
    telemetry::add_breakdown_metrics(
        registry, dram::breakdown_from_stats(cmds, geometry.columns,
                                             device.technology()));
  };
  std::unique_ptr<telemetry::ProgressReporter> progress;
  if (options.progress_interval_s > 0.0)
    progress = std::make_unique<telemetry::ProgressReporter>(
        telemetry::metrics(),
        telemetry::ProgressReporter::Options{options.progress_interval_s,
                                             nullptr});

  // ---- Checkpoint/resume plumbing (one snapshot format for both
  // backends, so a run cut under one resumes under the other) ----
  const runtime::CheckpointFingerprint fingerprint =
      make_fingerprint(geometry, options);
  const std::string ckpt_path = options.checkpoint_dir.empty()
                                    ? std::string{}
                                    : options.checkpoint_dir + "/pipeline.ckpt";
  runtime::PipelineSnapshot snap;
  snap.fingerprint = fingerprint;
  std::uint32_t resume_stage = 0;
  if (options.resume) {
    PIMA_CHECK(!options.checkpoint_dir.empty(),
               "resume requires checkpoint_dir");
    if (options.fault.enabled())
      throw SimulationError(
          "resume with fault injection enabled is unsupported: per-sub-array "
          "fault RNG stream positions are not part of the snapshot, so a "
          "resumed run could not reproduce the interrupted one bit-for-bit");
    // A missing snapshot is not an error — the first run of a
    // checkpoint-then-resume loop simply starts fresh.
    if (std::ifstream probe(ckpt_path); probe.good()) {
      snap = runtime::load_checkpoint(ckpt_path);
      runtime::validate_compatible(snap, fingerprint);
      resume_stage = snap.stages_done;
    }
  }

  const std::unique_ptr<ShardBackend> backend =
      isolated ? make_isolated_backend(device, options, fingerprint,
                                       resume_stage)
               : make_in_process_backend(device, options);

  // Fault/recovery counters accumulated before the interruption; this
  // process's backend adds its own on top.
  const runtime::FaultStats base_fault = snap.fault_stats;
  const auto fault_now = [&] { return base_fault + backend->fault_stats(); };
  const auto fold_stage = [&](const char* stage) -> StageStats {
    const StageRollUp r = backend->take_stage_stats();
    export_stage(stage, r.device, r.commands);
    return {r.device, stage};
  };
  const auto commit_stage = [&](std::uint32_t stage) {
    backend->mark_stage_done(stage);
    if (ckpt_path.empty()) return;
    snap.stages_done = stage;
    snap.fault_stats = fault_now();
    runtime::save_checkpoint(ckpt_path, snap);
    if (options.on_checkpoint) options.on_checkpoint(stage, ckpt_path);
  };

  // ---- Stage 1: k-mer analysis (Hashmap(S, k)) ----
  // Ends with the table extraction (the controller reading the counted
  // shards back out), so the stage's snapshot state — the extracted
  // (k-mer, freq) list — fully covers the stage's device traffic and a
  // resumed run reproduces the uninterrupted stats exactly.
  std::vector<std::pair<assembly::Kmer, std::uint32_t>> entries;
  if (resume_stage >= 1) {
    entries = snap.kmer_entries;
    result.distinct_kmers = snap.distinct_kmers;
    result.hashmap = {snap.hashmap, "hashmap"};
  } else {
    PIMA_TEL_SPAN("stage:hashmap");
    if (options.cancel != nullptr) options.cancel->throw_if_requested();
    submit_kmer_stream(*backend, reads, options.k, options.cancel);
    // K-mer count shuffle: each shard has one owner, so the merged table
    // is the shards concatenated in shard order — the (shard, slot) order
    // PimHashTable::extract() produces on one device.
    for (std::size_t s = 0; s < options.hash_shards; ++s) {
      auto part = backend->extract_shard(s);
      entries.insert(entries.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
    }
    result.distinct_kmers = backend->distinct_kmers();
    result.hashmap = fold_stage("hashmap");
    snap.distinct_kmers = result.distinct_kmers;
    snap.kmer_entries = entries;
    snap.hashmap = result.hashmap.device;
    commit_stage(1);
  }

  // ---- Stage 2a: de Bruijn construction (DeBruijn(Hashmap, k)) ----
  // Materialize the graph from the counted table. Node/edge MEM_inserts
  // land on the graph sub-arrays (one row write per insert, round-robin
  // over the shard range) — the construction is controller-sequenced but
  // storage-local, exactly the paper's MEM_insert traffic, here emitted as
  // a batched ROW_WRITE ISA program fanned out over the channels.
  if (resume_stage >= 2) {
    // from_edges() on the snapshot's edge list rebuilds the exact node ids
    // and adjacency the interrupted run had (the list is already in the
    // graph's sorted edge order).
    result.graph = assembly::DeBruijnGraph::from_edges(snap.graph_edges);
    result.debruijn = {snap.debruijn, "debruijn"};
  } else {
    PIMA_TEL_SPAN("stage:debruijn");
    if (options.cancel != nullptr) options.cancel->throw_if_requested();
    assembly::KmerCounter counter(entries.size());
    for (const auto& [km, freq] : entries) counter.insert_with_count(km, freq);
    result.graph = assembly::DeBruijnGraph::from_counter(
        counter, options.use_multiplicity);
    const auto& graph = result.graph;
    const std::size_t graph_base = options.hash_shards;
    const std::size_t graph_arrays = std::max<std::size_t>(
        1, std::min(options.hash_shards,
                    geometry.total_subarrays() - graph_base));
    const std::size_t data_rows = geometry.data_rows();
    const BitVector row_image(geometry.columns);
    SlicedProgram inserts(*backend, options.cancel);
    std::size_t rr = 0;
    auto mem_insert = [&] {
      dram::Instruction inst;
      inst.op = dram::Opcode::kRowWrite;
      inst.subarray = graph_base + (rr++ % graph_arrays);
      // Adjacency/edge-list rows are appended cyclically over data rows.
      inst.src1 = (rr / graph_arrays) % data_rows;
      inst.payload = row_image;
      inserts.push(std::move(inst));
    };
    for (std::size_t e = 0; e < graph.edge_count(); ++e) {
      mem_insert();  // node 1 (prefix) insert
      mem_insert();  // node 2 (suffix) insert
      mem_insert();  // edge-list insert
    }
    inserts.finish();
    result.debruijn = fold_stage("debruijn");
    snap.graph_edges.clear();
    snap.graph_edges.reserve(graph.edge_count());
    for (const auto& e : graph.edges())
      snap.graph_edges.emplace_back(e.kmer, e.multiplicity);
    snap.debruijn = result.debruijn.device;
    commit_stage(2);
  }
  const auto& graph = result.graph;
  result.graph_nodes = graph.node_count();
  result.graph_edges = graph.edge_count();

  // ---- Stage 2b: traversal (Traverse(G)) ----
  if (resume_stage >= 3) {
    result.contigs = snap.contigs;
    result.traverse = {snap.traverse, "traverse"};
  } else {
    PIMA_TEL_SPAN("stage:traverse");
    if (options.cancel != nullptr) options.cancel->throw_if_requested();
    const GraphPartition partition =
        partition_fitting(graph, geometry, options.graph_intervals);
    // The controller uses the PIM-computed degrees to pick Euler start
    // vertices; the walk itself streams edge lookups (one row read each),
    // batched into per-channel ROW_READ programs. Contigs stay in walk
    // order for any device count.
    backend->run_degree_blocks(graph, partition);
    result.contigs =
        options.euler_contigs
            ? assembly::contigs_from_euler(graph, options.traversal)
            : assembly::contigs_from_unitigs(graph);
    const std::size_t arrays = std::max<std::size_t>(1, options.hash_shards);
    const std::size_t data_rows = geometry.data_rows();
    SlicedProgram lookups(*backend, options.cancel);
    std::size_t rr = 0;
    for (std::uint64_t e = 0; e < graph.edge_instances(); ++e) {
      dram::Instruction inst;
      inst.op = dram::Opcode::kRowRead;
      inst.subarray = rr++ % arrays;
      inst.src1 = (rr / arrays) % data_rows;
      lookups.push(std::move(inst));
    }
    lookups.finish();
    result.traverse = fold_stage("traverse");
    snap.contigs = result.contigs;
    snap.traverse = result.traverse.device;
    commit_stage(3);
  }

  result.contig_stats = assembly::compute_stats(result.contigs);
  result.fault_stats = fault_now();
  if (options.capture_trace) result.trace = backend->captured_program();
  if (telemetry::metrics_enabled()) {
    auto& registry = telemetry::metrics();
    backend->export_metrics(registry);
    registry
        .gauge("pima_pipeline_distinct_kmers", "distinct k-mers counted")
        .set(static_cast<double>(result.distinct_kmers));
    registry.gauge("pima_pipeline_graph_nodes", "de Bruijn graph nodes")
        .set(static_cast<double>(result.graph_nodes));
    registry.gauge("pima_pipeline_graph_edges", "de Bruijn graph edges")
        .set(static_cast<double>(result.graph_edges));
    registry.gauge("pima_pipeline_contigs", "contigs produced")
        .set(static_cast<double>(result.contigs.size()));
  }
  return result;
}

}  // namespace

PipelineResult run_pipeline(dram::Device& device,
                            const std::vector<dna::Sequence>& reads,
                            const PipelineOptions& options) {
  PIMA_CHECK(options.devices >= 1, "need at least one device");
  // The de Bruijn stage writes its graph past the hash shards, so at least
  // one sub-array must be left over; checked before stage 1 runs.
  const std::size_t subarrays = device.geometry().total_subarrays();
  if (options.hash_shards >= subarrays)
    throw SimulationError(
        std::to_string(options.hash_shards) + " hash shards leave no " +
        "sub-array for the de Bruijn graph: the device has " +
        std::to_string(subarrays) + " sub-arrays, so use at most " +
        std::to_string(subarrays - 1) + " shards");
  if (options.isolate) {
    if (options.fault.enabled() ||
        options.recovery.mode != runtime::RecoveryMode::kOff)
      throw SimulationError(
          "process isolation with fault injection or recovery is "
          "unsupported: the fault model's per-sub-array RNG streams and the "
          "recovery layer's probe routing are in-process state the worker "
          "init request does not carry — run --isolate fault-free, or drop "
          "--isolate");
    try {
      return run_stages(device, reads, options, /*isolated=*/true);
    } catch (const runtime::ProcPoolDegradedError& e) {
      if (!options.isolate_opts.allow_degrade)
        throw WorkerCrashedError(e.device(),
                                 runtime::to_string(e.exit_class()),
                                 e.detail());
      // Typed, logged transition: same run, same outputs, one address
      // space. The device is untouched so far — every isolated-run write
      // happened inside the (now dead) workers.
      telemetry::log_event(
          telemetry::LogLevel::kWarn, "pool.fallback",
          std::string("process isolation degraded — ") + e.what() +
              "; rerunning on the in-process device pool",
          {telemetry::LogField::uint("device", e.device()),
           telemetry::LogField::str("class",
                                    runtime::to_string(e.exit_class()))});
    }
  }
  return run_stages(device, reads, options, /*isolated=*/false);
}

}  // namespace pima::core
