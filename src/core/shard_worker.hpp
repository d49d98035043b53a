// Device-worker core of the process-isolated runtime (DESIGN.md §15).
//
// `pima_devd` hosts exactly one device shard of an isolated pipeline run:
// a dram::Device, a runtime::Engine (with the watchdog, so a wedged kernel
// becomes a typed EngineStalledError instead of a silent hang) and the
// shard's slice of the PimHashTable. The parent supervisor drives it with
// newline-delimited JSON requests; this class is the transport-free verb
// dispatcher, so tests can exercise the protocol in-process and the
// `pima_devd` main() stays a thin I/O loop.
//
// Verbs (one request object per line, one response object per request):
//
//   init          geometry + technology + engine/table configuration
//   kmers         enqueue a k-mer batch on a channel (stage-1 insert path)
//   drain         barrier: wait for queued work, surface typed failures
//   extract       one hash shard's (k-mer, freq) entries in slot order
//   distinct      controller-side distinct-key count
//   program       parse + submit an AAP program slice (stages 2/3)
//   degree_block  queue every stage-3 degree kernel this worker owns, in
//                 walk order; each arrives as a sparse edge list in kernel
//                 orientation and its engine task renders the adjacency
//                 rows and runs pim_column_sums on its sub-array
//   stats         per-sub-array CommandStats (per-kind counts + wait_ns)
//                 of every touched sub-array
//   clear_stats   stage-boundary statistics reset
//   trace         one page of the worker's capture (oracle replay): whole
//                 instructions of dram::captured_program() from a cursor,
//                 at most kTracePageBytes of text, plus the next cursor
//   telemetry     cumulative span-buffer export for trace stitching
//   ping          liveness probe
//   shutdown      graceful exit handshake
//
// The controller's side of the table — request encoders and response
// decoders — lives here too (IsolatedBackend in shard_backend.hpp uses
// them), so this module owns the whole wire format.
//
// Determinism: the device state and statistics after any request sequence
// are a pure function of that sequence — the engine's per-sub-array
// ordering contract makes channel count irrelevant — which is what lets
// the supervisor replay a journal into a fresh worker after a crash and
// land on bit-identical state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/tech.hpp"
#include "core/degree.hpp"
#include "core/pim_hash_table.hpp"
#include "dram/device.hpp"
#include "dram/geometry.hpp"
#include "dram/isa.hpp"
#include "net/json.hpp"
#include "runtime/engine.hpp"
#include "runtime/shard.hpp"

namespace pima::core {

/// Configuration carried by the init request. Doubles ride the wire as
/// plain JSON numbers — the writer's shortest round-trip-exact rendering
/// reproduces them bit-for-bit on the worker side.
struct WorkerInit {
  dram::Geometry geometry;
  circuit::Technology technology;
  std::size_t device = 0;   ///< this worker's shard id (diagnostics)
  std::size_t devices = 1;  ///< total shard count (diagnostics)
  std::size_t k = 0;
  std::size_t hash_shards = 1;
  std::size_t channels = 1;
  std::size_t queue_capacity = 64;
  std::size_t program_chunk = 512;
  bool capture_trace = false;
  bool trace_spans = false;  ///< enable the worker's own telemetry tracer
  double stall_timeout_ms = 0.0;
};

/// Serializes a WorkerInit as the `init` request object.
net::Json worker_init_to_json(const WorkerInit& init);
/// Parses an `init` request; throws InputFormatError on malformed fields.
WorkerInit worker_init_from_json(const net::Json& j);

// ---- Controller side: request encoders ----

/// A request that carries only its verb (drain, distinct, stats, ...).
net::Json verb_request(const char* op);
net::Json kmers_request(std::size_t channel,
                        const std::vector<assembly::Kmer>& batch);
net::Json extract_request(std::size_t shard);
net::Json program_request(const dram::Program& program);
/// One worker's degree kernels, in walk order: `kernels` is an array of
/// [flat, row_count, [from, to, multiplicity, ...]], the edges of
/// DegreeKernel::oriented() flattened into triples.
net::Json degree_block_request(const std::vector<DegreeKernel>& kernels);

// ---- Controller side: response decoders ----

/// An `extract` response: the shard's (k-mer, frequency) entries.
std::vector<std::pair<assembly::Kmer, std::uint32_t>> extract_entries(
    const net::Json& response, std::size_t k);
/// A `stats` response: (flat, stats) of every touched sub-array.
std::vector<std::pair<std::size_t, dram::CommandStats>> stats_entries(
    const net::Json& response);

// ---- The paged `trace` verb ----

/// Program text one `trace` reply carries at most: whole instructions, with
/// the line far below net::LineChannel::kMaxLineBytes.
constexpr std::size_t kTracePageBytes = std::size_t{8} << 20;

/// The `trace` reply for the page of `capture` that starts at instruction
/// `cursor`: the instructions as program text, as many as fit in `budget`
/// bytes (at least one), plus the next cursor and whether the capture is
/// done.
net::Json trace_page(const dram::Program& capture, std::size_t cursor,
                     std::size_t budget);

/// Pages a worker's whole capture through `query` (which sends one `trace`
/// request and returns its reply), from cursor 0 until the reply says done.
dram::Program fetch_trace(
    const std::function<net::Json(const net::Json&)>& query);

class ShardWorkerCore {
 public:
  /// Constructs the device/engine/table from an `init` request.
  explicit ShardWorkerCore(const net::Json& init);
  ~ShardWorkerCore();

  /// Dispatches one non-init request and returns its ok-response. Typed
  /// pima exceptions escape to the caller (pima_devd converts them into
  /// `{"ok":false,"error":...}` lines; EngineStalledError additionally
  /// ends the process with the stall exit code — the engine is poisoned).
  net::Json handle(const net::Json& request);

  bool shutdown_requested() const { return shutdown_; }
  std::size_t device_index() const { return init_.device; }

 private:
  net::Json op_kmers(const net::Json& req);
  net::Json op_drain();
  net::Json op_extract(const net::Json& req);
  net::Json op_distinct();
  net::Json op_program(const net::Json& req);
  net::Json op_degree_block(const net::Json& req);
  net::Json op_stats();
  net::Json op_clear_stats();
  net::Json op_trace(const net::Json& req);
  net::Json op_telemetry();

  WorkerInit init_;
  dram::Device device_;
  runtime::DevicePool pool_;  ///< device_ alone, for the hash table
  std::unique_ptr<runtime::Engine> engine_;
  std::unique_ptr<PimHashTable> table_;
  bool shutdown_ = false;
  /// The capture being paged out by `trace` requests.
  std::optional<dram::Program> capture_;
};

/// Maps an exception to the wire error-type name the supervisor's
/// throw_worker_error() reconstructs (most-derived first, like
/// exit_code_for).
const char* worker_error_type(const std::exception& e);

/// Formats an exception as the `{"ok":false,...}` response object,
/// including EngineStalledError's reconstruction fields.
net::Json worker_error_response(const std::exception& e);

}  // namespace pima::core
