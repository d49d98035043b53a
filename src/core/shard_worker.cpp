#include "core/shard_worker.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/degree.hpp"
#include "dram/isa.hpp"
#include "telemetry/session.hpp"

namespace pima::core {

namespace {

net::Json ok_response() {
  net::Json j = net::Json::object();
  j.set("ok", true);
  return j;
}

[[noreturn]] void bad_request(const std::string& why) {
  throw InputFormatError("device worker request: " + why);
}

// Span names must be string literals (the trace ring stores pointers).
const char* verb_span_name(const std::string& op) {
  if (op == "kmers") return "devd:kmers";
  if (op == "drain") return "devd:drain";
  if (op == "extract") return "devd:extract";
  if (op == "distinct") return "devd:distinct";
  if (op == "program") return "devd:program";
  if (op == "degree_block") return "devd:degree_block";
  if (op == "stats") return "devd:stats";
  if (op == "clear_stats") return "devd:clear_stats";
  if (op == "trace") return "devd:trace";
  if (op == "telemetry") return "devd:telemetry";
  if (op == "ping") return "devd:ping";
  if (op == "shutdown") return "devd:shutdown";
  return "devd:rpc";
}

}  // namespace

net::Json worker_init_to_json(const WorkerInit& init) {
  net::Json j = net::Json::object();
  j.set("op", "init");
  j.set("device", init.device);
  j.set("devices", init.devices);
  net::Json geom = net::Json::object();
  geom.set("rows", init.geometry.rows);
  geom.set("compute_rows", init.geometry.compute_rows);
  geom.set("columns", init.geometry.columns);
  geom.set("subarrays_per_mat", init.geometry.subarrays_per_mat);
  geom.set("mats_per_bank", init.geometry.mats_per_bank);
  geom.set("banks", init.geometry.banks);
  j.set("geometry", std::move(geom));
  // Exact wire image of the modelled technology: the worker's cost model
  // must be the parent's, or stats would drift from the in-process run.
  net::Json tech = net::Json::array();
  const auto& t = init.technology;
  for (const double v :
       {t.tech.vdd, t.tech.cell_cap_ff, t.tech.bitline_cap_ff,
        t.tech.inverter_gain, t.timing.t_rcd_ns, t.timing.t_ras_ns,
        t.timing.t_rp_ns, t.timing.t_cl_ns, t.timing.t_bl_ns,
        t.energy.e_activate_pj, t.energy.e_precharge_pj,
        t.energy.e_multirow_extra_pj, t.energy.e_sa_logic_pj,
        t.energy.e_dpu_pj, t.energy.e_read_col_pj, t.energy.e_write_col_pj,
        t.energy.static_power_w})
    tech.push_back(net::Json(v));
  j.set("technology", std::move(tech));
  j.set("k", init.k);
  j.set("hash_shards", init.hash_shards);
  j.set("channels", init.channels);
  j.set("queue_capacity", init.queue_capacity);
  j.set("program_chunk", init.program_chunk);
  j.set("capture_trace", init.capture_trace);
  j.set("trace_spans", init.trace_spans);
  j.set("stall_timeout_ms", init.stall_timeout_ms);
  return j;
}

WorkerInit worker_init_from_json(const net::Json& j) {
  WorkerInit init;
  init.device = static_cast<std::size_t>(j.get_uint64("device"));
  init.devices = static_cast<std::size_t>(j.get_uint64("devices", 1));
  if (!j.has("geometry") || !j.get("geometry").is_object())
    bad_request("init needs a geometry object");
  const net::Json& geom = j.get("geometry");
  init.geometry.rows = static_cast<std::size_t>(geom.get_uint64("rows"));
  init.geometry.compute_rows =
      static_cast<std::size_t>(geom.get_uint64("compute_rows"));
  init.geometry.columns = static_cast<std::size_t>(geom.get_uint64("columns"));
  init.geometry.subarrays_per_mat =
      static_cast<std::size_t>(geom.get_uint64("subarrays_per_mat"));
  init.geometry.mats_per_bank =
      static_cast<std::size_t>(geom.get_uint64("mats_per_bank"));
  init.geometry.banks = static_cast<std::size_t>(geom.get_uint64("banks"));
  if (!j.has("technology") || !j.get("technology").is_array() ||
      j.get("technology").items().size() != 17)
    bad_request("init needs the 17-field technology array");
  const auto& tech = j.get("technology").items();
  auto& t = init.technology;
  double* slots[17] = {&t.tech.vdd,
                       &t.tech.cell_cap_ff,
                       &t.tech.bitline_cap_ff,
                       &t.tech.inverter_gain,
                       &t.timing.t_rcd_ns,
                       &t.timing.t_ras_ns,
                       &t.timing.t_rp_ns,
                       &t.timing.t_cl_ns,
                       &t.timing.t_bl_ns,
                       &t.energy.e_activate_pj,
                       &t.energy.e_precharge_pj,
                       &t.energy.e_multirow_extra_pj,
                       &t.energy.e_sa_logic_pj,
                       &t.energy.e_dpu_pj,
                       &t.energy.e_read_col_pj,
                       &t.energy.e_write_col_pj,
                       &t.energy.static_power_w};
  for (std::size_t i = 0; i < 17; ++i) *slots[i] = tech[i].as_number();
  init.k = static_cast<std::size_t>(j.get_uint64("k"));
  init.hash_shards = static_cast<std::size_t>(j.get_uint64("hash_shards", 1));
  init.channels = static_cast<std::size_t>(j.get_uint64("channels", 1));
  init.queue_capacity =
      static_cast<std::size_t>(j.get_uint64("queue_capacity", 64));
  init.program_chunk =
      static_cast<std::size_t>(j.get_uint64("program_chunk", 512));
  init.capture_trace = j.get_bool("capture_trace", false);
  init.trace_spans = j.get_bool("trace_spans", false);
  init.stall_timeout_ms = j.get_number("stall_timeout_ms", 0.0);
  if (init.k < 1 || init.k > assembly::Kmer::kMaxK)
    bad_request("init k out of range");
  if (init.hash_shards < 1) bad_request("init hash_shards out of range");
  return init;
}

net::Json verb_request(const char* op) {
  net::Json j = net::Json::object();
  j.set("op", op);
  return j;
}

net::Json kmers_request(std::size_t channel,
                        const std::vector<assembly::Kmer>& batch) {
  net::Json req = verb_request("kmers");
  req.set("channel", static_cast<std::uint64_t>(channel));
  net::Json arr = net::Json::array();
  for (const auto& kmer : batch) arr.push_back(net::Json(kmer.packed()));
  req.set("kmers", std::move(arr));
  return req;
}

net::Json extract_request(std::size_t shard) {
  net::Json req = verb_request("extract");
  req.set("shard", static_cast<std::uint64_t>(shard));
  return req;
}

net::Json program_request(const dram::Program& program) {
  net::Json req = verb_request("program");
  req.set("text", dram::to_text(program));
  return req;
}

net::Json degree_block_request(const std::vector<DegreeKernel>& kernels) {
  net::Json arr = net::Json::array();
  for (const DegreeKernel& kernel : kernels) {
    net::Json edges = net::Json::array();
    for (const auto& e : kernel.oriented().edges) {
      edges.push_back(net::Json(static_cast<std::uint64_t>(e.from)));
      edges.push_back(net::Json(static_cast<std::uint64_t>(e.to)));
      edges.push_back(net::Json(static_cast<std::uint64_t>(e.multiplicity)));
    }
    net::Json entry = net::Json::array();
    entry.push_back(net::Json(static_cast<std::uint64_t>(kernel.flat)));
    entry.push_back(net::Json(static_cast<std::uint64_t>(kernel.row_count)));
    entry.push_back(std::move(edges));
    arr.push_back(std::move(entry));
  }
  net::Json req = verb_request("degree_block");
  req.set("kernels", std::move(arr));
  return req;
}

std::vector<std::pair<assembly::Kmer, std::uint32_t>> extract_entries(
    const net::Json& response, std::size_t k) {
  std::vector<std::pair<assembly::Kmer, std::uint32_t>> out;
  for (const auto& pair : response.get("entries").items())
    out.emplace_back(assembly::Kmer(pair.items()[0].as_uint64(), k),
                     static_cast<std::uint32_t>(pair.items()[1].as_uint64()));
  return out;
}

std::vector<std::pair<std::size_t, dram::CommandStats>> stats_entries(
    const net::Json& response) {
  std::vector<std::pair<std::size_t, dram::CommandStats>> out;
  for (const auto& entry : response.get("subarrays").items()) {
    dram::CommandStats st;
    const auto& counts = entry.get("counts").items();
    for (std::size_t i = 0; i < dram::kCommandKindCount && i < counts.size();
         ++i)
      st.counts[i] = static_cast<std::size_t>(counts[i].as_uint64());
    st.wait_ns = entry.get_uint64("wait_ns");
    out.emplace_back(static_cast<std::size_t>(entry.get_uint64("flat")), st);
  }
  return out;
}

net::Json trace_page(const dram::Program& capture, std::size_t cursor,
                     std::size_t budget) {
  if (cursor > capture.size()) bad_request("trace cursor past the capture");
  std::string text;
  std::size_t next = cursor;
  for (; next < capture.size(); ++next) {
    const std::string line = dram::to_text(capture[next]) + '\n';
    if (next > cursor && text.size() + line.size() > budget) break;
    text += line;
  }
  net::Json resp = ok_response();
  resp.set("text", std::move(text));
  resp.set("next", static_cast<std::uint64_t>(next));
  resp.set("done", next == capture.size());
  return resp;
}

dram::Program fetch_trace(
    const std::function<net::Json(const net::Json&)>& query) {
  dram::Program program;
  std::uint64_t cursor = 0;
  for (bool done = false; !done;) {
    net::Json req = verb_request("trace");
    req.set("cursor", cursor);
    const net::Json page = query(req);
    std::istringstream in(page.get_string("text"));
    for (auto& inst : dram::parse_program(in))
      program.push_back(std::move(inst));
    const std::uint64_t next = page.get_uint64("next");
    done = page.get_bool("done");
    if (!done && next <= cursor)
      throw InputFormatError("trace page did not advance its cursor");
    cursor = next;
  }
  return program;
}

ShardWorkerCore::ShardWorkerCore(const net::Json& init)
    : init_(worker_init_from_json(init)),
      device_(init_.geometry, init_.technology),
      pool_(device_, 1) {
  runtime::EngineOptions eopt;
  eopt.channels = init_.channels;
  eopt.queue_capacity = init_.queue_capacity;
  eopt.program_chunk = init_.program_chunk;
  eopt.capture_trace = init_.capture_trace;
  eopt.stall_timeout_ms = init_.stall_timeout_ms;
  // A real worker thread even at channels == 1: the request loop must stay
  // responsive (heartbeats, liveness) while kernels execute.
  eopt.force_worker = true;
  engine_ = std::make_unique<runtime::Engine>(device_, eopt);
  table_ = std::make_unique<PimHashTable>(pool_, init_.hash_shards, 0,
                                          MappingPolicy::kCorrelated);
  table_->bind_key_length(init_.k);
}

ShardWorkerCore::~ShardWorkerCore() {
  engine_->quiesce();
  try {
    engine_->drain();
  } catch (...) {
  }
}

net::Json ShardWorkerCore::handle(const net::Json& request) {
  const std::string op = request.get_string("op");
  // One span per rpc verb; the controller stamps traced requests with a
  // `tel` flow id whose start point lives inside its own rpc:<op> span, so
  // Perfetto draws an arrow from the controller call to this execution.
  telemetry::ScopedSpan span(verb_span_name(op));
  {
    telemetry::Tracer& tr = telemetry::tracer();
    const std::uint64_t flow = request.get_uint64("tel", 0);
    if (flow != 0 && tr.enabled())
      tr.record_flow("rpc", 'f', flow, tr.now_ns());
  }
  if (op == "kmers") return op_kmers(request);
  if (op == "drain") return op_drain();
  if (op == "extract") return op_extract(request);
  if (op == "distinct") return op_distinct();
  if (op == "program") return op_program(request);
  if (op == "degree_block") return op_degree_block(request);
  if (op == "stats") return op_stats();
  if (op == "clear_stats") return op_clear_stats();
  if (op == "trace") return op_trace(request);
  if (op == "telemetry") return op_telemetry();
  if (op == "ping") return ok_response();
  if (op == "shutdown") {
    shutdown_ = true;
    return ok_response();
  }
  if (op == "init") bad_request("worker already initialized");
  bad_request("unknown op '" + op + "'");
}

net::Json ShardWorkerCore::op_kmers(const net::Json& req) {
  const std::size_t channel =
      static_cast<std::size_t>(req.get_uint64("channel"));
  if (!req.has("kmers") || !req.get("kmers").is_array())
    bad_request("kmers needs a packed-kmer array");
  std::vector<assembly::Kmer> batch;
  batch.reserve(req.get("kmers").items().size());
  for (const auto& item : req.get("kmers").items())
    batch.emplace_back(item.as_uint64(), init_.k);
  runtime::submit_or_surface(*engine_, [&] {
    engine_->submit(channel, [this, batch = std::move(batch)] {
      for (const auto& kmer : batch) table_->insert_or_increment(kmer);
    });
  });
  return ok_response();
}

net::Json ShardWorkerCore::op_drain() {
  engine_->drain();
  return ok_response();
}

net::Json ShardWorkerCore::op_extract(const net::Json& req) {
  const std::size_t shard = static_cast<std::size_t>(req.get_uint64("shard"));
  if (shard >= table_->shard_count()) bad_request("extract shard out of range");
  net::Json entries = net::Json::array();
  for (const auto& [kmer, freq] : table_->extract_shard(shard)) {
    net::Json pair = net::Json::array();
    pair.push_back(net::Json(kmer.packed()));
    pair.push_back(net::Json(static_cast<std::uint64_t>(freq)));
    entries.push_back(std::move(pair));
  }
  net::Json resp = ok_response();
  resp.set("entries", std::move(entries));
  return resp;
}

net::Json ShardWorkerCore::op_distinct() {
  net::Json resp = ok_response();
  resp.set("value", static_cast<std::uint64_t>(table_->distinct_kmers()));
  return resp;
}

net::Json ShardWorkerCore::op_program(const net::Json& req) {
  std::istringstream in(req.get_string("text"));
  dram::Program program;
  try {
    program = dram::parse_program(in);
  } catch (const PreconditionError& e) {
    // A malformed program line is a torn/corrupt frame from the parent's
    // point of view, not a worker bug.
    bad_request(std::string("unparseable program: ") + e.what());
  }
  runtime::submit_or_surface(
      *engine_, [&] { engine_->submit_program(std::move(program)); });
  return ok_response();
}

net::Json ShardWorkerCore::op_degree_block(const net::Json& req) {
  if (!req.has("kernels") || !req.get("kernels").is_array())
    bad_request("degree_block needs a kernel array");
  const dram::Geometry& geometry = device_.geometry();
  struct Kernel {
    std::size_t flat = 0;
    std::size_t row_count = 0;
    EdgeBlock block;
  };
  // Every kernel is validated before any is queued, so a malformed
  // request leaves the device untouched.
  std::vector<Kernel> kernels;
  kernels.reserve(req.get("kernels").items().size());
  for (const auto& item : req.get("kernels").items()) {
    if (!item.is_array() || item.items().size() != 3)
      bad_request("degree_block kernel must be [flat, row_count, edges]");
    const auto& fields = item.items();
    Kernel k{static_cast<std::size_t>(fields[0].as_uint64()),
             static_cast<std::size_t>(fields[1].as_uint64()),
             {}};
    if (k.flat >= geometry.total_subarrays())
      bad_request("degree_block flat index out of range");
    if (k.row_count > geometry.columns)
      bad_request("degree_block row count exceeds the row width");
    if (!fields[2].is_array() || fields[2].items().size() % 3 != 0)
      bad_request("degree_block edges must be (from, to, multiplicity) "
                  "triples");
    const auto& flat_edges = fields[2].items();
    // Rows the rendered kernel occupies: one per source vertex plus one
    // per extra edge instance (block_adjacency_rows).
    std::size_t rows = k.row_count;
    k.block.edges.reserve(flat_edges.size() / 3);
    for (std::size_t i = 0; i < flat_edges.size(); i += 3) {
      const std::uint64_t from = flat_edges[i].as_uint64();
      const std::uint64_t to = flat_edges[i + 1].as_uint64();
      const std::uint64_t mult = flat_edges[i + 2].as_uint64();
      if (from >= k.row_count)
        bad_request("degree_block edge source outside the kernel's rows");
      if (to >= geometry.columns)
        bad_request("degree_block edge destination outside the row width");
      if (mult < 1 || mult > geometry.data_rows())
        bad_request("degree_block edge multiplicity out of range");
      rows += mult - 1;
      k.block.edges.push_back({static_cast<std::uint32_t>(from),
                               static_cast<std::uint32_t>(to),
                               static_cast<std::uint32_t>(mult)});
    }
    if (rows > geometry.data_rows())
      bad_request("degree_block kernel needs more rows than a sub-array "
                  "holds");
    kernels.push_back(std::move(k));
  }
  runtime::submit_or_surface(*engine_, [&] {
    for (Kernel& k : kernels)
      engine_->submit_to_subarray(k.flat, [this, k = std::move(k)] {
        // Sums are discarded: the pipeline only keeps the device work (the
        // in-process backend discards DegreeResult the same way).
        (void)pim_column_sums(
            device_.subarray(k.flat),
            block_adjacency_rows(k.block, k.row_count,
                                 device_.geometry().columns));
      });
  });
  return ok_response();
}

net::Json ShardWorkerCore::op_stats() {
  const std::size_t total = device_.geometry().total_subarrays();
  net::Json subarrays = net::Json::array();
  for (std::size_t flat = 0; flat < total; ++flat) {
    const dram::Subarray* sa = device_.subarray_if(flat);
    if (sa == nullptr) continue;
    const dram::CommandStats& st = sa->stats();
    if (st.total_commands() == 0) continue;  // identity of StatsFold
    net::Json entry = net::Json::object();
    entry.set("flat", static_cast<std::uint64_t>(flat));
    net::Json counts = net::Json::array();
    for (const std::size_t c : st.counts)
      counts.push_back(net::Json(static_cast<std::uint64_t>(c)));
    entry.set("counts", std::move(counts));
    entry.set("wait_ns", st.wait_ns);
    subarrays.push_back(std::move(entry));
  }
  net::Json resp = ok_response();
  resp.set("subarrays", std::move(subarrays));
  return resp;
}

net::Json ShardWorkerCore::op_clear_stats() {
  device_.clear_stats();
  return ok_response();
}

net::Json ShardWorkerCore::op_trace(const net::Json& req) {
  // One paging pass walks the device once: the walk is taken at cursor 0
  // (or by a restarted worker, whose journal replay rebuilt the same
  // sinks) and dropped with the last page.
  const auto cursor = static_cast<std::size_t>(req.get_uint64("cursor"));
  if (cursor == 0 || !capture_) capture_ = dram::captured_program(device_);
  net::Json page = trace_page(*capture_, cursor, kTracePageBytes);
  if (page.get_bool("done")) capture_.reset();
  return page;
}

net::Json ShardWorkerCore::op_telemetry() {
  // Cumulative export: published ring prefixes only, so this is safe while
  // engine workers are still recording. The supervisor replaces this
  // incarnation's stored trace wholesale on every harvest, which makes the
  // repeat-at-stage-boundary flush idempotent.
  telemetry::Tracer& tr = telemetry::tracer();
  net::Json resp = ok_response();
  resp.set("now_ns", tr.now_ns());
  net::Json tracks = net::Json::array();
  for (const auto& [track, name] : tr.track_names()) {
    net::Json entry = net::Json::object();
    entry.set("track", static_cast<std::uint64_t>(track));
    entry.set("name", name);
    tracks.push_back(std::move(entry));
  }
  resp.set("tracks", std::move(tracks));
  // Positional event rows keep the wire line compact:
  // [name, phase, track, ts_ns, dur_ns, value, arg_name, flow_id].
  net::Json events = net::Json::array();
  for (const auto& e : tr.export_events()) {
    net::Json row = net::Json::array();
    row.push_back(net::Json(e.name));
    row.push_back(net::Json(std::string(1, e.phase)));
    row.push_back(net::Json(static_cast<std::uint64_t>(e.track)));
    row.push_back(net::Json(e.ts_ns));
    row.push_back(net::Json(e.dur_ns));
    row.push_back(net::Json(e.value));
    row.push_back(net::Json(e.arg_name));
    row.push_back(net::Json(e.flow_id));
    events.push_back(std::move(row));
  }
  resp.set("events", std::move(events));
  resp.set("dropped", tr.dropped_count());
  return resp;
}

const char* worker_error_type(const std::exception& e) {
  if (dynamic_cast<const EngineStalledError*>(&e) != nullptr)
    return "EngineStalledError";
  if (dynamic_cast<const CorruptCheckpointError*>(&e) != nullptr)
    return "CorruptCheckpointError";
  if (dynamic_cast<const IoError*>(&e) != nullptr) return "IoError";
  if (dynamic_cast<const InputFormatError*>(&e) != nullptr)
    return "InputFormatError";
  if (dynamic_cast<const CancelledError*>(&e) != nullptr)
    return "CancelledError";
  if (dynamic_cast<const PreconditionError*>(&e) != nullptr)
    return "PreconditionError";
  if (dynamic_cast<const SimulationError*>(&e) != nullptr)
    return "SimulationError";
  return "RuntimeError";
}

net::Json worker_error_response(const std::exception& e) {
  net::Json resp = net::Json::object();
  resp.set("ok", false);
  resp.set("error", worker_error_type(e));
  resp.set("message", std::string(e.what()));
  if (const auto* stalled = dynamic_cast<const EngineStalledError*>(&e)) {
    resp.set("channel", static_cast<std::uint64_t>(stalled->channel()));
    resp.set("subarray", static_cast<std::uint64_t>(stalled->subarray()));
    resp.set("last_retired", stalled->last_retired());
    resp.set("timeout_ms", stalled->timeout_ms());
  }
  return resp;
}

}  // namespace pima::core
