// perfbench_driver — one measurement of one benchmark workload.
//
// Each invocation generates a workload's genome and reads from a seed,
// runs the PIM-Assembler pipeline on them, checks the outputs and prints
// one JSON object on stdout. perfbench/run.py starts a fresh process per
// sample (peak RSS only ever grows within a process) and aggregates.
//
//   perfbench_driver sample --workload W --seed S [--scale full|smoke]
//                           [--inprocess]
//       Host time of one untraced run_pipeline call: wall, CPU (controller
//       plus reaped workers), peak RSS (controller plus workers), set-up
//       time, the run's model fingerprint, and the time of a fixed
//       calibration kernel run before and after (the host's speed).
//       --inprocess runs an isolated workload on the in-process device
//       pool instead (its fingerprint must be identical).
//
//   perfbench_driver layers --workload W --seed S --workdir DIR
//                           [--scale full|smoke]
//       The per-layer breakdown: paired untraced/traced runs, span and
//       histogram statistics, a metrics-on fingerprint run with per-stage
//       command counts by kind, direct timings of each module's public
//       entry points, and a single-thread replay of a captured program.
//
//   perfbench_driver inputs --workload W --seed S [--scale full|smoke]
//       Digest of the generated genome and reads (determinism self-test).
//
// All timings are host time (steady_clock, getrusage, /proc); simulated
// statistics only feed the fingerprint, which is a correctness check.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "assembly/contig.hpp"
#include "assembly/debruijn.hpp"
#include "assembly/hash_table.hpp"
#include "assembly/kmer.hpp"
#include "assembly/verify.hpp"
#include "common/error.hpp"
#include "core/degree.hpp"
#include "core/pim_hash_table.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_detail.hpp"
#include "dna/genome.hpp"
#include "dram/device.hpp"
#include "dram/isa.hpp"
#include "net/json.hpp"
#include "runtime/engine.hpp"
#include "runtime/procpool.hpp"
#include "runtime/recovery.hpp"
#include "runtime/shard.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/session.hpp"

namespace {

using namespace pima;
using Clock = std::chrono::steady_clock;
using net::Json;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  std::size_t length;         ///< genome bases
  std::size_t repeats;        ///< planted repeat copies
  std::size_t repeat_length;  ///< bases per repeat copy
  double coverage;            ///< read coverage
  std::size_t shards;         ///< hash-table sub-arrays
  std::size_t threads;        ///< engine channels per device
  std::size_t devices;        ///< simulated devices
  bool isolate;               ///< one pima_devd process per device
  double fault_variation;     ///< Table I variation; 0 = fault-free
};

// Sizes are fitted so one sample takes 0.3-1.5 s on a 4-vCPU host (tens of
// samples per run) and each workload keeps the layer mix it is in the
// benchmark for.
constexpr Workload kWorkloads[] = {
    // Traverse (in-array degree computation) issues most commands.
    {"w-traverse", 12000, 10, 300, 15.0, 64, 4, 1, false, 0.0},
    // The k-mer stage (hash probes, engine queues) dominates.
    {"deep-hashmap", 3000, 2, 150, 800.0, 32, 4, 1, false, 0.0},
    // Four pima_devd workers: the rpc transport and worker harvest.
    {"isolate-4dev", 5000, 2, 150, 15.0, 32, 1, 4, true, 0.0},
    // Fault injection with verify-retry recovery inside the array.
    {"faulty-retry", 3000, 2, 150, 250.0, 32, 4, 1, false, 0.12},
};

constexpr std::size_t kK = 17;
constexpr std::uint64_t kFaultSeed = 1;

const Workload& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// The reduced size the self-test runs at.
Workload scaled(Workload w, const std::string& scale) {
  if (scale == "full") return w;
  if (scale != "smoke")
    throw std::invalid_argument("unknown scale '" + scale + "'");
  w.length = std::max<std::size_t>(1500, w.length / 4);
  w.coverage = std::max(10.0, w.coverage / 4.0);
  return w;
}

struct Inputs {
  dna::Sequence genome;
  std::vector<dna::Sequence> reads;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  dna::GenomeParams gp;
  gp.length = w.length;
  gp.repeat_count = w.repeats;
  gp.repeat_length = w.repeat_length;
  gp.seed = seed;
  dna::ReadSamplerParams rp;
  rp.coverage = w.coverage;
  rp.seed = seed + 1;
  Inputs in;
  in.genome = dna::generate_genome(gp);
  in.reads = dna::sample_reads(in.genome, rp);
  return in;
}

/// The `pima_asm pim-run` device geometry.
dram::Geometry geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.columns = 256;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  return g;
}

/// The pima_devd next to this executable. A missing binary is an IoError
/// that names the path; the isolated run never falls back to in-process.
std::string devd_path() {
  const auto self = std::filesystem::read_symlink("/proc/self/exe");
  return runtime::resolve_devd_path(
      (self.parent_path() / "pima_devd").string());
}

core::PipelineOptions options_for(const Workload& w, bool inprocess) {
  core::PipelineOptions o;
  o.k = kK;
  o.hash_shards = w.shards;
  o.euler_contigs = false;  // unitigs, as `pima_asm pim-run` by default
  o.threads = w.threads;
  o.devices = w.devices;
  o.isolate = w.isolate && !inprocess;
  if (o.isolate) {
    o.isolate_opts.devd_path = devd_path();
    o.isolate_opts.allow_degrade = false;
  }
  if (w.fault_variation > 0.0) {
    o.fault.variation = w.fault_variation;
    // One simulated chip for every seed: the fault seed fixes its weak-cell
    // map, which sets how much retry work a run does (46k to 624k retries
    // over seeds 3-16 when it followed the benchmark seed), so only the
    // reads vary with the benchmark seed.
    o.fault.seed = kFaultSeed;
    o.recovery.mode = runtime::RecoveryMode::kRetry;
    // At the default budget every sub-array degrades to host recompute at
    // this variation and the recovery layer stops doing array work.
    o.recovery.subarray_failure_budget = 1'000'000;
  }
  return o;
}

// ---------------------------------------------------------------- host probes

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double self_and_children_cpu() {
  return cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN);
}

double self_max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Reads a `key: value` field from a /proc file (0 when absent).
std::uint64_t proc_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':')
      return std::stoull(line.substr(key.size() + 1));
  return 0;
}

/// Polls this process's children (the pima_devd workers) while a run is in
/// flight: each child's peak resident set (VmHWM) and bytes read (rchar,
/// i.e. the requests the controller sent it). A child's last poll lands at
/// most one period before it exits.
class ChildSampler {
 public:
  ChildSampler() : thread_([this] { loop(); }) {}
  ~ChildSampler() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    stop_ = true;
    thread_.join();
  }
  /// Σ over children of their peak RSS (MiB); call after stop().
  double peak_rss_mb() const { return sum(peak_kib_) / 1024.0; }
  /// Σ over children of the bytes they read (MB); call after stop().
  double read_mb() const { return sum(read_bytes_) / 1e6; }

 private:
  static double sum(const std::map<long, std::uint64_t>& m) {
    double total = 0.0;
    for (const auto& [pid, v] : m) total += static_cast<double>(v);
    return total;
  }
  void loop() {
    while (!stop_) {
      poll();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  void poll() {
    std::error_code ec;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      std::ifstream in(task.path() / "children");
      long pid = 0;
      while (in >> pid) {
        const std::string proc = "/proc/" + std::to_string(pid);
        auto& peak = peak_kib_[pid];
        peak = std::max(peak, proc_field(proc + "/status", "VmHWM"));
        auto& read = read_bytes_[pid];
        read = std::max(read, proc_field(proc + "/io", "rchar"));
      }
    }
  }

  std::atomic<bool> stop_{false};
  std::map<long, std::uint64_t> peak_kib_;
  std::map<long, std::uint64_t> read_bytes_;
  std::thread thread_;
};

// ---------------------------------------------------------------- fingerprint

constexpr dram::CommandKind kKinds[] = {
    dram::CommandKind::kAapCopy,  dram::CommandKind::kAapTwoRow,
    dram::CommandKind::kAapTra,   dram::CommandKind::kSumCycle,
    dram::CommandKind::kDpuReduce, dram::CommandKind::kRowRead,
    dram::CommandKind::kRowWrite};

using KindCounts = std::map<std::string, std::uint64_t>;

/// Cumulative per-kind command counters of the session registry.
KindCounts registry_kind_counts() {
  auto& reg = telemetry::TelemetrySession::instance().metrics();
  KindCounts out;
  for (const auto kind : kKinds) {
    const std::string name(dram::to_string(kind));
    out[name] = static_cast<std::uint64_t>(
        reg.counter("pima_dram_commands_total",
                    "DRAM commands by command kind", {{"kind", name}})
            .value());
  }
  return out;
}

Json kinds_json(const KindCounts& k) {
  Json o = Json::object();
  for (const auto& [name, n] : k) o.set(name, n);
  return o;
}

/// The run's simulated outcome: per-stage command totals (and, when known,
/// counts by kind), time and energy, graph and contig shape, fault counters.
Json fingerprint_json(const core::PipelineResult& r,
                      const std::vector<KindCounts>* stage_kinds) {
  Json stages = Json::object();
  const core::StageStats* all[] = {&r.hashmap, &r.debruijn, &r.traverse};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& d = all[i]->device;
    Json s = Json::object();
    s.set("commands", d.commands)
        .set("subarrays", d.subarrays_used)
        .set("time_ns", d.time_ns)
        .set("energy_pj", d.energy_pj);
    if (stage_kinds != nullptr) s.set("kinds", kinds_json((*stage_kinds)[i]));
    stages.set(all[i]->name, std::move(s));
  }
  const auto& f = r.fault_stats;
  Json fault = Json::object();
  fault.set("injected", f.injected)
      .set("detected", f.detected)
      .set("retried", f.retried)
      .set("remapped", f.remapped)
      .set("escaped", f.escaped)
      .set("vote_corrections", f.vote_corrections)
      .set("host_fallbacks", f.host_fallbacks)
      .set("degraded_subarrays", f.degraded_subarrays);
  Json o = Json::object();
  o.set("stages", std::move(stages))
      .set("distinct_kmers", r.distinct_kmers)
      .set("graph_nodes", r.graph_nodes)
      .set("graph_edges", r.graph_edges)
      .set("contigs", r.contig_stats.count)
      .set("n50", r.contig_stats.n50)
      .set("total_length", r.contig_stats.total_length)
      .set("fault", std::move(fault));
  return o;
}

Json verify_json(const Inputs& in, const core::PipelineResult& r) {
  const auto v = assembly::verify_contigs(in.genome, r.contigs, 2 * kK);
  Json o = Json::object();
  o.set("ok", v.all_match() && v.contigs_checked > 0)
      .set("checked", v.contigs_checked)
      .set("matching", v.contigs_matching)
      .set("coverage", v.reference_coverage);
  return o;
}

// ---------------------------------------------------------------- host speed

constexpr int kCalibThreads = 4;
constexpr long kCalibSteps = 800'000;

/// One thread's share of the calibration work: majority steps over
/// 256-bit rows of a private 512 KiB row store, each result a fresh heap
/// row that replaces an operand, the shape of the simulator's sub-array
/// kernels. The store is one mapping, returned to the system on exit, so
/// it leaves no trace in the sample's peak RSS.
std::uint64_t calibration_steps(std::uint64_t seed) {
  constexpr std::size_t kRows = 1u << 14;
  constexpr std::size_t kWords = 4;
  std::vector<std::uint64_t> store(kRows * kWords);
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull | 1u;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (auto& word : store) word = next();
  std::uint64_t acc = 0;
  for (long i = 0; i < kCalibSteps; ++i) {
    const std::uint64_t r = next();
    const std::uint64_t* a = &store[(r % kRows) * kWords];
    const std::uint64_t* b = &store[((r >> 20) % kRows) * kWords];
    std::uint64_t* c = &store[((r >> 40) % kRows) * kWords];
    std::vector<std::uint64_t> maj(kWords);
    for (std::size_t k = 0; k < kWords; ++k) {
      maj[k] = (a[k] & b[k]) | (a[k] & c[k]) | (b[k] & c[k]);
      acc += static_cast<std::uint64_t>(__builtin_popcountll(maj[k]));
    }
    for (std::size_t k = 0; k < kWords; ++k) c[k] = maj[k] ^ a[k];
  }
  return acc;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds a fixed piece of reference work takes, the mean over
/// kCalibThreads threads that run it at once. The work never changes with
/// the program, so the figure measures only how fast the host's cores
/// execute right now (a shared host's neighbours slow them down by up to
/// 2x for minutes); run.py scales each sample's host times by it. CPU time
/// rather than wall time, so that time spent waiting for a core is not
/// taken for a slow core.
double calibrate() {
  std::vector<double> cpu_s(kCalibThreads);
  std::vector<std::uint64_t> out(kCalibThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kCalibThreads; ++t)
      threads.emplace_back([&cpu_s, &out, t] {
        const double t0 = thread_cpu_seconds();
        out[t] = calibration_steps(static_cast<std::uint64_t>(t) + 1);
        cpu_s[t] = thread_cpu_seconds() - t0;
      });
  }
  // Using the results keeps the compiler from dropping the work.
  std::uint64_t sum = 0;
  for (const auto v : out) sum += v;
  if (sum == 0) throw std::logic_error("calibration produced no work");
  double total = 0.0;
  for (const double s : cpu_s) total += s;
  return total / kCalibThreads;
}

// ---------------------------------------------------------------- sample

int cmd_sample(const Workload& w, std::uint64_t seed, bool inprocess) {
  const double calib_before_s = calibrate();
  const auto t_gen = Clock::now();
  const Inputs in = make_inputs(w, seed);
  const double generate_s = seconds_since(t_gen);
  const auto t_dev = Clock::now();
  dram::Device device(geometry());
  const double device_s = seconds_since(t_dev);
  const core::PipelineOptions opt = options_for(w, inprocess);

  std::unique_ptr<ChildSampler> workers;
  if (opt.isolate) workers = std::make_unique<ChildSampler>();
  const double cpu0 = self_and_children_cpu();
  const auto t_run = Clock::now();
  const core::PipelineResult r = core::run_pipeline(device, in.reads, opt);
  const double wall_s = seconds_since(t_run);
  const double cpu_s = self_and_children_cpu() - cpu0;
  if (workers) workers->stop();
  const double peak_rss_mb =
      self_max_rss_mb() + (workers ? workers->peak_rss_mb() : 0.0);
  const double calib_after_s = calibrate();

  Json o = Json::object();
  o.set("mode", "sample")
      .set("workload", w.name)
      .set("seed", seed)
      .set("isolated", opt.isolate)
      .set("reads", in.reads.size())
      .set("calib_s", 0.5 * (calib_before_s + calib_after_s))
      .set("wall_s", wall_s)
      .set("cpu_s", cpu_s)
      .set("peak_rss_mb", peak_rss_mb)
      .set("generate_s", generate_s)
      .set("device_s", device_s)
      .set("setup_s", generate_s + device_s)
      .set("sim_commands", r.total().commands)
      .set("verify", verify_json(in, r))
      .set("fingerprint", fingerprint_json(r, nullptr));
  std::printf("%s\n", o.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------- inputs

std::uint64_t fnv1a(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * 1099511628211ull;
}

std::uint64_t digest(const std::vector<dna::Sequence>& seqs) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& s : seqs) {
    for (std::size_t i = 0; i < s.size(); ++i)
      h = fnv1a(h, static_cast<std::uint8_t>(s.at(i)));
    h = fnv1a(h, 0xff);  // record separator
  }
  return h;
}

int cmd_inputs(const Workload& w, std::uint64_t seed) {
  const Inputs in = make_inputs(w, seed);
  char genome_hex[20];
  char reads_hex[20];
  std::snprintf(genome_hex, sizeof genome_hex, "%016llx",
                static_cast<unsigned long long>(digest({in.genome})));
  std::snprintf(reads_hex, sizeof reads_hex, "%016llx",
                static_cast<unsigned long long>(digest(in.reads)));
  Json o = Json::object();
  o.set("mode", "inputs")
      .set("workload", w.name)
      .set("seed", seed)
      .set("genome_bases", in.genome.size())
      .set("reads", in.reads.size())
      .set("genome_digest", genome_hex)
      .set("reads_digest", reads_hex);
  std::printf("%s\n", o.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------- layers

/// Per-layer metric table: name → {value, unit}, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    Json m = Json::object();
    m.set("value", value).set("unit", unit);
    table_.set(name, std::move(m));
  }
  const Json& json() const { return table_; }

 private:
  Json table_ = Json::object();
};

struct Span {
  std::string name;
  std::int64_t pid = 1;  ///< 1 = this process (Tracer convention)
  std::uint32_t track = 0;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Every complete ('X') span of the traced run: this process's buffers
/// directly, each worker process's from the stitched Chrome JSON.
std::vector<Span> collect_spans(const telemetry::Tracer& tr) {
  std::vector<Span> spans;
  for (const auto& e : tr.export_events())
    if (e.phase == 'X')
      spans.push_back({e.name, 1, e.track, e.ts_ns, e.dur_ns});
  if (tr.process_count() == 0) return spans;
  std::istringstream lines(tr.chrome_json());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"name\"", 0) != 0) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    const Json ev = Json::parse(line);
    if (ev.get_string("ph") != "X") continue;
    const auto pid = static_cast<std::int64_t>(ev.get_number("pid"));
    if (pid == 1) continue;
    spans.push_back({ev.get_string("name"), pid,
                     static_cast<std::uint32_t>(ev.get_number("tid")),
                     std::llround(ev.get_number("ts") * 1000.0),
                     std::llround(ev.get_number("dur") * 1000.0)});
  }
  return spans;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct StageBreakdown {
  std::string stage;
  double span_s = 0.0;
  std::map<std::string, double> children_s;  ///< direct children by name
  double residual_s = 0.0;
};

/// Stage span minus its direct child spans on the controller's main track.
/// Children are the outermost spans nested in the stage, so children plus
/// the residual add up to the stage span exactly.
StageBreakdown stage_breakdown(const std::vector<Span>& spans,
                               const std::string& stage) {
  StageBreakdown b;
  b.stage = stage;
  const Span* s = nullptr;
  for (const auto& sp : spans)
    if (sp.pid == 1 && sp.track == runtime::Engine::kMainTrack &&
        sp.name == "stage:" + stage)
      s = &sp;
  if (s == nullptr) return b;
  std::vector<const Span*> inner;
  for (const auto& sp : spans)
    if (&sp != s && sp.pid == 1 && sp.track == s->track &&
        sp.ts_ns >= s->ts_ns && sp.ts_ns + sp.dur_ns <= s->ts_ns + s->dur_ns)
      inner.push_back(&sp);
  std::sort(inner.begin(), inner.end(), [](const Span* a, const Span* b2) {
    return a->ts_ns != b2->ts_ns ? a->ts_ns < b2->ts_ns
                                 : a->dur_ns > b2->dur_ns;
  });
  std::int64_t covered_until = s->ts_ns;
  std::int64_t children_ns = 0;
  for (const Span* c : inner) {
    if (c->ts_ns < covered_until) continue;  // nested in an earlier child
    b.children_s[c->name] += 1e-9 * static_cast<double>(c->dur_ns);
    children_ns += c->dur_ns;
    covered_until = c->ts_ns + c->dur_ns;
  }
  b.span_s = 1e-9 * static_cast<double>(s->dur_ns);
  b.residual_s = 1e-9 * static_cast<double>(s->dur_ns - children_ns);
  return b;
}

Json breakdown_json(const StageBreakdown& b) {
  Json children = Json::object();
  for (const auto& [name, s] : b.children_s) children.set(name, s);
  Json o = Json::object();
  o.set("stage", b.stage)
      .set("span_s", b.span_s)
      .set("children_s", std::move(children))
      .set("residual_s", b.residual_s);
  return o;
}

struct IoCounters {
  std::uint64_t rchar = 0;
  std::uint64_t wchar = 0;
};

IoCounters io_now() {
  return {proc_field("/proc/self/io", "rchar"),
          proc_field("/proc/self/io", "wchar")};
}

/// The rpc verbs the isolated pipeline issues.
constexpr const char* kVerbs[] = {"kmers",   "drain",        "extract",
                                  "distinct", "program",     "degree_block",
                                  "stats",   "clear_stats",  "trace",
                                  "telemetry"};
/// Verbs with enough calls per run for a stable p99.
constexpr const char* kP99Verbs[] = {"kmers", "degree_block"};

constexpr double kLatencyBounds[] = {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};

/// Wall seconds of one run_pipeline call on a fresh device.
double timed_run(const Inputs& in, const core::PipelineOptions& opt,
                 core::PipelineResult* out = nullptr) {
  dram::Device device(geometry());
  const auto t0 = Clock::now();
  core::PipelineResult r = core::run_pipeline(device, in.reads, opt);
  const double s = seconds_since(t0);
  if (out != nullptr) *out = std::move(r);
  return s;
}

/// Streams the reads' k-mers through a pool-backed PimHashTable the way
/// the pipeline's k-mer stage does (batches per owning channel), then reads
/// the table back. Returns the extracted (k-mer, count) entries.
std::vector<std::pair<assembly::Kmer, std::uint32_t>> hashmap_module(
    const core::PipelineOptions& opt, const Inputs& in, double* secs,
    std::uint64_t* kmers) {
  dram::Device primary(geometry());
  runtime::DevicePool pool(primary, opt.devices);
  runtime::EngineOptions eo;
  eo.channels = opt.threads;
  runtime::PoolRunner runner(pool, eo);
  pool.enable_faults(opt.fault);
  std::unique_ptr<runtime::RecoveryManager> recovery;
  if (opt.fault.enabled())
    recovery = std::make_unique<runtime::RecoveryManager>(pool, opt.recovery);
  core::PimHashTable table(pool, opt.hash_shards);
  table.bind_key_length(opt.k);
  table.attach_recovery(recovery.get());

  constexpr std::size_t kBatch = 128;
  std::vector<std::size_t> slot_base(runner.devices() + 1, 0);
  for (std::size_t d = 0; d < runner.devices(); ++d)
    slot_base[d + 1] = slot_base[d] + runner.engine(d).channels();
  std::vector<std::vector<assembly::Kmer>> pending(slot_base.back());
  const auto flush = [&](std::size_t d, std::size_t c) {
    auto& batch = pending[slot_base[d] + c];
    if (batch.empty()) return;
    runner.engine(d).submit(c, [&table, b = std::move(batch)] {
      for (const auto& km : b) table.insert_or_increment(km);
    });
    batch = {};
  };
  std::uint64_t n = 0;
  const auto t0 = Clock::now();
  for (const auto& read : in.reads) {
    if (read.size() < opt.k) continue;
    assembly::Kmer window = assembly::Kmer::from_sequence(read, 0, opt.k);
    for (std::size_t i = 0;; ++i) {
      const std::size_t flat =
          table.shard_subarray_flat(table.shard_for(window));
      const std::size_t d = runner.owner_of(flat);
      const std::size_t c = runner.engine(d).channel_of(flat);
      auto& batch = pending[slot_base[d] + c];
      batch.push_back(window);
      ++n;
      if (batch.size() >= kBatch) flush(d, c);
      if (i + opt.k >= read.size()) break;
      window = window.rolled(read.at(i + opt.k));
    }
  }
  for (std::size_t d = 0; d < runner.devices(); ++d)
    for (std::size_t c = 0; c < runner.engine(d).channels(); ++c) flush(d, c);
  runner.drain();
  auto entries = table.extract();
  *secs = seconds_since(t0);
  *kmers = n;
  return entries;
}

/// Single-thread dram::execute replay of a bounded sample of a captured
/// program: per command kind, up to kReplayPerKind instructions of that
/// kind in program order, timed as one batch on a fresh device.
void replay_module(const Workload& w, std::uint64_t seed, Metrics& m) {
  constexpr std::size_t kReplayPerKind = 20'000;
  // A small input of the same shape keeps the capture bounded.
  Workload tiny = w;
  tiny.length = 1500;
  tiny.coverage = std::min(w.coverage, 60.0);
  const Inputs in = make_inputs(tiny, seed);
  core::PipelineOptions opt = options_for(tiny, true);
  opt.capture_trace = true;
  core::PipelineResult r;
  timed_run(in, opt, &r);

  std::map<dram::CommandKind, dram::Program> by_kind;
  for (auto& inst : r.trace) {
    dram::CommandKind kind;
    switch (inst.op) {
      case dram::Opcode::kAapCopy: kind = dram::CommandKind::kAapCopy; break;
      case dram::Opcode::kAapXnor:
      case dram::Opcode::kAapXor: kind = dram::CommandKind::kAapTwoRow; break;
      case dram::Opcode::kAapTra: kind = dram::CommandKind::kAapTra; break;
      case dram::Opcode::kSum: kind = dram::CommandKind::kSumCycle; break;
      case dram::Opcode::kRowWrite: kind = dram::CommandKind::kRowWrite; break;
      case dram::Opcode::kRowRead: kind = dram::CommandKind::kRowRead; break;
      case dram::Opcode::kDpuAnd:
      case dram::Opcode::kDpuOr:
      case dram::Opcode::kDpuPopcount:
        kind = dram::CommandKind::kDpuReduce;
        break;
      default: continue;  // latch resets are uncosted
    }
    auto& p = by_kind[kind];
    if (p.size() < kReplayPerKind) p.push_back(std::move(inst));
  }
  for (const auto kind : kKinds) {
    const std::string name(dram::to_string(kind));
    double ns_per_cmd = 0.0;
    if (auto it = by_kind.find(kind); it != by_kind.end()) {
      dram::Device device(geometry());
      device.enable_faults(opt.fault);
      // Instantiate the touched sub-arrays first: first-touch allocation
      // is not command execution.
      for (const auto& inst : it->second) device.subarray(inst.subarray);
      const auto t0 = Clock::now();
      dram::execute(device, it->second);
      const double s = seconds_since(t0);
      const auto cmds = device.roll_up().commands;
      if (cmds > 0) ns_per_cmd = 1e9 * s / static_cast<double>(cmds);
    }
    m.set("dram.ns_per_cmd." + name, ns_per_cmd, "ns");
  }
}

/// Engine: task execution per channel track, submit-to-retire latency
/// (the controller's engines; isolated workers run theirs out of process).
void engine_metrics(const std::vector<Span>& spans, std::size_t channels,
                    Metrics& m) {
  std::map<std::uint32_t, double> busy_by_track;
  double task_s = 0.0;
  for (const auto& sp : spans)
    if (sp.pid == 1 && sp.name == "task") {
      const double s = 1e-9 * static_cast<double>(sp.dur_ns);
      task_s += s;
      if (sp.track != runtime::Engine::kMainTrack) busy_by_track[sp.track] += s;
    }
  double max_busy = 0.0;
  double sum_busy = 0.0;
  for (const auto& [track, s] : busy_by_track) {
    max_busy = std::max(max_busy, s);
    sum_busy += s;
  }
  const double skew =
      sum_busy > 0.0
          ? max_busy / (sum_busy / static_cast<double>(busy_by_track.size()))
          : 1.0;
  auto& registry = telemetry::TelemetrySession::instance().metrics();
  const std::vector<double> bounds(std::begin(kLatencyBounds),
                                   std::end(kLatencyBounds));
  telemetry::Histogram latency(bounds);
  for (std::size_t c = 0; c < channels; ++c) {
    const auto& h = registry.histogram(
        "pima_engine_task_latency_ns",
        "submit to retire latency per channel (host ns)", bounds,
        {{"channel", std::to_string(c)}}, telemetry::MetricClass::kHost);
    std::vector<std::uint64_t> buckets(bounds.size() + 1);
    for (std::size_t i = 0; i < buckets.size(); ++i)
      buckets[i] = h.bucket_count(i);
    latency.merge_counts(buckets, h.sum());
  }
  m.set("runtime.engine.task_exec_s", task_s, "s");
  m.set("runtime.engine.task_latency_p50_us", latency.quantile(0.50) / 1e3,
        "us");
  m.set("runtime.engine.task_latency_p99_us", latency.quantile(0.99) / 1e3,
        "us");
  m.set("runtime.engine.channel_skew", skew, "ratio");
}

/// Process pool: controller-side rpc spans against worker-side spans.
void procpool_metrics(const std::vector<Span>& spans, Metrics& m) {
  std::map<std::string, std::vector<double>> rpc_us;
  double rpc_total_s = 0.0;
  std::map<std::int64_t, double> worker_s;
  for (const auto& sp : spans) {
    const double s = 1e-9 * static_cast<double>(sp.dur_ns);
    if (sp.pid == 1 && sp.name.rfind("rpc:", 0) == 0) {
      rpc_us[sp.name.substr(4)].push_back(1e6 * s);
      rpc_total_s += s;
    } else if (sp.pid != 1 && sp.name.rfind("devd:", 0) == 0) {
      worker_s[sp.pid] += s;
    }
  }
  for (const char* verb : kVerbs) {
    const auto& v = rpc_us[verb];
    m.set(std::string("runtime.procpool.rpc_count.") + verb,
          static_cast<double>(v.size()), "count");
    m.set(std::string("runtime.procpool.rpc_p50_us.") + verb,
          percentile(v, 0.50), "us");
  }
  for (const char* verb : kP99Verbs)
    m.set(std::string("runtime.procpool.rpc_p99_us.") + verb,
          percentile(rpc_us[verb], 0.99), "us");
  double worker_max_s = 0.0;
  double worker_sum_s = 0.0;
  for (const auto& [pid, s] : worker_s) {
    worker_max_s = std::max(worker_max_s, s);
    worker_sum_s += s;
  }
  double harvest_s = 0.0;
  for (const double us : rpc_us["telemetry"]) harvest_s += 1e-6 * us;
  m.set("runtime.procpool.worker_exec_s", worker_max_s, "s");
  m.set("runtime.procpool.ctrl_wait_s",
        std::max(0.0, rpc_total_s - worker_sum_s), "s");
  m.set("runtime.procpool.harvest_s", harvest_s, "s");
}

/// In-process run (an isolated workload on its in-process pool) with
/// metrics on and stage checkpoints, so the per-kind command counters can
/// be read at every stage boundary. Fills `stage_kinds` (one per stage)
/// and the run's dram.cmds.* metrics.
core::PipelineResult fingerprint_run(const Workload& w, const Inputs& in,
                                     const std::string& workdir,
                                     std::vector<KindCounts>& stage_kinds,
                                     Metrics& m) {
  auto& session = telemetry::TelemetrySession::instance();
  std::filesystem::create_directories(workdir);
  core::PipelineOptions opt = options_for(w, true);
  opt.checkpoint_dir = workdir;
  std::vector<KindCounts> cumulative;
  opt.on_checkpoint = [&](std::uint32_t, const std::string&) {
    cumulative.push_back(registry_kind_counts());
  };
  session.metrics().clear();
  session.enable_metrics();
  core::PipelineResult r;
  timed_run(in, opt, &r);
  session.disable_metrics();
  session.metrics().clear();
  std::filesystem::remove_all(workdir);
  if (cumulative.size() != 3)
    throw std::runtime_error("fingerprint run did not reach all 3 stages");
  stage_kinds.assign(3, {});
  for (std::size_t s = 0; s < 3; ++s)
    for (const auto& [kind, n] : cumulative[s])
      stage_kinds[s][kind] = n - (s == 0 ? 0 : cumulative[s - 1].at(kind));
  for (const auto& [kind, n] : cumulative.back())
    m.set("dram.cmds." + kind, static_cast<double>(n), "count");
  return r;
}

/// Direct timings of the modules' public entry points on the workload's
/// input: the k-mer table, graph construction, PIM degrees, Euler walks.
void module_metrics(const Workload& w, const Inputs& in, Metrics& m) {
  const core::PipelineOptions opt = options_for(w, true);
  double hashmap_s = 0.0;
  std::uint64_t kmers = 0;
  const auto entries = hashmap_module(opt, in, &hashmap_s, &kmers);
  m.set("core.hashmap_s", hashmap_s, "s");
  m.set("core.hashmap_ns_per_kmer",
        kmers == 0 ? 0.0 : 1e9 * hashmap_s / static_cast<double>(kmers), "ns");

  auto t0 = Clock::now();
  assembly::KmerCounter counter(entries.size());
  for (const auto& [km, n] : entries) counter.insert_with_count(km, n);
  const auto graph =
      assembly::DeBruijnGraph::from_counter(counter, opt.use_multiplicity);
  m.set("assembly.graph_s", seconds_since(t0), "s");

  dram::Device primary(geometry());
  runtime::DevicePool pool(primary, opt.devices);
  runtime::EngineOptions eo;
  eo.channels = opt.threads;
  runtime::PoolRunner runner(pool, eo);
  const auto partition =
      core::detail::partition_fitting(graph, primary.geometry(), 0);
  t0 = Clock::now();
  core::pim_degrees(pool, graph, partition, &runner);
  const double degrees_s = seconds_since(t0);
  const auto cmds = pool.roll_up().commands;
  m.set("core.degrees_s", degrees_s, "s");
  m.set("core.degrees_ns_per_cmd",
        cmds == 0 ? 0.0 : 1e9 * degrees_s / static_cast<double>(cmds), "ns");

  t0 = Clock::now();
  [[maybe_unused]] const auto walks =
      assembly::contigs_from_euler(graph, opt.traversal);
  m.set("assembly.euler_s", seconds_since(t0), "s");
}

int cmd_layers(const Workload& w, std::uint64_t seed,
               const std::string& workdir) {
  auto& session = telemetry::TelemetrySession::instance();
  Metrics m;

  const auto t_gen = Clock::now();
  const Inputs in = make_inputs(w, seed);
  m.set("dna.generate_s", seconds_since(t_gen), "s");
  const core::PipelineOptions opt = options_for(w, false);

  // Untraced reference wall time (tracing and metrics off).
  const double wall_untraced = timed_run(in, opt);

  // Traced run: spans, the engine latency histogram, controller I/O.
  session.metrics().clear();
  session.tracer().enable(1u << 18);
  session.enable_metrics();
  const IoCounters io0 = io_now();
  std::unique_ptr<ChildSampler> workers;
  if (opt.isolate) workers = std::make_unique<ChildSampler>();
  core::PipelineResult traced;
  const double wall_traced = timed_run(in, opt, &traced);
  if (workers) workers->stop();
  const IoCounters io1 = io_now();
  session.tracer().disable();
  const std::vector<Span> spans = collect_spans(session.tracer());
  const std::uint64_t dropped = session.tracer().dropped_count();
  const KindCounts traced_kinds = registry_kind_counts();

  std::vector<StageBreakdown> stages;
  for (const char* stage : {"hashmap", "debruijn", "traverse"}) {
    stages.push_back(stage_breakdown(spans, stage));
    m.set(std::string("core.stage_s.") + stage, stages.back().span_s, "s");
  }
  for (const auto& b : stages)
    m.set("core.unattributed_s." + b.stage, b.residual_s, "s");
  engine_metrics(spans, w.threads, m);
  procpool_metrics(spans, m);
  // Requests go out through send(), which wchar does not count; the
  // workers' read counters see them instead.
  m.set("net.bytes_out_mb",
        static_cast<double>(io1.wchar - io0.wchar) / 1e6 +
            (workers ? workers->read_mb() : 0.0),
        "MB");
  m.set("net.bytes_in_mb", static_cast<double>(io1.rchar - io0.rchar) / 1e6,
        "MB");
  m.set("telemetry.overhead_pct", 100.0 * (wall_traced / wall_untraced - 1.0),
        "%");
  session.tracer().clear();
  session.disable_metrics();

  // Recovery counters of the traced run; overhead against faults off.
  const auto& f = traced.fault_stats;
  m.set("runtime.recovery.injected", static_cast<double>(f.injected), "count");
  m.set("runtime.recovery.detected", static_cast<double>(f.detected), "count");
  m.set("runtime.recovery.retried", static_cast<double>(f.retried), "count");
  m.set("runtime.recovery.host_fallbacks",
        static_cast<double>(f.host_fallbacks), "count");
  double recovery_overhead_s = 0.0;
  if (opt.fault.enabled()) {
    core::PipelineOptions clean = opt;
    clean.fault = {};
    clean.recovery = {};
    recovery_overhead_s = wall_untraced - timed_run(in, clean);
  }
  m.set("runtime.recovery.overhead_s", recovery_overhead_s, "s");

  std::vector<KindCounts> stage_kinds;
  const core::PipelineResult fp =
      fingerprint_run(w, in, workdir, stage_kinds, m);
  module_metrics(w, in, m);
  replay_module(w, seed, m);

  Json stage_list = Json::array();
  for (const auto& b : stages) stage_list.push_back(breakdown_json(b));
  Json o = Json::object();
  o.set("mode", "layers")
      .set("workload", w.name)
      .set("seed", seed)
      .set("wall_untraced_s", wall_untraced)
      .set("wall_traced_s", wall_traced)
      .set("trace_dropped", dropped)
      .set("traced_kinds", kinds_json(traced_kinds))
      .set("verify", verify_json(in, traced))
      .set("fingerprint", fingerprint_json(traced, nullptr))
      .set("inprocess_fingerprint", fingerprint_json(fp, &stage_kinds))
      .set("stages", std::move(stage_list))
      .set("metrics", m.json());
  std::printf("%s\n", o.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------- main

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver sample|layers|inputs --workload W "
               "--seed S [--scale full|smoke] [--inprocess] [--workdir D]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> args;
  std::set<std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) return usage();
    a = a.substr(2);
    if (a == "inprocess") {
      flags.insert(a);
    } else if (i + 1 < argc) {
      args[a] = argv[++i];
    } else {
      return usage();
    }
  }
  if (!args.count("workload") || !args.count("seed")) return usage();
  try {
    const Workload w =
        scaled(find_workload(args["workload"]),
               args.count("scale") ? args["scale"] : std::string("full"));
    const std::uint64_t seed = std::stoull(args["seed"]);
    if (cmd == "sample") return cmd_sample(w, seed, flags.count("inprocess"));
    if (cmd == "inputs") return cmd_inputs(w, seed);
    if (cmd == "layers") {
      if (!args.count("workdir")) return usage();
      return cmd_layers(w, seed, args["workdir"]);
    }
    return usage();
  } catch (const std::exception& e) {
    Json err = Json::object();
    err.set("error", e.what());
    std::printf("%s\n", err.dump().c_str());
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return exit_code_for(e) == 0 ? 1 : exit_code_for(e);
  }
}
