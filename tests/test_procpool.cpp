// Process-isolation battery (ctest -L procpool, DESIGN.md §15).
//
// The contract under test: a pipeline run whose device shards live in
// pima_devd worker processes is bit-identical to the in-process run — and
// stays bit-identical when workers are SIGKILLed, SIGSEGV, crash-exited,
// torn mid-write, or chaos-injected mid-stage, because the supervisor
// restarts them from their shard checkpoints and replays their journals.
// Plus the seams: WorkerInit / typed-error / shard-checkpoint wire and
// disk round-trips, exit classification, and the degrade path when the
// restart budget runs dry.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/degree.hpp"
#include "core/pipeline.hpp"
#include "core/shard_worker.hpp"
#include "dna/genome.hpp"
#include "dram/device.hpp"
#include "net/json.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/procpool.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/session.hpp"

namespace pima {
namespace {

namespace fs = std::filesystem;

// RAII environment-variable override (the devd test hook travels to the
// workers through the environment they inherit).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (saved_.empty())
      ::unsetenv(name_);
    else
      ::setenv(name_, saved_.c_str(), 1);
  }

 private:
  const char* name_;
  std::string saved_;
};

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
  gp.length = 600;
  gp.repeat_count = 0;
  gp.seed = seed;
  dna::ReadSamplerParams rp;
  rp.coverage = 5.0;
  rp.read_length = 70;
  rp.seed = seed + 1;
  return dna::sample_reads(dna::generate_genome(gp), rp);
}

struct RunOutput {
  core::PipelineResult result;
  std::string model_snapshot;  ///< json_snapshot(model_only) — byte oracle
};

// Checkpointing for a run: stop_after > 0 makes on_checkpoint throw
// StopRun once that stage's snapshot is on disk.
struct Checkpointing {
  std::string dir;
  std::uint32_t stop_after = 0;
  bool resume = false;
};
struct StopRun {};

RunOutput run_config(const std::vector<dna::Sequence>& reads, bool isolate,
                     std::size_t devices,
                     const core::PipelineOptions::IsolateOptions& iso = {},
                     bool capture = false, const Checkpointing& ckpt = {}) {
  auto& session = telemetry::TelemetrySession::instance();
  session.reset();
  session.enable_metrics();
  dram::Device device(pipeline_geometry());
  core::PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.devices = devices;
  opt.threads = 2;
  opt.isolate = isolate;
  opt.isolate_opts = iso;
  opt.capture_trace = capture;
  opt.checkpoint_dir = ckpt.dir;
  opt.resume = ckpt.resume;
  if (ckpt.stop_after > 0)
    opt.on_checkpoint = [stop = ckpt.stop_after](std::uint32_t stage,
                                                 const std::string&) {
      if (stage == stop) throw StopRun{};
    };
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
}

// ---- crash-free identity ----------------------------------------------------

TEST(ProcPoolIdentity, IsolatedMatchesInProcessAndSingleDevice) {
  const auto reads = workload_reads(11);
  const auto single = run_config(reads, /*isolate=*/false, 1);
  const auto pooled = run_config(reads, /*isolate=*/false, 4);
  const auto isolated = run_config(reads, /*isolate=*/true, 4);
  ASSERT_FALSE(isolated.result.contigs.empty());
  expect_bit_identical(isolated.result, pooled.result);
  expect_bit_identical(isolated.result, single.result);
  // The model-class metrics snapshot derives only from simulated state —
  // equal bytes whether the shards ran in-process or in worker processes.
  ASSERT_FALSE(isolated.model_snapshot.empty());
  EXPECT_EQ(isolated.model_snapshot, pooled.model_snapshot);
  EXPECT_EQ(isolated.model_snapshot, single.model_snapshot);
}

TEST(ProcPoolIdentity, CapturedTraceMatchesInProcess) {
  const auto reads = workload_reads(12);
  const auto pooled =
      run_config(reads, /*isolate=*/false, 3, {}, /*capture=*/true);
  const auto isolated =
      run_config(reads, /*isolate=*/true, 3, {}, /*capture=*/true);
  ASSERT_FALSE(isolated.result.trace.empty());
  EXPECT_EQ(isolated.result.trace, pooled.result.trace);
}

// ---- kill-and-recover: every crash class, bit-identical output --------------

TEST(ProcPoolRecovery, CrashedWorkersRestartAndOutputIsBitIdentical) {
  const auto reads = workload_reads(13);
  const auto baseline = run_config(reads, /*isolate=*/false, 4);
  const auto scratch = fs::temp_directory_path() / "procpool_hooks";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  for (const char* action : {"sigkill", "segv", "exit86", "torn"}) {
    SCOPED_TRACE(action);
    const auto flag = (scratch / (std::string("flag_") + action)).string();
    // Device 2 dies after its 8th request — mid stage 1 — then the flag
    // file makes the respawned worker healthy.
    ScopedEnv hook("PIMA_DEVD_TEST_HOOK", std::string("dev=2:after=8:action=") +
                                              action + ":flag=" + flag);
    core::PipelineOptions::IsolateOptions iso;
    iso.allow_degrade = false;  // a degrade here would mask a replay bug
    const auto run = run_config(reads, /*isolate=*/true, 4, iso);
    EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
    expect_bit_identical(run.result, baseline.result);
    EXPECT_EQ(run.model_snapshot, baseline.model_snapshot);
  }
  fs::remove_all(scratch);
}

TEST(ProcPoolRecovery, RecoveryPreservesCapturedTrace) {
  const auto reads = workload_reads(14);
  const auto baseline =
      run_config(reads, /*isolate=*/false, 4, {}, /*capture=*/true);
  const auto scratch = fs::temp_directory_path() / "procpool_trace_hook";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const auto flag = (scratch / "flag").string();
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK",
                 "dev=1:after=6:action=sigkill:flag=" + flag);
  core::PipelineOptions::IsolateOptions iso;
  iso.allow_degrade = false;
  // capture_trace disables journal truncation: the respawned worker must
  // replay every command so its trace capture is complete.
  const auto run = run_config(reads, /*isolate=*/true, 4, iso, /*capture=*/true);
  EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
  EXPECT_EQ(run.result.trace, baseline.result.trace);
  fs::remove_all(scratch);
}

// Runs `reads` isolated on four devices with trace capture while
// PIMA_DEVD_TEST_HOOK SIGKILLs device 2 once, right after it handled its
// `after`-th request (init is request 1) and before it answered; the run
// must match the crash-free in-process run in contigs, per-stage stats,
// model-only snapshot and merged command capture.
void expect_device2_crash_is_invisible(const std::vector<dna::Sequence>& reads,
                                       std::size_t after, const char* name) {
  const auto baseline =
      run_config(reads, /*isolate=*/false, 4, {}, /*capture=*/true);
  const auto scratch = fs::temp_directory_path() / name;
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const auto flag = (scratch / "flag").string();
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK",
                 "dev=2:after=" + std::to_string(after) +
                     ":action=sigkill:flag=" + flag);
  core::PipelineOptions::IsolateOptions iso;
  iso.allow_degrade = false;  // a degrade here would mask a replay bug
  const auto run = run_config(reads, /*isolate=*/true, 4, iso, /*capture=*/true);
  EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
  expect_bit_identical(run.result, baseline.result);
  EXPECT_EQ(run.model_snapshot, baseline.model_snapshot);
  ASSERT_FALSE(run.result.trace.empty());
  EXPECT_EQ(run.result.trace, baseline.result.trace);
  fs::remove_all(scratch);
}

// Device 2's requests on workload_reads(19), untraced (counted from the
// devd:<verb> spans of a traced run of the same input, minus its
// `telemetry` harvests; init is request 1): kmers 2–6, drain 7,
// extract 8–9 (shards 2 and 6), distinct 10, stats 11, clear_stats 12,
// then stage 2 (program 13, drain 14, stats 15, clear_stats 16), then
// stage 3 (degree_block 17, drain 18, program 19, ...).

TEST(ProcPoolRecovery, CrashAfterExtractReplaysItsRowReads) {
  // Dies on `distinct` (request 10), after both extracts were answered.
  // Reading a shard out issues ROW_READs, so the replayed journal must
  // hold the extracts or stage 1's stats and the capture come up short.
  expect_device2_crash_is_invisible(workload_reads(19), 10,
                                    "procpool_extract_hook");
}

TEST(ProcPoolRecovery, CrashInsideTraverseBatchIsBitIdentical) {
  // Dies on `degree_block` (request 17) with its whole kernel batch
  // queued but unanswered, while the other workers' batches are still
  // outstanding in rpc_all: the supervisor restarts it, replays stages
  // 1–2 and resends the batch.
  expect_device2_crash_is_invisible(workload_reads(19), 17,
                                    "procpool_traverse_hook");
}

// ---- cross-mode resume: one snapshot format for both backends ---------------

// Stops a 4-device run in one mode after `stop_after`, then resumes the
// snapshot in the other mode. The resumed run must match the uninterrupted
// run bit for bit, and its model-only metrics must match a resume of the
// same snapshot in the mode that cut it (a resumed run skips the stages
// the snapshot covers, so it exports only the remaining stages' metrics).
void expect_cross_mode_resume(bool stop_isolated, std::uint32_t stop_after,
                              const char* name) {
  const auto reads = workload_reads(18);
  const auto baseline = run_config(reads, /*isolate=*/false, 4);
  const auto dir = fs::temp_directory_path() / name;
  const auto same_dir =
      fs::temp_directory_path() / (std::string(name) + "_same");
  fs::remove_all(dir);
  fs::remove_all(same_dir);
  fs::create_directories(dir);
  core::PipelineOptions::IsolateOptions iso;
  iso.allow_degrade = false;  // a degrade would hide which mode resumed
  EXPECT_THROW(run_config(reads, stop_isolated, 4, iso, false,
                          {dir.string(), stop_after, false}),
               StopRun);
  fs::copy(dir, same_dir, fs::copy_options::recursive);

  const auto crossed = run_config(reads, !stop_isolated, 4, iso, false,
                                  {dir.string(), 0, /*resume=*/true});
  const auto same = run_config(reads, stop_isolated, 4, iso, false,
                               {same_dir.string(), 0, /*resume=*/true});
  ASSERT_FALSE(crossed.result.contigs.empty());
  expect_bit_identical(crossed.result, baseline.result);
  expect_bit_identical(same.result, baseline.result);
  ASSERT_FALSE(crossed.model_snapshot.empty());
  EXPECT_EQ(crossed.model_snapshot, same.model_snapshot);
  fs::remove_all(dir);
  fs::remove_all(same_dir);
}

TEST(ProcPoolResume, IsolatedRunResumesInProcessSnapshot) {
  expect_cross_mode_resume(/*stop_isolated=*/false, 1, "procpool_xresume_1");
}

TEST(ProcPoolResume, InProcessRunResumesIsolatedSnapshot) {
  expect_cross_mode_resume(/*stop_isolated=*/true, 2, "procpool_xresume_2");
}

// ---- chaos: a fault plan aimed at the workers' wire -------------------------

TEST(ProcPoolChaos, ChildIofaultTornWriteIsSurvivedWithReplay) {
  // Supervisor-level: every worker instance tears its socket mid-write on
  // its 4th send (fsio `crash` = half the bytes, then _exit(86)). Progress
  // still happens because stage boundaries truncate the journal, so each
  // respawned worker replays less than its predecessor wrote.
  runtime::ProcPoolOptions opt;
  opt.devices = 1;
  opt.restart_budget = 30;
  opt.restart_backoff_ms = 1.0;
  opt.child_iofault = "send@wire:nth=4:crash";
  core::WorkerInit init;
  init.geometry = pipeline_geometry();
  init.k = 15;
  init.hash_shards = 4;
  init.channels = 1;
  runtime::ProcSupervisor sup(opt, [&](std::size_t d) {
    core::WorkerInit wi = init;
    wi.device = d;
    return core::worker_init_to_json(wi);
  });
  sup.start();
  net::Json clear = net::Json::object();
  clear.set("op", "clear_stats");
  for (std::uint32_t i = 1; i <= 10; ++i) {
    const auto response = sup.rpc(0, clear);
    EXPECT_TRUE(response.get_bool("ok", false));
    sup.mark_stage_done(i);  // truncate: bounds the next replay
  }
  EXPECT_GE(sup.restarts_used(), 1u);
  net::Json ping = net::Json::object();
  ping.set("op", "ping");
  EXPECT_TRUE(sup.query(0, ping).get_bool("ok", false));
  sup.shutdown();
}

// ---- restart budget exhaustion: degrade or typed failure --------------------

TEST(ProcPoolDegrade, BudgetExhaustionFallsBackToInProcessPool) {
  const auto reads = workload_reads(15);
  const auto baseline = run_config(reads, /*isolate=*/false, 4);
  // No flag file: device 0 dies after every respawn, exhausting the budget.
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK", "dev=0:after=4:action=exit86");
  core::PipelineOptions::IsolateOptions iso;
  iso.restart_budget = 2;
  const auto run = run_config(reads, /*isolate=*/true, 4, iso);
  expect_bit_identical(run.result, baseline.result);
}

TEST(ProcPoolDegrade, DisallowedDegradeThrowsWorkerCrashedError) {
  const auto reads = workload_reads(15);
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK", "dev=0:after=4:action=sigkill");
  core::PipelineOptions::IsolateOptions iso;
  iso.restart_budget = 1;
  iso.allow_degrade = false;
  try {
    (void)run_config(reads, /*isolate=*/true, 4, iso);
    FAIL() << "expected WorkerCrashedError";
  } catch (const WorkerCrashedError& e) {
    EXPECT_EQ(e.device(), 0u);
    EXPECT_EQ(e.classification(), "killed by signal");
    EXPECT_EQ(exit_code_for(e), kExitWorkerCrashed);
  }
  telemetry::TelemetrySession::instance().reset();
}

// ---- configuration ----------------------------------------------------------

// A shard count that leaves no sub-array for the de Bruijn graph is refused
// before stage 1 issues a command, in process and isolated alike, with
// exit code 1 (what an out-of-device shard range gets); one shard fewer runs.
TEST(ProcPoolConfig, ShardCountLeavingNoGraphSubarrayFailsUpFront) {
  const auto reads = workload_reads(16);
  const std::size_t total = pipeline_geometry().total_subarrays();
  const auto options = [&](std::size_t shards, std::size_t devices,
                           bool isolate) {
    core::PipelineOptions opt;
    opt.k = 15;
    opt.hash_shards = shards;
    opt.devices = devices;
    opt.threads = 2;
    opt.isolate = isolate;
    return opt;
  };
  const std::pair<std::size_t, bool> runs[] = {{1, false}, {4, false},
                                               {4, true}};
  for (const auto& [devices, isolate] : runs) {
    SCOPED_TRACE(std::to_string(devices) + (isolate ? " isolated" : ""));
    dram::Device device(pipeline_geometry());
    try {
      (void)core::run_pipeline(device, reads, options(total, devices, isolate));
      ADD_FAILURE() << "expected SimulationError";
    } catch (const SimulationError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "at most " + std::to_string(total - 1) + " shards"),
                std::string::npos)
          << e.what();
      EXPECT_EQ(exit_code_for(e), kExitFailure);
    }
    EXPECT_EQ(device.roll_up().commands, 0u);
  }
  dram::Device device(pipeline_geometry());
  const auto result =
      core::run_pipeline(device, reads, options(total - 1, 1, false));
  EXPECT_GT(result.distinct_kmers, 0u);
  telemetry::TelemetrySession::instance().reset();
}

// ---- distributed observability ----------------------------------------------

TEST(ProcPoolObservability, StitchedTraceHasWorkerSpansFlowsAndRestartTracks) {
  const auto reads = workload_reads(16);
  const auto baseline = run_config(reads, /*isolate=*/false, 3);
  auto& session = telemetry::TelemetrySession::instance();
  session.reset();
  session.enable_metrics();
  session.tracer().enable();
  const auto scratch = fs::temp_directory_path() / "procpool_obs_trace";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const auto flag = (scratch / "flag").string();
  // Worker 1 dies mid stage 1; its replacement appears as a new process
  // track with a restart-suffixed name.
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK",
                 "dev=1:after=6:action=sigkill:flag=" + flag);
  dram::Device device(pipeline_geometry());
  core::PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.devices = 3;
  opt.threads = 2;
  opt.isolate = true;
  opt.isolate_opts.allow_degrade = false;
  const auto result = core::run_pipeline(device, reads, opt);
  EXPECT_TRUE(fs::exists(flag)) << "hook never fired";
  expect_bit_identical(result, baseline.result);
  // Tracing is host-side observation: the model-class oracle must not
  // move because spans were recorded and harvested.
  EXPECT_EQ(session.metrics().json_snapshot(/*model_only=*/true),
            baseline.model_snapshot);

  auto& tracer = session.tracer();
  EXPECT_GE(tracer.process_count(), 3u);  // one track group per live worker
  const std::string json = tracer.chrome_json();
  EXPECT_NE(json.find("\"pima_devd d=0\""), std::string::npos);
  EXPECT_NE(json.find("(restart 1)"), std::string::npos);
  EXPECT_NE(json.find("devd:kmers"), std::string::npos);  // worker-side span
  EXPECT_NE(json.find("rpc:kmers"), std::string::npos);   // controller span
  // Flow links tie each controller rpc span to its worker execution.
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"rpc\""), std::string::npos);
  session.reset();
  fs::remove_all(scratch);
}

TEST(ProcPoolObservability, WorkerCrashDumpsSchemaValidCrashReport) {
  auto& flight = telemetry::FlightRecorder::instance();
  flight.reset_for_tests();
  const auto scratch = fs::temp_directory_path() / "procpool_obs_flight";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const auto report_path = (scratch / "crash_report.json").string();
  flight.set_output_path(report_path);
  const auto flag = (scratch / "flag").string();
  ScopedEnv hook("PIMA_DEVD_TEST_HOOK",
                 "dev=2:after=8:action=sigkill:flag=" + flag);
  const auto reads = workload_reads(17);
  core::PipelineOptions::IsolateOptions iso;
  iso.allow_degrade = false;
  const auto run = run_config(reads, /*isolate=*/true, 4, iso);
  ASSERT_FALSE(run.result.contigs.empty());
  EXPECT_GE(flight.dump_count(), 1u);
  ASSERT_TRUE(fs::exists(report_path));

  std::ifstream in(report_path);
  const std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const net::Json j = net::Json::parse(body);  // throws if invalid
  EXPECT_EQ(j.get_string("schema"), "pima.crash_report.v1");
  EXPECT_EQ(j.get_string("reason"), "worker_failure");
  ASSERT_TRUE(j.has("events"));
  EXPECT_FALSE(j.get("events").items().empty());
  EXPECT_NE(body.find("worker.failed"), std::string::npos);
  // The supervisor's state snapshot rode along.
  ASSERT_TRUE(j.has("state"));
  EXPECT_TRUE(j.get("state").has("procpool"));
  flight.reset_for_tests();
  fs::remove_all(scratch);
}

// ---- wire round-trips -------------------------------------------------------

TEST(ProcPoolWire, WorkerInitRoundTripsThroughJson) {
  core::WorkerInit init;
  init.geometry = pipeline_geometry();
  init.technology.tech.vdd = 1.05;
  init.technology.timing.t_rcd_ns = 14.5;
  init.device = 3;
  init.devices = 4;
  init.k = 21;
  init.hash_shards = 32;
  init.channels = 5;
  init.queue_capacity = 17;
  init.program_chunk = 100;
  init.capture_trace = true;
  init.stall_timeout_ms = 1234.5;
  const auto wire = core::worker_init_to_json(init);
  const auto parsed = core::worker_init_from_json(wire);
  // Geometry/Technology carry no operator==; a second serialization is the
  // byte oracle (net::Json renders doubles shortest-round-trip-exact).
  EXPECT_EQ(core::worker_init_to_json(parsed).dump(), wire.dump());
  EXPECT_EQ(parsed.device, 3u);
  EXPECT_EQ(parsed.k, 21u);
  EXPECT_TRUE(parsed.capture_trace);
}

TEST(ProcPoolWire, TypedErrorsRoundTripThroughResponses) {
  const auto roundtrip = [](const std::exception& e) -> std::string {
    const auto response = core::worker_error_response(e);
    try {
      runtime::throw_worker_error(response);
    } catch (const EngineStalledError& stalled) {
      EXPECT_EQ(stalled.channel(), 2u);
      EXPECT_EQ(stalled.subarray(), 7u);
      EXPECT_EQ(stalled.last_retired(), 41u);
      EXPECT_EQ(stalled.timeout_ms(), 250.0);
      return "EngineStalledError";
    } catch (const InputFormatError&) {
      return "InputFormatError";
    } catch (const CorruptCheckpointError&) {
      return "CorruptCheckpointError";
    } catch (const SimulationError&) {
      return "SimulationError";
    }
    return "no-throw";
  };
  EXPECT_EQ(roundtrip(EngineStalledError(2, 7, 41, 250.0)),
            "EngineStalledError");
  EXPECT_EQ(roundtrip(InputFormatError("bad")), "InputFormatError");
  EXPECT_EQ(roundtrip(CorruptCheckpointError("crc")), "CorruptCheckpointError");
  EXPECT_EQ(roundtrip(SimulationError("boom")), "SimulationError");
}

// ---- degree_block batches and rpc_all ---------------------------------------

core::WorkerInit small_worker_init() {
  core::WorkerInit init;
  init.geometry = pipeline_geometry();
  init.technology = circuit::default_technology();
  init.k = 15;
  init.hash_shards = 4;
  init.channels = 2;
  return init;
}

net::Json degree_block_json(const std::string& kernels) {
  return net::Json::parse("{\"op\":\"degree_block\",\"kernels\":" + kernels +
                          "}");
}

TEST(ProcPoolWire, DegreeBlockRejectsMalformedKernelsBeforeQueueingAny) {
  core::ShardWorkerCore worker(core::worker_init_to_json(small_worker_init()));
  const auto total = pipeline_geometry().total_subarrays();
  // Each request leads with a valid kernel: a rejection must come before
  // anything is queued, so the device stays untouched.
  const std::string valid = "[3,2,[0,1,1,1,5,2]]";
  for (const std::string& bad :
       {"[" + std::to_string(total) + ",2,[0,1,1]]",  // flat ≥ sub-arrays
        std::string("[3,257,[]]"),                    // row_count > columns
        std::string("[3,2,[2,1,1]]"),                 // from ≥ row_count
        std::string("[3,2,[0,256,1]]"),               // to ≥ columns
        std::string("[3,2,[0,1,1,1]]")}) {            // not triples
    SCOPED_TRACE(bad);
    EXPECT_THROW(worker.handle(degree_block_json("[" + valid + "," + bad + "]")),
                 InputFormatError);
  }
  (void)worker.handle(core::verb_request("drain"));
  EXPECT_TRUE(
      core::stats_entries(worker.handle(core::verb_request("stats"))).empty());
  // The same valid kernel alone is accepted and runs.
  (void)worker.handle(degree_block_json("[" + valid + "]"));
  (void)worker.handle(core::verb_request("drain"));
  EXPECT_EQ(
      core::stats_entries(worker.handle(core::verb_request("stats"))).size(),
      1u);
}

TEST(ProcPoolWire, TransposedKernelMatchesDirectColumnSums) {
  const auto init = small_worker_init();
  core::EdgeBlock block;
  block.source_interval = 0;
  block.dest_interval = 1;
  block.edges = {{0, 2, 1}, {1, 2, 3}, {4, 0, 2}, {3, 3, 1}};
  // The out-degree kernel of the block: rows are the 4 destination
  // vertices, columns the 5 sources; multiplicities above 1 add rows.
  const core::DegreeKernel kernel{9, &block, /*transposed=*/true, 4};

  core::ShardWorkerCore worker(core::worker_init_to_json(init));
  (void)worker.handle(core::degree_block_request({kernel}));
  (void)worker.handle(core::verb_request("drain"));
  const auto stats =
      core::stats_entries(worker.handle(core::verb_request("stats")));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].first, kernel.flat);

  dram::Device direct(init.geometry, init.technology);
  (void)core::pim_column_sums(direct.subarray(kernel.flat),
                              kernel.rows(init.geometry.columns));
  const dram::CommandStats& want = direct.subarray(kernel.flat).stats();
  const dram::CommandStats& got = stats[0].second;
  for (std::size_t i = 0; i < dram::kCommandKindCount; ++i)
    EXPECT_EQ(got.counts[i], want.counts[i]) << "kind " << i;
  EXPECT_EQ(got.wait_ns, want.wait_ns);
}

TEST(ProcPoolWire, TracePagesReassembleToTheUnpagedCapture) {
  // A worker's capture: two degree kernels on two sub-arrays, traced.
  core::WorkerInit init = small_worker_init();
  init.capture_trace = true;
  core::EdgeBlock block;
  block.source_interval = 0;
  block.dest_interval = 1;
  block.edges = {{0, 2, 1}, {1, 2, 3}, {4, 0, 2}, {3, 3, 1}};
  const std::vector<core::DegreeKernel> kernels = {
      {9, &block, /*transposed=*/true, 4}, {17, &block, false, 5}};
  core::ShardWorkerCore worker(core::worker_init_to_json(init));
  (void)worker.handle(core::degree_block_request(kernels));
  (void)worker.handle(core::verb_request("drain"));

  // The unpaged walk of the same commands on a local device.
  dram::Device direct(init.geometry, init.technology);
  direct.enable_tracing();
  for (const core::DegreeKernel& kernel : kernels)
    (void)core::pim_column_sums(direct.subarray(kernel.flat),
                                kernel.rows(init.geometry.columns));
  const dram::Program capture = dram::captured_program(direct);
  ASSERT_GT(capture.size(), 100u);

  // The verb at its fixed budget returns the whole small capture at once.
  const net::Json one = worker.handle(net::Json::parse(
      "{\"op\":\"trace\",\"cursor\":0}"));
  EXPECT_TRUE(one.get_bool("done"));
  EXPECT_EQ(one.get_uint64("next"), capture.size());
  EXPECT_EQ(core::fetch_trace([&](const net::Json& request) {
              return worker.handle(request);
            }),
            capture);

  // Pages of a few hundred bytes: many pages, each within the budget
  // unless it holds a single instruction.
  constexpr std::size_t kBudget = 300;
  std::vector<dram::Program> pages;
  const dram::Program paged =
      core::fetch_trace([&](const net::Json& request) {
        net::Json page = core::trace_page(
            capture, static_cast<std::size_t>(request.get_uint64("cursor")),
            kBudget);
        const std::string text = page.get_string("text");
        std::istringstream in(text);
        pages.push_back(dram::parse_program(in));
        if (pages.back().size() > 1) {
          EXPECT_LE(text.size(), kBudget);
        }
        return page;
      });
  EXPECT_EQ(paged, capture);
  EXPECT_GT(pages.size(), 20u);
  // Some page boundary falls inside one sub-array's stream.
  bool split_stream = false;
  for (std::size_t i = 1; i < pages.size(); ++i)
    split_stream = split_stream ||
                   pages[i - 1].back().subarray == pages[i].front().subarray;
  EXPECT_TRUE(split_stream);
  EXPECT_THROW((void)core::trace_page(capture, capture.size() + 1, kBudget),
               InputFormatError);
}

TEST(ProcPoolExchange, RpcAllTypedErrorReadsEveryResponse) {
  runtime::ProcPoolOptions opt;
  opt.devices = 2;
  const auto init = small_worker_init();
  runtime::ProcSupervisor sup(opt, [&](std::size_t d) {
    core::WorkerInit wi = init;
    wi.device = d;
    return core::worker_init_to_json(wi);
  });
  sup.start();
  // Worker 0 rejects its batch; worker 1's valid batch is still answered
  // and read, so both channels stay in step and nobody is restarted.
  const std::vector<net::Json> requests = {
      degree_block_json("[[0,300,[]]]"),
      degree_block_json("[[1,2,[0,1,1,1,0,2]]]")};
  EXPECT_THROW(sup.rpc_all(requests), InputFormatError);
  for (std::size_t d = 0; d < 2; ++d)
    EXPECT_TRUE(sup.query(d, core::verb_request("ping")).get_bool("ok", false))
        << "device " << d;
  // A channel left one response behind would hand `stats` an older
  // reply without "subarrays". Only worker 1's batch ran.
  for (std::size_t d = 0; d < 2; ++d) {
    (void)sup.rpc(d, core::verb_request("drain"));
    const auto stats =
        core::stats_entries(sup.query(d, core::verb_request("stats")));
    EXPECT_EQ(stats.size(), d) << "device " << d;
  }
  EXPECT_EQ(sup.restarts_used(), 0u);
  sup.shutdown();
}

// ---- shard checkpoints ------------------------------------------------------

TEST(ProcPoolCheckpoint, ShardCheckpointRoundTripsAndPinsShard) {
  const auto dir = fs::temp_directory_path() / "procpool_shard_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto path = (dir / "shard-2.ckpt").string();
  runtime::ShardCheckpoint sc;
  sc.fingerprint.k = 15;
  sc.fingerprint.hash_shards = 8;
  sc.fingerprint.devices = 4;
  sc.fingerprint.shard = 2;
  sc.stages_done = 2;
  runtime::save_shard_checkpoint(path, sc);
  EXPECT_EQ(runtime::load_shard_checkpoint(path), sc);

  // A whole-run snapshot is not a shard checkpoint: different magic.
  EXPECT_THROW(runtime::load_checkpoint(path), CorruptCheckpointError);

  // Flip one byte of the body: the CRC must reject it.
  auto bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  bytes[bytes.size() - 3] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_THROW(runtime::load_shard_checkpoint(path), CorruptCheckpointError);
  fs::remove_all(dir);
}

TEST(ProcPoolCheckpoint, ForeignShardCheckpointRefusesStart) {
  // A shard checkpoint from a different run shape must stop the supervisor
  // before any worker touches state (stale checkpoints from a *finished*
  // run are removed by the pipeline's fresh-run cleanup; this exercises
  // the guard itself).
  const auto dir = fs::temp_directory_path() / "procpool_foreign_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  runtime::ShardCheckpoint stale;
  stale.fingerprint.k = 99;  // anything but the run's k
  stale.fingerprint.shard = 0;
  stale.stages_done = 1;
  runtime::save_shard_checkpoint((dir / "shard-0.ckpt").string(), stale);

  runtime::ProcPoolOptions opt;
  opt.devices = 1;
  opt.checkpoint_dir = dir.string();
  opt.fingerprint.k = 15;
  core::WorkerInit init;
  init.geometry = pipeline_geometry();
  init.k = 15;
  init.hash_shards = 4;
  init.channels = 1;
  runtime::ProcSupervisor sup(opt, [&](std::size_t d) {
    core::WorkerInit wi = init;
    wi.device = d;
    return core::worker_init_to_json(wi);
  });
  EXPECT_THROW(sup.start(), CorruptCheckpointError);
  fs::remove_all(dir);
}

// ---- exit classification ----------------------------------------------------

TEST(ProcPoolClassify, ExitClassNamesAreStable) {
  using runtime::WorkerExitClass;
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kClean), "clean exit");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kStalled), "engine stall");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kCrashExit), "crash exit");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kSignal),
               "killed by signal");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kTorn), "torn protocol");
  EXPECT_STREQ(runtime::to_string(WorkerExitClass::kWedged),
               "wedged (liveness deadline)");
}

}  // namespace
}  // namespace pima
