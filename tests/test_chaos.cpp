// Chaos suite for the I/O and service plane (DESIGN.md §13): the fsio
// fault-injection layer itself (grammar, determinism, passthrough), the
// hardened persistence paths under injected ENOSPC/EIO/torn-write crash
// points (old-or-new, never corrupt), EINTR storms and peer hangups on the
// wire, client deadlines (exit code 9), and the idempotent-submit dedupe
// protocol across daemon restarts.
//
// Crash-point tests fork: the child installs a FaultPlan whose `crash`
// action lands half a write and _exit(86)s, the parent asserts the
// survivor state is recoverable and the resumed output bit-identical to an
// uninterrupted golden run. NOT ThreadSanitizer-safe (fork + threads);
// test_chaos is deliberately absent from the CI tsan job.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "core/pipeline.hpp"
#include "dna/fasta.hpp"
#include "dna/genome.hpp"
#include "dram/device.hpp"
#include "net/json.hpp"
#include "net/socket.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/job.hpp"

namespace pima {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Every test runs with a clean process-wide plan and counters; a test
/// that installs a plan cannot leak it into the next.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fsio::clear_plan();
    fsio::reset_counters();
  }
  void TearDown() override {
    fsio::clear_plan();
    fsio::reset_counters();
  }
};

// ------------------------------------------------- FaultPlan grammar ----

TEST_F(ChaosTest, GrammarParsesSeedAndRules) {
  const auto plan = fsio::FaultPlan::parse(
      "seed=7;write@checkpoint:nth=3:errno=ENOSPC;"
      "send@wire:p=0.25:errno=EPIPE;read:nth=5:eintr=3;"
      "rename@job.json:nth=1:crash;*:p=0.001:short");
  EXPECT_EQ(plan.seed(), 7u);
  EXPECT_EQ(plan.rule_count(), 5u);
}

TEST_F(ChaosTest, GrammarRejectsMalformedSpecsTyped) {
  for (const char* bad :
       {"write", "write:nth=3", "write:nth=3:errno=EWHAT",
        "write:sometimes:errno=EIO", "flush:nth=1:errno=EIO",
        "write:nth=0:errno=EIO", "write:p=1.5:errno=EIO",
        "write:nth=1:explode", "seed=;write:always:short", ";;"}) {
    EXPECT_THROW((void)fsio::FaultPlan::parse(bad), InputFormatError)
        << "spec not rejected: " << bad;
  }
  // The thrown message names PIMA_IOFAULT so a bad env var is diagnosable.
  try {
    (void)fsio::FaultPlan::parse("write:nth=1:errno=EWHAT");
    FAIL() << "expected InputFormatError";
  } catch (const InputFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("PIMA_IOFAULT"), std::string::npos);
  }
}

TEST_F(ChaosTest, NthTriggerFiresExactlyOnceAtSiteMatchesOnly) {
  auto plan = fsio::FaultPlan::parse("write@checkpoint:nth=2:errno=ENOSPC");
  using Kind = fsio::FaultPlan::Decision::Kind;
  // Calls at other sites or ops do not advance the trigger.
  EXPECT_EQ(plan.decide(fsio::Op::kWrite, "wire").kind, Kind::kNone);
  EXPECT_EQ(plan.decide(fsio::Op::kFsync, "checkpoint").kind, Kind::kNone);
  EXPECT_EQ(plan.decide(fsio::Op::kWrite, "checkpoint").kind, Kind::kNone);
  const auto hit = plan.decide(fsio::Op::kWrite, "checkpoint");
  EXPECT_EQ(hit.kind, Kind::kErrno);
  EXPECT_EQ(hit.err, ENOSPC);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(plan.decide(fsio::Op::kWrite, "checkpoint").kind, Kind::kNone)
        << "nth trigger fired more than once";
}

TEST_F(ChaosTest, ProbabilityTriggerIsSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    auto plan = fsio::FaultPlan::parse("seed=" + std::to_string(seed) +
                                       ";write:p=0.3:errno=EIO");
    std::string fates;
    for (int i = 0; i < 64; ++i)
      fates += plan.decide(fsio::Op::kWrite, "x").kind ==
                       fsio::FaultPlan::Decision::Kind::kNone
                   ? '.'
                   : 'X';
    return fates;
  };
  EXPECT_EQ(run(11), run(11));  // same seed → identical schedule
  EXPECT_NE(run(11), run(12));  // different seed → different schedule
  EXPECT_NE(run(11).find('X'), std::string::npos);  // p=0.3 over 64 fires
  EXPECT_NE(run(11).find('.'), std::string::npos);  // ...but not always
}

TEST_F(ChaosTest, EintrStormDeliversExactlyKInterruptions) {
  auto plan = fsio::FaultPlan::parse("read@wire:nth=2:eintr=3");
  using Kind = fsio::FaultPlan::Decision::Kind;
  EXPECT_EQ(plan.decide(fsio::Op::kRead, "wire").kind, Kind::kNone);
  for (int i = 0; i < 3; ++i) {
    const auto d = plan.decide(fsio::Op::kRead, "wire");
    EXPECT_EQ(d.kind, Kind::kErrno);
    EXPECT_EQ(d.err, EINTR);
  }
  EXPECT_EQ(plan.decide(fsio::Op::kRead, "wire").kind, Kind::kNone);
}

TEST_F(ChaosTest, PassthroughWithNoPlanInjectsNothing) {
  ASSERT_FALSE(fsio::plan_active());
  const auto path =
      (fs::temp_directory_path() / "chaos_passthrough.txt").string();
  fsio::atomic_write_file(path, "payload", "artifact");
  EXPECT_EQ(slurp(path), "payload");
  const auto c = fsio::counters();
  EXPECT_EQ(c.injected_total, 0u);
  EXPECT_EQ(c.errno_injected, 0u);
  EXPECT_EQ(c.eintr_injected, 0u);
  EXPECT_EQ(c.short_injected, 0u);
  EXPECT_EQ(c.crash_points, 0u);
  fs::remove(path);
}

// --------------------------------------------- atomic_write_file --------

TEST_F(ChaosTest, AtomicWriteEnospcPreservesOldContentAndCleansTmp) {
  const auto path = (fs::temp_directory_path() / "chaos_enospc.txt").string();
  fsio::atomic_write_file(path, "old content", "artifact");
  fsio::install_plan(
      fsio::FaultPlan::parse("write@artifact:nth=1:errno=ENOSPC"));
  EXPECT_THROW(fsio::atomic_write_file(path, "new content", "artifact"),
               IoError);
  fsio::clear_plan();
  EXPECT_EQ(slurp(path), "old content");
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp file leaked";
  EXPECT_GE(fsio::counters().errno_injected, 1u);
  fs::remove(path);
}

TEST_F(ChaosTest, AtomicWriteRenameEioPreservesOldContent) {
  const auto path = (fs::temp_directory_path() / "chaos_rename.txt").string();
  fsio::atomic_write_file(path, "old content", "artifact");
  fsio::install_plan(fsio::FaultPlan::parse("rename@artifact:nth=1:errno=EIO"));
  EXPECT_THROW(fsio::atomic_write_file(path, "new content", "artifact"),
               IoError);
  fsio::clear_plan();
  EXPECT_EQ(slurp(path), "old content");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove(path);
}

TEST_F(ChaosTest, AtomicWriteSurvivesShortWritesAndEintr) {
  const auto path = (fs::temp_directory_path() / "chaos_short.txt").string();
  const std::string content(8192, 'q');
  fsio::install_plan(fsio::FaultPlan::parse(
      "seed=3;write@artifact:p=0.5:short;fsync@artifact:nth=1:eintr=2"));
  fsio::atomic_write_file(path, content, "artifact");
  fsio::clear_plan();
  EXPECT_EQ(slurp(path), content);
  EXPECT_GE(fsio::counters().short_injected, 1u);
  EXPECT_GE(fsio::counters().eintr_injected, 1u);
  fs::remove(path);
}

TEST_F(ChaosTest, SaveJobRecordFaultLeavesOldRecordLoadable) {
  const auto dir = (fs::temp_directory_path() / "chaos_jobrec").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  service::JobRecord rec;
  rec.id = "j0007";
  rec.spec.reads_path = "/data/reads.fa";
  rec.state = service::JobState::kRunning;
  rec.stages_done = 1;
  rec.idempotency_key = "ck-test";
  service::save_job_record(dir, rec);
  rec.stages_done = 2;
  fsio::install_plan(
      fsio::FaultPlan::parse("rename@job.json:nth=1:errno=EIO"));
  EXPECT_THROW(service::save_job_record(dir, rec), IoError);
  fsio::clear_plan();
  const auto loaded = service::load_job_record(dir);
  EXPECT_EQ(loaded.stages_done, 1u) << "torn transition leaked";
  EXPECT_EQ(loaded.idempotency_key, "ck-test");
  fs::remove_all(dir);
}

// ------------------------------------------------------------ wire ------

struct SocketPair {
  int a = -1, b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST_F(ChaosTest, LineChannelSurvivesEintrStorm) {
  SocketPair sp;
  net::LineChannel writer(sp.a);
  net::LineChannel reader(sp.b);
  fsio::install_plan(fsio::FaultPlan::parse(
      "read@wire:nth=1:eintr=4;send@wire:nth=1:eintr=4"));
  writer.write_line("hello through the storm");
  std::string line;
  ASSERT_TRUE(reader.read_line(line));
  fsio::clear_plan();
  EXPECT_EQ(line, "hello through the storm");
  EXPECT_GE(fsio::counters().eintr_injected, 8u);
}

TEST_F(ChaosTest, LineChannelPeerHangupIsTypedIoError) {
  SocketPair sp;
  net::LineChannel writer(sp.a);
  fsio::install_plan(fsio::FaultPlan::parse("send@wire:nth=1:errno=EPIPE"));
  EXPECT_THROW(writer.write_line("into the void"), IoError);
}

TEST_F(ChaosTest, LineGuardRejectsOversizedLineTyped) {
  SocketPair sp;
  net::LineChannel reader(sp.b);
  // Feed just over the 64 MiB guard with no newline from a writer thread
  // (the socket buffer is far smaller than the payload).
  const std::size_t total = net::LineChannel::kMaxLineBytes + 8192;
  std::thread writer([&] {
    const std::string chunk(1 << 20, 'a');
    std::size_t sent = 0;
    while (sent < total) {
      const std::size_t n = std::min(chunk.size(), total - sent);
      ssize_t w = ::send(sp.a, chunk.data(), n, MSG_NOSIGNAL);
      if (w <= 0) break;  // reader threw and closed — done
      sent += static_cast<std::size_t>(w);
    }
  });
  std::string line;
  EXPECT_THROW((void)reader.read_line(line), IoError);
  ::close(sp.b);  // unblock the writer if it is still sending
  sp.b = -1;
  writer.join();
}

TEST_F(ChaosTest, ReadDeadlineThrowsDeadlineExceededMappedToExit9) {
  SocketPair sp;
  net::LineChannel reader(sp.b);
  reader.set_deadline(0.05);  // 50 ms; the peer never writes
  const auto t0 = std::chrono::steady_clock::now();
  try {
    std::string line;
    (void)reader.read_line(line);
    FAIL() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& e) {
    EXPECT_EQ(exit_code_for(e), kExitDeadlineExceeded);
    EXPECT_EQ(kExitDeadlineExceeded, 9);
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, 40ms) << "deadline fired early";
  EXPECT_LT(waited, 5s) << "deadline did not bound the wait";
}

TEST_F(ChaosTest, ConnectRefusedNamesTheServeCommand) {
  const auto missing =
      (fs::temp_directory_path() / "chaos_no_daemon.sock").string();
  fs::remove(missing);
  try {
    (void)net::connect_unix(missing, 1.0);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("pima_asm serve"), std::string::npos)
        << "error not actionable: " << e.what();
  }
}

TEST_F(ChaosTest, InjectedConnectRefusalAlsoCarriesTheHint) {
  // Even when the endpoint EXISTS, an injected ECONNREFUSED must surface
  // the same actionable message.
  const auto dir = (fs::temp_directory_path() / "chaos_refuse").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto sock = dir + "/d.sock";
  net::ScopedFd listener = net::listen_unix(sock);
  fsio::install_plan(
      fsio::FaultPlan::parse("connect@connect:nth=1:errno=ECONNREFUSED"));
  try {
    (void)net::connect_unix(sock, 1.0);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("pima_asm serve"), std::string::npos);
  }
  fsio::clear_plan();
  fs::remove_all(dir);
}

// ------------------------------------------------- pipeline + crashes ---

dram::Geometry chaos_geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  return g;
}

void write_small_reads(const std::string& path) {
  dna::GenomeParams gp;
  gp.length = 700;
  gp.repeat_count = 0;
  dna::ReadSamplerParams rp;
  rp.coverage = 6.0;
  rp.read_length = 70;
  const auto reads = dna::sample_reads(dna::generate_genome(gp), rp);
  std::vector<dna::Record> records;
  records.reserve(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i)
    records.push_back({"read_" + std::to_string(i), reads[i]});
  dna::write_fasta_file(path, records);
}

std::vector<dna::Sequence> load_reads(const std::string& path) {
  const auto records = dna::read_fasta_file(path);
  std::vector<dna::Sequence> reads;
  reads.reserve(records.size());
  for (const auto& r : records) reads.push_back(r.seq);
  return reads;
}

core::PipelineOptions chaos_pipeline_options(const std::string& ckpt_dir,
                                             bool resume) {
  core::PipelineOptions opt;
  opt.k = 15;
  opt.hash_shards = 8;
  opt.threads = 1;
  opt.checkpoint_dir = ckpt_dir;
  opt.resume = resume;
  return opt;
}

std::string contigs_fasta(const core::PipelineResult& result) {
  std::vector<dna::Record> contigs;
  contigs.reserve(result.contigs.size());
  for (std::size_t i = 0; i < result.contigs.size(); ++i)
    contigs.push_back({"contig_" + std::to_string(i), result.contigs[i]});
  std::ostringstream out;
  dna::write_fasta(out, contigs);
  return out.str();
}

TEST_F(ChaosTest, CheckpointEnospcIsTypedAndRunResumesBitIdentical) {
  const auto dir = (fs::temp_directory_path() / "chaos_ckpt_enospc").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto reads_path = dir + "/reads.fa";
  write_small_reads(reads_path);
  const auto reads = load_reads(reads_path);

  const std::string golden = [&] {
    dram::Device device(chaos_geometry());
    return contigs_fasta(
        core::run_pipeline(device, reads, chaos_pipeline_options("", false)));
  }();

  // Let the first stage checkpoint through, then ENOSPC the next write.
  fsio::install_plan(
      fsio::FaultPlan::parse("write@checkpoint:nth=3:errno=ENOSPC"));
  {
    dram::Device device(chaos_geometry());
    EXPECT_THROW((void)core::run_pipeline(
                     device, reads, chaos_pipeline_options(dir, false)),
                 IoError);
  }
  fsio::clear_plan();

  // The disk freed up; --resume continues from whatever stage survived and
  // the output is bit-identical to the uninterrupted run.
  dram::Device device(chaos_geometry());
  const auto result =
      core::run_pipeline(device, reads, chaos_pipeline_options(dir, true));
  EXPECT_EQ(contigs_fasta(result), golden);
  fs::remove_all(dir);
}

/// Forks, runs `child` in the child process, returns its exit status.
/// The child must only _exit(); gtest assertions there would be lost.
template <typename Fn>
int run_forked(Fn&& child) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    int code = 99;
    try {
      code = child();
    } catch (...) {
      code = 97;
    }
    std::_Exit(code);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 98;
}

TEST_F(ChaosTest, CrashAtEveryCheckpointWritePointResumesBitIdentical) {
  const auto root = (fs::temp_directory_path() / "chaos_crash_sweep").string();
  fs::remove_all(root);
  fs::create_directories(root);
  const auto reads_path = root + "/reads.fa";
  write_small_reads(reads_path);
  const auto reads = load_reads(reads_path);

  const std::string golden = [&] {
    dram::Device device(chaos_geometry());
    return contigs_fasta(
        core::run_pipeline(device, reads, chaos_pipeline_options("", false)));
  }();

  // Sweep the crash point across every checkpoint write the run performs:
  // k = 1, 2, ... until a child completes without hitting its nth trigger
  // (exit 0) — the loop terminates by construction after the run's total
  // write count. Every crash must leave the directory resumable and the
  // resumed output bit-identical.
  int points_hit = 0;
  for (std::uint64_t k = 1; k <= 64; ++k) {
    const std::string dir = root + "/k" + std::to_string(k);
    fs::create_directories(dir);
    const int first = run_forked([&]() -> int {
      fsio::install_plan(fsio::FaultPlan::parse(
          "write@checkpoint:nth=" + std::to_string(k) + ":crash"));
      dram::Device device(chaos_geometry());
      (void)core::run_pipeline(device, reads,
                               chaos_pipeline_options(dir, false));
      return 0;  // nth never fired: the sweep is past the last write
    });
    if (first == 0) break;
    ASSERT_EQ(first, fsio::kCrashExitCode)
        << "crash point k=" << k << " died differently";
    ++points_hit;

    // Survivor run: no plan, resume from whatever the crash left behind.
    const auto out_path = dir + "/resumed.fa";
    const int second = run_forked([&]() -> int {
      dram::Device device(chaos_geometry());
      const auto result = core::run_pipeline(device, reads,
                                             chaos_pipeline_options(dir, true));
      std::ofstream out(out_path, std::ios::binary);
      out << contigs_fasta(result);
      return out ? 0 : 1;
    });
    ASSERT_EQ(second, 0) << "resume after crash point k=" << k << " failed";
    EXPECT_EQ(slurp(out_path), golden)
        << "resume after crash point k=" << k << " diverged";
  }
  EXPECT_GE(points_hit, 3) << "sweep never reached a checkpoint write";
  fs::remove_all(root);
}

TEST_F(ChaosTest, TornRenameCrashLeavesCheckpointOldOrAbsentNeverCorrupt) {
  const auto dir = (fs::temp_directory_path() / "chaos_torn_rename").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto reads_path = dir + "/reads.fa";
  write_small_reads(reads_path);
  const auto reads = load_reads(reads_path);

  const std::string golden = [&] {
    dram::Device device(chaos_geometry());
    return contigs_fasta(
        core::run_pipeline(device, reads, chaos_pipeline_options("", false)));
  }();

  const int first = run_forked([&]() -> int {
    fsio::install_plan(
        fsio::FaultPlan::parse("rename@checkpoint:nth=1:crash"));
    dram::Device device(chaos_geometry());
    (void)core::run_pipeline(device, reads, chaos_pipeline_options(dir, false));
    return 0;
  });
  ASSERT_EQ(first, fsio::kCrashExitCode);

  dram::Device device(chaos_geometry());
  const auto result =
      core::run_pipeline(device, reads, chaos_pipeline_options(dir, true));
  EXPECT_EQ(contigs_fasta(result), golden);
  fs::remove_all(dir);
}

// --------------------------------------------- daemon: chaos harness ----

service::AdmissionPolicy chaos_policy() {
  service::AdmissionPolicy p;
  p.queue_depth = 8;
  p.max_jobs = 2;
  p.channel_budget = 4;
  return p;
}

/// Like test_service's harness, but the state dir persists across daemon
/// incarnations so restart-survival properties are testable.
class ChaosDaemon {
 public:
  explicit ChaosDaemon(const std::string& state_dir) : state_dir_(state_dir) {
    fs::create_directories(state_dir_);
    service::DaemonOptions opt;
    opt.state_dir = state_dir_;
    opt.socket_path = state_dir_ + "/pima.sock";
    opt.admission = chaos_policy();
    opt.geometry = chaos_geometry();
    daemon_ = std::make_unique<service::Daemon>(std::move(opt));
    thread_ = std::thread([this] { daemon_->run(); });
    wait_until_serving();
  }
  ~ChaosDaemon() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      daemon_->request_shutdown();
      thread_.join();
    }
  }

  const std::string& socket() const { return daemon_->options().socket_path; }

  net::Json request(net::Json req) {
    return service::Client::connect_unix_socket(socket(), 30.0)
        .request(req);
  }

  net::Json submit(const std::string& reads, const std::string& idem_key) {
    net::Json req = net::Json::object();
    req.set("verb", "submit").set("reads", reads).set("k", 15).set("shards", 8);
    if (!idem_key.empty()) req.set("idempotency_key", idem_key);
    return request(std::move(req));
  }

  net::Json wait_terminal(const std::string& id) {
    const auto deadline = std::chrono::steady_clock::now() + 120s;
    while (std::chrono::steady_clock::now() < deadline) {
      net::Json req = net::Json::object();
      req.set("verb", "status").set("job", id);
      const auto resp = request(std::move(req));
      if (resp.get_bool("ok", false) &&
          service::is_terminal(
              service::parse_job_state(resp.get_string("state"))))
        return resp;
      std::this_thread::sleep_for(20ms);
    }
    ADD_FAILURE() << "job " << id << " never terminal";
    return net::Json();
  }

 private:
  void wait_until_serving() {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      try {
        net::Json req = net::Json::object();
        req.set("verb", "ping");
        (void)request(std::move(req));
        return;
      } catch (const IoError&) {
        std::this_thread::sleep_for(5ms);
      }
    }
    FAIL() << "daemon never served on " << socket();
  }

  std::string state_dir_;
  std::unique_ptr<service::Daemon> daemon_;
  std::thread thread_;
};

TEST_F(ChaosTest, IdempotentSubmitDedupesToOneJobAndOneExecution) {
  const auto dir = (fs::temp_directory_path() / "chaos_idem").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto reads = dir + "/reads.fa";
  write_small_reads(reads);
  {
    ChaosDaemon d(dir);
    const auto first = d.submit(reads, "ck-retry-1");
    ASSERT_TRUE(first.get_bool("ok", false)) << first.dump();
    const std::string id = first.get_string("job");
    EXPECT_FALSE(first.get_bool("deduped", false));

    // Retried submit (same key) — even concurrently with the run — lands
    // on the SAME job.
    const auto dup = d.submit(reads, "ck-retry-1");
    ASSERT_TRUE(dup.get_bool("ok", false)) << dup.dump();
    EXPECT_EQ(dup.get_string("job"), id);
    EXPECT_TRUE(dup.get_bool("deduped", false));

    (void)d.wait_terminal(id);
    const auto after = d.submit(reads, "ck-retry-1");
    EXPECT_EQ(after.get_string("job"), id);
    EXPECT_TRUE(after.get_bool("deduped", false));

    // Exactly one job exists: the retries executed nothing.
    net::Json list = net::Json::object();
    list.set("verb", "list");
    EXPECT_EQ(d.request(std::move(list)).get("jobs").items().size(), 1u);

    // A different key is a different job.
    const auto other = d.submit(reads, "ck-retry-2");
    EXPECT_NE(other.get_string("job"), id);
    EXPECT_FALSE(other.get_bool("deduped", false));
    (void)d.wait_terminal(other.get_string("job"));
  }
  fs::remove_all(dir);
}

TEST_F(ChaosTest, IdempotencyKeySurvivesDaemonRestart) {
  const auto dir = (fs::temp_directory_path() / "chaos_idem_restart").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto reads = dir + "/reads.fa";
  write_small_reads(reads);
  std::string id;
  {
    ChaosDaemon d(dir);
    const auto first = d.submit(reads, "ck-survives");
    ASSERT_TRUE(first.get_bool("ok", false)) << first.dump();
    id = first.get_string("job");
    (void)d.wait_terminal(id);
  }  // graceful stop; job.json (with the key) persists
  {
    ChaosDaemon d(dir);  // fresh incarnation, same state dir
    const auto dup = d.submit(reads, "ck-survives");
    ASSERT_TRUE(dup.get_bool("ok", false)) << dup.dump();
    EXPECT_EQ(dup.get_string("job"), id) << "dedupe index not rebuilt";
    EXPECT_TRUE(dup.get_bool("deduped", false));
  }
  fs::remove_all(dir);
}

TEST_F(ChaosTest, InvalidIdempotencyKeyRejectedTyped) {
  const auto dir = (fs::temp_directory_path() / "chaos_idem_bad").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto reads = dir + "/reads.fa";
  write_small_reads(reads);
  {
    ChaosDaemon d(dir);
    const auto bad = d.submit(reads, "spaces and ! chars");
    EXPECT_FALSE(bad.get_bool("ok", true));
    EXPECT_EQ(bad.get_string("error"), "InputFormatError");
    const auto long_key = d.submit(reads, std::string(200, 'a'));
    EXPECT_FALSE(long_key.get_bool("ok", true));
    EXPECT_EQ(long_key.get_string("error"), "InputFormatError");
  }
  fs::remove_all(dir);
}

TEST_F(ChaosTest, MalformedRequestCorpusGetsOneTypedErrorLineEach) {
  const auto dir = (fs::temp_directory_path() / "chaos_malformed").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  ChaosDaemon d(dir);

  const std::vector<std::string> corpus = {
      R"({"verb":"ping")",                       // truncated JSON
      R"({"verb":42})",                          // wrong-typed verb
      R"({"verb":["ping"]})",                    // array verb
      R"({})",                                   // missing verb
      R"({"verb":"frobnicate"})",                // unknown verb
      R"({"verb":"status","job":{"k":1}})",      // wrong-typed field
      R"({"verb":"status","job":"a","job":"b"})",// duplicate keys
      std::string("{\"verb\":\"\x80\xfe\"}"),    // non-UTF8 bytes
      R"("just a string")",
      R"(12345)",
  };
  for (const auto& line : corpus) {
    net::ScopedFd fd = net::connect_unix(d.socket(), 10.0);
    net::LineChannel ch(fd.get());
    ch.set_deadline(10.0);
    ch.write_line(line);
    std::string resp_line;
    ASSERT_TRUE(ch.read_line(resp_line)) << "no response for: " << line;
    const auto resp = net::Json::parse(resp_line);  // must parse
    EXPECT_FALSE(resp.get_bool("ok", true)) << line;
    EXPECT_FALSE(resp.get_string("error").empty()) << line;
    // The connection stays usable: a good request after a bad one works.
    net::Json ping = net::Json::object();
    ping.set("verb", "ping");
    ch.write_line(ping.dump());
    ASSERT_TRUE(ch.read_line(resp_line));
    EXPECT_TRUE(net::Json::parse(resp_line).get_bool("ok", false));
  }
  fs::remove_all(dir);
}

TEST_F(ChaosTest, ClientDeadlineAgainstSilentPeerExitsNine) {
  // A listener that accepts but never responds: the client's --timeout
  // must bound the wait and map to exit code 9.
  const auto dir = (fs::temp_directory_path() / "chaos_silent").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto sock = dir + "/silent.sock";
  net::ScopedFd listener = net::listen_unix(sock);
  std::thread accepter([&] {
    net::ScopedFd conn = net::accept_connection(listener.get());
    std::this_thread::sleep_for(2s);  // hold the socket open, say nothing
  });
  auto client = service::Client::connect_unix_socket(sock, 0.1);
  net::Json ping = net::Json::object();
  ping.set("verb", "ping");
  try {
    (void)client.request(ping);
    FAIL() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& e) {
    EXPECT_EQ(exit_code_for(e), 9);
  }
  accepter.join();
  fs::remove_all(dir);
}

TEST_F(ChaosTest, DaemonWireFaultsDoNotPoisonOtherConnections) {
  const auto dir = (fs::temp_directory_path() / "chaos_wire_faults").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  ChaosDaemon d(dir);
  // Every 4th wire send EPIPEs (both directions share the plan): clients
  // see transport errors, but the daemon itself must keep serving.
  fsio::install_plan(
      fsio::FaultPlan::parse("seed=5;send@wire:p=0.25:errno=EPIPE"));
  int served = 0;
  for (int i = 0; i < 20; ++i) {
    try {
      net::Json ping = net::Json::object();
      ping.set("verb", "ping");
      if (d.request(std::move(ping)).get_bool("ok", false)) ++served;
    } catch (const IoError&) {
      // injected hangup — expected some of the time
    }
  }
  fsio::clear_plan();
  EXPECT_GT(served, 0) << "no request survived p=0.25 wire faults";
  // With the plan gone the daemon is fully healthy.
  net::Json ping = net::Json::object();
  ping.set("verb", "ping");
  EXPECT_TRUE(d.request(std::move(ping)).get_bool("ok", false));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pima
