#include "runtime/procpool.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <thread>

#include "common/fsio.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/log.hpp"
#include "telemetry/session.hpp"

extern char** environ;

namespace pima::runtime {

namespace {

constexpr const char* kSite = "procpool";

// Span names must be string literals (the trace ring stores pointers).
const char* rpc_span_name(const std::string& op) {
  if (op == "kmers") return "rpc:kmers";
  if (op == "drain") return "rpc:drain";
  if (op == "extract") return "rpc:extract";
  if (op == "distinct") return "rpc:distinct";
  if (op == "program") return "rpc:program";
  if (op == "degree_block") return "rpc:degree_block";
  if (op == "stats") return "rpc:stats";
  if (op == "clear_stats") return "rpc:clear_stats";
  if (op == "trace") return "rpc:trace";
  if (op == "telemetry") return "rpc:telemetry";
  if (op == "ping") return "rpc:ping";
  return "rpc";
}

// Relays one child's raw stderr to the parent's, line-buffered and
// prefixed with the device id, so worker diagnostics stop interleaving
// illegibly with the controller's progress reporter.
void relay_stderr(int fd, std::size_t device) {
  std::string pending;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = pending.find('\n', start);
      if (nl == std::string::npos) break;
      std::fprintf(stderr, "[devd %zu] %.*s\n", device,
                   static_cast<int>(nl - start), pending.data() + start);
      start = nl + 1;
    }
    pending.erase(0, start);
  }
  if (!pending.empty())
    std::fprintf(stderr, "[devd %zu] %s\n", device, pending.c_str());
  ::close(fd);
}

// Pre-fork snapshot of the environment with PIMA_IOFAULT optionally
// replaced: only async-signal-safe work remains between fork and exec.
std::vector<std::string> child_environment(const std::string& iofault) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (!iofault.empty() &&
        std::strncmp(*e, "PIMA_IOFAULT=", 13) == 0)
      continue;
    env.emplace_back(*e);
  }
  if (!iofault.empty()) env.push_back("PIMA_IOFAULT=" + iofault);
  return env;
}

}  // namespace

const char* to_string(WorkerExitClass c) {
  switch (c) {
    case WorkerExitClass::kClean: return "clean exit";
    case WorkerExitClass::kStalled: return "engine stall";
    case WorkerExitClass::kCrashExit: return "crash exit";
    case WorkerExitClass::kSignal: return "killed by signal";
    case WorkerExitClass::kTorn: return "torn protocol";
    case WorkerExitClass::kWedged: return "wedged (liveness deadline)";
  }
  return "?";
}

[[noreturn]] void throw_worker_error(const net::Json& response) {
  const std::string type = response.get_string("error");
  const std::string message = response.get_string("message");
  if (type == "EngineStalledError")
    // Reconstructed from the wire fields; format() regenerates the exact
    // message the worker's engine produced.
    throw EngineStalledError(
        static_cast<std::size_t>(response.get_uint64("channel")),
        static_cast<std::size_t>(
            response.get_uint64("subarray", EngineStalledError::kNoSubarray)),
        response.get_uint64("last_retired"),
        response.get_number("timeout_ms"));
  if (type == "PreconditionError") throw PreconditionError(message);
  if (type == "CorruptCheckpointError") throw CorruptCheckpointError(message);
  if (type == "IoError") throw IoError(message);
  if (type == "InputFormatError") throw InputFormatError(message);
  if (type == "CancelledError") throw CancelledError(message);
  throw SimulationError(message.empty() ? "device worker error (" + type + ")"
                                        : message);
}

std::string resolve_devd_path(const std::string& requested) {
  std::vector<std::string> candidates;
  if (!requested.empty()) {
    candidates.push_back(requested);
  } else {
    if (const char* env = std::getenv("PIMA_DEVD_PATH");
        env != nullptr && *env != '\0')
      candidates.emplace_back(env);
    std::error_code ec;
    const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (!ec) {
      const auto dir = self.parent_path();
      candidates.push_back((dir / "pima_devd").string());
      candidates.push_back((dir / ".." / "tools" / "pima_devd").string());
    }
  }
  for (const auto& c : candidates) {
    std::error_code ec;
    if (std::filesystem::exists(c, ec)) return c;
  }
  throw IoError(
      "cannot find the pima_devd device-worker binary (tried " +
      (candidates.empty() ? std::string("nothing")
                          : candidates.front() +
                                (candidates.size() > 1 ? " and friends" : "")) +
      "); build it alongside pima_asm or set PIMA_DEVD_PATH");
}

ProcSupervisor::ProcSupervisor(ProcPoolOptions options,
                               std::function<net::Json(std::size_t)> make_init)
    : options_(std::move(options)), make_init_(std::move(make_init)) {
  PIMA_CHECK(options_.devices >= 1, "process pool needs at least one device");
  PIMA_CHECK(make_init_ != nullptr, "process pool needs an init builder");
  workers_.resize(options_.devices);
}

ProcSupervisor::~ProcSupervisor() { shutdown(); }

std::string ProcSupervisor::shard_checkpoint_path(std::size_t d) const {
  return options_.checkpoint_dir + "/shard-" + std::to_string(d) + ".ckpt";
}

void ProcSupervisor::validate_shard_checkpoint(std::size_t d) const {
  if (options_.checkpoint_dir.empty()) return;
  const std::string path = shard_checkpoint_path(d);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return;
  const ShardCheckpoint sc = load_shard_checkpoint(path);
  CheckpointFingerprint expected = options_.fingerprint;
  expected.shard = static_cast<std::uint64_t>(d);
  const std::string field = sc.fingerprint.diff(expected);
  if (!field.empty())
    throw CorruptCheckpointError(
        "shard checkpoint " + path + " incompatible with this run: " + field +
        " differs — it was cut by a different run configuration (or for a "
        "different shard); remove the stale file or match the original "
        "configuration");
}

void ProcSupervisor::spawn(std::size_t d) {
  Worker& w = workers_[d];
  int sv[2] = {-1, -1};
  if (fsio::socketpair(AF_UNIX, SOCK_STREAM, 0, sv, kSite) != 0)
    throw IoError("socketpair failed for device worker " + std::to_string(d) +
                  ": " + std::strerror(errno));
  // Dedicated stderr pipe: the child's raw diagnostics are relayed by a
  // parent thread with a `[devd <d>]` prefix instead of interleaving with
  // the controller's own stderr mid-line.
  int ep[2] = {-1, -1};
  if (::pipe(ep) != 0) {
    const int err = errno;
    ::close(sv[0]);
    ::close(sv[1]);
    throw IoError("stderr pipe failed for device worker " + std::to_string(d) +
                  ": " + std::strerror(err));
  }

  // Build argv/envp before forking: only dup2/close/execve afterwards.
  const std::string fd_str = "3";
  const std::string dev_str = std::to_string(d);
  std::vector<std::string> env = child_environment(options_.child_iofault);
  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (auto& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);
  std::string exe = resolved_devd_;
  const char* argv[] = {exe.c_str(),     "--fd",     fd_str.c_str(),
                        "--device",      dev_str.c_str(), nullptr};

  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(sv[0]);
    ::close(sv[1]);
    ::close(ep[0]);
    ::close(ep[1]);
    throw IoError("fork failed for device worker " + std::to_string(d) + ": " +
                  std::strerror(err));
  }
  if (pid == 0) {
    ::close(sv[0]);
    ::close(ep[0]);
    if (sv[1] != 3) {
      (void)::dup2(sv[1], 3);
      ::close(sv[1]);
    }
    (void)::dup2(ep[1], 2);
    ::close(ep[1]);
    ::execve(exe.c_str(), const_cast<char* const*>(argv), envp.data());
    std::_Exit(127);  // exec failed: classified as a crash exit by the parent
  }
  ::close(sv[1]);
  ::close(ep[1]);
  w.pid = pid;
  w.fd = net::ScopedFd(sv[0]);
  w.channel = std::make_unique<net::LineChannel>(w.fd.get());
  if (options_.liveness_timeout_s > 0)
    w.channel->set_deadline(options_.liveness_timeout_s);
  if (w.stderr_relay.joinable()) w.stderr_relay.join();
  w.stderr_relay = std::thread(relay_stderr, ep[0], d);
  w.alive = true;
  ++w.spawn_count;
}

net::Json ProcSupervisor::receive(Worker& w) {
  std::string response;
  for (;;) {
    if (!w.channel->read_line(response))
      throw IoError("device worker closed the stream mid-request");
    net::Json j = net::Json::parse(response);
    if (j.has("hb")) continue;  // heartbeat: read_line already re-armed
    return j;
  }
}

net::Json ProcSupervisor::transact(Worker& w, const std::string& line) {
  w.channel->write_line(line);
  return receive(w);
}

void ProcSupervisor::respawn(std::size_t d) {
  validate_shard_checkpoint(d);
  spawn(d);
  Worker& w = workers_[d];
  // Re-init + journal replay. The responses were consumed before the
  // crash; any non-ok here is a deterministic child-side error and is
  // rethrown typed (it would have been thrown on the original send too).
  telemetry::Tracer& tr = telemetry::tracer();
  const std::int64_t t0 = tr.enabled() ? tr.now_ns() : 0;
  const net::Json init_resp = transact(w, make_init_(d).dump());
  if (!init_resp.get_bool("ok", false)) throw_worker_error(init_resp);
  if (tr.enabled() && init_resp.has("now_ns")) {
    // Clock sync: the worker sampled its (fresh) tracer epoch somewhere
    // inside [t0, t1] on the controller clock; the midpoint bounds the
    // offset error by half the init round-trip.
    const std::int64_t t1 = tr.now_ns();
    const auto worker_now =
        static_cast<std::int64_t>(init_resp.get_number("now_ns"));
    w.clock_offset_ns = (t0 + t1) / 2 - worker_now;
  }
  for (const std::string& line : w.journal) {
    const net::Json resp = transact(w, line);
    if (!resp.get_bool("ok", false)) throw_worker_error(resp);
  }
}

WorkerExitClass ProcSupervisor::reap_worker(std::size_t d,
                                            bool wedged) noexcept {
  Worker& w = workers_[d];
  w.alive = false;
  w.channel.reset();
  w.fd = net::ScopedFd();
  if (w.pid <= 0) return WorkerExitClass::kTorn;
  // SIGKILL before the blocking reap: a zombie's exit status is
  // unaffected, and a live-but-garbling worker must not block waitpid.
  (void)fsio::kill(w.pid, SIGKILL, kSite);
  int status = 0;
  pid_t got;
  do {
    got = fsio::waitpid(w.pid, &status, 0, kSite);
  } while (got < 0 && errno == EINTR);
  w.pid = -1;
  // The dead child's stderr pipe is at EOF now; let the relay flush its
  // last lines before the failure is logged.
  try {
    if (w.stderr_relay.joinable()) w.stderr_relay.join();
  } catch (...) {
  }
  if (wedged) return WorkerExitClass::kWedged;
  if (got < 0) return WorkerExitClass::kTorn;
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (code == kExitEngineStalled) return WorkerExitClass::kStalled;
    // Exit 0 while the parent saw a broken stream = the worker tore the
    // protocol (it never completed the shutdown handshake).
    if (code == 0) return WorkerExitClass::kTorn;
    return WorkerExitClass::kCrashExit;
  }
  if (WIFSIGNALED(status)) return WorkerExitClass::kSignal;
  return WorkerExitClass::kTorn;
}

void ProcSupervisor::on_worker_failure(std::size_t d, bool wedged,
                                       const std::string& what) {
  Worker& w = workers_[d];
  const WorkerExitClass cls = reap_worker(d, wedged);
  telemetry::log_event(telemetry::LogLevel::kWarn, "worker.failed",
                       "device worker " + std::to_string(d) + " failed — " +
                           to_string(cls) + " (" + what + ")",
                       {telemetry::LogField::uint("device", d),
                        telemetry::LogField::str("class", to_string(cls))});
  // Post-mortem artifact for every non-clean demise the classifier can
  // detect: the flight ring plus the registered state snapshots.
  telemetry::FlightRecorder::instance().dump(
      "worker_failure", "device " + std::to_string(d) + ": " +
                            to_string(cls) + " (" + what + ")");
  if (restarts_used_ >= options_.restart_budget) {
    telemetry::log_event(
        telemetry::LogLevel::kError, "pool.degraded",
        "device worker " + std::to_string(d) +
            " failed with the restart budget exhausted — degrading",
        {telemetry::LogField::uint("device", d),
         telemetry::LogField::uint("restarts", restarts_used_)});
    telemetry::FlightRecorder::instance().dump(
        "pool_degraded", "device " + std::to_string(d) + ": " + what);
    throw ProcPoolDegradedError(d, cls, what);
  }
  ++restarts_used_;
  ++w.consecutive_restarts;
  const double backoff_ms =
      std::min(options_.restart_backoff_ms *
                   static_cast<double>(std::uint64_t{1}
                                       << std::min<std::size_t>(
                                              w.consecutive_restarts - 1, 10)),
               2000.0);
  {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "restarting device worker %zu from its stage-%u shard "
                  "checkpoint in %.0f ms (%zu/%zu restarts used)",
                  d, stages_done_, backoff_ms, restarts_used_,
                  options_.restart_budget);
    telemetry::log_event(telemetry::LogLevel::kInfo, "worker.restart", msg,
                         {telemetry::LogField::uint("device", d),
                          telemetry::LogField::num("backoff_ms", backoff_ms)});
  }
  if (backoff_ms > 0)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
}

void ProcSupervisor::start() {
  PIMA_CHECK(!started_, "process pool already started");
  resolved_devd_ = resolve_devd_path(options_.devd_path);
  started_ = true;
  // Worker-state snapshot for crash reports. Dumps run on the controller
  // thread (the only thread that mutates workers_), so the reads are safe.
  snapshot_id_ = telemetry::FlightRecorder::instance().add_snapshot_provider(
      "procpool", [this] {
        std::string out = "{\"restarts_used\": " +
                          std::to_string(restarts_used_) +
                          ", \"restart_budget\": " +
                          std::to_string(options_.restart_budget) +
                          ", \"stages_done\": " + std::to_string(stages_done_) +
                          ", \"workers\": [";
        for (std::size_t d = 0; d < workers_.size(); ++d) {
          const Worker& w = workers_[d];
          out += d == 0 ? "" : ", ";
          out += "{\"device\": " + std::to_string(d) +
                 ", \"pid\": " + std::to_string(w.pid) +
                 ", \"alive\": " + (w.alive ? "true" : "false") +
                 ", \"incarnation\": " +
                 std::to_string(w.spawn_count == 0 ? 0 : w.spawn_count - 1) +
                 ", \"journal_len\": " + std::to_string(w.journal.size()) +
                 "}";
        }
        out += "]}";
        return out;
      });
  for (std::size_t d = 0; d < options_.devices; ++d) {
    for (;;) {
      try {
        respawn(d);
        break;
      } catch (const DeadlineExceededError& e) {
        on_worker_failure(d, true, e.what());
      } catch (const CorruptCheckpointError&) {
        throw;
      } catch (const IoError& e) {
        on_worker_failure(d, false, e.what());
      } catch (const InputFormatError& e) {
        on_worker_failure(d, false, e.what());
      }
    }
  }
}

std::vector<net::Json> ProcSupervisor::exchange(
    const std::vector<std::pair<std::size_t, const net::Json*>>& requests,
    bool journaled) {
  PIMA_CHECK(started_, "process pool not started");
  // Traced runs stamp each request with a flow id: the controller's
  // rpc:<op> span opens the flow, the worker's devd:<op> span finishes
  // it, and Perfetto draws the cross-process arrow. Journaled lines keep
  // their stamp — a replayed flow end is a harmless duplicate.
  telemetry::Tracer& tr = telemetry::tracer();
  const bool traced = tr.enabled();
  struct Call {
    std::size_t device;
    std::string line;
    const char* span;
    std::uint64_t flow = 0;
    bool owed = false;  ///< sent, response not yet read
  };
  std::vector<Call> calls;
  calls.reserve(requests.size());
  for (const auto& [device, request] : requests) {
    PIMA_CHECK(device < workers_.size(), "device index out of range");
    Call c{device, {}, rpc_span_name(request->get_string("op"))};
    if (traced) {
      net::Json stamped = *request;
      c.flow = ++flow_seq_;
      stamped.set("tel", c.flow);
      c.line = stamped.dump();
    } else {
      c.line = request->dump();
    }
    calls.push_back(std::move(c));
  }
  // Transport failures and liveness expiries run classify → restart →
  // replay, bounded by the restart budget; the caller then resends.
  const auto recover = [this](std::size_t d, const auto& attempt) {
    for (;;) {
      try {
        return attempt();
      } catch (const DeadlineExceededError& e) {
        on_worker_failure(d, true, e.what());
      } catch (const CorruptCheckpointError&) {
        throw;  // stale/foreign shard checkpoint: not survivable by restart
      } catch (const IoError& e) {
        on_worker_failure(d, false, e.what());
      } catch (const InputFormatError& e) {
        // Garbage on the wire (undecodable response line) = torn protocol.
        on_worker_failure(d, false, e.what());
      }
    }
  };
  const auto send = [&](Call& c) {
    recover(c.device, [&] {
      Worker& w = workers_[c.device];
      if (!w.alive) respawn(c.device);
      w.channel->write_line(c.line);
      c.owed = true;
    });
  };
  std::vector<net::Json> responses(calls.size());
  std::exception_ptr first_error;
  try {
    // Every request is written before any response is read, so the
    // workers execute concurrently. A response is read only from the
    // incarnation it was sent to: a failed read restarts the worker and
    // sends the request again.
    std::int64_t t_start = traced ? tr.now_ns() : 0;
    for (Call& c : calls) send(c);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      Call& c = calls[i];
      net::Json& response = responses[i];
      recover(c.device, [&] {
        if (!workers_[c.device].alive) send(c);  // restarted: send again
        response = receive(workers_[c.device]);
      });
      c.owed = false;
      if (traced) {
        // Spans of one exchange share its start, so they nest by
        // duration on the controller track.
        tr.record_complete(c.span, t_start, tr.now_ns() - t_start);
        tr.record_flow("rpc", 's', c.flow, t_start);
      }
      if (!response.get_bool("ok", false)) {
        // Deterministic child-side failure: no restart. A stalled engine
        // poisons the worker (it exits right after responding); mark it
        // dead so shutdown() does not handshake with it. The remaining
        // responses are still read, keeping every channel in step.
        if (response.get_string("error") == "EngineStalledError")
          (void)reap_worker(c.device, false);
        if (!first_error) {
          try {
            throw_worker_error(response);
          } catch (...) {
            first_error = std::current_exception();
          }
        }
        continue;
      }
      workers_[c.device].consecutive_restarts = 0;
      if (journaled) workers_[c.device].journal.push_back(c.line);
    }
  } catch (...) {
    // Degraded, or a restart that cannot succeed: a worker still owing a
    // response is killed, so no channel is left mid-request (a later
    // request respawns it and replays its journal).
    for (const Call& c : calls)
      if (c.owed) (void)reap_worker(c.device, false);
    throw;
  }
  if (first_error) std::rethrow_exception(first_error);
  return responses;
}

net::Json ProcSupervisor::rpc(std::size_t device, const net::Json& request) {
  return std::move(exchange({{device, &request}}, true).front());
}

net::Json ProcSupervisor::query(std::size_t device, const net::Json& request) {
  return std::move(exchange({{device, &request}}, false).front());
}

std::vector<net::Json> ProcSupervisor::rpc_all(
    const std::vector<net::Json>& requests) {
  PIMA_CHECK(requests.size() == workers_.size(),
             "rpc_all needs one request per worker");
  std::vector<std::pair<std::size_t, const net::Json*>> calls;
  for (std::size_t d = 0; d < requests.size(); ++d)
    calls.emplace_back(d, &requests[d]);
  return exchange(calls, true);
}

void ProcSupervisor::collect_telemetry() {
  telemetry::Tracer& tr = telemetry::tracer();
  if (!tr.enabled()) return;
  static const net::Json telemetry_req = [] {
    net::Json j = net::Json::object();
    j.set("op", "telemetry");
    return j;
  }();
  for (std::size_t d = 0; d < workers_.size(); ++d) {
    // A dead worker's unflushed spans died with it — skip rather than
    // respawn a process just to ask it for telemetry it no longer has.
    if (!workers_[d].alive) continue;
    // query() runs the full failure machinery, so a worker that fails
    // mid-harvest is restarted (losing its unflushed spans) rather than
    // aborting the harvest. The incarnation snapshot below is taken AFTER
    // the query: pid/offset must describe the process that answered.
    const net::Json resp = query(d, telemetry_req);
    Worker& w = workers_[d];
    telemetry::ProcessTrace pt;
    pt.pid = static_cast<std::int64_t>(w.pid);
    pt.name = "pima_devd d=" + std::to_string(d);
    const std::size_t incarnation = w.spawn_count == 0 ? 0 : w.spawn_count - 1;
    if (incarnation > 0)
      pt.name += " (restart " + std::to_string(incarnation) + ")";
    pt.sort_index = static_cast<int>(d) + 1;
    if (resp.has("tracks") && resp.get("tracks").is_array())
      for (const auto& entry : resp.get("tracks").items())
        pt.track_names[static_cast<std::uint32_t>(
            entry.get_uint64("track"))] = entry.get_string("name");
    if (resp.has("events") && resp.get("events").is_array()) {
      for (const auto& row : resp.get("events").items()) {
        if (!row.is_array() || row.items().size() < 8) continue;
        const auto& f = row.items();
        telemetry::ExportedTraceEvent e;
        e.name = f[0].as_string();
        const std::string phase = f[1].as_string();
        e.phase = phase.empty() ? 'X' : phase[0];
        e.track = static_cast<std::uint32_t>(f[2].as_uint64());
        e.ts_ns = static_cast<std::int64_t>(f[3].as_number()) +
                  w.clock_offset_ns;
        e.dur_ns = static_cast<std::int64_t>(f[4].as_number());
        e.value = f[5].as_number();
        e.arg_name = f[6].as_string();
        e.flow_id = f[7].as_uint64();
        pt.events.push_back(std::move(e));
      }
    }
    tr.put_process(std::move(pt));
  }
}

void ProcSupervisor::mark_stage_done(std::uint32_t stage) {
  collect_telemetry();
  stages_done_ = stage;
  for (std::size_t d = 0; d < workers_.size(); ++d) {
    if (options_.journal_truncation) workers_[d].journal.clear();
    if (!options_.checkpoint_dir.empty()) {
      ShardCheckpoint sc;
      sc.fingerprint = options_.fingerprint;
      sc.fingerprint.shard = static_cast<std::uint64_t>(d);
      sc.stages_done = stage;
      save_shard_checkpoint(shard_checkpoint_path(d), sc);
    }
  }
}

void ProcSupervisor::shutdown() noexcept {
  if (!started_) return;
  // Final span harvest before the handshake tears the workers down. Any
  // failure here (a dead worker, an exhausted budget) must not turn a
  // graceful shutdown into a throw.
  try {
    collect_telemetry();
  } catch (...) {
  }
  static const std::string shutdown_line = [] {
    net::Json j = net::Json::object();
    j.set("op", "shutdown");
    return j.dump();
  }();
  for (std::size_t d = 0; d < workers_.size(); ++d) {
    Worker& w = workers_[d];
    if (w.alive && w.channel) {
      try {
        (void)transact(w, shutdown_line);
      } catch (...) {
        // The reap below classifies whatever happened.
      }
    }
    (void)reap_worker(d, false);
  }
  if (snapshot_id_ >= 0) {
    telemetry::FlightRecorder::instance().remove_snapshot_provider(
        snapshot_id_);
    snapshot_id_ = -1;
  }
  started_ = false;
}

}  // namespace pima::runtime
