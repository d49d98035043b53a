// Process-isolated device shards with a fault-tolerant supervisor
// (DESIGN.md §15).
//
// PR 8's DevicePool shards a run over N simulated devices inside one
// address space; this layer moves each shard into its own child process
// (`pima_devd`) so a crashed, wedged, or chaos-injected device worker
// cannot take the assembly down with it. The parent keeps the pool's
// contract — owner = flat % devices, order-free integer stats folds — and
// owns the robustness machinery:
//
//   * transport: one socketpair per worker, newline-delimited JSON framed
//     by net::LineChannel, every byte through the fsio fault shim (site
//     "wire" in the workers, "procpool" for spawn/reap/kill), so
//     PIMA_IOFAULT chaos reaches the process boundary like every other
//     I/O path;
//   * liveness: workers heartbeat (`{"hb":1}`) from a side thread that
//     keeps beating while the engine watchdog runs, so a long in-memory
//     stage does not trip the parent's deadline; the deadline bounds every
//     wait for worker bytes and a silent worker is declared wedged,
//     SIGKILLed and reaped;
//   * reaping: waitpid with typed exit classification — clean shutdown,
//     EngineStalledError (exit 6), injected torn-write crash (exit 86),
//     death by signal, or a torn protocol stream (EOF/garbage mid-request,
//     or a clean exit without a shutdown handshake);
//   * restart: bounded restart-with-backoff. Every state-mutating request
//     is journaled; a restarted worker is re-initialized, validated
//     against its per-device shard checkpoint (fingerprint v3 pins the
//     shard id) and replayed to exactly the pre-crash state. Journals are
//     truncated at stage boundaries (the shard checkpoint records the
//     truncation point), so replay cost is bounded by one stage;
//   * degrade: when the restart budget is exhausted the supervisor throws
//     ProcPoolDegradedError and the pipeline falls back to the in-process
//     DevicePool — a typed, logged transition, bit-identical output.
//
// Determinism: a worker's device state is a pure function of its request
// journal, and the controller (core::IsolatedBackend) merges cross-shard
// data in plain orders — shard order, program order, logical flat order
// for traces — and sums stats as integer counts, so a run with K worker
// crashes is bit-identical to a crash-free run (and to the in-process
// run).
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "net/json.hpp"
#include "net/socket.hpp"
#include "runtime/checkpoint.hpp"

namespace pima::runtime {

/// Typed classification of a worker's demise, derived from waitpid status
/// plus protocol context.
enum class WorkerExitClass : std::uint8_t {
  kClean,      ///< exited 0 after a shutdown handshake
  kStalled,    ///< exited with the EngineStalledError code (6)
  kCrashExit,  ///< non-zero exit (incl. fsio's torn-write crash, 86)
  kSignal,     ///< killed by a signal (SIGKILL, SIGSEGV, ...)
  kTorn,       ///< protocol torn: EOF/garbage mid-request or exit 0 mid-run
  kWedged,     ///< liveness deadline expired; SIGKILLed by the supervisor
};

const char* to_string(WorkerExitClass c);

/// Raised when the restart budget is exhausted: the signal to degrade to
/// the in-process DevicePool. Carries the final crash's identity so the
/// pipeline can convert it into WorkerCrashedError when degrading is
/// disabled.
class ProcPoolDegradedError : public SimulationError {
 public:
  ProcPoolDegradedError(std::size_t device, WorkerExitClass exit_class,
                        const std::string& detail)
      : SimulationError("device worker " + std::to_string(device) +
                        " failed (" + runtime::to_string(exit_class) +
                        ") with the restart budget exhausted: " + detail),
        device_(device),
        exit_class_(exit_class),
        detail_(detail) {}

  std::size_t device() const { return device_; }
  WorkerExitClass exit_class() const { return exit_class_; }
  const std::string& detail() const { return detail_; }

 private:
  std::size_t device_;
  WorkerExitClass exit_class_;
  std::string detail_;
};

struct ProcPoolOptions {
  std::size_t devices = 1;
  /// Path of the pima_devd binary. Empty = $PIMA_DEVD_PATH, then
  /// alongside /proc/self/exe, then ../tools relative to it.
  std::string devd_path;
  /// Bounds every wait for worker bytes (heartbeats re-arm it). 0 = wait
  /// forever — the unsupervised in-process semantics.
  double liveness_timeout_s = 0.0;
  /// Total restarts allowed across all workers before degrading.
  std::size_t restart_budget = 3;
  /// Base backoff before a restart; doubles per consecutive restart of the
  /// same worker, capped at 2 s.
  double restart_backoff_ms = 50.0;
  /// False keeps the full journal for the whole run (required when the
  /// run captures a trace: a restarted worker must replay every command).
  bool journal_truncation = true;
  /// Directory for `shard-<d>.ckpt` files; empty disables them.
  std::string checkpoint_dir;
  /// Whole-run fingerprint (shard = kWholeRunShard); the supervisor pins
  /// fingerprint.shard = d for worker d's checkpoint.
  CheckpointFingerprint fingerprint;
  /// PIMA_IOFAULT spec installed in the children's environment; empty
  /// inherits the parent's environment unchanged. Lets chaos tests aim a
  /// fault plan at the workers while the parent stays clean (the parent
  /// uses the process-local install_plan for its own faults).
  std::string child_iofault;
};

/// Owns the worker processes of one isolated run. Single-threaded use by
/// the pipeline (the parent is the only controller; concurrency lives in
/// the workers' engines).
class ProcSupervisor {
 public:
  /// `make_init` builds the init request for a device; it is re-sent
  /// verbatim on every restart of that worker.
  ProcSupervisor(ProcPoolOptions options,
                 std::function<net::Json(std::size_t)> make_init);
  ~ProcSupervisor();

  ProcSupervisor(const ProcSupervisor&) = delete;
  ProcSupervisor& operator=(const ProcSupervisor&) = delete;

  /// Spawns and initializes every worker (validating shard checkpoints
  /// left by a previous run of the same directory).
  void start();

  std::size_t devices() const { return options_.devices; }

  /// State-mutating request: journaled for crash replay. Returns the ok
  /// response; child-side typed errors are rethrown as their original
  /// exception types (no restart — they are deterministic). Transport
  /// failures and liveness expiries trigger classify → restart → replay,
  /// bounded by the restart budget (ProcPoolDegradedError thereafter).
  net::Json rpc(std::size_t device, const net::Json& request);

  /// Read-only request: same failure handling, not journaled.
  net::Json query(std::size_t device, const net::Json& request);

  /// One state-mutating request per worker (`requests[d]` goes to worker
  /// d), with rpc()'s journaling and failure handling. Every request is
  /// written before any response is read, so the workers execute them
  /// concurrently; responses are read in device order. A worker that fails
  /// while its request is outstanding is restarted, replayed and sent the
  /// request again. A typed child error does not stop the exchange: every
  /// other response is still read (and journaled when ok), then the error
  /// of the lowest device is rethrown, so no channel is left mid-request.
  std::vector<net::Json> rpc_all(const std::vector<net::Json>& requests);

  /// Stage boundary: harvests worker span buffers (when the controller
  /// tracer is live), truncates journals (when enabled) and writes the
  /// per-device shard checkpoints.
  void mark_stage_done(std::uint32_t stage);

  /// Fetches every live worker's cumulative span buffer over the
  /// `telemetry` verb and installs it in the controller tracer as that
  /// incarnation's ProcessTrace (timestamps shifted by the clock offset
  /// sampled at init). No-op when tracing is disabled. Uses the normal
  /// rpc failure handling, so a dead worker is restarted (and its spans
  /// since the last harvest are lost — restarts appear as new tracks).
  void collect_telemetry();

  /// Graceful shutdown handshake with every live worker, then reap.
  /// Idempotent; also run by the destructor.
  void shutdown() noexcept;

  std::size_t restarts_used() const { return restarts_used_; }

 private:
  struct Worker {
    pid_t pid = -1;
    net::ScopedFd fd;
    std::unique_ptr<net::LineChannel> channel;
    std::vector<std::string> journal;  ///< since the last truncation
    std::size_t consecutive_restarts = 0;
    bool alive = false;
    std::size_t spawn_count = 0;        ///< incarnation = spawn_count - 1
    std::int64_t clock_offset_ns = 0;   ///< controller now − worker now
    std::thread stderr_relay;           ///< prefixes child stderr lines
  };

  std::string shard_checkpoint_path(std::size_t d) const;
  void validate_shard_checkpoint(std::size_t d) const;
  void spawn(std::size_t d);
  void respawn(std::size_t d);
  /// Reads the next response line, skipping heartbeats.
  net::Json receive(Worker& w);
  net::Json transact(Worker& w, const std::string& line);
  /// Classify + reap + log; throws ProcPoolDegradedError past the budget,
  /// otherwise sleeps the backoff and leaves the worker dead for respawn.
  void on_worker_failure(std::size_t d, bool wedged, const std::string& what);
  WorkerExitClass reap_worker(std::size_t d, bool wedged) noexcept;
  /// The one request path behind rpc/query/rpc_all: writes every
  /// (device, request) pair, then reads the responses in order.
  std::vector<net::Json> exchange(
      const std::vector<std::pair<std::size_t, const net::Json*>>& requests,
      bool journaled);

  ProcPoolOptions options_;
  std::function<net::Json(std::size_t)> make_init_;
  std::string resolved_devd_;
  std::vector<Worker> workers_;
  std::uint32_t stages_done_ = 0;
  std::size_t restarts_used_ = 0;
  std::uint64_t flow_seq_ = 0;  ///< rpc flow-event ids (traced runs)
  int snapshot_id_ = -1;        ///< flight-recorder provider registration
  bool started_ = false;
};

/// Rethrows a worker's `{"ok":false,...}` response as the original typed
/// exception (EngineStalledError is reconstructed from its wire fields).
/// Shared with the client side of the daemon tests.
[[noreturn]] void throw_worker_error(const net::Json& response);

/// Resolves the pima_devd binary per ProcPoolOptions::devd_path rules.
/// Throws IoError when no candidate exists.
std::string resolve_devd_path(const std::string& requested);

}  // namespace pima::runtime
