// Thin POSIX socket layer for the service wire protocol.
//
// The daemon listens on a unix-domain stream socket (the default: local,
// permission-guarded by the filesystem) and optionally on a loopback TCP
// port. Both carry the same newline-delimited JSON protocol, so the
// client code is transport-agnostic once connected.
//
// Everything here throws IoError on OS failures (mapping to the
// documented I/O exit code) and retries EINTR, so callers never see
// partial reads/writes or signal-induced short counts. All reads, writes
// and connects go through the fsio fault-injection shim (common/fsio.hpp,
// sites "wire" / "connect"), so chaos tests can storm EINTRs, cut peers
// mid-line, or refuse connections deterministically.
//
// Deadlines: connect_unix/connect_tcp and LineChannel take an optional
// timeout in seconds (0 = wait forever, the daemon-side default). A
// connect or a wait for bytes that exceeds its budget throws
// DeadlineExceededError — the client's --timeout / exit code 9 path —
// implemented with poll(2), never busy-waiting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace pima::net {

/// Owning file descriptor (move-only). -1 = empty.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { close_fd(); }
  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      close_fd();
      fd_ = other.release();
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void close_fd();

 private:
  int fd_ = -1;
};

/// Binds and listens on a unix stream socket. An existing socket file at
/// `path` is unlinked first (a daemon SIGKILLed mid-run leaves one
/// behind); a live daemon on the same path would lose its listener, so
/// callers use distinct state dirs per daemon. Throws IoError if the path
/// exceeds sockaddr_un limits or any syscall fails.
ScopedFd listen_unix(const std::string& path, int backlog = 16);

/// Binds and listens on loopback (127.0.0.1) TCP with SO_REUSEADDR.
ScopedFd listen_tcp(std::uint16_t port, int backlog = 16);

/// The local port a bound TCP socket holds (getsockname) — how a caller
/// learns the ephemeral port that listen_tcp(0) was given.
std::uint16_t local_port(const ScopedFd& fd);

/// Connects to a unix socket / loopback TCP port. Retries EINTR and
/// completes in-progress connects with poll(2). `timeout_s` bounds the
/// whole attempt (0 = no deadline) → DeadlineExceededError on expiry.
/// ECONNREFUSED / ENOENT throw an IoError whose message says how to start
/// the daemon — the actionable "is it running?" path.
ScopedFd connect_unix(const std::string& path, double timeout_s = 0.0);
ScopedFd connect_tcp(std::uint16_t port, double timeout_s = 0.0);

/// Accepts one connection; retries EINTR. Returns an empty fd when the
/// listener has been closed/shut down (daemon shutdown path).
ScopedFd accept_connection(int listener_fd);

/// Buffered line-framed I/O over a connected socket. One LineChannel per
/// connection, single-threaded use.
class LineChannel {
 public:
  explicit LineChannel(int fd) : fd_(fd) {}

  /// Bounds every subsequent blocking wait (for readable/writable) to
  /// `seconds`; 0 disables the deadline. Expiry throws
  /// DeadlineExceededError with the budget in the message.
  void set_deadline(double seconds) { deadline_s_ = seconds; }

  /// Reads up to and including the next '\n'; the returned line excludes
  /// it. Returns false on clean EOF with no buffered partial line. A
  /// closed-by-peer mid-line counts as EOF (the partial line is dropped —
  /// NDJSON frames are only valid once terminated). Lines beyond
  /// kMaxLineBytes throw IoError (protocol abuse guard).
  bool read_line(std::string& line);

  /// Writes `line` plus '\n', looping over partial writes. Throws IoError
  /// on any socket error (including EPIPE when the peer vanished).
  void write_line(const std::string& line);

  static constexpr std::size_t kMaxLineBytes = 64u << 20;  // 64 MiB

 private:
  /// poll() for `events` within the deadline budget; throws
  /// DeadlineExceededError on expiry, IoError on poll failure.
  void wait_ready(short events, const char* what);

  int fd_;
  double deadline_s_ = 0.0;
  std::string buffer_;
  std::size_t scan_from_ = 0;
};

}  // namespace pima::net
