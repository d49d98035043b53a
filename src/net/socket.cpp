#include "net/socket.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/fsio.hpp"

namespace pima::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

/// Monotonic seconds; deadlines must not jump with wall-clock changes.
double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Remaining budget (seconds) → poll timeout in ms. Deadline already
/// expired → 0 (poll returns immediately and the caller throws).
int poll_timeout_ms(double remaining_s) {
  if (remaining_s <= 0.0) return 0;
  const double ms = std::ceil(remaining_s * 1000.0);
  return ms > 2147483647.0 ? 2147483647 : static_cast<int>(ms);
}

[[noreturn]] void throw_deadline(const char* what, double budget_s) {
  throw DeadlineExceededError(std::string(what) + " deadline exceeded (" +
                              std::to_string(budget_s) + " s)");
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) != 0)
    throw_errno("fcntl(F_SETFL)");
}

/// Shared connect path for both transports. Non-blocking connect so a
/// deadline can bound the handshake: start the connect, poll POLLOUT
/// within the remaining budget, then read SO_ERROR for the real outcome.
/// EINTR (real or injected) retries the connect; EISCONN after a retried
/// in-progress connect counts as success. `hint` is appended to
/// refused/absent-endpoint errors — the actionable "start the daemon"
/// message.
ScopedFd connect_with_deadline(ScopedFd fd, const sockaddr* addr,
                               socklen_t len, const std::string& what,
                               double timeout_s, const std::string& hint) {
  const double start = now_s();
  set_nonblocking(fd.get(), true);

  bool in_progress = false;
  for (;;) {
    if (fsio::connect(fd.get(), addr, len, "connect") == 0) break;
    if (errno == EINTR) {
      // Interrupted (or injected) before the attempt started: retry. If a
      // real attempt was already in flight the retry reports EALREADY /
      // EISCONN, handled below — we never poll a socket that has no
      // connect in progress (POLLOUT would falsely report ready).
      if (timeout_s > 0.0 && now_s() - start >= timeout_s)
        throw_deadline("connect", timeout_s);
      continue;
    }
    if (errno == EISCONN) break;  // earlier interrupted attempt completed
    if (errno == EINPROGRESS || errno == EALREADY) {
      in_progress = true;
      break;
    }
    if (errno == ECONNREFUSED || errno == ENOENT)
      throw IoError(what + ": " + std::strerror(errno) + hint);
    throw_errno(what);
  }

  if (in_progress) {
    pollfd pfd{fd.get(), POLLOUT, 0};
    for (;;) {
      int timeout_ms = -1;  // no deadline: wait forever
      if (timeout_s > 0.0) {
        const double remaining = timeout_s - (now_s() - start);
        if (remaining <= 0.0) throw_deadline("connect", timeout_s);
        timeout_ms = poll_timeout_ms(remaining);
      }
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc > 0) break;
      if (rc == 0) {
        if (timeout_s > 0.0) throw_deadline("connect", timeout_s);
        continue;  // spurious zero without a deadline; keep waiting
      }
      if (errno != EINTR) throw_errno(what + ": poll");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &err_len) != 0)
      throw_errno(what + ": getsockopt(SO_ERROR)");
    if (err != 0) {
      errno = err;
      if (err == ECONNREFUSED || err == ENOENT)
        throw IoError(what + ": " + std::strerror(err) + hint);
      throw_errno(what);
    }
  }

  set_nonblocking(fd.get(), false);
  return fd;
}

constexpr char kDaemonHint[] =
    " — is the daemon running? start it with `pima_asm serve --state-dir "
    "<dir>`";

}  // namespace

void ScopedFd::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ScopedFd listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw IoError("unix socket path too long (" + std::to_string(path.size()) +
                  " bytes, limit " + std::to_string(sizeof(addr.sun_path) - 1) +
                  "): " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_UNIX)");
  // A SIGKILLed daemon leaves its socket file behind; rebinding requires
  // removing it. A *live* daemon is protected by the per-daemon state dir
  // convention, not by this call.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw_errno("bind(" + path + ")");
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen(" + path + ")");
  return fd;
}

ScopedFd listen_tcp(std::uint16_t port, int backlog) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  if (::listen(fd.get(), backlog) != 0)
    throw_errno("listen(tcp:" + std::to_string(port) + ")");
  return fd;
}

std::uint16_t local_port(const ScopedFd& fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno("getsockname");
  return ntohs(addr.sin_port);
}

ScopedFd connect_unix(const std::string& path, double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw IoError("unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_UNIX)");
  return connect_with_deadline(std::move(fd),
                               reinterpret_cast<const sockaddr*>(&addr),
                               sizeof(addr), "connect(" + path + ")",
                               timeout_s, kDaemonHint);
}

ScopedFd connect_tcp(std::uint16_t port, double timeout_s) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return connect_with_deadline(
      std::move(fd), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
      "connect(127.0.0.1:" + std::to_string(port) + ")", timeout_s,
      kDaemonHint);
}

ScopedFd accept_connection(int listener_fd) {
  for (;;) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd >= 0) return ScopedFd(fd);
    if (errno == EINTR) continue;
    // The daemon shuts its listener down (shutdown()/close()) to break the
    // accept loop; every resulting errno means "stop accepting".
    return ScopedFd();
  }
}

void LineChannel::wait_ready(short events, const char* what) {
  if (deadline_s_ <= 0.0) return;  // no deadline: rely on blocking syscalls
  const double start = now_s();
  pollfd pfd{fd_, events, 0};
  for (;;) {
    const double remaining = deadline_s_ - (now_s() - start);
    if (remaining <= 0.0) throw_deadline(what, deadline_s_);
    const int rc = ::poll(&pfd, 1, poll_timeout_ms(remaining));
    if (rc > 0) return;  // readable/writable (or error — the syscall tells)
    if (rc == 0) throw_deadline(what, deadline_s_);
    if (errno != EINTR) throw_errno(std::string(what) + ": poll");
  }
}

bool LineChannel::read_line(std::string& line) {
  for (;;) {
    const auto nl = buffer_.find('\n', scan_from_);
    if (nl != std::string::npos) {
      line.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      scan_from_ = 0;
      return true;
    }
    scan_from_ = buffer_.size();
    if (buffer_.size() > kMaxLineBytes)
      throw IoError("wire line exceeds " + std::to_string(kMaxLineBytes) +
                    " bytes");
    wait_ready(POLLIN, "read");
    char chunk[4096];
    ssize_t n;
    do {
      n = fsio::read(fd_, chunk, sizeof chunk, "wire");
    } while (n < 0 && errno == EINTR);
    if (n < 0) throw_errno("read");
    if (n == 0) return false;  // EOF; any partial line is dropped
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void LineChannel::write_line(const std::string& line) {
  std::string framed = line;
  framed += '\n';
  std::size_t off = 0;
  while (off < framed.size()) {
    wait_ready(POLLOUT, "send");
    ssize_t n;
    do {
      // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE → IoError instead
      // of SIGPIPE killing the daemon.
      n = fsio::send(fd_, framed.data() + off, framed.size() - off,
                     MSG_NOSIGNAL, "wire");
    } while (n < 0 && errno == EINTR);
    if (n <= 0) throw_errno("send");
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace pima::net
