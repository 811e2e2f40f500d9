#include "serve/socket.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <istream>
#include <ostream>
#include <thread>

#include "support/diagnostics.h"
#include "support/failpoint.h"

namespace sherlock::serve {

namespace {

/// The "io" failpoint models a vanished peer, not an exception: a
/// trigger at a read/write site surfaces as EOF / write failure — the
/// same thing a real disconnect produces — so injection exercises the
/// daemon's actual recovery path.
bool ioFaultInjected() {
  try {
    failpoint::check("io");
  } catch (const failpoint::InjectedFault&) {
    return true;
  }
  return false;
}

}  // namespace

FdStreamBuf::FdStreamBuf(int fd, const std::atomic<bool>* stop)
    : fd_(fd), stop_(stop) {
  setg(inBuf_, inBuf_, inBuf_);
  setp(outBuf_, outBuf_ + sizeof(outBuf_));
}

FdStreamBuf::int_type FdStreamBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  if (ioFaultInjected()) return traits_type::eof();
  ssize_t n;
  for (;;) {
    n = ::read(fd_, inBuf_, sizeof(inBuf_));
    if (n >= 0 || errno != EINTR) break;
    // A drain signal lands here as EINTR: end the session instead of
    // waiting out a client that may never speak again.
    if (stopRequested()) return traits_type::eof();
  }
  if (n <= 0) return traits_type::eof();
  setg(inBuf_, inBuf_, inBuf_ + n);
  return traits_type::to_int_type(*gptr());
}

bool FdStreamBuf::flushBuffer() {
  if (pbase() < pptr() && ioFaultInjected()) return false;
  const char* p = pbase();
  while (p < pptr()) {
    ssize_t n = ::write(fd_, p, static_cast<size_t>(pptr() - p));
    if (n < 0) {
      if (errno == EINTR && !stopRequested()) continue;
      return false;
    }
    p += n;
  }
  setp(outBuf_, outBuf_ + sizeof(outBuf_));
  return true;
}

FdStreamBuf::int_type FdStreamBuf::overflow(int_type ch) {
  if (!flushBuffer()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FdStreamBuf::sync() { return flushBuffer() ? 0 : -1; }

ServeLoopResult serveFd(int fd, CompileService& service,
                        const ServeLoopOptions& options) {
  FdStreamBuf inBuf(fd, options.stop), outBuf(fd, options.stop);
  std::istream in(&inBuf);
  std::ostream out(&outBuf);
  ServeLoopResult result;
  try {
    result = runServeLoop(in, out, service, options);
  } catch (const std::exception&) {
    // A session must never take the server down; whatever happened
    // (a streambuf-level injection, an unexpected protocol condition)
    // ends this connection only.
  }
  out.flush();
  return result;
}

uint64_t runUnixSocketServer(const std::string& path,
                             CompileService& service,
                             const ServeLoopOptions& options) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  checkArg(path.size() < sizeof(addr.sun_path),
           "socket path too long: ", path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // A client that vanishes mid-response turns our next write into
  // EPIPE; the default SIGPIPE disposition would kill the daemon
  // instead of letting FdStreamBuf see the error and end the session.
  ::signal(SIGPIPE, SIG_IGN);

  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0)
    throw Error(strCat("socket(): ", std::strerror(errno)));
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    int err = errno;
    ::close(listener);
    throw Error(strCat("bind(", path, "): ", std::strerror(err)));
  }
  if (::listen(listener, 8) != 0) {
    int err = errno;
    ::close(listener);
    ::unlink(path.c_str());
    throw Error(strCat("listen(", path, "): ", std::strerror(err)));
  }

  auto stopRequested = [&] {
    return options.stop &&
           options.stop->load(std::memory_order_relaxed);
  };

  uint64_t sessions = 0;
  bool shutdown = false;
  while (!shutdown && !stopRequested()) {
    int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      int err = errno;
      if (err == EINTR) continue;  // signal — loop re-checks stop
      // Transient per-connection failures (peer reset before accept,
      // fd pressure) must not kill a long-running daemon; back off a
      // beat on fd exhaustion so retrying isn't a spin.
      if (err == ECONNABORTED || err == EAGAIN || err == EWOULDBLOCK ||
          err == EPROTO)
        continue;
      if (err == EMFILE || err == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;
    }
    ++sessions;
    shutdown = serveFd(conn, service, options).shutdown;
    ::close(conn);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return sessions;
}

}  // namespace sherlock::serve
