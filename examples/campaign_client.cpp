// Minimal line-protocol client for examples/campaign_server --socket mode.
// Each trailing argument is one request line sent verbatim; after a `run`
// line the client echoes the server's response to stdout until the `end`
// (or `busy`) terminator arrives. Used by CI to drive several simultaneous
// clients against one server and byte-compare their outputs against a
// serial run:
//
//   campaign_client --socket /tmp/rt.sock 'run scenarios=DS-1 runs=2 seed=5'
//
// Exits non-zero if the server cannot be reached, a response times out
// (--timeout-ms, default 120000), or the connection dies mid-response.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "experiments/reporting.hpp"
#include "service/fault_injection.hpp"

namespace {

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: %s --socket PATH [--timeout-ms N] REQUEST...\n",
               argv0);
  std::exit(code);
}

/// Reads until a lone `end` or `busy` line arrives; echoes every line to
/// stdout. Returns false on disconnect, error or timeout.
bool read_response(int fd, int timeout_ms) {
  std::string buffer;
  for (;;) {
    std::size_t eol = 0;
    while ((eol = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      std::fprintf(stdout, "%s\n", line.c_str());
      if (line == "end" || line == "busy") {
        std::fflush(stdout);
        return true;
      }
    }
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) {
      std::fprintf(stderr, "error: response timed out\n");
      return false;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      std::fprintf(stderr, "error: server closed the connection\n");
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int timeout_ms = 120000;
  std::vector<std::string> requests;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      const auto ms = rt::experiments::parse_uint(
          argv[++i], 1, std::numeric_limits<int>::max());
      if (!ms) {
        std::fprintf(stderr, "%s: bad value '%s' for --timeout-ms\n",
                     argv[0], argv[i]);
        usage(argv[0], 2);
      }
      timeout_ms = static_cast<int>(*ms);
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0], 0);
    } else {
      requests.emplace_back(argv[i]);
    }
  }
  if (socket_path.empty() || requests.empty()) usage(argv[0], 2);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long\n");
    return 1;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    std::perror("connect");
    return 1;
  }

  int rc = 0;
  for (const std::string& request : requests) {
    const std::string line = request + "\n";
    if (!rt::service::write_all_fd(rt::service::FaultSite::kClientWrite, fd,
                                   line.data(), line.size())) {
      std::perror("write");
      rc = 1;
      break;
    }
    // Only `run` lines are answered; control verbs are fire-and-forget.
    if (request.rfind("run", 0) == 0 && !read_response(fd, timeout_ms)) {
      rc = 1;
      break;
    }
  }
  ::close(fd);
  return rc;
}
