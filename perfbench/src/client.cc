#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "harness.h"

namespace perfbench {

std::unique_ptr<LineClient> LineClient::Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<LineClient>(new LineClient(fd));
}

LineClient::~LineClient() { ::close(fd_); }

bool LineClient::WriteAll(std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

LineClient::ReadStatus LineClient::ReadLines(
    int timeout_ms, const std::function<void(std::string_view)>& on_line) {
  pollfd pfd{fd_, POLLIN, 0};
  int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready == 0 || (ready < 0 && errno == EINTR)) return ReadStatus::kTimeout;
  if (ready < 0) return ReadStatus::kClosed;
  char chunk[1 << 16];
  ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n < 0 && errno == EINTR) return ReadStatus::kTimeout;
  if (n <= 0) return ReadStatus::kClosed;
  buffer_.append(chunk, static_cast<size_t>(n));
  size_t start = 0;
  for (size_t newline = buffer_.find('\n', start);
       newline != std::string::npos; newline = buffer_.find('\n', start)) {
    on_line(std::string_view(buffer_).substr(start, newline - start));
    start = newline + 1;
  }
  buffer_.erase(0, start);
  return ReadStatus::kData;
}

std::string LineClient::RoundTrip(std::string_view request, int timeout_ms) {
  if (!WriteAll(request)) return "";
  std::string reply;
  bool done = false;
  int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1000000;
  while (!done && NowNs() < deadline) {
    ReadStatus status = ReadLines(10, [&](std::string_view line) {
      if (!done) reply = std::string(line);
      done = true;
    });
    if (status == ReadStatus::kClosed) break;
  }
  return reply;
}

}  // namespace perfbench
