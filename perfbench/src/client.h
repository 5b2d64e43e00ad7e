#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

// Blocking loopback client of the support server's line protocol. One
// thread may write while another reads.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace perfbench {

class LineClient {
 public:
  // Connects to 127.0.0.1:port with TCP_NODELAY; null on failure.
  static std::unique_ptr<LineClient> Connect(uint16_t port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool WriteAll(std::string_view data);

  enum class ReadStatus { kData, kTimeout, kClosed };
  // Waits up to timeout_ms for input, then hands every complete line it
  // has to on_line (without the '\n').
  ReadStatus ReadLines(int timeout_ms,
                       const std::function<void(std::string_view)>& on_line);

  // Sends one request and returns its one-line reply ("" on failure).
  std::string RoundTrip(std::string_view request, int timeout_ms);

 private:
  explicit LineClient(int fd) : fd_(fd) {}
  int fd_;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
