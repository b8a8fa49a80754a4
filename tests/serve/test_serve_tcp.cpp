/// TCP front-end edge cases: the listener must survive every way a client
/// can misbehave — vanish mid-line, reset mid-response, trickle nothing
/// until the io timeout — and keep accepting connections afterwards.
/// Each test runs a real listener on a kernel-assigned port.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "src/obs/jsonlite.hpp"
#include "src/serve/server.hpp"
#include "src/serve/tcp.hpp"
#include "tests/serve/serve_fixture.hpp"

namespace hpcp::serve {
namespace {

using fixture::predict_line;

/// A blocking loopback client with a receive timeout so a server bug can
/// never hang the test binary.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() { close(); }

  [[nodiscard]] bool connected() const { return connected_; }

  void send(const std::string& text) {
    const char* p = text.data();
    std::size_t left = text.size();
    while (left > 0) {
      const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n <= 0) return;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  /// Reads one '\n'-terminated line; empty string on EOF/timeout.
  std::string recv_line() {
    std::string line;
    char c;
    for (;;) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) return "";
      if (c == '\n') return line;
      line.push_back(c);
    }
  }

  /// Hard close: SO_LINGER(0) turns close() into an RST, the abortive
  /// disconnect a crashed client produces.
  void abort() {
    if (fd_ < 0) return;
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    close();
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

/// One listener on a kernel-assigned port, torn down by a shutdown command.
class Listener {
 public:
  explicit Listener(TcpOptions opts = {}) {
    server_ = fixture::default_server();
    opts.bound_port = &port_;
    thread_ = std::thread([this, opts] {
      const auto result = run_tcp_server(*server_, 0, log_, opts);
      ok_ = result.has_value();
    });
    while (port_.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ~Listener() {
    if (thread_.joinable()) {
      // Last-resort teardown for a failed test; normal flow already sent
      // shutdown and joined.
      shutdown();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const {
    return port_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::string log() {
    join();
    return log_.str();
  }

  void shutdown() {
    Client client(port());
    client.send("{\"cmd\":\"shutdown\"}\n");
    (void)client.recv_line();
  }

  void join() {
    if (thread_.joinable()) thread_.join();
    EXPECT_TRUE(ok_);
  }

 private:
  std::unique_ptr<Server> server_;
  std::atomic<std::uint16_t> port_{0};
  std::ostringstream log_;
  std::thread thread_;
  bool ok_ = false;
};

TEST(ServeTcp, SequentialConnectionsEachGetServed) {
  Listener listener;
  for (int i = 0; i < 3; ++i) {
    Client client(listener.port());
    ASSERT_TRUE(client.connected());
    client.send(predict_line(static_cast<std::size_t>(i)) + "\n");
    const std::string response = client.recv_line();
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  }
  listener.shutdown();
  listener.join();
}

TEST(ServeTcp, MidLineDisconnectDoesNotKillTheListener) {
  Listener listener;
  {
    Client client(listener.port());
    ASSERT_TRUE(client.connected());
    client.send("{\"id\":1,\"par");  // no newline, then gone
    client.close();
  }
  // The next connection is served normally.
  Client client(listener.port());
  ASSERT_TRUE(client.connected());
  client.send(predict_line(0) + "\n");
  EXPECT_NE(client.recv_line().find("\"ok\":true"), std::string::npos);
  client.close();
  listener.shutdown();
  listener.join();
}

TEST(ServeTcp, MidResponseResetBecomesEpipeNotDeath) {
  Listener listener;
  {
    Client client(listener.port());
    ASSERT_TRUE(client.connected());
    // A full request, then an abortive RST before reading the response:
    // the server's write path hits ECONNRESET/EPIPE, which must be a
    // logged lifecycle event, not SIGPIPE.
    client.send(predict_line(0) + "\n");
    client.abort();
  }
  for (int i = 0; i < 3; ++i) {
    Client client(listener.port());
    ASSERT_TRUE(client.connected());
    client.send(predict_line(1) + "\n");
    EXPECT_NE(client.recv_line().find("\"ok\":true"), std::string::npos);
  }
  listener.shutdown();
  listener.join();
}

TEST(ServeTcp, SilentClientHitsTheIoTimeout) {
  TcpOptions opts;
  opts.io_timeout_ms = 150;
  Listener listener(opts);
  {
    Client client(listener.port());
    ASSERT_TRUE(client.connected());
    // Send nothing: the server must close the connection instead of
    // blocking on read forever.
    EXPECT_EQ(client.recv_line(), "");  // server-side close -> EOF
  }
  // And the listener is still alive for well-behaved clients.
  Client client(listener.port());
  ASSERT_TRUE(client.connected());
  client.send(predict_line(0) + "\n");
  EXPECT_NE(client.recv_line().find("\"ok\":true"), std::string::npos);
  client.close();
  listener.shutdown();
  listener.join();
  EXPECT_NE(listener.log().find("timeout"), std::string::npos);
}

TEST(ServeTcp, LifecycleLogNamesTheEndReason) {
  Listener listener;
  {
    Client client(listener.port());
    client.send(predict_line(0) + "\n");
    (void)client.recv_line();
    client.close();  // orderly EOF
  }
  listener.shutdown();
  listener.join();
  const std::string log = listener.log();
  EXPECT_NE(log.find("connection opened"), std::string::npos);
  EXPECT_NE(log.find("connection closed (eof)"), std::string::npos) << log;
  EXPECT_NE(log.find("connection closed (shutdown)"), std::string::npos);
}

}  // namespace
}  // namespace hpcp::serve
