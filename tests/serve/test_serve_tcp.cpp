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
#include <utility>
#include <vector>

#include "src/obs/jsonlite.hpp"
#include "src/serve/line_framer.hpp"
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

  /// Reads until the server closes the connection.
  std::string recv_all() {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return out;
      out.append(buf, static_cast<std::size_t>(n));
    }
  }

  /// Half-close: the server sees EOF, and responses can still be read.
  void finish_sending() { ::shutdown(fd_, SHUT_WR); }

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
  explicit Listener(TcpOptions opts = {}, ServeOptions serve_opts = {}) {
    server_ = fixture::default_server(std::move(serve_opts));
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

/// The framing stream shared by the framer and transport tests, for a
/// bound of kBound bytes: empty and blank lines, a "\r\n" line, a line
/// of exactly the bound (served) and one of the bound + 1 (too large), a
/// control command, a long over-long line, and a predict. Each of the two
/// tails ends the stream without a newline: a final line, or an over-long
/// line cut off by EOF.
constexpr std::size_t kBound = 200;

std::string padded(std::string line, std::size_t width) {
  line.resize(width, ' ');
  return line;
}

std::string framing_body() {
  return "\n" + predict_line(0) + "\r\n   \n" +
         padded(predict_line(1), kBound) + "\n" +
         padded(predict_line(2), kBound + 1) + "\n" +
         "{\"id\":3,\"cmd\":\"ping\"}\n" + std::string(3 * kBound, 'x') +
         "\n" + predict_line(4) + "\n";
}

std::string framing_tail(std::size_t tail) {
  return tail == 0 ? predict_line(5) : std::string(2 * kBound, 'y');
}

std::vector<Server::BatchLine> expected_lines(std::size_t tail) {
  std::vector<Server::BatchLine> out = {
      {"", false},
      {predict_line(0) + "\r", false},
      {"   ", false},
      {padded(predict_line(1), kBound), false},
      {"", true},
      {"{\"id\":3,\"cmd\":\"ping\"}", false},
      {"", true},
      {predict_line(4), false}};
  out.push_back(tail == 0 ? Server::BatchLine{predict_line(5), false}
                          : Server::BatchLine{"", true});
  return out;
}

TEST(ServeTcp, LineFramerYieldsTheSameLinesForEveryChunking) {
  for (std::size_t tail = 0; tail < 2; ++tail) {
    const std::string stream = framing_body() + framing_tail(tail);
    const auto want = expected_lines(tail);
    for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
      LineFramer framer(kBound);
      std::vector<Server::BatchLine> got;
      for (std::size_t at = 0; at < stream.size(); at += chunk) {
        framer.push(std::string_view(stream).substr(at, chunk), got);
      }
      framer.finish(got);
      ASSERT_EQ(got.size(), want.size()) << "tail " << tail << " chunk "
                                         << chunk;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].text, want[i].text)
            << "tail " << tail << " chunk " << chunk << " line " << i;
        EXPECT_EQ(got[i].too_long, want[i].too_long)
            << "tail " << tail << " chunk " << chunk << " line " << i;
      }
    }
  }
}

TEST(ServeTcp, FramedStreamGetsTheSameBytesOverStdioAndTcp) {
  for (std::size_t tail = 0; tail < 2; ++tail) {
    const std::string stream = framing_body() + framing_tail(tail);
    std::istringstream in(stream);
    std::ostringstream stdio;
    (void)fixture::default_server({.max_line_bytes = kBound})->run(in, stdio);

    Listener listener({}, {.max_line_bytes = kBound});
    Client client(listener.port());
    ASSERT_TRUE(client.connected());
    client.send(stream);
    client.finish_sending();
    const std::string tcp = client.recv_all();
    client.close();
    listener.shutdown();
    listener.join();

    EXPECT_EQ(tcp, stdio.str()) << "tail " << tail;
    // Seven answered lines (the empty and blank lines get none), of which
    // the bound + 1 line, the long line and a cut-off tail are typed
    // too-large errors.
    std::size_t lines = 0;
    std::size_t too_large = 0;
    std::istringstream split(tcp);
    for (std::string line; std::getline(split, line); ++lines) {
      if (line.find("\"code\":\"too-large\"") != std::string::npos) {
        ++too_large;
      }
      EXPECT_EQ(line.find("\"code\":\"bad-request\""), std::string::npos)
          << line;
    }
    EXPECT_EQ(lines, 7u);
    EXPECT_EQ(too_large, tail == 0 ? 2u : 3u);
  }
}

}  // namespace
}  // namespace hpcp::serve
