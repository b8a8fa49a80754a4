/// Concurrent-serving contract of the epoll front-end: many interleaved
/// localhost clients, each of which must see (a) its responses in the
/// order it sent its requests, (b) exactly one response per request, and
/// (c) response bytes identical to replaying the same lines through a
/// sequential Server — cross-connection batching must be invisible.
/// Plus the event-loop-only behaviours: connection capacity shedding,
/// the seq-log audit trail, and a final unterminated line at half-close.

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
#include <vector>

#include "src/obs/jsonlite.hpp"
#include "src/serve/server.hpp"
#include "src/serve/tcp.hpp"
#include "tests/serve/serve_fixture.hpp"

namespace hpcp::serve {
namespace {

using fixture::predict_line;

/// The sequential ground truth: responses are a pure function of
/// (request line, model_version), so a fresh Server with the same model
/// produces the bytes every concurrent client must see.
std::string reference_response(const std::string& line) {
  static Server* reference = fixture::default_server().release();
  return reference->handle_line(line);
}

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

  /// Half-close: we are done sending, but still read responses.
  void shut_wr() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
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
      done_.store(true, std::memory_order_release);
    });
    while (port_.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ~Listener() {
    if (thread_.joinable()) {
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
    // The shutdown connection can itself be capacity-shed if the loop has
    // not yet reaped connections the test just closed — retry until the
    // ack arrives or the server thread has already exited.
    for (int attempt = 0; attempt < 400; ++attempt) {
      if (done_.load(std::memory_order_acquire)) return;
      Client client(port());
      client.send("{\"cmd\":\"shutdown\"}\n");
      if (!client.recv_line().empty()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
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
  std::atomic<bool> done_{false};
  bool ok_ = false;
};

TEST(ServeConcurrent, InterleavedClientsGetOrderedByteIdenticalResponses) {
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 8;
  Listener listener;

  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t j = 0; j < kClients; ++j) {
    clients.push_back(std::make_unique<Client>(listener.port()));
    ASSERT_TRUE(clients.back()->connected());
  }

  // Interleave hard: round i sends every client's i-th request before any
  // client's (i+1)-th, so windows routinely mix connections.
  std::vector<std::vector<std::string>> sent(kClients);
  for (std::size_t i = 0; i < kPerClient; ++i) {
    for (std::size_t j = 0; j < kClients; ++j) {
      const std::string line = predict_line(i * kClients + j);
      sent[j].push_back(line);
      clients[j]->send(line + "\n");
    }
  }

  for (std::size_t j = 0; j < kClients; ++j) {
    for (std::size_t i = 0; i < kPerClient; ++i) {
      const std::string response = clients[j]->recv_line();
      EXPECT_EQ(response, reference_response(sent[j][i]))
          << "client " << j << " response " << i
          << ": concurrent responses must be byte-identical to the "
             "sequential replay, in per-connection order";
    }
  }
  // One response per request, nothing extra: the next read must block
  // until the half-close EOF, not deliver a surplus line.
  for (std::size_t j = 0; j < kClients; ++j) {
    clients[j]->shut_wr();
    EXPECT_EQ(clients[j]->recv_line(), "") << "client " << j;
  }
  clients.clear();
  listener.shutdown();
  listener.join();
}

TEST(ServeConcurrent, PipelinedBurstsAnswerOncePerRequestInOrder) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 16;
  Listener listener;

  // Each client ships its whole burst in one send: windows see many lines
  // from the same connection *and* lines from the other connections.
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::vector<std::string>> sent(kClients);
  for (std::size_t j = 0; j < kClients; ++j) {
    clients.push_back(std::make_unique<Client>(listener.port()));
    ASSERT_TRUE(clients.back()->connected());
    std::string burst;
    for (std::size_t i = 0; i < kPerClient; ++i) {
      const std::string line = predict_line(j * kPerClient + i);
      sent[j].push_back(line);
      burst += line + '\n';
    }
    clients[j]->send(burst);
  }

  for (std::size_t j = 0; j < kClients; ++j) {
    for (std::size_t i = 0; i < kPerClient; ++i) {
      EXPECT_EQ(clients[j]->recv_line(), reference_response(sent[j][i]))
          << "client " << j << " response " << i;
    }
  }
  clients.clear();
  listener.shutdown();
  listener.join();
}

TEST(ServeConcurrent, MisbehavingNeighbourDoesNotCorruptOtherConnections) {
  Listener listener;
  Client good_a(listener.port());
  Client good_b(listener.port());
  ASSERT_TRUE(good_a.connected());
  ASSERT_TRUE(good_b.connected());

  // A neighbour that sends half a line and RSTs, and another that sends
  // garbage: both are lifecycle events, not anyone else's problem.
  {
    Client rude(listener.port());
    ASSERT_TRUE(rude.connected());
    rude.send("{\"id\":999,\"par");
    rude.abort();
  }
  Client garbled(listener.port());
  ASSERT_TRUE(garbled.connected());
  garbled.send("this is not json\n");

  const std::string line_a = predict_line(0);
  const std::string line_b = predict_line(1);
  good_a.send(line_a + "\n");
  good_b.send(line_b + "\n");
  EXPECT_EQ(good_a.recv_line(), reference_response(line_a));
  EXPECT_EQ(good_b.recv_line(), reference_response(line_b));

  // The garbled client gets a typed parse error on its own connection.
  const std::string garbled_response = garbled.recv_line();
  EXPECT_NE(garbled_response.find("\"ok\":false"), std::string::npos)
      << garbled_response;

  good_a.close();
  good_b.close();
  garbled.close();
  listener.shutdown();
  listener.join();
}

TEST(ServeConcurrent, FinalUnterminatedLineIsServedAtHalfClose) {
  Listener listener;
  Client client(listener.port());
  ASSERT_TRUE(client.connected());
  const std::string line = predict_line(3);
  client.send(line);  // no trailing newline
  client.shut_wr();
  EXPECT_EQ(client.recv_line(), reference_response(line));
  EXPECT_EQ(client.recv_line(), "");  // server closes after answering
  client.close();
  listener.shutdown();
  listener.join();
}

TEST(ServeConcurrent, CapacityBoundShedsExtraConnections) {
  TcpOptions opts;
  opts.max_connections = 2;
  Listener listener(opts);
  Client first(listener.port());
  Client second(listener.port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  // Make sure both are registered before the third knocks.
  const std::string line = predict_line(0);
  first.send(line + "\n");
  second.send(line + "\n");
  EXPECT_EQ(first.recv_line(), reference_response(line));
  EXPECT_EQ(second.recv_line(), reference_response(line));

  Client third(listener.port());
  // The connect itself lands in the backlog, but the event loop closes it
  // immediately: the client sees EOF, the established pair keep working.
  EXPECT_EQ(third.recv_line(), "");
  first.send(line + "\n");
  EXPECT_EQ(first.recv_line(), reference_response(line));

  first.close();
  second.close();
  third.close();
  listener.shutdown();
  listener.join();
  EXPECT_NE(listener.log().find("rejected (capacity)"), std::string::npos);
}

TEST(ServeConcurrent, SeqLogRecordsGlobalAdmissionOrder) {
  std::ostringstream seq;
  TcpOptions opts;
  opts.seq_log = &seq;
  Listener listener(opts);
  {
    Client a(listener.port());
    Client b(listener.port());
    ASSERT_TRUE(a.connected());
    ASSERT_TRUE(b.connected());
    a.send(predict_line(0) + "\n");
    b.send(predict_line(1) + "\n");
    a.send(predict_line(2) + "\n");
    ASSERT_NE(a.recv_line(), "");
    ASSERT_NE(b.recv_line(), "");
    ASSERT_NE(a.recv_line(), "");
  }
  listener.shutdown();
  listener.join();

  // One line per admitted request (3 predicts + 1 shutdown), sequence
  // numbers dense and ascending from 0, each attributed to a connection.
  std::istringstream lines(seq.str());
  std::string word;
  std::size_t expected_seq = 0;
  while (lines >> word) {
    ASSERT_EQ(word, "seq");
    std::size_t n = 0;
    ASSERT_TRUE(static_cast<bool>(lines >> n));
    EXPECT_EQ(n, expected_seq++);
    ASSERT_TRUE(static_cast<bool>(lines >> word));
    ASSERT_EQ(word, "conn");
    std::size_t conn_id = 0;
    ASSERT_TRUE(static_cast<bool>(lines >> conn_id));
    EXPECT_GE(conn_id, 1u);
  }
  EXPECT_EQ(expected_seq, 4u);
}

}  // namespace
}  // namespace hpcp::serve
