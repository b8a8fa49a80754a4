#include "src/serve/tcp.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/serve/admin.hpp"
#include "src/serve/line_framer.hpp"

namespace hpcp::serve {

namespace {

Error io_error(const std::string& what) {
  return Error{ErrorCode::Io, what + ": " + std::strerror(errno), {}};
}

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Responses waiting for a reader are bounded: a client that pipelines
/// requests but never drains its socket is closed as an error instead of
/// ballooning the daemon's memory.
constexpr std::size_t kMaxOutbufBytes = std::size_t{64} << 20;

/// Concurrent admin-connection bound; scrapers above it are closed
/// immediately. Deliberately small — this is a diagnostics plane.
constexpr std::size_t kMaxAdminConnections = 8;

/// What data and admin connections share: the socket, the response bytes
/// it has not accepted yet, and the idle-deadline bookkeeping.
struct Sock {
  int fd = -1;
  std::string outbuf;
  std::size_t out_off = 0;
  /// Cumulative bytes the kernel ever accepted from outbuf.
  std::uint64_t written_bytes = 0;
  std::uint64_t last_activity = 0;
  bool saw_eof = false;
  bool dead = false;  ///< transport error; close without draining
  bool writable_armed = false;
  const char* reason = "eof";
};

/// A data connection: request lines are framed by a LineFramer and
/// answered by the handle_batch window.
struct Conn : Sock {
  std::uint64_t id = 0;  ///< accept order; window drain is pinned to it
  LineFramer framer;
  std::vector<Server::BatchLine> ready;  ///< complete, unanswered lines
  /// Write-drained tracing: cumulative bytes ever queued, plus
  /// (queued-bytes watermark, request id) marks. Once written_bytes passes
  /// a mark the kernel has accepted that request's whole response and
  /// Server::note_write_drained stamps it.
  std::uint64_t queued_bytes = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> marks;

  explicit Conn(std::size_t max_line) : framer(max_line) {}
};

/// An admin scrape connection (see admin.hpp): the request is one HTTP
/// head, answered by handle_admin_request; one request per connection.
struct AdminConn : Sock {
  std::string head;
  bool responded = false;  ///< head complete; outbuf holds the response
};

/// Accepts one pending connection and registers it for EPOLLIN; returns
/// -1 once none is left (or on a transient accept error). While `live`
/// connections already fill `capacity`, each new one is closed at once —
/// shedding at the front door keeps the loop's state bounded — and logged
/// as "<label> rejected (capacity)".
int accept_one(int epfd, int listener, std::size_t live,
               std::size_t capacity, const char* label, std::ostream& log) {
  for (;;) {
    int fd;
    do {
      fd = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return -1;
    if (live >= capacity) {
      log << "serve: " << label << " rejected (capacity)\n" << std::flush;
      obs::count("serve.connection_rejects");
      ::close(fd);
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) == 0) return fd;
    ::close(fd);
  }
}

/// Reads everything the socket has right now, through the fault model
/// when one is set, handing each chunk to `take`. Sets saw_eof (an
/// injected disconnect names itself in `reason`) or dead instead of
/// throwing; the event loop decides when the connection actually closes.
template <class Take>
void recv_ready(Sock& s, FaultInjector* faults, Take&& take) {
  char buf[4096];
  for (;;) {
    std::size_t want = sizeof(buf);
    if (faults != nullptr && faults->enabled()) {
      if (faults->read_disconnects()) {
        s.saw_eof = true;
        s.reason = "injected-disconnect";
        return;
      }
      want = faults->clamp_read(want);
    }
    ssize_t n;
    do {
      n = ::recv(s.fd, buf, want, 0);
    } while (n < 0 && errno == EINTR);
    if (n == 0) {
      s.saw_eof = true;
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      s.dead = true;
      s.reason = errno == ECONNRESET ? "econnreset" : "error";
      return;
    }
    s.last_activity = steady_ms();
    take(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

/// Writes as much of the outbound buffer as the socket accepts right now
/// (MSG_NOSIGNAL: a vanished peer is EPIPE on our return path, never
/// SIGPIPE). Partial progress is kept; the loop arms EPOLLOUT for the
/// rest.
void send_ready(Sock& s, FaultInjector* faults) {
  while (s.out_off < s.outbuf.size()) {
    std::size_t len = s.outbuf.size() - s.out_off;
    if (faults != nullptr && faults->enabled()) {
      if (faults->write_fails()) {
        s.dead = true;
        s.reason = "injected-disconnect";
        return;
      }
      len = faults->clamp_write(len);
    }
    ssize_t n;
    do {
      n = ::send(s.fd, s.outbuf.data() + s.out_off, len, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      s.dead = true;
      s.reason = errno == EPIPE          ? "epipe"
                 : errno == ECONNRESET   ? "econnreset"
                                         : "error";
      return;
    }
    s.out_off += static_cast<std::size_t>(n);
    s.written_bytes += static_cast<std::uint64_t>(n);
    s.last_activity = steady_ms();
  }
  s.outbuf.clear();
  s.out_off = 0;
}

/// Pushes waiting bytes out, closes a reader that lets them pile past
/// kMaxOutbufBytes as an error, and (re)arms EPOLLOUT only while bytes
/// wait — a level-triggered EPOLLOUT on an idle socket would spin the
/// loop.
void flush_and_arm(int epfd, Sock& s, FaultInjector* faults) {
  if (!s.dead && !s.outbuf.empty()) send_ready(s, faults);
  if (!s.dead && s.outbuf.size() - s.out_off > kMaxOutbufBytes) {
    s.dead = true;
    s.reason = "error";
  }
  const bool want = !s.dead && !s.outbuf.empty();
  if (want != s.writable_armed) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.fd = s.fd;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, s.fd, &ev);
    s.writable_armed = want;
  }
}

/// When `s` passes its idle deadline; never without one.
std::uint64_t idle_deadline(const Sock& s, int io_timeout_ms) {
  return io_timeout_ms > 0
             ? s.last_activity + static_cast<std::uint64_t>(io_timeout_ms)
             : (std::numeric_limits<std::uint64_t>::max)();
}

void close_sock(int epfd, const Sock& s) {
  ::epoll_ctl(epfd, EPOLL_CTL_DEL, s.fd, nullptr);
  ::close(s.fd);
}

/// Stamps write-drained on every request whose response bytes the kernel
/// has now fully accepted (written_bytes passed the mark's watermark).
void pop_drained_marks(Conn& c, Server& server) {
  std::size_t done = 0;
  while (done < c.marks.size() && c.marks[done].first <= c.written_bytes) {
    server.note_write_drained(c.marks[done].second);
    ++done;
  }
  if (done > 0) {
    c.marks.erase(c.marks.begin(),
                  c.marks.begin() + static_cast<std::ptrdiff_t>(done));
  }
}

/// Nonblocking loopback listener bound to 127.0.0.1:`*port` and registered
/// for EPOLLIN on `epfd`; on success `*port` is updated to the actually
/// bound port (port 0 = kernel picks).
Expected<int> make_loopback_listener(int epfd, std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return io_error("socket");

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(*port);
  const auto fail = [fd](const std::string& what) {
    const Error err = io_error(what);
    ::close(fd);
    return err;
  };
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind 127.0.0.1:" + std::to_string(*port));
  }
  if (::listen(fd, 64) != 0) return fail("listen");
  const int fl = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return fail("epoll_ctl add listener");
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    *port = ntohs(bound.sin_port);
  }
  return fd;
}

/// One epoll event on a connection of either kind: read what arrived
/// (handing it to `take`) unless the peer already ended or the transport
/// died, and push waiting bytes when the socket is writable.
template <class Take>
void on_event(Sock& s, std::uint32_t events, FaultInjector* faults,
              Take&& take) {
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && !s.saw_eof &&
      !s.dead) {
    recv_ready(s, faults, take);
  }
  if ((events & EPOLLOUT) != 0 && !s.dead) send_ready(s, faults);
}

}  // namespace

Expected<void> run_tcp_server(Server& server, std::uint16_t port,
                              std::ostream& log, const TcpOptions& opts) {
  // A client that disconnects while we are writing its response must be a
  // recoverable EPIPE, not a fatal SIGPIPE. send(MSG_NOSIGNAL) covers the
  // socket path; this covers any fallback write() and keeps the contract
  // even if a future transport forgets the flag.
  std::signal(SIGPIPE, SIG_IGN);

  const int epfd = ::epoll_create1(0);
  if (epfd < 0) return io_error("epoll_create1");
  Expected<int> listener_or = make_loopback_listener(epfd, &port);
  if (!listener_or.has_value()) {
    ::close(epfd);
    return listener_or.error();
  }
  const int listener = listener_or.value();

  // The admin scrape plane is a second listener in the same epfd; a bind
  // failure here is a startup error, not something to limp past — an
  // operator who asked for observability should not silently lose it.
  int admin_listener = -1;
  std::uint16_t admin_port = 0;
  if (opts.admin_port >= 0) {
    admin_port = static_cast<std::uint16_t>(opts.admin_port);
    Expected<int> admin_or = make_loopback_listener(epfd, &admin_port);
    if (!admin_or.has_value()) {
      ::close(listener);
      ::close(epfd);
      return admin_or.error();
    }
    admin_listener = admin_or.value();
  }

  log << "serve: listening on 127.0.0.1:" << port << '\n' << std::flush;
  if (opts.bound_port != nullptr) {
    opts.bound_port->store(port, std::memory_order_release);
  }
  if (admin_listener >= 0) {
    log << "serve: admin listening on 127.0.0.1:" << admin_port << '\n'
        << std::flush;
    if (opts.admin_bound_port != nullptr) {
      opts.admin_bound_port->store(admin_port, std::memory_order_release);
    }
  }

  const std::size_t max_line = server.options().max_line_bytes;
  std::map<std::uint64_t, Conn> conns;  // keyed by accept order
  std::unordered_map<int, std::uint64_t> by_fd;
  std::unordered_map<int, AdminConn> admin_conns;  // keyed by fd
  std::uint64_t next_id = 1;
  std::uint64_t seq = 0;
  bool shutdown = false;

  const auto close_conn = [&](Conn& c, const char* reason) {
    close_sock(epfd, c);
    by_fd.erase(c.fd);
    log << "serve: connection closed (" << reason << ")\n" << std::flush;
    if (std::strcmp(reason, "timeout") == 0) {
      obs::count("serve.connection_timeouts");
    } else if (std::strcmp(reason, "eof") != 0 &&
               std::strcmp(reason, "shutdown") != 0) {
      obs::count("serve.connection_errors");
    }
  };
  const auto close_listeners = [&] {
    ::close(epfd);
    if (admin_listener >= 0) ::close(admin_listener);
    ::close(listener);
  };

  while (!shutdown) {
    // Wake at the earliest idle deadline (or block: an idle listener with
    // no deadline waits exactly like a blocking accept).
    int timeout = -1;
    if (opts.io_timeout_ms > 0 && (!conns.empty() || !admin_conns.empty())) {
      std::uint64_t earliest = (std::numeric_limits<std::uint64_t>::max)();
      for (const auto& [id, c] : conns) {
        earliest = std::min(earliest, idle_deadline(c, opts.io_timeout_ms));
      }
      for (const auto& [fd, a] : admin_conns) {
        earliest = std::min(earliest, idle_deadline(a, opts.io_timeout_ms));
      }
      const std::uint64_t now = steady_ms();
      timeout = earliest <= now
                    ? 0
                    : static_cast<int>(std::min<std::uint64_t>(
                          earliest - now,
                          (std::numeric_limits<int>::max)()));
    }

    epoll_event events[64];
    const int nev = ::epoll_wait(epfd, events, 64, timeout);
    if (nev < 0) {
      if (errno == EINTR) continue;
      const Error err = io_error("epoll_wait");
      for (auto& [id, c] : conns) ::close(c.fd);
      for (auto& [fd, a] : admin_conns) ::close(fd);
      close_listeners();
      return err;
    }

    for (int e = 0; e < nev; ++e) {
      const int fd = events[e].data.fd;
      if (fd == listener) {
        for (int cfd; (cfd = accept_one(epfd, listener, conns.size(),
                                        opts.max_connections, "connection",
                                        log)) >= 0;) {
          Conn& c = conns.try_emplace(next_id, max_line).first->second;
          c.fd = cfd;
          c.id = next_id++;
          c.last_activity = steady_ms();
          by_fd[cfd] = c.id;
          log << "serve: connection opened\n" << std::flush;
          obs::count("serve.connections");
        }
      } else if (fd == admin_listener) {
        for (int afd; (afd = accept_one(epfd, admin_listener,
                                        admin_conns.size(),
                                        kMaxAdminConnections,
                                        "admin connection", log)) >= 0;) {
          AdminConn& a = admin_conns[afd];
          a.fd = afd;
          a.last_activity = steady_ms();
        }
      } else if (const auto ait = admin_conns.find(fd);
                 ait != admin_conns.end()) {
        // No fault hook: scraping never reaches the injector, and never
        // handle_batch, so it cannot perturb data-plane bytes.
        AdminConn& a = ait->second;
        on_event(a, events[e].events, nullptr, [&](std::string_view bytes) {
          // Bytes after the head (the rest of an over-long request, extra
          // headers) are read and dropped: closing a socket with unread
          // input would RST the response out from under the client.
          if (a.responded) return;
          a.head.append(bytes);
          const bool overflow = a.head.size() > kMaxAdminRequestBytes;
          if (overflow || admin_request_complete(a.head)) {
            a.outbuf = handle_admin_request(server, a.head, overflow);
            a.responded = true;
          }
        });
      } else if (const auto idit = by_fd.find(fd); idit != by_fd.end()) {
        Conn& c = conns.at(idit->second);
        on_event(c, events[e].events, opts.faults,
                 [&c](std::string_view bytes) {
                   c.framer.push(bytes, c.ready);
                 });
        if (c.saw_eof) c.framer.finish(c.ready);
      }
    }

    // Harvest the window: every complete line from every live connection,
    // in connection-accept order — the pinned cross-connection order that
    // seq_log records. One handle_batch call serves them all.
    std::vector<Server::BatchLine> lines;
    std::vector<std::uint64_t> owner;
    for (auto& [id, c] : conns) {
      if (c.dead) continue;  // transport is gone; nobody to answer
      for (auto& bl : c.ready) {
        owner.push_back(id);
        lines.push_back(std::move(bl));
      }
      c.ready.clear();
    }
    if (!lines.empty()) {
      if (opts.seq_log != nullptr) {
        for (std::size_t k = 0; k < lines.size(); ++k) {
          *opts.seq_log << "seq " << seq++ << " conn " << owner[k] << '\n';
        }
        opts.seq_log->flush();
      }
      obs::gauge_set("serve.window_lines",
                     static_cast<double>(lines.size()));
      const Server::BatchOutcome outcome = server.handle_batch(lines);
      for (std::size_t k = 0; k < outcome.consumed; ++k) {
        if (outcome.responses[k].empty()) continue;
        const auto cit = conns.find(owner[k]);
        if (cit == conns.end() || cit->second.dead) continue;
        Conn& c = cit->second;
        c.outbuf += outcome.responses[k];
        c.outbuf += '\n';
        c.queued_bytes += outcome.responses[k].size() + 1;
        if (outcome.request_ids[k] != 0) {
          c.marks.emplace_back(c.queued_bytes, outcome.request_ids[k]);
        }
      }
      shutdown = outcome.shutdown;
    }

    // Push responses out, then close what finished: errors immediately,
    // EOF once everything the client sent is answered and written (an
    // admin connection once its one response is), idlers past the
    // deadline.
    const std::uint64_t now = steady_ms();
    for (auto it = conns.begin(); it != conns.end();) {
      Conn& c = it->second;
      flush_and_arm(epfd, c, opts.faults);
      pop_drained_marks(c, server);
      const bool finished =
          c.dead || (c.saw_eof && c.ready.empty() && c.outbuf.empty());
      if (finished || now >= idle_deadline(c, opts.io_timeout_ms)) {
        close_conn(c, finished ? c.reason : "timeout");
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = admin_conns.begin(); it != admin_conns.end();) {
      AdminConn& a = it->second;
      flush_and_arm(epfd, a, nullptr);
      const bool finished =
          a.dead || ((a.responded || a.saw_eof) && a.outbuf.empty());
      if (finished || now >= idle_deadline(a, opts.io_timeout_ms)) {
        close_sock(epfd, a);
        it = admin_conns.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Shutdown: best-effort flush of already-routed responses (the client
  // that asked for shutdown is still waiting for its ack), then close
  // everything.
  for (auto& [id, c] : conns) {
    const std::uint64_t deadline = steady_ms() + 1000;
    while (!c.dead && !c.outbuf.empty() && steady_ms() < deadline) {
      pollfd pfd{};
      pfd.fd = c.fd;
      pfd.events = POLLOUT;
      int rc;
      do {
        rc = ::poll(&pfd, 1, 100);
      } while (rc < 0 && errno == EINTR);
      if (rc <= 0) break;
      send_ready(c, opts.faults);
    }
    pop_drained_marks(c, server);
    close_conn(c, "shutdown");
  }
  for (auto& [fd, a] : admin_conns) close_sock(epfd, a);
  close_listeners();
  log << "serve: shutdown\n" << std::flush;
  return {};
}

}  // namespace hpcp::serve
