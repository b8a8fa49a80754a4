/// \file loadgen.cpp (perfbench)
/// The open-loop load generator: one thread, at most four non-blocking
/// localhost connections, Poisson arrivals from the workload seed.
///
/// Every request has a due time fixed before the phase starts; it is sent
/// at (or, when the generator runs late, after) that time regardless of
/// how many earlier requests are still unanswered, and its latency is
/// measured from the due time — a server stall therefore also delays, and
/// is charged to, every request due while it lasts. How late the
/// generator itself sent each request is recorded separately, so a run in
/// which the generator could not keep its schedule can be told apart from
/// one in which the server could not.
///
/// Responses on one connection arrive in request order (hpcp-serve/1), so
/// each connection keeps a FIFO of what it sent and every response line is
/// matched against the head: its id must be the request's, and it must
/// carry "ok":true. Connection 0 also carries an in-band
/// {"cmd":"stats"} probe every 100 ms; its hpcp-stats/1 snapshot gives the
/// server's micro-batch size.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "src/common/rng.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: with n samples, p99 leaves n/100 samples above it.
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> window_percentiles(const PhaseResult& p, double window_s,
                                       double q) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < p.predict_us.size(); ++i) {
    const auto w = static_cast<std::size_t>(p.predict_due_s[i] / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(p.predict_us[i]);
  }
  std::vector<double> out;
  for (const auto& w : windows) {
    if (!w.empty()) out.push_back(percentile(w, q));
  }
  return out;
}

double resident_mb() {
  long long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long long size = 0;
    if (std::fscanf(f, "%lld %lld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}


namespace {

/// CPU time of the whole process, and of the calling thread, in seconds.
/// Time the hypervisor gives to other guests is charged to neither.
double process_cpu_s() {
  timespec ts{};
  (void)::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  (void)::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The CPUs the process could use at start-up.
const cpu_set_t& allowed_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (::sched_getaffinity(0, sizeof(s), &s) != 0) CPU_ZERO(&s);
    return s;
  }();
  return set;
}

/// Restricts the calling thread to the generator CPU (the last allowed
/// one), or to all the others.
void pin(bool generator) {
  const cpu_set_t& all = allowed_cpus();
  if (CPU_COUNT(&all) < 2) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) last = c;
  }
  cpu_set_t want;
  CPU_ZERO(&want);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all) && (c == last) == generator) CPU_SET(c, &want);
  }
  (void)::sched_setaffinity(0, sizeof(want), &want);
}

/// Holds the calling thread on the generator CPU for its lifetime.
class GeneratorCpu {
 public:
  GeneratorCpu() { pin(true); }
  ~GeneratorCpu() { pin(false); }
  GeneratorCpu(const GeneratorCpu&) = delete;
  GeneratorCpu& operator=(const GeneratorCpu&) = delete;
};

constexpr std::uint32_t kStatsSlot = std::numeric_limits<std::uint32_t>::max();
constexpr std::string_view kIdKey = "{\"id\":";
constexpr std::string_view kOk = ",\"ok\":true,";
constexpr std::size_t kConnections = 4;
constexpr std::int64_t kStatsPeriodNs = 100'000'000;

struct InFlight {
  std::int64_t due_ns = 0;
  std::uint32_t index = 0;  ///< request index, or kStatsSlot
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<InFlight> inflight;
};

int connect_nonblocking(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// The unsigned integer right after the first `key`; -1 when absent.
long long field_after(std::string_view s, std::string_view key) {
  const std::size_t at = s.find(key);
  if (at == std::string_view::npos) return -1;
  long long v = 0;
  std::size_t i = at + key.size();
  if (i >= s.size() || s[i] < '0' || s[i] > '9') return -1;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + (s[i] - '0');
  }
  return v;
}

void note_error(PhaseResult* res, std::string msg) {
  if (res->errors.size() < 8) res->errors.push_back(std::move(msg));
}

}  // namespace

void pin_to_server_cpus() { pin(false); }

PhaseResult run_phase(std::uint16_t port, const std::vector<Request>& reqs,
                      std::uint64_t seed, const PhaseConfig& cfg) {
  const GeneratorCpu on_generator_cpu;
  const double process_cpu0 = process_cpu_s();
  const double generator_cpu0 = thread_cpu_s();
  PhaseResult res;
  res.rate = cfg.rate;
  const std::size_t n = reqs.size();
  if (n == 0) return res;
  for (const Request& r : reqs) {
    (r.kind == Request::Kind::kPredict ? res.predicts : res.ingests) += 1;
  }

  // Poisson schedule: exponential gaps at the offered rate.
  std::vector<std::int64_t> due(n);
  {
    hpcp::Rng rng(seed);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += -std::log(1.0 - rng.uniform()) / cfg.rate;
      due[i] = static_cast<std::int64_t>(t * 1e9);
    }
  }

  std::vector<Conn> conns(kConnections);
  for (Conn& c : conns) {
    c.fd = connect_nonblocking(port);
    if (c.fd < 0) throw std::runtime_error("load generator cannot connect");
  }
  res.late_us.reserve(n);
  res.predict_us.reserve(res.predicts);
  const std::int64_t start = now_ns() + 1'000'000;
  const std::int64_t last_due = start + due[n - 1];
  const std::int64_t drain_ns =
      static_cast<std::int64_t>(cfg.drain_timeout_s * 1e9);
  std::int64_t next_stats = start;
  std::uint64_t stats_seq = 0;
  std::size_t next = 0;
  std::size_t inflight = 0;
  std::vector<char> buf(1 << 16);
  std::vector<pollfd> pfds(kConnections);

  const auto process = [&](Conn& c, std::int64_t rt) {
    std::size_t begin = 0;
    for (;;) {
      const std::size_t nl = c.in.find('\n', begin);
      if (nl == std::string::npos) break;
      const std::string_view line(c.in.data() + begin, nl - begin);
      begin = nl + 1;
      ++res.completed;
      if (c.inflight.empty()) {
        ++res.wrong_ids;
        note_error(&res, "response with nothing in flight: " +
                             std::string(line.substr(0, 120)));
        continue;
      }
      const InFlight f = c.inflight.front();
      c.inflight.pop_front();
      --inflight;
      if (f.index == kStatsSlot) {
        if (line.rfind("{\"id\":\"s", 0) != 0) {
          ++res.wrong_ids;
          note_error(&res, "stats probe answered by: " +
                               std::string(line.substr(0, 120)));
          continue;
        }
        const long long batch = field_after(line, "\"batch_lines\":");
        if (batch > 0) res.batch_lines.push_back(static_cast<std::size_t>(batch));
        continue;
      }
      const Request& r = reqs[f.index];
      const bool is_predict = r.kind == Request::Kind::kPredict;
      // Expected prefix: {"id":"q<id>","ok":true,
      const std::string id = "\"q" + std::to_string(r.id) + "\"";
      const std::string_view rest =
          line.rfind(kIdKey, 0) == 0 ? line.substr(kIdKey.size())
                                     : std::string_view();
      const bool id_ok = rest.rfind(id, 0) == 0 &&
                         rest.substr(id.size()).rfind(',', 0) == 0;
      const bool ok = id_ok && rest.substr(id.size()).rfind(kOk, 0) == 0;
      const double lat_us = static_cast<double>(rt - f.due_ns) * 1e-3;
      if (!id_ok) {
        ++res.wrong_ids;
        note_error(&res, "request " + id + " answered by: " +
                             std::string(line.substr(0, 160)));
      } else if (!ok) {
        note_error(&res, "request " + id + " failed: " +
                             std::string(line.substr(0, 200)));
      }
      if (is_predict) {
        if (ok) {
          res.predict_us.push_back(lat_us);
          res.predict_due_s.push_back(
              static_cast<double>(f.due_ns - start) * 1e-9);
          if (cfg.capture) res.captured.push_back({f.index, std::string(line)});
        } else {
          ++res.predict_failures;
        }
      } else {
        if (ok) {
          res.ingest_us.push_back(lat_us);
        } else {
          ++res.ingest_failures;
        }
      }
    }
    c.in.erase(0, begin);
  };

  for (;;) {
    std::int64_t now = now_ns();
    while (next < n && start + due[next] <= now) {
      Conn& c = conns[next % kConnections];
      c.out += reqs[next].line;
      c.out += '\n';
      c.inflight.push_back({start + due[next], static_cast<std::uint32_t>(next)});
      res.late_us.push_back(static_cast<double>(now - start - due[next]) * 1e-3);
      ++next;
      ++inflight;
      ++res.sent;
      if (next == n) res.outstanding_at_end = inflight;
    }
    if (next < n && now >= next_stats) {
      conns[0].out += "{\"id\":\"s" + std::to_string(stats_seq++) +
                      "\",\"cmd\":\"stats\"}\n";
      conns[0].inflight.push_back({now, kStatsSlot});
      ++inflight;
      ++res.sent;
      next_stats = std::max(next_stats + kStatsPeriodNs, now);
    }
    for (Conn& c : conns) {
      if (c.fd < 0) continue;
      while (c.out_off < c.out.size()) {
        const ssize_t k = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (k > 0) {
          c.out_off += static_cast<std::size_t>(k);
        } else if (k < 0 && errno == EINTR) {
          continue;
        } else {
          if (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            note_error(&res, std::string("send failed: ") +
                                 std::strerror(errno));
            ::close(c.fd);
            c.fd = -1;
          }
          break;
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    for (Conn& c : conns) {
      while (c.fd >= 0) {
        const ssize_t k = ::recv(c.fd, buf.data(), buf.size(), MSG_DONTWAIT);
        if (k > 0) {
          const std::int64_t rt = now_ns();
          const int one = 1;
          ::setsockopt(c.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
          c.in.append(buf.data(), static_cast<std::size_t>(k));
          process(c, rt);
        } else if (k < 0 && errno == EINTR) {
          continue;
        } else {
          if (k == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            note_error(&res, "server closed a load connection");
            ::close(c.fd);
            c.fd = -1;
          }
          break;
        }
      }
    }
    now = now_ns();
    if (next == n && inflight == 0) break;
    if (next == n && now > last_due + drain_ns) break;

    // Until the last request is sent the generator busy-polls: a wake-up
    // from a blocking wait can land a hundred microseconds or more late,
    // and that would be charged to the server — both as late sends and as
    // late-read responses. Only the final drain blocks.
    if (next < n) continue;
    const std::int64_t wait = last_due + drain_ns - now;
    if (wait <= 0) continue;
    for (std::size_t i = 0; i < kConnections; ++i) {
      pfds[i].fd = conns[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wait % 1'000'000'000);
    (void)::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  }

  for (Conn& c : conns) {
    for (const InFlight& f : c.inflight) {
      if (f.index == kStatsSlot) continue;
      const Request& r = reqs[f.index];
      if (r.kind == Request::Kind::kPredict) {
        ++res.predict_failures;
      } else {
        ++res.ingest_failures;
      }
      note_error(&res, "request " + std::to_string(r.id) + " unanswered");
    }
    if (c.fd >= 0) ::close(c.fd);
  }
  res.duration_s = static_cast<double>(due[n - 1]) * 1e-9;
  // Everything but the generator thread is the server: the TCP loop, the
  // batch pool and whatever they wake.
  res.server_cpu_s = (process_cpu_s() - process_cpu0) -
                     (thread_cpu_s() - generator_cpu0);
  return res;
}

}  // namespace perfbench
