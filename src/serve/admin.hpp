#pragma once

#include <string>
#include <string_view>

/// \file admin.hpp (serve)
/// The admin scrape plane: a minimal HTTP/1.0 GET handler served from the
/// SAME epoll loop as the data plane (tcp.cpp registers the admin listener
/// in its epfd), so it needs no extra threads and — because admin requests
/// never enter Server::handle_batch — structurally cannot perturb the data
/// plane's response bytes.
///
/// Endpoints (all GET, one request per connection, Connection: close):
///   /metrics  Prometheus text exposition of the global MetricRegistry
///   /healthz  the health probe body ({"cmd":"health"} without an id);
///             HTTP 200 while a store is attached ("ok"), 503 when
///             "unavailable"
///   /statsz   the hpcp-stats/1 snapshot (Server::render_stats_json)
/// Anything else is 404; non-GET methods are 405. The request head is
/// bounded (kMaxAdminRequestBytes) — an over-long head gets 431 and the
/// connection is closed.

namespace hpcp::serve {

class Server;

/// Hard bound on one admin request head; beyond it the reply is 431.
inline constexpr std::size_t kMaxAdminRequestBytes = 8192;

/// True once `inbuf` holds enough to route: a blank line ("\r\n\r\n" /
/// "\n\n") or simply the first newline — everything this plane needs is
/// on the request line, and request bodies are not part of it.
[[nodiscard]] bool admin_request_complete(std::string_view inbuf);

/// Serves one buffered admin request and returns the complete HTTP
/// response bytes to write. `inbuf` is everything read from the
/// connection; `overflow` marks a head that exceeded
/// kMaxAdminRequestBytes before completing.
[[nodiscard]] std::string handle_admin_request(Server& server,
                                               std::string_view inbuf,
                                               bool overflow);

}  // namespace hpcp::serve
