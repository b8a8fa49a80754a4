#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "src/common/error.hpp"
#include "src/serve/faults.hpp"
#include "src/serve/server.hpp"

/// \file tcp.hpp (serve)
/// Epoll-based POSIX TCP front-end for the prediction server: binds a
/// listening socket on localhost and serves many concurrent connections
/// from one event loop. Every epoll wake drains the complete lines of
/// *all* ready connections into a single Server::handle_batch window —
/// cross-connection micro-batching: one batched predict_curves call
/// serves the whole flush window, and responses are routed back to their
/// connections afterwards.
///
/// One socket path: data connections and admin scrape connections (see
/// admin.hpp) share one socket record and one helper per chore — accept
/// up to a capacity bound, recv until EAGAIN, send drain, EPOLLOUT
/// arming, the idle deadline. Only two things depend on the kind: what a
/// request is (a line framed by the same LineFramer `--stdio` uses, or an
/// HTTP head) and who answers it (the handle_batch window, or
/// handle_admin_request). Admin connections run with no fault hook.
///
/// Ordering contract: requests from one connection are answered on that
/// connection, in the order they arrived, byte-identical to replaying the
/// same lines through `--stdio` mode — which connection a request rode in
/// on, and what its neighbours in the window were, never changes its
/// response bytes (the Server determinism contract does the heavy
/// lifting; the loop only ever appends responses per connection in
/// request order). *Cross*-connection order within a window is pinned to
/// connection-accept order; `seq_log` records it (`seq <n> conn <id>`,
/// one line per admitted request) so a concurrent replay can be audited.
///
/// A {"cmd":"shutdown"} on any connection stops the listener; every other
/// way a connection can end — orderly EOF, a mid-line or mid-response
/// disconnect, idling past the io timeout, EPIPE from a vanished peer —
/// is a logged lifecycle event followed by more serving, never process
/// death (SIGPIPE is ignored for the lifetime of the listener).

namespace hpcp::serve {

/// Knobs for one listener, all optional.
struct TcpOptions {
  /// Idle deadline per connection in milliseconds: a connection with no
  /// read/write progress for this long is closed ("timeout" lifecycle
  /// event) and the daemon keeps serving the others. <= 0 means no
  /// deadline (connections may idle forever); the CLI defaults the
  /// daemon path to a finite value and reserves an explicit flag for
  /// "block forever".
  int io_timeout_ms = -1;
  /// Concurrent-connection bound; a connection accepted above the bound
  /// is closed immediately ("rejected (capacity)" lifecycle event).
  std::size_t max_connections = 256;
  /// When non-null, receives the actually bound port once listening —
  /// with port 0 the kernel picks one, and tests need to find it without
  /// scraping the log stream.
  std::atomic<std::uint16_t>* bound_port = nullptr;
  /// When non-null, receives one `seq <n> conn <id>` line per admitted
  /// request in global admission order — the audit trail for cross-
  /// connection batching.
  std::ostream* seq_log = nullptr;
  /// Chaos hook applied to every connection's reads/writes; nullptr in
  /// production (the CLI wires process_faults() here under
  /// HPCP_SERVE_FAULTS).
  FaultInjector* faults = nullptr;
  /// Admin scrape plane (see admin.hpp): when >= 0, a second listener on
  /// 127.0.0.1:`admin_port` joins the SAME epoll loop and answers HTTP
  /// GET /metrics, /healthz and /statsz. Admin connections never enter
  /// handle_batch and are never fault-injected, so scraping cannot
  /// perturb data-plane response bytes. -1 (default) disables the plane.
  int admin_port = -1;
  /// Like `bound_port`, but for the admin listener (port 0 supported).
  /// At most 8 admin connections are open at once; a scraper above that
  /// is closed immediately ("admin connection rejected (capacity)").
  std::atomic<std::uint16_t>* admin_bound_port = nullptr;
};

/// Listens on 127.0.0.1:`port` and serves connections until a client sends
/// {"cmd":"shutdown"}. `log` receives one line per lifecycle event (bound
/// port, connection open, connection close + reason). Returns an Io error
/// when the socket cannot be created or bound.
[[nodiscard]] Expected<void> run_tcp_server(Server& server,
                                            std::uint16_t port,
                                            std::ostream& log,
                                            const TcpOptions& opts = {});

}  // namespace hpcp::serve
