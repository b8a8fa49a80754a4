#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <streambuf>
#include <string>

#include "src/common/error.hpp"

/// \file faults.hpp (serve)
/// Deterministic fault injection for the serving path.
///
/// A long-lived prediction daemon dies from the inputs nobody replays in
/// tests: a client that vanishes mid-line, a socket that delivers one byte
/// per read, a model archive torn by a crashed writer, a clock that jumps
/// past every deadline. This header gives those failures a seed. A
/// FaultSpec (parsed from the HPCP_SERVE_FAULTS environment variable or
/// built directly by tests) drives a FaultInjector whose decisions come
/// from a splitmix64 stream, so every chaos scenario is a pure function of
/// its seed — a crash found in CI replays locally from the seed alone.
///
/// Injection sites:
///   - ChaosStreambuf wraps any input streambuf and injects short reads,
///     garbage frames (whole bogus lines at line boundaries), and a
///     mid-line disconnect (premature EOF at an arbitrary byte).
///   - The epoll front-end (tcp.cpp) consults an injector to clamp socket
///     reads/writes and force disconnects at the syscall layer.
///   - make_skipping_clock builds a deterministic monotonic clock that
///     occasionally jumps forward, for exercising request deadlines
///     without wall-time dependence.
///
/// Everything here is off unless explicitly enabled; production builds
/// pay one null-pointer check per site.

namespace hpcp::serve {

/// Probabilities and magnitudes of the injected faults. All probabilities
/// are per decision point (one read, one line, one clock read) in [0, 1].
struct FaultSpec {
  std::uint64_t seed = 1;
  double short_read = 0.0;   ///< read delivers a 1..8-byte sliver
  double disconnect = 0.0;   ///< input ends mid-line, permanently
  double garbage = 0.0;      ///< a garbage frame precedes the next line
  double tenant = 0.0;       ///< a well-formed predict line naming a random
                             ///< tenant precedes the next line (registry
                             ///< routing chaos: known, unknown, and
                             ///< hostile "model" values)
  double ingest = 0.0;       ///< a well-formed ingest line precedes the next
                             ///< line (continuous-learning chaos: known and
                             ///< unknown tenants, clean and semantically
                             ///< poisoned measurements — the quarantine
                             ///< layer's diet, never a crash)
  double short_write = 0.0;  ///< write accepts only a sliver (fd layer)
  double write_error = 0.0;  ///< write fails outright, EPIPE-style
  double clock_skip = 0.0;   ///< clock read jumps forward clock_skip_ms
  std::uint64_t clock_skip_ms = 1000;

  [[nodiscard]] bool enabled() const noexcept {
    return short_read > 0.0 || disconnect > 0.0 || garbage > 0.0 ||
           tenant > 0.0 || ingest > 0.0 || short_write > 0.0 ||
           write_error > 0.0 || clock_skip > 0.0;
  }
};

/// Parses a spec string like
///   "seed=42,short_read=0.2,disconnect=0.05,garbage=0.1,clock_skip=0.01"
/// (keys as in FaultSpec; unknown keys, bad numbers, or out-of-range
/// probabilities are BadData errors so a typoed HPCP_SERVE_FAULTS cannot
/// silently disable a chaos run).
[[nodiscard]] Expected<FaultSpec> parse_fault_spec(const std::string& text);

/// The seeded decision stream. Each call site draws in a fixed order, so
/// for one transport + request stream the fault sequence is reproducible.
class FaultInjector {
 public:
  FaultInjector() = default;  ///< disabled: every roll says "no fault"
  explicit FaultInjector(const FaultSpec& spec)
      : spec_(spec), state_(spec.seed * 0x9e3779b97f4a7c15ULL + 1) {}

  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] bool enabled() const noexcept { return spec_.enabled(); }

  /// True with probability `p`; always advances the stream when enabled.
  [[nodiscard]] bool roll(double p) noexcept;
  /// Uniform draw in [0, n); n == 0 returns 0.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t n) noexcept;

  /// Site helpers, shared by both transports so fault behaviour matches.
  [[nodiscard]] std::size_t clamp_read(std::size_t got) noexcept;
  [[nodiscard]] bool read_disconnects() noexcept {
    return roll(spec_.disconnect);
  }
  [[nodiscard]] std::size_t clamp_write(std::size_t want) noexcept;
  [[nodiscard]] bool write_fails() noexcept {
    return roll(spec_.write_error);
  }

 private:
  FaultSpec spec_{};
  std::uint64_t state_ = 0;
};

/// Process-wide injector parsed from HPCP_SERVE_FAULTS, or nullptr when
/// the variable is unset/disabled. A malformed spec is reported on stderr
/// once and treated as a hard error by callers that opt in (the CLI);
/// here it just yields nullptr.
[[nodiscard]] FaultInjector* process_faults();

/// A deterministic monotonic clock for deadline tests: starts at
/// `start_ms`, advances 1ms per read, and jumps forward by
/// spec.clock_skip_ms with probability spec.clock_skip per read. The
/// injector must outlive the returned function.
[[nodiscard]] std::function<std::uint64_t()> make_skipping_clock(
    FaultInjector* injector, std::uint64_t start_ms = 0);

/// An input streambuf that forwards another streambuf's bytes through the
/// fault model: short reads deliver slivers, garbage frames are injected
/// as whole extra lines at line boundaries (so adjacent real requests stay
/// intact and accounting per line is exact), and a disconnect cuts the
/// stream mid-line and pins it at EOF. With a disabled injector it is a
/// transparent pass-through.
class ChaosStreambuf final : public std::streambuf {
 public:
  ChaosStreambuf(std::streambuf* source, FaultInjector* injector);

  /// True once an injected disconnect ended the stream early.
  [[nodiscard]] bool disconnected() const noexcept { return disconnected_; }
  /// Number of garbage frames injected so far.
  [[nodiscard]] std::size_t garbage_frames() const noexcept {
    return garbage_frames_;
  }
  /// Number of injected tenant-routing predict frames so far.
  [[nodiscard]] std::size_t tenant_frames() const noexcept {
    return tenant_frames_;
  }
  /// Number of injected ingest frames so far.
  [[nodiscard]] std::size_t ingest_frames() const noexcept {
    return ingest_frames_;
  }

 protected:
  int_type underflow() override;

 private:
  std::streambuf* source_;
  FaultInjector* injector_;
  bool disconnected_ = false;
  bool at_line_start_ = true;
  std::size_t garbage_frames_ = 0;
  std::size_t tenant_frames_ = 0;
  std::size_t ingest_frames_ = 0;
  std::string pending_;  ///< queued garbage frame bytes, delivered first
  char buf_[4096];
};

}  // namespace hpcp::serve
