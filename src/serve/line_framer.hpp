#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/serve/server.hpp"

/// \file line_framer.hpp (serve)
/// The one bounded-line framer of the front end: the stdio transport
/// (Server::run) and every TCP data connection (tcp.cpp) push the bytes
/// they read through a LineFramer and hand the complete lines it yields
/// to Server::handle_batch. The contract therefore holds for both
/// transports by construction:
///   - a line ends at '\n' (the '\n' is dropped; a '\r' before it stays
///     in the text, and the protocol treats it as whitespace);
///   - a line longer than the bound is discarded up to its newline, so
///     the stream stays line-aligned, and surfaces once as a `too_long`
///     BatchLine — answered with a typed "too-large" error, never
///     buffered beyond the bound;
///   - at end of stream, finish() flushes a final unterminated line, or
///     the too_long marker of a line cut off while being discarded.
/// How the bytes are chunked never changes the lines that come out.

namespace hpcp::serve {

class LineFramer {
 public:
  /// `max_line_bytes` is the longest line kept (0 is treated as 1).
  explicit LineFramer(std::size_t max_line_bytes);

  /// Frames `bytes`, appending every line they complete to `out`.
  void push(std::string_view bytes, std::vector<Server::BatchLine>& out);

  /// End of stream: appends the final unterminated line (or the marker of
  /// a half-discarded over-long one) to `out`, if there is one.
  void finish(std::vector<Server::BatchLine>& out);

 private:
  std::size_t max_;
  std::string partial_;     ///< bytes of the current line so far
  bool discarding_ = false;  ///< current line overflowed: dropping to '\n'
};

}  // namespace hpcp::serve
