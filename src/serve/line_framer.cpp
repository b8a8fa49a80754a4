#include "src/serve/line_framer.hpp"

#include <algorithm>
#include <utility>

namespace hpcp::serve {

LineFramer::LineFramer(std::size_t max_line_bytes)
    : max_(std::max<std::size_t>(max_line_bytes, 1)) {}

void LineFramer::push(std::string_view bytes,
                      std::vector<Server::BatchLine>& out) {
  while (!bytes.empty()) {
    const std::size_t nl = bytes.find('\n');
    const std::string_view part = bytes.substr(0, nl);
    if (!discarding_ && part.size() > max_ - partial_.size()) {
      partial_.clear();
      discarding_ = true;
    }
    if (nl == std::string_view::npos) {
      if (!discarding_) partial_.append(part);
      return;
    }
    if (discarding_) {
      out.push_back({std::string(), true});
    } else if (partial_.empty()) {
      out.push_back({std::string(part), false});
    } else {
      partial_.append(part);
      out.push_back({std::move(partial_), false});
    }
    partial_.clear();
    discarding_ = false;
    bytes.remove_prefix(nl + 1);
  }
}

void LineFramer::finish(std::vector<Server::BatchLine>& out) {
  if (discarding_) {
    out.push_back({std::string(), true});
  } else if (!partial_.empty()) {
    out.push_back({std::move(partial_), false});
  }
  partial_.clear();
  discarding_ = false;
}

}  // namespace hpcp::serve
