#pragma once

/// \file forest_isa.hpp
/// Names the FlatForest traversal kernel for host stamps in benchmark
/// output. There is one kernel, portable C++ with no intrinsics and no
/// target attributes (flat_forest.cpp), so there is nothing to dispatch;
/// nothing in src/ calls this.

namespace hpcp {

enum class ForestIsa {
  kPortable,  ///< the one compaction walk, built for every platform
};

/// The kernel every FlatForest batch call runs.
[[nodiscard]] inline ForestIsa resolve_forest_isa() noexcept {
  return ForestIsa::kPortable;
}

/// "portable": benchmark artifacts record this.
[[nodiscard]] inline const char* forest_isa_name(ForestIsa) noexcept {
  return "portable";
}

}  // namespace hpcp
