#pragma once

/// \file forest_isa.hpp
/// Runtime instruction-set dispatch for the FlatForest traversal kernels.
///
/// The batched tree walk ships in three builds (flat_forest.cpp): a
/// scalar reference that sweeps every slot of a tile level by level, and
/// SSE2 and AVX2 tiers of one active-list compaction walk, four entries
/// per step with a pairwise `_mm_cmpnle_pd` compare (the AVX2 tier is the
/// same code compiled for VEX encoding; hardware gathers and 4-wide
/// compares were measured slower and rejected). All three are
/// bitwise-identical by contract — same comparisons (go left iff
/// `x <= threshold`; `_mm_cmpnle_pd` is its exact negation, so a NaN
/// threshold or NaN feature sends the row right in every tier), same leaf
/// values, same accumulation order — so which one runs is purely a speed
/// decision and every caller inherits it invisibly.
///
/// Selection order: the `HPCP_FOREST_ISA` environment variable
/// (`scalar` / `sse2` / `avx2` / `auto`, re-read on every resolve so
/// tests can flip it mid-process), clamped to what the CPU actually
/// supports, else the widest supported kernel. On non-x86 builds the
/// answer is always `kScalar`.

namespace hpcp {

enum class ForestIsa {
  kScalar,  ///< portable reference walker
  kSse2,    ///< compaction walk, SSE2 encoding
  kAvx2,    ///< the same compaction walk, AVX2 (VEX) encoding
};

/// Kernel the next FlatForest batch call will run: env override clamped
/// to CPU support. Cheap enough to call per batch (one getenv).
[[nodiscard]] ForestIsa resolve_forest_isa();

/// Widest kernel this CPU supports, ignoring the env override.
[[nodiscard]] ForestIsa detect_forest_isa();

/// "scalar" / "sse2" / "avx2" — bench artifacts record this.
[[nodiscard]] const char* forest_isa_name(ForestIsa isa);

}  // namespace hpcp
