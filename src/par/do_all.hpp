// par::do_all — chunked parallel-for over the calling rank's worker pool.
//
// The Galois-style do_all(range, body, steal=true) entry point: indices
// are grouped into fixed-size chunks, chunks are spread over the pool's
// deques, and idle workers steal.  Chunk boundaries are a pure function
// of (extent, grain) — they never depend on the pool width or on which
// worker ran what — which is the foundation of the determinism argument
// for reductions built on top (see docs/parallel_local.md): anything
// keyed by *chunk index* is reproducible even though the worker-to-chunk
// assignment is not.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>

#include "par/pool.hpp"

namespace rsmpi::par {

/// Elements per chunk when RSMPI_LOCAL_GRAIN is unset.  Large enough
/// that per-chunk costs (one deque pop, one operator clone + combine in
/// the reduction layers) are noise against 4096 accum calls for states
/// of up to 4096 words; small enough to load-balance skewed bodies.
/// Larger partitionable states raise it further in the reduction layers
/// (par::chunk_grain, accumulate.hpp) so the clone stays amortized.
inline constexpr std::size_t kDefaultGrain = 4096;

/// RSMPI_LOCAL_GRAIN: elements per chunk for parallel local sections.
/// Unset, empty, or unparsable means kDefaultGrain; minimum 1.
inline std::size_t grain_from_env() {
  const char* raw = std::getenv("RSMPI_LOCAL_GRAIN");
  if (raw == nullptr || *raw == '\0') return kDefaultGrain;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || v < 1) return kDefaultGrain;
  return static_cast<std::size_t>(v);
}

/// Number of chunks covering [0, extent) at the given grain; chunk c is
/// [c*grain, min(extent, (c+1)*grain)).
[[nodiscard]] inline std::size_t chunk_count(std::size_t extent,
                                             std::size_t grain) {
  if (extent == 0) return 0;
  const std::size_t g = grain == 0 ? 1 : grain;
  return (extent + g - 1) / g;
}

/// Runs body(i) exactly once for every i in [0, extent), in parallel over
/// the calling thread's worker pool (serial when RSMPI_LOCAL_THREADS is
/// unset).  body must be safe to invoke concurrently for distinct
/// indices; there is no cross-index ordering.  grain 0 means
/// grain_from_env().  Returns the section's RunStats.
template <typename Body>
RunStats do_all(std::size_t extent, Body&& body, std::size_t grain = 0) {
  const std::size_t g = grain == 0 ? grain_from_env() : grain;
  const std::size_t nchunks = chunk_count(extent, g);
  return WorkerPool::current().run_chunks(
      nchunks, [&](unsigned, std::size_t c) {
        const std::size_t lo = c * g;
        const std::size_t hi = std::min(extent, lo + g);
        for (std::size_t i = lo; i < hi; ++i) body(i);
      });
}

}  // namespace rsmpi::par
