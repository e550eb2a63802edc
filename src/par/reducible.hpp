// par::Reducible — per-chunk operator states for one parallel reduction.
//
// The deterministic half of the work-stealing accumulate: every *chunk*
// gets its own identity clone of the operator prototype, a worker folds
// the chunk's elements into that clone, and merge_into combines the
// clones into the target in ascending chunk order.  Because the chunk ->
// state mapping and the merge order are both functions of chunk indices
// only, the final state is independent of pool width and of the stealing
// schedule; for operators whose combine is the exact homomorphism of
// their accum (the contract the cross-rank combine phase already relies
// on) it is bit-identical to the serial loop.  The alternative — one
// state per *worker*, Galois GAccumulator style — was rejected: it makes
// floating-point results depend on which worker happened to run which
// chunk.
//
// One clone plus one combine per chunk is the price of that
// determinism, so the caller sizes chunks against the state:
// par::chunk_grain (accumulate.hpp) never lets a chunk of a partitionable
// state hold fewer elements than the state has words, bounding clone and
// merge work by the accumulate work.  Non-partitionable heavy states
// (HyperLogLog, Bloom) still pay one clone per env-grain chunk.
//
// Storage is one vector ("lane") per worker, so workers never touch each
// other's lanes and no locking is needed while accumulating; the caller
// reads the lanes only after the pool's completion barrier.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "par/pool.hpp"

namespace rsmpi::par {

template <typename Op>
class Reducible {
 public:
  /// `prototype` must stay alive (and unmodified) for the Reducible's
  /// lifetime and must be in identity state — it is copied once per
  /// chunk, which is why operator prototypes must be cheap to clone
  /// (docs/operators.md) and why chunks are sized by par::chunk_grain.
  /// `chunk_hint` pre-sizes the lanes.
  Reducible(const Op& prototype, unsigned workers, std::size_t chunk_hint = 0)
      : prototype_(&prototype), lanes_(workers == 0 ? 1 : workers) {
    if (chunk_hint != 0) {
      const std::size_t per = chunk_hint / lanes_.size() + 1;
      for (auto& lane : lanes_) lane.reserve(per);
    }
  }

  /// A fresh identity clone owned by `worker`'s lane, tagged with the
  /// chunk index it will cover.  The reference is valid until the same
  /// worker's next fresh_state call (lane growth relocates earlier
  /// entries) — fold the chunk immediately, then drop it.
  Op& fresh_state(unsigned worker, std::size_t chunk) {
    auto& lane = lanes_[worker];
    lane.emplace_back(chunk, *prototype_);
    return lane.back().second;
  }

  /// Combines every chunk state into `into` in ascending chunk order:
  /// into = into (+) s_0 (+) s_1 (+) ... — exactly the serial fold's
  /// association for exact operators, regardless of which worker
  /// produced which state.  Call only after the pool section completed.
  /// Returns the number of states merged.
  std::size_t merge_into(Op& into) {
    std::vector<std::pair<std::size_t, Op*>> order;
    std::size_t total = 0;
    for (auto& lane : lanes_) total += lane.size();
    order.reserve(total);
    for (auto& lane : lanes_) {
      for (auto& [chunk, state] : lane) order.emplace_back(chunk, &state);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [chunk, state] : order) into.combine(*state);
    return order.size();
  }

 private:
  const Op* prototype_;
  std::vector<std::vector<std::pair<std::size_t, Op>>> lanes_;
};

}  // namespace rsmpi::par
