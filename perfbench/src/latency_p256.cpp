// latency_p256: three latency-bound collectives over 64 values per rank at
// p=256.  One op is rs::reduce(MinK<int>(10)) (commutative),
// rs::xscan(Sum<long>) (ordered prefix) and rs::reduce_async(Sorted<int>)
// completed with get() (noncommutative, through the progress engine).
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "coll/barrier.hpp"
#include "rs/async.hpp"
#include "rs/ops/basic.hpp"
#include "rs/ops/mink.hpp"
#include "rs/ops/sorted.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"
#include "rs/serial.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ops = rsmpi::rs::ops;
namespace rs = rsmpi::rs;

constexpr int kP = 256;
constexpr std::size_t kPerRank = 64;
constexpr std::size_t kMinK = 10;

enum SpanName { kOp, kMinKSpan, kXscan, kAsyncSorted };

/// Inputs and serial oracle, built by rank 0 during setup.
struct Shared {
  std::uint64_t seed = 0;
  std::vector<int> mink_in, sorted_in;
  std::vector<long> xscan_in;
  std::vector<int> mink;
  std::vector<long> xscan;
  bool sorted = false;
};

void build_inputs(Shared& sh) {
  Rng rng(sh.seed);
  const std::size_t n = kP * kPerRank;
  sh.mink_in.resize(n);
  sh.xscan_in.resize(n);
  sh.sorted_in.resize(n);
  int walk = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sh.mink_in[i] = static_cast<int>(rng.below(1u << 30));
    sh.xscan_in[i] = static_cast<long>(rng.below(1u << 20));
    walk += static_cast<int>(rng.below(4));
    sh.sorted_in[i] = walk;
  }
  // Odd seeds plant one descent, so the Sorted answer depends on the seed.
  if (sh.seed % 2 == 1) {
    const std::size_t at = 1 + rng.below(n - 1);
    sh.sorted_in[at] = sh.sorted_in[at - 1] - 1;
  }
  sh.mink = rs::serial::reduce(sh.mink_in, ops::MinK<int>(kMinK));
  sh.xscan = rs::serial::xscan(sh.xscan_in, ops::Sum<long>{});
  sh.sorted = rs::serial::reduce(sh.sorted_in, ops::Sorted<int>{});
}

template <typename T>
std::span<const T> slice(const std::vector<T>& v, int rank) {
  return std::span<const T>(v).subspan(
      static_cast<std::size_t>(rank) * kPerRank, kPerRank);
}

class Rank {
 public:
  Rank(Comm& comm, Shared& sh) : sh_(&sh) {
    const int rank = comm.rank();
    if (rank == 0) build_inputs(sh);
    rsmpi::coll::barrier(comm);
    mink_in_ = slice(sh.mink_in, rank);
    xscan_in_ = slice(sh.xscan_in, rank);
    sorted_in_ = slice(sh.sorted_in, rank);
    xscan_expected_ = slice(sh.xscan, rank);
  }

  void op(Comm& comm, SpanLog* log) {
    {
      SpanScope s(log, kMinKSpan);
      mink_ = rs::reduce(comm, mink_in_, ops::MinK<int>(kMinK));
    }
    {
      SpanScope s(log, kXscan);
      xscan_ = rs::xscan(comm, xscan_in_, ops::Sum<long>{});
    }
    {
      SpanScope s(log, kAsyncSorted);
      auto fut = rs::reduce_async(comm, sorted_in_, ops::Sorted<int>{});
      sorted_ = fut.get();
    }
  }

  [[nodiscard]] bool check() const {
    return mink_ == sh_->mink && sorted_ == sh_->sorted &&
           std::equal(xscan_.begin(), xscan_.end(), xscan_expected_.begin(),
                      xscan_expected_.end());
  }

 private:
  Shared* sh_;
  std::span<const int> mink_in_, sorted_in_;
  std::span<const long> xscan_in_, xscan_expected_;
  std::vector<int> mink_;
  std::vector<long> xscan_;
  bool sorted_ = false;
};

}  // namespace

WorkloadOutput run_latency_p256(const Options& opt, int setup_reps) {
  WorkloadOutput out;
  out.cfg = workload_config("latency_p256");
  out.cfg.elems_per_op = 3.0 * kP * kPerRank;
  Shared sh;
  sh.seed = opt.seed;
  out.run = drive(
      opt, out.cfg, setup_reps, [&](Comm& comm) { return Rank(comm, sh); },
      [](Comm&, Rank&) {});
  return out;
}

}  // namespace perfbench
