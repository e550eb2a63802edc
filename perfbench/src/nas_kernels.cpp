// nas_kernels: the paper's two NAS kernels, class A.  One op is
// rs::reduce(Sorted) over the bucket-sorted IS keys, rs::reduce(Counts)
// (the 512 KiB global key histogram), then mg_fill_grid + mg_zran3_rsmpi +
// mg_apply_charges.  Keys and grid come from NPB's generators; the seed
// rotates the key values by a whole number of rank buckets.
#include <cstdint>
#include <vector>

#include "coll/barrier.hpp"
#include "nas/classes.hpp"
#include "nas/is.hpp"
#include "nas/mg.hpp"
#include "rs/ops/counts.hpp"
#include "rs/ops/sorted.hpp"
#include "rs/ops/topbottomk.hpp"
#include "rs/reduce.hpp"
#include "rs/serial.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace nas = rsmpi::nas;
namespace ops = rsmpi::rs::ops;
namespace rs = rsmpi::rs;

constexpr int kP = 8;
constexpr std::size_t kCharges = 10;

enum SpanName {
  kOp,
  kSorted,
  kCounts,
  kFillGrid,
  kZran3,
  kApplyCharges
};

using Located = ops::Located<double, std::int64_t>;

/// Inputs every rank contributes at setup, and the serial oracle rank 0
/// computes from them.
struct Shared {
  nas::IsParams is = nas::is_params(nas::ProblemClass::A);
  nas::MgParams mg = nas::mg_params(nas::ProblemClass::A);
  nas::Key key_offset = 0;
  std::vector<std::vector<nas::Key>> raw_keys, sorted_keys;
  std::vector<std::vector<double>> slabs;
  // Oracle.
  bool sorted = false;
  std::vector<long> counts;
  nas::MgCharges charges;
  std::vector<int> written;
};

void compute_oracle(Shared& sh) {
  std::vector<nas::Key> all, ordered;
  for (const auto& k : sh.raw_keys) all.insert(all.end(), k.begin(), k.end());
  for (const auto& k : sh.sorted_keys) {
    ordered.insert(ordered.end(), k.begin(), k.end());
  }
  sh.sorted = rs::serial::reduce(ordered, ops::Sorted<nas::Key>{});
  sh.counts = rs::serial::reduce(
      all, ops::Counts(static_cast<std::size_t>(sh.is.max_key)));

  // The slabs are z-slices in rank order, so their concatenation is the
  // global grid in flat-index order.
  std::vector<Located> grid;
  for (const auto& slab : sh.slabs) {
    for (const double v : slab) {
      grid.push_back({v, static_cast<std::int64_t>(grid.size())});
    }
  }
  const auto tb = rs::serial::reduce(
      grid, ops::TopBottomK<double, std::int64_t>(kCharges));
  sh.charges = {};
  for (const auto& c : tb.largest) sh.charges.positive.push_back(c.index);
  for (const auto& c : tb.smallest) sh.charges.negative.push_back(c.index);

  sh.written.assign(kP, 0);
  std::int64_t lo = 0;
  for (int r = 0; r < kP; ++r) {
    const auto& slab = sh.slabs[static_cast<std::size_t>(r)];
    const auto hi = lo + static_cast<std::int64_t>(slab.size());
    for (const auto* list : {&sh.charges.positive, &sh.charges.negative}) {
      for (const std::int64_t pos : *list) {
        if (pos >= lo && pos < hi) sh.written[static_cast<std::size_t>(r)] += 1;
      }
    }
    lo = hi;
  }
  for (auto& v : sh.raw_keys) std::vector<nas::Key>().swap(v);
  for (auto& v : sh.sorted_keys) std::vector<nas::Key>().swap(v);
  for (auto& v : sh.slabs) std::vector<double>().swap(v);
}

class Rank {
 public:
  Rank(Comm& comm, Shared& sh) : sh_(&sh), rank_(comm.rank()) {
    const auto r = static_cast<std::size_t>(rank_);
    auto raw = nas::is_generate_keys(comm, sh.is);
    const auto max_key = static_cast<nas::Key>(sh.is.max_key);
    for (auto& k : raw) k = (k + sh.key_offset) % max_key;
    sh.raw_keys[r] = raw;
    keys_ = nas::is_bucket_sort(comm, std::move(raw), sh.is);
    sh.sorted_keys[r] = keys_;
    sh.slabs[r] = nas::mg_fill_grid(comm, sh.mg).values;
    rsmpi::coll::barrier(comm);
    if (rank_ == 0) compute_oracle(sh);
    rsmpi::coll::barrier(comm);
  }

  void op(Comm& comm, SpanLog* log) {
    {
      SpanScope s(log, kSorted);
      sorted_ = rs::reduce(comm, keys_, ops::Sorted<nas::Key>{});
    }
    {
      SpanScope s(log, kCounts);
      counts_ = rs::reduce(
          comm, keys_, ops::Counts(static_cast<std::size_t>(sh_->is.max_key)));
    }
    {
      SpanScope s(log, kFillGrid);
      grid_ = nas::mg_fill_grid(comm, sh_->mg);
    }
    {
      SpanScope s(log, kZran3);
      charges_ = nas::mg_zran3_rsmpi(comm, grid_, kCharges);
    }
    {
      SpanScope s(log, kApplyCharges);
      written_ = nas::mg_apply_charges(grid_, charges_);
    }
  }

  [[nodiscard]] bool check() const {
    return sorted_ == sh_->sorted && counts_ == sh_->counts &&
           charges_.positive == sh_->charges.positive &&
           charges_.negative == sh_->charges.negative &&
           written_ == sh_->written[static_cast<std::size_t>(rank_)];
  }

 private:
  Shared* sh_;
  int rank_;
  std::vector<nas::Key> keys_;
  bool sorted_ = false;
  std::vector<long> counts_;
  nas::MgGrid grid_;
  nas::MgCharges charges_;
  int written_ = -1;
};

}  // namespace

WorkloadOutput run_nas_kernels(const Options& opt, int setup_reps) {
  WorkloadOutput out;
  out.cfg = workload_config("nas_kernels");
  Shared sh;
  sh.raw_keys.resize(kP);
  sh.sorted_keys.resize(kP);
  sh.slabs.resize(kP);
  const std::int64_t bucket = (sh.is.max_key + kP - 1) / kP;
  sh.key_offset =
      static_cast<nas::Key>(bucket * static_cast<std::int64_t>(opt.seed % kP));
  const double grid_points =
      static_cast<double>(sh.mg.nx) * sh.mg.ny * sh.mg.nz;
  // Keys are folded twice (Sorted, Counts), grid points once (zran3).
  out.cfg.elems_per_op =
      2.0 * static_cast<double>(sh.is.total_keys) + grid_points;
  out.run = drive(
      opt, out.cfg, setup_reps, [&](Comm& comm) { return Rank(comm, sh); },
      [](Comm&, Rank&) {});
  return out;
}

}  // namespace perfbench
