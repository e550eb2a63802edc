// Layer probes: each times one public function of one layer in isolation,
// at the sizes the workloads use, and reports the median of repeated
// measurements.
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "coll/barrier.hpp"
#include "coll/local_reduce.hpp"
#include "coll/ops.hpp"
#include "mprt/runtime.hpp"
#include "nas/classes.hpp"
#include "nas/is.hpp"
#include "nas/mg.hpp"
#include "rs/ops/counts.hpp"
#include "rs/ops/mink.hpp"
#include "rs/ops/sorted.hpp"
#include "rs/ops/topbottomk.hpp"
#include "rs/reduce.hpp"
#include "util/bytes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace mprt = rsmpi::mprt;
namespace nas = rsmpi::nas;
namespace ops = rsmpi::rs::ops;
namespace rs = rsmpi::rs;
namespace bytes = rsmpi::bytes;

constexpr int kProbeWorkers = 4;
constexpr int kNasP = 8;
constexpr int kNasWorkers = 2;

mprt::CostModel flat_model() {
  mprt::CostModel m;
  m.compute_scale = 0.0;
  return m;
}

/// The latency_p256 workload's model: the tiered cluster, communication
/// charges only.
mprt::CostModel latency_model() {
  mprt::CostModel m = mprt::CostModel::cluster_of_smp(8);
  m.compute_scale = 0.0;
  return m;
}

mprt::ExecPolicy on_workers(int w) {
  mprt::ExecPolicy e;
  e.workers = w;
  return e;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Median over `reps` of fn()'s wall time, in microseconds.
template <typename F>
double median_us(int reps, F fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto a = Clock::now();
    fn();
    t.push_back(us_between(a, Clock::now()));
  }
  return median(t);
}

/// Half round trip of an 8-byte message between two ranks, in ns.
double probe_pingpong_ns() {
  constexpr int kBatches = 15, kPerBatch = 200;
  std::vector<double> batch_us;
  mprt::run(
      2,
      [&](Comm& comm) {
        const std::uint64_t word = 42;
        const auto payload =
            std::as_bytes(std::span<const std::uint64_t>(&word, 1));
        const int peer = 1 - comm.rank();
        for (int b = 0; b < kBatches; ++b) {
          const auto a = Clock::now();
          for (int i = 0; i < kPerBatch; ++i) {
            if (comm.rank() == 0) {
              comm.send_bytes(peer, 1, payload);
              keep(comm.recv_message(peer, 1));
            } else {
              keep(comm.recv_message(peer, 1));
              comm.send_bytes(peer, 1, payload);
            }
          }
          if (comm.rank() == 0) batch_us.push_back(us_between(a, Clock::now()));
        }
      },
      flat_model(), {}, on_workers(kProbeWorkers));
  return median(batch_us) * 1e3 / (2.0 * kPerBatch);
}

/// p-1 ranks each send one message to rank 0, which receives them by
/// source in order; rank 0's time from the barrier to the last receive.
double probe_fanin_us(int p) {
  constexpr int kReps = 21;
  std::vector<double> t;
  mprt::run(
      p,
      [&](Comm& comm) {
        const std::uint64_t word = 7;
        const auto payload =
            std::as_bytes(std::span<const std::uint64_t>(&word, 1));
        for (int rep = 0; rep < kReps; ++rep) {
          rsmpi::coll::barrier(comm);
          if (comm.rank() == 0) {
            const auto a = Clock::now();
            for (int src = 1; src < comm.size(); ++src) {
              keep(comm.recv_message(src, 2 + rep));
            }
            t.push_back(us_between(a, Clock::now()));
          } else {
            comm.send_bytes(0, 2 + rep, payload);
          }
        }
      },
      flat_model(), {}, on_workers(kProbeWorkers));
  return median(t);
}

double probe_spawn_ms(int p) {
  return median_us(9, [p] {
           mprt::run(p, [](Comm&) {}, flat_model(), {},
                     on_workers(kProbeWorkers));
         }) /
         1e3;
}

double probe_barrier_us(int p) {
  constexpr int kBatches = 11, kPerBatch = 20;
  std::vector<double> t;
  mprt::run(
      p,
      [&](Comm& comm) {
        for (int b = 0; b < kBatches; ++b) {
          const auto a = Clock::now();
          for (int i = 0; i < kPerBatch; ++i) rsmpi::coll::barrier(comm);
          if (comm.rank() == 0) {
            t.push_back(us_between(a, Clock::now()) / kPerBatch);
          }
        }
      },
      latency_model(), {}, on_workers(kProbeWorkers));
  return median(t);
}

/// Elementwise sum of 2^16 int64 at p=8 through the buffer path.
double probe_allreduce_us() {
  constexpr int kReps = 15;
  std::vector<double> t;
  mprt::run(
      kNasP,
      [&](Comm& comm) {
        std::vector<long> buf(1 << 16);
        rsmpi::coll::ElementwiseOp<long, rsmpi::coll::Sum<long>> op;
        for (int rep = 0; rep < kReps; ++rep) {
          std::fill(buf.begin(), buf.end(), comm.rank() + rep);
          rsmpi::coll::barrier(comm);
          const auto a = Clock::now();
          rsmpi::coll::local_allreduce(comm, std::span<long>(buf), op);
          if (comm.rank() == 0) t.push_back(us_between(a, Clock::now()));
        }
      },
      flat_model(), {}, on_workers(kNasWorkers));
  return median(t);
}

/// NAS class-A setup replica at p=8: rank 0's keygen + bucket sort and
/// mg_fill_grid times, and the busiest rank's sorted keys and rank 0's
/// grid slab for the accumulate probes.
struct NasInputs {
  double keygen_sort_ms = 0.0;
  double fill_grid_ms = 0.0;
  std::vector<nas::Key> keys;
  nas::MgGrid slab;
};

NasInputs probe_nas() {
  constexpr int kReps = 5;
  NasInputs in;
  const auto is = nas::is_params(nas::ProblemClass::A);
  const auto mg = nas::mg_params(nas::ProblemClass::A);
  std::vector<double> sort_us, fill_us;
  std::vector<std::vector<nas::Key>> rank_keys(kNasP);
  mprt::run(
      kNasP,
      [&](Comm& comm) {
        for (int rep = 0; rep < kReps; ++rep) {
          rsmpi::coll::barrier(comm);
          const auto a = Clock::now();
          auto keys =
              nas::is_bucket_sort(comm, nas::is_generate_keys(comm, is), is);
          const auto b = Clock::now();
          auto slab = nas::mg_fill_grid(comm, mg);
          const auto c = Clock::now();
          if (comm.rank() == 0) {
            sort_us.push_back(us_between(a, b));
            fill_us.push_back(us_between(b, c));
            in.slab = std::move(slab);
          }
          rank_keys[static_cast<std::size_t>(comm.rank())] = std::move(keys);
        }
      },
      flat_model(), {}, on_workers(kNasWorkers));
  // The bell-shaped key distribution leaves the edge ranks nearly empty;
  // the busiest rank's block is the one that sets an op's critical path.
  for (auto& keys : rank_keys) {
    if (keys.size() > in.keys.size()) in.keys = std::move(keys);
  }
  in.keygen_sort_ms = median(sort_us) / 1e3;
  in.fill_grid_ms = median(fill_us) / 1e3;
  return in;
}

/// ns per element of `op.accum` over `input`, single thread.
template <typename Op, typename In>
double accum_ns(const Op& prototype, const std::vector<In>& input, int inner) {
  Op op = prototype;
  const double us = median_us(15, [&] {
    for (int i = 0; i < inner; ++i) {
      for (const In& x : input) op.accum(x);
    }
    keep(op);
  });
  return us * 1e3 / (static_cast<double>(input.size()) * inner);
}

/// Median wall time of rs::reduce at p=1 with the given local pool width.
template <typename Op>
double reduce_ms_at_width(int width, const std::vector<nas::Key>& keys,
                          const Op& prototype) {
  ::setenv("RSMPI_LOCAL_THREADS", std::to_string(width).c_str(), 1);
  double ms = 0.0;
  mprt::run(
      1,
      [&](Comm& comm) {
        keep(rs::reduce(comm, keys, prototype));  // warm the pool
        ms = median_us(5, [&] { keep(rs::reduce(comm, keys, prototype)); }) /
             1e3;
      },
      flat_model(), {}, on_workers(1));
  ::setenv("RSMPI_LOCAL_THREADS", "1", 1);
  return ms;
}

}  // namespace

int probe_thread_need() { return kProbeWorkers; }

Metrics run_probes(std::uint64_t seed) {
  Metrics m;
  m["mprt.pingpong_ns"] = {probe_pingpong_ns(), "ns"};
  m["mprt.fanin_us.p16"] = {probe_fanin_us(16), "us"};
  m["mprt.fanin_us.p256"] = {probe_fanin_us(256), "us"};
  m["mprt.spawn_ms.p256"] = {probe_spawn_ms(256), "ms"};
  m["coll.barrier_us.p256"] = {probe_barrier_us(256), "us"};
  m["coll.allreduce_512KiB_us.p8"] = {probe_allreduce_us(), "us"};

  const NasInputs nasin = probe_nas();
  m["nas.keygen_sort_ms"] = {nasin.keygen_sort_ms, "ms"};
  m["nas.fill_grid_ms"] = {nasin.fill_grid_ms, "ms"};

  const std::size_t max_key =
      static_cast<std::size_t>(nas::is_params(nas::ProblemClass::A).max_key);
  std::vector<ops::Located<double, std::int64_t>> located;
  for (std::size_t i = 0; i < nasin.slab.values.size(); ++i) {
    located.push_back({nasin.slab.values[i], static_cast<std::int64_t>(i)});
  }
  Rng rng(seed);
  std::vector<int> mink_in(64);
  for (int& v : mink_in) v = static_cast<int>(rng.below(1u << 30));
  m["rs.accum_ns_per_elem.sorted"] = {
      accum_ns(ops::Sorted<nas::Key>{}, nasin.keys, 1), "ns"};
  m["rs.accum_ns_per_elem.counts"] = {
      accum_ns(ops::Counts(max_key), nasin.keys, 1), "ns"};
  m["rs.accum_ns_per_elem.topbottomk"] = {
      accum_ns(ops::TopBottomK<double, std::int64_t>(10), located, 1), "ns"};
  m["rs.accum_ns_per_elem.mink"] = {
      accum_ns(ops::MinK<int>(10), mink_in, 2000), "ns"};

  // The zero-copy hooks on the 512 KiB Counts(2^16) state.
  ops::Counts state(max_key);
  for (const nas::Key k : nasin.keys) state.accum(k);
  bytes::Writer saved;
  state.save(saved);
  const double nbytes = static_cast<double>(saved.view().size());
  const double save_us = median_us(31, [&] {
    bytes::Writer w;
    state.save(w);
    keep(w);
  });
  ops::Counts target(max_key);
  const double load_us = median_us(31, [&] {
    bytes::Reader r(saved.view());
    target.load(r);
  });
  const double combine_us =
      median_us(31, [&] { target.combine_from_bytes(saved.view()); });
  m["rs.state_bytes.counts"] = {nbytes, "B"};
  m["rs.save_gbps.counts"] = {nbytes / (save_us * 1e3), "GB/s"};
  m["rs.load_gbps.counts"] = {nbytes / (load_us * 1e3), "GB/s"};
  m["rs.combine_from_bytes_gbps.counts"] = {nbytes / (combine_us * 1e3),
                                            "GB/s"};

  // Local pool width 2 vs 1 on one rank's IS keys; > 1 means faster.
  const ops::Counts counts(max_key);
  const ops::Sorted<nas::Key> sorted;
  const double counts1 = reduce_ms_at_width(1, nasin.keys, counts);
  const double counts2 = reduce_ms_at_width(2, nasin.keys, counts);
  const double sorted1 = reduce_ms_at_width(1, nasin.keys, sorted);
  const double sorted2 = reduce_ms_at_width(2, nasin.keys, sorted);
  m["par.speedup.counts"] = {counts1 / counts2, "ratio"};
  m["par.speedup.sorted"] = {sorted1 / sorted2, "ratio"};
  m["par.base_ms.counts"] = {counts1, "ms"};
  m["par.base_ms.sorted"] = {sorted1, "ms"};
  return m;
}

}  // namespace perfbench
