// svc_stream: one svc::Service epoch per op at p=16, four tenants as in
// bench/svc_throughput's p16 point (Sum tumbling, Counts(64),
// HyperLogLog(10), Min sliding 4/1 on the two-stack path).  Every rank
// stages 4096 events per stream per epoch; keys are Zipf-distributed, so
// the hash-sharded batches are uneven.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "coll/barrier.hpp"
#include "rs/ops/basic.hpp"
#include "rs/ops/counts.hpp"
#include "rs/ops/sketches.hpp"
#include "rs/serial.hpp"
#include "svc/svc.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ops = rsmpi::rs::ops;
namespace rs = rsmpi::rs;
namespace svc = rsmpi::svc;
using svc::Event;

constexpr int kP = 16;
constexpr int kStreams = 4;
constexpr std::size_t kEventsPerStream = 4096;  // per rank per epoch
constexpr int kPatterns = 8;  // distinct epoch inputs, cycled
constexpr int kBuckets = 64;
constexpr int kHllBits = 10;
constexpr std::size_t kSlidingWindow = 4;
constexpr std::size_t kKeyUniverse = 1 << 16;
constexpr double kZipfExponent = 1.1;

enum SpanName { kOp, kStage, kStep };

struct SumX {
  long operator()(const Event& e) const { return static_cast<long>(e.value); }
};
struct BucketX {
  int operator()(const Event& e) const {
    return static_cast<int>(e.key % kBuckets);
  }
};
struct KeyX {
  std::uint64_t operator()(const Event& e) const { return e.key; }
};
struct MinX {
  int operator()(const Event& e) const { return static_cast<int>(e.value); }
};

/// events[pattern][rank][stream]: one epoch's staged batch.  Key
/// identities are fixed (Zipf rank i is key i), so the hot keys fall on
/// the same shards for every seed; the seed drives which keys and values
/// are drawn.
using Events = std::vector<std::vector<std::vector<std::vector<Event>>>>;

Events make_events(std::uint64_t seed) {
  std::vector<double> cdf(kKeyUniverse);
  double acc = 0.0;
  for (std::size_t i = 0; i < kKeyUniverse; ++i) {
    acc += std::pow(static_cast<double>(i + 1), -kZipfExponent);
    cdf[i] = acc;
  }
  for (double& c : cdf) c /= acc;

  Rng rng(seed);
  Events ev(kPatterns, std::vector<std::vector<std::vector<Event>>>(
                           kP, std::vector<std::vector<Event>>(kStreams)));
  for (auto& pattern : ev) {
    for (auto& rank : pattern) {
      for (auto& batch : rank) {
        batch.resize(kEventsPerStream);
        for (Event& e : batch) {
          const auto it = std::upper_bound(cdf.begin(), cdf.end(), rng.unit());
          e.key = static_cast<std::uint64_t>(
              std::min<std::ptrdiff_t>(it - cdf.begin(), kKeyUniverse - 1));
          e.value = static_cast<double>(rng.below(1'000'000));
        }
      }
    }
  }
  return ev;
}

/// All ranks' events of one pattern and stream, mapped by `extract`.
template <typename Extract>
auto gather(const Events& ev, int pattern, int stream, Extract extract) {
  std::vector<decltype(extract(Event{}))> out;
  for (const auto& rank : ev[static_cast<std::size_t>(pattern)]) {
    for (const Event& e : rank[static_cast<std::size_t>(stream)]) {
      out.push_back(extract(e));
    }
  }
  return out;
}

struct Shared {
  std::uint64_t seed = 0;
  Events events;
  // Serial oracle per pattern.
  std::vector<long> sum;
  std::vector<std::vector<long>> counts;
  std::vector<double> hll;
  std::vector<ops::Min<int>> min_state;
  // Service figures collected after the run, per rank.
  std::vector<double> p99_epoch_s = std::vector<double>(kP, 0.0);
  std::vector<double> degraded = std::vector<double>(kP, 0.0);
};

void build_inputs(Shared& sh) {
  Events().swap(sh.events);  // free an earlier set-up's inputs first
  sh.events = make_events(sh.seed);
  sh.sum.clear();
  sh.counts.clear();
  sh.hll.clear();
  sh.min_state.clear();
  for (int k = 0; k < kPatterns; ++k) {
    sh.sum.push_back(rs::serial::reduce(gather(sh.events, k, 0, SumX{}),
                                        ops::Sum<long>{}));
    sh.counts.push_back(rs::serial::reduce(gather(sh.events, k, 1, BucketX{}),
                                           ops::Counts(kBuckets)));
    sh.hll.push_back(
        rs::serial::reduce(gather(sh.events, k, 2, KeyX{}),
                           ops::HyperLogLog<std::uint64_t>(kHllBits)));
    sh.min_state.push_back(rs::serial::reduce_state(
        gather(sh.events, k, 3, MinX{}), ops::Min<int>{}));
  }
}

int pattern_of(std::uint64_t epoch) {
  return static_cast<int>((epoch - 1) % kPatterns);
}

class Rank {
 public:
  Rank(Comm& comm, Shared& sh)
      : sh_(&sh), rank_(comm.rank()), service_(comm) {
    if (rank_ == 0) build_inputs(sh);
    rsmpi::coll::barrier(comm);
    std::vector<int> all;
    for (int r = 0; r < kP; ++r) all.push_back(r);
    svc::WindowConfig tumbling;
    tumbling.window_epochs = 1;
    svc::WindowConfig sliding;
    sliding.window_epochs = kSlidingWindow;
    sliding.slide_epochs = 1;
    sum_ = &service_.add_stream("sum", all, ops::Sum<long>{}, SumX{}, tumbling);
    counts_ = &service_.add_stream("counts", all, ops::Counts(kBuckets),
                                   BucketX{}, tumbling);
    hll_ = &service_.add_stream("hll", all,
                                ops::HyperLogLog<std::uint64_t>(kHllBits),
                                KeyX{}, tumbling);
    min_ = &service_.add_stream("min", all, ops::Min<int>{}, MinX{}, sliding);
  }

  void op(Comm&, SpanLog* log) {
    epoch_ += 1;
    const auto& mine = sh_->events[static_cast<std::size_t>(pattern_of(epoch_))]
                                  [static_cast<std::size_t>(rank_)];
    {
      SpanScope s(log, kStage);
      sum_->stage(mine[0]);
      counts_->stage(mine[1]);
      hll_->stage(mine[2]);
      min_->stage(mine[3]);
    }
    SpanScope s(log, kStep);
    service_.step_epoch();
  }

  [[nodiscard]] bool check() const {
    const auto k = static_cast<std::size_t>(pattern_of(epoch_));
    std::optional<int> min_expected;
    if (epoch_ >= kSlidingWindow) {
      ops::Min<int> m;
      for (std::uint64_t e = epoch_ - kSlidingWindow + 1; e <= epoch_; ++e) {
        m = rs::serial::combine(
            m, sh_->min_state[static_cast<std::size_t>(pattern_of(e))]);
      }
      min_expected = m.gen();
    }
    return sum_->last_window() == sh_->sum[k] &&
           counts_->last_window() == sh_->counts[k] &&
           hll_->last_window() == sh_->hll[k] &&
           min_->last_window() == min_expected;
  }

  /// Records this rank's service figures into the shared slots.
  void collect() {
    double p99 = 0.0;
    for (const auto& [name, s] : service_.stats().streams()) {
      p99 = std::max(p99, s.latency_quantile_s(0.99));
    }
    sh_->p99_epoch_s[static_cast<std::size_t>(rank_)] = p99;
    sh_->degraded[static_cast<std::size_t>(rank_)] =
        static_cast<double>(service_.stats().degraded_streams());
  }

 private:
  Shared* sh_;
  int rank_;
  svc::Service service_;
  svc::Stream<ops::Sum<long>, SumX>* sum_ = nullptr;
  svc::Stream<ops::Counts, BucketX>* counts_ = nullptr;
  svc::Stream<ops::HyperLogLog<std::uint64_t>, KeyX>* hll_ = nullptr;
  svc::Stream<ops::Min<int>, MinX>* min_ = nullptr;
  std::uint64_t epoch_ = 0;
};

}  // namespace

double svc_shard_load_max_over_mean(std::uint64_t seed) {
  const Events ev = make_events(seed);
  const svc::HashShard shard;
  double total = 0.0;
  for (int k = 0; k < kPatterns; ++k) {
    for (int s = 0; s < kStreams; ++s) {
      std::vector<double> load(kP, 0.0);
      for (const auto& rank : ev[static_cast<std::size_t>(k)]) {
        for (const Event& e : rank[static_cast<std::size_t>(s)]) {
          load[static_cast<std::size_t>(shard(e.key, kP))] += 1.0;
        }
      }
      const double mean = static_cast<double>(kP * kEventsPerStream) / kP;
      total += *std::max_element(load.begin(), load.end()) / mean;
    }
  }
  return total / (kPatterns * kStreams);
}

WorkloadOutput run_svc_stream(const Options& opt, int setup_reps) {
  WorkloadOutput out;
  out.cfg = workload_config("svc_stream");
  out.cfg.elems_per_op = static_cast<double>(kP) * kStreams * kEventsPerStream;
  Shared sh;
  sh.seed = opt.seed;
  out.run = drive(
      opt, out.cfg, setup_reps, [&](Comm& comm) { return Rank(comm, sh); },
      [](Comm&, Rank& rank) { rank.collect(); });
  out.layer["svc.epoch_model_us_p99"] = {
      1e6 * *std::max_element(sh.p99_epoch_s.begin(), sh.p99_epoch_s.end()),
      "us"};
  double degraded = 0.0;
  for (const double d : sh.degraded) degraded += d;
  out.layer["svc.degraded_streams"] = {degraded, "count"};
  return out;
}

}  // namespace perfbench
