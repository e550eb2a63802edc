// Shared machinery of the wall-clock benchmark: options, the seeded input
// generator, sample statistics, process CPU/RSS readings, per-rank counter
// snapshots, the span recorder of the traced run, and the closed-loop
// loop that every workload runs through.
//
// drive() runs one workload as one mprt::run: each rank builds its
// inputs, the workload's oracle is computed with rs::serial, warm-up ops
// run, and then rank 0 times every op of the timed phase.  All ranks are
// callers in a closed loop: a rank issues its next op only after its
// previous one returned.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coll/barrier.hpp"
#include "mprt/comm.hpp"
#include "mprt/runtime.hpp"

namespace perfbench {

using rsmpi::mprt::Comm;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string source_id = "unknown";
};

/// Seeded generator (splitmix64 stream); portable, unlike the
/// implementation-defined std:: distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the
/// (n-10)th smallest sample, labelled with its percentile.  Fewer than 11
/// samples give the maximum.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};
inline Tail tail_of(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) return {v.back(), 100.0};
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) /
                         static_cast<double>(n)};
}

/// Process user+sys CPU seconds.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Keeps a computed value alive without the compiler proving it unused.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Consecutive op blocks of about kBlockOps samples each (at least one
/// block).  Tails and throughput are taken per block and reported as the
/// median over blocks, so one burst of host noise moves one block only.
inline constexpr std::size_t kBlockOps = 200;
/// Timed ops after which peak RSS is read.
inline constexpr std::uint64_t kRssOps = 200;
inline std::vector<std::pair<std::size_t, std::size_t>> blocks_of(
    std::size_t n) {
  const std::size_t b = std::max<std::size_t>(1, n / kBlockOps);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < b; ++i) {
    out.emplace_back(i * n / b, (i + 1) * n / b);
  }
  return out;
}

// --- counters --------------------------------------------------------------

/// One rank's counters, read from its world Comm.
struct Counters {
  std::uint64_t msgs = 0, bytes = 0, allocs = 0, autotune = 0;
  std::uint64_t chunks = 0, steals = 0, intra = 0, inter = 0;
  double clock_s = 0.0;

  static Counters of(const Comm& c) {
    return {c.messages_sent(),        c.bytes_sent(),
            c.payload_allocs(),       c.autotune_invocations(),
            c.local_chunks(),         c.local_steals(),
            c.intra_node_bytes(),     c.inter_node_bytes(),
            c.clock().now()};
  }
};

// --- spans -----------------------------------------------------------------

/// One recorded interval.  `parent` indexes the op span of the same rank
/// (-1 for the op span itself).
struct Span {
  int name = 0;
  std::uint32_t op = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-rank in-memory span log of the traced run.  Only the owning rank
/// touches it while the run is live.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 14);
  }

  void begin_op(std::uint32_t op) {
    op_ = op;
    parent_ = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({0, op, -1, now_ns(), 0});
  }
  void end_op() { spans_[static_cast<std::size_t>(parent_)].end_ns = now_ns(); }

  std::size_t open(int name) {
    spans_.push_back({name, op_, parent_, now_ns(), 0});
    return spans_.size() - 1;
  }
  void close(std::size_t idx) { spans_[idx].end_ns = now_ns(); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint32_t op_ = 0;
  std::int32_t parent_ = -1;
};

/// RAII span around one public call; a null log (untraced run) records
/// nothing.
class SpanScope {
 public:
  SpanScope(SpanLog* log, int name)
      : log_(log), idx_(log != nullptr ? log->open(name) : 0) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (log_ != nullptr) log_->close(idx_);
  }

 private:
  SpanLog* log_;
  std::size_t idx_;
};

// --- closed loop -------------------------------------------------------------

/// How one workload runs.
struct RunConfig {
  int p = 1;
  int workers = 1;       ///< fiber workers (OS threads running ranks)
  int local_width = 1;   ///< par pool width per worker (RSMPI_LOCAL_THREADS)
  int warmup_ops = 3;
  rsmpi::mprt::CostModel model;
  double elems_per_op = 0.0;
  std::vector<std::string> span_names;  ///< index 0 is the op span
};

/// Everything one timed phase produced.
struct Phase {
  std::uint64_t ops = 0;
  std::vector<double> op_us;  ///< rank 0, one sample per op
  std::vector<double> op_end_s;  ///< rank 0, op end since phase start
  double wall_s = 0.0;        ///< rank 0, first op start to last op end
  double cpu_s = 0.0;         ///< process CPU over the phase
  double model_s = 0.0;       ///< virtual critical path over the phase
  Counters delta;             ///< counters summed over ranks
  std::uint64_t park_events = 0;
  std::uint64_t failed_ops = 0;
  std::vector<std::vector<Span>> spans;  ///< per rank; traced phase only
};

struct DriveResult {
  std::vector<double> setup_s;  ///< one per setup repetition
  Phase plain;
  std::optional<Phase> traced;
  /// Peak RSS after set-up and the first kRssOps timed ops (or at the
  /// end of a shorter phase), so the figure is a fixed amount of work and
  /// a faster program is not charged for running more ops.
  double peak_rss_mb = 0.0;
  double end_rss_mb = 0.0;  ///< peak RSS at the end of the untraced phase
  std::uint64_t rss_ops = 0;  ///< timed ops done when peak_rss_mb was read
  bool warmup_ok = true;
  bool aborted = false;
  std::string abort_what;
};

/// Runs `setup_reps` set-ups (the first also runs the timed phases) of a
/// workload.  `make_rank(comm)` builds one rank's state (inputs, oracle
/// share, service plans; it may synchronize); the returned object offers
/// `op(comm, SpanLog*)`, running one op, and `check()`, comparing the
/// op's outputs with the precomputed oracle.  `after(comm, rank)` runs
/// once after the timed phases on every rank.
template <typename MakeRank, typename After>
DriveResult drive(const Options& opt, const RunConfig& cfg, int setup_reps,
                  MakeRank make_rank, After after) {
  DriveResult out;
  const auto P = static_cast<std::size_t>(cfg.p);
  rsmpi::mprt::ExecPolicy exec;
  exec.workers = cfg.workers;

  for (int rep = 0; rep < setup_reps; ++rep) {
    // The first set-up also runs the timed phases, so peak RSS is read
    // before the extra set-ups (which only time setup_s) can add to it.
    const bool measure = rep == 0;
    const int nphases = measure ? (opt.trace ? 2 : 1) : 0;
    // A traced run splits its time between the plain and traced phases.
    const double phase_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;

    std::vector<Phase> phases(static_cast<std::size_t>(nphases));
    std::vector<std::atomic<std::uint64_t>> stop_at(
        static_cast<std::size_t>(nphases));
    for (auto& s : stop_at) s = std::numeric_limits<std::uint64_t>::max();
    std::vector<std::vector<Counters>> c0(phases.size(),
                                          std::vector<Counters>(P)),
        c1(phases.size(), std::vector<Counters>(P));
    std::vector<std::vector<std::vector<std::uint32_t>>> failed(
        phases.size(), std::vector<std::vector<std::uint32_t>>(P));
    std::vector<std::unique_ptr<SpanLog>> logs(P);
    std::vector<char> warm_bad(P, 0);
    double setup_s = 0.0;
    double rss_mb = 0.0, plain_end_rss = 0.0;
    std::uint64_t rss_ops = 0;

    const auto t_start = Clock::now();
    try {
      rsmpi::mprt::run(
          cfg.p,
          [&](Comm& comm) {
            const auto r = static_cast<std::size_t>(comm.rank());
            auto rank = make_rank(comm);
            for (int i = 0; i < cfg.warmup_ops; ++i) {
              rank.op(comm, nullptr);
              if (!rank.check()) warm_bad[r] = 1;
            }
            rsmpi::coll::barrier(comm);
            if (r == 0) setup_s = seconds_since(t_start);

            for (std::size_t ph = 0; ph < phases.size(); ++ph) {
              const bool traced = ph == 1;
              SpanLog* log = nullptr;
              if (traced) {
                logs[r] = std::make_unique<SpanLog>(t_start);
                log = logs[r].get();
              }
              Phase& phase = phases[ph];
              double cpu0 = 0.0;
              std::uint64_t park0 = 0;
              rsmpi::coll::barrier(comm);
              if (r == 0) {
                cpu0 = process_cpu_s();
                park0 = comm.park_events();
              }
              c0[ph][r] = Counters::of(comm);
              if (r == 0) {
                phase.op_us.reserve(1 << 16);
                phase.op_end_s.reserve(1 << 16);
              }
              const auto t0 = Clock::now();
              std::uint64_t i = 0;
              for (; i < stop_at[ph].load(std::memory_order_acquire); ++i) {
                const auto ta = Clock::now();
                if (log != nullptr) {
                  log->begin_op(static_cast<std::uint32_t>(i));
                }
                rank.op(comm, log);
                if (log != nullptr) log->end_op();
                if (r == 0) {
                  const auto tb = Clock::now();
                  phase.op_us.push_back(
                      std::chrono::duration<double, std::micro>(tb - ta)
                          .count());
                  phase.op_end_s.push_back(
                      std::chrono::duration<double>(tb - t0).count());
                  if (ph == 0 && i + 1 == kRssOps) {
                    rss_mb = peak_rss_mib();
                    rss_ops = kRssOps;
                  }
                  // Every op of every rank needs rank 0's share of the
                  // same op, so no rank can begin op i+2 before this
                  // store: all ranks stop after the same op.
                  if (std::chrono::duration<double>(tb - t0).count() >=
                          phase_s &&
                      stop_at[ph].load(std::memory_order_relaxed) ==
                          std::numeric_limits<std::uint64_t>::max()) {
                    stop_at[ph].store(i + 2, std::memory_order_release);
                  }
                }
                if (!rank.check()) {
                  failed[ph][r].push_back(static_cast<std::uint32_t>(i));
                }
              }
              c1[ph][r] = Counters::of(comm);
              if (r == 0) {
                if (ph == 0) plain_end_rss = peak_rss_mib();
                phase.wall_s = seconds_since(t0);
                phase.cpu_s = process_cpu_s() - cpu0;
                phase.park_events = comm.park_events() - park0;
                phase.ops = i;
              }
            }
            rsmpi::coll::barrier(comm);
            if (measure) after(comm, rank);
          },
          cfg.model, rsmpi::mprt::SimConfig{}, exec);
    } catch (const std::exception& e) {
      out.aborted = true;
      out.abort_what = e.what();
    }
    out.setup_s.push_back(setup_s);
    for (const char b : warm_bad) out.warmup_ok = out.warmup_ok && b == 0;
    if (out.aborted) {
      if (!phases.empty()) out.plain = std::move(phases[0]);
      return out;
    }

    for (std::size_t ph = 0; ph < phases.size(); ++ph) {
      Phase& phase = phases[ph];
      double start_max = 0.0, end_max = 0.0;
      std::vector<std::uint32_t> bad;
      for (std::size_t r = 0; r < P; ++r) {
        const Counters& a = c0[ph][r];
        const Counters& b = c1[ph][r];
        phase.delta.msgs += b.msgs - a.msgs;
        phase.delta.bytes += b.bytes - a.bytes;
        phase.delta.allocs += b.allocs - a.allocs;
        phase.delta.autotune += b.autotune - a.autotune;
        phase.delta.chunks += b.chunks - a.chunks;
        phase.delta.steals += b.steals - a.steals;
        phase.delta.intra += b.intra - a.intra;
        phase.delta.inter += b.inter - a.inter;
        start_max = std::max(start_max, a.clock_s);
        end_max = std::max(end_max, b.clock_s);
        bad.insert(bad.end(), failed[ph][r].begin(), failed[ph][r].end());
      }
      std::sort(bad.begin(), bad.end());
      phase.failed_ops = static_cast<std::uint64_t>(
          std::unique(bad.begin(), bad.end()) - bad.begin());
      phase.model_s = end_max - start_max;
      if (ph == 1) {
        for (auto& log : logs) phase.spans.push_back(log->spans());
      }
    }
    if (!phases.empty()) out.plain = std::move(phases[0]);
    if (phases.size() > 1) out.traced = std::move(phases[1]);
    if (measure) {
      out.end_rss_mb = plain_end_rss;
      if (rss_ops == 0) {
        rss_mb = out.end_rss_mb;
        rss_ops = out.plain.ops;
      }
      out.peak_rss_mb = rss_mb;
      out.rss_ops = rss_ops;
    }
  }
  return out;
}

}  // namespace perfbench
