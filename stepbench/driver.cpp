// Step-loop benchmark driver: runs one workload at P = 4 rank threads in a
// closed loop (each step starts when the previous one ends) and prints
// its metrics, the last line being one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
//
//   stepbench --workload <adi_remap|adi_gather|smooth9|amr_churn>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>] [--git-sha <sha>]
//   stepbench --selfcheck
//
// --trace 0 reports the end-to-end metrics from an untraced run; --trace 1
// runs an untraced loop for half the time, then a traced loop of a fixed
// step count, and reports the per-layer metrics (see README.md).
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "vf/msg/spmd.hpp"
#include "workloads.hpp"

#ifndef STEPBENCH_BUILD_TYPE
#define STEPBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

namespace stepbench {
namespace {

constexpr int kRanks = 4;
constexpr int kSetupReps = 15;  // set-ups per run; setup_s is their median
constexpr auto kWatchdog = std::chrono::milliseconds(30000);
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;  // rank-0 steps
constexpr std::int64_t kWindowNs = 250'000'000;  // timing window

// ---- workload definitions -------------------------------------------------

struct Def {
  std::string name;
  int episode = 1;      ///< steps between stop checks / episode restarts
  int warmup = 0;       ///< warm-up steps inside set-up (episode multiple)
  int trace_steps = 0;  ///< traced steps (episode multiple)
  Index grid_n = 0;     ///< global grid is grid_n x grid_n
  vf::apps::AdiConfig adi;
  vf::apps::SoakConfig soak;
};

Def make_def(const std::string& name, std::uint64_t seed) {
  Def d;
  d.name = name;
  if (name == "adi_remap" || name == "adi_gather") {
    d.adi = {.nx = 256, .ny = 256, .iterations = 4};
    d.grid_n = 256;
    d.episode = d.adi.iterations;
    d.warmup = d.episode;
    d.trace_steps = 1000;
  } else if (name == "smooth9") {
    d.grid_n = 64;
    d.episode = 64;
    d.warmup = d.episode;
    d.trace_steps = 6400;
  } else if (name == "amr_churn") {
    d.soak.n = 64;
    d.soak.sweep_every = 64;
    d.soak.halo_budget_bytes = std::size_t{64} << 10;
    d.soak.plan_budget_bytes = std::size_t{256} << 10;
    d.soak.seed = seed;
    d.grid_n = d.soak.n;
    d.episode = 16;
    d.warmup = d.soak.sweep_every;
    d.trace_steps = 2048;
  } else {
    d.name.clear();
  }
  return d;
}

std::unique_ptr<Loop> make_loop(const Def& d, vf::msg::Context& ctx,
                                Tracer& tr, std::int64_t& inspector_ns) {
  inspector_ns = 0;
  if (d.name == "adi_remap") return std::make_unique<AdiRemap>(ctx, tr, d.adi);
  if (d.name == "adi_gather") {
    return std::make_unique<AdiGather>(ctx, tr, d.adi, inspector_ns);
  }
  if (d.name == "smooth9") {
    return std::make_unique<Smooth9>(ctx, tr, d.grid_n, 2);
  }
  return std::make_unique<AmrChurn>(ctx, tr, d.soak, 2);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Reference checksum of one episode from the matching apps::run_* (ADI:
/// both strategies, which must agree bitwise).  NaN if they disagree.
double episode_reference(const Def& d) {
  double ref = 0.0;
  vf::msg::Machine m(kRanks);
  m.set_recv_watchdog(kWatchdog);
  if (d.name == "smooth9") {
    vf::msg::run_spmd(m, [&](vf::msg::Context& ctx) {
      const auto r = vf::apps::run_smoothing(
          ctx,
          {.n = d.grid_n,
           .steps = d.episode,
           .stencil = vf::apps::SmoothStencil::NinePoint},
          vf::apps::SmoothLayout::Grid2D);
      if (ctx.rank() == 0) ref = r.checksum;
    });
    return ref;
  }
  double other = 0.0;
  vf::msg::run_spmd(m, [&](vf::msg::Context& ctx) {
    const auto a = vf::apps::run_adi(
        ctx, d.adi, vf::apps::AdiStrategy::DynamicRedistribution);
    const auto b =
        vf::apps::run_adi(ctx, d.adi, vf::apps::AdiStrategy::StaticGatherLines);
    if (ctx.rank() == 0) {
      ref = a.checksum;
      other = b.checksum;
    }
  });
  return same_bits(ref, other) ? ref : std::nan("");
}

/// Reference checksum after `steps` steps, computed outside the loop.
double reference(const Def& d, long steps, double episode_ref) {
  if (d.name != "amr_churn") return episode_ref;
  vf::apps::SoakConfig cfg = d.soak;
  cfg.steps = static_cast<int>(steps);
  return vf::apps::amr_checksum(vf::apps::soak_reference(cfg));
}

// ---- the run --------------------------------------------------------------

/// Host steal and total jiffies of all CPUs so far (/proc/stat), to show
/// how much of a run the hypervisor took away.
std::pair<double, double> cpu_steal() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu;
  for (double& x : v) f >> x;
  double total = 0.0;
  for (double x : v) total += x;
  return {v[7], total};
}

struct RankOut {
  double checksum = 0.0;
  long steps_total = 0;  ///< global step counter at the end of the run
  Counters before, after;  ///< around the traced loop
  std::uint64_t ws_bytes = 0;
  std::uint64_t reg_peak = 0, halo_peak = 0, miss_steps = 0;
};

/// Rank 0's untraced step durations.  The buffer is allocated and touched
/// up front, so the process's peak RSS does not depend on how many steps a
/// run manages.
struct StepLog {
  std::vector<std::uint32_t> buf;
  std::size_t n = 0;
  void add(std::uint32_t ns) {
    if (n < buf.size()) buf[n++] = ns;
  }
  [[nodiscard]] std::vector<double> us() const {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = buf[i] / 1e3;
    return v;
  }
};

struct RunOut {
  std::vector<double> setup_s;
  std::int64_t inspector_ns = 0;  ///< rank 0, last set-up
  long timed_steps = 0;
  std::int64_t loop_ns = 0;
  StepLog log;                      ///< rank 0, untraced loop
  std::vector<double> window_rate;  ///< rank 0 steps/s per window
  std::vector<std::size_t> window_end;  ///< log.n at each window's end
  std::vector<RankOut> ranks;
  std::vector<Tracer> tracers;
  std::int64_t epoch_ns = 0;
  double steal_frac = 0.0;  ///< host steal share of CPU time in the loop
  std::uint64_t fence_trips = 0;
  std::string transport;
};

/// Runs steps from k while `go()` (asked at every episode boundary)
/// allows; `each(k)` runs after every step.
template <typename Go, typename Each>
void run_steps(const Def& d, Loop& wl, long& k, Go&& go, Each&& each) {
  for (;;) {
    if (k % d.episode == 0) {
      if (!go()) return;
      wl.begin_episode();
    }
    each(k, [&] { wl.step(k); });
    ++k;
  }
}

RunOut run(const Def& d, double seconds, bool traced, int setup_reps) {
  RunOut out;
  out.log.buf.assign(kMaxSamples, 1);
  out.ranks.resize(kRanks);
  out.tracers.resize(kRanks);
  const double untraced_s = traced ? seconds / 2 : seconds;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const bool last = rep + 1 == setup_reps;
    std::int64_t setup_end = 0;
    const std::int64_t t0 = now_ns();
    if (last) out.epoch_ns = t0;
    auto m = std::make_unique<vf::msg::Machine>(kRanks);
    m->set_recv_watchdog(kWatchdog);
    vf::msg::run_spmd(*m, [&](vf::msg::Context& ctx) {
      const int me = ctx.rank();
      Tracer& tr = out.tracers[static_cast<std::size_t>(me)];
      tr.bind(ctx);
      std::int64_t insp = 0;
      auto wl = make_loop(d, ctx, tr, insp);
      long k = 0;
      const auto plain = [](long, auto&& step) { step(); };
      run_steps(d, *wl, k, [&] { return k < d.warmup; }, plain);
      ctx.barrier();
      if (me == 0) {
        setup_end = now_ns();
        out.inspector_ns = insp;
      }
      if (!last) return;

      // Untraced timed loop: rank 0 owns the clock and broadcasts the
      // stop decision at episode boundaries.
      const auto steal0 = me == 0 ? cpu_steal() : std::pair<double, double>{};
      const std::int64_t start = now_ns();
      const auto deadline = start + static_cast<std::int64_t>(untraced_s * 1e9);
      const long k0 = k;
      std::int64_t win_start = start;
      long win_steps = 0;
      run_steps(
          d, *wl, k,
          [&] { return ctx.broadcast<int>(me == 0 && now_ns() < deadline) != 0; },
          [&](long, auto&& step) {
            const std::int64_t s0 = now_ns();
            step();
            if (me != 0) return;
            const std::int64_t s1 = now_ns();
            out.log.add(static_cast<std::uint32_t>(
                std::min<std::int64_t>(s1 - s0, UINT32_MAX)));
            ++win_steps;
            if (s1 - win_start >= kWindowNs) {
              out.window_rate.push_back(static_cast<double>(win_steps) * 1e9 /
                                        static_cast<double>(s1 - win_start));
              out.window_end.push_back(out.log.n);
              win_start = s1;
              win_steps = 0;
            }
          });
      if (me == 0) {
        out.loop_ns = now_ns() - start;
        out.timed_steps = k - k0;
        const auto steal1 = cpu_steal();
        out.steal_frac = (steal1.first - steal0.first) /
                         std::max(1.0, steal1.second - steal0.second);
      }

      RankOut& ro = out.ranks[static_cast<std::size_t>(me)];
      if (traced) {
        ctx.barrier();
        ro.before = wl->counters(ctx);
        tr.spans.reserve(static_cast<std::size_t>(d.trace_steps) * 8);
        tr.on = true;
        const long k_end = k + d.trace_steps;
        std::uint64_t misses = ro.before.halo_misses;
        run_steps(d, *wl, k, [&] { return k < k_end; },
                  [&](long kk, auto&& step) {
                    tr.begin_step(static_cast<std::uint32_t>(kk));
                    step();
                    tr.end_step();
                    const vf::rt::Env& env = wl->env();
                    ro.reg_peak = std::max<std::uint64_t>(
                        ro.reg_peak, env.registry().stats().resident_bytes);
                    ro.halo_peak = std::max<std::uint64_t>(
                        ro.halo_peak, env.halo_plans().resident_bytes());
                    const std::uint64_t now = env.halo_plans().stats().misses;
                    ro.miss_steps += now != misses ? 1 : 0;
                    misses = now;
                  });
        tr.on = false;
        ro.after = wl->counters(ctx);
      }
      ro.ws_bytes = wl->working_set_bytes();
      ro.checksum = wl->checksum();
      ro.steps_total = k;
    });
    out.setup_s.push_back(static_cast<double>(setup_end - t0) / 1e9);
    if (last) {
      out.fence_trips = m->fence_trips();
      out.transport = vf::msg::to_string(m->transport_kind());
    }
  }
  return out;
}

// ---- statistics -----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// memcpy bandwidth (B/ns) at message size `bytes`, cache-resident.
double memcpy_floor(std::size_t bytes) {
  bytes = std::max<std::size_t>(bytes, 64);
  std::vector<char> a(bytes, 1), b(bytes, 2);
  const std::size_t reps = std::max<std::size_t>(1, (1u << 24) / bytes);
  std::vector<double> rates;
  for (int trial = 0; trial < 9; ++trial) {
    const std::int64_t t0 = now_ns();
    for (std::size_t r = 0; r < reps; ++r) {
      std::memcpy(r % 2 ? a.data() : b.data(), r % 2 ? b.data() : a.data(),
                  bytes);
      asm volatile("" ::: "memory");
    }
    rates.push_back(static_cast<double>(bytes * reps) /
                    static_cast<double>(std::max<std::int64_t>(1, now_ns() - t0)));
  }
  return median(rates);
}

/// Two-rank round trip of an 8-byte message through Context send/recv.
double handoff_floor() {
  constexpr int kTrips = 2000;
  std::vector<double> rtt;
  vf::msg::Machine m(2);
  m.set_recv_watchdog(kWatchdog);
  vf::msg::run_spmd(m, [&](vf::msg::Context& ctx) {
    std::uint64_t x = 0;
    for (int i = 0; i < kTrips + 100; ++i) {
      if (ctx.rank() == 0) {
        const std::int64_t t0 = now_ns();
        ctx.send_value(1, 7, x);
        x = ctx.recv_value<std::uint64_t>(1, 8);
        if (i >= 100) rtt.push_back(static_cast<double>(now_ns() - t0));
      } else {
        x = ctx.recv_value<std::uint64_t>(0, 7) + 1;
        ctx.send_value(0, 8, x);
      }
    }
  });
  return median(rtt);
}

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  char buf[512];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    // Byte rates are computed: counted bytes over measured time.
    const bool computed = m.name.find("B_per_ns") != std::string::npos;
    std::printf("metric %-34s %16.6g %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), computed ? " (computed)" : "");
  }
}

std::vector<Metric> end_to_end(const RunOut& r) {
  const std::vector<double> step_us = r.log.us();
  // Host interference on a shared VM (steal) only ever slows a window down,
  // and one stolen vCPU stalls all four lockstep ranks, so a few percent of
  // steal costs a window about a fifth of its rate.  Each timing is
  // therefore taken per window and reported for the fastest tenth of the
  // windows: the 90th percentile of the window rates, the 10th percentile
  // of the window p50s and p90s.  Runs too short for four windows use the
  // whole loop.
  if (r.window_rate.size() < 4) {
    return {
        {"steps_per_s",
         static_cast<double>(r.timed_steps) * 1e9 /
             static_cast<double>(std::max<std::int64_t>(1, r.loop_ns)),
         "1/s"},
        {"step_p50_us", quantile(step_us, 0.5), "us"},
        {"step_p90_us", quantile(step_us, 0.9), "us"},
        {"setup_s", median(r.setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  }
  std::vector<double> p50s, p90s;
  std::size_t begin = 0;
  for (std::size_t end : r.window_end) {
    const std::vector<double> w(step_us.begin() + static_cast<long>(begin),
                                step_us.begin() + static_cast<long>(end));
    p50s.push_back(quantile(w, 0.5));
    p90s.push_back(quantile(w, 0.9));
    begin = end;
  }
  return {
      {"steps_per_s", quantile(r.window_rate, 0.9), "1/s"},
      {"step_p50_us", quantile(p50s, 0.1), "us"},
      {"step_p90_us", quantile(p90s, 0.1), "us"},
      {"setup_s", median(r.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Per-layer metrics from the traced loop's spans and counter deltas.
std::vector<Metric> per_layer(const Def& d, const RunOut& r,
                              double untraced_p50_ns) {
  const auto& t0 = r.tracers[0].spans;
  // Per call: rank-0 durations/bytes, and durations on every rank (in call
  // order) for the cross-rank spread.
  std::vector<std::vector<std::vector<double>>> dur(
      kNumCalls, std::vector<std::vector<double>>(kRanks));
  std::vector<double> bytes0(kNumCalls, 0.0);
  for (int rk = 0; rk < kRanks; ++rk) {
    for (const Span& s : r.tracers[static_cast<std::size_t>(rk)].spans) {
      dur[s.call][static_cast<std::size_t>(rk)].push_back(
          static_cast<double>(s.t1 - s.t0));
      if (rk == 0) bytes0[s.call] += static_cast<double>(s.bytes);
    }
  }
  // Kernel (self) time of each rank-0 step = step minus its child calls.
  std::vector<double> self_ns;
  double child = 0.0;
  for (const Span& s : t0) {
    if (s.call == kStep) {
      self_ns.push_back(static_cast<double>(s.t1 - s.t0) - child);
      child = 0.0;
    } else {
      child += static_cast<double>(s.t1 - s.t0);
    }
  }
  const auto sum = [](const std::vector<double>& v) {
    double x = 0.0;
    for (double y : v) x += y;
    return x;
  };
  const double step_total = sum(dur[kStep][0]);
  const auto share = [&](Call c) {
    return step_total > 0 ? sum(dur[c][0]) / step_total : 0.0;
  };
  const auto spread = [&](Call c) {
    std::size_t n = dur[c][0].size();
    for (const auto& v : dur[c]) n = std::min(n, v.size());
    std::vector<double> sp(n);
    for (std::size_t i = 0; i < n; ++i) {
      double lo = dur[c][0][i], hi = lo;
      for (const auto& v : dur[c]) {
        lo = std::min(lo, v[i]);
        hi = std::max(hi, v[i]);
      }
      sp[i] = hi - lo;
    }
    return median(sp);
  };
  const auto b_per_ns = [&](Call c) {
    const double ns = sum(dur[c][0]);
    return ns > 0 ? bytes0[c] / ns : 0.0;
  };
  const auto calls = [&](Call c) {
    return static_cast<double>(dur[c][0].size());
  };
  const auto p50 = [&](Call c) { return median(dur[c][0]); };

  // Counter deltas over the traced loop.
  Counters dl;  // machine-wide sums
  double modeled_max = 0.0;
  std::uint64_t reg_peak = 0, halo_peak = 0, ws = 0;
  const vf::msg::CostModel cm{};
  for (const RankOut& o : r.ranks) {
    const auto& a = o.after;
    const auto& b = o.before;
    dl.comm.data_messages += a.comm.data_messages - b.comm.data_messages;
    dl.comm.data_bytes += a.comm.data_bytes - b.comm.data_bytes;
    dl.comm.ctl_messages += a.comm.ctl_messages - b.comm.ctl_messages;
    dl.redist_hits += a.redist_hits - b.redist_hits;
    dl.redist_misses += a.redist_misses - b.redist_misses;
    dl.redist_evictions += a.redist_evictions - b.redist_evictions;
    dl.exch_allocs += a.exch_allocs - b.exch_allocs;
    dl.parti_allocs += a.parti_allocs - b.parti_allocs;
    dl.reg_hits += a.reg_hits - b.reg_hits;
    dl.reg_misses += a.reg_misses - b.reg_misses;
    dl.reg_swept += a.reg_swept - b.reg_swept;
    dl.halo_hits += a.halo_hits - b.halo_hits;
    dl.halo_misses += a.halo_misses - b.halo_misses;
    dl.halo_evictions += a.halo_evictions - b.halo_evictions;
    dl.spec_exchanges += a.spec_exchanges - b.spec_exchanges;
    vf::msg::CommStats c;
    c.data_messages = a.comm.data_messages - b.comm.data_messages;
    c.data_bytes = a.comm.data_bytes - b.comm.data_bytes;
    c.ctl_messages = a.comm.ctl_messages - b.comm.ctl_messages;
    c.ctl_bytes = a.comm.ctl_bytes - b.comm.ctl_bytes;
    modeled_max = std::max(modeled_max, c.modeled_us(cm));
    reg_peak = std::max(reg_peak, o.reg_peak);
    halo_peak = std::max(halo_peak, o.halo_peak);
    ws += o.ws_bytes;
  }
  const RankOut& r0 = r.ranks[0];
  const double steps = d.trace_steps;
  const auto rate = [](std::uint64_t hits, std::uint64_t misses) {
    // 1 - misses/lookups; 1 when nothing was looked up (nothing built).
    const std::uint64_t n = hits + misses;
    return n ? static_cast<double>(hits) / static_cast<double>(n) : 1.0;
  };
  const double msg_size =
      dl.comm.data_messages
          ? static_cast<double>(dl.comm.data_bytes) /
                static_cast<double>(dl.comm.data_messages)
          : 0.0;
  const double traced_p50 = median(dur[kStep][0]);
  const double points = static_cast<double>(d.grid_n * d.grid_n) / kRanks;

  return {
      {"rt.distribute.calls", calls(kDistribute), "count"},
      {"rt.distribute.ns_p50", p50(kDistribute), "ns"},
      {"rt.distribute.share", share(kDistribute), "ratio"},
      {"rt.distribute.B_per_ns", b_per_ns(kDistribute), "B/ns"},
      {"rt.distribute.rank_spread_ns", spread(kDistribute), "ns"},
      {"rt.redist_plan.hit_rate", rate(dl.redist_hits, dl.redist_misses),
       "ratio"},
      {"rt.redist_plan.evictions", static_cast<double>(dl.redist_evictions),
       "count"},
      {"rt.exchange_overlap.calls", calls(kExchange), "count"},
      {"rt.exchange_overlap.ns_p50", p50(kExchange), "ns"},
      {"rt.exchange_overlap.share", share(kExchange), "ratio"},
      {"rt.exchange_overlap.B_per_ns", b_per_ns(kExchange), "B/ns"},
      {"rt.exchange_overlap.rank_spread_ns", spread(kExchange), "ns"},
      {"rt.exchange_overlap.allocs", static_cast<double>(dl.exch_allocs),
       "count"},
      {"parti.gather.calls", calls(kGather), "count"},
      {"parti.gather.ns_p50", p50(kGather), "ns"},
      {"parti.gather.share", share(kGather), "ratio"},
      {"parti.gather.B_per_ns", b_per_ns(kGather), "B/ns"},
      {"parti.gather.rank_spread_ns", spread(kGather), "ns"},
      {"parti.scatter.calls", calls(kScatter), "count"},
      {"parti.scatter.ns_p50", p50(kScatter), "ns"},
      {"parti.scatter.share", share(kScatter), "ratio"},
      {"parti.exec.allocs", static_cast<double>(dl.parti_allocs), "count"},
      {"parti.inspector.ns", static_cast<double>(r.inspector_ns), "ns"},
      {"rt.set_overlap.calls", calls(kSetOverlap), "count"},
      {"rt.set_overlap.ns_p50", p50(kSetOverlap), "ns"},
      {"rt.set_overlap.share", share(kSetOverlap), "ratio"},
      {"rt.sweep.calls", calls(kSweep), "count"},
      {"rt.sweep.ns_p50", p50(kSweep), "ns"},
      {"rt.sweep.share", share(kSweep), "ratio"},
      {"dist.intern.calls", calls(kIntern), "count"},
      {"dist.intern.ns_p50", p50(kIntern), "ns"},
      {"dist.registry.hit_rate", rate(dl.reg_hits, dl.reg_misses), "ratio"},
      {"dist.registry.resident_bytes_peak", static_cast<double>(reg_peak),
       "B"},
      {"dist.registry.swept", static_cast<double>(dl.reg_swept), "count"},
      {"halo.plan.hit_rate", rate(dl.halo_hits, dl.halo_misses), "ratio"},
      {"halo.plan.misses", static_cast<double>(dl.halo_misses), "count"},
      {"halo.plan.miss_step_frac",
       static_cast<double>(r0.miss_steps) / steps, "ratio"},
      {"halo.plan.evictions", static_cast<double>(dl.halo_evictions),
       "count"},
      {"halo.plan.resident_bytes_peak", static_cast<double>(halo_peak), "B"},
      {"halo.spec_exchanges", static_cast<double>(dl.spec_exchanges),
       "count"},
      {"msg.data_msgs_per_step",
       static_cast<double>(dl.comm.data_messages) / steps, "count"},
      {"msg.data_bytes_per_step",
       static_cast<double>(dl.comm.data_bytes) / steps, "B"},
      {"msg.ctl_msgs_per_step",
       static_cast<double>(dl.comm.ctl_messages) / steps, "count"},
      {"msg.collectives_per_step",
       static_cast<double>(r0.after.comm.collectives -
                           r0.before.comm.collectives) /
           steps,
       "count"},
      {"msg.modeled_us_per_step", modeled_max / steps, "us"},
      {"msg.barrier.ns_p50", p50(kBarrier), "ns"},
      {"msg.fence_trips", static_cast<double>(r.fence_trips), "count"},
      {"msg.memcpy_B_per_ns", memcpy_floor(static_cast<std::size_t>(msg_size)),
       "B/ns"},
      {"msg.handoff_rtt_ns", handoff_floor(), "ns"},
      {"apps.kernel.ns_p50", median(self_ns), "ns"},
      {"apps.kernel.share", step_total > 0 ? sum(self_ns) / step_total : 0.0,
       "ratio"},
      {"apps.kernel.ns_per_point", median(self_ns) / points, "ns"},
      {"trace.overhead",
       untraced_p50_ns > 0 ? traced_p50 / untraced_p50_ns - 1.0 : 0.0,
       "ratio"},
      {"trace.steps", steps, "count"},
      {"work.ws_bytes", static_cast<double>(ws), "B"},
  };
}

// ---- modes ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selfcheck = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selfcheck") {
      a.selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else {
      return false;
    }
  }
  return a.selfcheck || (!a.workload.empty() && a.seconds > 0);
}

std::string context_json(const Args& a, const std::string& transport) {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"ranks\": %d, "
                "\"nproc\": %u, \"git_sha\": \"%s\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"transport\": \"%s\", "
                "\"VF_TRANSPORT\": \"%s\"}",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                kRanks, std::thread::hardware_concurrency(), a.git_sha.c_str(),
                STEPBENCH_BUILD_TYPE, kCompiler, transport.c_str(),
                std::getenv("VF_TRANSPORT") ? std::getenv("VF_TRANSPORT")
                                            : "(unset)");
  return buf;
}

int bench(const Args& a) {
  const Def d = make_def(a.workload, a.seed);
  if (d.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  bool ok = true;
  long attempted = 1;
  std::string why;
  std::vector<Metric> ms;
  RunOut r;
  try {
    const double ep_ref = d.name == "amr_churn" ? 0.0 : episode_reference(d);
    if (std::isnan(ep_ref)) {
      ok = false;
      why = "adi_remap and adi_gather reference checksums differ";
    }
    r = run(d, a.seconds, a.trace, a.trace ? 1 : kSetupReps);
    attempted = std::max(1L, r.timed_steps + (a.trace ? d.trace_steps : 0));
    const double want = reference(d, r.ranks[0].steps_total, ep_ref);
    for (const RankOut& o : r.ranks) {
      if (!same_bits(o.checksum, want)) {
        ok = false;
        why = "checksum mismatch";
      }
    }
    if (r.fence_trips != 0) {
      ok = false;
      why = "abort fence tripped";
    }
    std::printf("checksum %.17g reference %.17g (%ld steps in total)\n",
                r.ranks[0].checksum, want, r.ranks[0].steps_total);
  } catch (const std::exception& e) {
    ok = false;
    why = e.what();
  }
  std::printf("context %s\n", context_json(a, r.transport).c_str());
  if (!why.empty()) std::printf("FAILED: %s\n", why.c_str());
  if (!r.ranks.empty() && r.log.n > 0) {
    std::printf("untraced loop: %ld steps in %.3f s (%zu windows), %zu step "
                "samples on rank 0 after %d warm-up steps; host steal %.1f%% "
                "of CPU time\n",
                r.timed_steps, static_cast<double>(r.loop_ns) / 1e9,
                r.window_rate.size(), r.log.n, d.warmup, 100 * r.steal_frac);
    if (!a.trace) {
      std::vector<double> su = r.setup_s;
      std::sort(su.begin(), su.end());
      std::printf("set-up: %zu times, min %.6f s, median %.6f s, max %.6f s\n",
                  su.size(), su.front(), median(su), su.back());
      ms = end_to_end(r);
    } else {
      ms = per_layer(d, r, quantile(r.log.us(), 0.5) * 1e3);
      const auto get = [&](const std::string& n) {
        for (const Metric& m : ms) {
          if (m.name == n) return m.value;
        }
        return 0.0;
      };
      std::printf(
          "paper columns (per step): modeled alpha+beta %.1f us | measured "
          "calls x ns_p50: rt.distribute %.1f us, rt.exchange_overlap %.1f "
          "us, parti.* %.1f us\n",
          get("msg.modeled_us_per_step"),
          get("rt.distribute.calls") * get("rt.distribute.ns_p50") /
              d.trace_steps / 1e3,
          get("rt.exchange_overlap.calls") *
              get("rt.exchange_overlap.ns_p50") / d.trace_steps / 1e3,
          (get("parti.gather.calls") * get("parti.gather.ns_p50") +
           get("parti.scatter.calls") * get("parti.scatter.ns_p50")) /
              d.trace_steps / 1e3);
      const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
      const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
      std::printf("working set %.3f MiB (L2 %.0f MiB per core, L3 %.0f MiB)\n",
                  get("work.ws_bytes") / 1048576.0, l2 / 1048576.0,
                  l3 / 1048576.0);
      if (!a.trace_out.empty()) {
        if (write_chrome_trace(a.trace_out, r.tracers, r.epoch_ns,
                               context_json(a, r.transport))) {
          std::printf("trace written to %s\n", a.trace_out.c_str());
        }
      }
    }
    print_metrics(ms);
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              ok ? "true" : "false", attempted, ok ? 0L : attempted,
              json_metrics(ms).c_str());
  return 0;
}

/// Tiny-size proof that every driver loop reproduces its apps::run_*
/// checksum bitwise.
int selfcheck() {
  int failures = 0;
  const auto loop_checksum = [](const Def& d, long steps) {
    double cs = 0.0;
    Def dd = d;
    dd.warmup = static_cast<int>(steps);
    std::vector<Tracer> tr(kRanks);
    vf::msg::Machine m(kRanks);
    m.set_recv_watchdog(kWatchdog);
    vf::msg::run_spmd(m, [&](vf::msg::Context& ctx) {
      Tracer& t = tr[static_cast<std::size_t>(ctx.rank())];
      t.bind(ctx);
      std::int64_t insp = 0;
      auto wl = make_loop(dd, ctx, t, insp);
      long k = 0;
      run_steps(dd, *wl, k, [&] { return k < dd.warmup; },
                [](long, auto&& step) { step(); });
      const double c = wl->checksum();
      if (ctx.rank() == 0) cs = c;
    });
    return cs;
  };
  const auto report = [&](const char* what, double got, double want) {
    const bool ok = same_bits(got, want);
    failures += ok ? 0 : 1;
    std::printf("%s %-44s loop %.17g run_* %.17g\n", ok ? "PASS" : "FAIL",
                what, got, want);
  };

  Def adi = make_def("adi_remap", 1);
  adi.adi = {.nx = 24, .ny = 24, .iterations = 2};
  adi.episode = 2;
  for (const char* name : {"adi_remap", "adi_gather"}) {
    adi.name = name;
    const auto strat = adi.name == "adi_remap"
                           ? vf::apps::AdiStrategy::DynamicRedistribution
                           : vf::apps::AdiStrategy::StaticGatherLines;
    double want = 0.0;
    vf::msg::Machine m(kRanks);
    vf::msg::run_spmd(m, [&](vf::msg::Context& ctx) {
      const double c = vf::apps::run_adi(ctx, adi.adi, strat).checksum;
      if (ctx.rank() == 0) want = c;
    });
    report((adi.name + " vs run_adi (3 episodes)").c_str(),
           loop_checksum(adi, 6), want);
  }

  Def sm = make_def("smooth9", 1);
  sm.grid_n = 16;
  sm.episode = 6;
  report("smooth9 vs run_smoothing (2 episodes)", loop_checksum(sm, 12),
         episode_reference(sm));

  for (std::uint64_t seed : {1ULL, 7ULL}) {
    Def amr = make_def("amr_churn", seed);
    amr.soak.n = 16;
    amr.soak.sweep_every = 8;
    amr.soak.steps = 40;
    amr.episode = 8;
    double want = 0.0;
    vf::msg::Machine m(kRanks);
    vf::msg::run_spmd(m, [&](vf::msg::Context& ctx) {
      const double c = vf::apps::run_soak(ctx, amr.soak).checksum;
      if (ctx.rank() == 0) want = c;
    });
    const double got = loop_checksum(amr, amr.soak.steps);
    report("amr_churn vs run_soak (40 steps)", got, want);
    report("amr_churn vs soak_reference (40 steps)", got,
           reference(amr, amr.soak.steps, 0.0));
  }
  std::printf("%s\n", failures ? "selfcheck FAILED" : "selfcheck passed");
  return failures ? 1 : 0;
}

}  // namespace
}  // namespace stepbench

int main(int argc, char** argv) {
  stepbench::Args a;
  if (!stepbench::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] [--git-sha <sha>]\n"
                 "       %s --selfcheck\n",
                 argv[0], argv[0]);
    return 2;
  }
  return a.selfcheck ? stepbench::selfcheck() : stepbench::bench(a);
}
