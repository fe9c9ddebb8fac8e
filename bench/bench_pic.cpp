// E3 -- the Figure 2 PIC claim: "the motion of particles during the
// simulation may lead to a severe load imbalance [under a static block
// distribution] ... a new BOUNDS array is computed and the cells
// redistributed to balance the workload" (B_BLOCK rebalancing every 10th
// iteration).
//
// Rows: rebalance period 0 (static BLOCK), 10 (Figure 2), 1 (every step --
// the over-eager ablation).
// Counters:
//   mean_imbalance / max_imbalance -- per-step max/mean particle load
//   makespan_units                 -- modeled computation makespan
//   rebalances, redist_kb          -- cost side of the tradeoff
// Expected shape: period 10 cuts imbalance and makespan substantially over
// static; period 1 buys little extra balance for much more redistribution
// traffic.
// BM_PicRedistReplay isolates the DISTRIBUTE replay of that rebalancing
// loop: alternating B_BLOCK flips over a FIELD-shaped array, with the
// plan cache cold vs cached, reporting ns_per_flip and the steady-state
// allocs_per_replay_redist counter CI gates at zero.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <vector>

#include "vf/apps/pic_sim.hpp"
#include "vf/msg/spmd.hpp"
#include "vf/rt/dist_array.hpp"

namespace {

using namespace vf;  // NOLINT(google-build-using-namespace)
using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;

void BM_Pic(benchmark::State& state) {
  const int period = static_cast<int>(state.range(0));
  constexpr int kProcs = 4;
  apps::PicConfig cfg;
  cfg.ncell = 200;
  cfg.npart_max = 1200;
  cfg.particles = 10000;
  cfg.steps = 50;
  cfg.rebalance_period = period;
  const msg::CostModel cm{};

  apps::PicResult result;
  msg::CommStats stats;
  for (auto _ : state) {
    msg::Machine machine(kProcs, cm);
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      auto r = apps::run_pic(ctx, cfg);
      if (ctx.rank() == 0) result = std::move(r);
    });
    stats = machine.total_stats();
  }

  state.SetLabel(period == 0 ? "static-block"
                             : "rebalance-every-" + std::to_string(period));
  state.counters["mean_imbalance"] = result.mean_imbalance;
  state.counters["max_imbalance"] = result.max_imbalance;
  state.counters["makespan_units"] = result.makespan_units;
  state.counters["rebalances"] = result.rebalances;
  state.counters["data_kb"] = static_cast<double>(stats.data_bytes) / 1024.0;
  state.counters["modeled_comm_ms"] = stats.modeled_data_us(cm) / 1000.0;
  state.counters["dropped"] = static_cast<double>(result.dropped);
  state.counters["redist_scratch_prepares"] =
      static_cast<double>(result.redist_scratch_prepares);
  state.counters["redist_scratch_allocs"] =
      static_cast<double>(result.redist_scratch_allocs);
}

/// The Figure-2 rebalance flip in isolation: a FIELD-shaped array
/// alternating between two B_BLOCK partitions (the balanced and the
/// drifted bounds).  After one warmup flip in each direction, the cached
/// configuration replays plans through the persistent exchange scratch --
/// allocs_per_replay_redist must be exactly zero (CI-gated); the cold
/// configuration rebuilds the plan inside every flip.
void BM_PicRedistReplay(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  constexpr int kProcs = 4;
  constexpr int kFlips = 24;
  constexpr Index kNCell = 256;
  constexpr Index kNPart = 64;
  const msg::CostModel cm{};
  state.SetLabel(cached ? "pic_flip/cached" : "pic_flip/cold");

  std::vector<double> iter_seconds;
  std::atomic<std::uint64_t> grow{0}, prepares{0}, plan_hits{0};
  for (auto _ : state) {
    grow = prepares = plan_hits = 0;
    msg::Machine machine(kProcs, cm);
    std::atomic<double> secs{0.0};
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      rt::Env env(ctx);
      rt::DistArray<double> field(
          env, {.name = "FIELD",
                .domain = IndexDomain({dist::Range{1, kNCell},
                                       dist::Range{1, kNPart}}),
                .dynamic = true,
                .initial = {{dist::block(), dist::col()}}});
      field.init([](const IndexVec& i) {
        return static_cast<double>(i[0] * 100 + i[1]);
      });
      field.set_redist_plan_cache(cached);
      // The balanced vs drifted partitions of a 4-rank rebalance.
      const dist::DistributionType balanced{
          dist::b_block({64, 128, 192, kNCell}), dist::col()};
      const dist::DistributionType drifted{
          dist::b_block({32, 72, 128, kNCell}), dist::col()};
      // Warmup covers every transition the timed loop replays: plans for
      // (drifted -> balanced) and (balanced -> drifted) plus the scratch
      // envelope of both directions.
      field.distribute(drifted);
      field.distribute(balanced);
      field.distribute(drifted);
      field.reset_exchange_scratch_stats();
      ctx.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      ctx.barrier();
      for (int f = 0; f < kFlips; ++f) {
        field.distribute(f % 2 ? drifted : balanced);
      }
      ctx.barrier();
      if (ctx.rank() == 0) {
        secs.store(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
      }
      grow.fetch_add(field.exchange_scratch_stats().grow_allocs);
      prepares.fetch_add(field.exchange_scratch_stats().prepares);
      if (ctx.rank() == 0) plan_hits.store(field.redist_plan_hits());
    });
    iter_seconds.push_back(secs.load());
  }
  std::sort(iter_seconds.begin(), iter_seconds.end());
  const double median = iter_seconds[iter_seconds.size() / 2];
  state.counters["ns_per_flip"] = median * 1e9 / kFlips;
  state.counters["plan_cached"] = cached ? 1 : 0;
  state.counters["redist_plan_hits"] = static_cast<double>(plan_hits.load());
  state.counters["allocs_per_replay_redist"] =
      static_cast<double>(grow.load()) /
      (static_cast<double>(kFlips) * kProcs);
  state.counters["scratch_prepares"] = static_cast<double>(prepares.load());
}

}  // namespace

BENCHMARK(BM_Pic)
    ->ArgNames({"period"})
    ->Arg(0)
    ->Arg(10)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK(BM_PicRedistReplay)
    ->ArgNames({"cached"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(9);
