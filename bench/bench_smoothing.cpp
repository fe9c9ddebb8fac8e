// E1 -- the Section 4 grid-smoothing claim:
//
//   "A column distribution of the N x N grid will give rise to 2 messages
//    per processor, each of size N, per computation step.  On the other
//    hand, if the grid is distributed by blocks in two dimensions across a
//    p^2 processor array, then each computation step requires 4 messages
//    of size N/p each on each processor.  Thus, given the startup overhead
//    and cost per byte of each message of the target machine, the ratio
//    N/p will determine the most appropriate distribution."
//
// Counters reported per (layout, N, P):
//   msgs_per_rank_step  -- observed data messages per interior rank per step
//   elems_per_msg       -- observed elements per message
//   modeled_us_step     -- observed modeled per-step communication time
//   analytic_us_step    -- the paper's closed-form prediction
// The winner flip as N (and P) change is the crossover the paper argues
// from alpha/beta.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <vector>

#include "vf/apps/smoothing_sim.hpp"
#include "vf/msg/spmd.hpp"

namespace {

using namespace vf;  // NOLINT(google-build-using-namespace)

void BM_Smoothing(benchmark::State& state) {
  const auto layout = state.range(0) == 0 ? apps::SmoothLayout::Columns
                                          : apps::SmoothLayout::Grid2D;
  const auto n = static_cast<dist::Index>(state.range(1));
  const int nprocs = static_cast<int>(state.range(2));
  const auto stencil = state.range(3) == 0 ? apps::SmoothStencil::FivePoint
                                           : apps::SmoothStencil::NinePoint;
  const bool split = state.range(4) != 0;
  const int steps = 4;
  const msg::CostModel cm{};

  state.SetLabel(std::string(apps::to_string(layout)) + "/" +
                 apps::to_string(stencil) + (split ? "/split" : "/blocking"));

  msg::CommStats stats;
  double checksum = 0.0;
  std::uint64_t halo_hits = 0;
  std::uint64_t halo_misses = 0;
  // Wall time of the smoothing run alone (machine spawn excluded), median
  // over iterations: the overlapped-vs-blocking comparison CI gates on a
  // multicore runner reads ns_per_step of the split rows against the
  // blocking rows at the same (N, P).
  std::vector<double> run_seconds;
  for (auto _ : state) {
    msg::Machine machine(nprocs, cm);
    std::atomic<double> secs{0.0};
    msg::run_spmd(machine, [&](msg::Context& ctx) {
      ctx.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      auto r = apps::run_smoothing(
          ctx,
          {.n = n, .steps = steps, .stencil = stencil, .split_phase = split},
          layout);
      ctx.barrier();
      if (ctx.rank() == 0) {
        secs.store(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
        checksum = r.checksum;
        halo_hits = r.halo_plan_hits;
        halo_misses = r.halo_plan_misses;
      }
    });
    run_seconds.push_back(secs.load());
    stats = machine.total_stats();
  }
  benchmark::DoNotOptimize(checksum);
  std::sort(run_seconds.begin(), run_seconds.end());
  state.counters["ns_per_step"] =
      run_seconds[run_seconds.size() / 2] * 1e9 / steps;
  state.counters["split_phase"] = split ? 1 : 0;

  // Halo-plan cache traffic (machine-wide): the run-based plans are built
  // once per (rank, distribution, spec) and shared by the ping-pong pair,
  // so hits/(hits+misses) approaches 1 as steps grow.
  state.counters["halo_plan_hits"] = static_cast<double>(halo_hits);
  state.counters["halo_plan_misses"] = static_cast<double>(halo_misses);
  state.counters["halo_plan_hit_rate"] =
      halo_hits + halo_misses == 0
          ? 0.0
          : static_cast<double>(halo_hits) /
                static_cast<double>(halo_hits + halo_misses);

  // Interior ranks exchange on both sides in every ghosted dimension.
  const double interior =
      layout == apps::SmoothLayout::Columns
          ? std::max(1, nprocs - 2)
          : nprocs;  // close enough for the per-rank average on grids
  (void)interior;
  state.counters["msgs_per_rank_step"] =
      static_cast<double>(stats.data_messages) / (nprocs * steps);
  state.counters["elems_per_msg"] =
      stats.data_messages == 0
          ? 0.0
          : static_cast<double>(stats.data_bytes) / sizeof(double) /
                static_cast<double>(stats.data_messages);
  state.counters["modeled_us_step"] =
      stats.modeled_data_us(cm) / (nprocs * steps);
  state.counters["analytic_us_step"] =
      apps::modeled_step_cost_us(layout, n, nprocs, cm, sizeof(double));
}

}  // namespace

BENCHMARK(BM_Smoothing)
    ->ArgNames({"layout", "N", "P", "stencil", "split"})
    ->ArgsProduct({{0, 1}, {64, 128, 256, 512}, {4, 16}, {0, 1}, {0}})
    // Overlap methodology rows (see bench/README.md): split-phase vs
    // blocking on the 2-D grid at P >= 16 (the blocking 9-point rows at
    // P=16 are in the grid above).  On a single-core host the split rows
    // measure bookkeeping overhead only; the >= 1.2x overlap gate applies
    // on multicore CI runners where the boundary exchange and the
    // interior update genuinely run in parallel.
    ->ArgsProduct({{1}, {256, 512}, {16}, {1}, {1}})
    // Scale rows for the CI bench job (P = 64).
    ->ArgsProduct({{1}, {256}, {64}, {1}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);
