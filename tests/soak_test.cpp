// Lifecycle soak (apps/soak): the sweeping-front + jittered-DISTRIBUTE
// churn scenario must (a) compute exactly what the sequential reference
// computes -- reclamation and eviction never change values -- and
// (b) hold resident bytes on a plateau under budget pressure while the
// caches demonstrably evict and the registry demonstrably sweeps.
#include <gtest/gtest.h>

#include <vector>

#include "spmd_test_util.hpp"
#include "vf/apps/amr_front.hpp"
#include "vf/apps/soak.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::apps {
namespace {

using msg::Context;
using testing::run_checked;
using testing::run_checked_on;
using testing::SpmdChecker;

TEST(Soak, SplitSizesAreExactAndRespectTheFloor) {
  for (int step = 0; step < 200; ++step) {
    const std::vector<dist::Index> s =
        soak_split_sizes(/*n=*/32, /*q=*/2, /*min_seg=*/3, /*seed=*/7, step);
    ASSERT_EQ(s.size(), 2u);
    dist::Index total = 0;
    for (dist::Index w : s) {
      EXPECT_GE(w, 3);
      total += w;
    }
    EXPECT_EQ(total, 32);
  }
}

TEST(Soak, MatchesSequentialReferenceThroughSweeps) {
  SoakConfig cfg;
  cfg.n = 16;
  cfg.steps = 48;
  cfg.sweep_every = 8;
  cfg.sample_every = 16;
  cfg.redist_every = 1;
  const double want = amr_checksum(soak_reference(cfg));

  run_checked(4, [&](Context& ctx, SpmdChecker& ck) {
    const SoakResult res = run_soak(ctx, cfg);
    ck.check_eq(res.checksum, want, ctx.rank(),
                "soak checksum vs sequential reference");
    ck.check(res.sweeps == 6, ctx.rank(), "sweep cadence honored");
    ck.check(res.registry_swept > 0, ctx.rank(),
             "retired descriptors were reclaimed");
  });
}

TEST(Soak, ResidencyPlateausUnderBudgetPressure) {
  SoakConfig cfg;
  cfg.n = 16;
  cfg.steps = 10000;
  cfg.sweep_every = 64;
  cfg.sample_every = 250;
  cfg.redist_every = 1;
  cfg.halo_budget_bytes = std::size_t{64} << 10;
  cfg.plan_budget_bytes = std::size_t{256} << 10;

  run_checked(4, [&](Context& ctx, SpmdChecker& ck) {
    const SoakResult res = run_soak(ctx, cfg);
    // The plateau: the later half of the run must not keep growing.  A
    // leak of even one entry per redistribution would dwarf these bounds
    // (each plan/descriptor is hundreds of bytes, 10^4 steps).
    std::uint64_t first_half_peak = 0;
    std::uint64_t second_half_peak = 0;
    for (std::size_t k = 0; k < res.samples.size(); ++k) {
      const std::uint64_t r =
          res.samples[k].registry_bytes + res.samples[k].cache_bytes;
      (k < res.samples.size() / 2 ? first_half_peak : second_half_peak) =
          std::max(k < res.samples.size() / 2 ? first_half_peak
                                              : second_half_peak,
                   r);
    }
    ck.check(second_half_peak <= first_half_peak + first_half_peak / 4,
             ctx.rank(), "resident bytes plateau (second-half peak within "
                         "25% of first-half peak)");
    ck.check(res.bytes_per_step_slope < 32.0, ctx.rank(),
             "second-half growth slope is flat");
    // The bound is doing work, not vacuously true:
    ck.check(res.halo_evictions + res.plan_evictions > 0, ctx.rank(),
             "budget pressure caused evictions");
    ck.check(res.registry_swept > 0, ctx.rank(), "sweeps reclaimed");
    ck.check(res.halo_plan_hits > 0, ctx.rank(),
             "the cache still serves hits under pressure");
  });
}

/// Per-rank byte budgets make evictions, and so sweeps and registry uids,
/// differ between ranks.  The notes the rt layer folds into lockstep
/// signatures must stay SPMD-uniform regardless, or an armed run reports
/// a divergence that is not there.
TEST(Soak, LockstepArmedUnderBudgetPressure) {
  SoakConfig cfg;
  cfg.n = 16;
  cfg.steps = 2000;
  cfg.sweep_every = 64;
  cfg.sample_every = 250;
  cfg.redist_every = 1;
  cfg.halo_budget_bytes = std::size_t{64} << 10;
  cfg.plan_budget_bytes = std::size_t{256} << 10;
  const double want = amr_checksum(soak_reference(cfg));

  msg::Machine m(4);
  m.set_lockstep_check(true);
  run_checked_on(m, [&](Context& ctx, SpmdChecker& ck) {
    const SoakResult res = run_soak(ctx, cfg);
    ck.check_eq(res.checksum, want, ctx.rank(),
                "soak checksum vs sequential reference");
    ck.check(res.registry_swept > 0, ctx.rank(), "sweeps reclaimed");
  });
  EXPECT_EQ(m.lockstep().mismatches(), 0u);
}

}  // namespace
}  // namespace vf::apps
