// Seeded fault-injection fuzz: the acceptance gate of the containment
// layer.  For every fault class (drop, delay, duplicate, truncate,
// bit-flip) injected at a seeded point of a real workload run -- 9-point
// smoothing, the AMR refinement front, a redistribution loop -- at
// P in {4, 9}, the machine must NOT hang: the fault surfaces in-process
// as a structured RankAbort naming an origin rank on every rank that
// failed, and the machine is reusable afterwards.  No test here relies on
// the ctest timeout.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "spmd_test_util.hpp"
#include "vf/apps/amr_front.hpp"
#include "vf/apps/smoothing_sim.hpp"
#include "vf/msg/spmd.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf {
namespace {

using dist::block;
using dist::cyclic;
using dist::DistributionType;
using dist::IndexDomain;
using msg::Context;
using msg::FaultKind;
using msg::FaultPlan;
using msg::Machine;
using msg::RankAbort;

// Workloads are kept tiny: the point is communication structure, not
// compute, and Drop/Delay runs pay a full watchdog period each.
constexpr auto kWatchdog = std::chrono::milliseconds(2000);

void smoothing_body(Context& ctx) {
  (void)apps::run_smoothing(
      ctx,
      {.n = 32, .steps = 3, .stencil = apps::SmoothStencil::NinePoint},
      apps::SmoothLayout::Grid2D);
}

void smoothing_split_body(Context& ctx) {
  (void)apps::run_smoothing(
      ctx,
      {.n = 32, .steps = 3, .stencil = apps::SmoothStencil::NinePoint,
       .split_phase = true},
      apps::SmoothLayout::Grid2D);
}

void amr_front_body(Context& ctx) {
  (void)apps::run_amr_front(ctx, {.n = 24, .steps = 3});
}

void redistribute_body(Context& ctx) {
  rt::Env env(ctx);
  rt::DistArray<double> a(env,
                          {.name = "R",
                           .domain = IndexDomain::of_extents({64}),
                           .dynamic = true,
                           .initial = DistributionType{block()}});
  a.init([](const dist::IndexVec& i) { return 1.5 * i[0]; });
  for (int k = 0; k < 3; ++k) {
    a.distribute(DistributionType{cyclic(1)});
    a.distribute(DistributionType{block()});
  }
}

struct Workload {
  const char* name;
  void (*body)(Context&);
};

constexpr Workload kWorkloads[] = {
    {"smoothing", smoothing_body},
    {"amr_front", amr_front_body},
    {"redistribute", redistribute_body},
};

constexpr FaultKind kKinds[] = {FaultKind::Drop, FaultKind::Delay,
                                FaultKind::Duplicate, FaultKind::Truncate,
                                FaultKind::BitFlip};

/// One seeded one-shot injection: runs the workload once fault-free to
/// count deliveries, picks a seeded injection point, and asserts the
/// faulted run aborts in-process with a coherent per-rank report.
void fuzz_one(const Workload& w, int nprocs, FaultKind kind,
              std::uint64_t seed) {
  SCOPED_TRACE(std::string(w.name) + " P=" + std::to_string(nprocs) +
               " fault=" + msg::to_string(kind) +
               " seed=" + std::to_string(seed));
  Machine m(nprocs);
  m.set_recv_watchdog(kWatchdog);

  m.set_fault_plan({});  // baseline: count the deliveries of a clean run
  msg::run_spmd(m, w.body);
  const std::uint64_t deliveries = m.deliveries();
  ASSERT_GT(deliveries, 0u);

  const std::uint64_t nth = msg::mix64(seed) % deliveries;
  m.set_fault_plan({.kind = kind, .nth = nth, .seed = seed});
  try {
    msg::run_spmd(m, w.body);
    FAIL() << "injected fault did not surface (nth=" << nth << ")";
  } catch (const RankAbort& e) {
    EXPECT_GE(e.origin_rank, 0);
    EXPECT_LT(e.origin_rank, nprocs);
  } catch (const std::exception& e) {
    FAIL() << "fault surfaced as unstructured error: " << e.what();
  }
  EXPECT_EQ(m.faults_injected(), 1u) << "nth=" << nth;

  const msg::FailureReport rep = m.last_failure_report();
  EXPECT_TRUE(rep.any_failed);
  EXPECT_GE(rep.origin_rank, 0);
  EXPECT_LT(rep.origin_rank, nprocs);
  for (const msg::RankFailure& f : rep.ranks) {
    if (f.failed && f.abort_origin >= 0) {
      EXPECT_LT(f.abort_origin, nprocs) << "rank " << f.rank;
    }
  }

  // The machine must be reusable: a clean run on the same machine.
  m.set_fault_plan({});
  msg::run_spmd(m, w.body);
  EXPECT_FALSE(m.last_failure_report().any_failed);
}

TEST(FaultFuzz, SmoothingP4) {
  for (const FaultKind k : kKinds) fuzz_one(kWorkloads[0], 4, k, 0xA0 + static_cast<std::uint64_t>(k));
}

TEST(FaultFuzz, SmoothingP9) {
  for (const FaultKind k : kKinds) fuzz_one(kWorkloads[0], 9, k, 0xB0 + static_cast<std::uint64_t>(k));
}

TEST(FaultFuzz, AmrFrontP4) {
  for (const FaultKind k : kKinds) fuzz_one(kWorkloads[1], 4, k, 0xC0 + static_cast<std::uint64_t>(k));
}

TEST(FaultFuzz, AmrFrontP9) {
  for (const FaultKind k : kKinds) fuzz_one(kWorkloads[1], 9, k, 0xD0 + static_cast<std::uint64_t>(k));
}

TEST(FaultFuzz, RedistributeP4) {
  for (const FaultKind k : kKinds) fuzz_one(kWorkloads[2], 4, k, 0xE0 + static_cast<std::uint64_t>(k));
}

TEST(FaultFuzz, RedistributeP9) {
  for (const FaultKind k : kKinds) fuzz_one(kWorkloads[2], 9, k, 0xF0 + static_cast<std::uint64_t>(k));
}

// The split-phase smoothing body keeps an exchange in flight around the
// interior update, so aborts land mid-exchange by design: an injected
// fault must wake ranks blocked inside the split-phase window through the
// fence, never hang them.
TEST(FaultFuzz, SplitSmoothingP4) {
  const Workload w{"smoothing-split", smoothing_split_body};
  for (const FaultKind k : kKinds) {
    fuzz_one(w, 4, k, 0x1A0 + static_cast<std::uint64_t>(k));
  }
}

/// Rate-mode chaos: corrupt ~1% of frames of a smoothing run.  Whatever
/// the interleaving, the outcome is binary and coherent: either no frame
/// was hit and the run completes, or at least one was and the run aborts
/// with a structured RankAbort -- never a hang, never an unstructured
/// error.
TEST(FaultFuzz, RateModeChaosNeverHangs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Machine m(4);
    m.set_recv_watchdog(kWatchdog);
    m.set_fault_plan(
        {.kind = FaultKind::BitFlip, .rate = 0.01, .seed = seed});
    bool aborted = false;
    try {
      msg::run_spmd(m, smoothing_body);
    } catch (const RankAbort&) {
      aborted = true;
    }
    if (m.faults_injected() > 0) {
      EXPECT_TRUE(aborted) << m.faults_injected() << " faults injected";
      EXPECT_TRUE(m.last_failure_report().any_failed);
    } else {
      EXPECT_FALSE(aborted);
    }
  }
}

// ---- targeted per-kind detection (deterministic, P = 2) -------------------

TEST(FaultDetect, DuplicateIsDetectedAsSeqReplay) {
  Machine m(2);
  m.set_fault_plan({.kind = FaultKind::Duplicate, .nth = 0});
  try {
    msg::run_spmd(m, [](Context& ctx) {
      if (ctx.rank() == 0) ctx.send_value<int>(1, 3, 42);
      if (ctx.rank() == 1) (void)ctx.recv_value<int>(0, 3);
    });
    FAIL() << "expected RankAbort";
  } catch (const RankAbort& e) {
    EXPECT_NE(e.reason.find("replayed"), std::string::npos) << e.reason;
  }
}

TEST(FaultDetect, DropIsDetectedAsSeqGapAtNextFrame) {
  // The dropped frame's link carries a later frame, so the gap surfaces
  // at push time on the sender's thread -- no watchdog needed.
  Machine m(2);
  m.set_fault_plan({.kind = FaultKind::Drop, .nth = 0});
  try {
    msg::run_spmd(m, [](Context& ctx) {
      if (ctx.rank() == 0) {
        ctx.send_value<int>(1, 3, 1);
        ctx.send_value<int>(1, 3, 2);
      }
    });
    FAIL() << "expected RankAbort";
  } catch (const RankAbort& e) {
    EXPECT_EQ(e.origin_rank, 0);
    EXPECT_NE(e.reason.find("lost or delayed"), std::string::npos)
        << e.reason;
  }
}

TEST(FaultDetect, DroppedFinalFrameFallsToWatchdog) {
  Machine m(2);
  m.set_recv_watchdog(std::chrono::milliseconds(300));
  m.set_fault_plan({.kind = FaultKind::Drop, .nth = 0});
  try {
    msg::run_spmd(m, [](Context& ctx) {
      if (ctx.rank() == 0) ctx.send_value<int>(1, 3, 42);
      if (ctx.rank() == 1) (void)ctx.recv_value<int>(0, 3);
    });
    FAIL() << "expected RankAbort";
  } catch (const RankAbort& e) {
    EXPECT_EQ(e.origin_rank, 1);
    EXPECT_NE(e.reason.find("recv watchdog expired"), std::string::npos)
        << e.reason;
  }
}

TEST(FaultDetect, DelayedFrameIsReportedAsParked) {
  Machine m(2);
  m.set_recv_watchdog(std::chrono::milliseconds(300));
  m.set_fault_plan({.kind = FaultKind::Delay, .nth = 0});
  try {
    msg::run_spmd(m, [](Context& ctx) {
      if (ctx.rank() == 0) ctx.send_value<int>(1, 3, 42);
      if (ctx.rank() == 1) (void)ctx.recv_value<int>(0, 3);
    });
    FAIL() << "expected RankAbort";
  } catch (const RankAbort& e) {
    EXPECT_NE(e.reason.find("parked in flight"), std::string::npos)
        << e.reason;
  }
}

TEST(FaultDetect, TruncateAndBitFlipFailTheChecksum) {
  for (const FaultKind k : {FaultKind::Truncate, FaultKind::BitFlip}) {
    SCOPED_TRACE(msg::to_string(k));
    Machine m(2);
    m.set_fault_plan({.kind = k, .nth = 0});
    try {
      msg::run_spmd(m, [](Context& ctx) {
        if (ctx.rank() == 0) {
          const std::vector<double> v(16, 2.5);
          ctx.send<double>(1, 3, v);
        }
        if (ctx.rank() == 1) (void)ctx.recv<double>(0, 3);
      });
      FAIL() << "expected RankAbort";
    } catch (const RankAbort& e) {
      EXPECT_EQ(e.origin_rank, 1);  // the receiver detects corruption
      EXPECT_NE(e.reason.find("checksum mismatch"), std::string::npos)
          << e.reason;
    }
  }
}

}  // namespace
}  // namespace vf
