// Counted exchanges over the mailbox fabric: failure containment inside
// the split-phase window (RankAbort mid-exchange, pre-agreed count
// mismatch, machine reuse after an abort) and the allocation-free
// collective scratch the exchanges feed.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "spmd_test_util.hpp"
#include "vf/msg/exchange_scratch.hpp"
#include "vf/msg/spmd.hpp"

namespace vf {
namespace {

using msg::Context;
using msg::ExchangeLane;
using msg::ExchangeScratch;
using msg::Machine;
using msg::RankAbort;
using testing::run_checked_on;
using testing::SpmdChecker;

/// A ring alltoallv_known_into round on an existing machine; returns
/// nothing but checks every received value.
void ring_exchange_round(Context& ctx, SpmdChecker& ck, int round) {
  const int np = ctx.nprocs();
  ExchangeScratch arena;
  ExchangeLane& lane = arena.lane(sizeof(double));
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(np), 2);
  lane.prepare(counts, counts);
  for (int d = 0; d < np; ++d) {
    lane.send<double>(d)[0] = ctx.rank() * 100.0 + d + round;
    lane.send<double>(d)[1] = 0.5 * ctx.rank();
  }
  ctx.alltoallv_known_into(lane);
  for (int s = 0; s < np; ++s) {
    ck.check_eq(lane.recv<double>(s)[0], s * 100.0 + ctx.rank() + round,
                ctx.rank(), "ring value");
    ck.check_eq(lane.recv<double>(s)[1], 0.5 * s, ctx.rank(), "ring value 2");
  }
}

// ---- failure containment inside the split-phase window ------------------

/// One rank dies between begin and end of a split-phase exchange.  Its
/// payloads already left at begin, so its peers complete that exchange
/// and then block in the next one, waiting for a payload that never
/// comes.  The fence must wake every peer with a RankAbort -- not a hang
/// -- and run_spmd rethrows the origin's original error.
TEST(TransportAbort, RankDeathMidExchangeWakesBlockedPeers) {
  Machine m(4);
  m.set_recv_watchdog(std::chrono::milliseconds(2000));
  try {
    msg::run_spmd(m, [](Context& ctx) {
      ExchangeScratch arena;
      ExchangeLane& lane = arena.lane(sizeof(double));
      const std::vector<std::uint64_t> counts(4, 1);
      lane.prepare(counts, counts);
      for (int d = 0; d < 4; ++d) lane.send<double>(d)[0] = 1.0 * ctx.rank();
      const int tag = ctx.begin_exchange(lane);
      if (ctx.rank() == 2) {
        throw std::runtime_error("rank 2 dies mid-exchange");
      }
      ctx.end_exchange(lane, tag);
      ctx.alltoallv_known_into(lane);  // peers block on rank 2's payload
    });
    FAIL() << "expected the origin's runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 dies mid-exchange");
  }
  const msg::FailureReport rep = m.last_failure_report();
  EXPECT_TRUE(rep.any_failed);
  EXPECT_EQ(rep.origin_rank, 2);
  for (const msg::RankFailure& f : rep.ranks) {
    EXPECT_TRUE(f.failed) << "rank " << f.rank;
    if (f.rank != 2) {
      EXPECT_EQ(f.abort_origin, 2) << "rank " << f.rank;
    }
  }
  // reset_failure_state drops the orphaned frames: the machine is fully
  // reusable for a clean run.
  run_checked_on(m, [](Context& ctx, SpmdChecker& ck) {
    ring_exchange_round(ctx, ck, 3);
  });
  EXPECT_FALSE(m.last_failure_report().any_failed);
}

/// Disagreeing pre-agreed counts (sender sends 2 elements, receiver
/// expects 3) surface as a structured RankAbort naming the source rank,
/// the tag and both byte counts, instead of reading past a buffer.
TEST(TransportAbort, PreAgreedCountMismatchAborts) {
  Machine m(2);
  m.set_recv_watchdog(std::chrono::milliseconds(2000));
  try {
    msg::run_spmd(m, [](Context& ctx) {
      ExchangeScratch arena;
      ExchangeLane& lane = arena.lane(sizeof(double));
      if (ctx.rank() == 0) {
        // Sends 2 to rank 1, expects 1 back.
        lane.prepare(std::vector<std::uint64_t>{0, 2},
                     std::vector<std::uint64_t>{0, 1});
      } else {
        // Sends 1 to rank 0, expects 3 -- but rank 0 sent 2.
        lane.prepare(std::vector<std::uint64_t>{1, 0},
                     std::vector<std::uint64_t>{3, 0});
      }
      ctx.end_exchange(lane, ctx.begin_exchange(lane));
    });
    FAIL() << "expected RankAbort";
  } catch (const RankAbort& e) {
    // Unarmed, end_exchange's receive loop detects the disagreement on
    // the receiver ("pre-agreed counts disagree"); with the lockstep
    // checker armed (the VF_LOCKSTEP=1 CI leg) the same divergence is
    // caught one layer earlier, at op entry, by whichever rank records
    // second ("pre-agreed counts diverged").
    if (e.reason.find("lockstep mismatch") != std::string::npos) {
      EXPECT_NE(e.reason.find("pre-agreed counts diverged"),
                std::string::npos)
          << e.reason;
      EXPECT_TRUE(e.origin_rank == 0 || e.origin_rank == 1) << e.origin_rank;
    } else {
      EXPECT_EQ(e.origin_rank, 1);  // the receiver detects the mismatch
      EXPECT_NE(e.reason.find("pre-agreed counts disagree"),
                std::string::npos)
          << e.reason;
      EXPECT_NE(e.reason.find("from rank 0 (tag -"), std::string::npos)
          << e.reason;
      EXPECT_NE(e.reason.find("is 16 bytes, expected 24"), std::string::npos)
          << e.reason;
    }
  }
  EXPECT_TRUE(m.last_failure_report().any_failed);
}

// ---- allocation-free collectives ------------------------------------------

/// Warm allreduce / allreduce_vec replays draw their fan-in buffers from
/// the context's persistent collective scratch: after one warmup round
/// the grow_allocs counter must stay flat on every rank (this is the
/// allocs_per_exchange == 0 gate CI enforces on the bench side).
TEST(CollectiveScratch, WarmAllreduceReplaysAllocationFree) {
  testing::run_checked(4, [](Context& ctx, SpmdChecker& ck) {
    std::vector<double> v(32);
    for (std::size_t k = 0; k < v.size(); ++k) {
      v[k] = 0.25 * static_cast<double>(k) + ctx.rank();
    }
    // Warmup: both the scalar and the vector shape.
    (void)ctx.allreduce(1 + ctx.rank(), msg::ReduceOp::Sum);
    std::vector<double> w = ctx.allreduce_vec(v, msg::ReduceOp::Max);
    ctx.reset_collective_scratch_stats();

    for (int round = 0; round < 10; ++round) {
      const int s = ctx.allreduce(1 + ctx.rank(), msg::ReduceOp::Sum);
      ck.check_eq(s, 10, ctx.rank(), "scalar allreduce value");
      w = ctx.allreduce_vec(std::move(w), msg::ReduceOp::Max);
      for (std::size_t k = 0; k < w.size(); ++k) {
        ck.check_eq(w[k], 0.25 * static_cast<double>(k) + 3, ctx.rank(),
                    "vector allreduce value");
      }
    }
    ck.check_eq(ctx.collective_scratch_stats().grow_allocs, std::uint64_t{0},
                ctx.rank(), "warm collective replays allocate nothing");
  });
}

}  // namespace
}  // namespace vf
