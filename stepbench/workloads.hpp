// The four step loops of the benchmark, written from the library's public
// calls so the driver can time every layer boundary from outside.  Each
// loop mirrors one apps::run_* body statement for statement (same
// declarations, same kernel arithmetic in the same order), so its
// checksum reproduces that function's bitwise:
//
//   AdiRemap   -- apps::run_adi, DynamicRedistribution (Figure 1)
//   AdiGather  -- apps::run_adi, StaticGatherLines
//   Smooth9    -- apps::run_smoothing, Grid2D + NinePoint, blocking
//   AmrChurn   -- apps::run_soak
//
// The driver runs a loop in episodes of a fixed step count, calling
// begin_episode() before each.  The ADI iterate after iteration `it`
// depends only on `it` (the RHS overwrites V), and the smoothing loop
// re-initialises its grid at every episode start, so the state at an
// episode boundary equals that of a fresh apps::run_* of one episode.  The soak never restarts: its reference is the sequential
// apps::soak_reference over the total step count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "vf/apps/adi_sim.hpp"
#include "vf/apps/amr_front.hpp"
#include "vf/apps/kernels.hpp"
#include "vf/apps/smoothing_sim.hpp"
#include "vf/apps/soak.hpp"
#include "vf/parti/schedule.hpp"
#include "vf/rt/dist_array.hpp"
#include "vf/rt/env.hpp"

namespace stepbench {

using vf::dist::Index;
using vf::dist::IndexDomain;
using vf::dist::IndexVec;

/// Per-rank counter snapshot; the driver differences two of them around
/// the traced loop.
struct Counters {
  vf::msg::CommStats comm;
  std::uint64_t redist_hits = 0, redist_misses = 0, redist_evictions = 0;
  std::uint64_t exch_allocs = 0;   ///< array exchange-scratch grow_allocs
  std::uint64_t parti_allocs = 0;  ///< schedule exchange-scratch grow_allocs
  std::uint64_t reg_hits = 0, reg_misses = 0, reg_swept = 0;
  std::uint64_t halo_hits = 0, halo_misses = 0, halo_evictions = 0;
  std::uint64_t spec_exchanges = 0;
};

class Loop {
 public:
  virtual ~Loop() = default;
  /// Called before the first step of every episode.
  virtual void begin_episode() {}
  virtual void step(long k) = 0;
  /// Collective: the run's checksum, computed exactly as apps::run_* does.
  [[nodiscard]] virtual double checksum() = 0;
  /// Adds this rank's array (and schedule) counters to `c`.
  virtual void array_counters(Counters& c) const = 0;
  /// Bytes of this rank's arrays and executor buffers.
  [[nodiscard]] virtual std::uint64_t working_set_bytes() const = 0;
  [[nodiscard]] virtual const vf::rt::Env& env() const = 0;

  [[nodiscard]] Counters counters(vf::msg::Context& ctx) const {
    Counters c;
    c.comm = ctx.stats();
    array_counters(c);
    const auto& r = env().registry().stats();
    c.reg_hits = r.hits;
    c.reg_misses = r.misses;
    c.reg_swept = r.swept;
    const auto& h = env().halo_plans();
    c.halo_hits = h.stats().hits;
    c.halo_misses = h.stats().misses;
    c.halo_evictions = h.evictions();
    return c;
  }
};

namespace detail {

inline void add_array(Counters& c, const vf::rt::DistArray<double>& a) {
  c.redist_hits += a.redist_plan_hits();
  c.redist_misses += a.redist_plan_misses();
  c.redist_evictions += a.redist_plan_evictions();
  c.exch_allocs += a.exchange_scratch_stats().grow_allocs;
  c.spec_exchanges += a.halo_spec_exchanges();
}

inline std::uint64_t bytes_of(const vf::rt::DistArray<double>& a) {
  return a.local_span().size() * sizeof(double);
}

// ---- ADI kernels (adi_sim.cpp, classic index-only RHS) -------------------

inline void fill_rhs(vf::rt::DistArray<double>& v, int iter) {
  v.for_owned([&](const IndexVec& i, double& x) {
    x = std::sin(0.01 * static_cast<double>(i[0] * (iter + 1))) +
        0.001 * static_cast<double>(i[1]);
  });
}

inline void solve_local_lines(vf::rt::DistArray<double>& v, int d, int me) {
  const int other = 1 - d;
  const auto lines = v.distribution().owned_in_dim(me, other);
  const vf::dist::Range r = v.distribution().domain().dim(d);
  std::vector<double> line(static_cast<std::size_t>(r.size()));
  for (Index fixed : lines) {
    IndexVec idx{0, 0};
    idx[other] = fixed;
    for (Index k = r.lo; k <= r.hi; ++k) {
      idx[d] = k;
      line[static_cast<std::size_t>(k - r.lo)] = v.at(idx);
    }
    vf::apps::tridiag(line);
    for (Index k = r.lo; k <= r.hi; ++k) {
      idx[d] = k;
      v.at(idx) = line[static_cast<std::size_t>(k - r.lo)];
    }
  }
}

// ---- soak front geometry (soak.cpp) --------------------------------------

inline Index front_at(const vf::apps::SoakConfig& cfg, long step) {
  const Index span = cfg.n;
  const Index raw = cfg.front0 - 1 + static_cast<Index>(step) * cfg.front_step;
  return 1 + ((raw % span) + span) % span;
}

struct Dim0Widths {
  Index lo = 0;
  Index hi = 0;
};

inline Dim0Widths dim0_widths(Index a, Index b, Index f,
                              const vf::apps::SoakConfig& cfg) {
  Dim0Widths w;
  for (Index i = a; i <= b && i <= a + cfg.front_width; ++i) {
    const Index r = vf::apps::amr_radius(i, f, cfg.front_halfspan,
                                         cfg.base_width, cfg.front_width);
    w.lo = std::max(w.lo, r - (i - a));
  }
  for (Index i = std::max(a, b - cfg.front_width); i <= b; ++i) {
    const Index r = vf::apps::amr_radius(i, f, cfg.front_halfspan,
                                         cfg.base_width, cfg.front_width);
    w.hi = std::max(w.hi, r - (b - i));
  }
  return w;
}

}  // namespace detail

// ---- adi_remap ------------------------------------------------------------

class AdiRemap final : public Loop {
 public:
  AdiRemap(vf::msg::Context& ctx, Tracer& tr, const vf::apps::AdiConfig& cfg)
      : ctx_(ctx),
        tr_(tr),
        cfg_(cfg),
        env_(ctx),
        v_(env_, {.name = "V",
                  .domain = IndexDomain({vf::dist::Range{1, cfg.nx},
                                         vf::dist::Range{1, cfg.ny}}),
                  .dynamic = true,
                  .initial = {{vf::dist::col(), vf::dist::block()}},
                  .range = {{vf::query::p_col(), vf::query::p_block()},
                            {vf::query::p_block(), vf::query::p_col()}}}) {}

  void step(long k) override {
    const int iter = static_cast<int>(k % cfg_.iterations);
    const int me = ctx_.rank();
    detail::fill_rhs(v_, iter);
    detail::solve_local_lines(v_, /*d=*/0, me);
    tr_.call(kDistribute, [&] {
      v_.distribute(
          vf::dist::DistributionType{vf::dist::block(), vf::dist::col()});
    });
    detail::solve_local_lines(v_, /*d=*/1, me);
    tr_.call(kDistribute, [&] {
      v_.distribute(
          vf::dist::DistributionType{vf::dist::col(), vf::dist::block()});
    });
  }

  double checksum() override { return v_.reduce(vf::msg::ReduceOp::Sum); }

  void array_counters(Counters& c) const override {
    detail::add_array(c, v_);
  }
  std::uint64_t working_set_bytes() const override {
    return detail::bytes_of(v_);
  }
  const vf::rt::Env& env() const override { return env_; }

 private:
  vf::msg::Context& ctx_;
  Tracer& tr_;
  vf::apps::AdiConfig cfg_;
  vf::rt::Env env_;
  vf::rt::DistArray<double> v_;
};

// ---- adi_gather -----------------------------------------------------------

class AdiGather final : public Loop {
 public:
  /// `inspector_ns` receives this rank's parti::Schedule inspector time.
  AdiGather(vf::msg::Context& ctx, Tracer& tr, const vf::apps::AdiConfig& cfg,
            std::int64_t& inspector_ns)
      : ctx_(ctx),
        tr_(tr),
        cfg_(cfg),
        env_(ctx),
        v_(env_, {.name = "V",
                  .domain = IndexDomain({vf::dist::Range{1, cfg.nx},
                                         vf::dist::Range{1, cfg.ny}}),
                  .initial = {{vf::dist::col(), vf::dist::block()}}}) {
    // The y-sweep's rows, round-robin over ranks (adi_sim.cpp).
    std::vector<IndexVec> pts;
    for (Index i = 1 + ctx.rank(); i <= cfg.nx; i += ctx.nprocs()) {
      for (Index j = 1; j <= cfg.ny; ++j) pts.push_back({i, j});
    }
    buf_.resize(pts.size());
    const std::int64_t t0 = now_ns();
    rows_ = std::make_unique<vf::parti::Schedule>(ctx, v_.dist_handle(),
                                                  std::move(pts));
    inspector_ns = now_ns() - t0;
  }

  void step(long k) override {
    const int iter = static_cast<int>(k % cfg_.iterations);
    detail::fill_rhs(v_, iter);
    detail::solve_local_lines(v_, /*d=*/0, ctx_.rank());
    tr_.call(kGather, [&] { rows_->gather(ctx_, v_, buf_); });
    for (std::size_t r = 0; r * cfg_.ny < buf_.size(); ++r) {
      vf::apps::tridiag(std::span<double>(buf_.data() + r * cfg_.ny,
                                          static_cast<std::size_t>(cfg_.ny)));
    }
    tr_.call(kScatter, [&] { rows_->scatter(ctx_, buf_, v_); });
    tr_.call(kBarrier, [&] { ctx_.barrier(); });
  }

  double checksum() override { return v_.reduce(vf::msg::ReduceOp::Sum); }

  void array_counters(Counters& c) const override {
    detail::add_array(c, v_);
    c.parti_allocs += rows_->scratch_stats().grow_allocs;
  }
  std::uint64_t working_set_bytes() const override {
    return detail::bytes_of(v_) + buf_.size() * sizeof(double);
  }
  const vf::rt::Env& env() const override { return env_; }

 private:
  vf::msg::Context& ctx_;
  Tracer& tr_;
  vf::apps::AdiConfig cfg_;
  vf::rt::Env env_;
  vf::rt::DistArray<double> v_;
  std::unique_ptr<vf::parti::Schedule> rows_;
  std::vector<double> buf_;
};

// ---- smooth9 --------------------------------------------------------------

class Smooth9 final : public Loop {
 public:
  /// nprocs must be a perfect square q*q.
  Smooth9(vf::msg::Context& ctx, Tracer& tr, Index n, int q)
      : tr_(tr),
        n_(n),
        env_(ctx, vf::dist::ProcessorArray::grid(q, q)),
        a_(env_, spec("A", n)),
        b_(env_, spec("B", n)) {}

  void begin_episode() override {
    const Index n = n_;
    a_.init([n](const IndexVec& i) {
      return std::sin(0.07 * static_cast<double>(i[0])) *
                 std::cos(0.05 * static_cast<double>(i[1])) +
             (i[0] == n / 2 && i[1] == n / 2 ? 10.0 : 0.0);
    });
    src_ = &a_;
    dst_ = &b_;
  }

  void step(long /*k*/) override {
    const Index n = n_;
    const vf::rt::DistArray<double>& src = *src_;
    tr_.call(kExchange, [&] { src_->exchange_overlap(); });
    dst_->for_owned([&](const IndexVec& i, double& out) {
      const double c = src.at(i);
      const auto rd = [&](Index di, Index dj) {
        const Index x = i[0] + di;
        const Index y = i[1] + dj;
        if (x < 1 || x > n || y < 1 || y > n) return c;
        return src.halo({x, y});
      };
      out = vf::apps::smooth9_combine(c, rd(-1, 0), rd(+1, 0), rd(0, -1),
                                      rd(0, +1), rd(-1, -1), rd(-1, +1),
                                      rd(+1, -1), rd(+1, +1));
    });
    std::swap(src_, dst_);
  }

  double checksum() override { return src_->reduce(vf::msg::ReduceOp::Sum); }

  void array_counters(Counters& c) const override {
    detail::add_array(c, a_);
    detail::add_array(c, b_);
  }
  std::uint64_t working_set_bytes() const override {
    return detail::bytes_of(a_) + detail::bytes_of(b_);
  }
  const vf::rt::Env& env() const override { return env_; }

 private:
  static vf::rt::DistArray<double>::Spec spec(const char* name, Index n) {
    return {.name = name,
            .domain = IndexDomain::of_extents({n, n}),
            .dynamic = true,
            .initial = vf::dist::DistributionType{vf::dist::block(),
                                                  vf::dist::block()},
            .overlap_lo = {1, 1},
            .overlap_hi = {1, 1},
            .overlap_corners = true};
  }

  Tracer& tr_;
  Index n_;
  vf::rt::Env env_;
  vf::rt::DistArray<double> a_;
  vf::rt::DistArray<double> b_;
  vf::rt::DistArray<double>* src_ = &a_;
  vf::rt::DistArray<double>* dst_ = &b_;
};

// ---- amr_churn ------------------------------------------------------------

class AmrChurn final : public Loop {
 public:
  /// nprocs must be a perfect square q*q (run_soak's contract).
  AmrChurn(vf::msg::Context& ctx, Tracer& tr, const vf::apps::SoakConfig& cfg,
           int q)
      : tr_(tr),
        cfg_(cfg),
        q_(q),
        min_seg_(std::max(cfg.front_width, cfg.base_width)),
        dom_(IndexDomain::of_extents({cfg.n, cfg.n})),
        env_(ctx, vf::dist::ProcessorArray::grid(q, q)),
        a_(env_, spec("SOAK_A")),
        b_(env_, spec("SOAK_B")) {
    if (cfg.halo_budget_bytes != 0) {
      env_.halo_plans().set_max_bytes(cfg.halo_budget_bytes);
    }
    if (cfg.plan_budget_bytes != 0) {
      a_.set_redist_plan_budget(cfg.plan_budget_bytes);
      b_.set_redist_plan_budget(cfg.plan_budget_bytes);
    }
    const Index n = cfg.n;
    a_.init([n](const IndexVec& i) { return vf::apps::amr_seed(i[0], i[1], n); });
  }

  void step(long k) override {
    const int step = static_cast<int>(k);
    const Index n = cfg_.n;
    const Index f = detail::front_at(cfg_, step);
    if (cfg_.redist_every > 0 && step % cfg_.redist_every == 0) {
      const vf::dist::DistHandle nd = tr_.call(kIntern, [&] {
        return env_.intern(
            dom_, vf::dist::DistributionType{
                      vf::dist::s_block(vf::apps::soak_split_sizes(
                          n, q_, min_seg_, cfg_.seed, step)),
                      vf::dist::block()});
      });
      tr_.call(kDistribute, [&] { src_->distribute(nd); });
      tr_.call(kDistribute, [&] { dst_->distribute(nd); });
    }
    Index lo0 = cfg_.base_width;
    Index hi0 = cfg_.base_width;
    if (src_->layout().member) {
      const auto seg = src_->distribution().dim_map(0).segment(
          static_cast<int>(src_->layout().coords[0]));
      if (seg) {
        const detail::Dim0Widths w = detail::dim0_widths(seg->lo, seg->hi, f, cfg_);
        lo0 = std::max(lo0, w.lo);
        hi0 = std::max(hi0, w.hi);
      }
    }
    tr_.call(kSetOverlap, [&] {
      src_->set_overlap({lo0, 1}, {hi0, 1}, /*corners=*/false,
                        /*asymmetric=*/true);
    });
    tr_.call(kExchange, [&] { src_->exchange_overlap(); });
    const vf::rt::DistArray<double>& src = *src_;
    dst_->for_owned([&](const IndexVec& i, double& out) {
      const Index r = vf::apps::amr_radius(i[0], f, cfg_.front_halfspan,
                                           cfg_.base_width, cfg_.front_width);
      out = vf::apps::amr_point(i[0], i[1], n, r, [&](Index x, Index y) {
        return src.halo({x, y});
      });
    });
    std::swap(src_, dst_);
    if (cfg_.sweep_every > 0 && (step + 1) % cfg_.sweep_every == 0) {
      tr_.call(kSweep, [&] { (void)env_.sweep(); });
    }
  }

  double checksum() override {
    return vf::apps::amr_checksum(src_->gather_global());
  }

  void array_counters(Counters& c) const override {
    detail::add_array(c, a_);
    detail::add_array(c, b_);
  }
  std::uint64_t working_set_bytes() const override {
    return detail::bytes_of(a_) + detail::bytes_of(b_);
  }
  const vf::rt::Env& env() const override { return env_; }

 private:
  vf::rt::DistArray<double>::Spec spec(const char* name) const {
    return {.name = name,
            .domain = dom_,
            .dynamic = true,
            .initial = vf::dist::DistributionType{vf::dist::block(),
                                                  vf::dist::block()},
            .overlap_lo = {cfg_.base_width, 1},
            .overlap_hi = {cfg_.base_width, 1},
            .overlap_corners = false,
            .overlap_asymmetric = true};
  }

  Tracer& tr_;
  vf::apps::SoakConfig cfg_;
  int q_;
  Index min_seg_;
  IndexDomain dom_;
  vf::rt::Env env_;
  vf::rt::DistArray<double> a_;
  vf::rt::DistArray<double> b_;
  vf::rt::DistArray<double>* src_ = &a_;
  vf::rt::DistArray<double>* dst_ = &b_;
};

}  // namespace stepbench
