// The particle-in-cell application of Figure 2 (paper Section 4).
//
//   PARAMETER (NCELL = ..., NPART = ...)
//   INTEGER BOUNDS($NP)
//   REAL FIELD(NCELL, NPART, ...) DYNAMIC, DIST(BLOCK, :, :)
//   ...
//   CALL balance(BOUNDS, FIELD, ...)
//   DISTRIBUTE FIELD :: B_BLOCK(BOUNDS)
//   DO k = 1, MAX_TIME
//     CALL update_field(...)
//     CALL update_part(...)
//     IF (MOD(k,10) .EQ. 0 .AND. rebalance()) THEN
//       CALL balance(BOUNDS, FIELD, ...)
//       DISTRIBUTE FIELD :: B_BLOCK(BOUNDS)
//     ENDIF
//   ENDDO
//
// The physics is a synthetic 1-D substitute for the paper's application:
// a drifting, self-focusing particle cloud whose motion produces exactly
// the load-imbalance dynamics that motivate general block distributions.
// FIELD holds particle positions (cell-major, NPART slots per cell); the
// per-cell particle counts live in a secondary array connected to FIELD by
// alignment, so DISTRIBUTE moves both consistently.
#pragma once

#include <cstdint>
#include <vector>

#include "vf/dist/index.hpp"
#include "vf/msg/context.hpp"

namespace vf::apps {

/// Skew policy applied to FIELD's dynamic redistribution (mirrors
/// rt::DistArrayBase::SkewPolicy without pulling the rt headers in).
enum class PicSkewMode { Off, Auto, Force };

struct PicConfig {
  dist::Index ncell = 256;
  dist::Index npart_max = 512;   ///< NPART: max particles per cell
  int particles = 20000;
  int steps = 100;
  /// Rebalance check period (Figure 2 uses 10); 0 disables rebalancing
  /// entirely (the static BLOCK baseline).
  int rebalance_period = 10;
  /// rebalance() predicate: redistribute when max/mean load exceeds this.
  double rebalance_threshold = 1.10;
  double drift = 0.8;       ///< cells per step the cloud moves
  double focus = 0.25;      ///< self-focusing strength (clustering)
  std::uint64_t seed = 42;  ///< initial cloud placement
  /// Zipf exponent of the initial particle cloud: 0 keeps the Gaussian
  /// cloud of Figure 2; > 0 clusters particles over cells with
  /// probability proportional to cell^-s (heavy-key rebalance traffic --
  /// the skewed workload of the PRPD plans).
  double zipf_s = 0.0;
  /// Skew policy for FIELD's DISTRIBUTE statements.
  PicSkewMode skew = PicSkewMode::Off;
  /// Ownership max/mean above which PicSkewMode::Auto hybridizes.
  double skew_threshold = 4.0;
};

struct PicStepStats {
  double imbalance = 1.0;          ///< max/mean particles per processor
  std::int64_t moved = 0;          ///< particles that changed processor
  bool rebalanced = false;
};

struct PicResult {
  std::vector<PicStepStats> steps;
  double mean_imbalance = 1.0;
  double max_imbalance = 1.0;
  int rebalances = 0;
  std::int64_t dropped = 0;  ///< particles lost to NPART overflow
  /// Modeled computation makespan: sum over steps of the slowest rank's
  /// particle work (arbitrary per-particle unit).
  double makespan_units = 0.0;
  std::int64_t final_particles = 0;
  /// Machine-wide exchange-scratch traffic of the simulation's
  /// redistribution replays (FIELD + COUNT arrays, summed over ranks):
  /// replays routed through the facility and heap allocations it
  /// performed.  A healthy rebalance loop grows the scratch only while
  /// the partition envelope is still widening.
  std::uint64_t redist_scratch_prepares = 0;
  std::uint64_t redist_scratch_allocs = 0;
  /// Skew-aware redistribution counters of FIELD (SPMD-uniform): detection
  /// passes run, flips whose target was hybridized, and the ownership
  /// max/mean of the last inspected target mapping.
  std::uint64_t skew_checks = 0;
  std::uint64_t hybrid_flips = 0;
  double last_target_skew = 1.0;
};

/// Runs the PIC simulation on the calling SPMD context (collective).
PicResult run_pic(msg::Context& ctx, const PicConfig& cfg);

}  // namespace vf::apps
