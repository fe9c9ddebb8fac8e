#include "vf/msg/machine.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace vf::msg {

namespace {
int checked_nprocs(int nprocs) {
  if (nprocs < 1) throw std::invalid_argument("Machine: nprocs must be >= 1");
  return nprocs;
}

bool lockstep_env_default() {
  const char* v = std::getenv("VF_LOCKSTEP");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0 &&
         std::strcmp(v, "off") != 0 && std::strcmp(v, "OFF") != 0;
}
}  // namespace

Machine::Machine(int nprocs, CostModel cm)
    : nprocs_(checked_nprocs(nprocs)),
      cm_(cm),
      fence_(nprocs),
      lockstep_(nprocs, &fence_) {
  if (lockstep_env_default()) lockstep_.set_enabled(true);
  boxes_.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>(&fence_, i, nprocs));
  }
  stats_.resize(static_cast<std::size_t>(nprocs));
  link_seq_.assign(
      static_cast<std::size_t>(nprocs) * static_cast<std::size_t>(nprocs), 0);
  fence_.register_wake(&barrier_mu_, &barrier_cv_);
}

Mailbox& Machine::mailbox(int rank) {
  return *boxes_.at(static_cast<std::size_t>(rank));
}

CommStats& Machine::stats(int rank) {
  return stats_.at(static_cast<std::size_t>(rank)).s;
}

CommStats Machine::total_stats() const {
  std::lock_guard lk(barrier_mu_);
  CommStats t;
  for (const auto& s : stats_) t += s.s;
  return t;
}

double Machine::max_rank_modeled_us() const {
  std::lock_guard lk(barrier_mu_);
  double mx = 0.0;
  for (const auto& s : stats_) mx = std::max(mx, s.s.modeled_us(cm_));
  return mx;
}

void Machine::reset_stats() {
  std::lock_guard lk(barrier_mu_);
  for (auto& s : stats_) s.s = CommStats{};
}

void Machine::deliver(int src, int dest, int tag, bool ctl,
                      std::vector<std::byte> payload) {
  std::uint64_t& link =
      link_seq_[static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(nprocs_) +
                static_cast<std::size_t>(dest)];
  Message m{src, tag, std::move(payload), ++link};
  if (ctl || plan_.active()) {
    m.checksum = frame_checksum(m.payload);
    m.checked = true;
  }

  const std::uint64_t n = deliveries_.fetch_add(1, std::memory_order_relaxed);
  FaultKind inject = FaultKind::None;
  if (plan_.active()) {
    if (plan_.rate > 0.0) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(dest));
      const std::uint64_t h = mix64(plan_.seed ^ mix64(key) ^ m.seq);
      if (static_cast<double>(h >> 11) * 0x1.0p-53 < plan_.rate) {
        inject = plan_.kind;
      }
    } else if (n == plan_.nth) {
      inject = plan_.kind;
    }
  }
  // Mutating faults need at least one payload byte to act on; injecting
  // them on an empty frame degrades to losing it.
  if (m.payload.empty() &&
      (inject == FaultKind::Truncate || inject == FaultKind::BitFlip)) {
    inject = FaultKind::Drop;
  }
  if (inject != FaultKind::None) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }

  switch (inject) {
    case FaultKind::Drop:
      return;  // the link sequence gap surfaces at the next delivery,
               // or via the watchdog if this was the last frame
    case FaultKind::Delay: {
      {
        std::lock_guard lk(parked_mu_);
        parked_.push_back(ParkedFrame{dest, std::move(m)});
      }
      fence_.note_parked(1);
      return;
    }
    case FaultKind::Duplicate: {
      Message dup = m;  // same seq: the second push is a detected replay
      mailbox(dest).push(std::move(dup));
      mailbox(dest).push(std::move(m));
      return;
    }
    case FaultKind::Truncate:
      // checksum above covers the original bytes, so the receiver sees
      // the mismatch
      m.payload.resize(m.payload.size() / 2);
      break;
    case FaultKind::BitFlip: {
      const std::uint64_t pos =
          mix64(plan_.seed ^ m.seq ^ 0x5bd1e995ULL) % (m.payload.size() * 8);
      m.payload[pos / 8] ^= static_cast<std::byte>(1u << (pos % 8));
      break;
    }
    case FaultKind::None:
      break;
  }
  mailbox(dest).push(std::move(m));
}

void Machine::barrier_wait(int rank) {
  std::unique_lock lk(barrier_mu_);
  if (fence_.aborted()) throw fence_.make_abort();
  // The barrier's own stats bump lives under barrier_mu_: it is the one
  // counter a rank increments while a barrier-bracketed machine-wide
  // reset_stats()/total_stats() may be running on another rank's thread
  // (the measurement idiom), so the same lock must order both.
  if (rank >= 0) stats_[static_cast<std::size_t>(rank)].s.collectives++;
  const std::uint64_t gen = barrier_gen_;
  const bool lockstep = rank >= 0 && lockstep_.enabled();
  if (++barrier_count_ == nprocs_) {
    if (lockstep) {
      // Piggybacked chain compare: the completing arriver sees every
      // rank's staged chain (all stores ordered by barrier_mu_).
      std::string divergence = lockstep_.stage_barrier(rank, true);
      if (!divergence.empty()) {
        --barrier_count_;  // withdraw: peers unwind via the fence
        lk.unlock();       // trip() wakes barrier_cv_; avoid self-deadlock
        fence_.trip(rank, divergence);
        throw LockstepMismatch(rank, -1, lockstep_.ops(rank), {}, {},
                               divergence);
      }
    }
    barrier_count_ = 0;
    ++barrier_gen_;
    barrier_cv_.notify_all();
    return;
  }
  if (lockstep) (void)lockstep_.stage_barrier(rank, false);
  if (rank >= 0) fence_.enter_barrier(rank, gen);
  struct Leave {
    AbortFence* f;
    int r;
    ~Leave() {
      if (r >= 0) f->leave(r);
    }
  } leave{&fence_, rank};

  const auto watchdog = fence_.watchdog();
  const auto deadline = std::chrono::steady_clock::now() + watchdog;
  for (;;) {
    if (barrier_gen_ != gen) return;
    if (fence_.aborted()) {
      // Withdraw this rank's arrival so the barrier count stays coherent
      // for reset_failure_state() / the next run.
      --barrier_count_;
      throw fence_.make_abort();
    }
    if (watchdog.count() > 0) {
      if (barrier_cv_.wait_until(lk, deadline) == std::cv_status::timeout &&
          barrier_gen_ == gen && !fence_.aborted()) {
        --barrier_count_;
        const int origin = rank >= 0 ? rank : 0;
        const std::string report = fence_.deadlock_report(origin);
        lk.unlock();  // trip() wakes barrier_cv_ too; avoid self-deadlock
        fence_.trip(origin, report);
        throw RankAbort(origin, report);
      }
    } else {
      barrier_cv_.wait(lk);
    }
  }
}

void Machine::set_fault_plan(const FaultPlan& plan) noexcept {
  plan_ = plan;
  deliveries_.store(0, std::memory_order_relaxed);
  faults_injected_.store(0, std::memory_order_relaxed);
}

void Machine::reset_failure_state() {
  fence_.reset();
  for (auto& b : boxes_) b->reset_links();
  std::fill(link_seq_.begin(), link_seq_.end(), 0);
  {
    std::lock_guard lk(parked_mu_);
    parked_.clear();
  }
  fence_.clear_parked();
  {
    std::lock_guard lk(barrier_mu_);
    barrier_count_ = 0;
  }
  lockstep_.reset();
}

FailureReport Machine::last_failure_report() const {
  std::lock_guard lk(report_mu_);
  return report_;
}

void Machine::set_last_failure_report(FailureReport r) {
  std::lock_guard lk(report_mu_);
  report_ = std::move(r);
}

}  // namespace vf::msg
