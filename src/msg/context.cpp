#include "vf/msg/context.hpp"

#include <stdexcept>

namespace vf::msg {

void Context::send_bytes(int dest, int tag, std::span<const std::byte> payload) {
  if (dest < 0 || dest >= nprocs()) {
    throw std::out_of_range("send_bytes: bad destination rank");
  }
  auto& st = stats();
  st.data_messages++;
  st.data_bytes += payload.size();
  st.add_peer(dest, payload.size());
  m_->deliver(rank_, dest, tag, /*ctl=*/false,
              {payload.begin(), payload.end()});
}

void Context::send_ctl_bytes(int dest, int tag,
                             std::span<const std::byte> payload) {
  if (dest < 0 || dest >= nprocs()) {
    throw std::out_of_range("send_ctl_bytes: bad destination rank");
  }
  auto& st = stats();
  st.ctl_messages++;
  st.ctl_bytes += payload.size();
  m_->deliver(rank_, dest, tag, /*ctl=*/true,
              {payload.begin(), payload.end()});
}

std::vector<std::byte> Context::recv_bytes(int src, int tag) {
  return m_->mailbox(rank_).pop(src, tag).payload;
}

void Context::recv_bytes_into(int src, int tag, std::span<std::byte> dst) {
  const Message m = m_->mailbox(rank_).pop(src, tag);
  if (m.payload.size() != dst.size()) {
    throw std::runtime_error(
        "recv_bytes_into: payload size does not match the pre-agreed count");
  }
  if (!dst.empty()) std::memcpy(dst.data(), m.payload.data(), dst.size());
}

int Context::begin_exchange(ExchangeLane& lane) {
  if (lane.peers() != nprocs()) {
    throw std::invalid_argument(
        "begin_exchange: lane was prepared for a different rank count");
  }
  const int tag = next_coll_tag();
  stats().collectives++;
  if (lockstep_on()) {
    auto& c = lockstep_counts();
    const auto np = static_cast<std::size_t>(nprocs());
    for (std::size_t p = 0; p < np; ++p) {
      c[p] = lane.send_bytes(static_cast<int>(p)).size();
      c[np + p] = lane.recv_bytes(static_cast<int>(p)).size();
    }
    lockstep_record_counted(LockstepOp::Exchange, tag, 1);
  }
  for (int d = 0; d < nprocs(); ++d) {
    if (d == rank_) continue;
    const auto payload = lane.send_bytes(d);
    if (!payload.empty()) send_bytes(d, tag, payload);
  }
  return tag;
}

void Context::end_exchange(ExchangeLane& lane, int tag) {
  end_exchange(lane, tag, [&lane](int peer, std::span<const std::byte> bytes) {
    std::memcpy(lane.recv_bytes(peer).data(), bytes.data(), bytes.size());
  });
}

Message Context::recv_counted(int src, int tag, std::size_t bytes) {
  Message m = m_->mailbox(rank_).pop(src, tag);
  if (m.payload.size() != bytes) {
    abort("end_exchange: payload from rank " + std::to_string(src) + " (tag " +
          std::to_string(tag) + ") is " + std::to_string(m.payload.size()) +
          " bytes, expected " + std::to_string(bytes) +
          " (pre-agreed counts disagree between the two sides)");
  }
  return m;
}

void Context::alltoallv_known_into(ExchangeLane& lane) {
  end_exchange(lane, begin_exchange(lane));
}

Message Context::recv_msg(int src, int tag) {
  return m_->mailbox(rank_).pop(src, tag);
}

void Context::barrier() {
  // The collectives bump happens inside barrier_wait, under the barrier
  // lock: it is the one counter a rank touches while a barrier-bracketed
  // machine-wide reset_stats()/total_stats() may run on another thread.
  if (lockstep_on()) lockstep_record(LockstepOp::Barrier, 0, 0);
  m_->barrier_wait(rank_);
}

void Context::abort(const std::string& reason) {
  m_->fence().trip(rank_, reason);
  throw RankAbort(rank_, reason);
}

}  // namespace vf::msg
