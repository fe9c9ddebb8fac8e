// Span recorder for the step-loop benchmark.
//
// One Tracer per rank.  Disarmed, a wrapped call costs one branch; armed,
// it records one span per public library call (name, step, start, end,
// payload bytes this rank sent during the call) plus one span per step,
// which is the parent of every call span carrying the same step number.
// Spans stay in memory until the run ends and are then written as Chrome
// trace-event JSON (one thread row per rank), which Perfetto and
// chrome://tracing open directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "vf/msg/context.hpp"

namespace stepbench {

/// Layer-boundary calls the driver times.  kStep is the enclosing step;
/// everything else is a public library call made inside a step.
enum Call : std::uint8_t {
  kStep,
  kDistribute,     // rt::DistArray::distribute
  kExchange,       // rt::DistArray::exchange_overlap
  kSetOverlap,     // rt::DistArray::set_overlap
  kSweep,          // rt::Env::sweep
  kIntern,         // rt::Env::intern
  kGather,         // parti::Schedule::gather
  kScatter,        // parti::Schedule::scatter
  kBarrier,        // msg::Context::barrier
  kNumCalls
};

inline constexpr const char* kCallName[kNumCalls] = {
    "step",          "rt.distribute", "rt.exchange_overlap",
    "rt.set_overlap", "rt.sweep",     "dist.intern",
    "parti.gather",  "parti.scatter", "msg.barrier"};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint64_t bytes = 0;  ///< data bytes this rank sent inside the span
  std::uint32_t step = 0;
  Call call = kStep;
};

class Tracer {
 public:
  bool on = false;
  std::vector<Span> spans;

  void bind(vf::msg::Context& ctx) { ctx_ = &ctx; }

  /// Runs f(), recording a span named `c` when armed.
  template <typename F>
  decltype(auto) call(Call c, F&& f) {
    if (!on) return f();
    const std::uint64_t b0 = ctx_->stats().data_bytes;
    const std::int64_t t0 = now_ns();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      push(c, t0, b0);
    } else {
      decltype(auto) r = f();
      push(c, t0, b0);
      return r;
    }
  }

  void begin_step(std::uint32_t k) {
    step_ = k;
    step_t0_ = now_ns();
    step_b0_ = ctx_->stats().data_bytes;
  }
  void end_step() {
    spans.push_back({step_t0_, now_ns(), ctx_->stats().data_bytes - step_b0_,
                     step_, kStep});
  }

 private:
  void push(Call c, std::int64_t t0, std::uint64_t b0) {
    spans.push_back({t0, now_ns(), ctx_->stats().data_bytes - b0, step_, c});
  }

  vf::msg::Context* ctx_ = nullptr;
  std::uint32_t step_ = 0;
  std::int64_t step_t0_ = 0;
  std::uint64_t step_b0_ = 0;
};

/// Writes every rank's spans as Chrome trace-event JSON ("X" complete
/// events, microsecond timestamps relative to `epoch_ns`, one tid per
/// rank).  `other_data` is a JSON object string stored under otherData.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<Tracer>& ranks,
                               std::int64_t epoch_ns,
                               const std::string& other_data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,\n",
               other_data.c_str());
  std::fprintf(f, "\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"rank %zu\"}}",
                 first ? "" : ",\n", r, r);
    first = false;
    for (const Span& s : ranks[r].spans) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"step\":%u,"
                   "\"bytes\":%llu}}",
                   kCallName[s.call], r,
                   static_cast<double>(s.t0 - epoch_ns) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3, s.step,
                   static_cast<unsigned long long>(s.bytes));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace stepbench
