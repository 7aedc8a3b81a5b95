#include "sim/resource.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/error.hpp"

namespace nvmcp::sim {
namespace {

// Flows are sized in bytes; anything below a byte is floating-point noise
// left over from share*dt arithmetic, not real work.
constexpr double kEps = 1.0;

}  // namespace

SharedBandwidth::SharedBandwidth(Engine& eng, double rate_bytes_per_sec,
                                 double timeline_bucket, int classes,
                                 bool track_timelines)
    : eng_(&eng),
      rate_(rate_bytes_per_sec),
      last_t_(eng.now()),
      track_timelines_(track_timelines),
      totals_(static_cast<std::size_t>(classes), 0.0) {
  if (rate_ <= 0) throw NvmcpError("SharedBandwidth: rate must be positive");
  timelines_.reserve(static_cast<std::size_t>(classes));
  for (int i = 0; i < classes; ++i) timelines_.emplace_back(timeline_bucket);
}

void SharedBandwidth::advance() {
  const double now = eng_->now();
  const double dt = now - last_t_;
  if (dt <= 0 || flows_.empty()) {
    last_t_ = now;
    return;
  }
  const double share = rate_ / static_cast<double>(flows_.size());
  for (Flow& f : flows_) {
    const double moved = std::min(f.remaining, share * dt);
    f.remaining -= moved;
    totals_[static_cast<std::size_t>(f.cls)] += moved;
    // Fluid model: the bytes moved uniformly over [last_t_, now], so
    // spread them across every timeline bucket the window covers -- a
    // long single-flow transfer must not appear as one spike.
    if (track_timelines_) {
      timelines_[static_cast<std::size_t>(f.cls)].add_range(last_t_, now,
                                                            moved);
    }
  }
  last_t_ = now;
}

void SharedBandwidth::reschedule() {
  next_completion_.cancel();
  if (flows_.empty()) return;
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const Flow& f : flows_) {
    min_remaining = std::min(min_remaining, f.remaining);
  }
  const double share = rate_ / static_cast<double>(flows_.size());
  const double dt = std::max(0.0, min_remaining / share);
  next_completion_ = eng_->schedule_in(dt, [this] {
    advance();
    // Complete every flow that drained (multiple can tie).
    std::list<Flow> finished;
    for (auto it = flows_.begin(); it != flows_.end();) {
      const auto next = std::next(it);
      if (it->remaining <= kEps) finished.splice(finished.end(), flows_, it);
      it = next;
    }
    if (finished.empty() && !flows_.empty()) {
      // This event fires exactly when the minimum-remaining flow should
      // drain; if rounding left it with a hair of "work" (or dt was below
      // the time resolution at large sim times), force-complete it --
      // otherwise the resource would reschedule an event that cannot
      // advance time and livelock.
      auto min_it = flows_.begin();
      for (auto it = flows_.begin(); it != flows_.end(); ++it) {
        if (it->remaining < min_it->remaining) min_it = it;
      }
      min_it->remaining = 0;
      finished.splice(finished.end(), flows_, min_it);
    }
    reschedule();
    for (Flow& f : finished) {
      if (f.on_done) f.on_done(eng_->now() - f.start_time);
    }
  });
}

void SharedBandwidth::submit(double bytes, int traffic_class,
                             std::function<void(double)> on_done) {
  if (bytes < 0) throw NvmcpError("SharedBandwidth: negative flow size");
  advance();
  // Sub-epsilon flows complete at the next event.
  flows_.push_back(
      Flow{bytes, eng_->now(), traffic_class, std::move(on_done)});
  reschedule();
}

void SharedBandwidth::cancel_all() {
  advance();
  flows_.clear();
  reschedule();
}

}  // namespace nvmcp::sim
