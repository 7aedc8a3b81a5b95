// Processor-sharing bandwidth resource for the simulator.
//
// Models a pipe (NVM write port, interconnect link) whose rate is divided
// equally among concurrent flows -- the same fluid model the real-thread
// BandwidthLimiter realizes with sleeps, here advanced analytically in
// simulated time. Flow arrivals/departures trigger exact recomputation of
// the next completion, so contention between application communication and
// checkpoint traffic (the paper's "communication noise") emerges naturally.
#pragma once

#include <cstdint>
#include <functional>
#include <list>

#include "common/stats.hpp"
#include "sim/engine.hpp"

namespace nvmcp::sim {

class SharedBandwidth {
 public:
  /// `classes`: number of traffic classes tracked on the timeline
  /// (0 = application, 1 = checkpoint, by convention).
  /// `track_timelines`: when false, only per-class byte totals are kept --
  /// bucketed timelines cost O(sim_time / bucket) memory per class, which
  /// a 10k-node cluster sweep cannot afford across per-rack resources.
  SharedBandwidth(Engine& eng, double rate_bytes_per_sec,
                  double timeline_bucket = 1.0, int classes = 2,
                  bool track_timelines = true);

  SharedBandwidth(const SharedBandwidth&) = delete;
  SharedBandwidth& operator=(const SharedBandwidth&) = delete;

  /// Start a flow; `on_done(elapsed)` fires at completion in sim time.
  void submit(double bytes, int traffic_class,
              std::function<void(double)> on_done);

  /// Cancel every active flow (failure injection; no completion callback
  /// fires).
  void cancel_all();

  std::size_t active_flows() const { return flows_.size(); }
  double rate() const { return rate_; }

  /// Per-class byte timeline (bucketed over sim time; empty when timeline
  /// tracking is disabled).
  const TimeSeries& timeline(int traffic_class) const {
    return timelines_[static_cast<std::size_t>(traffic_class)];
  }
  double total_bytes(int traffic_class) const {
    return totals_[static_cast<std::size_t>(traffic_class)];
  }

 private:
  struct Flow {
    double remaining = 0;
    double start_time = 0;
    int cls = 0;
    std::function<void(double)> on_done;
  };

  void advance();     // progress all flows to eng.now(), attribute bytes
  void reschedule();  // (re)arm the next-completion event

  Engine* eng_;
  double rate_;
  double last_t_ = 0;
  bool track_timelines_;
  std::list<Flow> flows_;
  EventHandle next_completion_;
  std::vector<TimeSeries> timelines_;
  std::vector<double> totals_;
};

}  // namespace nvmcp::sim
