// In-memory span recorder for the traced run. Spans are recorded around
// the harness's calls into each library layer; every span of one interval
// (or one restart) carries the id of its root span. Written out once, as
// Chrome-trace JSON, when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_ms = 0;  // since the recorder was created
  double dur_ms = 0;
  std::uint64_t id = 0;  // root span id shared with its children
  bool root = false;
  std::vector<std::pair<std::string, std::int64_t>> args;
};

class SpanRecorder {
 public:
  void add(SpanRecord s) { spans_.push_back(std::move(s)); }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per span name: a root's duration minus the durations of
  /// the children sharing its id; a child (children do not nest) keeps
  /// its whole duration. Summed over every recorded span of that name.
  std::map<std::string, double> self_ms() const {
    std::map<std::uint64_t, double> child_ms;
    for (const SpanRecord& s : spans_) {
      if (!s.root) child_ms[s.id] += s.dur_ms;
    }
    std::map<std::string, double> out;
    for (const SpanRecord& s : spans_) {
      out[s.name] += s.root ? s.dur_ms - child_ms[s.id] : s.dur_ms;
    }
    return out;
  }

  nvmcp::Json to_chrome() const {
    nvmcp::Json events = nvmcp::Json::array();
    for (const SpanRecord& s : spans_) {
      nvmcp::Json e = nvmcp::Json::object();
      e["name"] = s.name;
      e["ph"] = "X";
      e["ts"] = s.start_ms * 1e3;
      e["dur"] = s.dur_ms * 1e3;
      e["pid"] = 1;
      e["tid"] = s.root ? 1 : 2;
      nvmcp::Json args = nvmcp::Json::object();
      args["id"] = static_cast<unsigned long long>(s.id);
      for (const auto& [k, v] : s.args) args[k] = static_cast<long long>(v);
      e["args"] = std::move(args);
      events.push_back(std::move(e));
    }
    nvmcp::Json doc = nvmcp::Json::object();
    doc["traceEvents"] = std::move(events);
    return doc;
  }

 private:
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench
