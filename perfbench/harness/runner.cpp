#include "runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "common/checksum.hpp"
#include "common/clock.hpp"
#include "common/units.hpp"
#include "compress/codec.hpp"
#include "core/codec_tuner.hpp"
#include "core/manager.hpp"
#include "core/remote.hpp"
#include "core/restart.hpp"
#include "metrics.hpp"
#include "net/interconnect.hpp"
#include "net/remote_memory.hpp"
#include "nvm/device.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "vmem/container.hpp"
#include "vmem/write_log.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace alloc = nvmcp::alloc;
namespace core = nvmcp::core;
namespace net = nvmcp::net;
namespace vmem = nvmcp::vmem;
using nvmcp::Json;
using nvmcp::Rng;
using nvmcp::RestoreStatus;

constexpr int kSetupRepeats = 3;  // set-ups per run (setup_s is their median)
constexpr int kHardRestarts = 12;  // each fetches the whole cut over the link
constexpr double kMB = 1e6;
// Library defaults, pinned so the environment cannot move them.
constexpr std::size_t kDirtyLogCapacity = 8192;
constexpr long kDirtyLogMergeGap = 512;
constexpr double kDirtyLogMaxCoverage = 0.5;
constexpr double kGcWatermark = 0.85;
constexpr int kGcFloor = 2;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------- stack

/// One rank's checkpoint stack, built through the public API. Members are
/// destroyed in reverse order: the helper before the store it ships to,
/// the manager before its allocator, the device last.
struct Stack {
  std::unique_ptr<nvmcp::NvmDevice> dev;
  std::unique_ptr<vmem::Container> container;
  std::unique_ptr<alloc::ChunkAllocator> alloc;
  std::unique_ptr<core::CheckpointManager> mgr;
  std::unique_ptr<net::Interconnect> link;
  std::unique_ptr<net::RemoteStore> store;
  std::unique_ptr<net::RemoteMemory> rmem;
  std::unique_ptr<core::RemoteCheckpointer> rc;
  std::vector<alloc::Chunk*> chunks;  // parallel to WorkloadDef::chunks
};

std::size_t device_capacity(const WorkloadDef& w) {
  return nvmcp::round_up(
      static_cast<std::size_t>(static_cast<double>(w.payload_bytes()) *
                               kCapacityFactor),
      nvmcp::kNvmPageSize);
}

std::unique_ptr<Stack> build_stack(const WorkloadDef& w) {
  auto s = std::make_unique<Stack>();
  nvmcp::NvmConfig nc;
  nc.capacity = device_capacity(w);
  nc.spec = nvmcp::NvmSpec::pcm();
  nc.throttle = w.pcm;
  nc.track_wear = true;
  s->dev = std::make_unique<nvmcp::NvmDevice>(nc);
  s->container = std::make_unique<vmem::Container>(*s->dev);

  alloc::ChunkAllocator::Options ao;
  ao.track_mode = w.track;
  ao.verify_checksums = true;
  ao.dirty_log_merge_gap = kDirtyLogMergeGap;
  ao.dirty_log_max_coverage = kDirtyLogMaxCoverage;
  ao.ring_depth = w.ring_depth;
  s->alloc = std::make_unique<alloc::ChunkAllocator>(*s->container, ao);

  core::CheckpointConfig cc;
  cc.local_policy = w.policy;
  cc.nvm_bw_per_core = w.pcm ? kPcmCoreBandwidth : 0.0;
  cc.copy_threads = w.copy_threads;
  cc.precopy_scan_period = 2e-3;
  cc.dcpc_margin = 1.25;
  cc.learn_alpha = 0.5;
  cc.skip_unmodified = true;
  cc.batch_rearm = 1;
  cc.epoch_gc_watermark = kGcWatermark;
  cc.epoch_gc_floor = kGcFloor;
  cc.epoch_gc_background = false;
  cc.codec_mode = w.remote ? core::CodecMode::kAdaptive : core::CodecMode::kRaw;
  cc.rank = 0;
  s->mgr = std::make_unique<core::CheckpointManager>(*s->alloc, cc);

  if (w.remote) {
    s->link = std::make_unique<net::Interconnect>(kLinkBandwidth);
    nvmcp::NvmConfig sc;
    sc.capacity = nvmcp::round_up(w.payload_bytes() * 4 + 16 * nvmcp::MiB,
                                  nvmcp::kNvmPageSize);
    sc.throttle = false;
    s->store = std::make_unique<net::RemoteStore>(sc);
    s->rmem = std::make_unique<net::RemoteMemory>(*s->link, *s->store);
    core::RemoteConfig rcfg;
    // kNone: coordination rounds ship unpaced (there is no helper thread
    // whose interval pacing could apply).
    rcfg.policy = core::PrecopyPolicy::kNone;
    rcfg.interval = 1.0;
    rcfg.retry = core::RemoteRetryPolicy{};
    rcfg.retry_from_env = false;
    s->rc = std::make_unique<core::RemoteCheckpointer>(
        std::vector<core::CheckpointManager*>{s->mgr.get()}, *s->rmem, rcfg);
  }
  for (const ChunkDef& d : w.chunks) {
    s->chunks.push_back(
        s->alloc->nvalloc(alloc::genid(d.name), d.bytes, true, d.name));
  }
  return s;
}

/// The effective value of every knob that shapes the workload.
Json knobs_json(const WorkloadDef& w, const Stack& s) {
  Json k = Json::object();
  k["track_mode"] = vmem::to_string(w.track);
  k["ring_depth"] = static_cast<unsigned>(s.alloc->ring_depth());
  k["copy_threads"] = static_cast<unsigned long>(s.mgr->copy_threads());
  k["precopy_policy"] = core::to_string(w.policy);
  k["batch_rearm"] = true;
  k["dirty_log_capacity"] = static_cast<unsigned long>(
      vmem::WriteLogRegistry::instance().shard_capacity());
  k["dirty_log_merge_gap"] = kDirtyLogMergeGap;
  k["dirty_log_max_coverage"] = kDirtyLogMaxCoverage;
  k["epoch_gc_background"] = false;
  k["epoch_gc_inline"] = w.gc_inline;
  if (auto* gc = s.mgr->epoch_gc()) {
    k["epoch_gc_watermark"] = gc->watermark();
    k["epoch_gc_floor"] = static_cast<unsigned>(gc->floor());
  }
  k["device_capacity_bytes"] = static_cast<unsigned long>(s.dev->capacity());
  k["device_throttle"] = w.pcm;
  k["nvm_bw_per_core"] = s.mgr->config().nvm_bw_per_core;
  k["payload_bytes"] = static_cast<unsigned long>(w.payload_bytes());
  k["capacity_factor"] = kCapacityFactor;
  k["iters_per_checkpoint"] = w.iters_per_ckpt;
  k["phase_seconds"] = w.phase_seconds;
  k["warmup_checkpoints"] = w.warmup_ckpts;
  if (s.rc) {
    k["codec_mode"] = core::to_string(s.rc->codec_mode(0));
    const core::CodecTuner::Options t = core::CodecTuner::resolve({});
    k["codec_entropy_max"] = t.entropy_max;
    k["codec_churn_delta_max"] = t.churn_delta_max;
    k["codec_min_gain"] = t.min_gain;
    k["link_bw"] = s.link->bandwidth();
    k["retry_from_env"] = s.rc->config().retry_from_env;
    const core::RemoteRetryPolicy& r = s.rc->retry_policy();
    k["retry_max_attempts"] = r.max_attempts;
    k["retry_phase2_attempts"] = r.phase2_attempts;
    k["retry_put_deadline"] = r.put_deadline;
    k["retry_round_budget"] = r.round_budget;
  } else {
    k["codec_mode"] = "none (no remote)";
  }
  return k;
}

// ------------------------------------------------------------- counters

/// Counters the layers export, read around each call.
struct Counters {
  std::uint64_t recopied = 0, from_precopy = 0, skipped = 0;
  std::uint64_t precopy_passes = 0, precopy_bytes = 0;
  std::uint64_t faults = 0, fault_ns = 0, log_bytes = 0, log_drops = 0;
  std::uint64_t mprotect_calls = 0;
  std::uint64_t nvm_written = 0, nvm_write_calls = 0, nvm_read = 0;
  double nvm_write_s = 0;
  std::uint64_t codec_in = 0, codec_out = 0, choice[3] = {0, 0, 0};
  std::uint64_t retries = 0, degraded = 0;
  double encode_s = 0, busy_s = 0;
  std::uint64_t link_bytes = 0;
  double store_write_s = 0;
};

std::uint64_t counter(const nvmcp::telemetry::MetricRegistry& r,
                      const char* name) {
  const auto* c = r.find_counter(name);
  return c ? c->value() : 0;
}

double gauge(const nvmcp::telemetry::MetricRegistry& r, const char* name) {
  const auto* g = r.find_gauge(name);
  return g ? g->value() : 0.0;
}

Counters read_counters(const Stack& s) {
  Counters c;
  const core::CheckpointStats m = s.mgr->stats();
  c.recopied = m.chunks_recopied_dirty;
  c.from_precopy = m.chunks_committed_from_precopy;
  c.skipped = m.chunks_skipped_unmodified;
  c.precopy_passes = m.precopy_passes;
  c.precopy_bytes = m.bytes_precopied;
  for (const alloc::Chunk* ch : s.chunks) {
    const vmem::WriteTracker& t = ch->tracker();
    c.faults += t.faults.load(std::memory_order_relaxed);
    c.fault_ns += t.fault_ns.load(std::memory_order_relaxed);
    c.log_bytes += t.log_bytes.load(std::memory_order_relaxed);
    c.log_drops += t.log_drops.load(std::memory_order_relaxed);
  }
  c.mprotect_calls = vmem::ProtectionManager::instance().total_mprotect_calls();
  const nvmcp::NvmDeviceStats d = s.dev->stats();
  c.nvm_written = d.bytes_written;
  c.nvm_write_calls = d.write_calls;
  c.nvm_read = d.bytes_read;
  c.nvm_write_s = d.write_seconds;
  if (s.rc) {
    const auto& r = s.rc->metrics();
    c.codec_in = counter(r, "codec.bytes_in");
    c.codec_out = counter(r, "codec.bytes_out");
    c.choice[0] = counter(r, "codec.choice.raw");
    c.choice[1] = counter(r, "codec.choice.lz");
    c.choice[2] = counter(r, "codec.choice.delta");
    c.retries = counter(r, "remote.put_retries");
    c.degraded = counter(r, "remote.degraded_rounds");
    c.encode_s = gauge(r, "codec.encode_seconds");
    c.busy_s = gauge(r, "remote.busy_seconds");
    c.link_bytes = s.link->stats().checkpoint_bytes;
    c.store_write_s = s.store->device().stats().write_seconds;
  }
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.recopied = a.recopied - b.recopied;
  d.from_precopy = a.from_precopy - b.from_precopy;
  d.skipped = a.skipped - b.skipped;
  d.precopy_passes = a.precopy_passes - b.precopy_passes;
  d.precopy_bytes = a.precopy_bytes - b.precopy_bytes;
  d.faults = a.faults - b.faults;
  d.fault_ns = a.fault_ns - b.fault_ns;
  d.log_bytes = a.log_bytes - b.log_bytes;
  d.log_drops = a.log_drops - b.log_drops;
  d.mprotect_calls = a.mprotect_calls - b.mprotect_calls;
  d.nvm_written = a.nvm_written - b.nvm_written;
  d.nvm_write_calls = a.nvm_write_calls - b.nvm_write_calls;
  d.nvm_read = a.nvm_read - b.nvm_read;
  d.nvm_write_s = a.nvm_write_s - b.nvm_write_s;
  d.codec_in = a.codec_in - b.codec_in;
  d.codec_out = a.codec_out - b.codec_out;
  for (int i = 0; i < 3; ++i) d.choice[i] = a.choice[i] - b.choice[i];
  d.retries = a.retries - b.retries;
  d.degraded = a.degraded - b.degraded;
  d.encode_s = a.encode_s - b.encode_s;
  d.busy_s = a.busy_s - b.busy_s;
  d.link_bytes = a.link_bytes - b.link_bytes;
  d.store_write_s = a.store_write_s - b.store_write_s;
  return d;
}

std::int64_t i64(std::uint64_t v) { return static_cast<std::int64_t>(v); }

// -------------------------------------------------------------- samples

/// Everything one interval measured.
struct IntervalSample {
  double mutate_ms = 0, blocking_ms = 0, interval_ms = 0;
  double gc_ms = 0, round_ms = 0;
  double verify_read_s = 0;
  std::uint64_t verify_bytes = 0;
  Counters whole;   // start of the mutate phase to the end of verification
  Counters ckpt;    // inside nvchkptall
  Counters round;   // inside coordinate_now
  nvmcp::epoch::GcPassStats gc;
  bool traced = false;
};

struct RestartSample {
  core::FailureKind kind = core::FailureKind::kSoft;
  double ms = 0;
  core::RestartReport report;
  Counters delta;
};

/// Named counts that must repeat exactly across set-ups of one seed.
using Fingerprint = std::vector<std::pair<std::string, std::uint64_t>>;

// ---------------------------------------------------------------- runner

class Runner {
 public:
  Runner(const RunOptions& opts, WorkloadDef w)
      : opts_(opts), w_(std::move(w)), t0_(std::chrono::steady_clock::now()) {}

  RunResult run();

 private:
  /// One operation of the library: counted as attempted; a throw, a bad
  /// status or a byte mismatch counts it as failed.
  void fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 32) failures_.push_back(what);
  }
  template <typename F>
  bool attempt(const char* what, F&& f) {
    ++attempted_;
    try {
      f();
      return true;
    } catch (const std::exception& e) {
      fail(std::string(what) + " threw: " + e.what());
    } catch (...) {
      fail(std::string(what) + " threw a non-standard exception");
    }
    return false;
  }

  void mutate();
  bool checkpoint(double* ms);
  bool verify_local(IntervalSample* out, std::uint64_t span_id);
  bool verify_remote();
  IntervalSample interval(int k, bool traced, Fingerprint* fp);
  bool setup(Fingerprint* fp);
  void restarts();
  void calibrate_host();
  void compute_metrics(RunResult& res);

  void span(const char* name, double start_ms, double end_ms,
            std::uint64_t id, bool root,
            std::vector<std::pair<std::string, std::int64_t>> args = {}) {
    trace_.add(SpanRecord{name, start_ms, end_ms - start_ms, id, root,
                          std::move(args)});
  }
  double now() const { return ms_since(t0_); }

  RunOptions opts_;
  WorkloadDef w_;
  std::chrono::steady_clock::time_point t0_;
  std::unique_ptr<Stack> st_;
  Rng rng_{0};
  int iter_ = 0;  // application iteration (phase) counter
  std::vector<std::byte> readback_, frame_, base_;
  std::size_t next_read_ = 0;  // round-robin read_committed cursor
  std::vector<std::uint64_t> remote_verified_;  // epoch decoded per chunk

  std::uint64_t attempted_ = 0, failed_ = 0, mismatches_ = 0;
  // The newest checkpoint (and remote round) completed and verified, so
  // DRAM is the image a restart must bring back.
  bool clean_ = false;
  std::vector<std::string> failures_;
  std::vector<double> setup_s_;
  std::vector<double> host_gbps_;  // CRC-64 speed of a fixed buffer
  std::uint64_t crc_sink_ = 0;     // keeps the calibration pass live
  std::vector<IntervalSample> intervals_;
  std::vector<RestartSample> restarts_;
  std::vector<Fingerprint> prints_;
  std::vector<std::string> divergences_;
  SpanRecorder trace_;
  Json knobs_;
};

void Runner::mutate() {
  const auto& defs = w_.chunks;
  if (w_.phase_seconds <= 0) {
    // Back to back: every store of the interval, no compute in between.
    for (int it = 0; it < w_.iters_per_ckpt; ++it, ++iter_) {
      for (std::size_t i = 0; i < defs.size(); ++i) {
        mutate_chunk(defs[i], *st_->chunks[i], iter_, rng_, w_.track);
      }
    }
    return;
  }
  // Sleeping compute phases with stores at fixed points inside them.
  for (int it = 0; it < w_.iters_per_ckpt; ++it, ++iter_) {
    std::vector<std::pair<double, std::size_t>> points;
    for (std::size_t i = 0; i < defs.size(); ++i) {
      for (double f : phase_points(defs[i], iter_)) points.emplace_back(f, i);
    }
    std::stable_sort(points.begin(), points.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    const nvmcp::Stopwatch phase;
    for (const auto& [frac, i] : points) {
      const double wait = frac * w_.phase_seconds - phase.elapsed();
      if (wait > 0) nvmcp::precise_sleep(wait);
      touch_phased(*st_->chunks[i], rng_, w_.track);
    }
    const double rest = w_.phase_seconds - phase.elapsed();
    if (rest > 0) nvmcp::precise_sleep(rest);
  }
}

bool Runner::checkpoint(double* ms) {
  const double t = now();
  const bool ok = attempt("nvchkptall", [&] { st_->mgr->nvchkptall(); });
  *ms = now() - t;
  return ok;
}

/// Byte-verify the checkpoint: every chunk's committed NVM slot, read
/// through the device mapping (an NVM load), must equal the application's
/// DRAM, which has not changed since the checkpoint returned. One chunk per
/// call, in turn, is also read back through alloc.read_committed (read plus
/// CRC verify): those calls are what the alloc metric times.
bool Runner::verify_local(IntervalSample* out, std::uint64_t span_id) {
  bool ok = true;
  for (alloc::Chunk* c : st_->chunks) {
    const vmem::ChunkRecord& rec = c->record();
    if (!rec.has_committed() || rec.size != c->size() ||
        std::memcmp(st_->dev->data() + rec.slot_off[rec.committed], c->data(),
                    c->size()) != 0) {
      ok = false;
    }
  }
  alloc::Chunk* c = st_->chunks[next_read_++ % st_->chunks.size()];
  if (readback_.size() < c->size()) readback_.resize(c->size());
  const double t = now();
  const bool read = st_->alloc->read_committed(*c, readback_.data());
  const double t1 = now();
  if (!read || std::memcmp(readback_.data(), c->data(), c->size()) != 0) {
    ok = false;
  }
  if (out) {
    out->verify_read_s += (t1 - t) / 1e3;
    out->verify_bytes += c->size();
    if (out->traced) {
      span("alloc.read_committed", t, t1, span_id, false,
           {{"bytes", i64(c->size())}});
    }
  }
  return ok;
}

/// The buddy's committed cut must equal the local one: the same epoch for
/// every chunk, and each newly committed frame must decode to the same
/// bytes (a frame already verified at its epoch is not decoded again).
bool Runner::verify_remote() {
  bool ok = true;
  remote_verified_.resize(st_->chunks.size(), 0);
  for (std::size_t i = 0; i < st_->chunks.size(); ++i) {
    alloc::Chunk* c = st_->chunks[i];
    const vmem::ChunkRecord& rec = c->record();
    const std::uint64_t epoch = rec.epoch[rec.committed];
    if (st_->store->committed_epoch(0, c->id()) != epoch) {
      ok = false;
      continue;
    }
    if (remote_verified_[i] == epoch) continue;
    const std::size_t cap = nvmcp::compress::max_frame_size(c->size());
    if (frame_.size() < cap) frame_.resize(cap);
    if (readback_.size() < c->size()) readback_.resize(c->size());
    const std::size_t n =
        st_->store->get_framed(0, c->id(), frame_.data(), cap, nullptr);
    nvmcp::compress::CodecHeader hdr;
    if (n == 0 || !nvmcp::compress::peek_frame(frame_.data(), n, &hdr)) {
      ok = false;
      continue;
    }
    const void* base = nullptr;
    if (hdr.codec == static_cast<std::uint8_t>(nvmcp::compress::Codec::kDelta)) {
      if (base_.size() < c->size()) base_.resize(c->size());
      if (!st_->alloc->read_retained(*c, hdr.base_epoch, base_.data())) {
        ok = false;
        continue;
      }
      base = base_.data();
    }
    if (nvmcp::compress::decode_frame(frame_.data(), n, base, readback_.data(),
                                      c->size()) !=
            nvmcp::compress::DecodeStatus::kOk ||
        std::memcmp(readback_.data(), c->data(), c->size()) != 0) {
      ok = false;
      continue;
    }
    remote_verified_[i] = epoch;
  }
  return ok;
}

IntervalSample Runner::interval(int k, bool traced, Fingerprint* fp) {
  IntervalSample s;
  s.traced = traced;
  const auto id = static_cast<std::uint64_t>(k) + 1;
  const double t_root = now();
  const Counters c0 = read_counters(*st_);

  mutate();
  const double t_mut = now();
  s.mutate_ms = t_mut - t_root;
  const Counters c1 = read_counters(*st_);
  if (traced) {
    const Counters d = c1 - c0;
    span("app.mutate", t_root, t_mut, id, false,
         {{"faults", i64(d.faults)},
          {"log_bytes", i64(d.log_bytes)},
          {"log_drops", i64(d.log_drops)}});
  }

  const double t_ck = now();
  const bool ck_ok = checkpoint(&s.blocking_ms);
  // What the application waited for: its own stores plus the checkpoint,
  // not the harness's counter reads between them.
  s.interval_ms = s.mutate_ms + s.blocking_ms;
  const Counters c2 = read_counters(*st_);
  s.ckpt = c2 - c1;
  if (traced) {
    span("core.nvchkptall", t_ck, t_ck + s.blocking_ms, id, false,
         {{"nvm_bytes", i64(s.ckpt.nvm_written)},
          {"nvm_write_calls", i64(s.ckpt.nvm_write_calls)},
          {"recopied", i64(s.ckpt.recopied)},
          {"from_precopy", i64(s.ckpt.from_precopy)},
          {"skipped", i64(s.ckpt.skipped)},
          {"mprotect_calls", i64(s.ckpt.mprotect_calls)}});
  }

  if (w_.gc_inline && st_->mgr->epoch_gc() != nullptr) {
    const double t = now();
    attempt("EpochGc::run_pass",
            [&] { s.gc = st_->mgr->epoch_gc()->run_pass(); });
    s.gc_ms = now() - t;
    if (traced) {
      span("epoch.gc_pass", t, t + s.gc_ms, id, false,
           {{"slots_reclaimed", i64(s.gc.slots_reclaimed)},
            {"bytes_reclaimed", i64(s.gc.bytes_reclaimed)},
            {"occupancy_permille",
             static_cast<std::int64_t>(s.gc.occupancy_after * 1000)}});
    }
  }

  bool round_ok = true;
  if (st_->rc) {
    const Counters r0 = read_counters(*st_);
    const double t = now();
    core::CoordinationOutcome out;
    round_ok = attempt("coordinate_now",
                       [&] { out = st_->rc->coordinate_now(); });
    s.round_ms = now() - t;
    s.round = read_counters(*st_) - r0;
    if (traced) {
      span("core.remote.coordinate_now", t, t + s.round_ms, id, false,
           {{"raw_bytes", i64(s.round.codec_in)},
            {"wire_bytes", i64(s.round.codec_out)},
            {"link_bytes", i64(s.round.link_bytes)},
            {"raw", i64(s.round.choice[0])},
            {"lz", i64(s.round.choice[1])},
            {"delta", i64(s.round.choice[2])},
            {"retries", i64(s.round.retries)},
            {"degraded", out.degraded ? 1 : 0}});
    }
    if (round_ok && out.degraded) {
      fail("coordinate_now: degraded round");
      round_ok = false;
    } else if (round_ok && ck_ok && !verify_remote()) {
      fail("coordinate_now: remote cut differs from local");
      ++mismatches_;
      round_ok = false;
    }
  }

  bool local_ok = ck_ok;
  if (ck_ok && !verify_local(&s, id)) {
    fail("nvchkptall: committed bytes differ from DRAM");
    ++mismatches_;
    local_ok = false;
  }
  clean_ = local_ok && round_ok;
  s.whole = read_counters(*st_) - c0;
  if (traced) {
    span("interval", t_root, now(), id, true,
         {{"index", k}, {"nvm_bytes", i64(s.whole.nvm_written)}});
  }

  if (fp) {
    std::string p = "i";
    p += std::to_string(k);
    p += '.';
    fp->emplace_back(p + "nvm_bytes", s.whole.nvm_written);
    fp->emplace_back(p + "nvm_write_calls", s.whole.nvm_write_calls);
    fp->emplace_back(p + "log_bytes", s.whole.log_bytes);
    fp->emplace_back(p + "recopied", s.ckpt.recopied);
    fp->emplace_back(p + "from_precopy", s.ckpt.from_precopy);
    fp->emplace_back(p + "skipped", s.ckpt.skipped);
    if (st_->rc) {
      fp->emplace_back(p + "link_bytes", s.round.link_bytes);
      fp->emplace_back(p + "codec.raw", s.round.choice[0]);
      fp->emplace_back(p + "codec.lz", s.round.choice[1]);
      fp->emplace_back(p + "codec.delta", s.round.choice[2]);
      fp->emplace_back(p + "wire_bytes", s.round.codec_out);
    }
  }
  return s;
}

/// Build the stack, fill it, take the first full checkpoint (and ship it),
/// run the learning checkpoints: all of it is set-up. Then the fixed
/// determinism intervals.
bool Runner::setup(Fingerprint* fp) {
  st_.reset();
  rng_ = Rng(opts_.seed);
  iter_ = 0;
  next_read_ = 0;
  remote_verified_.clear();
  const double t = now();
  bool ok = true;
  try {
    st_ = build_stack(w_);
  } catch (const std::exception& e) {
    ++attempted_;
    fail(std::string("stack set-up threw: ") + e.what());
    st_.reset();
    return false;
  }
  for (std::size_t i = 0; i < w_.chunks.size(); ++i) {
    fill_initial(w_.chunks[i], *st_->chunks[i], rng_);
  }
  st_->mgr->start();
  double ms = 0;
  ok = checkpoint(&ms) && ok;
  if (st_->rc) {
    ok = attempt("coordinate_now", [&] {
           if (st_->rc->coordinate_now().degraded) {
             throw std::runtime_error("first ship degraded");
           }
         }) && ok;
  }
  for (int j = 0; j < w_.warmup_ckpts; ++j) {
    mutate();
    ok = checkpoint(&ms) && ok;
  }
  setup_s_.push_back((now() - t) / 1e3);
  if (w_.determinism_intervals > 0) {
    const Counters c = read_counters(*st_);
    fp->emplace_back("setup.nvm_bytes", c.nvm_written);
    fp->emplace_back("setup.link_bytes", c.link_bytes);
  }
  if (ok && !verify_local(nullptr, 0)) {
    fail("set-up checkpoint: committed bytes differ from DRAM");
    ++mismatches_;
    ok = false;
  }
  if (ok && st_->rc && !verify_remote()) {
    fail("set-up ship: remote cut differs from local");
    ++mismatches_;
    ok = false;
  }
  clean_ = ok;
  for (int d = 0; d < w_.determinism_intervals; ++d) {
    interval(w_.warmup_ckpts + d, false, fp);
  }
  return ok;
}

void Runner::restarts() {
  if (!st_) return;
  if (!clean_) {
    // Without a verified newest checkpoint there is no image to compare a
    // restore against.
    fail("restarts skipped: the last checkpoint did not complete");
    return;
  }
  st_->mgr->stop();  // no pre-copy against scrambled DRAM
  std::vector<std::vector<std::byte>> golden;
  for (alloc::Chunk* c : st_->chunks) {
    const auto* p = static_cast<const std::byte*>(c->data());
    golden.emplace_back(p, p + c->size());
  }
  const int hard_restarts = w_.remote ? kHardRestarts : 0;
  core::RestartCoordinator coord(*st_->mgr, st_->rmem.get());
  for (int i = 0; i < std::max(w_.restarts, hard_restarts); ++i) {
    std::vector<core::FailureKind> kinds;
    if (i < w_.restarts) kinds.push_back(core::FailureKind::kSoft);
    if (i < hard_restarts) kinds.push_back(core::FailureKind::kHard);
    for (core::FailureKind kind : kinds) {
      const bool soft = kind == core::FailureKind::kSoft;
      const auto id = static_cast<std::uint64_t>(1000000 + 2 * i + (soft ? 0 : 1));
      const double t_root = now();
      // Lose the DRAM image, so only a real restore can pass the check.
      for (alloc::Chunk* c : st_->chunks) {
        std::memset(c->data(), 0x5a ^ (i & 0xff), c->size());
      }
      RestartSample r;
      r.kind = kind;
      const Counters c0 = read_counters(*st_);
      const double t = now();
      const bool ok = attempt(soft ? "restart_after(soft)" : "restart_after(hard)",
                              [&] { r.report = coord.restart_after(kind); });
      r.ms = now() - t;
      r.delta = read_counters(*st_) - c0;
      const RestoreStatus want =
          soft ? RestoreStatus::kOk : RestoreStatus::kOkFromRemote;
      if (ok && r.report.status != want) {
        fail(std::string(soft ? "soft" : "hard") + " restart status " +
             std::to_string(static_cast<int>(r.report.status)));
      } else if (ok) {
        for (std::size_t j = 0; j < st_->chunks.size(); ++j) {
          if (std::memcmp(st_->chunks[j]->data(), golden[j].data(),
                          golden[j].size()) != 0) {
            fail("restart: restored bytes differ from the checkpoint");
            ++mismatches_;
            break;
          }
        }
      }
      if (opts_.trace) {
        const char* name = soft ? "core.restart.soft" : "core.restart.hard";
        span(name, t, t + r.ms, id, false,
             {{"chunks_local", r.report.chunks_local},
              {"chunks_remote", r.report.chunks_remote},
              {"chunks_rolled_back", r.report.chunks_rolled_back},
              {"bytes_local", i64(r.report.bytes_local)},
              {"bytes_remote", i64(r.report.bytes_remote)},
              {"nvm_read_bytes", i64(r.delta.nvm_read)},
              {"link_bytes", i64(r.delta.link_bytes)}});
        span("restart", t_root, now(), id, true);
      }
      restarts_.push_back(std::move(r));
    }
  }
}

/// The host's own speed, sampled after every set-up and at the end: a
/// fixed CRC-64 pass over a buffer that fits in cache. It explains drift
/// between runs that no workload caused.
void Runner::calibrate_host() {
  static const std::vector<std::uint64_t> buf = [] {
    std::vector<std::uint64_t> b(2 * nvmcp::MiB / 8);
    Rng r(0xca11b);
    for (auto& w : b) w = r.next_u64();
    return b;
  }();
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const double t = now();
    crc_sink_ ^= nvmcp::crc64(buf.data(), buf.size() * 8);
    ms.push_back(now() - t);
  }
  host_gbps_.push_back(static_cast<double>(buf.size() * 8) / 1e9 /
                       (percentile(ms, 0.5) / 1e3));
}

RunResult Runner::run() {
  // Pinned before the first shard exists: the write-log ring size
  // otherwise comes from the environment.
  vmem::WriteLogRegistry::instance().set_shard_capacity(kDirtyLogCapacity);

  bool ready = false;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Fingerprint fp;
    ready = setup(&fp);
    prints_.push_back(std::move(fp));
    calibrate_host();
  }
  if (st_) knobs_ = knobs_json(w_, *st_);

  // Every set-up ran the same seed: the named counts must agree.
  for (std::size_t r = 1; r < prints_.size(); ++r) {
    const Fingerprint& a = prints_[0];
    const Fingerprint& b = prints_[r];
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      if (i >= a.size() || i >= b.size() || a[i] != b[i]) {
        const std::string& name = i < a.size() ? a[i].first : b[i].first;
        divergences_.push_back(
            name + ": set-up 0 read " +
            (i < a.size() ? std::to_string(a[i].second) : "-") +
            ", set-up " + std::to_string(r) + " read " +
            (i < b.size() ? std::to_string(b[i].second) : "-"));
      }
    }
  }

  if (st_ && ready) {
    int k = w_.warmup_ckpts + w_.determinism_intervals;
    const double end = now() + opts_.seconds * 1e3;
    for (int n = 0; now() < end; ++n, ++k) {
      // Traced runs alternate traced and untraced intervals, so the cost
      // of tracing is measured against the same run.
      intervals_.push_back(interval(k, opts_.trace && n % 2 == 0, nullptr));
    }
    restarts();
  }
  calibrate_host();

  RunResult res;
  compute_metrics(res);
  res.attempted = std::max<std::uint64_t>(attempted_, 1);
  res.failed = failed_;
  res.correct = mismatches_ == 0 && ready;
  if (opts_.trace) res.trace = trace_.to_chrome();
  return res;
}

void Runner::compute_metrics(RunResult& res) {
  auto& m = res.metrics;
  for (const MetricDef& d : metric_defs()) m[d.name] = 0.0;

  std::vector<double> blocking, interval_ms, mutate, gc_ms, round_ms;
  std::vector<double> traced_iv, untraced_iv;
  double n_iv = 0, n_rounds = 0, n_gc = 0;
  Counters tot;  // whole-interval sums
  double ckpt_nvm_bytes = 0, verify_bytes = 0, verify_s = 0;
  double round_link = 0, round_enc = 0, round_store = 0, round_busy = 0,
         round_retries = 0, round_self = 0;
  std::uint64_t codec_in = 0, codec_out = 0, choice[3] = {0, 0, 0};
  double slots = 0, occupancy = 0;
  for (const IntervalSample& s : intervals_) {
    n_iv += 1;
    blocking.push_back(s.blocking_ms);
    interval_ms.push_back(s.interval_ms);
    mutate.push_back(s.mutate_ms);
    (s.traced ? traced_iv : untraced_iv).push_back(s.interval_ms);
    tot.faults += s.whole.faults;
    tot.fault_ns += s.whole.fault_ns;
    tot.mprotect_calls += s.whole.mprotect_calls;
    tot.log_bytes += s.whole.log_bytes;
    tot.log_drops += s.whole.log_drops;
    tot.nvm_written += s.whole.nvm_written;
    tot.nvm_write_calls += s.whole.nvm_write_calls;
    tot.nvm_write_s += s.whole.nvm_write_s;
    tot.recopied += s.whole.recopied;
    tot.from_precopy += s.whole.from_precopy;
    tot.skipped += s.whole.skipped;
    tot.precopy_passes += s.whole.precopy_passes;
    tot.precopy_bytes += s.whole.precopy_bytes;
    ckpt_nvm_bytes += static_cast<double>(s.ckpt.nvm_written);
    verify_bytes += static_cast<double>(s.verify_bytes);
    verify_s += s.verify_read_s;
    if (w_.gc_inline) {
      n_gc += 1;
      gc_ms.push_back(s.gc_ms);
      slots += static_cast<double>(s.gc.slots_reclaimed);
      occupancy += s.gc.occupancy_after;
    }
    if (w_.remote) {
      n_rounds += 1;
      round_ms.push_back(s.round_ms);
      const double link_ms =
          static_cast<double>(s.round.link_bytes) / kLinkBandwidth * 1e3;
      round_link += link_ms;
      round_enc += s.round.encode_s * 1e3;
      round_store += s.round.store_write_s * 1e3;
      round_busy += s.round.busy_s * 1e3;
      round_retries += static_cast<double>(s.round.retries);
      tot.degraded += s.round.degraded;
      tot.link_bytes += s.round.link_bytes;
      codec_in += s.round.codec_in;
      codec_out += s.round.codec_out;
      for (int i = 0; i < 3; ++i) choice[i] += s.round.choice[i];
      // The store write is paced by the link limiter, so it already holds
      // the wire time: the helper's own share is what neither explains.
      round_self += s.round_ms - s.round.encode_s * 1e3 -
                    s.round.store_write_s * 1e3;
    }
  }
  std::vector<double> soft_ms, hard_ms;
  double soft_read = 0, hard_fetch = 0, n_restarts = 0;
  double ch_local = 0, ch_remote = 0, ch_rolled = 0;
  for (const RestartSample& r : restarts_) {
    n_restarts += 1;
    ch_local += r.report.chunks_local;
    ch_remote += r.report.chunks_remote;
    ch_rolled += r.report.chunks_rolled_back;
    if (r.kind == core::FailureKind::kSoft) {
      soft_ms.push_back(r.ms);
      soft_read += static_cast<double>(r.delta.nvm_read);
    } else {
      hard_ms.push_back(r.ms);
      hard_fetch += static_cast<double>(r.delta.link_bytes);
    }
  }

  // End to end.
  m["setup_s"] = percentile(setup_s_, 0.5);
  m["blocking_ms.p50"] = percentile(blocking, 0.5);
  m["blocking_ms.p90"] = percentile(blocking, 0.9);
  m["interval_ms.p50"] = percentile(interval_ms, 0.5);
  m["interval_ms.p90"] = percentile(interval_ms, 0.9);
  m["restart_soft_ms.p50"] = percentile(soft_ms, 0.5);
  m["nvm_write_mb_per_interval"] =
      ratio(static_cast<double>(tot.nvm_written) / kMB, n_iv);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) * 1024.0 / kMB;

  // Per layer.
  m["samples.intervals"] = n_iv;
  m["samples.rounds"] = n_rounds;
  m["samples.restarts"] = n_restarts;
  m["fail_ratio"] = ratio(static_cast<double>(failed_),
                          static_cast<double>(std::max<std::uint64_t>(attempted_, 1)));
  m["remote_round_ms.p50"] = percentile(round_ms, 0.5);
  m["remote_round_ms.p90"] = percentile(round_ms, 0.9);
  m["restart_hard_ms.p50"] = percentile(hard_ms, 0.5);
  m["link_mb_per_round"] =
      ratio(static_cast<double>(tot.link_bytes) / kMB, n_rounds);
  m["apps.mutate_ms.p50"] = percentile(mutate, 0.5);
  m["vmem.faults_per_interval"] = ratio(static_cast<double>(tot.faults), n_iv);
  m["vmem.fault_ms_per_interval"] =
      ratio(static_cast<double>(tot.fault_ns) / 1e6, n_iv);
  m["vmem.mprotect_calls_per_interval"] =
      ratio(static_cast<double>(tot.mprotect_calls), n_iv);
  m["vmem.log_mb_per_interval"] =
      ratio(static_cast<double>(tot.log_bytes) / kMB, n_iv);
  m["vmem.log_drops"] = static_cast<double>(tot.log_drops);
  m["core.chunks_recopied_per_interval"] =
      ratio(static_cast<double>(tot.recopied), n_iv);
  m["core.chunks_from_precopy_per_interval"] =
      ratio(static_cast<double>(tot.from_precopy), n_iv);
  m["core.chunks_skipped_per_interval"] =
      ratio(static_cast<double>(tot.skipped), n_iv);
  m["core.precopy_mb_per_interval"] =
      ratio(static_cast<double>(tot.precopy_bytes) / kMB, n_iv);
  // Base: pre-copy passes. A pass is useful when its copy is committed
  // as is at the next checkpoint.
  m["core.precopy_useful_ratio"] =
      ratio(static_cast<double>(tot.from_precopy),
            static_cast<double>(tot.precopy_passes));
  // Base: bytes nvchkptall itself wrote to NVM (not chunk sizes).
  m["core.blocking_ms_per_dirty_mb"] =
      ratio(sum(blocking), ckpt_nvm_bytes / kMB);
  m["nvm.write_calls_per_interval"] =
      ratio(static_cast<double>(tot.nvm_write_calls), n_iv);
  m["nvm.write_ms_per_interval"] = ratio(tot.nvm_write_s * 1e3, n_iv);
  // Computed, not measured: bytes over the slowest configured write rate.
  const double rate =
      w_.pcm ? std::min(nvmcp::NvmSpec::pcm().write_bandwidth, kPcmCoreBandwidth)
             : 0.0;
  m["nvm.emulated_wait_ms_per_interval"] =
      rate > 0 ? ratio(static_cast<double>(tot.nvm_written) / rate * 1e3, n_iv)
               : 0.0;
  m["nvm.read_mb_per_restart"] =
      ratio(soft_read / kMB, static_cast<double>(soft_ms.size()));
  m["alloc.read_committed_gbps"] = ratio(verify_bytes / 1e9, verify_s);
  m["epoch.gc_pass_ms.p50"] = percentile(gc_ms, 0.5);
  m["epoch.slots_reclaimed_per_pass"] = ratio(slots, n_gc);
  m["epoch.occupancy"] = ratio(occupancy, n_gc);
  m["codec.encode_ms_per_round"] = ratio(round_enc, n_rounds);
  // Base: raw bytes offered to the codec.
  m["codec.wire_ratio"] = ratio(static_cast<double>(codec_out),
                                static_cast<double>(codec_in));
  const double choices = static_cast<double>(choice[0] + choice[1] + choice[2]);
  m["codec.share.raw"] = ratio(static_cast<double>(choice[0]), choices);
  m["codec.share.lz"] = ratio(static_cast<double>(choice[1]), choices);
  m["codec.share.delta"] = ratio(static_cast<double>(choice[2]), choices);
  m["net.link_ms_per_round"] = ratio(round_link, n_rounds);
  m["net.store_write_ms_per_round"] = ratio(round_store, n_rounds);
  m["net.fetch_mb_per_restart"] =
      ratio(hard_fetch / kMB, static_cast<double>(hard_ms.size()));
  m["remote.busy_ms_per_round"] = ratio(round_busy, n_rounds);
  m["remote.self_ms_per_round"] = ratio(round_self, n_rounds);
  m["remote.retries_per_round"] = ratio(round_retries, n_rounds);
  m["remote.degraded_rounds"] = static_cast<double>(tot.degraded);
  m["restart.chunks_local"] = ratio(ch_local, n_restarts);
  m["restart.chunks_remote"] = ratio(ch_remote, n_restarts);
  m["restart.chunks_rolled_back"] = ratio(ch_rolled, n_restarts);

  // Self time per traced span, per traced interval (restarts: per traced
  // restart of that kind).
  const std::map<std::string, double> self = trace_.self_ms();
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double n_traced = static_cast<double>(traced_iv.size());
  m["self_ms.interval"] = ratio(self_of("interval"), n_traced);
  m["self_ms.app.mutate"] = ratio(self_of("app.mutate"), n_traced);
  m["self_ms.core.nvchkptall"] = ratio(self_of("core.nvchkptall"), n_traced);
  m["self_ms.epoch.gc_pass"] = ratio(self_of("epoch.gc_pass"), n_traced);
  m["self_ms.core.remote.coordinate_now"] =
      ratio(self_of("core.remote.coordinate_now"), n_traced);
  m["self_ms.alloc.read_committed"] =
      ratio(self_of("alloc.read_committed"), n_traced);
  m["self_ms.core.restart.soft"] =
      ratio(self_of("core.restart.soft"), static_cast<double>(soft_ms.size()));
  m["self_ms.core.restart.hard"] =
      ratio(self_of("core.restart.hard"), static_cast<double>(hard_ms.size()));
  if (opts_.trace && !traced_iv.empty() && !untraced_iv.empty()) {
    m["trace.overhead_pct"] =
        (ratio(percentile(traced_iv, 0.5), percentile(untraced_iv, 0.5)) - 1.0) *
        100.0;
  }
  m["determinism.divergences"] = static_cast<double>(divergences_.size());
  m["host.crc64_gbps"] = percentile(host_gbps_, 0.5);

  // Detail: what a reader needs to trust the numbers.
  Json& d = res.detail;
  d = Json::object();
  d["workload"] = w_.name;
  d["seed"] = static_cast<unsigned long long>(opts_.seed);
  d["seconds"] = opts_.seconds;
  d["trace"] = opts_.trace;
  d["knobs"] = knobs_;
  Json samples = Json::object();
  samples["setups"] = static_cast<unsigned long>(setup_s_.size());
  samples["intervals"] = static_cast<unsigned long>(intervals_.size());
  samples["rounds"] = n_rounds;
  samples["restarts_soft"] = static_cast<unsigned long>(soft_ms.size());
  samples["restarts_hard"] = static_cast<unsigned long>(hard_ms.size());
  samples["p90_supported"] = tail_supported(intervals_.size(), 0.9);
  samples["p90_min_samples"] = static_cast<unsigned long>(min_samples_for(0.9));
  d["samples"] = std::move(samples);
  Json host = Json::array();
  for (double g : host_gbps_) host.push_back(g);
  d["host_crc64_gbps"] = std::move(host);
  Json fl = Json::array();
  for (const auto& f : failures_) fl.push_back(f);
  d["failures"] = std::move(fl);
  Json dv = Json::array();
  for (const auto& v : divergences_) dv.push_back(v);
  d["determinism_divergences"] = std::move(dv);
  Json fp = Json::object();
  if (!prints_.empty()) {
    for (const auto& [k, v] : prints_[0]) fp[k] = static_cast<unsigned long long>(v);
  }
  d["determinism_counts"] = std::move(fp);
  Json all = Json::object();
  for (const auto& [k, v] : m) all[k] = v;
  d["metrics"] = std::move(all);
}

}  // namespace

RunResult run_benchmark(const RunOptions& opts) {
  Runner r(opts, workload_def(opts.workload));
  return r.run();
}

}  // namespace perfbench
