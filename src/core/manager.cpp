#include "core/manager.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <future>

#include "common/clock.hpp"
#include "common/env.hpp"
#include "common/log.hpp"
#include "telemetry/trace.hpp"

namespace nvmcp::core {
namespace {

/// Size-balanced shards, largest chunk first (LPT scheduling): sort the
/// work descending by payload size, then greedily place each chunk on the
/// least-loaded shard. Deterministic for a given work list.
std::vector<std::vector<alloc::Chunk*>> shard_by_size(
    std::vector<alloc::Chunk*> work, std::size_t shards) {
  std::stable_sort(work.begin(), work.end(),
                   [](const alloc::Chunk* a, const alloc::Chunk* b) {
                     return a->size() > b->size();
                   });
  std::vector<std::vector<alloc::Chunk*>> out(shards);
  std::vector<std::uint64_t> load(shards, 0);
  for (alloc::Chunk* c : work) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < shards; ++s) {
      if (load[s] < load[best]) best = s;
    }
    out[best].push_back(c);
    load[best] += c->size();
  }
  return out;
}

}  // namespace

std::size_t resolve_copy_threads(std::size_t configured) {
  if (configured != 0) return configured;
  const std::int64_t v = env::get_i64("NVMCP_COPY_THREADS", 0, 0, 64);
  return v <= 0 ? 1 : static_cast<std::size_t>(v);
}

bool resolve_batch_rearm(int configured) {
  if (configured == 0) return false;
  if (configured > 0) return true;
  return env::get_bool("NVMCP_BATCH_REARM", true);
}

CodecMode resolve_codec_mode(CodecMode configured) {
  if (configured != CodecMode::kUnset) return configured;
  const std::string v = env::get_string("NVMCP_CODEC", "raw");
  if (v == "lz") return CodecMode::kLz;
  if (v == "delta") return CodecMode::kDelta;
  if (v == "adaptive") return CodecMode::kAdaptive;
  return CodecMode::kRaw;
}

CheckpointManager::CheckpointManager(alloc::ChunkAllocator& allocator,
                                     CheckpointConfig cfg)
    : alloc_(&allocator), cfg_(cfg), stream_(cfg.nvm_bw_per_core),
      prediction_(cfg.learn_alpha),
      copy_threads_(resolve_copy_threads(cfg.copy_threads)),
      batch_rearm_(resolve_batch_rearm(cfg.batch_rearm)) {
  if (copy_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(copy_threads_);
    worker_streams_.reserve(copy_threads_);
    for (std::size_t i = 0; i < copy_threads_; ++i) {
      worker_streams_.push_back(
          std::make_unique<BandwidthLimiter>(cfg.nvm_bw_per_core));
    }
  }
  // An arena-owned (shared) directory means the arena owns GC policy too:
  // a per-tenant manager must not run a device-wide reclamation thread.
  if (epoch::EpochDirectory* dir =
          alloc_->owns_directory() ? alloc_->epoch_directory() : nullptr) {
    epoch::EpochGc::Options gopts;
    gopts.watermark = cfg_.epoch_gc_watermark;
    gopts.floor = cfg_.epoch_gc_floor;
    gopts.period = cfg_.epoch_gc_period;
    gc_ = std::make_unique<epoch::EpochGc>(*dir, gopts, &metrics_);
  }
  interval_start_ = now_seconds();
  m_.local_checkpoints = &metrics_.counter("ckpt.local_checkpoints");
  m_.bytes_coordinated = &metrics_.counter("ckpt.bytes_coordinated");
  m_.bytes_precopied = &metrics_.counter("ckpt.bytes_precopied");
  m_.precopy_passes = &metrics_.counter("ckpt.precopy_passes");
  m_.committed_from_precopy =
      &metrics_.counter("ckpt.chunks_committed_from_precopy");
  m_.recopied_dirty = &metrics_.counter("ckpt.chunks_recopied_dirty");
  m_.skipped_unmodified = &metrics_.counter("ckpt.chunks_skipped_unmodified");
  m_.deferred_restoring =
      &metrics_.counter("ckpt.chunks_deferred_restoring");
  m_.blocking_seconds = &metrics_.gauge("ckpt.blocking_seconds");
  m_.precopy_seconds = &metrics_.gauge("ckpt.precopy_seconds");
  m_.protection_faults = &metrics_.gauge("ckpt.protection_faults");
  m_.vmem_faults = &metrics_.gauge("vmem.faults");
  m_.vmem_fault_seconds = &metrics_.gauge("vmem.fault_seconds");
  m_.vmem_mprotect_calls = &metrics_.gauge("vmem.mprotect_calls");
  m_.vmem_log_bytes = &metrics_.gauge("vmem.log.bytes");
  m_.vmem_log_drops = &metrics_.gauge("vmem.log.drops");
  // Blocking times: interesting range spans sub-ms commit flips to
  // multi-second full copies; 1 ms buckets to 5 s.
  m_.blocking_hist =
      &metrics_.histogram("ckpt.blocking_seconds_hist", 0.0, 5.0, 5000);
}

/// In-flight state of one streaming restore, from begin to await.
struct CheckpointManager::StreamingRestore {
  std::uint64_t epoch = 0;
  Stopwatch sw;
  std::vector<alloc::Chunk*> work;
  std::atomic<int> worst{static_cast<int>(RestoreStatus::kOk)};
  std::atomic<int> rolled_back{0};
  std::vector<std::thread> workers;
};

CheckpointManager::~CheckpointManager() {
  if (streaming_) await_restore_streaming();
  stop();
}

void CheckpointManager::start() {
  // The ring GC runs even under kNone: saturation is a property of the
  // device, not of the pre-copy policy.
  if (gc_ && cfg_.epoch_gc_background) gc_->start();
  if (cfg_.local_policy == PrecopyPolicy::kNone) return;
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  engine_ = std::thread([this] { precopy_loop(); });
}

void CheckpointManager::stop() {
  if (gc_) gc_->stop();
  if (!running_.exchange(false)) {
    if (engine_.joinable()) engine_.join();
    return;
  }
  engine_cv_.notify_all();
  if (engine_.joinable()) engine_.join();
}

void CheckpointManager::run_sharded(
    const std::vector<alloc::Chunk*>& work,
    const std::function<void(alloc::Chunk&, BandwidthLimiter*)>& op) {
  if (copy_threads_ == 1 || work.size() <= 1) {
    for (alloc::Chunk* c : work) op(*c, serial_stream());
    return;
  }
  const auto shards = shard_by_size(work, copy_threads_);
  std::vector<std::future<void>> futs;
  futs.reserve(shards.size());
  for (std::size_t w = 0; w < shards.size(); ++w) {
    if (shards[w].empty()) continue;
    BandwidthLimiter* stream =
        shared_stream_ ? shared_stream_ : worker_streams_[w].get();
    const std::vector<alloc::Chunk*>& shard = shards[w];
    futs.push_back(pool_->submit([&op, &shard, stream] {
      for (alloc::Chunk* c : shard) op(*c, stream);
    }));
  }
  // Join every worker before surfacing a failure so no task outlives the
  // shard vectors (or the lock the caller holds).
  std::exception_ptr first;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

double CheckpointManager::learned_interval() const {
  std::lock_guard<std::mutex> lock(learn_mu_);
  return learned_interval_;
}

double CheckpointManager::learned_data_size() const {
  std::lock_guard<std::mutex> lock(learn_mu_);
  return learned_data_;
}

bool CheckpointManager::threshold_reached() const {
  std::lock_guard<std::mutex> lock(learn_mu_);
  if (learned_interval_ <= 0) return false;  // still in the learning phase
  // Under a tenant trunk the DCPC threshold adapts to the *granted* rate:
  // less bandwidth means copies take longer, so pre-copy starts earlier.
  double rate = shared_stream_ ? shared_stream_->rate() : stream_.rate();
  if (rate <= 0) {
    rate = alloc_->container().device().config().spec.write_bandwidth;
  }
  const double t_c = learned_data_ / rate;           // checkpoint time
  const double t_p = learned_interval_ - cfg_.dcpc_margin * t_c;  // threshold
  return now_seconds() - interval_start_ >= std::max(0.0, t_p);
}

void CheckpointManager::precopy_loop() {
  while (running_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(engine_mu_);
      engine_cv_.wait_for(
          lock,
          std::chrono::duration<double>(cfg_.precopy_scan_period),
          [this] { return !running_.load(std::memory_order_acquire); });
    }
    if (!running_.load(std::memory_order_acquire)) return;

    const bool delayed = cfg_.local_policy == PrecopyPolicy::kDcpc ||
                         cfg_.local_policy == PrecopyPolicy::kDcpcp;
    if (delayed && !threshold_reached()) continue;

    const std::uint64_t epoch = next_epoch();
    std::vector<alloc::Chunk*> eligible = alloc_->chunks();
    {
      // The application may delete chunks concurrently: hold them while
      // the metadata-only filter reads them.
      const auto hold = alloc_->hold_live(eligible);
      std::erase_if(eligible, [this](alloc::Chunk* c) {
        if (!c->persistent() || !c->dirty_local()) return true;
        if (restoring_.load(std::memory_order_acquire) &&
            restore_deferred(c->id())) {
          return true;  // still streaming in: nothing meaningful to pre-copy
        }
        // DCPCP: a hot chunk is expected to be modified again, skip it.
        return cfg_.local_policy == PrecopyPolicy::kDcpcp &&
               !prediction_.ready_for_precopy(
                   c->id(), c->tracker().mods_in_interval.load(
                                std::memory_order_acquire));
      });
    }

    // Up to copy_threads_ chunks move concurrently per batch, each on its
    // own NVMBW_core stream (one chunk per batch on the serial path).
    for (std::size_t i = 0; i < eligible.size(); i += copy_threads_) {
      if (!running_.load(std::memory_order_acquire)) return;
      const std::size_t end = std::min(eligible.size(), i + copy_threads_);
      precopy_batch({eligible.begin() + static_cast<std::ptrdiff_t>(i),
                     eligible.begin() + static_cast<std::ptrdiff_t>(end)},
                    epoch);
    }
  }
}

void CheckpointManager::precopy_batch(std::vector<alloc::Chunk*> batch,
                                      std::uint64_t epoch) {
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> passes{0};
  std::atomic<std::uint64_t> nanos{0};
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    // The scan ran without locks: the application may have deleted a
    // chunk since. Drop those, and hold off deletes until the batch is in.
    const auto hold = alloc_->hold_live(batch);
    telemetry::Span span("precopy_batch", "ckpt.local");
    // Batched re-arm: one coalesced protect_batch for the whole batch
    // instead of one mprotect per chunk inside each worker. precopy_chunk
    // still re-arms any chunk a fault disarmed in the window (it compares
    // the fault counter against arm_chunks' snapshot).
    const bool batched = batch_rearm_ && batch.size() > 1;
    if (batched) alloc_->arm_chunks(batch);
    run_sharded(batch, [&, batched](alloc::Chunk& c,
                                    BandwidthLimiter* stream) {
      if (!c.dirty_local()) return;  // raced with the coordinated step
      const double secs = alloc_->precopy_chunk(c, epoch, stream, batched);
      bytes.fetch_add(c.size(), std::memory_order_relaxed);
      passes.fetch_add(1, std::memory_order_relaxed);
      nanos.fetch_add(static_cast<std::uint64_t>(secs * 1e9),
                      std::memory_order_relaxed);
    });
  }
  // Per-worker tallies merge into the registry once, after the join.
  m_.bytes_precopied->add(bytes.load(std::memory_order_relaxed));
  m_.precopy_seconds->add(
      static_cast<double>(nanos.load(std::memory_order_relaxed)) * 1e-9);
  m_.precopy_passes->add(passes.load(std::memory_order_relaxed));
}

double CheckpointManager::nvchkptall() {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  telemetry::Span span("nvchkptall", "ckpt.local");
  const Stopwatch sw;
  const double interval_len = now_seconds() - interval_start_;
  const std::uint64_t epoch = next_epoch();

  std::uint64_t bytes_this_step = 0;
  std::uint64_t bytes_committed_total = 0;
  std::uint64_t committed_precopy = 0, recopied = 0, skipped = 0;
  std::vector<alloc::Chunk*> residual;

  // Classification pass (serial, metadata-only): commit-from-precopy
  // flips and skip decisions are cheap; the residual-dirty copies — the
  // paper's D/BW blocking cost — are collected and sharded below.
  for (alloc::Chunk* c : alloc_->chunks()) {
    if (!c->persistent()) continue;
    if (restoring_.load(std::memory_order_acquire) &&
        restore_deferred(c->id())) {
      // Streaming-restore admission rule: this chunk's payload is still
      // in flight from NVM, so there is nothing consistent to commit yet;
      // it becomes commit-eligible the moment its own restore completes.
      commits_deferred_.fetch_add(1, std::memory_order_relaxed);
      m_.deferred_restoring->add(1);
      continue;
    }
    const bool dirty =
        c->dirty_local() ||
        (!cfg_.skip_unmodified && c->precopied_epoch() != epoch);
    if (!dirty && c->precopied_epoch() == epoch) {
      // Pre-copied and untouched since: the in-progress slot is exactly
      // the current contents; just flip the commit pointer.
      alloc_->commit_chunk(*c, epoch);
      bytes_committed_total += c->size();
      ++committed_precopy;
    } else if (dirty || !c->record().has_committed()) {
      // Residual dirty data: this is the copying the blocking step pays.
      residual.push_back(c);
      bytes_this_step += c->size();
      bytes_committed_total += c->size();
      ++recopied;
    } else {
      // Unmodified since its last commit; its committed payload is still
      // its current value. No copy, no commit (Fig 8's shrinking
      // checkpoint size for GTC's init-only chunks).
      ++skipped;
    }
    prediction_.observe_interval(
        c->id(),
        c->tracker().mods_in_interval.exchange(0,
                                               std::memory_order_acq_rel));
  }

  // Batched re-arm for the residual copies: one coalesced protect_batch
  // replaces per-chunk mprotects (O(runs) syscalls for an adjacent heap).
  const bool batched = batch_rearm_ && residual.size() > 1;
  if (batched) alloc_->arm_chunks(residual);

  // Sharded commit: each worker copies+commits its own chunks on its own
  // NVMBW_core stream. Workers never share a chunk, every commit touches
  // only that chunk's record, and ckpt_mu_ is held across the join, so the
  // crash-ordering of each per-chunk commit is unchanged from the serial
  // path.
  run_sharded(residual, [this, epoch, batched](alloc::Chunk& c,
                                               BandwidthLimiter* stream) {
    alloc_->checkpoint_chunk(c, epoch, stream, batched);
  });

  next_epoch_.fetch_add(1, std::memory_order_acq_rel);
  const double blocking = sw.elapsed();

  refresh_vmem_metrics();
  m_.local_checkpoints->add(1);
  m_.blocking_seconds->add(blocking);
  m_.blocking_hist->observe(blocking);
  m_.bytes_coordinated->add(bytes_this_step);
  m_.committed_from_precopy->add(committed_precopy);
  m_.recopied_dirty->add(recopied);
  m_.skipped_unmodified->add(skipped);
  {
    std::lock_guard<std::mutex> llock(learn_mu_);
    const double a = cfg_.learn_alpha;
    learned_interval_ = learned_interval_ <= 0
                            ? interval_len
                            : a * interval_len + (1 - a) * learned_interval_;
    const double data = static_cast<double>(bytes_committed_total);
    learned_data_ =
        learned_data_ <= 0 ? data : a * data + (1 - a) * learned_data_;
    interval_start_ = now_seconds();
  }
  log_debug("nvchkptall: epoch=%llu blocking=%s coordinated=%s "
            "(precopy-committed=%llu recopied=%llu skipped=%llu)",
            static_cast<unsigned long long>(epoch),
            format_seconds(blocking).c_str(),
            format_bytes(static_cast<double>(bytes_this_step)).c_str(),
            static_cast<unsigned long long>(committed_precopy),
            static_cast<unsigned long long>(recopied),
            static_cast<unsigned long long>(skipped));
  return blocking;
}

double CheckpointManager::nvchkptid(std::uint64_t id) {
  alloc::Chunk* c = alloc_->find(id);
  if (!c) throw NvmcpError("nvchkptid: unknown chunk");
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  telemetry::Span span("nvchkptid", "ckpt.local");
  const std::uint64_t epoch = next_epoch();
  const double secs = alloc_->checkpoint_chunk(*c, epoch, serial_stream());
  m_.bytes_coordinated->add(c->size());
  return secs;
}

RestoreStatus CheckpointManager::restore_all() {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  telemetry::Span span("restore_all", "ckpt.restart");
  std::vector<alloc::Chunk*> work;
  for (alloc::Chunk* c : alloc_->chunks()) {
    if (c->persistent()) work.push_back(c);
  }
  // Sharded restore: NVM reads are fast (Table I) but still metered by the
  // device-global limiter, so concurrent readers overlap their throttle
  // sleeps. The worst status is folded with an atomic max (RestoreStatus
  // values are ordered by severity).
  std::atomic<int> worst{static_cast<int>(RestoreStatus::kOk)};
  run_sharded(work, [this, &worst](alloc::Chunk& c, BandwidthLimiter*) {
    const int st = static_cast<int>(alloc_->restore_chunk(c));
    int cur = worst.load(std::memory_order_relaxed);
    while (st > cur && !worst.compare_exchange_weak(
                           cur, st, std::memory_order_relaxed)) {
    }
  });
  return static_cast<RestoreStatus>(worst.load(std::memory_order_relaxed));
}

bool CheckpointManager::restore_deferred(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(restore_mu_);
  return restore_pending_.count(id) != 0;
}

void CheckpointManager::begin_restore_streaming(std::uint64_t epoch) {
  if (streaming_) {
    throw NvmcpError("begin_restore_streaming: a restore is already running");
  }
  auto st = std::make_unique<StreamingRestore>();
  st->epoch = epoch;
  {
    // Setup under the commit mutex so no checkpoint round is mid-flight
    // while the admission set fills; the restore itself then runs WITHOUT
    // the mutex -- that concurrency is the whole point.
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    for (alloc::Chunk* c : alloc_->chunks()) {
      if (c->persistent()) st->work.push_back(c);
    }
    {
      std::lock_guard<std::mutex> rlock(restore_mu_);
      restore_pending_.clear();
      for (alloc::Chunk* c : st->work) restore_pending_.insert(c->id());
    }
    commits_deferred_.store(0, std::memory_order_relaxed);
    restoring_.store(true, std::memory_order_release);
    if (epoch != 0) {
      // An explicitly requested older epoch is reclaimable (the newest
      // committed version never is): pin every source slot up front so
      // neither the GC nor a commit recycling ring slots can reclaim a
      // source before its chunk's turn comes.
      for (alloc::Chunk* c : st->work) alloc_->pin_epoch(*c, epoch);
    }
  }

  // Dedicated worker threads rather than the shared copier pool: commit
  // rounds shard over that pool, and restore shards queued ahead of them
  // would serialize the very commits this path exists to admit.
  const std::size_t nworkers =
      std::max<std::size_t>(1, std::min(copy_threads_, st->work.size()));
  for (auto& shard : shard_by_size(st->work, nworkers)) {
    if (shard.empty()) continue;
    st->workers.emplace_back([this, s = st.get(), shard = std::move(shard)] {
      for (alloc::Chunk* c : shard) restore_streaming_chunk(*s, *c);
    });
  }
  streaming_ = std::move(st);
}

void CheckpointManager::restore_streaming_chunk(StreamingRestore& st,
                                                alloc::Chunk& c) {
  RestoreStatus status = alloc_->restore_chunk_epoch(c, st.epoch);
  if (status == RestoreStatus::kChecksumMismatch ||
      status == RestoreStatus::kNoData) {
    // Target epoch bad or gone: walk back to the newest older retained
    // epoch that still verifies.
    for (const std::uint64_t e : alloc_->retained_epochs(c)) {
      if (st.epoch != 0 && e >= st.epoch) continue;
      const RestoreStatus alt = alloc_->restore_chunk_epoch(c, e);
      if (alt == RestoreStatus::kOk || alt == RestoreStatus::kOkStale) {
        status = RestoreStatus::kOkStale;
        st.rolled_back.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }
  int cur = st.worst.load(std::memory_order_relaxed);
  const int sti = static_cast<int>(status);
  while (sti > cur && !st.worst.compare_exchange_weak(
                          cur, sti, std::memory_order_relaxed)) {
  }
  // Admit commits for this chunk from the next round on -- even when its
  // restore failed: leaving it deferred forever would silently exclude it
  // from every future checkpoint.
  std::lock_guard<std::mutex> rlock(restore_mu_);
  restore_pending_.erase(c.id());
}

CheckpointManager::StreamingRestoreReport
CheckpointManager::await_restore_streaming() {
  if (!streaming_) {
    throw NvmcpError("await_restore_streaming: no restore is running");
  }
  std::unique_ptr<StreamingRestore> st = std::move(streaming_);
  for (auto& w : st->workers) w.join();

  if (st->epoch != 0) {
    for (alloc::Chunk* c : st->work) alloc_->unpin_epoch(*c, st->epoch);
  }
  restoring_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> rlock(restore_mu_);
    restore_pending_.clear();
  }
  StreamingRestoreReport rep;
  rep.status = static_cast<RestoreStatus>(st->worst.load());
  rep.chunks = static_cast<int>(st->work.size());
  rep.chunks_rolled_back = st->rolled_back.load();
  rep.commits_deferred = commits_deferred_.load(std::memory_order_relaxed);
  rep.seconds = st->sw.elapsed();
  log_debug("restore_streaming: epoch=%llu chunks=%d rolled_back=%d "
            "deferred_commits=%llu status=%s",
            static_cast<unsigned long long>(st->epoch), rep.chunks,
            rep.chunks_rolled_back,
            static_cast<unsigned long long>(rep.commits_deferred),
            to_string(rep.status));
  return rep;
}

CheckpointManager::StreamingRestoreReport CheckpointManager::restore_streaming(
    std::uint64_t epoch) {
  begin_restore_streaming(epoch);
  return await_restore_streaming();
}

void CheckpointManager::refresh_vmem_metrics() const {
  // Dirty-tracking costs live in the chunk trackers (bumped from the
  // SIGSEGV handler / log append, where only raw atomics are safe); sum
  // them into the registry so snapshots carry the numbers too. The
  // mprotect count is process-global (singleton manager): multi-rank
  // drivers overwrite that gauge after merging rank registries.
  std::uint64_t faults = 0, fault_ns = 0, log_bytes = 0, log_drops = 0;
  for (const alloc::Chunk* c : alloc_->chunks()) {
    const auto& t = c->tracker();
    faults += t.faults.load(std::memory_order_relaxed);
    fault_ns += t.fault_ns.load(std::memory_order_relaxed);
    log_bytes += t.log_bytes.load(std::memory_order_relaxed);
    log_drops += t.log_drops.load(std::memory_order_relaxed);
  }
  m_.protection_faults->set(static_cast<double>(faults));
  m_.vmem_faults->set(static_cast<double>(faults));
  m_.vmem_fault_seconds->set(static_cast<double>(fault_ns) * 1e-9);
  m_.vmem_mprotect_calls->set(static_cast<double>(
      vmem::ProtectionManager::instance().total_mprotect_calls()));
  m_.vmem_log_bytes->set(static_cast<double>(log_bytes));
  m_.vmem_log_drops->set(static_cast<double>(log_drops));
}

CheckpointStats CheckpointManager::stats() const {
  refresh_vmem_metrics();
  CheckpointStats s;
  s.local_checkpoints = m_.local_checkpoints->value();
  s.local_blocking_seconds = m_.blocking_seconds->value();
  s.bytes_coordinated = m_.bytes_coordinated->value();
  s.bytes_precopied = m_.bytes_precopied->value();
  s.precopy_seconds = m_.precopy_seconds->value();
  s.precopy_passes = m_.precopy_passes->value();
  s.chunks_committed_from_precopy = m_.committed_from_precopy->value();
  s.chunks_recopied_dirty = m_.recopied_dirty->value();
  s.chunks_skipped_unmodified = m_.skipped_unmodified->value();
  s.protection_faults =
      static_cast<std::uint64_t>(m_.vmem_faults->value());
  s.fault_seconds = m_.vmem_fault_seconds->value();
  s.mprotect_calls =
      static_cast<std::uint64_t>(m_.vmem_mprotect_calls->value());
  s.log_bytes = static_cast<std::uint64_t>(m_.vmem_log_bytes->value());
  s.log_drops = static_cast<std::uint64_t>(m_.vmem_log_drops->value());
  return s;
}

}  // namespace nvmcp::core
