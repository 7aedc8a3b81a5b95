#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>

#include "common/units.hpp"

namespace perfbench {
namespace {

using nvmcp::KiB;
using nvmcp::MiB;
using nvmcp::vmem::TrackMode;

/// Nominal size scaled the way apps::run_workload scales it:
/// rounded up to 64 B, at least one page.
std::size_t scaled(std::size_t nominal, double scale) {
  return std::max<std::size_t>(
      nvmcp::kNvmPageSize,
      nvmcp::round_up(
          static_cast<std::size_t>(static_cast<double>(nominal) * scale), 64));
}

void add(WorkloadDef& w, int count, const std::string& stem, ChunkDef proto) {
  for (int i = 0; i < count; ++i) {
    ChunkDef c = proto;
    c.name = stem + "_" + std::to_string(i);
    w.chunks.push_back(std::move(c));
  }
}

std::uint64_t* words(nvmcp::alloc::Chunk& c) {
  return static_cast<std::uint64_t*>(c.data());
}

void fill_random(nvmcp::alloc::Chunk& c, nvmcp::Rng& rng) {
  std::uint64_t* w = words(c);
  const std::size_t n = c.size() / 8;
  for (std::size_t i = 0; i < n; ++i) w[i] = rng.next_u64();
}

/// A smooth field: 32-bit samples of 1000*sin over a 64K-sample period, so
/// neighbouring samples repeat (LZ-friendly) while a shifted rewrite
/// changes nearly every word (XOR-delta-hostile).
void fill_smooth(nvmcp::alloc::Chunk& c, std::uint32_t shift) {
  static const std::vector<std::int32_t> table = [] {
    std::vector<std::int32_t> t(1u << 16);
    for (std::size_t j = 0; j < t.size(); ++j) {
      t[j] = static_cast<std::int32_t>(std::lround(
          1000.0 * std::sin(2.0 * std::numbers::pi * static_cast<double>(j) /
                            static_cast<double>(t.size()))));
    }
    return t;
  }();
  auto* p = static_cast<std::int32_t*>(c.data());
  const std::size_t n = c.size() / 4;
  for (std::size_t i = 0; i < n; ++i) p[i] = table[(i + shift) & 0xffffu];
}

void notify_whole(nvmcp::alloc::Chunk& c, TrackMode track) {
  // Fault tracking already saw the stores; the other modes are told once
  // that the whole chunk changed.
  if (track == TrackMode::kWriteLog || track == TrackMode::kSoftware) {
    c.notify_write();
  }
}

WorkloadDef kv_smallwrite() {
  // The WorkloadSpec::redis() shape at full size: 24 x 4 MiB value shards
  // taking 32 x 64 B stores per iteration (half uniform, half 90/10 hot)
  // plus two 8 MiB index chunks rewritten wholesale. Write-log tracking,
  // a depth-4 version ring on a 10x device (unsaturated), GC inline.
  WorkloadDef w;
  w.name = "kv_smallwrite";
  add(w, 12, "kv_uniform",
      ChunkDef{{}, 4 * MiB, Shape::kSmallRandom, 32, 0.0});
  add(w, 12, "kv_hot", ChunkDef{{}, 4 * MiB, Shape::kSmallRandom, 32, 0.9});
  add(w, 2, "kv_index", ChunkDef{{}, 8 * MiB, Shape::kRandom});
  w.track = TrackMode::kWriteLog;
  w.ring_depth = 4;
  w.copy_threads = 1;
  w.gc_inline = true;
  w.iters_per_ckpt = 4;
  // Until every slot of the ring (depth + 1) has been written once, a
  // commit copies whole chunks; these intervals fill it.
  w.determinism_intervals = 4;
  return w;
}

WorkloadDef bulk_remote() {
  // The WorkloadSpec::gtc() chunk set at 1/8 size (~53 MiB): particle
  // arrays with sparse word churn (delta-friendly), a smooth field
  // (LZ-friendly), random diagnostics (raw) and two init-only tables.
  // One synchronous coordination round per checkpoint over a 250 MB/s
  // link to a buddy store; adaptive codec; hard restarts from the buddy.
  WorkloadDef w;
  w.name = "bulk_remote";
  const double s = 1.0 / 8;
  add(w, 4, "gtc_diag", ChunkDef{{}, scaled(800 * KiB, s), Shape::kRandom});
  add(w, 1, "gtc_field", ChunkDef{{}, scaled(14 * MiB, s), Shape::kSmooth});
  add(w, 2, "gtc_zion",
      ChunkDef{{}, scaled(103 * MiB, s), Shape::kSparseWords});
  add(w, 2, "gtc_static",
      ChunkDef{{}, scaled(101 * MiB, s), Shape::kInitOnly});
  w.track = TrackMode::kMprotect;
  w.ring_depth = 2;
  w.copy_threads = 2;
  w.remote = true;
  w.iters_per_ckpt = 1;
  w.determinism_intervals = 3;
  w.restarts = 36;  // soft ones are cheap here; kHardRestarts hard ones too
  return w;
}

WorkloadDef pcm_precopy() {
  // The paper's shape: the WorkloadSpec::lammps_rhodo() chunk set (hot-
  // until-end result arrays included) with size and compute time scaled
  // by 1/128, so one sleeping compute phase is 78 ms and one checkpoint
  // follows each phase. Emulated PCM (device throttle, NVMBW_core
  // 400 MiB/s) and DCPCP pre-copy on the manager's engine thread.
  WorkloadDef w;
  w.name = "pcm_precopy";
  const double s = 1.0 / 128;
  ChunkDef every{{}, 0, Shape::kPhased};
  every.bytes = scaled(900 * KiB, s);
  add(w, 5, "lmp_small", every);
  ChunkDef periodic{{}, scaled(4 * MiB, s), Shape::kPhased};
  periodic.period = 2;
  add(w, 12, "lmp_neigh", periodic);
  every.bytes = scaled(18 * MiB, s);
  add(w, 7, "lmp_force", every);
  ChunkDef hot{{}, scaled(30 * MiB, s), Shape::kPhased};
  hot.mods = 3;
  hot.hot_until_end = true;
  add(w, 4, "lmp_result3d", hot);
  every.bytes = scaled(36 * MiB, s);
  every.mods = 2;
  add(w, 3, "lmp_pos", every);
  w.track = TrackMode::kMprotect;
  w.ring_depth = 1;
  w.copy_threads = 1;
  w.policy = nvmcp::core::PrecopyPolicy::kDcpcp;
  w.pcm = true;
  w.iters_per_ckpt = 1;
  w.phase_seconds = 10.0 / 128;
  w.warmup_ckpts = 10;
  // A restart here is a few ms dominated by per-read sleeps: more of them
  // steady the median.
  w.restarts = 96;
  return w;
}

}  // namespace

std::size_t WorkloadDef::payload_bytes() const {
  std::size_t n = 0;
  for (const ChunkDef& c : chunks) n += c.bytes;
  return n;
}

std::vector<std::string> workload_names() {
  return {"kv_smallwrite", "bulk_remote", "pcm_precopy"};
}

WorkloadDef workload_def(const std::string& name) {
  if (name == "kv_smallwrite") return kv_smallwrite();
  if (name == "bulk_remote") return bulk_remote();
  if (name == "pcm_precopy") return pcm_precopy();
  throw std::invalid_argument("unknown workload: " + name);
}

void fill_initial(const ChunkDef& def, nvmcp::alloc::Chunk& c,
                  nvmcp::Rng& rng) {
  if (def.shape == Shape::kSmooth) {
    fill_smooth(c, 0);
  } else {
    fill_random(c, rng);
  }
}

void mutate_chunk(const ChunkDef& def, nvmcp::alloc::Chunk& c, int iter,
                  nvmcp::Rng& rng, TrackMode track) {
  std::uint64_t* w = words(c);
  const std::size_t nw = c.size() / 8;
  switch (def.shape) {
    case Shape::kSmallRandom: {
      constexpr std::size_t kStore = 64;
      for (int i = 0; i < def.writes; ++i) {
        const std::size_t span =
            def.hot > 0 && rng.next_double() < def.hot ? c.size() / 10
                                                       : c.size();
        const std::size_t off = rng.next_below(span - kStore) & ~std::size_t{7};
        for (std::size_t b = 0; b < kStore; b += 8) w[(off + b) / 8] = rng.next_u64();
        // Store, then log: the record orders the bytes for the copier.
        c.log_write(off, kStore);
      }
      return;
    }
    case Shape::kRandom:
      for (std::size_t i = 0; i < nw; ++i) w[i] = rng.next_u64();
      notify_whole(c, track);
      return;
    case Shape::kSparseWords:
      for (std::size_t i = 0; i < nw / 64; ++i) {
        w[rng.next_below(nw)] = rng.next_u64();
      }
      notify_whole(c, track);
      return;
    case Shape::kSmooth:
      fill_smooth(c, static_cast<std::uint32_t>(iter + 1) * 997u);
      notify_whole(c, track);
      return;
    case Shape::kInitOnly:
    case Shape::kPhased:
      return;
  }
}

void touch_phased(nvmcp::alloc::Chunk& c, nvmcp::Rng& rng, TrackMode track) {
  // One word per 256 B: every page changes while the store cost stays low
  // (apps::run_workload touches chunks the same way).
  auto* p = static_cast<std::byte*>(c.data());
  for (std::size_t off = 0; off + 8 <= c.size(); off += 256) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(p + off, &v, 8);
  }
  notify_whole(c, track);
}

std::vector<double> phase_points(const ChunkDef& def, int iter) {
  std::vector<double> out;
  if (iter % std::max(1, def.period) != 0) return out;
  for (int m = 0; m < def.mods; ++m) {
    const double k = static_cast<double>(m + 1) / static_cast<double>(def.mods);
    // Early in the phase, leaving the tail for pre-copy; hot chunks keep
    // changing almost to the end, which is what DCPCP learns to wait for.
    out.push_back(std::min(def.hot_until_end ? 0.2 + 0.78 * k : 0.05 + 0.45 * k,
                           0.99));
  }
  return out;
}

}  // namespace perfbench
