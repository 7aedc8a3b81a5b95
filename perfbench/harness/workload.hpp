// The benchmark's three workloads. Every knob the library would otherwise
// take from its environment is pinned here, so a workload means the same
// thing on every host and in every CI job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc/chunk.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "vmem/protection.hpp"

namespace perfbench {

/// How the application writes one chunk.
enum class Shape : std::uint8_t {
  kSmallRandom,  // 64 B stores at random offsets (uniform or 90/10 hot)
  kRandom,       // every word rewritten with random words
  kSparseWords,  // ~1/64 of the words change on a random base
  kSmooth,       // rewritten with a slowly varying (compressible) field
  kInitOnly,     // written once at set-up, never again
  kPhased,       // touched at fixed points inside a sleeping compute phase
};

struct ChunkDef {
  std::string name;
  std::size_t bytes = 0;
  Shape shape = Shape::kRandom;
  int writes = 0;     // kSmallRandom: stores per iteration
  double hot = 0;     // kSmallRandom: share of stores in the first 10%
  int mods = 1;       // kPhased: touches per phase
  int period = 1;     // kPhased: touched every `period`-th phase
  bool hot_until_end = false;  // kPhased: touches run to the phase's end
};

/// Every local device holds this many times its workload's payload: the
/// rings stay unsaturated (at 5x, kv_smallwrite's ring flips to whole-chunk
/// copies and then runs out of NVM).
inline constexpr double kCapacityFactor = 10;
/// Emulated PCM: the device throttle plus this NVMBW_core stream rate.
inline constexpr double kPcmCoreBandwidth = 400.0 * 1024 * 1024;
/// The checkpoint link to the buddy store, bytes/s.
inline constexpr double kLinkBandwidth = 250e6;

struct WorkloadDef {
  std::string name;
  std::vector<ChunkDef> chunks;

  // Library knobs (pinned; recorded with every result).
  nvmcp::vmem::TrackMode track = nvmcp::vmem::TrackMode::kMprotect;
  int ring_depth = 1;
  std::size_t copy_threads = 1;
  nvmcp::core::PrecopyPolicy policy = nvmcp::core::PrecopyPolicy::kNone;
  bool pcm = false;        // emulated PCM; otherwise unthrottled
  bool gc_inline = false;  // EpochGc::run_pass after each checkpoint
  /// A buddy store behind a kLinkBandwidth link: adaptive codec, one
  /// coordinate_now per checkpoint, hard restarts besides soft ones.
  bool remote = false;

  // Application loop.
  int iters_per_ckpt = 1;
  double phase_seconds = 0;  // 0 = stores issued back to back
  int warmup_ckpts = 0;      // learning checkpoints counted as set-up
  int determinism_intervals = 0;  // fixed intervals compared across set-ups
  int restarts = 12;              // soft restarts after the loop

  std::size_t payload_bytes() const;
};

/// The named workload; throws std::invalid_argument for an unknown name.
WorkloadDef workload_def(const std::string& name);
std::vector<std::string> workload_names();

/// Initial contents of a chunk at set-up.
void fill_initial(const ChunkDef& def, nvmcp::alloc::Chunk& c,
                  nvmcp::Rng& rng);

/// One application iteration's stores into a chunk (not kPhased), followed
/// by whatever notification the tracking mode needs.
void mutate_chunk(const ChunkDef& def, nvmcp::alloc::Chunk& c, int iter,
                  nvmcp::Rng& rng, nvmcp::vmem::TrackMode track);

/// One touch of a kPhased chunk.
void touch_phased(nvmcp::alloc::Chunk& c, nvmcp::Rng& rng,
                  nvmcp::vmem::TrackMode track);

/// Positions (fractions of the phase) at which a kPhased chunk is touched
/// in phase `iter`; empty when it rests this phase.
std::vector<double> phase_points(const ChunkDef& def, int iter);

}  // namespace perfbench
