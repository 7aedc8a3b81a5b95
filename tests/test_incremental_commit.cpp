// Incremental (write-log and page-mode) commits: the linear checksum
// update keeps every published slot checksum equal to the CRC of the
// slot, clean-byte corruption of a reused slot is detected rather than
// laundered, a rollback voids the pending lists, and the lists stay
// bounded.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "epoch/directory.hpp"
#include "epoch/version_ring.hpp"
#include "nvm/device.hpp"
#include "vmem/container.hpp"

namespace nvmcp {
namespace {

using vmem::TrackMode;

constexpr std::size_t kChunk = 256 * KiB;

struct Rig {
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> cont;
  std::unique_ptr<alloc::ChunkAllocator> alloc;
  alloc::Chunk* c = nullptr;
  TrackMode mode;

  Rig(int depth, TrackMode m) : mode(m) {
    NvmConfig cfg;
    cfg.capacity = 16 * MiB;
    cfg.throttle = false;
    dev = std::make_unique<NvmDevice>(cfg);
    cont = std::make_unique<vmem::Container>(*dev);
    alloc::ChunkAllocator::Options opts;
    opts.track_mode = m;
    opts.ring_depth = depth;
    opts.dirty_log_merge_gap = 512;
    opts.dirty_log_max_coverage = 0.5;
    alloc = std::make_unique<alloc::ChunkAllocator>(*cont, opts);
    c = alloc->nvalloc("inc", kChunk, true);
    fill(0, kChunk, 1);
  }

  /// Store random bytes into [off, off+len) of DRAM, logged in write-log
  /// mode (page mode tracks the store through its fault).
  void fill(std::size_t off, std::size_t len, std::uint64_t seed) {
    Rng rng(seed);
    auto* p = static_cast<std::byte*>(c->data());
    for (std::size_t i = 0; i < len; ++i) {
      p[off + i] = static_cast<std::byte>(rng.next_u64());
    }
    if (mode == TrackMode::kWriteLog) c->log_write(off, len);
  }

  /// A few small scattered stores, as a KV workload makes. The first
  /// 4 KiB stay clean after the initial fill.
  void scribble(Rng& rng, int writes) {
    for (int i = 0; i < writes; ++i) {
      const std::size_t len = 1 + rng.next_below(200);
      fill(4 * KiB + rng.next_below(kChunk - 4 * KiB - len), len,
           rng.next_u64());
    }
  }

  /// The committed payload, read and verified through the allocator.
  bool read_back_equals_dram() const {
    std::vector<std::byte> out(kChunk);
    return alloc->read_committed(*c, out.data()) &&
           std::memcmp(out.data(), c->data(), kChunk) == 0;
  }

  const std::byte* slot(std::uint64_t off) const { return dev->data() + off; }

  bool committed_equals_dram() const {
    const vmem::ChunkRecord& rec = c->record();
    return rec.has_committed() &&
           std::memcmp(slot(rec.slot_off[rec.committed]), c->data(),
                       kChunk) == 0;
  }

  /// Every checksum a slot was published with is the CRC of that slot.
  void expect_checksums_match(const char* where) const {
    const vmem::ChunkRecord& rec = c->record();
    if (auto* dir = alloc->epoch_directory()) {
      for (const epoch::RingSlot& s : dir->ring(c->id())->snapshot_slots()) {
        if (!s.committed()) continue;
        EXPECT_EQ(crc64(slot(s.off), kChunk), s.checksum)
            << where << ": ring slot of epoch " << s.epoch;
      }
    } else {
      for (int i = 0; i < 2; ++i) {
        if (rec.epoch[i] == 0) continue;
        EXPECT_EQ(crc64(slot(rec.slot_off[i]), kChunk), rec.checksum[i])
            << where << ": two-slot " << i << " epoch " << rec.epoch[i];
      }
    }
  }

  /// Device bytes written so far (payload plus a few hundred bytes of
  /// record metadata per commit).
  std::uint64_t bytes_written() const { return dev->stats().bytes_written; }
};

struct Case {
  int depth;
  TrackMode mode;
};

class IncrementalCommit : public ::testing::TestWithParam<Case> {};

// Random dirty ranges, with some cycles pre-copied, re-dirtied and
// re-copied before their commit: every published checksum always equals
// the CRC of its slot, and the committed slot always equals DRAM.
TEST_P(IncrementalCommit, PublishedChecksumsMatchSlots) {
  Rig r(GetParam().depth, GetParam().mode);
  Rng rng(42);
  std::uint64_t incremental = 0;
  for (std::uint64_t e = 1; e <= 40; ++e) {
    r.scribble(rng, 1 + static_cast<int>(rng.next_below(30)));
    if (rng.next_below(3) == 0) {
      r.alloc->precopy_chunk(*r.c, e);
      r.scribble(rng, static_cast<int>(rng.next_below(5)));
    }
    const std::uint64_t before = r.bytes_written();
    r.alloc->checkpoint_chunk(*r.c, e);
    if (r.bytes_written() - before < kChunk) ++incremental;
    ASSERT_TRUE(r.committed_equals_dram()) << "epoch " << e;
    r.expect_checksums_match("after commit");
    ASSERT_TRUE(r.read_back_equals_dram()) << "epoch " << e;
  }
  EXPECT_GT(incremental, 20u) << "commits never took the incremental path";
}

// A clean byte flipped in a slot that a later commit reuses is carried
// into that commit's checksum: restore reports the mismatch instead of
// returning the flipped byte as good data.
TEST_P(IncrementalCommit, CleanByteFlipInReusedSlotIsDetected) {
  const int depth = GetParam().depth;
  Rig r(depth, GetParam().mode);
  Rng rng(7);
  // depth + 1 whole commits fill the slots; the next commit reuses one.
  std::uint64_t e = 1;
  for (; e <= static_cast<std::uint64_t>(depth) + 1; ++e) {
    r.scribble(rng, 10);
    r.alloc->checkpoint_chunk(*r.c, e);
  }
  const std::vector<std::byte> previous(
      static_cast<const std::byte*>(r.c->data()),
      static_cast<const std::byte*>(r.c->data()) + kChunk);
  // The slot the next commit lands in: the two-slot in-progress slot, or
  // the ring's oldest committed epoch.
  const vmem::ChunkRecord& rec = r.c->record();
  std::uint64_t victim = rec.slot_off[rec.in_progress_slot()];
  if (auto* dir = r.alloc->epoch_directory()) {
    std::uint64_t oldest = ~0ULL;
    for (const epoch::RingSlot& s : dir->ring(r.c->id())->snapshot_slots()) {
      if (s.committed() && s.epoch < oldest) {
        oldest = s.epoch;
        victim = s.off;
      }
    }
  }
  // Byte 7 of the chunk is never written after the first fill.
  r.dev->data()[victim + 7] ^= std::byte{0x40};
  r.fill(kChunk / 2, 64, 99);
  const std::uint64_t before = r.bytes_written();
  r.alloc->checkpoint_chunk(*r.c, e);
  ASSERT_LT(r.bytes_written() - before, kChunk) << "commit was not incremental";
  ASSERT_EQ(rec.slot_off[rec.committed], victim);

  EXPECT_EQ(r.alloc->restore_chunk(*r.c), RestoreStatus::kChecksumMismatch);
  if (depth == 1) return;  // nothing older to walk back to

  // Depth 4: the previous epoch restores byte-exact...
  EXPECT_EQ(r.alloc->restore_chunk_epoch(*r.c, e - 1),
            RestoreStatus::kOkStale);
  EXPECT_EQ(std::memcmp(r.c->data(), previous.data(), kChunk), 0);
  EXPECT_GT(r.alloc->epoch_directory()->slot_corruptions(), 0u);
  // ...and, since DRAM no longer matches any slot's pending list, the
  // next commit rewrites its slot whole and publishes a good checksum.
  r.scribble(rng, 3);
  const std::uint64_t before_next = r.bytes_written();
  r.alloc->checkpoint_chunk(*r.c, e + 1);
  EXPECT_GE(r.bytes_written() - before_next, kChunk);
  EXPECT_TRUE(r.committed_equals_dram());
  EXPECT_EQ(r.alloc->restore_chunk(*r.c), RestoreStatus::kOk);
}

// A local read that fails verification marks only its slot: that slot is
// rewritten whole the next time a commit lands in it, which heals it.
TEST_P(IncrementalCommit, FailedReadRewritesTheSlotWholeAtItsNextCommit) {
  const int depth = GetParam().depth;
  Rig r(depth, GetParam().mode);
  Rng rng(9);
  std::uint64_t e = 1;
  for (; e <= static_cast<std::uint64_t>(depth) + 1; ++e) {
    r.scribble(rng, 10);
    r.alloc->checkpoint_chunk(*r.c, e);
  }
  const vmem::ChunkRecord& rec = r.c->record();
  const std::uint64_t bad = rec.slot_off[rec.committed];
  r.dev->data()[bad + 7] ^= std::byte{0x40};
  std::vector<std::byte> out(kChunk);
  EXPECT_FALSE(r.alloc->read_committed(*r.c, out.data()));
  // Commits cycle through the slots; only the one landing in `bad` is
  // whole, and every published checksum holds afterwards.
  bool healed = false;
  for (int i = 0; i < depth + 1; ++i, ++e) {
    r.scribble(rng, 5);
    const std::uint64_t before = r.bytes_written();
    r.alloc->checkpoint_chunk(*r.c, e);
    const bool whole = r.bytes_written() - before >= kChunk;
    EXPECT_EQ(whole, rec.slot_off[rec.committed] == bad) << "epoch " << e;
    healed |= whole;
    EXPECT_TRUE(r.committed_equals_dram());
  }
  EXPECT_TRUE(healed);
  r.expect_checksums_match("after the heal");
}

// Rolling DRAM back to an older epoch must void every slot's pending
// list: a slot holding a newer epoch differs from the restored DRAM in
// ranges no list records any more.
TEST(IncrementalCommitRollback, CommitsAfterRollbackMatchDram) {
  for (const TrackMode mode :
       {TrackMode::kWriteLog, TrackMode::kMprotectPage}) {
    SCOPED_TRACE(vmem::to_string(mode));
    Rig r(/*depth=*/4, mode);
    Rng rng(5);
    std::uint64_t e = 1;
    for (; e <= 8; ++e) {
      r.scribble(rng, 40);
      r.alloc->checkpoint_chunk(*r.c, e);
    }
    ASSERT_EQ(r.alloc->restore_chunk_epoch(*r.c, 5), RestoreStatus::kOkStale);
    for (int i = 0; i < 12; ++i, ++e) {
      r.scribble(rng, 40);
      r.alloc->checkpoint_chunk(*r.c, e);
      EXPECT_TRUE(r.committed_equals_dram()) << "commit " << i << " after";
      r.expect_checksums_match("after rollback");
    }
  }
}

// Every commit appends its ranges to every slot's list, but only slots a
// ring acquires are ever consumed: lists that already cover the chunk
// take nothing more, so the total stays bounded.
TEST_P(IncrementalCommit, PendingListsStayBounded) {
  const int depth = GetParam().depth;
  Rig r(depth, GetParam().mode);
  Rng rng(3);
  constexpr int kWrites = 20;
  // Each consumed list holds at most the ranges of the depth + 1 commits
  // since its slot was last written; the rest are one whole entry each.
  const std::size_t bound =
      epoch::kMaxRingSlots +
      static_cast<std::size_t>((depth + 1) * (depth + 1) * kWrites);
  for (std::uint64_t e = 1; e <= 50; ++e) {
    r.scribble(rng, kWrites);
    r.alloc->checkpoint_chunk(*r.c, e);
    ASSERT_LE(r.c->pending_range_entries(), bound) << "epoch " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndModes, IncrementalCommit,
    ::testing::Values(Case{1, TrackMode::kWriteLog},
                      Case{4, TrackMode::kWriteLog},
                      Case{1, TrackMode::kMprotectPage},
                      Case{4, TrackMode::kMprotectPage}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.mode == TrackMode::kWriteLog ? "WriteLog"
                                                                 : "Page") +
             "Depth" + std::to_string(info.param.depth);
    });

}  // namespace
}  // namespace nvmcp
