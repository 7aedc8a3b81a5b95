#include "epoch/version_ring.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "epoch/directory.hpp"

namespace nvmcp::epoch {

VersionRing::Acquired VersionRing::acquire_for_commit() {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  return acquire_locked();
}

VersionRing::Acquired VersionRing::acquire_locked() {
  // Slot budget: depth committed versions + one in-flight copy. A pinned
  // victim can push us one slot past the budget (up to kMaxRingSlots).
  const std::uint32_t budget =
      std::min(rec_->depth + 1, kMaxRingSlots);

  Acquired out;
  // 1) An existing in-progress slot (a pre-copy being redone before its
  //    commit) is always reused, preserving its pending-list state.
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (rec_->slots[i].state == RingSlot::kInProgress) {
      out.index = i;
      out.off = rec_->slots[i].off;
      out.fresh = false;  // caller's pending lists already track this slot
      out.had_committed = false;
      return out;
    }
  }
  // 2) A free slot within budget; allocate its payload region lazily. A
  //    lazy allocation is the one place a ring grows its device footprint,
  //    so it is where the tenant quota is enforced: if the charge would
  //    exceed the budget, skip the slot and fall through to victim reuse
  //    below — quota pressure resolves by recycling this tenant's own
  //    oldest epoch (self-eviction), never by growing past the budget.
  for (std::uint32_t i = 0; i < budget; ++i) {
    RingSlot& s = rec_->slots[i];
    if (s.state != RingSlot::kFree) continue;
    if (s.off == 0) {
      if (quota_ && !quota_->try_charge(rec_->payload_bytes)) continue;
      s.off = dir_->container_->alloc_region(rec_->payload_bytes);
    }
    s.state = RingSlot::kInProgress;
    s.epoch = 0;
    s.checksum = 0;
    persist_locked();
    out.index = i;
    out.off = s.off;
    out.fresh = true;  // contents are garbage (new region or torn copy)
    return out;
  }
  // 3) Reuse the oldest unpinned committed slot that is not the newest
  //    epoch (the record's committed pointer aliases the newest slot).
  const std::uint32_t newest = newest_index_locked();
  std::uint32_t victim = kInvalidSlot;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    const RingSlot& s = rec_->slots[i];
    if (!s.committed() || i == newest || pinned_locked(s.epoch)) continue;
    if (victim == kInvalidSlot || s.epoch < rec_->slots[victim].epoch) {
      victim = i;
    }
  }
  if (victim == kInvalidSlot) {
    // Every reusable slot is pinned: spill into a spare slot past the
    // budget rather than stall the commit (GC trims it back later).
    for (std::uint32_t i = budget; i < kMaxRingSlots; ++i) {
      RingSlot& s = rec_->slots[i];
      if (s.state != RingSlot::kFree) continue;
      if (s.off == 0) {
        if (quota_ && !quota_->try_charge(rec_->payload_bytes)) continue;
        s.off = dir_->container_->alloc_region(rec_->payload_bytes);
      }
      s.state = RingSlot::kInProgress;
      persist_locked();
      out.index = i;
      out.off = s.off;
      out.fresh = true;
      return out;
    }
    if (quota_ && quota_->limit() != 0) {
      throw NvmcpError(
          "VersionRing: no acquirable slot (pins + quota '" +
          quota_->name() + "' exhausted)");
    }
    throw NvmcpError("VersionRing: no acquirable slot (all pinned)");
  }
  RingSlot& s = rec_->slots[victim];
  out.index = victim;
  out.off = s.off;
  out.fresh = false;
  out.had_committed = true;
  out.prev_checksum = s.checksum;
  s.state = RingSlot::kInProgress;
  persist_locked();
  return out;
}

void VersionRing::publish(std::uint32_t index, std::uint64_t epoch,
                          std::uint64_t checksum) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  RingSlot& s = rec_->slots[index];
  s.epoch = epoch;
  s.checksum = checksum;
  s.state = RingSlot::kCommitted;
  persist_locked();
}

std::vector<std::uint64_t> VersionRing::retained_epochs() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  std::vector<std::uint64_t> out;
  for (const RingSlot& s : rec_->slots) {
    if (s.committed()) out.push_back(s.epoch);
  }
  std::sort(out.rbegin(), out.rend());
  return out;
}

std::size_t VersionRing::committed_count() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  std::size_t n = 0;
  for (const RingSlot& s : rec_->slots) n += s.committed() ? 1 : 0;
  return n;
}

std::size_t VersionRing::allocated_slots() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  std::size_t n = 0;
  for (const RingSlot& s : rec_->slots) n += s.off != 0 ? 1 : 0;
  return n;
}

std::vector<RingSlot> VersionRing::snapshot_slots() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  return std::vector<RingSlot>(rec_->slots, rec_->slots + kMaxRingSlots);
}

std::uint64_t VersionRing::newest_epoch() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  const std::uint32_t i = newest_index_locked();
  return i == kInvalidSlot ? 0 : rec_->slots[i].epoch;
}

bool VersionRing::find_epoch(std::uint64_t epoch, RingSlot* out,
                             std::uint32_t* index) const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    const RingSlot& s = rec_->slots[i];
    if (s.committed() && s.epoch == epoch) {
      if (out) *out = s;
      if (index) *index = i;
      return true;
    }
  }
  return false;
}

void VersionRing::pin_epoch(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  pins_.push_back(epoch);
}

void VersionRing::unpin_epoch(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  auto it = std::find(pins_.begin(), pins_.end(), epoch);
  if (it != pins_.end()) pins_.erase(it);
}

void VersionRing::adopt_legacy(std::uint64_t committed_off,
                               std::uint64_t epoch, std::uint64_t checksum,
                               std::uint64_t spare_off) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  for (const RingSlot& s : rec_->slots) {
    // Any slot with history means this ring is already live (adopted
    // earlier or ring-native); overwriting would leak its region.
    if (s.committed() || s.off != 0) return;
  }
  rec_->slots[0] = RingSlot{committed_off, epoch, checksum,
                            RingSlot::kCommitted, 0};
  if (spare_off) {
    rec_->slots[1] = RingSlot{spare_off, 0, 0, RingSlot::kFree, 0};
  }
  persist_locked();
}

std::uint64_t VersionRing::payload_bytes() const {
  return rec_->payload_bytes;  // immutable after record creation
}

std::uint32_t VersionRing::depth() const {
  return rec_->depth;  // only mutated at directory attach
}

std::uint32_t VersionRing::newest_index_locked() const {
  std::uint32_t best = kInvalidSlot;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    const RingSlot& s = rec_->slots[i];
    if (!s.committed()) continue;
    if (best == kInvalidSlot || s.epoch > rec_->slots[best].epoch) best = i;
  }
  return best;
}

std::uint32_t VersionRing::oldest_reclaimable_locked(
    std::uint32_t floor) const {
  std::size_t committed = 0;
  for (const RingSlot& s : rec_->slots) committed += s.committed() ? 1 : 0;
  if (committed <= floor) return kInvalidSlot;
  const std::uint32_t newest = newest_index_locked();
  std::uint32_t oldest = kInvalidSlot;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    const RingSlot& s = rec_->slots[i];
    if (!s.committed() || i == newest || pinned_locked(s.epoch)) continue;
    if (oldest == kInvalidSlot || s.epoch < rec_->slots[oldest].epoch) {
      oldest = i;
    }
  }
  return oldest;
}

std::uint64_t VersionRing::reclaim_slot_locked(std::uint32_t index) {
  RingSlot& s = rec_->slots[index];
  const std::uint64_t bytes = rec_->payload_bytes;
  if (s.off != 0) {
    dir_->container_->free_region(s.off, rec_->payload_bytes);
    if (quota_) quota_->credit(rec_->payload_bytes);
  }
  s = RingSlot{};
  persist_locked();
  return bytes;
}

void VersionRing::set_quota(vmem::CapacityQuota* quota) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  set_quota_locked(quota);
}

void VersionRing::set_quota_locked(vmem::CapacityQuota* quota) {
  if (quota_ == quota) return;  // reattach: footprint already charged
  std::size_t held = 0;
  for (const RingSlot& s : rec_->slots) {
    if (s.off != 0) held += rec_->payload_bytes;
  }
  if (quota_ && held) quota_->credit(held);
  if (quota && held) quota->charge(held);
  quota_ = quota;
}

bool VersionRing::pinned_locked(std::uint64_t epoch) const {
  return std::find(pins_.begin(), pins_.end(), epoch) != pins_.end();
}

void VersionRing::persist_locked() { dir_->persist_record(*rec_); }

}  // namespace nvmcp::epoch
