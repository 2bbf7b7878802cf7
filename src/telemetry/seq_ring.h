// A fixed-capacity, multi-writer ring of sampled telemetry records with
// lock-free readers: the storage behind both the request trace ring (TraceRing) and the decision
// audit ring (DecisionRing).
//
// Writers may run concurrently on any thread: one relaxed fetch_add on the
// head claims a slot, and the record is copied into the slot's array of
// std::atomic<std::uint64_t> words, release stores bracketed by the slot's
// sequence word (a plain memcpy against a concurrent reader would be a data
// race by the letter of the memory model). Claims a full lap apart map
// to the same slot, so a writer first waits until the previous lap's writer
// of its slot has sealed it: each slot has one writer at a time, and a
// slower writer can never finish over a newer record. The wait only
// happens when `capacity` records are claimed during one write. Each slot
// carries a sequence word with an odd/even protocol:
//   * 0           — never written;
//   * 2*claim + 1 — odd: the writer of claim number `claim` is filling it;
//   * 2*claim + 2 — even: that claim's record is sealed and readable.
// snapshot() walks the last `capacity` claims and keeps a slot only if its
// sequence reads as that claim's sealed value both before and after the
// payload copy, so a record overwritten mid-read is skipped rather than
// returned torn. All state is 64-bit atomics and no fences are used (GCC's
// TSan does not model atomic_thread_fence), so the ring is TSan-clean with
// concurrent writers.
//
// Under FINELB_TELEMETRY=OFF the ring allocates nothing, sampled() and
// active() are constant false and record() compiles to nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "telemetry/metrics.h"

namespace finelb::telemetry {

template <class Record>
class SeqRing {
  static_assert(std::is_trivially_copyable_v<Record>,
                "ring records are copied word-by-word");

 public:
  /// `sample_period` of 0 disables recording entirely (no slot allocation);
  /// N records every id that is a multiple of N. Capacity is fixed at
  /// construction; older records are overwritten.
  explicit SeqRing(std::size_t capacity = 256, std::uint32_t sample_period = 0)
      : capacity_(capacity), period_(sample_period) {
    FINELB_CHECK(capacity > 0, "ring capacity must be positive");
    if constexpr (kEnabled) {
      if (period_ != 0) slots_ = std::make_unique<Slot[]>(capacity_);
    }
  }

  /// Hot-path gate: callers check this once per request/event and skip the
  /// record() call (and any argument computation) when not sampled.
  bool sampled(std::uint64_t id) const {
    if constexpr (!kEnabled) {
      (void)id;
      return false;
    }
    return period_ != 0 && id % period_ == 0;
  }

  /// True when the ring records at all (telemetry compiled in and a nonzero
  /// sample period).
  bool active() const {
    if constexpr (!kEnabled) return false;
    return slots_ != nullptr;
  }

  void record(const Record& record) {
    if constexpr (!kEnabled) {
      (void)record;
      return;
    }
    if (slots_ == nullptr) return;
    std::uint64_t words[kWords] = {};
    std::memcpy(words, &record, sizeof(Record));
    const std::uint64_t claim = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[claim % capacity_];
    const std::uint64_t previous =
        claim >= capacity_ ? 2 * (claim - capacity_) + 2 : 0;
    while (slot.seq.load(std::memory_order_acquire) != previous) {
      std::this_thread::yield();
    }
    slot.seq.store(2 * claim + 1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < kWords; ++i) {
      // Release keeps the odd-marker store above from sinking below any
      // word store, so a reader that sees any of this claim's words also
      // sees at least the odd marker on its re-check.
      slot.words[i].store(words[i], std::memory_order_release);
    }
    slot.seq.store(2 * claim + 2, std::memory_order_release);
  }

  /// Valid records, oldest first. Safe to call concurrently with writers;
  /// slots being overwritten during the read are skipped.
  std::vector<Record> snapshot() const {
    std::vector<Record> out;
    if constexpr (!kEnabled) return out;
    if (slots_ == nullptr) return out;
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t begin = head > capacity_ ? head - capacity_ : 0;
    out.reserve(static_cast<std::size_t>(head - begin));
    for (std::uint64_t claim = begin; claim < head; ++claim) {
      const Slot& slot = slots_[claim % capacity_];
      const std::uint64_t sealed = 2 * claim + 2;
      if (slot.seq.load(std::memory_order_acquire) != sealed) {
        continue;  // not yet sealed, or already overwritten by a newer claim
      }
      std::uint64_t words[kWords];
      for (std::size_t i = 0; i < kWords; ++i) {
        // Acquire keeps the re-check below from hoisting above any word
        // load; reading a later claim's word then forces the re-check to
        // see that claim's odd marker and drop the record.
        words[i] = slot.words[i].load(std::memory_order_acquire);
      }
      if (slot.seq.load(std::memory_order_relaxed) != sealed) continue;
      Record& rec = out.emplace_back();
      std::memcpy(&rec, words, sizeof(Record));
    }
    return out;
  }

  std::uint32_t sample_period() const { return period_; }
  std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::size_t kWords =
      (sizeof(Record) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);

  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[kWords] = {};
  };

  std::size_t capacity_;
  std::uint32_t period_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace finelb::telemetry
