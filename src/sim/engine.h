// Discrete-event simulation engine.
//
// A single-threaded event loop over simulated time. Events are ordered by
// (time, seq); `seq` makes same-time events fire in scheduling order, which
// keeps runs deterministic. The engine knows nothing about servers or
// policies — the cluster model in cluster_sim.cc builds on it, as do the
// tests that validate it against queueing theory.
//
// Hot-path design (this is the innermost loop of every simulation sweep):
//
//   * Callables live in a pool of fixed-size slots recycled through a LIFO
//     free list. Anything up to kInlineEventBytes (every closure in the
//     cluster model, checked at compile time) is constructed in place: the
//     steady state performs zero heap allocations per event. Larger
//     callables fall back to one boxed allocation; they still go through
//     the same slot machinery.
//   * The pending queue is a calendar rung, not a comparison heap. Events
//     are appended unsorted into power-of-two-width time buckets (O(1)),
//     and only the small *active* bucket is kept heap-ordered, so the
//     per-event cost is constant instead of O(log outstanding). Events
//     beyond the rung's span wait in a 4-ary overflow heap; events that
//     arrive while the engine is idle collect in an unsorted staging
//     buffer and are scattered into a fresh rung when draining starts.
//     Every container orders by the same strict total order (time, seq) —
//     seq is unique — so pop order is bit-identical to a plain binary
//     heap's.
//   * Queue entries are 16-byte PODs (time, packed seq+slot index): the
//     callable itself never moves, and sifts in the small heaps are
//     register/memcpy work.
//   * Nothing shrinks: slot chunks, bucket arena nodes, and vector
//     capacity stay owned by the engine until it dies. That is by design —
//     sweeps reach a steady outstanding-event plateau almost immediately.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace finelb::sim {

class Engine {
 public:
  /// Inline storage per event. 72 bytes fits the largest closure in the
  /// cluster model (service completion: this + Job + target + duration +
  /// epoch = 64 bytes; a poll leg carries only a pool index, whatever the
  /// poll size) and rounds the slot to 80 bytes with its dispatch pointer.
  /// cluster_sim.cc static_asserts that every model event fits.
  static constexpr std::size_t kInlineEventBytes = 72;

  Engine() = default;
  ~Engine() { destroy_pending(); }

  // The slot pool hands out stable indices; copying would alias live
  // callables and moving is never needed (simulations own their engine by
  // value for its whole lifetime).
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` (any void() callable) at absolute time `t`; `t` must
  /// not precede `now()`.
  template <class F>
  void schedule_at(SimTime t, F&& fn) {
    FINELB_CHECK(t >= now_, "cannot schedule into the past");
    FINELB_CHECK(next_seq_ < kMaxSeq, "event sequence space exhausted");
    const std::uint32_t slot_index = acquire_slot();
    emplace_callable(slot_at(slot_index), std::forward<F>(fn));
    enqueue(HeapEntry{t, (next_seq_++ << kSlotBits) | slot_index});
  }

  /// Schedules `fn` after `delay` (>= 0) simulated time.
  template <class F>
  void schedule_after(SimDuration delay, F&& fn) {
    FINELB_CHECK(delay >= 0, "negative event delay");
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Runs events until the queue empties or `stop()` is called.
  void run();

  /// Runs events with timestamp <= `t`, then advances the clock to `t`
  /// (even if the queue still has later events).
  void run_until(SimTime t);

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  bool empty() const { return live_ == 0; }
  std::uint64_t events_processed() const { return processed_; }

 private:
  enum class SlotOp { kRun, kDestroy };

  /// One recyclable unit of event storage. `op` runs and destroys the
  /// callable (kRun, the common path) or only destroys it (kDestroy,
  /// engine teardown with events still pending).
  struct Slot {
    alignas(std::max_align_t) std::byte storage[kInlineEventBytes];
    void (*op)(Slot&, SlotOp);
  };

  /// Slot indices fit in 24 bits (16M outstanding events ≈ 1.3 GB of slot
  /// pool — far past any realistic sweep), which lets a queue entry pack
  /// (seq, slot) into one word and stay 16 bytes.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                           << (64 - kSlotBits);  // 2^40 events

  /// POD queue element: the callable itself never participates in sifts.
  /// `seq_slot` holds seq in the high 40 bits and the slot index in the low
  /// 24; seq is unique, so comparing the packed word orders by seq alone.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq_slot;
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }
  };
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq_slot < b.seq_slot;
  }

  static constexpr std::size_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::uint32_t kChunkMask =
      static_cast<std::uint32_t>(kChunkSize - 1);
  static constexpr std::size_t kHeapArity = 4;

  // ---- slot pool ----

  Slot& slot_at(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }

  std::uint32_t acquire_slot() {
    if (free_slots_.empty()) grow_pool();
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }

  void release_slot(std::uint32_t index) { free_slots_.push_back(index); }

  template <class F>
  static void emplace_callable(Slot& slot, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineEventBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(slot.storage)) Fn(std::forward<F>(fn));
      slot.op = [](Slot& s, SlotOp what) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(s.storage));
        if (what == SlotOp::kRun) {
          struct Guard {
            Fn* f;
            ~Guard() { f->~Fn(); }
          } guard{f};
          (*f)();
        } else {
          f->~Fn();
        }
      };
    } else {
      // Oversized or over-aligned callable: boxed on the heap, the slot
      // stores only the pointer. Never taken by the cluster model.
      Fn* boxed = new Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(slot.storage)) Fn*(boxed);
      slot.op = [](Slot& s, SlotOp what) {
        Fn* f = *std::launder(reinterpret_cast<Fn**>(s.storage));
        if (what == SlotOp::kRun) {
          struct Guard {
            Fn* f;
            ~Guard() { delete f; }
          } guard{f};
          (*f)();
        } else {
          delete f;
        }
      };
    }
  }

  // ---- 4-ary min-heap helpers (used for the active bucket and the
  // far-future overflow; both are small in the common case) ----

  /// Sifts `v` down from position `hole`. Top-down with an early exit;
  /// for arity 4 this beats both bottom-up (Wegener) deletion and a
  /// cmov-based branchless child selection (measured — speculation wins).
  static void sift_down(std::vector<HeapEntry>& h, std::size_t hole,
                        HeapEntry v) {
    const std::size_t n = h.size();
    for (;;) {
      const std::size_t first = hole * kHeapArity + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + kHeapArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (earlier(h[c], h[best])) best = c;
      }
      if (!earlier(h[best], v)) break;
      h[hole] = h[best];
      hole = best;
    }
    h[hole] = v;
  }

  static void heap_push(std::vector<HeapEntry>& h, HeapEntry e) {
    std::size_t hole = h.size();
    h.push_back(e);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kHeapArity;
      if (!earlier(e, h[parent])) break;
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = e;
  }

  HeapEntry heap_pop(std::vector<HeapEntry>& h) {
    const HeapEntry top = h.front();
    // The callable usually runs right after; start pulling its slot now.
    __builtin_prefetch(&slot_at(top.slot()));
    const HeapEntry last = h.back();
    h.pop_back();
    if (!h.empty()) sift_down(h, 0, last);
    return top;
  }

  /// Floyd heap construction: sift down every interior node.
  static void heap_build(std::vector<HeapEntry>& h) {
    const std::size_t n = h.size();
    if (n < 2) return;
    for (std::size_t i = (n - 2) / kHeapArity + 1; i-- > 0;) {
      sift_down(h, i, h[i]);
    }
  }

  // ---- calendar rung ----
  //
  // A rung divides [rung_t0_, rung_t0_ + kRungBuckets << rung_shift_) into
  // power-of-two-width buckets. A rebuild counting-sorts all pending
  // events into one contiguous store (`store_`, sliced per bucket by
  // `off_`), so the drain walks memory front to back; bucket contents are
  // heap-ordered only when the bucket becomes the active one. Events
  // scheduled *while the rung drains* land in per-bucket arena-node
  // chains (an O(1) append; the chain merges with the slice when its
  // bucket loads), or straight in the active heap when they land at or
  // before the active bucket (they are still in the future: schedule
  // times are >= now()). Inserts beyond the rung go to the far heap, and
  // the next rebuild pulls them in when this rung drains.

  static constexpr std::size_t kRungBuckets = 4096;
  static constexpr std::size_t kBitmapWords = kRungBuckets / 64;
  static constexpr std::uint32_t kNilNode = 0xffffffffu;
  static constexpr unsigned kMaxRungShift = 40;  // bucket width <= ~18 min
  static constexpr std::size_t kNodeEntries = 3;

  /// One cache line: chain link, entry count, three inline entries.
  struct alignas(64) BucketNode {
    std::uint32_t next;
    std::uint32_t count;
    HeapEntry entries[kNodeEntries];
  };

  SimTime rung_end() const {
    return rung_t0_ +
           (static_cast<SimTime>(kRungBuckets) << rung_shift_);
  }

  std::uint32_t alloc_node() {
    if (arena_used_ == arena_.size()) arena_.emplace_back();
    return arena_used_++;
  }

  void bucket_append(std::size_t idx, HeapEntry e) {
    std::uint32_t node = head_[idx];
    if (node == kNilNode || arena_[node].count == kNodeEntries) {
      const std::uint32_t fresh = alloc_node();
      arena_[fresh].next = node;
      arena_[fresh].count = 0;
      head_[idx] = fresh;
      bitmap_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      node = fresh;
    }
    BucketNode& bn = arena_[node];
    bn.entries[bn.count++] = e;
  }

  /// Routes a new entry to staging, the active heap, a rung bucket, or the
  /// far heap. This is the whole insert path: O(1) except for the small
  /// heap pushes.
  void enqueue(HeapEntry e) {
    ++live_;
    if (!rung_active_) {
      staging_.push_back(e);
      return;
    }
    // e.time can precede rung_t0_ (the clock may trail the rung start), so
    // the index computation must be signed; anything at or before the
    // active bucket joins the active heap.
    const std::int64_t rel = e.time - rung_t0_;
    const std::size_t idx =
        rel <= 0 ? 0
                 : static_cast<std::size_t>(
                       static_cast<std::uint64_t>(rel) >> rung_shift_);
    if (idx >= kRungBuckets) {
      heap_push(far_, e);
    } else if (idx <= cur_bucket_) {
      heap_push(active_, e);
    } else {
      bucket_append(idx, e);
    }
  }

  /// Moves bucket `idx` — its contiguous store slice plus any chained
  /// mid-drain inserts — into the (empty) active heap.
  void load_bucket(std::size_t idx) {
    // Store slices exist only below idx_cap_; off_ is stale past it.
    if (idx < idx_cap_) {
      const std::uint32_t b0 = idx == 0 ? 0 : off_[idx - 1];
      const std::uint32_t b1 = off_[idx];
      for (std::uint32_t i = b0; i < b1; ++i) active_.push_back(store_[i]);
    }
    std::uint32_t node = head_[idx];
    head_[idx] = kNilNode;
    while (node != kNilNode) {
      const BucketNode& bn = arena_[node];
      for (std::uint32_t j = 0; j < bn.count; ++j) {
        active_.push_back(bn.entries[j]);
      }
      node = bn.next;
    }
    heap_build(active_);
  }

  /// Finds the next non-empty bucket at or after `from` via the occupancy
  /// bitmap, loads it, and makes it active. Returns false if the rung has
  /// no events left.
  bool advance_bucket(std::size_t from) {
    std::size_t w = from >> 6;
    if (w >= kBitmapWords) return false;
    std::uint64_t word = bitmap_[w] & (~std::uint64_t{0} << (from & 63));
    for (;;) {
      if (word != 0) {
        const std::size_t idx =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        bitmap_[w] &= ~(word & (~word + 1));  // clear that bit
        load_bucket(idx);
        cur_bucket_ = idx;
        return true;
      }
      if (++w == kBitmapWords) return false;
      word = bitmap_[w];
    }
  }

  /// Ensures the active heap holds the global minimum (rebuilding the rung
  /// from staging/far if needed). Returns false iff no events remain.
  bool ensure_ready() {
    for (;;) {
      if (!active_.empty()) return true;
      if (rung_active_) {
        if (advance_bucket(cur_bucket_ + 1)) continue;
        rung_active_ = false;
      }
      if (staging_.empty() && far_.empty()) return false;
      rebuild();
    }
  }

  /// Pops the minimum entry, advances the clock, and runs its callable.
  /// The slot returns to the free list only after the callable finishes,
  /// so events scheduled from inside it use other slots.
  void fire_next() {
    ensure_ready();
    const HeapEntry top = heap_pop(active_);
    --live_;
    // A fully drained engine retires its rung: the next batch of events
    // must not be matched against this rung's (now stale) store slices.
    if (live_ == 0) rung_active_ = false;
    now_ = top.time;
    ++processed_;
    const std::uint32_t slot_index = top.slot();
    Slot& slot = slot_at(slot_index);
    slot.op(slot, SlotOp::kRun);
    release_slot(slot_index);
  }

  void grow_pool();
  void rebuild();
  void destroy_pending();

  // Slot pool.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;

  // Event queue (see "calendar rung" above).
  std::vector<HeapEntry> active_;   // current bucket, heap-ordered
  std::vector<HeapEntry> far_;      // beyond the rung span, heap-ordered
  std::vector<HeapEntry> staging_;  // scheduled while idle, unsorted
  std::vector<HeapEntry> store_;    // counting-sorted rung contents
  std::vector<std::uint32_t> off_;  // bucket i slice = [off_[i-1], off_[i])
  std::vector<BucketNode> arena_;   // mid-drain chain storage, reset per rung
  std::uint32_t arena_used_ = 0;
  std::unique_ptr<std::uint32_t[]> head_;  // bucket -> chain head
  std::uint64_t bitmap_[kBitmapWords] = {};
  bool rung_active_ = false;
  SimTime rung_t0_ = 0;
  unsigned rung_shift_ = 0;
  unsigned base_shift_ = 0;   // adaptive floor for future rungs
  std::size_t idx_cap_ = 0;   // buckets below this have store slices
  std::size_t cur_bucket_ = 0;

  SimTime now_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace finelb::sim
