#pragma once

// Bucketed calendar queue keyed on exact event time — the event queue of the
// rewritten simulator cores (docs/performance.md "Calendar queue").
//
// The Table-1 workloads put many events on few distinct timestamps (periodic
// grids, zero-gap livelocks cut by the no-progress watchdog), which is the
// worst case for a comparison heap: every push/pop pays log(size) exact-
// rational compares to rediscover an order that is mostly ties. This queue
// stores one bucket per DISTINCT exact time instead:
//
//   * a bucket holds two FIFO lanes — compute events, then delivery events —
//     matching the simulators' tie-break (compute steps before deliveries at
//     equal times, FIFO within a lane; FIFO falls out of append order, no
//     sequence numbers needed),
//   * buckets are found by an open-addressing hash on the PackedRatio word
//     of their time (one integer probe in the common case), with the bucket
//     of the time currently being drained checked first — a same-time push,
//     the dominant operation under dense timelines, touches neither the
//     hash nor the heap,
//   * a comparison MIN-HEAP over the buckets (one entry per distinct time,
//     exact Ratio order) decides which bucket drains next. Under
//     pathological skew — every event on its own timestamp, power-law gaps,
//     denominator blowups — the structure degrades gracefully to exactly
//     that comparison heap, paying one hash probe over the classic design.
//
// Drained buckets are released into a free list with their lane capacity
// intact (arena reuse-after-drain), so a steady-state run allocates
// nothing; clear() does the same for whatever a run left queued, so the
// event kernel recycles one queue per thread across runs (util/scratch.hpp)
// and a short run allocates nothing either. Pop order is bit-for-bit the
// order the old std::priority_queue<Event> produced; sim_core_equiv_test
// and the golden corpus pin this.

#include <cstdint>
#include <vector>

#include "model/ids.hpp"
#include "util/packed_ratio.hpp"
#include "util/ratio.hpp"

namespace sesp {

class CalendarQueue {
 public:
  enum class Lane : std::uint8_t { kCompute = 0, kDeliver = 1 };

  struct Popped {
    Time time;
    Lane lane = Lane::kCompute;
    ProcessId process = 0;
    MsgId message = kNoMsg;
  };

  CalendarQueue();

  void push_compute(const Time& t, ProcessId p) {
    bucket_for(t).computes.push_back(p);
    ++size_;
  }
  void push_deliver(const Time& t, ProcessId recipient, MsgId m) {
    Bucket& b = bucket_for(t);
    b.delivers.push_back(Delivery{m, recipient});
    ++size_;
  }

  // Removes every event, keeping all capacity. Costs the buckets still
  // live (plus the interned times), never the arena or index retained —
  // except that once the queue has drained more than kTrimEvents events
  // since it started empty, clear() frees its arena and starts over.
  void clear();

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  // Removes the globally next event: earliest exact time; computes before
  // delivers at equal time; FIFO within a lane. False when empty.
  bool pop(Popped& out);

  // Lane of the event the next pop would return (without popping). Only
  // valid when !empty().
  Lane peek_lane();

  // --- introspection (tests, docs) ------------------------------------
  std::size_t distinct_times() const noexcept {
    return heap_.size() + (current_ != kNone ? 1 : 0);
  }
  std::size_t buckets_allocated() const noexcept { return arena_.size(); }
  std::int64_t buckets_reused() const noexcept { return reused_; }
  std::size_t interned_times() const noexcept { return intern_.pool_size(); }
  std::size_t index_capacity() const noexcept { return index_keys_.size(); }

 private:
  struct Delivery {
    MsgId message;
    ProcessId recipient;
  };

  struct Bucket {
    PackedRatio key;
    Time time;
    std::vector<ProcessId> computes;
    std::vector<Delivery> delivers;
    std::uint32_t compute_head = 0;
    std::uint32_t deliver_head = 0;

    bool drained() const noexcept {
      return compute_head == computes.size() &&
             deliver_head == delivers.size();
    }
  };

  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  Bucket& bucket_for(const Time& t);
  // Makes current_ the minimum-time non-drained bucket. Pre: size_ > 0.
  void settle_current();
  void release(std::uint32_t idx);

  // Min-heap over bucket indices ordered by exact bucket time.
  void heap_push(std::uint32_t idx);
  std::uint32_t heap_pop();
  bool heap_less(std::uint32_t a, std::uint32_t b) const {
    return intern_.less(arena_[a].key, arena_[b].key);
  }

  // Open-addressing index: PackedRatio word -> bucket. Tombstones from
  // released buckets are purged by periodic rehash, at the same capacity
  // unless the live entries need more.
  std::uint32_t find_slot(std::uint64_t word) const;
  void index_insert(std::uint64_t word, std::uint32_t bucket);
  void index_erase(std::uint64_t word);
  void index_rehash(std::size_t capacity);

  RatioIntern intern_;
  std::vector<Bucket> arena_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> heap_;
  std::uint32_t current_ = kNone;
  // Bucket the last push landed in (kNone until the first push, and reset
  // when that bucket drains). A broadcast pushes one delivery per recipient
  // at the same future time, so checking this bucket first turns all but
  // the first of those pushes into a single key compare, no hash probe.
  std::uint32_t last_push_ = kNone;
  // True while current_ is known to be the minimum over all live buckets.
  // Bucket times never change, so the only event that can dethrone the
  // current bucket is a heap_push of a new one — settle_current() is a
  // single predicted branch on every other pop/peek.
  bool current_is_min_ = false;
  std::size_t size_ = 0;
  std::int64_t reused_ = 0;
  // Events drained (or cleared) since the queue started empty; see clear().
  static constexpr std::size_t kTrimEvents = std::size_t{1} << 18;
  std::size_t released_events_ = 0;

  enum : std::uint8_t { kEmpty = 0, kFull = 1, kTomb = 2 };
  std::vector<std::uint64_t> index_keys_;
  std::vector<std::uint32_t> index_vals_;
  std::vector<std::uint8_t> index_state_;
  std::size_t index_mask_ = 0;
  std::size_t index_used_ = 0;  // full + tombstones
  std::size_t index_live_ = 0;  // full only
};

}  // namespace sesp
