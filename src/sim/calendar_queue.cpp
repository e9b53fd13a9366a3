#include "sim/calendar_queue.hpp"

#include <utility>

namespace sesp {

CalendarQueue::CalendarQueue() { index_rehash(64); }

// --- hash index ------------------------------------------------------------

std::uint32_t CalendarQueue::find_slot(std::uint64_t word) const {
  std::size_t probe = (word * 0x9e3779b97f4a7c15ULL) >> 1;
  probe ^= probe >> 29;
  std::size_t i = probe & index_mask_;
  while (true) {
    if (index_state_[i] == kEmpty) return kNone;
    if (index_state_[i] == kFull && index_keys_[i] == word)
      return static_cast<std::uint32_t>(i);
    i = (i + 1) & index_mask_;
  }
}

void CalendarQueue::index_insert(std::uint64_t word, std::uint32_t bucket) {
  if ((index_used_ + 1) * 4 > index_keys_.size() * 3) {
    // Mostly tombstones: purge them at the current size, and double only
    // when the live entries need the room. The index then tracks the live
    // distinct times, not every time a (recycled) queue ever held.
    const std::size_t size = index_keys_.size();
    index_rehash((index_live_ + 1) * 4 <= size ? size : size * 2);
  }
  std::size_t probe = (word * 0x9e3779b97f4a7c15ULL) >> 1;
  probe ^= probe >> 29;
  std::size_t i = probe & index_mask_;
  while (index_state_[i] == kFull) i = (i + 1) & index_mask_;
  if (index_state_[i] == kEmpty) ++index_used_;  // tombstone reuse keeps used_
  index_keys_[i] = word;
  index_vals_[i] = bucket;
  index_state_[i] = kFull;
  ++index_live_;
}

void CalendarQueue::index_erase(std::uint64_t word) {
  const std::uint32_t slot = find_slot(word);
  if (slot == kNone) return;
  index_state_[slot] = kTomb;
  --index_live_;
}

void CalendarQueue::index_rehash(std::size_t capacity) {
  while (capacity < (index_live_ + 1) * 2) capacity *= 2;
  // Every indexed bucket is current_ or on the heap, so the index is
  // rebuilt from them, in arrays that are reused unless they must grow.
  index_keys_.resize(capacity);
  index_vals_.resize(capacity);
  index_state_.assign(capacity, kEmpty);
  index_mask_ = capacity - 1;
  index_used_ = 0;
  index_live_ = 0;
  if (current_ != kNone) index_insert(arena_[current_].key.word(), current_);
  for (const std::uint32_t b : heap_) index_insert(arena_[b].key.word(), b);
}

// --- bucket heap -----------------------------------------------------------

void CalendarQueue::heap_push(std::uint32_t idx) {
  heap_.push_back(idx);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

std::uint32_t CalendarQueue::heap_pop() {
  const std::uint32_t top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  std::size_t i = 0;
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t l = 2 * i + 1, r = 2 * i + 2;
    std::size_t best = i;
    if (l < n && heap_less(heap_[l], heap_[best])) best = l;
    if (r < n && heap_less(heap_[r], heap_[best])) best = r;
    if (best == i) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return top;
}

// --- buckets ---------------------------------------------------------------

CalendarQueue::Bucket& CalendarQueue::bucket_for(const Time& t) {
  const PackedRatio key = intern_.pack(t);
  // Fast path: the bucket being drained. Dense timelines land here.
  if (current_ != kNone && arena_[current_].key == key)
    return arena_[current_];
  // Second fast path: the bucket of the previous push (broadcast fan-out).
  if (last_push_ != kNone && arena_[last_push_].key == key)
    return arena_[last_push_];
  const std::uint32_t slot = find_slot(key.word());
  if (slot != kNone) {
    last_push_ = index_vals_[slot];
    return arena_[last_push_];
  }

  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
    ++reused_;
  } else {
    idx = static_cast<std::uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  Bucket& b = arena_[idx];
  b.key = key;
  b.time = t;
  index_insert(key.word(), idx);
  heap_push(idx);
  current_is_min_ = false;  // the new bucket may precede the current one
  last_push_ = idx;
  return b;
}

void CalendarQueue::release(std::uint32_t idx) {
  Bucket& b = arena_[idx];
  index_erase(b.key.word());
  released_events_ += b.computes.size() + b.delivers.size();
  b.computes.clear();  // capacity kept: arena reuse-after-drain
  b.delivers.clear();
  b.compute_head = 0;
  b.deliver_head = 0;
  if (last_push_ == idx) last_push_ = kNone;
  free_.push_back(idx);
}

void CalendarQueue::clear() {
  if (current_ != kNone) release(current_);
  for (const std::uint32_t bucket : heap_) release(bucket);
  if (released_events_ > kTrimEvents) {
    // Each bucket's lanes keep the largest load the bucket ever took, so
    // over many runs the arena would ratchet toward (buckets x largest
    // lane). Past this much work since it started empty, the queue starts
    // over: what it retains stays bounded by recent work, and the freeing
    // is paid for by the events that built it.
    *this = CalendarQueue();
    return;
  }
  heap_.clear();
  current_ = kNone;
  last_push_ = kNone;
  current_is_min_ = false;
  size_ = 0;
  intern_.clear();
}

void CalendarQueue::settle_current() {
  if (current_ == kNone) {
    current_ = heap_pop();
  } else if (current_is_min_) {
    return;  // no bucket was created since the last settle
  } else if (!heap_.empty() &&
             intern_.less(arena_[heap_.front()].key, arena_[current_].key)) {
    // An event was pushed before the time being drained (possible only for
    // exotic delay strategies); fall back to heap order.
    heap_push(current_);
    current_ = heap_pop();
  }
  current_is_min_ = true;
}

// --- pop / peek ------------------------------------------------------------

bool CalendarQueue::pop(Popped& out) {
  if (size_ == 0) return false;
  settle_current();
  Bucket& b = arena_[current_];
  out.time = b.time;
  if (b.compute_head < b.computes.size()) {
    out.lane = Lane::kCompute;
    out.process = b.computes[b.compute_head++];
    out.message = kNoMsg;
  } else {
    const Delivery& d = b.delivers[b.deliver_head++];
    out.lane = Lane::kDeliver;
    out.process = d.recipient;
    out.message = d.message;
  }
  --size_;
  if (b.drained()) {
    release(current_);
    current_ = kNone;
  }
  return true;
}

CalendarQueue::Lane CalendarQueue::peek_lane() {
  settle_current();
  const Bucket& b = arena_[current_];
  return b.compute_head < b.computes.size() ? Lane::kCompute : Lane::kDeliver;
}

}  // namespace sesp
