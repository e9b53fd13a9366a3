#pragma once

// Per-thread recycling of run scratch (docs/performance.md "Per-run
// scratch"). A short run's fixed cost is dominated by setting up its
// working storage — event queue, pending lists, verifier tables, trace
// logs — so each thread keeps a small free list of such objects and hands
// them to the next run with their capacity intact. Capacity is never an
// observable, so recycling cannot change a recorded byte.
//
// Two forms share one free list per type and thread:
//
//   * Recycled<T> leases a whole object for one scope (the kernel's queue,
//     the verifier's tables). The lease hands the object over exactly as
//     its previous user left it, possibly mid-run after an exception: the
//     user resets what it uses, at a cost bounded by what the previous run
//     left live rather than by what the object retains.
//   * take_buffer() / park_buffer() move a vector's buffer between an
//     owning object and the free list (the trace logs, which travel with
//     their trace and are parked when it is destroyed).
//
// A free list holds at most kScratchSlots entries: enough for the traces
// one conformance case keeps alive together (run, parsed, replay), few
// enough that a thread never parks more than a handful of buffers.

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace sesp {

inline constexpr std::size_t kScratchSlots = 4;

// This thread's free list of T. Reserved up front, so parking never
// allocates once the list exists.
template <class T>
std::vector<T>& scratch_free_list() {
  thread_local std::vector<T> list = [] {
    std::vector<T> l;
    l.reserve(kScratchSlots);
    return l;
  }();
  return list;
}

// Leases one of this thread's parked T for the lease's scope, or a new T
// when none is parked, and parks it again at scope exit.
template <class T>
class Recycled {
 public:
  Recycled() {
    auto& list = scratch_free_list<std::unique_ptr<T>>();
    if (list.empty()) {
      obj_ = std::make_unique<T>();
    } else {
      obj_ = std::move(list.back());
      list.pop_back();
    }
  }
  ~Recycled() {
    auto& list = scratch_free_list<std::unique_ptr<T>>();
    if (list.size() < kScratchSlots) list.push_back(std::move(obj_));
  }
  Recycled(const Recycled&) = delete;
  Recycled& operator=(const Recycled&) = delete;

  T& operator*() const noexcept { return *obj_; }
  T* operator->() const noexcept { return obj_.get(); }

 private:
  std::unique_ptr<T> obj_;
};

// Moves into the empty vector `v` the smallest parked buffer holding at
// least `want` elements (best fit, so a short trace does not take the one
// buffer a longer trace alive beside it needs). False, with `v` untouched,
// when none does.
template <class T>
bool take_buffer(std::vector<T>& v, std::size_t want) {
  auto& list = scratch_free_list<std::vector<T>>();
  std::size_t best = list.size();
  for (std::size_t i = 0; i < list.size(); ++i)
    if (list[i].capacity() >= want &&
        (best == list.size() || list[i].capacity() < list[best].capacity()))
      best = i;
  if (best == list.size()) return false;
  std::swap(list[best], list.back());
  v = std::move(list.back());
  list.pop_back();
  return true;
}

// Parks `v`'s buffer (emptied) when it holds at least `min` elements,
// freeing every parked buffer smaller than it: the list keeps only the
// largest size in use, as many times as traces of that size were alive at
// once, not one buffer per size a thread ever reserved. When the list is
// full, `v` is left to free itself.
template <class T>
void park_buffer(std::vector<T>& v, std::size_t min) {
  if (v.capacity() < min) return;
  auto& list = scratch_free_list<std::vector<T>>();
  std::erase_if(list, [&](const std::vector<T>& parked) {
    return parked.capacity() < v.capacity();
  });
  if (list.size() < kScratchSlots) {
    v.clear();
    list.push_back(std::move(v));
  }
}

}  // namespace sesp
