// Allocation counting for the micro-benches' allocation gates: replaces the
// global operator new/delete (every overload, aligned ones included) so
// each heap allocation in the process bumps a global atomic and a
// thread-local counter. A bench that runs its client event loop on the
// main thread attributes that loop's allocations via alloc_hook::local()
// and the server threads' via global() minus local(). The counters are
// always on — an uncontended relaxed fetch_add is noise next to malloc.
//
// Defines the replacement operators, so include it from exactly one
// translation unit of a bench executable (micro_net, micro_directory and
// micro_decision), never from a shared header.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace alloc_hook {
std::atomic<std::int64_t> global_count{0};
thread_local std::int64_t thread_count = 0;

std::int64_t global() { return global_count.load(std::memory_order_relaxed); }
std::int64_t local() { return thread_count; }

void* counted_alloc(std::size_t size, std::size_t align) {
  global_count.fetch_add(1, std::memory_order_relaxed);
  ++thread_count;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size > 0 ? size : 1);
  } else if (posix_memalign(&p, align, size > 0 ? size : 1) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace alloc_hook

void* operator new(std::size_t size) {
  return alloc_hook::counted_alloc(size, 0);
}
void* operator new[](std::size_t size) {
  return alloc_hook::counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return alloc_hook::counted_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return alloc_hook::counted_alloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
