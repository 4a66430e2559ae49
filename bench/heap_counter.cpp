// bench/perf's allocation counter: every operator new bumps its thread's
// count, so allocation checks see the whole hot path, not only the places
// someone instrumented. The counted sections run on the main thread; sweep
// and advisor workers count apart. The operators live in a file of their
// own so the compiler never inlines them into the code perf.cpp measures.
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t t_heap_allocs = 0;
}  // namespace

std::uint64_t heap_allocs() { return t_heap_allocs; }

void* operator new(std::size_t size) {
  ++t_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++t_heap_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The nothrow forms too (std::stable_sort's buffer uses one), so every
// block the deletes below free came from malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_heap_allocs;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  ++t_heap_allocs;
  void* p = nullptr;
  return posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) == 0 ? p : nullptr;
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
