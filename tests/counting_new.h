// A counting replacement of the global operator new, for tests that pin a
// path's heap allocations. Replacing operator new is program-wide: include
// this header from exactly one translation unit of a test binary, and only
// in binaries that count. The counts are exact and machine-independent.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace erasmus::testing {

inline std::atomic<size_t> g_allocations{0};

/// Operator-new calls made while `fn` runs.
template <typename Fn>
size_t allocations_in(Fn&& fn) {
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace erasmus::testing

// Out of line, so the compiler never sees free() meet a new-expression.
[[gnu::noinline]] void* operator new(std::size_t size) {
  erasmus::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
