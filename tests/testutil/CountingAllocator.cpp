/// Global operator new/delete replacement that counts allocations (see
/// AllocationCount.h). Kept in its own translation unit so the compiler never
/// inlines the free() behind operator delete into code whose pointers came
/// from operator new.

#include <cstdlib>
#include <new>

#include "testutil/AllocationCount.h"

void* operator new(std::size_t size) {
  ++vg::testutil::g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  ++vg::testutil::g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
