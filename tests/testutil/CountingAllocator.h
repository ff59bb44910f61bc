#pragma once

/// \file CountingAllocator.h
/// The counting allocator for a program built from a single source file that
/// cannot link CountingAllocator.cpp (perfbench/vgbench.cpp): include this
/// header in EXACTLY ONE translation unit and it compiles the replacement
/// operators into it. Everything else includes AllocationCount.h and links
/// CountingAllocator.cpp.

#include "testutil/AllocationCount.h"
#include "testutil/CountingAllocator.cpp"
