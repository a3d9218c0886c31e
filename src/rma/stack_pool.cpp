#include "rma/stack_pool.hpp"

#include "rma/fiber.hpp"

#if RMALOCK_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace rmalock::rma {

StackPool& StackPool::local() {
  thread_local StackPool pool;
  return pool;
}

std::unique_ptr<char[]> StackPool::acquire(usize bytes) {
  for (SizeClass& sc : classes_) {
    if (sc.bytes == bytes && !sc.stacks.empty()) {
      std::unique_ptr<char[]> stack = std::move(sc.stacks.back());
      sc.stacks.pop_back();
      pooled_bytes_ -= bytes;
#if RMALOCK_ASAN
      // Fibers leave by switching away, so their frames never unwind and
      // their ASan poison stays on the stack. Clear it: the next fiber's
      // top may differ, and its frames must not land on stale redzones.
      ASAN_UNPOISON_MEMORY_REGION(stack.get(), bytes);
#endif
      return stack;
    }
  }
  // Uninitialized on purpose: see the header comment.
  return std::make_unique_for_overwrite<char[]>(bytes);
}

void StackPool::release(std::unique_ptr<char[]> stack, usize bytes) {
  if (stack == nullptr) return;
  if (pooled_bytes_ + bytes > kMaxPooledBytes) return;  // frees `stack`
  for (SizeClass& sc : classes_) {
    if (sc.bytes == bytes) {
      sc.stacks.push_back(std::move(stack));
      pooled_bytes_ += bytes;
      return;
    }
  }
  classes_.push_back(SizeClass{bytes, {}});
  classes_.back().stacks.push_back(std::move(stack));
  pooled_bytes_ += bytes;
}

void StackPool::clear() {
  classes_.clear();
  pooled_bytes_ = 0;
}

}  // namespace rmalock::rma
