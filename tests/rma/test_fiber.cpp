#include "rma/fiber.hpp"

#include <gtest/gtest.h>

#include "rma/stack_pool.hpp"

#include <memory>
#include <vector>

namespace rmalock::rma {
namespace {

// Fibers need file-scope state to communicate with their entry functions.
struct PingPongState {
  Fiber main;
  Fiber worker;
  std::vector<int> trace;
};
PingPongState* g_pingpong = nullptr;

void pingpong_entry() {
  Fiber::on_entry();
  g_pingpong->trace.push_back(1);
  Fiber::switch_to(g_pingpong->worker, g_pingpong->main);
  g_pingpong->trace.push_back(3);
  Fiber::switch_to(g_pingpong->worker, g_pingpong->main);
  // Never reached.
  g_pingpong->trace.push_back(99);
}

TEST(Fiber, PingPongPreservesControlFlow) {
  PingPongState state;
  g_pingpong = &state;
  auto stack = std::make_unique<char[]>(64 * 1024);
  state.worker.init(stack.get(), 64 * 1024, &pingpong_entry);
  state.trace.push_back(0);
  Fiber::switch_to(state.main, state.worker);
  state.trace.push_back(2);
  Fiber::switch_to(state.main, state.worker);
  state.trace.push_back(4);
  EXPECT_EQ(state.trace, (std::vector<int>{0, 1, 2, 3, 4}));
  g_pingpong = nullptr;
}

struct RoundRobinState {
  Fiber main;
  std::vector<Fiber> fibers{8};
  std::vector<std::unique_ptr<char[]>> stacks;
  std::vector<int> order;
  usize current = 0;
};
RoundRobinState* g_rr = nullptr;

void round_robin_entry() {
  Fiber::on_entry();
  RoundRobinState& s = *g_rr;
  const usize me = s.current;
  // Each fiber records itself twice with everyone in between.
  s.order.push_back(static_cast<int>(me));
  Fiber& self = s.fibers[me];
  s.current = me + 1;
  if (me + 1 < s.fibers.size()) {
    Fiber::switch_to(self, s.fibers[me + 1]);
  } else {
    Fiber::switch_to(self, s.main);
  }
  // Second round.
  s.order.push_back(static_cast<int>(me + 100));
  s.current = me + 1;
  if (me + 1 < s.fibers.size()) {
    Fiber::switch_to(self, s.fibers[me + 1]);
  } else {
    Fiber::switch_to(self, s.main);
  }
  ADD_FAILURE() << "fiber resumed after completion";
}

TEST(Fiber, ManyFibersChainCorrectly) {
  RoundRobinState state;
  g_rr = &state;
  for (usize i = 0; i < state.fibers.size(); ++i) {
    state.stacks.push_back(std::make_unique<char[]>(64 * 1024));
    state.fibers[i].init(state.stacks.back().get(), 64 * 1024,
                         &round_robin_entry);
  }
  state.current = 0;
  Fiber::switch_to(state.main, state.fibers[0]);
  state.current = 0;
  Fiber::switch_to(state.main, state.fibers[0]);
  ASSERT_EQ(state.order.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(state.order[static_cast<usize>(i)], i);
    EXPECT_EQ(state.order[static_cast<usize>(8 + i)], 100 + i);
  }
  g_rr = nullptr;
}

struct LocalsState {
  Fiber main;
  Fiber worker;
  long result = 0;
};
LocalsState* g_locals = nullptr;

void locals_entry() {
  Fiber::on_entry();
  // Exercise stack locals and callee-saved register pressure across a
  // switch: the compiler will keep parts of this in rbx/r12-r15.
  long a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
  volatile long spill[32];
  for (int i = 0; i < 32; ++i) spill[i] = i * 7;
  Fiber::switch_to(g_locals->worker, g_locals->main);
  long sum = a + b * 10 + c * 100 + d * 1000 + e * 10000 + f * 100000;
  for (int i = 0; i < 32; ++i) sum += spill[i];
  g_locals->result = sum;
  Fiber::switch_to(g_locals->worker, g_locals->main);
}

TEST(Fiber, PreservesLocalsAcrossSwitch) {
  LocalsState state;
  g_locals = &state;
  auto stack = std::make_unique<char[]>(64 * 1024);
  state.worker.init(stack.get(), 64 * 1024, &locals_entry);
  Fiber::switch_to(state.main, state.worker);
  Fiber::switch_to(state.main, state.worker);
  long expected = 1 + 20 + 300 + 4000 + 50000 + 600000;
  for (int i = 0; i < 32; ++i) expected += i * 7;
  EXPECT_EQ(state.result, expected);
  g_locals = nullptr;
}

struct ThrowState {
  Fiber main;
  Fiber worker;
  bool caught = false;
};
ThrowState* g_throw = nullptr;

void throw_entry() {
  Fiber::on_entry();
  try {
    throw 42;
  } catch (int v) {
    g_throw->caught = (v == 42);
  }
  Fiber::switch_to(g_throw->worker, g_throw->main);
}

TEST(Fiber, ExceptionsUnwindInsideFiber) {
  ThrowState state;
  g_throw = &state;
  auto stack = std::make_unique<char[]>(64 * 1024);
  state.worker.init(stack.get(), 64 * 1024, &throw_entry);
  Fiber::switch_to(state.main, state.worker);
  EXPECT_TRUE(state.caught);
  g_throw = nullptr;
}

// A fiber never unwinds: it leaves by switching away, so the sanitizer
// poison of its live frames stays on its stack. A pooled stack handed to a
// fiber whose stack top differs must not carry that poison into the new
// fiber's frames (its exception unwinder runs over them).
struct AbandonState {
  Fiber main;
  Fiber worker;
  bool caught = false;
};
AbandonState* g_abandon = nullptr;

[[gnu::noinline]] int abandon_in_frames(int depth) {
  volatile char buffer[512];  // redzones around it are poisoned on entry
  for (usize i = 0; i < sizeof(buffer); ++i) {
    buffer[i] = static_cast<char>(depth);
  }
  if (depth > 0) return abandon_in_frames(depth - 1) + buffer[7];
  // Leave mid-frame for good: nothing below returns.
  Fiber::switch_to(g_abandon->worker, g_abandon->main);
  ADD_FAILURE() << "abandoned fiber resumed";
  return buffer[0];
}

void abandon_entry() {
  Fiber::on_entry();
  abandon_in_frames(8);
}

[[gnu::noinline]] void throw_through_frames(int depth) {
  volatile char buffer[256];
  buffer[0] = static_cast<char>(depth);
  if (depth == 0) throw 7;
  throw_through_frames(depth - 1);
  buffer[1] = buffer[0];
}

void throw_after_reuse_entry() {
  Fiber::on_entry();
  try {
    throw_through_frames(4);
  } catch (int v) {
    g_abandon->caught = (v == 7);
  }
  Fiber::switch_to(g_abandon->worker, g_abandon->main);
}

TEST(StackPool, ReusedStackAtAnotherTopThrowsAndCatches) {
  constexpr usize kBytes = 64 * 1024;
  StackPool pool;
  std::unique_ptr<char[]> stack = pool.acquire(kBytes);
  const char* const first = stack.get();
  {
    AbandonState state;
    g_abandon = &state;
    state.worker.init(stack.get(), kBytes, &abandon_entry);
    Fiber::switch_to(state.main, state.worker);  // returns mid-frame
  }
  pool.release(std::move(stack), kBytes);

  stack = pool.acquire(kBytes);
  ASSERT_EQ(stack.get(), first) << "the pool must hand the stack back";
  AbandonState state;
  g_abandon = &state;
  // A top 1 KiB + 48 bytes lower: the new frames straddle the old ones.
  state.worker.init(stack.get(), kBytes - 1072, &throw_after_reuse_entry);
  Fiber::switch_to(state.main, state.worker);
  EXPECT_TRUE(state.caught);
  g_abandon = nullptr;
  pool.release(std::move(stack), kBytes);
}

}  // namespace
}  // namespace rmalock::rma
