//===- tests/TestHelpers.h - Shared fixtures for the test suite -----------==//

#ifndef EVM_TESTS_TESTHELPERS_H
#define EVM_TESTS_TESTHELPERS_H

#include "bytecode/Assembler.h"
#include "bytecode/Module.h"
#include "vm/Engine.h"

#include <gtest/gtest.h>

#include <pthread.h>

namespace evm {
namespace test {

/// Assembles \p Source, failing the test on a diagnostic.
inline bc::Module assemble(std::string_view Source) {
  auto M = bc::assembleModule(Source);
  EXPECT_TRUE(static_cast<bool>(M))
      << (M ? "" : M.getError().message());
  return M ? M.takeValue() : bc::Module();
}

/// Stack for the call-depth-limit cases: ExecutionEngine::MaxCallDepth
/// interpreted frames overflow the default 8 MB stack in an
/// AddressSanitizer build, whose frames are about 28 KB each.
constexpr size_t DeepRecursionStackBytes = size_t(64) << 20;

/// Runs \p Body to completion on a thread with a \p StackBytes stack.
template <typename Fn> void runWithStack(size_t StackBytes, Fn Body) {
  pthread_attr_t Attr;
  ASSERT_EQ(pthread_attr_init(&Attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&Attr, StackBytes), 0);
  pthread_t Thread;
  void *(*Entry)(void *) = [](void *P) -> void * {
    (*static_cast<Fn *>(P))();
    return nullptr;
  };
  int Err = pthread_create(&Thread, &Attr, Entry, &Body);
  pthread_attr_destroy(&Attr);
  ASSERT_EQ(Err, 0);
  pthread_join(Thread, nullptr);
}

/// Runs main(Args) without any recompilation policy; fails on traps.
inline bc::Value runProgram(const bc::Module &M,
                            std::vector<bc::Value> Args = {},
                            uint64_t MaxCycles = 500000000ULL) {
  vm::TimingModel TM;
  vm::ExecutionEngine Engine(M, TM, nullptr);
  auto R = Engine.run(Args, MaxCycles);
  EXPECT_TRUE(static_cast<bool>(R)) << (R ? "" : R.getError().message());
  return R ? R->ReturnValue : bc::Value();
}

/// Small corpus of semantically interesting programs used by the JIT
/// property suite: loops, calls, conditionals, heap traffic, floats,
/// recursion.  Each takes one integer parameter.
inline const std::vector<std::pair<const char *, const char *>> &
programCorpus() {
  static const std::vector<std::pair<const char *, const char *>> Corpus = {
      {"sum_loop", R"(
func main(1) locals 3
  const_i 0
  store_local 1
  const_i 0
  store_local 2
loop:
  load_local 2
  load_local 0
  lt
  br_false done
  load_local 1
  load_local 2
  add
  store_local 1
  load_local 2
  const_i 1
  add
  store_local 2
  br loop
done:
  load_local 1
  ret
end
)"},
      {"fib_recursive", R"(
func main(1) locals 1
  load_local 0
  call fib
  ret
end
func fib(1) locals 1
  load_local 0
  const_i 2
  lt
  br_false rec
  load_local 0
  ret
rec:
  load_local 0
  const_i 1
  sub
  call fib
  load_local 0
  const_i 2
  sub
  call fib
  add
  ret
end
)"},
      {"heap_fill_sum", R"(
func main(1) locals 4
  load_local 0
  newarr
  store_local 1
  const_i 0
  store_local 2
fill:
  load_local 2
  load_local 0
  lt
  br_false sum_init
  load_local 1
  load_local 2
  add
  load_local 2
  load_local 2
  mul
  hstore
  load_local 2
  const_i 1
  add
  store_local 2
  br fill
sum_init:
  const_i 0
  store_local 2
  const_i 0
  store_local 3
sum:
  load_local 2
  load_local 0
  lt
  br_false done
  load_local 3
  load_local 1
  load_local 2
  add
  hload
  add
  store_local 3
  load_local 2
  const_i 1
  add
  store_local 2
  br sum
done:
  load_local 3
  ret
end
)"},
      {"float_math", R"(
func main(1) locals 3
  const_i 0
  store_local 2
  const_f 0.0
  store_local 1
loop:
  load_local 2
  load_local 0
  lt
  br_false done
  load_local 1
  load_local 2
  const_f 0.1
  mul
  sin
  load_local 2
  const_i 1
  add
  sqrt
  mul
  add
  store_local 1
  load_local 2
  const_i 1
  add
  store_local 2
  br loop
done:
  load_local 1
  const_f 1000.0
  mul
  f2i
  ret
end
)"},
      {"branchy_mix", R"(
func main(1) locals 3
  const_i 0
  store_local 1
  const_i 0
  store_local 2
loop:
  load_local 2
  load_local 0
  lt
  br_false done
  load_local 2
  const_i 3
  mod
  br_true odd
  load_local 1
  load_local 2
  const_i 2
  mul
  add
  store_local 1
  br next
odd:
  load_local 1
  load_local 2
  const_i 7
  and
  sub
  store_local 1
next:
  load_local 2
  const_i 1
  add
  store_local 2
  br loop
done:
  load_local 1
  ret
end
)"},
      {"helper_calls", R"(
func main(1) locals 3
  const_i 0
  store_local 1
  const_i 0
  store_local 2
loop:
  load_local 2
  load_local 0
  lt
  br_false done
  load_local 1
  load_local 2
  call square_plus_one
  add
  store_local 1
  load_local 2
  const_i 1
  add
  store_local 2
  br loop
done:
  load_local 1
  ret
end
func square_plus_one(1) locals 1
  load_local 0
  load_local 0
  mul
  const_i 1
  add
  ret
end
)"},
      // Chunked driver: main is invoked once (so it stays at baseline — the
      // VM has no on-stack replacement) but the hot loop lives in a method
      // invoked once per chunk, the shape real workloads have.
      {"chunked_work", R"(
func main(1) locals 3
  const_i 0
  store_local 1
  const_i 0
  store_local 2
loop:
  load_local 2
  load_local 0
  lt
  br_false done
  load_local 1
  load_local 2
  call work
  add
  store_local 1
  load_local 2
  const_i 1
  add
  store_local 2
  br loop
done:
  load_local 1
  ret
end
func work(1) locals 4
  const_i 0
  store_local 1
  const_f 0.0
  store_local 2
inner:
  load_local 1
  const_i 200
  lt
  br_false out
  load_local 2
  load_local 0
  const_f 0.01
  mul
  sin
  load_local 1
  const_i 1
  add
  sqrt
  mul
  add
  store_local 2
  load_local 1
  const_i 1
  add
  store_local 1
  br inner
out:
  load_local 2
  const_f 100.0
  mul
  f2i
  ret
end
)"},
  };
  return Corpus;
}

} // namespace test
} // namespace evm

#endif // EVM_TESTS_TESTHELPERS_H
