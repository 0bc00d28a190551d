//===- tests/test_engine.cpp - Engine timing, sampling, recompilation -----==//

#include "vm/AOS.h"
#include "vm/Engine.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace evm;
using namespace evm::vm;
using evm::test::assemble;

namespace {

/// A long-running program whose hot method is re-invoked per chunk, so
/// recompilation (which takes effect at the next invocation) can pay off.
bc::Module hotLoop() {
  return assemble(test::programCorpus()[6].second); // chunked_work
}

} // namespace

TEST(EngineTest, RunProducesProfile) {
  bc::Module M = hotLoop();
  TimingModel TM;
  ExecutionEngine Engine(M, TM, nullptr);
  auto R = Engine.run({bc::Value::makeInt(400)}, 1ULL << 40);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_GT(R->Cycles, 0u);
  ASSERT_EQ(R->PerMethod.size(), M.numFunctions());
  EXPECT_GT(R->PerMethod[0].Invocations, 0u);
  EXPECT_GT(R->totalSamples(), 0u);
}

TEST(EngineTest, BaselineCompileChargedOncePerMethod) {
  bc::Module M = assemble(test::programCorpus()[5].second); // helper_calls
  TimingModel TM;
  ExecutionEngine Engine(M, TM, nullptr);
  auto R = Engine.run({bc::Value::makeInt(50)}, 1ULL << 40);
  ASSERT_TRUE(static_cast<bool>(R));
  // Two methods, each baseline-compiled exactly once.
  ASSERT_EQ(R->Compiles.size(), 2u);
  for (const CompileEvent &E : R->Compiles)
    EXPECT_EQ(E.Level, OptLevel::Baseline);
  EXPECT_GT(R->compileCycles(), 0u);
}

TEST(EngineTest, SamplesMatchIntervalArithmetic) {
  bc::Module M = hotLoop();
  TimingModel TM;
  ExecutionEngine Engine(M, TM, nullptr);
  auto R = Engine.run({bc::Value::makeInt(1200)}, 1ULL << 40);
  ASSERT_TRUE(static_cast<bool>(R));
  uint64_t Expected = R->Cycles / TM.SampleIntervalCycles;
  uint64_t Got = R->totalSamples();
  EXPECT_NEAR(static_cast<double>(Got), static_cast<double>(Expected), 2.0);
}

TEST(EngineTest, AdaptivePolicyRecompilesHotMethods) {
  bc::Module M = hotLoop();
  TimingModel TM;
  AdaptivePolicy Policy(TM);
  ExecutionEngine Engine(M, TM, &Policy);
  auto R = Engine.run({bc::Value::makeInt(2500)}, 1ULL << 42);
  ASSERT_TRUE(static_cast<bool>(R));
  // The chunked hot method (index 1) must have been recompiled upward.
  EXPECT_GT(R->PerMethod[1].NumCompiles, 1);
  EXPECT_NE(R->PerMethod[1].FinalLevel, OptLevel::Baseline);
}

TEST(EngineTest, AdaptiveRunIsFasterThanPureBaseline) {
  bc::Module M = hotLoop();
  TimingModel TM;
  const int64_t N = 2500;

  ExecutionEngine Baseline(M, TM, nullptr);
  auto RBase = Baseline.run({bc::Value::makeInt(N)}, 1ULL << 42);
  AdaptivePolicy Policy(TM);
  ExecutionEngine Adaptive(M, TM, &Policy);
  auto RAdapt = Adaptive.run({bc::Value::makeInt(N)}, 1ULL << 42);
  ASSERT_TRUE(static_cast<bool>(RBase));
  ASSERT_TRUE(static_cast<bool>(RAdapt));
  EXPECT_LT(RAdapt->Cycles, RBase->Cycles);
  // And both compute the same value.
  EXPECT_TRUE(RBase->ReturnValue.equals(RAdapt->ReturnValue));
}

TEST(EngineTest, RecompilationTakesEffectOnNextInvocation) {
  // A policy that recompiles the helper at its first sample; the helper's
  // stats must show the level change.
  bc::Module M = assemble(test::programCorpus()[5].second); // helper_calls
  class FirstSampleO2 : public CompilationPolicy {
  public:
    std::optional<OptLevel> onSample(const MethodRuntimeInfo &Info) override {
      if (Info.Level == OptLevel::Baseline)
        return OptLevel::O2;
      return std::nullopt;
    }
  };
  TimingModel TM;
  FirstSampleO2 Policy;
  ExecutionEngine Engine(M, TM, &Policy);
  auto R = Engine.run({bc::Value::makeInt(200000)}, 1ULL << 42);
  ASSERT_TRUE(static_cast<bool>(R));
  bool SawO2 = false;
  for (const MethodStats &S : R->PerMethod)
    SawO2 |= S.FinalLevel == OptLevel::O2;
  EXPECT_TRUE(SawO2);
}

TEST(EngineTest, CyclesByLevelAccountedPerTier) {
  bc::Module M = hotLoop();
  TimingModel TM;
  AdaptivePolicy Policy(TM);
  ExecutionEngine Engine(M, TM, &Policy);
  auto R = Engine.run({bc::Value::makeInt(2500)}, 1ULL << 42);
  ASSERT_TRUE(static_cast<bool>(R));
  const MethodStats &Work = R->PerMethod[1];
  // Started at baseline, so some cycles are attributed there, and some to
  // the final optimized tier.
  EXPECT_GT(Work.CyclesByLevel[levelIndex(OptLevel::Baseline)], 0u);
  EXPECT_GT(Work.CyclesByLevel[levelIndex(Work.FinalLevel)], 0u);
  EXPECT_GT(Work.baselineEquivalentCycles(TM), 0.0);
}

TEST(EngineTest, OverheadChargedAndAccounted) {
  bc::Module M = assemble("func main(0)\n  const_i 1\n  ret\nend\n");
  TimingModel TM;
  ExecutionEngine Engine(M, TM, nullptr);
  auto R = Engine.run({}, 1ULL << 40, /*PreRunOverheadCycles=*/12345);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->overheadCycles(), 12345u);
  EXPECT_GT(R->Cycles, 12345u);
}

TEST(EngineTest, SamplePhaseShiftsProfiles) {
  bc::Module M = hotLoop();
  TimingModel TM;
  ExecutionEngine Engine(M, TM, nullptr);
  auto R1 = Engine.run({bc::Value::makeInt(800)}, 1ULL << 42, 0, 0);
  auto R2 = Engine.run({bc::Value::makeInt(800)}, 1ULL << 42, 0,
                       TM.SampleIntervalCycles / 3);
  ASSERT_TRUE(static_cast<bool>(R1));
  ASSERT_TRUE(static_cast<bool>(R2));
  // Identical work, identical results, same total time (no policy).
  EXPECT_TRUE(R1->ReturnValue.equals(R2->ReturnValue));
  EXPECT_EQ(R1->Cycles, R2->Cycles);
}

TEST(EngineTest, RunResetsStateBetweenRuns) {
  bc::Module M = assemble(test::programCorpus()[2].second); // heap_fill_sum
  TimingModel TM;
  ExecutionEngine Engine(M, TM, nullptr);
  auto R1 = Engine.run({bc::Value::makeInt(10)}, 1ULL << 40);
  auto R2 = Engine.run({bc::Value::makeInt(10)}, 1ULL << 40);
  ASSERT_TRUE(static_cast<bool>(R1));
  ASSERT_TRUE(static_cast<bool>(R2));
  // Heap reset: same addresses, same sums, same cycle counts.
  EXPECT_EQ(R1->ReturnValue.asInt(), R2->ReturnValue.asInt());
  EXPECT_EQ(R1->Cycles, R2->Cycles);
}

TEST(EngineTest, ArityMismatchReported) {
  bc::Module M = assemble("func main(2)\n  load_local 0\n  ret\nend\n");
  TimingModel TM;
  ExecutionEngine Engine(M, TM, nullptr);
  auto R = Engine.run({bc::Value::makeInt(1)});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.getError().message().find("expects"), std::string::npos);
}

TEST(EngineTest, MethodLevelQueryReflectsInstalls) {
  bc::Module M = hotLoop();
  TimingModel TM;
  AdaptivePolicy Policy(TM);
  ExecutionEngine Engine(M, TM, &Policy);
  auto R = Engine.run({bc::Value::makeInt(2500)}, 1ULL << 42);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(Engine.methodLevel(1), R->PerMethod[1].FinalLevel);
}

TEST(EngineTest, InterpMoreExpensivePerBytecodeThanCompiled) {
  // A pure dispatch comparison: long int loop, baseline vs forced O0.
  bc::Module M = assemble(test::programCorpus()[0].second); // sum_loop
  TimingModel TM;
  class ForceO0 : public CompilationPolicy {
  public:
    std::optional<OptLevel>
    onFirstInvocation(const MethodRuntimeInfo &) override {
      return OptLevel::O0;
    }
  };
  ExecutionEngine Base(M, TM, nullptr);
  ForceO0 P;
  ExecutionEngine Opt(M, TM, &P);
  auto RB = Base.run({bc::Value::makeInt(200000)}, 1ULL << 42);
  auto RO = Opt.run({bc::Value::makeInt(200000)}, 1ULL << 42);
  ASSERT_TRUE(static_cast<bool>(RB));
  ASSERT_TRUE(static_cast<bool>(RO));
  EXPECT_GT(RB->Cycles, RO->Cycles);
}

TEST(HeapTest, GrowthKeepsContentsAndExhaustsAtMaxCells) {
  // The first allocation reserves the whole heap; later allocations must
  // keep earlier cells intact, and the MaxCells limit traps as before.
  Heap H(8);
  TrapKind Trap = TrapKind::None;
  auto A = H.alloc(3, Trap);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(*A, 0);
  ASSERT_TRUE(H.store(2, bc::Value::makeInt(42), Trap));
  auto B = H.alloc(5, Trap);
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(*B, 3);
  EXPECT_EQ(H.load(2, Trap)->asInt(), 42);
  EXPECT_EQ(H.load(7, Trap)->asInt(), 0);
  EXPECT_FALSE(H.alloc(1, Trap).has_value());
  EXPECT_EQ(Trap, TrapKind::HeapExhausted);
  EXPECT_FALSE(H.load(8, Trap).has_value());
  EXPECT_EQ(Trap, TrapKind::HeapOutOfBounds);
  H.reset();
  EXPECT_EQ(H.size(), 0u);
  auto C = H.alloc(8, Trap);
  ASSERT_TRUE(C.has_value());
  EXPECT_EQ(*C, 0);
  EXPECT_EQ(H.load(2, Trap)->asInt(), 0);
}

TEST(EngineTest, OversizedAllocationTrapsInEveryTier) {
  // One cell past the default heap limit (4 Mi cells); nothing is touched.
  bc::Module M = assemble(R"(
func main(1) locals 1
  load_local 0
  newarr
  ret
end
)");
  for (int L = 0; L != NumOptLevels; ++L) {
    class Force : public CompilationPolicy {
    public:
      explicit Force(OptLevel L) : L(L) {}
      std::optional<OptLevel>
      onFirstInvocation(const MethodRuntimeInfo &) override {
        if (L == OptLevel::Baseline)
          return std::nullopt;
        return L;
      }
      OptLevel L;
    } Policy(levelFromIndex(L));
    TimingModel TM;
    ExecutionEngine Engine(M, TM, &Policy);
    auto R = Engine.run({bc::Value::makeInt((1 << 22) + 1)});
    ASSERT_FALSE(static_cast<bool>(R)) << "level index " << L;
    EXPECT_NE(R.getError().message().find("(heap exhausted)"),
              std::string::npos)
        << R.getError().message();
  }
}
