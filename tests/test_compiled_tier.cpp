//===- tests/test_compiled_tier.cpp - Compiled-tier clock edge cases -----==//
//
// Edge cases of the virtual clock while compiled code runs:
//
//   * fuel boundaries inside compiled code at O0/O1/O2 (C succeeds with an
//     identical RunResult, C-1 traps);
//   * a synchronous recompile of the method whose frame is running;
//   * a background install of a live caller's level while a callee runs;
//   * compiled recursion down to CallDepthExceeded;
//   * an operator trap on the instruction right after a call returns;
//   * observer identity: a compiled-heavy Mtrt replay with a phase profiler
//     attached and the tracer on;
//   * the per-operator table: every binary and unary operator over int,
//     float and mixed edge operands gives the same kind, payload bits and
//     trap in evalBinary/evalUnary, both interpreter loops, compiled O0
//     code and the O2 constant folder.
//
// The pinned figures and digests were recorded with a clock that charged
// every IR instruction one at a time.  The compiled-tier executor settles
// its cycle budget only at calls, returns and budget exhaustion, so these
// pins are what proves that batching is invisible: samples, fuel traps,
// policy hooks, traces and phase attribution land on the same cycles.
//
//===----------------------------------------------------------------------===//

#include "support/Profiler.h"
#include "support/Trace.h"
#include "vm/AOS.h"
#include "vm/Engine.h"
#include "vm/Eval.h"
#include "vm/Policy.h"
#include "workloads/Workload.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

using namespace evm;
using namespace evm::vm;
using evm::test::assemble;

namespace {

/// Starts every method at a fixed level through the first-invocation hook
/// (a synchronous compile when no workers are configured).
class ForceLevelPolicy : public CompilationPolicy {
public:
  explicit ForceLevelPolicy(OptLevel L) : Level(L) {}
  std::optional<OptLevel>
  onFirstInvocation(const MethodRuntimeInfo &) override {
    return Level;
  }

private:
  OptLevel Level;
};

/// Moves whichever method a sample lands in to O2.
class SampleToO2Policy : public CompilationPolicy {
public:
  explicit SampleToO2Policy(std::optional<OptLevel> First) : First(First) {}
  std::optional<OptLevel>
  onFirstInvocation(const MethodRuntimeInfo &) override {
    return First;
  }
  std::optional<OptLevel> onSample(const MethodRuntimeInfo &Info) override {
    if (Info.Level != OptLevel::O2)
      return OptLevel::O2;
    return std::nullopt;
  }

private:
  std::optional<OptLevel> First;
};

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

/// Every virtual observable of a run, rendered canonically.
std::string describe(const RunResult &R) {
  std::string S = R.ReturnValue.str() + "|" + std::to_string(R.Cycles) + "|" +
                  R.Metrics.renderJson() + "|";
  for (const MethodStats &M : R.PerMethod) {
    S += std::to_string(M.Samples) + "," + std::to_string(M.Invocations) +
         "," + std::to_string(M.NumCompiles) + "," +
         levelName(M.FinalLevel);
    for (uint64_t C : M.CyclesByLevel)
      S += "," + std::to_string(C);
    S += ";";
  }
  for (const CompileEvent &E : R.Compiles)
    S += std::to_string(E.Method) + "@" + levelName(E.Level) + ":" +
         std::to_string(E.AtCycle) + "/" + std::to_string(E.CostCycles) +
         "/" + std::to_string(E.RequestedAtCycle) + (E.Background ? "b" : "") +
         ";";
  return S;
}

struct Outcome {
  ErrorOr<RunResult> Run;
  uint64_t ChargedCycles; ///< profiler total under "run" (also after a trap)
};

Outcome runForced(const bc::Module &M, OptLevel L, int64_t Input,
                  uint64_t MaxCycles) {
  TimingModel TM;
  ForceLevelPolicy Policy(L);
  ExecutionEngine Engine(M, TM, &Policy);
  PhaseProfiler Prof;
  ProfilerInstallGuard Guard(&Prof);
  auto R = Engine.run({bc::Value::makeInt(Input)}, MaxCycles);
  return Outcome{std::move(R), Prof.snapshot().totalUnder("run")};
}

std::string trapOf(const ErrorOr<RunResult> &R) {
  return R ? std::string("no trap") : R.getError().message();
}

const OptLevel CompiledLevels[] = {OptLevel::O0, OptLevel::O1, OptLevel::O2};

/// Recursion depth probe: depth(n) = n, one frame per level, with spare
/// locals so each compiled frame has a wide register window.
const char *DepthProgram = R"(
func main(1) locals 1
  load_local 0
  call depth
  ret
end
func depth(1) locals 6
  load_local 0
  const_i 0
  eq
  br_false rec
  const_i 0
  ret
rec:
  load_local 0
  const_i 1
  sub
  store_local 1
  load_local 1
  call depth
  const_i 1
  add
  ret
end
)";

/// Divides by the value a call returns (zero), so the trap is raised by
/// the instruction after the call returns.
const char *DivAfterCallProgram = R"(
func main(1) locals 2
  load_local 0
  call zero
  store_local 1
  const_i 100
  load_local 1
  div
  ret
end
func zero(1) locals 2
  load_local 0
  store_local 1
  load_local 0
  load_local 1
  sub
  ret
end
)";

} // namespace

TEST(CompiledTier, FuelBoundaryAtEachCompiledLevel) {
  struct Case {
    const char *Program;
    int64_t Input;
  };
  const Case Cases[] = {{"helper_calls", 300}, {"fib_recursive", 15}};
  // Pinned: full-run digest and the cycles charged up to a mid-run fuel
  // trap at C/2, per (program, level).
  const uint64_t PinnedDigest[2][3] = {
      {8230441439519915501ULL, 3300008109982920886ULL, 12848486901677814382ULL},
      {5073843837776421616ULL, 1385346769565778643ULL, 7126173877366188941ULL}};
  const uint64_t PinnedHalfTrapCycles[2][3] = {{14708, 38110, 150110},
                                               {39462, 51902, 174234}};
  for (size_t P = 0; P != 2; ++P) {
    bc::Module M;
    for (const auto &Entry : test::programCorpus())
      if (std::string(Entry.first) == Cases[P].Program)
        M = assemble(Entry.second);
    ASSERT_GT(M.numFunctions(), 0u);
    for (size_t K = 0; K != 3; ++K) {
      OptLevel L = CompiledLevels[K];
      SCOPED_TRACE(std::string(Cases[P].Program) + " at O" + levelName(L));
      Outcome Free = runForced(M, L, Cases[P].Input, UINT64_MAX);
      ASSERT_TRUE(static_cast<bool>(Free.Run)) << trapOf(Free.Run);
      uint64_t C = Free.Run->Cycles;
      EXPECT_EQ(Free.ChargedCycles, C);

      Outcome Exact = runForced(M, L, Cases[P].Input, C);
      ASSERT_TRUE(static_cast<bool>(Exact.Run)) << trapOf(Exact.Run);
      EXPECT_EQ(describe(*Exact.Run), describe(*Free.Run));

      Outcome Short = runForced(M, L, Cases[P].Input, C - 1);
      EXPECT_NE(trapOf(Short.Run).find("(cycle budget exhausted)"),
                std::string::npos)
          << trapOf(Short.Run);
      EXPECT_EQ(Short.ChargedCycles, C);

      Outcome Half = runForced(M, L, Cases[P].Input, C / 2);
      EXPECT_NE(trapOf(Half.Run).find("(cycle budget exhausted)"),
                std::string::npos)
          << trapOf(Half.Run);
      EXPECT_GT(Half.ChargedCycles, C / 2);
      EXPECT_EQ(fnv1a(describe(*Free.Run)), PinnedDigest[P][K]);
      EXPECT_EQ(Half.ChargedCycles, PinnedHalfTrapCycles[P][K]);
    }
  }
}

TEST(CompiledTier, SynchronousRecompileOfRunningMethod) {
  // main is entered once at O0; a sample inside its loop recompiles it to
  // O2 on the spot.  The live frame keeps running its O0 code, and the
  // rest of its cycles are booked to O2.
  bc::Module M = assemble(test::programCorpus()[0].second); // sum_loop
  TimingModel TM;
  SampleToO2Policy Policy(OptLevel::O0);
  ExecutionEngine Engine(M, TM, &Policy);
  PhaseProfiler Prof;
  ProfilerInstallGuard Guard(&Prof);
  auto R = Engine.run({bc::Value::makeInt(60000)});
  ASSERT_TRUE(static_cast<bool>(R)) << trapOf(R);
  const MethodStats &Main = R->PerMethod[0];
  EXPECT_EQ(Main.FinalLevel, OptLevel::O2);
  EXPECT_EQ(Main.Invocations, 1u);
  EXPECT_EQ(R->Cycles, 1711841u);
  EXPECT_EQ(Main.Samples, 34u);
  const uint64_t PinnedByLevel[NumOptLevels] = {0, 161194, 0, 1542840};
  for (int I = 0; I != NumOptLevels; ++I)
    EXPECT_EQ(Main.CyclesByLevel[I], PinnedByLevel[I]) << "level index " << I;
  EXPECT_EQ(fnv1a(R->Phases.renderJson()), 15806559628755873197ULL);
}

TEST(CompiledTier, BackgroundInstallOfCallerWhileCalleeRuns) {
  // main runs pinned O0 code for its one invocation and calls the helper
  // in a loop.  Samples request O2 on a worker; the install lands at a
  // helper invocation, so main's level changes while its frame is live.
  bc::Module M = assemble(test::programCorpus()[5].second); // helper_calls
  TimingModel TM;
  TM.NumCompileWorkers = 2;
  SampleToO2Policy Policy(std::nullopt);
  ExecutionEngine Engine(M, TM, &Policy);
  Engine.setCodeOverride(0, std::make_shared<const jit::CompiledFunction>(
                                jit::compileAtLevel(M, 0, OptLevel::O0)));
  TraceRecorder Tracer;
  Tracer.setEnabled(true);
  Engine.setTracer(&Tracer);
  auto R = Engine.run({bc::Value::makeInt(40000)});
  ASSERT_TRUE(static_cast<bool>(R)) << trapOf(R);
  const MethodStats &Main = R->PerMethod[0];
  EXPECT_EQ(Main.Invocations, 1u);
  EXPECT_EQ(Main.FinalLevel, OptLevel::O2);
  EXPECT_GT(Main.CyclesByLevel[levelIndex(OptLevel::O0)], 0u);
  EXPECT_GT(Main.CyclesByLevel[levelIndex(OptLevel::O2)], 0u);
  std::string Trace = renderJsonlTrace(Tracer.exportOrder(), TraceMeta());
  EXPECT_EQ(fnv1a(describe(*R)), 15665523521484002014ULL);
  EXPECT_EQ(fnv1a(Trace), 15767456041027278570ULL);
}

TEST(CompiledTier, CompiledRecursionToCallDepthExceeded) {
  bc::Module M = assemble(DepthProgram);
  const uint64_t PinnedDeepDigest[3] = {
      5548661426900228215ULL, 13355481328449468728ULL, 416348389304096657ULL};
  const uint64_t PinnedTrapCycles[3] = {27493, 57043, 182139};
  test::runWithStack(test::DeepRecursionStackBytes, [&] {
    for (size_t K = 0; K != 3; ++K) {
      OptLevel L = CompiledLevels[K];
      SCOPED_TRACE(std::string("O") + levelName(L));
      TimingModel TM;
      ForceLevelPolicy Policy(L);
      ExecutionEngine Engine(M, TM, &Policy);
      // Deep but legal: the register windows of ~500 frames.
      auto Deep = Engine.run({bc::Value::makeInt(500)});
      ASSERT_TRUE(static_cast<bool>(Deep)) << trapOf(Deep);
      EXPECT_EQ(Deep->ReturnValue.asInt(), 500);
      uint64_t TrapCycles;
      {
        PhaseProfiler Prof;
        ProfilerInstallGuard Guard(&Prof);
        auto TooDeep = Engine.run({bc::Value::makeInt(100000)});
        EXPECT_NE(trapOf(TooDeep).find("(call depth exceeded)"),
                  std::string::npos)
            << trapOf(TooDeep);
        TrapCycles = Prof.snapshot().totalUnder("run");
      }
      // The engine is reusable after unwinding from the depth limit.
      auto Again = Engine.run({bc::Value::makeInt(500)});
      ASSERT_TRUE(static_cast<bool>(Again)) << trapOf(Again);
      EXPECT_EQ(describe(*Again), describe(*Deep));
      EXPECT_EQ(fnv1a(describe(*Deep)), PinnedDeepDigest[K]);
      EXPECT_EQ(TrapCycles, PinnedTrapCycles[K]);
    }
  });
}

TEST(CompiledTier, OperatorTrapRightAfterCallReturns) {
  bc::Module M = assemble(DivAfterCallProgram);
  const uint64_t PinnedTrapCycles[3] = {8101, 18600, 72100};
  for (size_t K = 0; K != 3; ++K) {
    OptLevel L = CompiledLevels[K];
    SCOPED_TRACE(std::string("O") + levelName(L));
    Outcome R = runForced(M, L, 7, UINT64_MAX);
    EXPECT_NE(trapOf(R.Run).find("(division by zero)"), std::string::npos)
        << trapOf(R.Run);
    EXPECT_EQ(R.ChargedCycles, PinnedTrapCycles[K]);
  }
}

TEST(CompiledTier, ObserverIdentityOnCompiledHeavyReplay) {
  // A Mtrt replay under the reactive optimizer: most execution cycles run
  // in compiled code.  The phase tree and the JSONL trace must come out
  // byte-identical to the per-instruction clock's.
  wl::Workload W = wl::buildWorkload("Mtrt", 20090301);
  TraceMeta Meta;
  for (uint32_t F = 0; F != W.Module.numFunctions(); ++F)
    Meta.MethodNames.push_back(W.Module.function(F).Name);
  const uint64_t PinnedPhases[2] = {15235401182172214823ULL,
                                    8323071293278994494ULL};
  const uint64_t PinnedTrace[2] = {8056638379348885591ULL,
                                   17588191303980296233ULL};
  for (uint64_t Workers : {0, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    TimingModel TM;
    TM.NumCompileWorkers = Workers;
    TraceRecorder Tracer;
    Tracer.setEnabled(true);
    AdaptivePolicy Policy(TM, &Tracer);
    ExecutionEngine Engine(W.Module, TM, &Policy);
    Engine.setTracer(&Tracer);
    PhaseProfiler Prof;
    ProfilerInstallGuard Guard(&Prof);
    uint64_t Compiled = 0, Total = 0;
    std::string Phases;
    for (size_t I = 0; I != 3; ++I) {
      auto R = Engine.run(W.Inputs[I].VmArgs, UINT64_MAX, 0, I * 7919);
      ASSERT_TRUE(static_cast<bool>(R)) << trapOf(R);
      for (const MethodStats &S : R->PerMethod)
        for (int L = 0; L != NumOptLevels; ++L) {
          Total += S.CyclesByLevel[L];
          if (L != levelIndex(OptLevel::Baseline))
            Compiled += S.CyclesByLevel[L];
        }
      Phases += R->Phases.renderJson();
    }
    EXPECT_GT(Compiled * 2, Total) << "replay is not compiled-heavy";
    std::string Trace = renderJsonlTrace(Tracer.exportOrder(), Meta);
    size_t Slot = Workers ? 1 : 0;
    EXPECT_EQ(fnv1a(Phases), PinnedPhases[Slot]);
    EXPECT_EQ(fnv1a(Trace), PinnedTrace[Slot]);
  }
}

//===----------------------------------------------------------------------===//
// Per-operator cross-tier table
//===----------------------------------------------------------------------===//

namespace {

/// A value's kind and exact 64-bit payload (NaNs compare by bits).
std::string bitsOf(const bc::Value &V) {
  uint64_t Bits;
  if (V.isInt()) {
    Bits = static_cast<uint64_t>(V.asInt());
  } else {
    double D = V.asFloat();
    std::memcpy(&Bits, &D, sizeof(Bits));
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%s:%016" PRIx64, V.isInt() ? "i" : "f",
                Bits);
  return Buf;
}

std::string outcomeOf(const std::optional<bc::Value> &V, TrapKind Trap) {
  return V ? bitsOf(*V) : std::string("trap:") + trapKindName(Trap);
}

/// A run's outcome in the same rendering; a trap is read back from the
/// engine's "(<trap kind>)" message suffix.
std::string outcomeOf(const ErrorOr<RunResult> &R) {
  if (R)
    return bitsOf(R->ReturnValue);
  const std::string &Msg = R.getError().message();
  size_t Open = Msg.rfind('(');
  return "trap:" + Msg.substr(Open + 1, Msg.size() - Open - 2);
}

bc::Instr instr(bc::Opcode Op, int64_t Operand = 0) {
  bc::Instr I;
  I.Op = Op;
  I.Operand = Operand;
  return I;
}

bc::Instr push(const bc::Value &V) {
  return V.isInt() ? instr(bc::Opcode::ConstInt, V.asInt())
                   : instr(bc::Opcode::ConstFloat,
                           bc::Instr::encodeFloat(V.asFloat()));
}

/// main(params) applying \p Op to its operands: the parameters when
/// \p Consts is empty, else the constants themselves (which the O2
/// constant folder evaluates at compile time).
bc::Module oneOpModule(bc::Opcode Op, uint32_t Arity,
                       const std::vector<bc::Value> &Consts) {
  bc::Function F;
  F.Name = "main";
  F.NumParams = F.NumLocals = Consts.empty() ? Arity : 0;
  for (uint32_t K = 0; K != Arity; ++K)
    F.Code.push_back(Consts.empty() ? instr(bc::Opcode::LoadLocal, K)
                                    : push(Consts[K]));
  F.Code.push_back(instr(Op));
  F.Code.push_back(instr(bc::Opcode::Ret));
  bc::Module M;
  M.addFunction(std::move(F));
  return M;
}

/// Runs \p M once in the baseline interpreter under \p Mode.
ErrorOr<RunResult> runInterpreted(const bc::Module &M, DispatchMode Mode,
                                  const std::vector<bc::Value> &Args) {
  TimingModel TM;
  ExecutionEngine Engine(M, TM, nullptr);
  Engine.setDispatchMode(Mode);
  return Engine.run(Args);
}

ErrorOr<RunResult> runCompiled(const bc::Module &M, OptLevel L,
                               const std::vector<bc::Value> &Args) {
  TimingModel TM;
  ForceLevelPolicy Policy(L);
  ExecutionEngine Engine(M, TM, &Policy);
  return Engine.run(Args);
}

#define EVM_TABLE_OP(OP) bc::Opcode::OP,
const bc::Opcode BinaryOps[] = {EVM_FOR_EACH_BINARY_OP(EVM_TABLE_OP)};
const bc::Opcode UnaryOps[] = {EVM_FOR_EACH_UNARY_OP(EVM_TABLE_OP)};
#undef EVM_TABLE_OP

std::vector<bc::Value> intEdges() {
  return {bc::Value::makeInt(0), bc::Value::makeInt(1), bc::Value::makeInt(-1),
          bc::Value::makeInt(INT64_MIN), bc::Value::makeInt(INT64_MAX)};
}

std::vector<bc::Value> floatEdges() {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<bc::Value> Edges;
  for (double D : {0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e300, Inf, -Inf, NaN})
    Edges.push_back(bc::Value::makeFloat(D));
  return Edges;
}

/// Checks one operator application in every tier against \p Want (the
/// evalBinary/evalUnary outcome).
void expectAllTiers(bc::Opcode Op, const std::vector<bc::Value> &Operands,
                    const std::string &Want) {
  std::string Where(bc::getOpcodeInfo(Op).Mnemonic);
  for (const bc::Value &V : Operands)
    Where += " " + bitsOf(V);
  SCOPED_TRACE(Where);
  uint32_t Arity = static_cast<uint32_t>(Operands.size());
  bc::Module ByArgs = oneOpModule(Op, Arity, {});
  EXPECT_EQ(outcomeOf(runInterpreted(ByArgs, DispatchMode::Switch, Operands)),
            Want)
      << "interpretSwitch";
  EXPECT_EQ(
      outcomeOf(runInterpreted(ByArgs, DispatchMode::Threaded, Operands)),
      Want)
      << "interpretDecoded";
  EXPECT_EQ(outcomeOf(runCompiled(ByArgs, OptLevel::O0, Operands)), Want)
      << "compiled O0";
  bc::Module ByConsts = oneOpModule(Op, Arity, Operands);
  EXPECT_EQ(outcomeOf(runCompiled(ByConsts, OptLevel::O2, {})), Want)
      << "O2 constant folder";
}

} // namespace

TEST(CompiledTier, BinaryOperatorTableAgreesAcrossTiers) {
  std::vector<bc::Value> Ints = intEdges(), Floats = floatEdges();
  // Operand kinds II, FF, IF and FI.
  const std::vector<bc::Value> *Kinds[4][2] = {
      {&Ints, &Ints}, {&Floats, &Floats}, {&Ints, &Floats}, {&Floats, &Ints}};
  size_t Checked = 0;
  for (bc::Opcode Op : BinaryOps) {
    ASSERT_TRUE(isBinaryOp(Op));
    for (const auto &Kind : Kinds)
      for (const bc::Value &A : *Kind[0])
        for (const bc::Value &B : *Kind[1]) {
          TrapKind Trap = TrapKind::None;
          std::optional<bc::Value> R = evalBinary(Op, A, B, Trap);
          expectAllTiers(Op, {A, B}, outcomeOf(R, Trap));
          ++Checked;
        }
  }
  EXPECT_EQ(Checked, 18u * (5 * 5 + 10 * 10 + 5 * 10 + 10 * 5));
}

TEST(CompiledTier, UnaryOperatorTableAgreesAcrossTiers) {
  std::vector<bc::Value> Operands = intEdges();
  for (const bc::Value &F : floatEdges())
    Operands.push_back(F);
  size_t Checked = 0;
  for (bc::Opcode Op : UnaryOps) {
    ASSERT_TRUE(isUnaryOp(Op));
    for (const bc::Value &A : Operands) {
      // F2I of NaN, an infinity or an out-of-range float is undefined.
      if (Op == bc::Opcode::F2I && A.isFloat() &&
          !(std::fabs(A.asFloat()) < 0x1p63))
        continue;
      TrapKind Trap = TrapKind::None;
      std::optional<bc::Value> R = evalUnary(Op, A, Trap);
      expectAllTiers(Op, {A}, outcomeOf(R, Trap));
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, 9u * 15 - 4);
}
