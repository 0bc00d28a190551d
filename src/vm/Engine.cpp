//===- vm/Engine.cpp ------------------------------------------------------==//

#include "vm/Engine.h"

#include "vm/Eval.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace evm;
using namespace evm::vm;
using bc::Instr;
using bc::MethodId;
using bc::Opcode;
using bc::Value;

CompilationPolicy::~CompilationPolicy() = default;

namespace {

/// Phase-frame names per optimizing level (stable string literals).
const char *jitExecPhase(OptLevel L) {
  switch (L) {
  case OptLevel::O0:
    return "jit:o0";
  case OptLevel::O1:
    return "jit:o1";
  default:
    return "jit:o2";
  }
}

const char *compilePhase(OptLevel L) {
  switch (L) {
  case OptLevel::O0:
    return "jit/compile/o0";
  case OptLevel::O1:
    return "jit/compile/o1";
  default:
    return "jit/compile/o2";
  }
}

/// Background-lane frame (under the "background" root).
const char *backgroundCompilePhase(OptLevel L) {
  switch (L) {
  case OptLevel::O0:
    return "compile/o0";
  case OptLevel::O1:
    return "compile/o1";
  default:
    return "compile/o2";
  }
}

/// Splits a compile-cost lump already attributed to the *current* scope
/// (the jit/compile/oN node) across the pipeline's passes, proportional to
/// recorded pass work.  Integer shares; the rounding remainder stays on
/// the compile node itself.
void splitPassCycles(PhaseProfiler &P, const std::vector<jit::PassWork> &Passes,
                     uint64_t Cost) {
  uint64_t TotalWork = 0;
  for (const jit::PassWork &PW : Passes)
    TotalWork += PW.Work;
  if (!TotalWork)
    return;
  for (const jit::PassWork &PW : Passes)
    P.splitToChild(PW.Name, Cost * PW.Work / TotalWork, PW.Runs);
}

} // namespace

ExecutionEngine::ExecutionEngine(const bc::Module &M, const TimingModel &TM,
                                 CompilationPolicy *Policy)
    : M(M), TM(TM), Policy(Policy), DispMode(processDispatchMode()),
      FusionTable(defaultSuperinstTable()) {
  decodeAll();
}

void ExecutionEngine::setDispatchMode(DispatchMode Mode,
                                      const SuperinstTable *Table) {
  DispMode = Mode;
  if (Table)
    FusionTable = *Table;
  decodeAll();
}

void ExecutionEngine::decodeAll() {
  Decoded.clear();
  if (DispMode == DispatchMode::Switch)
    return; // the reference interpreter reads bytecode directly
  uint64_t Mask =
      DispMode == DispatchMode::Fused ? FusionTable.enabledMask() : 0;
  Decoded.reserve(M.numFunctions());
  for (size_t Id = 0; Id != M.numFunctions(); ++Id)
    Decoded.push_back(
        decodeFunction(M.function(static_cast<MethodId>(Id)), TM, Mask));
}

void ExecutionEngine::setTracer(TraceRecorder *T) {
  Tracer = T;
  if (Workers)
    Workers->setTracer(T);
}

OptLevel ExecutionEngine::methodLevel(MethodId Id) const {
  assert(Id < Methods.size() && "method id out of range (before run?)");
  return Methods[Id].Level;
}

void ExecutionEngine::setCodeOverride(
    MethodId Id, std::shared_ptr<const jit::CompiledFunction> Code) {
  assert(Id < M.numFunctions() && "method id out of range");
  if (CodeOverrides.size() < M.numFunctions())
    CodeOverrides.resize(M.numFunctions());
  CodeOverrides[Id] = Code ? lowerCompiledCode(*Code, TM) : nullptr;
}

void ExecutionEngine::setTrap(TrapKind Kind, MethodId Method,
                              size_t Location) {
  // First trap wins; later ones are consequences of unwinding.
  if (PendingTrap == TrapKind::None) {
    PendingTrap = Kind;
    TrapMethod = Method;
    TrapLocation = Location;
  }
}

void ExecutionEngine::charge(uint64_t N) {
  Cycles += N;
  if (Prof)
    Prof->charge(N);
  if (Cycles > MaxCycles)
    setTrap(TrapKind::FuelExhausted, CallStack.empty() ? 0 : CallStack.back(),
            0);
  if (!CallStack.empty()) {
    MethodState &State = Methods[CallStack.back()];
    State.Stats.CyclesByLevel[levelIndex(State.Level)] += N;
  }
  while (Cycles >= NextSampleAt) {
    NextSampleAt += TM.SampleIntervalCycles;
    sampleTick();
  }
}

void ExecutionEngine::sampleTick() {
  if (CallStack.empty())
    return; // time outside any method (compiler setup, VM machinery)
  // The sample itself is free (the paper's profiler rides the timer
  // interrupt); any synchronous recompilation the policy triggers charges
  // under this frame, which is exactly the "AOS decided here" attribution.
  PROF_SCOPE("aos/sample");
  MethodId Current = CallStack.back();
  MethodState &State = Methods[Current];
  ++State.Stats.Samples;

  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::ProfileSample;
    E.Cycle = Cycles;
    E.Method = Current;
    E.Level = static_cast<int8_t>(State.Level);
    E.A = State.Stats.Samples;
    Tracer->record(E);
  }

  if (!Policy || InSamplingHook)
    return;
  InSamplingHook = true;
  MethodRuntimeInfo Info;
  Info.Id = Current;
  Info.Samples = State.Stats.Samples;
  Info.Invocations = State.Stats.Invocations;
  Info.Level = State.Level;
  Info.BytecodeSize = M.function(Current).Code.size();
  Info.CompileBacklogCycles = Workers ? Workers->backlogCycles(Cycles) : 0;
  Info.NowCycles = Cycles;
  if (std::optional<OptLevel> L = Policy->onSample(Info))
    installLevel(Current, *L);
  InSamplingHook = false;
}

void ExecutionEngine::installLevel(MethodId Id, OptLevel L) {
  MethodState &State = Methods[Id];
  if (levelIndex(L) <= levelIndex(State.Level))
    return;
  assert(L != OptLevel::Baseline && "cannot install baseline");

  uint64_t Cost = TM.compileCost(L, M.function(Id).Code.size());

  if (Workers) {
    // Background pipeline: hand the compile to a worker and keep running
    // the old code.  The pool's deterministic scheduler (which models the
    // queue handoff delay and per-worker timelines) decides when the code
    // becomes installable.
    Workers->request(Id, L, Cycles, Cost);
    return;
  }

  CompileCycles += Cost;
  // Compile before charging so the pass-work breakdown exists when the
  // cost lump is attributed; compileAtLevel is pure, so the reorder is
  // unobservable outside the profiler.
  jit::CompiledFunction Code = jit::compileAtLevel(M, Id, L);
  {
    ScopedPhase CompileScope(compilePhase(L));
    charge(Cost);
    if (Prof)
      splitPassCycles(*Prof, Code.Passes, Cost);
  }
  OptLevel OldLevel = State.Level;
  State.Code = lowerCompiledCode(Code, TM);
  State.Level = L;
  State.Stats.FinalLevel = L;
  ++State.Stats.NumCompiles;
  Compiles.push_back(
      CompileEvent{Id, L, Cycles, Cost, Cycles - Cost, /*Background=*/false});
  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Cycle = Cycles;
    E.Method = Id;
    E.Level = static_cast<int8_t>(L);
    E.Kind = TraceEventKind::CompileInstall;
    E.B = Cost;
    Tracer->record(E);
    E.Kind = TraceEventKind::LevelTransition;
    E.A = static_cast<uint64_t>(levelIndex(OldLevel));
    E.B = static_cast<uint64_t>(State.Stats.NumCompiles);
    Tracer->record(E);
  }
}

void ExecutionEngine::drainReadyCompiles() {
  if (!Workers)
    return;
  for (CompileResult &R : Workers->takeReady(Cycles)) {
    // Attribute the worker's (overlapped) compile cycles to the background
    // lane, split across passes — for every finished result, including ones
    // superseded by a higher level: the worker spent the cycles either way.
    if (Prof && R.Code) {
      const char *Lane = backgroundCompilePhase(R.Request.Level);
      uint64_t Cost = R.Request.CostCycles;
      uint64_t TotalWork = 0, Attributed = 0;
      for (const jit::PassWork &PW : R.Code->Passes)
        TotalWork += PW.Work;
      if (TotalWork) {
        for (const jit::PassWork &PW : R.Code->Passes) {
          uint64_t Share = Cost * PW.Work / TotalWork;
          Prof->chargeAt({"background", Lane, PW.Name}, Share, PW.Runs);
          Attributed += Share;
        }
      }
      Prof->chargeAt({"background", Lane}, Cost - Attributed, 1);
    }
    MethodState &State = Methods[R.Request.Method];
    // A lower-or-equal-level result can arrive after a higher one was
    // already installed (two requests racing in virtual time); keep the
    // ladder monotone, as the synchronous path does.
    if (levelIndex(R.Request.Level) <= levelIndex(State.Level))
      continue;
    OptLevel OldLevel = State.Level;
    State.Code = std::move(R.Code);
    State.Level = R.Request.Level;
    State.Stats.FinalLevel = R.Request.Level;
    ++State.Stats.NumCompiles;
    Compiles.push_back(CompileEvent{R.Request.Method, R.Request.Level,
                                    R.Request.ReadyAtCycle,
                                    R.Request.CostCycles,
                                    R.Request.RequestCycle,
                                    /*Background=*/true});
    if (Tracer && Tracer->enabled()) {
      // Installed at the current invocation boundary, not the ready cycle:
      // the code existed since ReadyAtCycle but lands at the next invoke.
      TraceEvent E;
      E.Cycle = Cycles;
      E.Method = R.Request.Method;
      E.Level = static_cast<int8_t>(R.Request.Level);
      E.Kind = TraceEventKind::CompileInstall;
      E.A = R.Request.SeqNo;
      E.B = R.Request.CostCycles;
      E.C = 1;
      Tracer->record(E);
      E.Kind = TraceEventKind::LevelTransition;
      E.A = static_cast<uint64_t>(levelIndex(OldLevel));
      E.B = static_cast<uint64_t>(State.Stats.NumCompiles);
      E.C = 0;
      Tracer->record(E);
    }
  }
}

void ExecutionEngine::ensureBaseline(MethodId Id) {
  MethodState &State = Methods[Id];
  if (State.BaselineCompiled)
    return;
  State.BaselineCompiled = true;
  uint64_t Cost =
      TM.compileCost(OptLevel::Baseline, M.function(Id).Code.size());
  CompileCycles += Cost;
  {
    PROF_SCOPE("jit/compile/baseline");
    charge(Cost);
  }
  ++State.Stats.NumCompiles;
  Compiles.push_back(CompileEvent{Id, OptLevel::Baseline, Cycles, Cost,
                                  Cycles - Cost, /*Background=*/false});
  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::CompileInstall;
    E.Cycle = Cycles;
    E.Method = Id;
    E.Level = static_cast<int8_t>(OptLevel::Baseline);
    E.B = Cost;
    Tracer->record(E);
  }

  // The paper's Evolve scheme issues a recompilation event right after the
  // first-time (baseline) compilation.  With a background pipeline this is
  // where the predicted level is enqueued — the method starts interpreting
  // immediately while the optimizing compile runs on a worker.
  if (Policy) {
    MethodRuntimeInfo Info;
    Info.Id = Id;
    Info.Samples = 0;
    Info.Invocations = 0;
    Info.Level = OptLevel::Baseline;
    Info.BytecodeSize = M.function(Id).Code.size();
    Info.CompileBacklogCycles = Workers ? Workers->backlogCycles(Cycles) : 0;
    Info.NowCycles = Cycles;
    if (std::optional<OptLevel> L = Policy->onFirstInvocation(Info))
      installLevel(Id, *L);
  }
}

void ExecutionEngine::chargeOverhead(uint64_t N) {
  OverheadCycles += N;
  charge(N);
}

std::optional<Value> ExecutionEngine::invoke(MethodId Id, const Value *Args,
                                             uint32_t NumArgs, int Depth) {
  if (Depth > MaxCallDepth) {
    setTrap(TrapKind::CallDepthExceeded, Id, 0);
    return std::nullopt;
  }
  // One phase frame per guest method, named after it, so profiles read as
  // call trees; a first-encounter baseline compile of the callee lands
  // under the callee's own frame.
  ScopedPhase MethodScope(M.function(Id).Name);
  ensureBaseline(Id);
  // Invocation boundaries are where finished background compiles land (no
  // on-stack replacement: the frame below keeps its old code).
  drainReadyCompiles();
  if (PendingTrap != TrapKind::None)
    return std::nullopt;

  MethodState &State = Methods[Id];
  ++State.Stats.Invocations;
  ++Invocations;
  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::MethodInvoke;
    E.Cycle = Cycles;
    E.Method = Id;
    E.Level = static_cast<int8_t>(State.Level);
    E.A = State.Stats.Invocations;
    E.B = static_cast<uint64_t>(Depth);
    Tracer->record(E);
  }
  CallStack.push_back(Id);

  std::optional<Value> Result;
  if (State.Level == OptLevel::Baseline) {
    Result = interpret(Id, Args, NumArgs, Depth);
  } else {
    // Hold a reference so a mid-execution recompilation cannot free the
    // code this frame is running.
    std::shared_ptr<const CompiledCode> Code = State.Code;
    Result = executeCompiled(Id, *Code, Args, NumArgs, Depth);
  }

  CallStack.pop_back();
  return Result;
}

std::optional<Value> ExecutionEngine::interpret(MethodId Id, const Value *Args,
                                                uint32_t NumArgs, int Depth) {
  if (DispMode == DispatchMode::Switch)
    return interpretSwitch(Id, Args, NumArgs, Depth);
  return interpretDecoded(Id, Args, NumArgs, Depth);
}

std::optional<Value> ExecutionEngine::interpretSwitch(MethodId Id,
                                                      const Value *Args,
                                                      uint32_t NumArgs,
                                                      int Depth) {
  const bc::Function &F = M.function(Id);
  assert(NumArgs == F.NumParams && "arity mismatch");

  std::vector<Value> Locals(F.NumLocals, Value::makeInt(0));
  std::copy(Args, Args + NumArgs, Locals.begin());
  PROF_SCOPE("interp");
  charge(TM.InterpCallOverhead);
  std::vector<Value> Stack;
  Stack.reserve(16);

  size_t Pc = 0;
  while (true) {
    if (PendingTrap != TrapKind::None)
      return std::nullopt;
    assert(Pc < F.Code.size() && "pc out of range (verifier?)");
    const Instr &I = F.Code[Pc];
    charge(TM.InterpDispatchCycles + scalarOpCost(I.Op));
    ++DStats.Instrs; // host-side counter; never in RunResult

    switch (I.Op) {
    case Opcode::ConstInt:
      Stack.push_back(Value::makeInt(I.Operand));
      ++Pc;
      break;
    case Opcode::ConstFloat:
      Stack.push_back(Value::makeFloat(I.floatOperand()));
      ++Pc;
      break;
    case Opcode::Pop:
      Stack.pop_back();
      ++Pc;
      break;
    case Opcode::Dup:
      Stack.push_back(Stack.back());
      ++Pc;
      break;
    case Opcode::Swap:
      std::swap(Stack[Stack.size() - 1], Stack[Stack.size() - 2]);
      ++Pc;
      break;
    case Opcode::LoadLocal:
      Stack.push_back(Locals[static_cast<size_t>(I.Operand)]);
      ++Pc;
      break;
    case Opcode::StoreLocal:
      Locals[static_cast<size_t>(I.Operand)] = Stack.back();
      Stack.pop_back();
      ++Pc;
      break;
    case Opcode::Br:
      Pc = static_cast<size_t>(I.Operand);
      break;
    case Opcode::BrTrue:
    case Opcode::BrFalse: {
      bool Truthy = Stack.back().isTruthy();
      Stack.pop_back();
      if (Truthy == (I.Op == Opcode::BrTrue))
        Pc = static_cast<size_t>(I.Operand);
      else
        ++Pc;
      break;
    }
    case Opcode::Call: {
      MethodId Callee = static_cast<MethodId>(I.Operand);
      uint32_t Arity = M.function(Callee).NumParams;
      std::optional<Value> R =
          invoke(Callee, Stack.data() + (Stack.size() - Arity), Arity,
                 Depth + 1);
      Stack.resize(Stack.size() - Arity);
      if (!R)
        return std::nullopt;
      Stack.push_back(*R);
      ++Pc;
      break;
    }
    case Opcode::Ret: {
      Value Result = Stack.back();
      return Result;
    }
    case Opcode::NewArr: {
      TrapKind Trap = TrapKind::None;
      int64_t Count = Stack.back().isInt()
                          ? Stack.back().asInt()
                          : static_cast<int64_t>(Stack.back().toDouble());
      Stack.pop_back();
      auto Base = TheHeap.alloc(Count, Trap);
      if (!Base) {
        setTrap(Trap, Id, Pc);
        return std::nullopt;
      }
      Stack.push_back(Value::makeInt(*Base));
      ++Pc;
      break;
    }
    case Opcode::HLoad: {
      TrapKind Trap = TrapKind::None;
      int64_t Addr = Stack.back().isInt()
                         ? Stack.back().asInt()
                         : static_cast<int64_t>(Stack.back().toDouble());
      Stack.pop_back();
      auto Loaded = TheHeap.load(Addr, Trap);
      if (!Loaded) {
        setTrap(Trap, Id, Pc);
        return std::nullopt;
      }
      Stack.push_back(*Loaded);
      ++Pc;
      break;
    }
    case Opcode::HStore: {
      TrapKind Trap = TrapKind::None;
      Value V = Stack.back();
      Stack.pop_back();
      int64_t Addr = Stack.back().isInt()
                         ? Stack.back().asInt()
                         : static_cast<int64_t>(Stack.back().toDouble());
      Stack.pop_back();
      if (!TheHeap.store(Addr, V, Trap)) {
        setTrap(Trap, Id, Pc);
        return std::nullopt;
      }
      ++Pc;
      break;
    }
    case Opcode::Nop:
      ++Pc;
      break;
    default: {
      TrapKind Trap = TrapKind::None;
      if (isBinaryOp(I.Op)) {
        Value B = Stack.back();
        Stack.pop_back();
        Value A = Stack.back();
        Stack.pop_back();
        auto R = evalBinary(I.Op, A, B, Trap);
        if (!R) {
          setTrap(Trap, Id, Pc);
          return std::nullopt;
        }
        Stack.push_back(*R);
      } else {
        assert(isUnaryOp(I.Op) && "unhandled opcode in interpreter");
        Value A = Stack.back();
        Stack.pop_back();
        auto R = evalUnary(I.Op, A, Trap);
        if (!R) {
          setTrap(Trap, Id, Pc);
          return std::nullopt;
        }
        Stack.push_back(*R);
      }
      ++Pc;
      break;
    }
    }
  }
}

//===----------------------------------------------------------------------===//
// The decoded interpreter (Threaded/Fused modes)
//
// One handler per opcode plus one per compiled-in superinstruction pair,
// jumped to by computed goto (EVM_USE_CGOTO) or a dense switch.  The
// identity discipline: every handler replays interpretSwitch's exact
// observable sequence — pending-trap check, charge(dispatch + op cost),
// instruction body — so the virtual clock, sample ticks, trace timestamps
// and policy inputs are bit-identical in all modes.  Fused handlers charge
// their two constituents *separately* with a pending-trap check between
// (a single summed charge would move profiler sample ticks to a different
// cycle and could change policy decisions).
//===----------------------------------------------------------------------===//

#if EVM_THREADED_DISPATCH && (defined(__GNUC__) || defined(__clang__))
#define EVM_USE_CGOTO 1
#else
#define EVM_USE_CGOTO 0
#endif

namespace {

/// Decoded handler ids of the fused pairs, in supported-candidate order:
/// `bc::NumOpcodes + HPE_A_B` is the pair's DecodedInstr::Handler, and
/// HPE_A_B indexes DispatchStats::PairExecs.
enum : uint16_t {
#define EVM_PAIR_ENUMERATOR(A, B) HPE_##A##_##B,
  EVM_SUPERINST_PAIRS(EVM_PAIR_ENUMERATOR)
#undef EVM_PAIR_ENUMERATOR
};

/// ConstFloat payload (same bit-cast as bc::Instr::floatOperand).
double floatFromOperand(int64_t Operand) {
  double D;
  static_assert(sizeof(D) == sizeof(Operand));
  std::memcpy(&D, &Operand, sizeof(D));
  return D;
}

} // namespace

/// Every opcode, in bc::Opcode enum order (the handler table is indexed by
/// opcode value).
#define EVM_FOR_EACH_OPCODE(X)                                                 \
  X(ConstInt) X(ConstFloat) X(Pop) X(Dup) X(Swap) X(LoadLocal) X(StoreLocal)   \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(Neg) X(And) X(Or) X(Xor) X(Shl)         \
  X(Shr) X(Not) X(Eq) X(Ne) X(Lt) X(Le) X(Gt) X(Ge) X(I2F) X(F2I) X(Sqrt)      \
  X(Sin) X(Cos) X(Floor) X(Abs) X(Min) X(Max) X(Br) X(BrTrue) X(BrFalse)       \
  X(Call) X(Ret) X(NewArr) X(HLoad) X(HStore) X(Nop)

namespace {
#define EVM_COUNT_ONE(NAME) +1
static_assert(0 EVM_FOR_EACH_OPCODE(EVM_COUNT_ONE) == bc::NumOpcodes,
              "EVM_FOR_EACH_OPCODE out of sync with bc::Opcode");
#undef EVM_COUNT_ONE
} // namespace

// EVM_HEAD_<op>(OPND, PC): the instruction body exactly as interpretSwitch
// executes it — stack effect plus trap handling — with no pc/IP movement,
// so it serves both as a single handler's body and as the first half of a
// fused pair.  Bodies `return std::nullopt` on traps, like the switch.

#define EVM_HEAD_ConstInt(OPND, PC) Stack.push_back(Value::makeInt(OPND));
#define EVM_HEAD_ConstFloat(OPND, PC)                                          \
  Stack.push_back(Value::makeFloat(floatFromOperand(OPND)));
#define EVM_HEAD_Pop(OPND, PC) Stack.pop_back();
#define EVM_HEAD_Dup(OPND, PC) Stack.push_back(Stack.back());
#define EVM_HEAD_Swap(OPND, PC)                                                \
  std::swap(Stack[Stack.size() - 1], Stack[Stack.size() - 2]);
#define EVM_HEAD_LoadLocal(OPND, PC)                                           \
  Stack.push_back(Locals[static_cast<size_t>(OPND)]);
#define EVM_HEAD_StoreLocal(OPND, PC)                                          \
  Locals[static_cast<size_t>(OPND)] = Stack.back();                            \
  Stack.pop_back();
#define EVM_HEAD_Nop(OPND, PC)

// Scalar operators inline vm/Eval's templates; the result replaces the
// left operand (or the only one) in place.
#define EVM_BINOP_BODY(OPC, PC)                                                \
  {                                                                            \
    Value Rhs = Stack.back();                                                  \
    Stack.pop_back();                                                          \
    Value &Lhs = Stack.back();                                                 \
    if (TrapKind Trap = binaryOp<OPC>(Lhs, Rhs, Lhs);                          \
        Trap != TrapKind::None) {                                              \
      setTrap(Trap, Id, PC);                                                   \
      return std::nullopt;                                                     \
    }                                                                          \
  }
#define EVM_UNOP_BODY(OPC, PC) Stack.back() = unaryOp<OPC>(Stack.back());

#define EVM_HEAD_Add(OPND, PC) EVM_BINOP_BODY(Opcode::Add, PC)
#define EVM_HEAD_Sub(OPND, PC) EVM_BINOP_BODY(Opcode::Sub, PC)
#define EVM_HEAD_Mul(OPND, PC) EVM_BINOP_BODY(Opcode::Mul, PC)
#define EVM_HEAD_Div(OPND, PC) EVM_BINOP_BODY(Opcode::Div, PC)
#define EVM_HEAD_Mod(OPND, PC) EVM_BINOP_BODY(Opcode::Mod, PC)
#define EVM_HEAD_And(OPND, PC) EVM_BINOP_BODY(Opcode::And, PC)
#define EVM_HEAD_Or(OPND, PC) EVM_BINOP_BODY(Opcode::Or, PC)
#define EVM_HEAD_Xor(OPND, PC) EVM_BINOP_BODY(Opcode::Xor, PC)
#define EVM_HEAD_Shl(OPND, PC) EVM_BINOP_BODY(Opcode::Shl, PC)
#define EVM_HEAD_Shr(OPND, PC) EVM_BINOP_BODY(Opcode::Shr, PC)
#define EVM_HEAD_Eq(OPND, PC) EVM_BINOP_BODY(Opcode::Eq, PC)
#define EVM_HEAD_Ne(OPND, PC) EVM_BINOP_BODY(Opcode::Ne, PC)
#define EVM_HEAD_Lt(OPND, PC) EVM_BINOP_BODY(Opcode::Lt, PC)
#define EVM_HEAD_Le(OPND, PC) EVM_BINOP_BODY(Opcode::Le, PC)
#define EVM_HEAD_Gt(OPND, PC) EVM_BINOP_BODY(Opcode::Gt, PC)
#define EVM_HEAD_Ge(OPND, PC) EVM_BINOP_BODY(Opcode::Ge, PC)
#define EVM_HEAD_Min(OPND, PC) EVM_BINOP_BODY(Opcode::Min, PC)
#define EVM_HEAD_Max(OPND, PC) EVM_BINOP_BODY(Opcode::Max, PC)
#define EVM_HEAD_Neg(OPND, PC) EVM_UNOP_BODY(Opcode::Neg, PC)
#define EVM_HEAD_Not(OPND, PC) EVM_UNOP_BODY(Opcode::Not, PC)
#define EVM_HEAD_I2F(OPND, PC) EVM_UNOP_BODY(Opcode::I2F, PC)
#define EVM_HEAD_F2I(OPND, PC) EVM_UNOP_BODY(Opcode::F2I, PC)
#define EVM_HEAD_Sqrt(OPND, PC) EVM_UNOP_BODY(Opcode::Sqrt, PC)
#define EVM_HEAD_Sin(OPND, PC) EVM_UNOP_BODY(Opcode::Sin, PC)
#define EVM_HEAD_Cos(OPND, PC) EVM_UNOP_BODY(Opcode::Cos, PC)
#define EVM_HEAD_Floor(OPND, PC) EVM_UNOP_BODY(Opcode::Floor, PC)
#define EVM_HEAD_Abs(OPND, PC) EVM_UNOP_BODY(Opcode::Abs, PC)

#define EVM_HEAD_NewArr(OPND, PC)                                              \
  {                                                                            \
    TrapKind Trap = TrapKind::None;                                            \
    int64_t Count = Stack.back().isInt()                                       \
                        ? Stack.back().asInt()                                 \
                        : static_cast<int64_t>(Stack.back().toDouble());       \
    Stack.pop_back();                                                          \
    auto AllocBase = TheHeap.alloc(Count, Trap);                               \
    if (!AllocBase) {                                                          \
      setTrap(Trap, Id, PC);                                                   \
      return std::nullopt;                                                     \
    }                                                                          \
    Stack.push_back(Value::makeInt(*AllocBase));                               \
  }
#define EVM_HEAD_HLoad(OPND, PC)                                               \
  {                                                                            \
    TrapKind Trap = TrapKind::None;                                            \
    int64_t Addr = Stack.back().isInt()                                        \
                       ? Stack.back().asInt()                                  \
                       : static_cast<int64_t>(Stack.back().toDouble());        \
    Stack.pop_back();                                                          \
    auto Loaded = TheHeap.load(Addr, Trap);                                    \
    if (!Loaded) {                                                             \
      setTrap(Trap, Id, PC);                                                   \
      return std::nullopt;                                                     \
    }                                                                          \
    Stack.push_back(*Loaded);                                                  \
  }
#define EVM_HEAD_HStore(OPND, PC)                                              \
  {                                                                            \
    TrapKind Trap = TrapKind::None;                                            \
    Value V = Stack.back();                                                    \
    Stack.pop_back();                                                          \
    int64_t Addr = Stack.back().isInt()                                        \
                       ? Stack.back().asInt()                                  \
                       : static_cast<int64_t>(Stack.back().toDouble());        \
    Stack.pop_back();                                                          \
    if (!TheHeap.store(Addr, V, Trap)) {                                       \
      setTrap(Trap, Id, PC);                                                   \
      return std::nullopt;                                                     \
    }                                                                          \
  }
#define EVM_HEAD_Call(OPND, PC)                                                \
  {                                                                            \
    MethodId Callee = static_cast<MethodId>(OPND);                             \
    uint32_t Arity = M.function(Callee).NumParams;                             \
    std::optional<Value> R = invoke(                                           \
        Callee, Stack.data() + (Stack.size() - Arity), Arity, Depth + 1);      \
    Stack.resize(Stack.size() - Arity);                                        \
    if (!R)                                                                    \
      return std::nullopt;                                                     \
    Stack.push_back(*R);                                                       \
  }

// EVM_TAIL_<op>(OPND, PC): body plus IP movement — a full handler payload,
// also the second half of a fused pair (the pair occupies one decoded
// slot, so a tail's fall-through `++IP` lands after the whole pair).
// Branch operands are decoded indices (see decodeFunction).

#define EVM_TAIL_Br(OPND, PC) IP = Base + static_cast<size_t>(OPND);
#define EVM_TAIL_BrTrue(OPND, PC)                                              \
  {                                                                            \
    bool Truthy = Stack.back().isTruthy();                                     \
    Stack.pop_back();                                                          \
    IP = Truthy ? Base + static_cast<size_t>(OPND) : IP + 1;                   \
  }
#define EVM_TAIL_BrFalse(OPND, PC)                                             \
  {                                                                            \
    bool Truthy = Stack.back().isTruthy();                                     \
    Stack.pop_back();                                                          \
    IP = Truthy ? IP + 1 : Base + static_cast<size_t>(OPND);                   \
  }
#define EVM_TAIL_Ret(OPND, PC) return Stack.back();

#define EVM_TAIL_ConstInt(OPND, PC) {EVM_HEAD_ConstInt(OPND, PC)} ++IP;
#define EVM_TAIL_ConstFloat(OPND, PC) {EVM_HEAD_ConstFloat(OPND, PC)} ++IP;
#define EVM_TAIL_Pop(OPND, PC) {EVM_HEAD_Pop(OPND, PC)} ++IP;
#define EVM_TAIL_Dup(OPND, PC) {EVM_HEAD_Dup(OPND, PC)} ++IP;
#define EVM_TAIL_Swap(OPND, PC) {EVM_HEAD_Swap(OPND, PC)} ++IP;
#define EVM_TAIL_LoadLocal(OPND, PC) {EVM_HEAD_LoadLocal(OPND, PC)} ++IP;
#define EVM_TAIL_StoreLocal(OPND, PC) {EVM_HEAD_StoreLocal(OPND, PC)} ++IP;
#define EVM_TAIL_Nop(OPND, PC) {EVM_HEAD_Nop(OPND, PC)} ++IP;
#define EVM_TAIL_Add(OPND, PC) {EVM_HEAD_Add(OPND, PC)} ++IP;
#define EVM_TAIL_Sub(OPND, PC) {EVM_HEAD_Sub(OPND, PC)} ++IP;
#define EVM_TAIL_Mul(OPND, PC) {EVM_HEAD_Mul(OPND, PC)} ++IP;
#define EVM_TAIL_Div(OPND, PC) {EVM_HEAD_Div(OPND, PC)} ++IP;
#define EVM_TAIL_Mod(OPND, PC) {EVM_HEAD_Mod(OPND, PC)} ++IP;
#define EVM_TAIL_And(OPND, PC) {EVM_HEAD_And(OPND, PC)} ++IP;
#define EVM_TAIL_Or(OPND, PC) {EVM_HEAD_Or(OPND, PC)} ++IP;
#define EVM_TAIL_Xor(OPND, PC) {EVM_HEAD_Xor(OPND, PC)} ++IP;
#define EVM_TAIL_Shl(OPND, PC) {EVM_HEAD_Shl(OPND, PC)} ++IP;
#define EVM_TAIL_Shr(OPND, PC) {EVM_HEAD_Shr(OPND, PC)} ++IP;
#define EVM_TAIL_Eq(OPND, PC) {EVM_HEAD_Eq(OPND, PC)} ++IP;
#define EVM_TAIL_Ne(OPND, PC) {EVM_HEAD_Ne(OPND, PC)} ++IP;
#define EVM_TAIL_Lt(OPND, PC) {EVM_HEAD_Lt(OPND, PC)} ++IP;
#define EVM_TAIL_Le(OPND, PC) {EVM_HEAD_Le(OPND, PC)} ++IP;
#define EVM_TAIL_Gt(OPND, PC) {EVM_HEAD_Gt(OPND, PC)} ++IP;
#define EVM_TAIL_Ge(OPND, PC) {EVM_HEAD_Ge(OPND, PC)} ++IP;
#define EVM_TAIL_Min(OPND, PC) {EVM_HEAD_Min(OPND, PC)} ++IP;
#define EVM_TAIL_Max(OPND, PC) {EVM_HEAD_Max(OPND, PC)} ++IP;
#define EVM_TAIL_Neg(OPND, PC) {EVM_HEAD_Neg(OPND, PC)} ++IP;
#define EVM_TAIL_Not(OPND, PC) {EVM_HEAD_Not(OPND, PC)} ++IP;
#define EVM_TAIL_I2F(OPND, PC) {EVM_HEAD_I2F(OPND, PC)} ++IP;
#define EVM_TAIL_F2I(OPND, PC) {EVM_HEAD_F2I(OPND, PC)} ++IP;
#define EVM_TAIL_Sqrt(OPND, PC) {EVM_HEAD_Sqrt(OPND, PC)} ++IP;
#define EVM_TAIL_Sin(OPND, PC) {EVM_HEAD_Sin(OPND, PC)} ++IP;
#define EVM_TAIL_Cos(OPND, PC) {EVM_HEAD_Cos(OPND, PC)} ++IP;
#define EVM_TAIL_Floor(OPND, PC) {EVM_HEAD_Floor(OPND, PC)} ++IP;
#define EVM_TAIL_Abs(OPND, PC) {EVM_HEAD_Abs(OPND, PC)} ++IP;
#define EVM_TAIL_NewArr(OPND, PC) {EVM_HEAD_NewArr(OPND, PC)} ++IP;
#define EVM_TAIL_HLoad(OPND, PC) {EVM_HEAD_HLoad(OPND, PC)} ++IP;
#define EVM_TAIL_HStore(OPND, PC) {EVM_HEAD_HStore(OPND, PC)} ++IP;
#define EVM_TAIL_Call(OPND, PC) {EVM_HEAD_Call(OPND, PC)} ++IP;

// One handler per opcode: pending-trap check (folded into EVM_NEXT),
// charge, body, advance — the switch loop's sequence verbatim.
#define EVM_SINGLE_HANDLER(NAME)                                               \
  EVM_CASE(NAME) {                                                             \
    const DecodedInstr &DI = *IP;                                              \
    charge(DI.Charge);                                                         \
    ++DStats.Instrs;                                                           \
    EVM_TAIL_##NAME(DI.Operand, DI.OrigPc)                                     \
    EVM_NEXT;                                                                  \
  }

// One handler per fused pair.  The constituents charge separately with a
// pending-trap check between them — the exact switch-mode sequence for the
// two instructions — so fusion is invisible to every virtual observable.
#define EVM_FUSED_HANDLER(A, B)                                                \
  EVM_PAIR_CASE(A, B) {                                                        \
    const DecodedInstr &DI = *IP;                                              \
    charge(DI.Charge);                                                         \
    ++DStats.Instrs;                                                           \
    {EVM_HEAD_##A(DI.Operand, DI.OrigPc)}                                      \
    if (PendingTrap != TrapKind::None)                                         \
      return std::nullopt;                                                     \
    charge(DI.Charge2);                                                        \
    ++DStats.Instrs;                                                           \
    ++DStats.FusedExecs;                                                       \
    ++DStats.PairExecs[HPE_##A##_##B];                                         \
    EVM_TAIL_##B(DI.Operand2, DI.OrigPc + 1)                                   \
    EVM_NEXT;                                                                  \
  }

std::optional<Value> ExecutionEngine::interpretDecoded(MethodId Id,
                                                       const Value *Args,
                                                       uint32_t NumArgs,
                                                       int Depth) {
  const bc::Function &F = M.function(Id);
  assert(NumArgs == F.NumParams && "arity mismatch");
  assert(Id < Decoded.size() && "module not decoded (Switch mode?)");
  const DecodedFunction &DF = Decoded[Id];

  std::vector<Value> Locals(F.NumLocals, Value::makeInt(0));
  std::copy(Args, Args + NumArgs, Locals.begin());
  PROF_SCOPE("interp");
  charge(TM.InterpCallOverhead);
  std::vector<Value> Stack;
  Stack.reserve(16);

  const DecodedInstr *const Base = DF.Code.data();
  const DecodedInstr *IP = Base;

#if EVM_USE_CGOTO
  static const void *const Handlers[] = {
#define EVM_LABEL_ADDR(NAME) &&H_##NAME,
      EVM_FOR_EACH_OPCODE(EVM_LABEL_ADDR)
#undef EVM_LABEL_ADDR
#define EVM_PAIR_LABEL_ADDR(A, B) &&H_##A##_##B,
      EVM_SUPERINST_PAIRS(EVM_PAIR_LABEL_ADDR)
#undef EVM_PAIR_LABEL_ADDR
  };
  static_assert(sizeof(Handlers) / sizeof(Handlers[0]) ==
                    bc::NumOpcodes + NumSuperinstPairs,
                "handler table out of sync");

#define EVM_CASE(NAME) H_##NAME:
#define EVM_PAIR_CASE(A, B) H_##A##_##B:
#define EVM_NEXT                                                               \
  do {                                                                         \
    if (PendingTrap != TrapKind::None)                                         \
      return std::nullopt;                                                     \
    goto *Handlers[IP->Handler];                                               \
  } while (0)

  EVM_NEXT;
  EVM_FOR_EACH_OPCODE(EVM_SINGLE_HANDLER)
  EVM_SUPERINST_PAIRS(EVM_FUSED_HANDLER)

#else // !EVM_USE_CGOTO: same decoded stream through a dense switch

#define EVM_CASE(NAME) case static_cast<uint16_t>(Opcode::NAME):
#define EVM_PAIR_CASE(A, B)                                                    \
  case static_cast<uint16_t>(bc::NumOpcodes + HPE_##A##_##B):
#define EVM_NEXT break

  while (true) {
    if (PendingTrap != TrapKind::None)
      return std::nullopt;
    switch (IP->Handler) {
      EVM_FOR_EACH_OPCODE(EVM_SINGLE_HANDLER)
      EVM_SUPERINST_PAIRS(EVM_FUSED_HANDLER)
    default:
      assert(false && "unknown decoded handler");
      return std::nullopt;
    }
  }
#endif
}

#undef EVM_CASE
#undef EVM_PAIR_CASE
#undef EVM_NEXT
#undef EVM_SINGLE_HANDLER
#undef EVM_FUSED_HANDLER

//===----------------------------------------------------------------------===//
// The compiled-tier executor
//
// Walks a CompiledCode stream (vm/CompiledCode.h).  Three things keep
// bookkeeping off the per-entry path:
//
//  * A countdown cycle budget in a local.  At a settle point the budget is
//    Left = min(NextSampleAt, MaxCycles + 1) - Cycles (see budgetLeft);
//    every entry subtracts its precomputed charge, and only when Left drops
//    to zero or below is a sample or fuel trap possibly due.  Then the
//    cycles spent since the last settle point go through charge() in one
//    lump.  Before that lump no threshold was crossed, so the lump fires
//    samples and traps on exactly the cycle per-entry charging would, and
//    CyclesByLevel and the phase profiler receive the same sums.
//  * Settle points: budget exhaustion, before every call, after every
//    return, on an operator trap, at frame exit.  A method's level changes
//    only inside charge() (sampleTick -> installLevel) or inside a
//    callee's invoke (drainReadyCompiles), both behind a settle point, so
//    attributing a lump to the method's current level is exact.
//    PendingTrap is tested only where it can become set: after a settle
//    through charge(), after a call, and on an operator trap.
//  * Register windows carved from the engine's Arena.  A call stages its
//    arguments just past the caller's window, which is where the callee's
//    window starts, so arguments are copied once, straight into place.
//===----------------------------------------------------------------------===//

int64_t ExecutionEngine::budgetLeft() const {
  if (PendingTrap != TrapKind::None)
    return 0;
  uint64_t Limit = MaxCycles == UINT64_MAX
                       ? NextSampleAt
                       : std::min(NextSampleAt, MaxCycles + 1);
  assert(Limit > Cycles && "a sample or fuel trap is overdue");
  // Half the int64 range: an exhausted budget sits at most one entry's
  // charge below zero, so Start - Left cannot overflow.
  return static_cast<int64_t>(
      std::min<uint64_t>(Limit - Cycles, uint64_t(1) << 62));
}

namespace {

/// Restores the arena top when a compiled frame exits by any path.
struct WindowRelease {
  size_t &Top;
  size_t Base;
  ~WindowRelease() { Top = Base; }
};

} // namespace

std::optional<Value> ExecutionEngine::executeCompiled(MethodId Id,
                                                      const CompiledCode &Code,
                                                      const Value *Args,
                                                      uint32_t NumArgs,
                                                      int Depth) {
  assert(NumArgs == M.function(Id).NumParams && "arity mismatch");

  ScopedPhase TierScope(jitExecPhase(Code.Level));
  charge(TM.CompiledCallOverhead);
  if (PendingTrap != TrapKind::None)
    return std::nullopt;

  // Carve the register window.  Arguments staged by a compiled caller
  // already sit at its base; anyone else's are copied in.
  const size_t Base = ArenaTop;
  const size_t Need = Base + Code.NumRegs + Code.MaxCallArgs;
  const bool InPlace = NumArgs == 0 || Args == Arena.data() + Base;
  if (Arena.size() < Need)
    Arena.resize(std::max<size_t>({Need, 2 * Arena.size(), 256}));
  Value *Regs = Arena.data() + Base;
  if (!InPlace)
    std::copy(Args, Args + NumArgs, Regs);
  std::fill(Regs + NumArgs, Regs + Code.NumRegs, Value::makeInt(0));
  ArenaTop = Base + Code.NumRegs;
  WindowRelease Release{ArenaTop, Base};

  const XInstr *const Stream = Code.Stream.data();
  const uint32_t *const ArgRegs = Code.ArgRegs.data();
  const XInstr *IP = Stream;
  int64_t Start = budgetLeft();
  int64_t Left = Start;

// Charges the current entry.  On exhaustion, settles the clock through
// charge() — unless the previous settle left a trap pending, in which case
// this entry never began (per-entry charging tests the trap first).
#define EVM_X_CHARGE                                                           \
  if ((Left -= static_cast<int64_t>(IP->Charge)) <= 0) {                       \
    if (PendingTrap != TrapKind::None) {                                       \
      assert(Start - Left == static_cast<int64_t>(IP->Charge));                \
      return std::nullopt;                                                     \
    }                                                                          \
    charge(static_cast<uint64_t>(Start - Left));                               \
    Start = Left = budgetLeft();                                               \
  }
// Books the cycles spent since the last settle point (no event can be due).
#define EVM_X_SETTLE                                                           \
  do {                                                                         \
    charge(static_cast<uint64_t>(Start - Left));                               \
    Start = Left;                                                              \
  } while (0)
#define EVM_X_TRAP(KIND)                                                       \
  do {                                                                         \
    EVM_X_SETTLE;                                                              \
    setTrap(KIND, Id, static_cast<size_t>(IP - Stream));                       \
    return std::nullopt;                                                       \
  } while (0)

// Scalar operators inline vm/Eval's templates for every operand kind.
#define EVM_X_BINARY(OP)                                                       \
  EVM_X_CASE(Bin_##OP) {                                                       \
    EVM_X_CHARGE                                                               \
    if (TrapKind Trap = binaryOp<Opcode::OP>(Regs[IP->A], Regs[IP->B],         \
                                             Regs[IP->Dest]);                  \
        Trap != TrapKind::None)                                                \
      EVM_X_TRAP(Trap);                                                        \
    ++IP;                                                                      \
    EVM_X_NEXT;                                                                \
  }
#define EVM_X_UNARY(OP)                                                        \
  EVM_X_CASE(Un_##OP) {                                                        \
    EVM_X_CHARGE                                                               \
    Regs[IP->Dest] = unaryOp<Opcode::OP>(Regs[IP->A]);                         \
    ++IP;                                                                      \
    EVM_X_NEXT;                                                                \
  }
/// A heap operand: ints as-is, floats truncated (as the interpreter does).
#define EVM_X_HEAP_INDEX(V)                                                    \
  ((V).isInt() ? (V).asInt() : static_cast<int64_t>((V).toDouble()))

#define EVM_X_HANDLERS                                                         \
  EVM_X_CASE(MovInt) {                                                         \
    EVM_X_CHARGE                                                               \
    Regs[IP->Dest] = Value::makeInt(IP->Imm);                                  \
    ++IP;                                                                      \
    EVM_X_NEXT;                                                                \
  }                                                                            \
  EVM_X_CASE(MovFloat) {                                                       \
    EVM_X_CHARGE                                                               \
    Regs[IP->Dest] = Value::makeFloat(floatFromOperand(IP->Imm));              \
    ++IP;                                                                      \
    EVM_X_NEXT;                                                                \
  }                                                                            \
  EVM_X_CASE(Mov) {                                                            \
    EVM_X_CHARGE                                                               \
    Regs[IP->Dest] = Regs[IP->A];                                              \
    ++IP;                                                                      \
    EVM_X_NEXT;                                                                \
  }                                                                            \
  EVM_X_CASE(Call) {                                                           \
    EVM_X_CHARGE                                                               \
    EVM_X_SETTLE;                                                              \
    Value *Out = Regs + Code.NumRegs;                                          \
    const uint32_t *ArgReg = ArgRegs + IP->B;                                  \
    for (uint32_t K = 0; K != IP->C; ++K)                                      \
      Out[K] = Regs[ArgReg[K]];                                                \
    std::optional<Value> R = invoke(IP->A, Out, IP->C, Depth + 1);             \
    if (!R || PendingTrap != TrapKind::None)                                   \
      return std::nullopt;                                                     \
    Regs = Arena.data() + Base; /* the callee may have grown the arena */      \
    Regs[IP->Dest] = *R;                                                       \
    Start = Left = budgetLeft();                                               \
    ++IP;                                                                      \
    EVM_X_NEXT;                                                                \
  }                                                                            \
  EVM_X_CASE(NewArr) {                                                         \
    EVM_X_CHARGE                                                               \
    TrapKind Trap = TrapKind::None;                                            \
    std::optional<int64_t> Addr =                                              \
        TheHeap.alloc(EVM_X_HEAP_INDEX(Regs[IP->A]), Trap);                    \
    if (!Addr)                                                                 \
      EVM_X_TRAP(Trap);                                                        \
    Regs[IP->Dest] = Value::makeInt(*Addr);                                    \
    ++IP;                                                                      \
    EVM_X_NEXT;                                                                \
  }                                                                            \
  EVM_X_CASE(HLoad) {                                                          \
    EVM_X_CHARGE                                                               \
    TrapKind Trap = TrapKind::None;                                            \
    std::optional<Value> V = TheHeap.load(EVM_X_HEAP_INDEX(Regs[IP->A]), Trap); \
    if (!V)                                                                    \
      EVM_X_TRAP(Trap);                                                        \
    Regs[IP->Dest] = *V;                                                       \
    ++IP;                                                                      \
    EVM_X_NEXT;                                                                \
  }                                                                            \
  EVM_X_CASE(HStore) {                                                         \
    EVM_X_CHARGE                                                               \
    TrapKind Trap = TrapKind::None;                                            \
    if (!TheHeap.store(EVM_X_HEAP_INDEX(Regs[IP->A]), Regs[IP->B], Trap))      \
      EVM_X_TRAP(Trap);                                                        \
    ++IP;                                                                      \
    EVM_X_NEXT;                                                                \
  }                                                                            \
  EVM_X_CASE(Jump) {                                                           \
    EVM_X_CHARGE                                                               \
    IP = Stream + IP->B;                                                       \
    EVM_X_NEXT;                                                                \
  }                                                                            \
  EVM_X_CASE(CondJump) {                                                       \
    EVM_X_CHARGE                                                               \
    IP = Stream + (Regs[IP->A].isTruthy() ? IP->B : IP->C);                    \
    EVM_X_NEXT;                                                                \
  }                                                                            \
  EVM_X_CASE(Ret) {                                                            \
    EVM_X_CHARGE                                                               \
    EVM_X_SETTLE;                                                              \
    return Regs[IP->A];                                                        \
  }                                                                            \
  EVM_FOR_EACH_BINARY_OP(EVM_X_BINARY)                                         \
  EVM_FOR_EACH_UNARY_OP(EVM_X_UNARY)

#if EVM_USE_CGOTO
  static const void *const Handlers[] = {
#define EVM_X_CORE_ADDR(NAME) &&X_##NAME,
#define EVM_X_BINARY_ADDR(OP) &&X_Bin_##OP,
#define EVM_X_UNARY_ADDR(OP) &&X_Un_##OP,
      EVM_FOR_EACH_XCORE(EVM_X_CORE_ADDR)
          EVM_FOR_EACH_BINARY_OP(EVM_X_BINARY_ADDR)
              EVM_FOR_EACH_UNARY_OP(EVM_X_UNARY_ADDR)
#undef EVM_X_CORE_ADDR
#undef EVM_X_BINARY_ADDR
#undef EVM_X_UNARY_ADDR
  };
#define EVM_X_CASE(NAME) X_##NAME:
#define EVM_X_NEXT goto *Handlers[static_cast<uint8_t>(IP->Op)]

  EVM_X_NEXT;
  EVM_X_HANDLERS

#else // !EVM_USE_CGOTO: the same handlers behind a dense switch

#define EVM_X_CASE(NAME) case XOp::NAME:
#define EVM_X_NEXT break

  while (true) {
    switch (IP->Op) {
      EVM_X_HANDLERS
    }
  }
#endif
}

#undef EVM_X_CHARGE
#undef EVM_X_SETTLE
#undef EVM_X_TRAP
#undef EVM_X_BINARY
#undef EVM_X_UNARY
#undef EVM_X_HEAP_INDEX
#undef EVM_X_HANDLERS
#undef EVM_X_CASE
#undef EVM_X_NEXT

ErrorOr<RunResult> ExecutionEngine::run(const std::vector<Value> &Args,
                                        uint64_t MaxCyclesIn,
                                        uint64_t PreRunOverheadCycles,
                                        uint64_t SamplePhaseCycles) {
  // Reset per-run state so one engine can model repeated launches.
  TheHeap.reset();
  Methods.assign(M.numFunctions(), MethodState());
  for (size_t Id = 0; Id != CodeOverrides.size(); ++Id) {
    if (!CodeOverrides[Id])
      continue;
    MethodState &State = Methods[Id];
    State.Code = CodeOverrides[Id];
    State.Level = CodeOverrides[Id]->Level;
    State.BaselineCompiled = true; // pinned code needs no baseline compile
    State.Stats.FinalLevel = State.Level;
  }
  CallStack.clear();
  ArenaTop = 0;
  Cycles = 0;
  CompileCycles = 0;
  OverheadCycles = 0;
  Invocations = 0;
  Compiles.clear();
  if (TM.NumCompileWorkers > 0 && !Workers) {
    Workers = std::make_unique<CompileWorkerPool>(M, TM);
    Workers->setTracer(Tracer);
  }
  if (Workers)
    Workers->reset(); // drain in-flight compiles, rewind virtual timelines
  NextSampleAt = TM.SampleIntervalCycles / 2 +
                 SamplePhaseCycles % std::max<uint64_t>(
                                         1, TM.SampleIntervalCycles);
  MaxCycles = MaxCyclesIn;
  PendingTrap = TrapKind::None;
  InSamplingHook = false;
  Prof = PhaseProfiler::current();
  // Everything charged to this run's clock lands under the "run" root; the
  // profiler accumulates across run()s of a persistent engine, so
  // totalUnder("run") tracks the sum of RunResult::Cycles.
  ScopedPhase RunScope("run");

  ++RunOrdinal;
  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::RunBegin;
    E.Cycle = 0;
    E.A = RunOrdinal;
    E.B = PreRunOverheadCycles;
    Tracer->record(E);
  }

  if (PreRunOverheadCycles) {
    // The evolvable VM refines this lump into xicl/ml shares post-run via
    // PhaseProfiler::attributeChild.
    PROF_SCOPE("overhead");
    chargeOverhead(PreRunOverheadCycles);
  }

  auto MainId = M.findFunction("main");
  if (!MainId)
    return makeError("module has no 'main' function");
  if (Args.size() != M.function(*MainId).NumParams)
    return makeError("main expects %u arguments, got %zu",
                     M.function(*MainId).NumParams, Args.size());

  std::optional<Value> Result =
      invoke(*MainId, Args.data(), static_cast<uint32_t>(Args.size()), 0);
  // A fuel trap raised by main's final instruction still lets the frame
  // return a value; the run exceeded its budget all the same.
  if (!Result || PendingTrap != TrapKind::None)
    return makeError("trap in method '%s' (%s)",
                     M.function(TrapMethod).Name.c_str(),
                     trapKindName(PendingTrap));

  RunResult Run;
  Run.ReturnValue = *Result;
  Run.Cycles = Cycles;
  Run.PerMethod.reserve(Methods.size());
  for (const MethodState &State : Methods)
    Run.PerMethod.push_back(State.Stats);
  Run.Compiles = Compiles;

  // Fold the run's accounting into the structured metrics snapshot.  Hot
  // counters accumulate in plain members during the run; only this one fold
  // per run touches the string-keyed registry.
  MetricsRegistry Reg;
  Reg.add("engine.cycles.total", Cycles);
  Reg.add("engine.cycles.stall_compile", CompileCycles);
  Reg.add("engine.cycles.overlapped_compile",
          Workers ? Workers->overlappedCycles() : 0);
  Reg.add("engine.cycles.overhead", OverheadCycles);
  Reg.add("engine.compiles.dropped", Workers ? Workers->droppedRequests() : 0);
  Reg.add("engine.compiles.total", Compiles.size());
  Reg.add("engine.invocations.total", Invocations);
  Reg.add("engine.samples.total", Run.totalSamples());
  for (const CompileEvent &CE : Compiles) {
    if (CE.Background) {
      Reg.add("engine.compiles.background");
      Reg.observe("engine.compile.install_delay_cycles",
                  static_cast<double>(CE.AtCycle - CE.RequestedAtCycle));
    }
    if (CE.Level != OptLevel::Baseline) {
      Reg.add("engine.compiles.optimizing");
      Reg.observe("engine.compile.cost_cycles",
                  static_cast<double>(CE.CostCycles));
    }
  }
  Run.Metrics = Reg.snapshot();
  if (Prof)
    Run.Phases = Prof->snapshot();

  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::RunEnd;
    E.Cycle = Cycles;
    E.A = RunOrdinal;
    E.B = Run.totalSamples();
    E.C = CompileCycles;
    Tracer->record(E);
  }
  return Run;
}
