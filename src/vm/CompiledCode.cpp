//===- vm/CompiledCode.cpp ------------------------------------------------===//

#include "vm/CompiledCode.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

using namespace evm;
using namespace evm::vm;
using bc::Opcode;

namespace {

/// Execution cost of one IR instruction (dispatch excluded).
uint64_t irInstrCost(const jit::IRInstr &I) {
  switch (I.Op) {
  case jit::IROp::Binary:
  case jit::IROp::Unary:
    return scalarOpCost(I.ScalarOp);
  case jit::IROp::NewArr:
    return scalarOpCost(Opcode::NewArr);
  case jit::IROp::HLoad:
    return scalarOpCost(Opcode::HLoad);
  case jit::IROp::HStore:
    return scalarOpCost(Opcode::HStore);
  case jit::IROp::Call:
    return 4;
  default:
    return 1; // MovImm/Mov/Jump/CondJump/Ret
  }
}

XOp binaryHandler(Opcode Op) {
  switch (Op) {
#define EVM_LOWER_BINARY(OP)                                                   \
  case Opcode::OP:                                                             \
    return XOp::Bin_##OP;
    EVM_FOR_EACH_BINARY_OP(EVM_LOWER_BINARY)
#undef EVM_LOWER_BINARY
  default:
    assert(false && "not a binary operator");
    return XOp::Bin_Add;
  }
}

XOp unaryHandler(Opcode Op) {
  switch (Op) {
#define EVM_LOWER_UNARY(OP)                                                    \
  case Opcode::OP:                                                             \
    return XOp::Un_##OP;
    EVM_FOR_EACH_UNARY_OP(EVM_LOWER_UNARY)
#undef EVM_LOWER_UNARY
  default:
    assert(false && "not a unary operator");
    return XOp::Un_Neg;
  }
}

} // namespace

std::shared_ptr<const CompiledCode>
vm::lowerCompiledCode(const jit::CompiledFunction &Fn, const TimingModel &TM) {
  auto Code = std::make_shared<CompiledCode>();
  const jit::IRFunction &F = Fn.IR;
  Code->Level = Fn.Level;
  Code->Passes = Fn.Passes;
  Code->NumRegs = F.NumRegs;
  Code->Stream.reserve(F.numInstrs());

  std::vector<uint32_t> BlockStart(F.Blocks.size());
  for (size_t B = 0; B != F.Blocks.size(); ++B) {
    BlockStart[B] = static_cast<uint32_t>(Code->Stream.size());
    for (const jit::IRInstr &I : F.Blocks[B].Instrs) {
      XInstr X;
      uint64_t Charge = TM.CompiledDispatchCycles + irInstrCost(I);
      assert(Charge <= std::numeric_limits<uint32_t>::max() &&
             "compiled dispatch cost does not fit a stream entry");
      X.Charge = static_cast<uint32_t>(Charge);
      X.Dest = I.Dest;
      X.A = I.A;
      X.B = I.B;
      switch (I.Op) {
      case jit::IROp::MovImm:
        if (I.Imm.isInt()) {
          X.Op = XOp::MovInt;
          X.Imm = I.Imm.asInt();
        } else {
          X.Op = XOp::MovFloat;
          double D = I.Imm.asFloat();
          std::memcpy(&X.Imm, &D, sizeof(D));
        }
        break;
      case jit::IROp::Mov:
        X.Op = XOp::Mov;
        break;
      case jit::IROp::Binary:
        X.Op = binaryHandler(I.ScalarOp);
        break;
      case jit::IROp::Unary:
        X.Op = unaryHandler(I.ScalarOp);
        break;
      case jit::IROp::Call:
        X.Op = XOp::Call;
        X.A = I.Callee;
        X.B = static_cast<uint32_t>(Code->ArgRegs.size());
        X.C = static_cast<uint32_t>(I.Args.size());
        Code->ArgRegs.insert(Code->ArgRegs.end(), I.Args.begin(),
                             I.Args.end());
        Code->MaxCallArgs = std::max(Code->MaxCallArgs, X.C);
        break;
      case jit::IROp::NewArr:
        X.Op = XOp::NewArr;
        break;
      case jit::IROp::HLoad:
        X.Op = XOp::HLoad;
        break;
      case jit::IROp::HStore:
        X.Op = XOp::HStore;
        break;
      case jit::IROp::Jump:
        X.Op = XOp::Jump;
        X.B = I.Target; // resolved below
        break;
      case jit::IROp::CondJump:
        X.Op = XOp::CondJump;
        X.B = I.Target; // resolved below
        X.C = I.Target2;
        break;
      case jit::IROp::Ret:
        X.Op = XOp::Ret;
        break;
      }
      Code->Stream.push_back(X);
    }
  }
  // Block ids become stream indices.
  for (XInstr &X : Code->Stream) {
    if (X.Op == XOp::Jump) {
      X.B = BlockStart[X.B];
    } else if (X.Op == XOp::CondJump) {
      X.B = BlockStart[X.B];
      X.C = BlockStart[X.C];
    }
  }
  return Code;
}
