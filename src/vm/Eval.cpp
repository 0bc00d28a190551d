//===- vm/Eval.cpp --------------------------------------------------------==//

#include "vm/Eval.h"

using namespace evm;
using namespace evm::vm;
using bc::Opcode;

const char *vm::trapKindName(TrapKind Kind) {
  switch (Kind) {
  case TrapKind::None:
    return "none";
  case TrapKind::DivisionByZero:
    return "division by zero";
  case TrapKind::IntegerOpOnFloat:
    return "integer operation on float operand";
  case TrapKind::HeapOutOfBounds:
    return "heap access out of bounds";
  case TrapKind::HeapExhausted:
    return "heap exhausted";
  case TrapKind::CallDepthExceeded:
    return "call depth exceeded";
  case TrapKind::FuelExhausted:
    return "cycle budget exhausted";
  }
  return "unknown";
}

#define EVM_EVAL_OP_CASE(OP) case Opcode::OP:

bool vm::isBinaryOp(Opcode Op) {
  switch (Op) {
    EVM_FOR_EACH_BINARY_OP(EVM_EVAL_OP_CASE)
    return true;
  default:
    return false;
  }
}

bool vm::isUnaryOp(Opcode Op) {
  switch (Op) {
    EVM_FOR_EACH_UNARY_OP(EVM_EVAL_OP_CASE)
    return true;
  default:
    return false;
  }
}

#undef EVM_EVAL_OP_CASE
