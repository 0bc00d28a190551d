//===- vm/Eval.h - Shared operator semantics ------------------------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single definition of MiniVM operator semantics.  Each operator is one
/// inline template, binaryOp<Op> or unaryOp<Op>, covering int, float, mixed
/// and trapping operands.  Every tier inlines the same template: the
/// compiled-code executor's per-operator handlers and the decoded
/// interpreter's handlers call it directly, while the reference interpreter
/// and the JIT's constant folder reach it through the evalBinary/evalUnary
/// switches below.  So the tiers agree on every corner case (promotion,
/// division by zero, signed zeros, NaNs) by construction — the invariant the
/// JIT correctness property tests and the per-operator table test assert.
///
/// Each operator is one separately rounded IEEE operation; nothing here may
/// be contracted or reassociated with its neighbours.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_EVAL_H
#define EVM_VM_EVAL_H

#include "bytecode/Opcode.h"
#include "bytecode/Value.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>

namespace evm {
namespace vm {

/// Why an evaluation trapped.
enum class TrapKind {
  None,
  DivisionByZero,
  IntegerOpOnFloat, ///< bitwise/shift applied to a float operand
  HeapOutOfBounds,
  HeapExhausted,
  CallDepthExceeded,
  FuelExhausted, ///< execution exceeded the configured cycle budget
};

/// Renders a trap kind for diagnostics.
const char *trapKindName(TrapKind Kind);

/// Every two-operand operator, in bc::Opcode order.
#define EVM_FOR_EACH_BINARY_OP(X)                                              \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(And) X(Or) X(Xor) X(Shl) X(Shr) X(Eq)   \
  X(Ne) X(Lt) X(Le) X(Gt) X(Ge) X(Min) X(Max)

/// Every one-operand operator, in bc::Opcode order.
#define EVM_FOR_EACH_UNARY_OP(X)                                               \
  X(Neg) X(Not) X(I2F) X(F2I) X(Sqrt) X(Sin) X(Cos) X(Floor) X(Abs)

/// Applies the two-operand operator \p Op to \p A and \p B.  Stores the
/// result in \p R and returns TrapKind::None, or returns the trap and leaves
/// \p R untouched.  \p R may alias an operand: both are read first.
template <bc::Opcode Op>
inline TrapKind binaryOp(const bc::Value &A, const bc::Value &B,
                         bc::Value &R) {
  using bc::Opcode;
  using bc::Value;
  using U = uint64_t; // two's-complement wrapping (signed overflow is UB)
  const bool BothInt = A.isInt() && B.isInt();
  if constexpr (Op == Opcode::Add || Op == Opcode::Sub ||
                Op == Opcode::Mul) {
    if (BothInt) {
      U X = static_cast<U>(A.asInt()), Y = static_cast<U>(B.asInt());
      R = Value::makeInt(static_cast<int64_t>(
          Op == Opcode::Add ? X + Y : Op == Opcode::Sub ? X - Y : X * Y));
    } else {
      double X = A.toDouble(), Y = B.toDouble();
      R = Value::makeFloat(Op == Opcode::Add   ? X + Y
                           : Op == Opcode::Sub ? X - Y
                                               : X * Y);
    }
  } else if constexpr (Op == Opcode::Div || Op == Opcode::Mod) {
    if (BothInt) {
      int64_t X = A.asInt(), Y = B.asInt();
      if (Y == 0)
        return TrapKind::DivisionByZero;
      // INT64_MIN / -1 overflows; wrap like Java's idiv does.
      if (X == INT64_MIN && Y == -1)
        R = Value::makeInt(Op == Opcode::Div ? INT64_MIN : 0);
      else
        R = Value::makeInt(Op == Opcode::Div ? X / Y : X % Y);
    } else {
      double X = A.toDouble(), Y = B.toDouble();
      if (Y == 0.0)
        return TrapKind::DivisionByZero;
      R = Value::makeFloat(Op == Opcode::Div ? X / Y : std::fmod(X, Y));
    }
  } else if constexpr (Op == Opcode::And || Op == Opcode::Or ||
                       Op == Opcode::Xor || Op == Opcode::Shl ||
                       Op == Opcode::Shr) {
    if (!BothInt)
      return TrapKind::IntegerOpOnFloat;
    int64_t X = A.asInt(), Y = B.asInt();
    if constexpr (Op == Opcode::And)
      R = Value::makeInt(X & Y);
    else if constexpr (Op == Opcode::Or)
      R = Value::makeInt(X | Y);
    else if constexpr (Op == Opcode::Xor)
      R = Value::makeInt(X ^ Y);
    else if constexpr (Op == Opcode::Shl)
      R = Value::makeInt(static_cast<int64_t>(static_cast<U>(X) << (Y & 63)));
    else
      R = Value::makeInt(X >> (Y & 63)); // arithmetic shift, Java-style
  } else if constexpr (Op == Opcode::Eq || Op == Opcode::Ne) {
    R = Value::makeInt(A.equals(B) == (Op == Opcode::Eq) ? 1 : 0);
  } else if constexpr (Op == Opcode::Lt || Op == Opcode::Le ||
                       Op == Opcode::Gt || Op == Opcode::Ge) {
    auto Compare = [](auto X, auto Y) {
      return Op == Opcode::Lt   ? X < Y
             : Op == Opcode::Le ? X <= Y
             : Op == Opcode::Gt ? X > Y
                                : X >= Y;
    };
    R = Value::makeInt(
        (BothInt ? Compare(A.asInt(), B.asInt())
                 : Compare(A.toDouble(), B.toDouble()))
            ? 1
            : 0);
  } else {
    static_assert(Op == Opcode::Min || Op == Opcode::Max,
                  "not a binary operator");
    if (BothInt)
      R = Value::makeInt(Op == Opcode::Min ? std::min(A.asInt(), B.asInt())
                                           : std::max(A.asInt(), B.asInt()));
    else
      R = Value::makeFloat(Op == Opcode::Min
                               ? std::min(A.toDouble(), B.toDouble())
                               : std::max(A.toDouble(), B.toDouble()));
  }
  return TrapKind::None;
}

/// Applies the one-operand operator \p Op to \p A.  No unary operator traps.
template <bc::Opcode Op> inline bc::Value unaryOp(const bc::Value &A) {
  using bc::Opcode;
  using bc::Value;
  if constexpr (Op == Opcode::Neg) {
    if (A.isInt())
      return Value::makeInt(
          static_cast<int64_t>(0 - static_cast<uint64_t>(A.asInt())));
    return Value::makeFloat(-A.asFloat());
  } else if constexpr (Op == Opcode::Not) {
    return Value::makeInt(A.isTruthy() ? 0 : 1);
  } else if constexpr (Op == Opcode::I2F) {
    return Value::makeFloat(A.toDouble());
  } else if constexpr (Op == Opcode::F2I) {
    if (A.isInt())
      return A;
    return Value::makeInt(static_cast<int64_t>(A.asFloat()));
  } else if constexpr (Op == Opcode::Sqrt) {
    return Value::makeFloat(std::sqrt(A.toDouble()));
  } else if constexpr (Op == Opcode::Sin) {
    return Value::makeFloat(std::sin(A.toDouble()));
  } else if constexpr (Op == Opcode::Cos) {
    return Value::makeFloat(std::cos(A.toDouble()));
  } else if constexpr (Op == Opcode::Floor) {
    if (A.isInt())
      return A;
    return Value::makeFloat(std::floor(A.asFloat()));
  } else {
    static_assert(Op == Opcode::Abs, "not a unary operator");
    if (A.isInt())
      return Value::makeInt(
          A.asInt() < 0
              ? static_cast<int64_t>(0 - static_cast<uint64_t>(A.asInt()))
              : A.asInt());
    return Value::makeFloat(std::fabs(A.asFloat()));
  }
}

/// Evaluates a two-operand operator (\p Op in {Add..Ge, Min, Max}).  Returns
/// nullopt and sets \p Trap on a semantic trap.
inline std::optional<bc::Value> evalBinary(bc::Opcode Op, const bc::Value &A,
                                           const bc::Value &B,
                                           TrapKind &Trap) {
  bc::Value R;
  switch (Op) {
#define EVM_EVAL_BINARY_CASE(OP)                                               \
  case bc::Opcode::OP:                                                         \
    Trap = binaryOp<bc::Opcode::OP>(A, B, R);                                  \
    break;
    EVM_FOR_EACH_BINARY_OP(EVM_EVAL_BINARY_CASE)
#undef EVM_EVAL_BINARY_CASE
  default:
    assert(false && "not a binary opcode");
    Trap = TrapKind::None;
    return std::nullopt;
  }
  if (Trap != TrapKind::None)
    return std::nullopt;
  return R;
}

/// Evaluates a one-operand operator (\p Op in {Neg, Not, I2F..Abs}).
inline std::optional<bc::Value> evalUnary(bc::Opcode Op, const bc::Value &A,
                                          TrapKind &Trap) {
  Trap = TrapKind::None;
  switch (Op) {
#define EVM_EVAL_UNARY_CASE(OP)                                                \
  case bc::Opcode::OP:                                                         \
    return unaryOp<bc::Opcode::OP>(A);
    EVM_FOR_EACH_UNARY_OP(EVM_EVAL_UNARY_CASE)
#undef EVM_EVAL_UNARY_CASE
  default:
    assert(false && "not a unary opcode");
    return std::nullopt;
  }
}

/// True when \p Op is handled by evalBinary.
bool isBinaryOp(bc::Opcode Op);

/// True when \p Op is handled by evalUnary.
bool isUnaryOp(bc::Opcode Op);

} // namespace vm
} // namespace evm

#endif // EVM_VM_EVAL_H
