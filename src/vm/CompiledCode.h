//===- vm/CompiledCode.h - Executable form of compiled IR -----------------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The form the compiled tiers (O0/O1/O2) execute.  Every
/// jit::CompiledFunction is lowered once, where its code is produced (the
/// synchronous install, the background compile worker, or a code
/// override), into a flat stream of 32-byte entries:
///
///   * one entry per IR instruction, blocks laid out in order, with jump
///     targets resolved to stream indices;
///   * each entry carries its full virtual-clock charge (compiled dispatch
///     plus the operation's cost), so the executor subtracts one number;
///   * one handler per (IROp, scalar operator): `Binary Add` is its own
///     handler and inlines vm/Eval's binaryOp<Add> for every operand kind,
///     so arithmetic costs one dispatch and no call;
///   * call arguments are register lists in a side table.
///
/// The executor itself (ExecutionEngine::executeCompiled) lives in
/// vm/Engine.cpp, next to the clock it drives.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_COMPILEDCODE_H
#define EVM_VM_COMPILEDCODE_H

#include "vm/Eval.h"
#include "vm/Timing.h"
#include "vm/jit/Compiler.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace evm {
namespace vm {

/// The stream handlers for the non-scalar IR operations.
#define EVM_FOR_EACH_XCORE(X)                                                  \
  X(MovInt) X(MovFloat) X(Mov) X(Call) X(NewArr) X(HLoad) X(HStore) X(Jump)    \
  X(CondJump) X(Ret)

/// Stream handler ids: the non-scalar operations, then one handler per
/// binary (`Bin_<op>`) and unary (`Un_<op>`) scalar operator.
enum class XOp : uint8_t {
#define EVM_XOP_CORE(NAME) NAME,
#define EVM_XOP_BINARY(OP) Bin_##OP,
#define EVM_XOP_UNARY(OP) Un_##OP,
  EVM_FOR_EACH_XCORE(EVM_XOP_CORE) EVM_FOR_EACH_BINARY_OP(EVM_XOP_BINARY)
      EVM_FOR_EACH_UNARY_OP(EVM_XOP_UNARY)
#undef EVM_XOP_CORE
#undef EVM_XOP_BINARY
#undef EVM_XOP_UNARY
};

/// One stream entry.  Field use by handler:
///
///   MovInt/MovFloat  Dest = Imm (the payload's bits)
///   Mov              Dest = A
///   Bin_*            Dest = A op B
///   Un_*             Dest = op A
///   Call             Dest = method A (arguments: ArgRegs[B, B + C))
///   NewArr/HLoad     Dest = alloc(A) / heap[A]
///   HStore           heap[A] = B
///   Jump             goto entry B
///   CondJump         goto A ? entry B : entry C
///   Ret              return A
struct XInstr {
  XOp Op = XOp::Ret;
  uint32_t Charge = 0; ///< CompiledDispatchCycles + the operation's cost
  uint32_t Dest = 0;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t C = 0;
  int64_t Imm = 0;
};
static_assert(sizeof(XInstr) == 32, "stream entries should stay compact");

/// A compiled function in executable form.  The IR it was lowered from is
/// not kept: only the stream runs, and dropping the IR more than pays for
/// the stream's memory.
struct CompiledCode {
  OptLevel Level = OptLevel::O0;
  /// The pipeline's pass breakdown (jit::CompiledFunction::Passes), for
  /// the phase profiler's compile attribution.
  std::vector<jit::PassWork> Passes;
  uint32_t NumRegs = 0;
  /// Widest outgoing argument list: a frame's register window is followed
  /// by this many cells, where calls stage arguments so they land at the
  /// base of the callee's window.
  uint32_t MaxCallArgs = 0;
  std::vector<XInstr> Stream; ///< entry 0 starts block 0
  std::vector<uint32_t> ArgRegs;
};

/// Lowers \p Fn into its executable stream, pricing every entry with
/// \p TM's compiled dispatch cost.
std::shared_ptr<const CompiledCode>
lowerCompiledCode(const jit::CompiledFunction &Fn, const TimingModel &TM);

} // namespace vm
} // namespace evm

#endif // EVM_VM_COMPILEDCODE_H
