//===- vm/Heap.h - Flat bump-allocated value heap --------------------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniVM heap: a flat array of Values with bump allocation (NewArr) and
/// bounds-checked loads/stores.  Workloads use it for their data arrays
/// (compression buffers, scene grids, particle tables).  There is no GC:
/// a run's allocations live for the run, matching the arena-style lifetime
/// of the paper's benchmark kernels.
///
/// The first allocation reserves address space for all MaxCells cells, so
/// later growth never copies the array (a copying growth keeps the old and
/// new arrays resident at once).  Only cells actually allocated are touched.
/// Reserving lazily keeps engine construction cheap for runs that never
/// allocate.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_HEAP_H
#define EVM_VM_HEAP_H

#include "bytecode/Value.h"
#include "vm/Eval.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace evm {
namespace vm {

/// A flat heap of Values addressed by int64 cell index.
class Heap {
public:
  explicit Heap(size_t MaxCells = 1u << 22) : MaxCells(MaxCells) {}

  /// Allocates \p Count zero-initialized cells; returns the base address or
  /// nullopt (setting \p Trap) when the heap limit would be exceeded.
  std::optional<int64_t> alloc(int64_t Count, TrapKind &Trap) {
    if (Count < 0 ||
        Cells.size() + static_cast<size_t>(Count) > MaxCells) {
      Trap = TrapKind::HeapExhausted;
      return std::nullopt;
    }
    if (Cells.capacity() < MaxCells)
      Cells.reserve(MaxCells);
    int64_t Base = static_cast<int64_t>(Cells.size());
    Cells.resize(Cells.size() + static_cast<size_t>(Count));
    return Base;
  }

  std::optional<bc::Value> load(int64_t Addr, TrapKind &Trap) const {
    if (Addr < 0 || static_cast<size_t>(Addr) >= Cells.size()) {
      Trap = TrapKind::HeapOutOfBounds;
      return std::nullopt;
    }
    return Cells[static_cast<size_t>(Addr)];
  }

  bool store(int64_t Addr, const bc::Value &V, TrapKind &Trap) {
    if (Addr < 0 || static_cast<size_t>(Addr) >= Cells.size()) {
      Trap = TrapKind::HeapOutOfBounds;
      return false;
    }
    Cells[static_cast<size_t>(Addr)] = V;
    return true;
  }

  size_t size() const { return Cells.size(); }

  /// Drops all allocations (between runs).
  void reset() { Cells.clear(); }

private:
  size_t MaxCells;
  std::vector<bc::Value> Cells;
};

} // namespace vm
} // namespace evm

#endif // EVM_VM_HEAP_H
