//===- vm/CompileWorker.h - Background compile workers --------------------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CompileWorkerPool: the background compilation pipeline modeled on Jikes
/// RVM's dedicated compilation thread.  Real std::threads run
/// jit::compileAtLevel off the execution thread; *when* the finished code
/// becomes installable is decided by a deterministic virtual scheduler that
/// runs entirely on the execution thread:
///
///   StartCycle   = max(RequestCycle + CompileQueueDelayCycles,
///                      WorkerFreeCycle[w])      (w = earliest-free worker,
///                                                lowest index on ties)
///   ReadyAtCycle = StartCycle + CostCycles
///   WorkerFreeCycle[w] = ReadyAtCycle
///
/// Because worker assignment and ready times never consult the host clock
/// or real thread progress, two runs with the same seed and worker count
/// produce bit-identical virtual clocks; the real threads only determine
/// how much *host* time the simulation spends waiting in takeReady().
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_COMPILEWORKER_H
#define EVM_VM_COMPILEWORKER_H

#include "support/Trace.h"
#include "vm/CompileQueue.h"

#include <thread>
#include <vector>

namespace evm {
namespace vm {

/// A pool of background compile workers for one module.  All methods except
/// the worker entry point must be called from the execution thread.
class CompileWorkerPool {
public:
  /// Spawns TM.NumCompileWorkers real threads (at least one; a pool is only
  /// created when the model is asynchronous).
  CompileWorkerPool(const bc::Module &M, const TimingModel &TM);
  ~CompileWorkerPool();

  CompileWorkerPool(const CompileWorkerPool &) = delete;
  CompileWorkerPool &operator=(const CompileWorkerPool &) = delete;

  /// Enqueues a background compile of \p Id at \p L issued at virtual cycle
  /// \p NowCycles with modeled cost \p CostCycles.  Returns false when the
  /// request was dropped: a compile of \p Id at >= \p L is already in
  /// flight (coalescing), or TM.CompileQueueCapacity requests are already
  /// in flight (checked against the virtual in-flight set so the decision
  /// is deterministic).
  bool request(bc::MethodId Id, OptLevel L, uint64_t NowCycles,
               uint64_t CostCycles);

  /// True when a compile of \p Id at a level >= \p L is in flight.
  bool hasPending(bc::MethodId Id, OptLevel L) const;

  /// Removes and returns every request whose ReadyAtCycle <= \p NowCycles,
  /// ordered by (ReadyAtCycle, SeqNo).  Blocks on the real worker thread
  /// when virtual time has already arrived but the host compile has not
  /// finished — waiting does not advance the virtual clock, so determinism
  /// is unaffected.
  std::vector<CompileResult> takeReady(uint64_t NowCycles);

  /// Virtual cycles until the earliest virtual worker frees up (0 when one
  /// is idle): the queue-delay term the cost-benefit model prices.
  uint64_t backlogCycles(uint64_t NowCycles) const;

  /// Waits for all in-flight host compiles, discards their results, and
  /// rewinds the virtual timelines.  Called by the engine between runs.
  void reset();

  /// Virtual cycles spent compiling on worker timelines since the last
  /// reset (installed or not).
  uint64_t overlappedCycles() const { return OverlappedCycles; }

  /// Requests dropped because the bounded queue was full, since the last
  /// reset.  Coalesced duplicates are not counted.
  uint64_t droppedRequests() const { return DroppedRequests; }

  unsigned numWorkers() const {
    return static_cast<unsigned>(WorkerFreeCycle.size());
  }

  /// Points the pool at the engine's recorder (may be null).  Queue events
  /// (enqueue/start/ready/drop/coalesce) are emitted from the execution
  /// thread at request time — start/ready carry their *future* virtual
  /// timestamps, which the deterministic scheduler already knows.
  void setTracer(TraceRecorder *T) { Tracer = T; }

private:
  void workerMain();

  const bc::Module &M;
  const TimingModel TM;      ///< prices the lowered streams
  const uint64_t Capacity;   ///< max in-flight (not yet installed) requests
  const uint64_t QueueDelay; ///< TM.CompileQueueDelayCycles
  CompileQueue Queue;
  std::vector<std::thread> Threads;

  // Execution-thread state (never touched by workers).
  std::vector<uint64_t> WorkerFreeCycle; ///< virtual timeline per worker
  std::vector<CompileRequest> InFlight;  ///< awaiting install, by SeqNo
  uint64_t NextSeqNo = 0;
  uint64_t OverlappedCycles = 0;
  uint64_t DroppedRequests = 0;
  TraceRecorder *Tracer = nullptr; ///< written to from the execution thread
};

} // namespace vm
} // namespace evm

#endif // EVM_VM_COMPILEWORKER_H
