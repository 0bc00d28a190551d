//===- vm/CompileQueue.h - Bounded MPSC compile-request queue -------------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The handoff structure between the execution thread and the background
/// compile workers: a multi-producer/single-consumer request queue plus a
/// completed-result mailbox keyed by request sequence number.
///
/// Only *host-thread* scheduling flows through this class.  All virtual-clock
/// accounting (which virtual worker takes a request, when the code becomes
/// installable) is computed deterministically on the execution thread by
/// CompileWorkerPool before the request is pushed, so run results are
/// bit-identical regardless of how the OS schedules the real threads.  For
/// the same reason the host queue is unbounded: the pipeline's capacity
/// bound is enforced by CompileWorkerPool against its *virtual* in-flight
/// set, never against host occupancy (which real-thread progress decides).
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_COMPILEQUEUE_H
#define EVM_VM_COMPILEQUEUE_H

#include "bytecode/Module.h"
#include "vm/Timing.h"
#include "vm/CompiledCode.h"

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

namespace evm {
namespace vm {

/// One background compilation request.  The virtual-timeline fields are
/// filled in by CompileWorkerPool at enqueue time, on the execution thread.
struct CompileRequest {
  bc::MethodId Method = 0;
  OptLevel Level = OptLevel::O0;
  uint64_t SeqNo = 0;        ///< enqueue order; deterministic install tiebreak
  uint64_t RequestCycle = 0; ///< virtual cycle the request was issued
  uint64_t StartCycle = 0;   ///< virtual cycle the assigned worker begins
  uint64_t ReadyAtCycle = 0; ///< virtual cycle the code becomes installable
  uint64_t CostCycles = 0;   ///< modeled compile cost (worker-timeline time)
  unsigned Worker = 0;       ///< virtual worker index
};

/// A finished background compilation: the request plus the compiled code.
struct CompileResult {
  CompileRequest Request;
  std::shared_ptr<const CompiledCode> Code; ///< lowered on the worker
};

/// MPSC queue of compile requests, with a mailbox for finished results.
/// Producers are execution threads (push), consumers of work are the
/// pool's worker threads (pop), and the single result consumer is the
/// execution thread (takeResult).
class CompileQueue {
public:
  CompileQueue() = default;

  /// Enqueues a request.  Never fails: admission control happens in
  /// CompileWorkerPool::request against deterministic virtual state.
  void push(CompileRequest R);

  /// Blocks until a request is available or shutdown() is called; nullopt
  /// means the worker should exit.
  std::optional<CompileRequest> pop();

  /// Posts a finished compilation to the mailbox (worker threads).
  void postResult(CompileResult R);

  /// Blocks until the result for \p SeqNo is in the mailbox, removes it,
  /// and returns it.  Called only from the execution thread.
  CompileResult takeResult(uint64_t SeqNo);

  /// Blocks until every request pushed so far has been compiled and
  /// posted, then discards all mailbox entries.  Used between runs.
  void drainAndDiscard();

  /// Wakes all workers and makes pop() return nullopt from now on.
  void shutdown();

private:
  mutable std::mutex Mutex;
  std::condition_variable WorkAvailable;  ///< signaled on push/shutdown
  std::condition_variable ResultPosted;   ///< signaled on postResult
  std::deque<CompileRequest> Requests;
  std::deque<CompileResult> Results;
  uint64_t PushedCount = 0;   ///< requests ever pushed
  uint64_t FinishedCount = 0; ///< results ever posted
  bool ShuttingDown = false;
};

} // namespace vm
} // namespace evm

#endif // EVM_VM_COMPILEQUEUE_H
