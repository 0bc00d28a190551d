//===- hostbench/Common.h - Shared pieces of the host-time benchmark ------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hostbench binary times calls into the repository's public API from
/// outside.  This header holds what its three workloads share: options,
/// the seeded input plan, the golden reference data, the in-memory span
/// recorder, the per-layer replay, and the result/metric plumbing.
///
/// Input plan.  Every workload draws from the same fixed input mix: each
/// application contributes StreamLength inputs (a fixed sample of its
/// input set), and a stream runs them in one of NumPerms recorded orders.
/// The benchmark seed picks the order of every stream, so the host work
/// per stream is the same on every seed while the learning trajectory
/// (which runs are reactive, which are predicted) changes.  Because the
/// orders are a fixed menu, the golden virtual-cycle digest of every run
/// on every seed is recorded once, in golden/streams.txt.
///
//===----------------------------------------------------------------------===//

#ifndef HOSTBENCH_COMMON_H
#define HOSTBENCH_COMMON_H

#include "evolve/EvolvableVM.h"
#include "evolve/ModelBuilder.h"
#include "harness/Scenario.h"
#include "vm/jit/Compiler.h"
#include "workloads/Workload.h"
#include "xicl/Translator.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

namespace hb {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point A) {
  return msBetween(A, Clock::now());
}

/// Command-line options of the hostbench binary.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string GoldenDir; ///< golden/returns.txt + golden/streams.txt
  std::string WorkDir;   ///< scratch space for stores and the socket
  std::string ServedPath; ///< the evm-served binary (serve-open only)
  /// Corrupts one recorded golden entry before the run (benchmark
  /// self-test: the run must then report a failure).
  bool PerturbGolden = false;
};

/// splitmix64: the benchmark's own generator, so the input plan does not
/// move when the repository's Rng does.
class SplitMix {
public:
  explicit SplitMix(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

/// Workload build seed of every application (inputs, programs, specs).
constexpr uint64_t BuildSeed = 1;
/// Production runs in one stream (one fresh VM, or one store lifetime):
/// the paper's setting, harness::ExperimentConfig::NumRuns.
constexpr size_t StreamLength = 30;
/// Recorded orders per application.
constexpr size_t NumPerms = 16;

/// One application with everything a VM over it needs.  Heap-allocated and
/// never moved: VMs keep pointers to Registry and Files.
struct App {
  std::string Name;
  evm::wl::Workload W;
  evm::xicl::XFMethodRegistry Registry;
  evm::xicl::FileStore Files;
  std::vector<size_t> Mix; ///< the StreamLength inputs every stream runs

  explicit App(const std::string &Name);
  /// The inputs of stream order \p Perm (a permutation of Mix).
  std::vector<size_t> order(size_t Perm) const;
  /// A fresh VM under the configuration every harness-created VM uses.
  std::unique_ptr<evm::evolve::EvolvableVM> makeVM() const;
};

/// Which recorded order stream \p Stream of round \p Round runs on \p Seed.
size_t pickPerm(uint64_t Seed, size_t Round, size_t Stream);

/// Virtual-cycle digest of one run: cycles, used-prediction flag and the
/// predicted per-method levels.
uint64_t runDigest(const evm::evolve::EvolveRunRecord &R);

/// The reference data recorded with the benchmark.
struct Golden {
  /// (app, input index) -> return value, as bc::Value::str() prints it.
  std::map<std::pair<std::string, size_t>, std::string> Returns;
  /// (app, perm, run) -> runDigest.
  std::map<std::tuple<std::string, size_t, size_t>, uint64_t> Digests;

  bool load(const std::string &Dir, std::string &Error);
  /// Benchmark self-test: corrupt one recorded entry.
  void perturbDigest(const std::string &App, size_t Perm, size_t Run) {
    Digests[{App, Perm, Run}] ^= 1;
  }
  void perturbReturn(const std::string &App, size_t Input) {
    Returns[{App, Input}] += "~";
  }
};

/// Per-op correctness bookkeeping shared by all threads of a run.
class Checker {
public:
  explicit Checker(const Golden &G) : G(G) {}
  /// Checks one stream run; returns false (and records why) on mismatch.
  bool checkRun(const std::string &App, size_t Perm, size_t RunIndex,
                size_t Input, const evm::evolve::EvolveRunRecord &R);
  /// Checks a return value alone (served requests, replays).
  bool checkReturn(const std::string &App, size_t Input,
                   const std::string &Ret);
  void fail(const std::string &Why);
  std::vector<std::string> errors() const;

private:
  const Golden &G;
  mutable std::mutex M;
  std::vector<std::string> Errors;
};

/// One span of the traced run: a call into a layer, timed from outside.
struct Span {
  const char *Name;
  double StartUs;
  double EndUs;
  uint64_t Op;    ///< the op (run, launch, request) the span belongs to
  int32_t Parent; ///< index of the enclosing span, -1 at top level
};

/// In-memory span recorder; summarized and written out at exit.
class SpanLog {
public:
  explicit SpanLog(Clock::time_point Epoch) : Epoch(Epoch) {}
  int32_t begin(const char *Name, uint64_t Op, int32_t Parent = -1);
  void end(int32_t Id);
  /// Records a span whose ends were timed elsewhere.
  void add(const char *Name, Clock::time_point Start, Clock::time_point End,
           uint64_t Op);
  const std::vector<Span> &spans() const { return Spans; }
  void append(const SpanLog &O);

  /// Total and count of spans named \p Name.
  std::pair<double, size_t> sumUs(const char *Name) const;
  /// Writes every span as one JSON line to \p Path.
  bool write(const std::string &Path) const;

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// RAII span.
class Scoped {
public:
  Scoped(SpanLog *L, const char *Name, uint64_t Op, int32_t Parent = -1)
      : L(L), Id(L ? L->begin(Name, Op, Parent) : -1) {}
  ~Scoped() {
    if (L)
      L->end(Id);
  }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;
  int32_t id() const { return Id; }

private:
  SpanLog *L;
  int32_t Id;
};

/// Accumulated per-layer work of the traced run.
struct LayerTotals {
  // Whole production runs (untraced rounds; see noteRun).
  double RunMs = 0, Runs = 0, RunVcycles = 0, RunCompiles = 0;
  // Replayed layers (traced rounds; see LayerReplay).
  double InterpNs = 0, InterpInstrs = 0;
  double CompiledNs = 0, CompiledVcycles = 0;
  double JitUs[3] = {0, 0, 0}, JitBc[3] = {0, 0, 0};
  double JitCompiles = 0;
  double DatasetRows = 0, Rebuilds = 0;
  /// runOnce time of the replayed runs, and the part of it the replayed
  /// layers explain.
  double ReplayedRunMs = 0, ExplainedMs = 0;

  void noteRun(const evm::evolve::EvolveRunRecord &R, double Ms);
};

/// Replays the layers one production run went through, on the same inputs
/// (the traced run's per-layer view of what runOnce does inside):
///   command line -> XICLTranslator::buildFVector
///   (features, ideal) -> ModelBuilder::predict/addRun/rebuild
///   each CompileEvent -> jit::compileAtLevel
///   inputs -> ExecutionEngine::run with no policy (interpreter only) and
///   with every method pinned at its predicted level (compiled only).
/// One replayer per stream: it carries that stream's model replica.
class LayerReplay {
public:
  LayerReplay(const App &A, SpanLog &Log, Checker &Check);
  /// \p RunMs is the host time runOnce took; \p WithVm selects whether the
  /// execution replays run for this op (they are sampled: they cost as much
  /// as the run itself).
  void replay(uint64_t Op, size_t Input,
              const evm::evolve::EvolveRunRecord &R, double RunMs,
              bool WithVm, LayerTotals &T);

private:
  std::shared_ptr<const evm::vm::jit::CompiledFunction>
  compiled(evm::bc::MethodId Id, evm::vm::OptLevel L);

  const App &A;
  SpanLog &Log;
  Checker &Check;
  std::unique_ptr<evm::xicl::XICLTranslator> Translator;
  evm::evolve::ModelBuilder Model;
  std::map<std::pair<evm::bc::MethodId, int>,
           std::shared_ptr<const evm::vm::jit::CompiledFunction>>
      Code;
  /// Host cost rates of this app's execution tiers, from its replays so
  /// far (ns per virtual cycle); used to explain runOnce's execution time.
  double InterpNsPerCycle = 0, CompiledNsPerCycle = 0;
};

/// What a workload run hands back to main.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Metric values by name; the units live in endToEndMetrics() and
  /// layerMetrics().
  std::map<std::string, double> Metrics;
  /// Extra figures for the human-readable report (percentiles chosen,
  /// sample counts, per-rate latencies, ...).
  std::map<std::string, double> Report;
  std::vector<std::string> Errors;

  void set(const std::string &Name, double Value) { Metrics[Name] = Value; }
};

/// Sorted-sample statistics.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);
/// The highest percentile with at least ten samples beyond it (the
/// percentile is 1 - 10/n): value, percentile (0..100), n.
struct Tail {
  double Value = 0;
  double Pct = 0;
  size_t N = 0;
};
Tail tailOf(std::vector<double> V);

/// Runs \p SetUp repeatedly, at least \p MinReps times and for at least
/// \p BudgetS seconds (at most 1000 times), and returns the median time of
/// one set-up in seconds.  The last set-up's state is what the run uses.
template <typename Fn>
double medianSetUpS(Fn SetUp, int MinReps, double BudgetS) {
  std::vector<double> S;
  Clock::time_point Start = Clock::now();
  while (S.size() < 1000 && (S.size() < static_cast<size_t>(MinReps) ||
                             msSince(Start) < BudgetS * 1e3)) {
    Clock::time_point T0 = Clock::now();
    SetUp();
    S.push_back(msSince(T0) / 1e3);
  }
  return median(S);
}

/// VmHWM of \p Pid ("self" for this process), in MB.
double peakRssMb(const std::string &Pid = "self");

/// Every per-layer metric name with its unit (the traced run emits all of
/// them on every workload; layers a workload does not touch read 0).
const std::vector<std::pair<const char *, const char *>> &layerMetrics();
/// Every end-to-end metric name with its unit.
const std::vector<std::pair<const char *, const char *>> &endToEndMetrics();

/// Fills the vm/jit/xicl/ml/evolve per-layer metrics from \p T and the
/// replay spans in \p Log.
void setLayerMetrics(Result &R, const LayerTotals &T, const SpanLog &Log);

/// Writes the traced run's spans to <workdir>/spans.jsonl at exit.
void writeSpans(Result &R, const Options &O, const SpanLog &Log);

// The workloads.
Result runPaperStream(const Options &O, Golden &G);
Result runRelaunch(const Options &O, Golden &G);
Result runServeOpen(const Options &O, Golden &G);

/// Writes golden/returns.txt and golden/streams.txt into \p Dir.
int recordGolden(const std::string &Dir);

} // namespace hb

#endif // HOSTBENCH_COMMON_H
