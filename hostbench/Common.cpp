//===- hostbench/Common.cpp -----------------------------------------------===//

#include "Common.h"

#include "vm/Engine.h"
#include "xicl/Spec.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace evm;

namespace hb {

namespace {

uint64_t fnv1a(const std::string &S, uint64_t H = 0xcbf29ce484222325ULL) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

uint64_t mix(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return SplitMix(H).next();
}

} // namespace

App::App(const std::string &Name)
    : Name(Name), W(wl::buildWorkload(Name, BuildSeed)) {
  W.registerMethods(Registry);
  W.populateFileStore(Files);
  // A fixed sample of the input set: without replacement where the set is
  // large enough, with replacement otherwise.
  SplitMix R(fnv1a(Name) ^ 0x6d6978ULL);
  size_t N = W.Inputs.size();
  if (N >= StreamLength) {
    std::vector<size_t> All(N);
    for (size_t I = 0; I != N; ++I)
      All[I] = I;
    for (size_t I = 0; I != StreamLength; ++I)
      std::swap(All[I], All[I + R.below(N - I)]);
    Mix.assign(All.begin(), All.begin() + StreamLength);
  } else {
    for (size_t I = 0; I != StreamLength; ++I)
      Mix.push_back(R.below(N));
  }
}

std::vector<size_t> App::order(size_t Perm) const {
  std::vector<size_t> O = Mix;
  SplitMix R(mix(fnv1a(Name), Perm + 1));
  for (size_t I = O.size(); I > 1; --I)
    std::swap(O[I - 1], O[R.below(I)]);
  return O;
}

std::unique_ptr<evolve::EvolvableVM> App::makeVM() const {
  return std::make_unique<evolve::EvolvableVM>(
      W.Module, W.XiclSpec, &Registry, &Files,
      harness::makeEvolveConfig(harness::ExperimentConfig()));
}

size_t pickPerm(uint64_t Seed, size_t Round, size_t Stream) {
  return mix(mix(Seed, Round), Stream) % NumPerms;
}

uint64_t runDigest(const evolve::EvolveRunRecord &R) {
  std::string S = std::to_string(R.Result.Cycles) + "/" +
                  (R.UsedPrediction ? "p" : "r") + "/";
  if (R.HadPrediction)
    for (vm::OptLevel L : R.Predicted.Levels)
      S += std::to_string(static_cast<int>(L)) + ",";
  return fnv1a(S);
}

bool Golden::load(const std::string &Dir, std::string &Error) {
  std::ifstream Ret(Dir + "/returns.txt");
  std::ifstream Str(Dir + "/streams.txt");
  if (!Ret || !Str) {
    Error = "cannot read golden data in " + Dir;
    return false;
  }
  std::string Line;
  while (std::getline(Ret, Line)) {
    std::istringstream In(Line);
    std::string App, Value;
    size_t Input;
    if (Line.empty() || Line[0] == '#')
      continue;
    if (!(In >> App >> Input >> Value)) {
      Error = "bad golden return line: " + Line;
      return false;
    }
    Returns[{App, Input}] = Value;
  }
  while (std::getline(Str, Line)) {
    std::istringstream In(Line);
    std::string App;
    size_t Perm, Run;
    uint64_t Digest;
    if (Line.empty() || Line[0] == '#')
      continue;
    if (!(In >> App >> Perm >> Run >> std::hex >> Digest)) {
      Error = "bad golden stream line: " + Line;
      return false;
    }
    Digests[{App, Perm, Run}] = Digest;
  }
  if (Returns.empty() || Digests.empty()) {
    Error = "empty golden data in " + Dir;
    return false;
  }
  return true;
}

bool Checker::checkReturn(const std::string &App, size_t Input,
                          const std::string &Ret) {
  auto It = G.Returns.find({App, Input});
  if (It == G.Returns.end()) {
    fail(App + " input " + std::to_string(Input) + ": no golden return");
    return false;
  }
  if (It->second != Ret) {
    fail(App + " input " + std::to_string(Input) + ": returned " + Ret +
         ", reference " + It->second);
    return false;
  }
  return true;
}

bool Checker::checkRun(const std::string &App, size_t Perm, size_t RunIndex,
                       size_t Input, const evolve::EvolveRunRecord &R) {
  if (!checkReturn(App, Input, R.Result.ReturnValue.str()))
    return false;
  auto It = G.Digests.find({App, Perm, RunIndex});
  if (It == G.Digests.end() || It->second != runDigest(R)) {
    fail(App + " order " + std::to_string(Perm) + " run " +
         std::to_string(RunIndex) + ": virtual-cycle digest differs from "
         "the golden one (cycles " + std::to_string(R.Result.Cycles) + ")");
    return false;
  }
  return true;
}

void Checker::fail(const std::string &Why) {
  std::lock_guard<std::mutex> Lock(M);
  if (Errors.size() < 20)
    Errors.push_back(Why);
}

std::vector<std::string> Checker::errors() const {
  std::lock_guard<std::mutex> Lock(M);
  return Errors;
}

int32_t SpanLog::begin(const char *Name, uint64_t Op, int32_t Parent) {
  double Now =
      std::chrono::duration<double, std::micro>(Clock::now() - Epoch).count();
  Spans.push_back(Span{Name, Now, Now, Op, Parent});
  return static_cast<int32_t>(Spans.size() - 1);
}

void SpanLog::end(int32_t Id) {
  Spans[static_cast<size_t>(Id)].EndUs =
      std::chrono::duration<double, std::micro>(Clock::now() - Epoch).count();
}

void SpanLog::add(const char *Name, Clock::time_point Start,
                  Clock::time_point End, uint64_t Op) {
  using Us = std::chrono::duration<double, std::micro>;
  Spans.push_back(
      Span{Name, Us(Start - Epoch).count(), Us(End - Epoch).count(), Op, -1});
}

void SpanLog::append(const SpanLog &O) {
  int32_t Base = static_cast<int32_t>(Spans.size());
  for (Span S : O.Spans) {
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans.push_back(S);
  }
}

std::pair<double, size_t> SpanLog::sumUs(const char *Name) const {
  std::string Want = Name;
  double Sum = 0;
  size_t N = 0;
  for (const Span &S : Spans)
    if (Want == S.Name) {
      Sum += S.EndUs - S.StartUs;
      ++N;
    }
  return {Sum, N};
}

bool SpanLog::write(const std::string &Path) const {
  std::ofstream Out(Path);
  for (const Span &S : Spans)
    Out << "{\"name\":\"" << S.Name << "\",\"start_us\":" << S.StartUs
        << ",\"end_us\":" << S.EndUs << ",\"op\":" << S.Op
        << ",\"parent\":" << S.Parent << "}\n";
  return static_cast<bool>(Out);
}

void LayerTotals::noteRun(const evolve::EvolveRunRecord &R, double Ms) {
  RunMs += Ms;
  Runs += 1;
  RunVcycles += static_cast<double>(R.Result.Cycles);
  RunCompiles += static_cast<double>(R.Result.Compiles.size());
}

LayerReplay::LayerReplay(const App &A, SpanLog &Log, Checker &Check)
    : A(A), Log(Log), Check(Check), Model(A.W.Module.numFunctions()) {
  auto Spec = xicl::parseSpec(A.W.XiclSpec);
  if (Spec)
    Translator = std::make_unique<xicl::XICLTranslator>(
        Spec.takeValue(), &A.Registry, &A.Files);
}

std::shared_ptr<const vm::jit::CompiledFunction>
LayerReplay::compiled(bc::MethodId Id, vm::OptLevel L) {
  auto &Slot = Code[{Id, static_cast<int>(L)}];
  if (!Slot)
    Slot = std::make_shared<const vm::jit::CompiledFunction>(
        vm::jit::compileAtLevel(A.W.Module, Id, L));
  return Slot;
}

void LayerReplay::replay(uint64_t Op, size_t Input,
                         const evolve::EvolveRunRecord &R, double RunMs,
                         bool WithVm, LayerTotals &T) {
  const wl::InputCase &In = A.W.Inputs[Input];
  Clock::time_point T0;
  double ExplainedUs = 0;

  if (Translator) {
    Scoped S(&Log, "xicl.extract", Op);
    T0 = Clock::now();
    auto FV = Translator->buildFVector(In.CommandLine);
    ExplainedUs += msSince(T0) * 1e3;
    if (!FV || FV->hash() != R.Features.hash())
      Check.fail(A.Name + " input " + std::to_string(Input) +
                 ": replayed XICL features differ from the run's");
  }

  if (Model.built()) {
    Scoped S(&Log, "ml.predict", Op);
    T0 = Clock::now();
    Model.predict(R.Features);
    ExplainedUs += msSince(T0) * 1e3;
  }
  {
    Scoped S(&Log, "ml.add_run", Op);
    T0 = Clock::now();
    Model.addRun(R.Features, R.Ideal);
    ExplainedUs += msSince(T0) * 1e3;
  }
  {
    Scoped S(&Log, "ml.rebuild", Op);
    T0 = Clock::now();
    Model.rebuild();
    ExplainedUs += msSince(T0) * 1e3;
  }
  T.DatasetRows += static_cast<double>(Model.numRuns());
  T.Rebuilds += 1;

  for (const vm::CompileEvent &E : R.Result.Compiles) {
    int L = static_cast<int>(E.Level);
    if (L < 0)
      continue; // baseline "compiles" only prepare the interpreter
    Scoped S(&Log, "jit.compile", Op);
    T0 = Clock::now();
    vm::jit::CompiledFunction F =
        vm::jit::compileAtLevel(A.W.Module, E.Method, E.Level);
    double Us = msSince(T0) * 1e3;
    ExplainedUs += Us;
    T.JitUs[L] += Us;
    T.JitBc[L] += static_cast<double>(F.BytecodeSize);
    T.JitCompiles += 1;
  }

  harness::ExperimentConfig EC;
  if (WithVm) {
    {
      vm::ExecutionEngine E(A.W.Module, EC.Timing, nullptr);
      Scoped S(&Log, "vm.interp", Op);
      T0 = Clock::now();
      auto Run = E.run(In.VmArgs, EC.MaxCyclesPerRun);
      double Ns = msSince(T0) * 1e6;
      if (!Run) {
        Check.fail(A.Name + ": interpreter replay trapped");
      } else {
        Check.checkReturn(A.Name, Input, Run->ReturnValue.str());
        T.InterpNs += Ns;
        T.InterpInstrs += static_cast<double>(E.dispatchStats().Instrs);
        InterpNsPerCycle = Ns / static_cast<double>(Run->Cycles);
      }
    }
    {
      vm::ExecutionEngine E(A.W.Module, EC.Timing, nullptr);
      for (bc::MethodId M = 0; M != A.W.Module.numFunctions(); ++M) {
        vm::OptLevel L = R.HadPrediction ? R.Predicted.levelFor(M)
                                         : vm::OptLevel::O0;
        E.setCodeOverride(M, compiled(M, std::max(L, vm::OptLevel::O0)));
      }
      Scoped S(&Log, "vm.compiled", Op);
      T0 = Clock::now();
      auto Run = E.run(In.VmArgs, EC.MaxCyclesPerRun);
      double Ns = msSince(T0) * 1e6;
      if (!Run) {
        Check.fail(A.Name + ": compiled-code replay trapped");
      } else {
        Check.checkReturn(A.Name, Input, Run->ReturnValue.str());
        T.CompiledNs += Ns;
        T.CompiledVcycles += static_cast<double>(Run->Cycles);
        CompiledNsPerCycle = Ns / static_cast<double>(Run->Cycles);
      }
    }
  }

  // Execution inside runOnce, explained by the tier rates: cycles each
  // method spent interpreted, and compiled, at this app's measured costs.
  double BaseCycles = 0, OptCycles = 0;
  for (const vm::MethodStats &M : R.Result.PerMethod)
    for (int I = 0; I != vm::NumOptLevels; ++I)
      (vm::levelFromIndex(I) == vm::OptLevel::Baseline ? BaseCycles
                                                       : OptCycles) +=
          static_cast<double>(M.CyclesByLevel[I]);
  ExplainedUs +=
      (BaseCycles * InterpNsPerCycle + OptCycles * CompiledNsPerCycle) / 1e3;

  T.ReplayedRunMs += RunMs;
  T.ExplainedMs += ExplainedUs / 1e3;
}

void writeSpans(Result &R, const Options &O, const SpanLog &Log) {
  std::string Path = O.WorkDir + "/spans.jsonl";
  R.Report["spans"] = static_cast<double>(Log.spans().size());
  if (!Log.write(Path))
    R.Errors.push_back("cannot write " + Path);
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

Tail tailOf(std::vector<double> V) {
  Tail T;
  T.N = V.size();
  if (V.size() <= 10) {
    T.Pct = 0;
    T.Value = quantile(std::move(V), 0.0);
    return T;
  }
  double Q = 1.0 - 10.0 / static_cast<double>(V.size());
  T.Pct = Q * 100;
  T.Value = quantile(std::move(V), Q);
  return T;
}

double peakRssMb(const std::string &Pid) {
  std::ifstream In("/proc/" + Pid + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0; // kB
  return 0;
}

const std::vector<std::pair<const char *, const char *>> &endToEndMetrics() {
  static const std::vector<std::pair<const char *, const char *>> M = {
      {"setup_s", "s"},         {"ops_per_s", "1/s"},
      {"op_ms_p50", "ms"},      {"op_ms_tail", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return M;
}

const std::vector<std::pair<const char *, const char *>> &layerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> M = {
      {"vm.interp.ns_per_instr", "ns"},
      {"vm.interp.instrs", "count"},
      {"vm.compiled.ns_per_vcycle", "ns"},
      {"vm.compiled.vcycles", "count"},
      {"vm.run.vcycles_per_s", "1/s"},
      {"vm.compiles_per_run", "count"},
      {"jit.us_per_bc.o0", "us"},
      {"jit.us_per_bc.o1", "us"},
      {"jit.us_per_bc.o2", "us"},
      {"jit.compiles", "count"},
      {"xicl.extract_us", "us"},
      {"xicl.extracts", "count"},
      {"ml.rebuild_ms", "ms"},
      {"ml.predict_us", "us"},
      {"ml.dataset_rows", "count"},
      {"evolve.run_ms", "ms"},
      {"evolve.warm_start_ms", "ms"},
      {"evolve.checkpoint_ms", "ms"},
      {"evolve.unaccounted_frac", "ratio"},
      {"store.load_ms", "ms"},
      {"store.merge_ms", "ms"},
      {"store.save_ms", "ms"},
      {"store.bytes", "bytes"},
      {"store.corrupt", "count"},
      {"harness.busy_frac", "ratio"},
      {"server.latency_us_p50", "us"},
      {"server.latency_us_tail", "us"},
      {"server.transport_ms_p50", "ms"},
      {"server.batch_size_mean", "count"},
      {"server.deadline_flush_frac", "ratio"},
      {"server.inflight_peak", "count"},
      {"server.rejected", "count"},
      {"server.fds_end", "count"},
      {"server.threads_end", "count"},
      {"protocol.parse_us", "us"},
      {"protocol.render_us", "us"},
      {"protocol.frame_bytes", "bytes"},
      {"serve.lat_ms_p50.r1", "ms"},
      {"serve.lat_ms_p50.r2", "ms"},
      {"serve.lat_ms_p50.r3", "ms"},
      {"serve.lat_ms_tail.r1", "ms"},
      {"serve.lat_ms_tail.r2", "ms"},
      {"serve.lat_ms_tail.r3", "ms"},
      {"serve.max_rps_slo", "1/s"},
      {"gen.lag_ms_tail", "ms"},
      {"gen.sent", "count"},
      {"gen.succeeded", "count"},
      {"gen.failed", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return M;
}

void setLayerMetrics(Result &R, const LayerTotals &T, const SpanLog &Log) {
  auto Div = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  R.set("vm.interp.ns_per_instr", Div(T.InterpNs, T.InterpInstrs));
  R.set("vm.interp.instrs", T.InterpInstrs);
  R.set("vm.compiled.ns_per_vcycle", Div(T.CompiledNs, T.CompiledVcycles));
  R.set("vm.compiled.vcycles", T.CompiledVcycles);
  R.set("vm.run.vcycles_per_s", Div(T.RunVcycles, T.RunMs / 1e3));
  R.set("vm.compiles_per_run", Div(T.RunCompiles, T.Runs));
  R.set("jit.us_per_bc.o0", Div(T.JitUs[0], T.JitBc[0]));
  R.set("jit.us_per_bc.o1", Div(T.JitUs[1], T.JitBc[1]));
  R.set("jit.us_per_bc.o2", Div(T.JitUs[2], T.JitBc[2]));
  R.set("jit.compiles", T.JitCompiles);
  R.set("ml.dataset_rows", Div(T.DatasetRows, T.Rebuilds));
  R.set("evolve.run_ms", Div(T.RunMs, T.Runs));
  R.set("evolve.unaccounted_frac",
        T.ReplayedRunMs > 0 ? 1.0 - T.ExplainedMs / T.ReplayedRunMs : 0.0);

  auto [XiclUs, Extracts] = Log.sumUs("xicl.extract");
  R.set("xicl.extract_us", Div(XiclUs, static_cast<double>(Extracts)));
  R.set("xicl.extracts", static_cast<double>(Extracts));
  auto [RebuildUs, Rebuilds] = Log.sumUs("ml.rebuild");
  R.set("ml.rebuild_ms", Div(RebuildUs / 1e3, static_cast<double>(Rebuilds)));
  auto [PredictUs, Predicts] = Log.sumUs("ml.predict");
  R.set("ml.predict_us", Div(PredictUs, static_cast<double>(Predicts)));
}

} // namespace hb
