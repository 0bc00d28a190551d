//===- hostbench/Relaunch.cpp - Every launch is a new VM ------------------===//
//
// Closed loop, one tenant thread.  The short-running analogues (Fop,
// Search, Bloat, Antlr) run streams in turn; a stream owns the store file,
// which starts empty.  Every op is
// one launch with one production run, made of the public calls
// ScenarioRunner::runEvolveLaunches makes per chunk:
//   EvolvableVM() -> loadStoreFile -> warmStart -> runOnce -> loadStoreFile
//   -> checkpoint -> mergeStores -> saveStoreFile
// Warm start restores the whole learned state, so each stream's runs are
// cycle-identical to the same order run in one VM: the golden digests of
// paper-stream apply unchanged.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "store/KnowledgeStore.h"

#include <filesystem>

using namespace evm;

namespace hb {

namespace {

/// What the tenant measured.
struct Tally {
  explicit Tally(Clock::time_point Epoch) : Log(Epoch) {}
  SpanLog Log;
  LayerTotals Totals;
  /// Launch times (ms) of untraced and traced launches.
  std::vector<double> Plain, Traced;
  double StoreBytes = 0, Saves = 0, Corrupt = 0;
};

/// One launch: the op the workload times.
bool launch(const App &Ap, const std::string &StorePath, size_t Input,
            uint64_t Op, bool Tracing, Tally &T,
            evolve::EvolveRunRecord &Rec, double &RunMs) {
  SpanLog *L = Tracing ? &T.Log : nullptr;
  Scoped Launch(L, "launch", Op);
  const int32_t P = Launch.id();
  const wl::InputCase &In = Ap.W.Inputs[Input];
  std::unique_ptr<evolve::EvolvableVM> VM;
  {
    Scoped S(L, "evolve.construct", Op, P);
    VM = Ap.makeVM();
  }
  {
    store::KnowledgeStore Loaded;
    store::StoreReadStats Stats;
    store::LoadStatus St;
    {
      Scoped S(L, "store.load", Op, P);
      St = store::loadStoreFile(StorePath, Loaded, Stats);
    }
    if (St == store::LoadStatus::Loaded && !Stats.clean())
      T.Corrupt += 1;
    Scoped S(L, "evolve.warm_start", Op, P);
    VM->warmStart(Loaded, St == store::LoadStatus::Loaded ? &Stats : nullptr);
  }
  {
    Scoped S(L, "evolve.run", Op, P);
    Clock::time_point T0 = Clock::now();
    auto R = VM->runOnce(In.CommandLine, In.VmArgs);
    RunMs = msSince(T0);
    if (!R)
      return false;
    Rec = R.takeValue();
  }
  store::KnowledgeStore Disk;
  store::StoreReadStats DiskStats;
  {
    Scoped S(L, "store.load", Op, P);
    store::loadStoreFile(StorePath, Disk, DiskStats);
  }
  store::KnowledgeStore Mem;
  {
    Scoped S(L, "evolve.checkpoint", Op, P);
    Mem = VM->checkpoint(Disk.Header.Generation + 1);
  }
  Mem.Header.App = Ap.Name;
  store::KnowledgeStore Merged;
  {
    Scoped S(L, "store.merge", Op, P);
    Merged = store::mergeStores(Disk, Mem);
  }
  bool Saved;
  {
    Scoped S(L, "store.save", Op, P);
    Saved = store::saveStoreFile(StorePath, Merged);
  }
  VM->noteStoreSave(Saved);
  std::error_code EC;
  T.StoreBytes +=
      static_cast<double>(std::filesystem::file_size(StorePath, EC));
  T.Saves += 1;
  return Saved;
}

} // namespace

Result runRelaunch(const Options &O, Golden &G) {
  Result R;
  const std::vector<std::string> Names = {"Fop", "Search", "Bloat", "Antlr"};
  const std::string Dir = O.WorkDir + "/relaunch";

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  std::filesystem::create_directories(Dir);
  std::vector<std::unique_ptr<App>> Apps;
  double SetUpS = medianSetUpS(
      [&] {
        Apps.clear();
        for (const std::string &Name : Names) {
          Apps.push_back(std::make_unique<App>(Name));
          Apps.back()->makeVM();
        }
      },
      15, 0.5);

  if (O.PerturbGolden)
    G.perturbDigest(Apps[0]->Name, pickPerm(O.Seed, 0, 0), 0);

  // One sequence of streams with the apps interleaved; stream S runs app
  // S % apps in the order picked for round S / apps.  New streams start
  // until the time is up, and the stream in hand finishes, so every app
  // completes nearly the same number of streams.  The traced run
  // alternates untraced and traced rounds.
  Checker Check(G);
  Clock::time_point Epoch = Clock::now();
  Tally T(Epoch);
  const std::string StorePath = Dir + "/tenant.store";
  for (size_t S = 0;; ++S) {
    size_t Round = S / Apps.size();
    bool Tracing = O.Trace && Round % 2 == 1;
    size_t MinStreams = Apps.size() * (O.Trace ? 2 : 1);
    if (S >= MinStreams && msSince(Epoch) >= O.Seconds * 1e3)
      break;
    const App &Ap = *Apps[S % Apps.size()];
    size_t Perm = pickPerm(O.Seed, Round, S % Apps.size());
    std::vector<size_t> Order = Ap.order(Perm);
    std::filesystem::remove(StorePath, EC);
    std::unique_ptr<LayerReplay> Replay;
    if (Tracing)
      Replay = std::make_unique<LayerReplay>(Ap, T.Log, Check);
    SplitMix Sample(O.Seed ^ (S << 8));
    for (size_t I = 0; I != Order.size(); ++I) {
      uint64_t Op = S * StreamLength + I;
      evolve::EvolveRunRecord Rec;
      double RunMs = 0;
      ++R.Attempted;
      Clock::time_point T0 = Clock::now();
      bool Ok = launch(Ap, StorePath, Order[I], Op, Tracing, T, Rec, RunMs);
      double Ms = msSince(T0);
      (Tracing ? T.Traced : T.Plain).push_back(Ms);
      if (!Ok) {
        Check.fail(Ap.Name + ": launch failed (run or store save)");
        ++R.Failed;
        continue;
      }
      if (!Check.checkRun(Ap.Name, Perm, I, Order[I], Rec))
        ++R.Failed;
      if (Tracing)
        Replay->replay(Op, Order[I], Rec, RunMs, Sample.below(3) == 0,
                       T.Totals);
      else
        T.Totals.noteRun(Rec, RunMs);
    }
  }
  double WallMs = msSince(Epoch);

  double BusyMs = 0;
  for (double Ms : T.Plain)
    BusyMs += Ms;
  for (double Ms : T.Traced)
    BusyMs += Ms;

  R.Errors = Check.errors();
  Tail Tl = tailOf(T.Plain);
  R.Report["op_ms_tail.pct"] = Tl.Pct;
  R.Report["op_ms_tail.n"] = static_cast<double>(Tl.N);

  if (!O.Trace) {
    R.set("setup_s", SetUpS);
    R.set("ops_per_s", static_cast<double>(T.Plain.size()) / (WallMs / 1e3));
    R.set("op_ms_p50", median(T.Plain));
    R.set("op_ms_tail", Tl.Value);
    R.set("peak_rss_mb", peakRssMb());
    return R;
  }
  setLayerMetrics(R, T.Totals, T.Log);
  writeSpans(R, O, T.Log);
  auto MeanMs = [&](const char *Name) {
    auto [Us, N] = T.Log.sumUs(Name);
    return N ? Us / 1e3 / static_cast<double>(N) : 0.0;
  };
  R.set("evolve.warm_start_ms", MeanMs("evolve.warm_start"));
  R.set("evolve.checkpoint_ms", MeanMs("evolve.checkpoint"));
  R.set("store.load_ms", MeanMs("store.load"));
  R.set("store.merge_ms", MeanMs("store.merge"));
  R.set("store.save_ms", MeanMs("store.save"));
  R.set("store.bytes", T.Saves ? T.StoreBytes / T.Saves : 0.0);
  R.set("store.corrupt", T.Corrupt);
  R.set("harness.busy_frac", BusyMs / WallMs);
  R.set("trace.overhead_frac", median(T.Traced) / median(T.Plain) - 1.0);
  return R;
}

} // namespace hb
