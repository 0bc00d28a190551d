//===- hostbench/PaperStream.cpp - The paper's own setting ----------------===//
//
// Closed loop on one thread.  Each round gives every one of the 11 paper
// analogues a fresh, storeless EvolvableVM and runs one seeded stream of
// production runs through runOnce; one op is one production run.  Rounds
// repeat until the time is up, so every round has the same input mix.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

using namespace evm;

namespace hb {

Result runPaperStream(const Options &O, Golden &G) {
  Result R;

  // Set-up: build every application and construct its VM (the engine
  // decodes the module at construction).  Repeated; the median is reported.
  std::vector<std::unique_ptr<App>> Apps;
  double SetUpS = medianSetUpS(
      [&] {
        Apps.clear();
        for (const std::string &Name : wl::workloadNames()) {
          Apps.push_back(std::make_unique<App>(Name));
          Apps.back()->makeVM();
        }
      },
      15, 0.5);

  if (O.PerturbGolden)
    G.perturbDigest(Apps[0]->Name, pickPerm(O.Seed, 0, 0), 0);

  Checker Check(G);
  Clock::time_point Epoch = Clock::now();
  SpanLog Log(Epoch);
  LayerTotals Totals;
  SplitMix Sample(O.Seed ^ 0x5eedULL);
  std::vector<double> Plain, Traced; // op latencies by round kind
  size_t PlainRounds = 0, Predicted = 0;
  double PlainWallMs = 0, PlainBusyMs = 0;
  uint64_t Op = 0;

  for (size_t Round = 0;; ++Round) {
    size_t MinRounds = O.Trace ? 2 : 1;
    if (Round >= MinRounds && msSince(Epoch) >= O.Seconds * 1e3)
      break;
    // The traced run alternates untraced and traced rounds, so one run
    // yields both sides of the tracing overhead.
    bool Tracing = O.Trace && Round % 2 == 1;
    std::vector<double> Lat;
    Clock::time_point RoundStart = Clock::now();
    for (size_t A = 0; A != Apps.size(); ++A) {
      const App &Ap = *Apps[A];
      size_t Perm = pickPerm(O.Seed, Round, A);
      std::vector<size_t> Order = Ap.order(Perm);
      std::unique_ptr<evolve::EvolvableVM> VM = Ap.makeVM();
      std::unique_ptr<LayerReplay> Replay;
      if (Tracing)
        Replay = std::make_unique<LayerReplay>(Ap, Log, Check);
      for (size_t I = 0; I != Order.size(); ++I, ++Op) {
        const wl::InputCase &In = Ap.W.Inputs[Order[I]];
        ++R.Attempted;
        int32_t S = Tracing ? Log.begin("evolve.run", Op) : -1;
        Clock::time_point T0 = Clock::now();
        auto Rec = VM->runOnce(In.CommandLine, In.VmArgs);
        double Ms = msSince(T0);
        if (S >= 0)
          Log.end(S);
        Lat.push_back(Ms);
        if (!Rec) {
          Check.fail(Ap.Name + ": runOnce failed: " +
                     Rec.getError().message());
          ++R.Failed;
          continue;
        }
        if (!Check.checkRun(Ap.Name, Perm, I, Order[I], *Rec))
          ++R.Failed;
        Predicted += Rec->UsedPrediction;
        if (Tracing)
          Replay->replay(Op, Order[I], *Rec, Ms, Sample.below(3) == 0, Totals);
        else
          Totals.noteRun(*Rec, Ms);
      }
    }
    if (Tracing) {
      Traced.insert(Traced.end(), Lat.begin(), Lat.end());
      continue;
    }
    PlainWallMs += msSince(RoundStart);
    for (double L : Lat)
      PlainBusyMs += L;
    ++PlainRounds;
    Plain.insert(Plain.end(), Lat.begin(), Lat.end());
  }

  R.Errors = Check.errors();
  Tail T = tailOf(Plain);
  R.Report["rounds"] = static_cast<double>(PlainRounds);
  R.Report["predicted_frac"] =
      static_cast<double>(Predicted) / static_cast<double>(R.Attempted);
  R.Report["op_ms_tail.pct"] = T.Pct;
  R.Report["op_ms_tail.n"] = static_cast<double>(T.N);

  if (!O.Trace) {
    R.set("setup_s", SetUpS);
    R.set("ops_per_s", static_cast<double>(Plain.size()) / (PlainWallMs / 1e3));
    R.set("op_ms_p50", median(Plain));
    R.set("op_ms_tail", T.Value);
    R.set("peak_rss_mb", peakRssMb());
    return R;
  }
  setLayerMetrics(R, Totals, Log);
  writeSpans(R, O, Log);
  R.set("harness.busy_frac", PlainBusyMs / PlainWallMs);
  R.set("trace.overhead_frac", median(Traced) / median(Plain) - 1.0);
  return R;
}

} // namespace hb
