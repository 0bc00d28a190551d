//===- hostbench/Record.cpp - Records the golden reference data -----------===//
//
// golden/returns.txt: the return value of every input of every application
// under the reference interpreter (switch dispatch, no compilation policy).
// golden/streams.txt: the virtual-cycle digest of every run of every
// recorded stream order, under the evolvable VM.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "vm/Engine.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

using namespace evm;

namespace hb {

int recordGolden(const std::string &Dir) {
  // Every engine built from here on adopts the reference interpreter.
  setenv("EVM_DISPATCH", "switch", 1);

  const std::vector<std::string> &Names = wl::workloadNames();
  std::vector<std::string> Returns(Names.size()), Streams(Names.size());
  std::atomic<size_t> Next{0}, Bad{0};
  auto Worker = [&] {
    for (size_t A; (A = Next++) < Names.size();) {
      App Ap(Names[A]);
      harness::ExperimentConfig EC;
      std::ostringstream Ret, Str;
      std::vector<std::string> Ref(Ap.W.Inputs.size());
      for (size_t I = 0; I != Ap.W.Inputs.size(); ++I) {
        vm::ExecutionEngine E(Ap.W.Module, EC.Timing, nullptr);
        auto R = E.run(Ap.W.Inputs[I].VmArgs, EC.MaxCyclesPerRun);
        if (!R) {
          std::fprintf(stderr, "%s input %zu trapped\n", Ap.Name.c_str(), I);
          ++Bad;
          continue;
        }
        Ref[I] = R->ReturnValue.str();
        Ret << Ap.Name << ' ' << I << ' ' << Ref[I] << '\n';
      }
      for (size_t P = 0; P != NumPerms; ++P) {
        std::vector<size_t> Order = Ap.order(P);
        std::unique_ptr<evolve::EvolvableVM> VM = Ap.makeVM();
        for (size_t I = 0; I != Order.size(); ++I) {
          const wl::InputCase &In = Ap.W.Inputs[Order[I]];
          auto Rec = VM->runOnce(In.CommandLine, In.VmArgs);
          if (!Rec || Rec->Result.ReturnValue.str() != Ref[Order[I]]) {
            std::fprintf(stderr, "%s order %zu run %zu disagrees with the "
                                 "reference interpreter\n",
                         Ap.Name.c_str(), P, I);
            ++Bad;
            continue;
          }
          Str << Ap.Name << ' ' << P << ' ' << I << ' ' << std::hex
              << runDigest(*Rec) << std::dec << '\n';
        }
      }
      Returns[A] = Ret.str();
      Streams[A] = Str.str();
    }
  };
  std::vector<std::thread> Pool;
  unsigned N = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (unsigned I = 0; I != N; ++I)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
  if (Bad)
    return 1;

  std::ofstream Ret(Dir + "/returns.txt"), Str(Dir + "/streams.txt");
  Ret << "# app input return-value (reference interpreter)\n";
  Str << "# app order run digest (cycles, used-prediction, predicted "
         "levels)\n";
  for (size_t A = 0; A != Names.size(); ++A) {
    Ret << Returns[A];
    Str << Streams[A];
  }
  return Ret && Str ? 0 : 1;
}

} // namespace hb
