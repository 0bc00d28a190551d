//===- hostbench/main.cpp - Host-time benchmark binary --------------------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   hostbench --workload=NAME --seed=N --seconds=S --trace=0|1
///             --golden=DIR --workdir=DIR [--served=PATH] [--perturb-golden]
///   hostbench --record-golden=DIR
///
/// Runs one workload (paper-stream, relaunch, serve-open) for about S
/// seconds and prints two JSON lines: a report line (provenance and the
/// figures behind each metric), then the result line
///   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// With --trace=0 the metrics are the end-to-end ones; with --trace=1 the
/// per-layer ones.  Exits 1 when any output differs from the golden data.
///
/// --record-golden runs the reference interpreter over every input and
/// every recorded stream order, and writes the golden files.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "store/Json.h"
#include "support/BuildInfo.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace evm;
using namespace hb;

#ifndef HOSTBENCH_CXX_FLAGS
#define HOSTBENCH_CXX_FLAGS "unknown"
#endif

namespace {

bool takeValue(const char *Arg, const char *Flag, std::string &Out) {
  size_t N = std::strlen(Flag);
  if (std::strncmp(Arg, Flag, N) != 0 || Arg[N] != '=')
    return false;
  Out = Arg + N + 1;
  return true;
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string renderMetrics(const Result &R, bool Trace) {
  const auto &Names = Trace ? layerMetrics() : endToEndMetrics();
  std::string Out = "{";
  for (size_t I = 0; I != Names.size(); ++I) {
    auto It = R.Metrics.find(Names[I].first);
    double V = It == R.Metrics.end() ? 0.0 : It->second;
    if (I)
      Out += ", ";
    Out += formatString("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                        Names[I].first, num(V).c_str(), Names[I].second);
  }
  return Out + "}";
}

std::string renderReport(const Options &O, const Result &R,
                         const std::string &SourceDigest) {
  const BuildInfo &B = buildInfo();
  std::string Out = formatString(
      "{\"report\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"provenance\": {\"git_sha\": \"%s\", "
      "\"source_digest\": \"%s\", \"compiler\": \"%s %s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"nproc\": %u}, "
      "\"attempted\": %llu, \"failed\": %llu, \"fail_frac\": %s",
      O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
      num(O.Seconds).c_str(), O.Trace ? 1 : 0, B.GitSha.c_str(),
      SourceDigest.c_str(), B.Compiler.c_str(), B.CompilerVersion.c_str(),
      B.BuildType.c_str(), store::jsonEscape(HOSTBENCH_CXX_FLAGS).c_str(),
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(R.Attempted),
      static_cast<unsigned long long>(R.Failed),
      num(R.Attempted ? static_cast<double>(R.Failed) /
                            static_cast<double>(R.Attempted)
                      : 0.0)
          .c_str());
  for (const auto &[Name, Value] : R.Report)
    Out += formatString(", \"%s\": %s", Name.c_str(), num(Value).c_str());
  Out += ", \"errors\": [";
  for (size_t I = 0; I != R.Errors.size(); ++I)
    Out += (I ? ", \"" : "\"") + store::jsonEscape(R.Errors[I]) + "\"";
  return Out + "]}}";
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload=paper-stream|relaunch|serve-open "
               "--seed=N --seconds=S --trace=0|1 --golden=DIR --workdir=DIR "
               "[--served=PATH] [--source-digest=HEX] [--perturb-golden]\n"
               "       hostbench --record-golden=DIR\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  std::string Val, Record, SourceDigest = "unknown";
  for (int I = 1; I != argc; ++I) {
    const char *A = argv[I];
    if (takeValue(A, "--workload", Val))
      O.Workload = Val;
    else if (takeValue(A, "--seed", Val))
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (takeValue(A, "--seconds", Val))
      O.Seconds = std::atof(Val.c_str());
    else if (takeValue(A, "--trace", Val))
      O.Trace = Val == "1";
    else if (takeValue(A, "--golden", Val))
      O.GoldenDir = Val;
    else if (takeValue(A, "--workdir", Val))
      O.WorkDir = Val;
    else if (takeValue(A, "--served", Val))
      O.ServedPath = Val;
    else if (takeValue(A, "--source-digest", Val))
      SourceDigest = Val;
    else if (takeValue(A, "--record-golden", Val))
      Record = Val;
    else if (!std::strcmp(A, "--perturb-golden"))
      O.PerturbGolden = true;
    else
      return usage();
  }
  if (!Record.empty())
    return recordGolden(Record);
  if (O.GoldenDir.empty() || O.WorkDir.empty() || O.Seconds <= 0)
    return usage();

  Golden G;
  std::string Error;
  if (!G.load(O.GoldenDir, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  Result R;
  if (O.Workload == "paper-stream")
    R = runPaperStream(O, G);
  else if (O.Workload == "relaunch")
    R = runRelaunch(O, G);
  else if (O.Workload == "serve-open")
    R = runServeOpen(O, G);
  else
    return usage();

  // A metric the workload set under a name the mode does not list is a bug
  // in the benchmark (it would otherwise read 0 under its listed name).
  const auto &Listed = O.Trace ? layerMetrics() : endToEndMetrics();
  for (const auto &Entry : R.Metrics)
    if (std::none_of(Listed.begin(), Listed.end(), [&](const auto &L) {
          return Entry.first == L.first;
        }))
      R.Errors.push_back("unlisted metric " + Entry.first);

  bool Correct = R.Failed == 0 && R.Errors.empty() && R.Attempted > 0;
  std::printf("%s\n", renderReport(O, R, SourceDigest).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              renderMetrics(R, O.Trace).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
