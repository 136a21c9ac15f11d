//===- perfbench/driver/Main.cpp - Benchmark driver entry point -------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   wootz_perfbench --cli PATH --workdir DIR --workload NAME --seed N
///                   --seconds S --trace 0|1
///
/// Runs one workload (prune_cold, prune_warm or predict) against the
/// daemon binary at PATH, with scratch state under DIR, and prints the
/// result object as the last line of standard output. Exits non-zero
/// when an output check fails or the run cannot complete. Normally run
/// through perfbench/run.py, which builds both binaries first.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstring>
#include <filesystem>

using namespace perfbench;

int main(int ArgCount, char **Args) {
  RunOptions Options;
  for (int I = 1; I + 1 < ArgCount; I += 2) {
    const std::string Key = Args[I], Value = Args[I + 1];
    if (Key == "--workload")
      Options.Workload = Value;
    else if (Key == "--seed")
      Options.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      Options.Seconds = std::atof(Value.c_str());
    else if (Key == "--trace")
      Options.Trace = Value == "1";
    else if (Key == "--cli")
      Options.Cli = Value;
    else if (Key == "--workdir")
      Options.WorkDir = Value;
    else {
      std::fprintf(stderr, "wootz_perfbench: unknown option %s\n",
                   Key.c_str());
      return 2;
    }
  }
  if (Options.Cli.empty() || Options.WorkDir.empty() ||
      Options.Seconds <= 0) {
    std::fprintf(stderr, "usage: wootz_perfbench --cli PATH --workdir DIR "
                         "--workload NAME --seed N --seconds S "
                         "--trace 0|1\n");
    return 2;
  }
  std::error_code Ignored;
  std::filesystem::create_directories(Options.WorkDir, Ignored);

  Report R(Options.Trace);
  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n",
              Options.Workload.c_str(),
              static_cast<unsigned long long>(Options.Seed), Options.Seconds,
              Options.Trace ? 1 : 0);
  std::fflush(stdout);
  wootz::Error E = wootz::Error::success();
  if (Options.Workload == "prune_cold")
    E = runPrune(Options, /*Warm=*/false, R);
  else if (Options.Workload == "prune_warm")
    E = runPrune(Options, /*Warm=*/true, R);
  else if (Options.Workload == "predict")
    E = runPredict(Options, R);
  else
    E = wootz::Error::failure("unknown workload '" + Options.Workload +
                              "' (prune_cold, prune_warm, predict)");
  if (E) {
    std::fprintf(stderr, "wootz_perfbench: %s\n", E.message().c_str());
    return 1;
  }

  R.printSummary();
  const std::string Details = Options.WorkDir + "/" + Options.Workload +
                              "-" + std::to_string(Options.Seed) +
                              (Options.Trace ? "-trace" : "") + ".json";
  if (wootz::Error W = wootz::writeFileAtomic(Details, R.detailsJson(Options)))
    std::fprintf(stderr, "wootz_perfbench: %s\n", W.message().c_str());
  std::printf("%s\n", R.resultLine().c_str());
  return R.correct() ? 0 : 1;
}
