//===- examples/wootz_cli.cpp - file-driven Wootz tool ---------------------------===//
//
// A small command-line front end over the whole framework, driven
// entirely by the four Figure-2 input files:
//
//   wootz_cli [model.prototxt subspace.txt meta.txt objective.txt
//              [outdir [strategy]]]
//
// `strategy` is "fixed" (default: sweep the whole promising subspace),
// "greedy", or "adaptive" — the latter two propose configurations
// round by round from observed results (see DESIGN.md "Exploration
// strategies") and take their rate alphabet from the subspace file.
//
// With no arguments it writes a self-contained sample input set to
// ./wootz_run/inputs and runs on that. Outputs (in outdir, default
// ./wootz_run): report.md, evaluations.csv, the generated Python
// multiplexing model and wrapper scripts, the task-assignment file, and
// the pre-trained tuning block checkpoints.
//
// The `serve` subcommand instead runs the pruning-as-a-service daemon:
//
//   wootz_cli serve [port [root]] [--shard I/N]
//
// which accepts exploration jobs over HTTP (see DESIGN.md "Serving" and
// the README quickstart) and drains gracefully on SIGTERM/SIGINT.
//
// The `weights` subcommand materializes an uploadable weight bundle for
// a Prototxt spec (seeded random initialization):
//
//   wootz_cli weights model.prototxt out.ck [seed]
//
// writing the WOOTZCK2 bundle to out.ck and its base64 to out.ck.b64,
// ready to paste into a POST /v1/models body as "weights_b64".
//
//===----------------------------------------------------------------------===//

#include "src/explore/Report.h"
#include "src/nn/Serialize.h"
#include "src/support/File.h"
#include "src/wootz/wootz.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

using namespace wootz;

namespace {
/// Exits with the error message when a result failed (tool code: fail
/// fast, like ExitOnError).
template <typename T> T orDie(Result<T> Value, const char *What) {
  if (!Value) {
    std::fprintf(stderr, "wootz_cli: %s: %s\n", What,
                 Value.message().c_str());
    std::exit(1);
  }
  return Value.take();
}

void orDie(Error E, const char *What) {
  if (E) {
    std::fprintf(stderr, "wootz_cli: %s: %s\n", What, E.message().c_str());
    std::exit(1);
  }
}

/// Writes the sample input files and returns their paths.
std::vector<std::string> writeSampleInputs(const std::string &Directory) {
  const std::string ModelPath = Directory + "/model.prototxt";
  const std::string SubspacePath = Directory + "/subspace.txt";
  const std::string MetaPath = Directory + "/meta.txt";
  const std::string ObjectivePath = Directory + "/objective.txt";
  orDie(writeFile(ModelPath, standardModelPrototxt(StandardModel::ResNetA,
                                                   14)),
        "writing sample model");
  Rng Generator(2718);
  orDie(writeFile(SubspacePath,
                  "# promising subspace (Figure 3a format)\n" +
                      printSubspaceSpec(sampleSubspace(
                          4, 10, standardRates(), Generator)) +
                      "\n"),
        "writing sample subspace");
  TrainMeta Meta;
  Meta.FullModelSteps = 600;
  Meta.FinetuneSteps = 50;
  Meta.EvalEvery = 10;
  Meta.EarlyStopPatience = 2;
  Meta.Nodes = 4;
  orDie(writeFile(MetaPath, printTrainMeta(Meta)), "writing sample meta");
  orDie(writeFile(ObjectivePath,
                  "# pruning objective (Figure 3b format)\n"
                  "min ModelSize\nconstraint Accuracy >= 0.78\n"),
        "writing sample objective");
  return {ModelPath, SubspacePath, MetaPath, ObjectivePath};
}

/// Set by the signal handler; the serve loop polls it.
std::atomic<int> PendingSignal{0};
void onShutdownSignal(int Signal) { PendingSignal.store(Signal); }

/// Exits 1 with \p Why and the serve usage line: a malformed serve
/// argument is never guessed at.
[[noreturn]] void serveUsageError(const std::string &Why) {
  std::fprintf(stderr,
               "serve: %s\nusage: wootz_cli serve [port [root]] "
               "[--shard I/N]\n",
               Why.c_str());
  std::exit(1);
}

/// `wootz_cli serve [port [root]] [--shard I/N]`: run the daemon until
/// SIGTERM/SIGINT, then drain gracefully (finish in-flight requests and
/// every accepted job before exiting).
///
/// The root (default ./wootz_serve) holds every piece of daemon state:
/// uploaded models, block cache, job queue and per-job artifacts. A
/// daemon restarted on its root lists its earlier jobs and resumes the
/// unfinished ones, and every daemon given the same root shares that
/// state: a job submitted to any of them can execute on any of them,
/// and tuning blocks trained by one warm the others. --shard I/N
/// (1-based I) gives the process the stable identity "shard-I-of-N" so
/// rendezvous placement survives restarts; without it the identity is
/// derived from the pid.
int runServe(int ArgCount, char **Args) {
  int Port = 8080;
  std::string Root = "wootz_serve";
  std::string ProcessName;
  std::vector<std::string> Positional;
  for (int I = 2; I < ArgCount; ++I) {
    const std::string Arg = Args[I];
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    if (Arg != "--shard")
      serveUsageError("unknown option '" + Arg + "'");
    if (I + 1 >= ArgCount)
      serveUsageError("--shard wants a value");
    const std::string Spec = Args[++I];
    const size_t Slash = Spec.find('/');
    Result<long long> Index = parseInteger(Spec.substr(0, Slash));
    Result<long long> Total = parseInteger(
        Slash == std::string::npos ? "" : Spec.substr(Slash + 1));
    if (!Index || !Total || *Index < 1 || *Total < 1 || *Index > *Total)
      serveUsageError("--shard wants I/N with 1 <= I <= N (got '" + Spec +
                      "')");
    ProcessName = "shard-" + std::to_string(*Index) + "-of-" +
                  std::to_string(*Total);
  }
  if (Positional.size() > 2)
    serveUsageError("unexpected argument '" + Positional[2] + "'");
  if (Positional.size() >= 1)
    Port = static_cast<int>(
        orDie(parseInteger(Positional[0]), "parsing the port"));
  if (Positional.size() >= 2)
    Root = Positional[1];

  serve::ServerOptions Options;
  Options.Http.Port = Port;
  Options.Artifacts.Root = Root;
  Options.Artifacts.ProcessName = ProcessName;

  serve::WootzServer Server(Options);
  orDie(Server.start(), "starting the server");
  std::signal(SIGTERM, onShutdownSignal);
  std::signal(SIGINT, onShutdownSignal);

  std::printf("wootz serve: listening on http://127.0.0.1:%d "
              "(process '%s', state under %s/)\n",
              Server.port(), Server.artifacts().processName().c_str(),
              Root.c_str());
  std::printf("  POST /v1/jobs, GET /v1/jobs/<id>, POST /v1/models, "
              "POST /v1/models/<id>/predict, GET /metrics\n");
  std::printf("  SIGTERM/Ctrl-C drains: accepted jobs finish first\n");

  while (PendingSignal.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::printf("wootz serve: signal %d; draining (%zu queued, %zu "
              "running jobs)...\n",
              PendingSignal.load(), Server.jobs().queuedCount(),
              Server.jobs().runningCount());
  Server.drain();
  std::printf("wootz serve: drained; every accepted job finished\n");
  return 0;
}

/// `wootz_cli weights model.prototxt out.ck [seed]`: builds the network
/// and writes its (seeded random) weights as an uploadable bundle.
int runWeights(int ArgCount, char **Args) {
  if (ArgCount < 4) {
    std::fprintf(stderr,
                 "usage: wootz_cli weights model.prototxt out.ck [seed]\n");
    return 1;
  }
  const std::string OutPath = Args[3];
  uint64_t Seed = 7;
  if (ArgCount >= 5)
    Seed = static_cast<uint64_t>(
        orDie(parseInteger(Args[4]), "parsing the seed"));

  const ModelSpec Spec = orDie(
      parseModelSpec(orDie(readFile(Args[2]), "reading model")),
      "parsing model");
  BuiltNetwork Built =
      orDie(buildFullNetwork(Spec, Seed), "building the network");
  const std::string Bytes = serializeTensors(
      exportWeights(Built.Network, FullNetworkPrefix));
  orDie(writeFile(OutPath, Bytes), "writing the bundle");
  orDie(writeFile(OutPath + ".b64", base64Encode(Bytes) + "\n"),
        "writing the base64 bundle");
  std::printf("weights: %zu-byte bundle for %s (%d classes, seed %llu) "
              "-> %s and %s.b64\n",
              Bytes.size(), Spec.Name.c_str(), Built.Classes,
              static_cast<unsigned long long>(Seed), OutPath.c_str(),
              OutPath.c_str());
  return 0;
}
} // namespace

int main(int ArgCount, char **Args) {
  if (ArgCount >= 2 && std::strcmp(Args[1], "serve") == 0)
    return runServe(ArgCount, Args);
  if (ArgCount >= 2 && std::strcmp(Args[1], "weights") == 0)
    return runWeights(ArgCount, Args);

  std::string OutDir = "wootz_run";
  StrategyKind Strategy = StrategyKind::Fixed;
  std::vector<std::string> Inputs;
  if (ArgCount >= 5) {
    Inputs = {Args[1], Args[2], Args[3], Args[4]};
    if (ArgCount >= 6)
      OutDir = Args[5];
    if (ArgCount >= 7)
      Strategy = orDie(parseStrategyKind(Args[6]), "parsing strategy");
  } else {
    std::printf("no input files given; writing samples under %s/inputs\n",
                OutDir.c_str());
    Inputs = writeSampleInputs(OutDir + "/inputs");
  }

  // Parse the four inputs.
  const ModelSpec Spec = orDie(
      parseModelSpec(orDie(readFile(Inputs[0]), "reading model")),
      "parsing model");
  const std::vector<PruneConfig> Subspace = orDie(
      parseSubspaceSpec(orDie(readFile(Inputs[1]), "reading subspace")),
      "parsing subspace");
  const TrainMeta Meta = orDie(
      parseTrainMeta(orDie(readFile(Inputs[2]), "reading meta")),
      "parsing meta");
  const std::string ObjectiveText =
      orDie(readFile(Inputs[3]), "reading objective");
  const PruningObjective Objective =
      orDie(parseObjective(ObjectiveText), "parsing objective");

  std::printf("model %s: %d modules, %zu layers\n", Spec.Name.c_str(),
              Spec.moduleCount(), Spec.Layers.size());
  std::printf("subspace: %zu configurations; objective:\n%s",
              Subspace.size(), printObjective(Objective).c_str());

  // The dataset: the CUB200 analogue sized to the model's class count.
  const Dataset Data = generateSynthetic([&] {
    SyntheticSpec DataSpec = standardDatasetSpecs(0.5)[1];
    DataSpec.Classes = Spec.Layers.back().NumOutput;
    return DataSpec;
  }());

  // Emit the compiler artifacts.
  orDie(writeFile(OutDir + "/generated/" + pythonIdentifier(Spec.Name) +
                      ".py",
                  emitMultiplexingScript(Spec)),
        "writing multiplexing model");
  orDie(writeFile(OutDir + "/generated/pretrain_wrapper.py",
                  emitPretrainWrapper(Spec, Meta)),
        "writing pretrain wrapper");
  orDie(writeFile(OutDir + "/generated/explore_wrapper.py",
                  emitExplorationWrapper(Spec, Meta, ObjectiveText)),
        "writing exploration wrapper");
  orDie(writeFile(OutDir + "/generated/task_assignment.txt",
                  taskAssignmentFile(static_cast<int>(Subspace.size()),
                                     Meta.Nodes)),
        "writing task assignment");

  // Run composability-based pruning.
  PipelineOptions Options;
  Options.UseComposability = true;
  Options.UseIdentifier = true;
  Options.CacheDir = OutDir + "/cache";
  // Tuning blocks persist next to the full-model cache, so re-running
  // the CLI on the same spec resumes instead of re-pre-training: blocks
  // already on disk are fetched (and a crashed run's partial progress is
  // kept — entries are written atomically as each group finishes).
  Options.BlockCacheConfig.Directory = OutDir + "/block_cache";
  Rng Generator(Meta.Seed);

  // Every strategy runs through the exploration driver in the
  // objective's order; "fixed" sweeps the whole subspace in one round,
  // the others propose round by round with the subspace's rate alphabet.
  StrategyKnobs Knobs;
  Knobs.Rates = subspaceRateAlphabet(Subspace);
  std::unique_ptr<ExplorationStrategy> Explorer =
      orDie(makeStrategy(Strategy, Spec, Subspace, Objective, Knobs),
            "building the strategy");
  Options.CancelObjective = &Objective;
  const StrategyRunResult Search =
      orDie(runStrategyExploration(Spec, Data, *Explorer, Meta, Options,
                                   Objective, Generator),
            "running the exploration");
  const PipelineResult &Run = Search.Run;

  orDie(writeFile(OutDir + "/evaluations.csv", renderEvaluationsCsv(Run)),
        "writing evaluations CSV");
  orDie(writeFile(OutDir + "/report.md",
                  renderRunReport(Run, Objective, Meta.Nodes)),
        "writing report");

  std::printf("\nstrategy %s: %d proposals over %d rounds, %d tuning "
              "block reuses\n",
              strategyKindName(Strategy), Search.Proposals, Search.Rounds,
              Search.BlocksReused);
  if (Search.WinnerIndex >= 0) {
    const EvaluatedConfig &Winner = Run.Evaluations[Search.WinnerIndex];
    std::printf("winner %s: size %.1f%%, accuracy %.3f\n",
                formatConfig(Winner.Config).c_str(),
                100.0 * Winner.SizeFraction, Winner.FinalAccuracy);
  } else {
    std::printf("no configuration met the objective\n");
  }
  std::printf("block cache: %lld hits, %lld misses (rerun to resume "
              "pre-training from %s/block_cache)\n",
              static_cast<long long>(Run.Telemetry.counter("cache.hit")),
              static_cast<long long>(Run.Telemetry.counter("cache.miss")),
              OutDir.c_str());
  std::printf("outputs written under %s/\n", OutDir.c_str());
  return 0;
}
