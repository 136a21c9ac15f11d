//===- bench/bench_ingest.cpp - model-ingestion path costs -----------------------===//
//
// Times the stages a POST /v1/models upload walks for each standard
// model: Prototxt parse, graph build, weight export + WOOTZCK2
// serialize, base64 encode/decode, and the full ModelStore::upload
// (validate -> build -> import -> persist -> register). The interesting
// shape: parse and base64 are noise, the graph build dominates, and the
// strict weight import costs one extra build's worth of copying — so
// upload latency is roughly 2x a cold model build, bounded by the
// store's byte caps rather than by attacker-chosen input.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "src/nn/Serialize.h"
#include "src/serve/ModelStore.h"
#include "src/support/Stopwatch.h"

#include <cstdio>
#include <filesystem>
#include <string>

using namespace wootz;
using namespace wootz::serve;

namespace {

double millis(Stopwatch &Timer) { return Timer.seconds() * 1000.0; }

} // namespace

int main() {
  const std::string Dir = "./wootz_bench_ingest";
  std::filesystem::remove_all(Dir);

  std::printf("%-12s %9s %9s %9s %9s %11s %11s\n", "model", "parse_ms",
              "build_ms", "bundle_kb", "b64_ms", "upload_ms",
              "upload_w_ms");

  for (StandardModel Model : standardModels()) {
    const std::string Text = standardModelPrototxt(Model, 10);

    Stopwatch ParseTimer;
    Result<ModelSpec> Spec = parseModelSpec(Text);
    const double ParseMs = millis(ParseTimer);
    if (!Spec) {
      std::fprintf(stderr, "parse %s: %s\n", standardModelName(Model),
                   Spec.message().c_str());
      return 1;
    }

    Stopwatch BuildTimer;
    Result<BuiltNetwork> Built = buildFullNetwork(*Spec, 7);
    const double BuildMs = millis(BuildTimer);
    if (!Built) {
      std::fprintf(stderr, "build %s: %s\n", standardModelName(Model),
                   Built.message().c_str());
      return 1;
    }

    const std::string Bundle = serializeTensors(
        exportWeights(Built->Network, FullNetworkPrefix));

    Stopwatch Base64Timer;
    Result<std::string> Decoded = base64Decode(base64Encode(Bundle));
    const double Base64Ms = millis(Base64Timer);
    if (!Decoded || *Decoded != Bundle) {
      std::fprintf(stderr, "base64 round trip failed\n");
      return 1;
    }

    // Full upload path, without and with a weight bundle.
    double UploadMs = 0.0, UploadWeightsMs = 0.0;
    for (int WithWeights = 0; WithWeights < 2; ++WithWeights) {
      RunLog Log;
      ModelRegistry Registry(BatcherOptions(), &Log, nullptr);
      ModelStore Store(Dir, ModelStoreOptions(), &Registry, &Log);
      std::map<std::string, std::string> Body = {{"model", Text},
                                                 {"id", "bench"}};
      if (WithWeights)
        Body["weights_b64"] = base64Encode(Bundle);
      Stopwatch UploadTimer;
      const UploadOutcome Out = Store.upload(Body);
      (WithWeights ? UploadWeightsMs : UploadMs) = millis(UploadTimer);
      if (Out.Status != 201) {
        std::fprintf(stderr, "upload %s: %s\n", standardModelName(Model),
                     Out.Error.c_str());
        return 1;
      }
      Registry.stopAll();
      std::filesystem::remove_all(Dir);
    }

    std::printf("%-12s %9.2f %9.2f %9zu %9.2f %11.2f %11.2f\n",
                standardModelName(Model), ParseMs, BuildMs,
                Bundle.size() / 1024, Base64Ms, UploadMs,
                UploadWeightsMs);
  }
  return 0;
}
