//===- train/ModelZoo.cpp -------------------------------------------------------===//

#include "src/train/ModelZoo.h"

#include "src/compiler/GraphBuilder.h"
#include "src/support/Hash.h"
#include "src/train/BlockCache.h"

#include <cmath>

using namespace wootz;

namespace {

/// The teacher entry's key for the generator state. It has no "/s<K>"
/// suffix, so it can never name a weight.
constexpr const char *GeneratorEntry = "generator";

/// Fingerprints the dataset contents, so that regenerated or retuned
/// datasets never reuse a stale teacher.
uint64_t fingerprintDataset(const Dataset &Data) {
  Fnv1a Print;
  Print.mix(Data.Name)
      .mix(static_cast<uint64_t>(Data.Train.Images.size()))
      .mix(Data.Classes);
  const size_t Stride = Data.Train.Images.size() / 64 + 1;
  for (size_t I = 0; I < Data.Train.Images.size(); I += Stride)
    Print.mix(Data.Train.Images[I]);
  return Print.digest();
}

/// The generator's state words split into 16-bit pieces, which float32
/// holds exactly.
Tensor encodeGenerator(const Rng &Generator) {
  std::vector<float> Pieces;
  for (uint64_t Word : Generator.saveState())
    for (int Shift = 0; Shift < 64; Shift += 16)
      Pieces.push_back(static_cast<float>((Word >> Shift) & 0xffff));
  return Tensor(Shape{static_cast<int>(Pieces.size())}, Pieces);
}

/// Restores what encodeGenerator() wrote into \p Generator. Returns false,
/// leaving \p Generator untouched, if \p Pieces is not a valid capture.
bool decodeGenerator(const Tensor &Pieces, Rng &Generator) {
  if (Pieces.shape().rank() != 1 || Pieces.size() % 4 != 0)
    return false;
  std::vector<uint64_t> Words(Pieces.size() / 4, 0);
  for (size_t I = 0; I < Pieces.size(); ++I) {
    const float Piece = Pieces[I];
    if (!(Piece >= 0.0f && Piece <= 65535.0f) || Piece != std::floor(Piece))
      return false;
    Words[I / 4] |= static_cast<uint64_t>(Piece) << (16 * (I % 4));
  }
  return Generator.restoreState(Words);
}

} // namespace

Result<FullModel> wootz::prepareFullModel(const MultiplexingModel &Model,
                                          const Dataset &Data,
                                          const TrainMeta &Meta,
                                          const std::string &CacheDir,
                                          Rng &Generator) {
  FullModel Out;
  PruneInfo Info;
  Result<BuildResult> Built = Model.build(Out.Network, BuildMode::FullModel,
                                          Info, "full", Generator);
  if (!Built)
    return Built.takeError();
  Out.InputNode = Built->InputNode;
  Out.LogitsNode = Built->LogitsNode;

  // The teacher is one block-cache entry, addressed by everything its
  // training reads except the generator seed (benches share a teacher
  // across seeds). The cache has no RunLog: a teacher lookup is not a
  // block hit or miss.
  CacheConfig Config;
  Config.Directory = CacheDir;
  BlockCache Teachers(std::move(Config));
  const std::string Key = Model.spec().Name;
  if (Teachers.enabled()) {
    Teachers.bindContext(Fnv1a()
                             .mix(printModelSpec(Model.spec()))
                             .mix(fingerprintDataset(Data))
                             .digest(),
                         BlockCache::hashTeacherMeta(Meta));
    // The entry holds the weights and the generator state as it stood
    // right after training; restoring it keeps everything seeded
    // downstream identical to the cold run. Both are checked before
    // either is written, so a rejected entry (quarantined, then
    // retrained) leaves the network and the stream as a cold run has
    // them.
    const bool Hit = Teachers.fetchEntry(Key, [&](TensorBundle &Entry) {
      auto State = Entry.extract(GeneratorEntry);
      Rng Restored = Generator;
      if (State.empty() || !decodeGenerator(State.mapped(), Restored) ||
          importWeights(Out.Network, "full", Entry))
        return false;
      Generator = Restored;
      return true;
    });
    if (Hit) {
      Out.Accuracy =
          evaluateAccuracy(Out.Network, Out.InputNode, Out.LogitsNode,
                           Data.Test, 64, Meta.EvalThreads);
      Out.FromCache = true;
      return Out;
    }
  }

  // The full model is trained to convergence (no early stopping): it is
  // the teacher and the accuracy reference for every threshold.
  TrainMeta FullMeta = Meta;
  FullMeta.EarlyStopPatience = 0;
  const TrainResult Trained = trainClassifier(
      Out.Network, Out.InputNode, Out.LogitsNode, Data, FullMeta,
      Meta.FullModelSteps, Meta.FullModelLearningRate, Generator);
  Out.TrainSeconds = Trained.Seconds;
  // Report the accuracy of the *final* weights (what a cache reload
  // would measure), not the best point along the curve.
  Out.Accuracy = evaluateAccuracy(Out.Network, Out.InputNode,
                                  Out.LogitsNode, Data.Test, 64,
                                  Meta.EvalThreads);

  if (Teachers.enabled()) {
    TensorBundle Entry = exportWeights(Out.Network, "full");
    Entry.emplace(GeneratorEntry, encodeGenerator(Generator));
    // A failed cache write is not fatal; the model is already trained.
    if (Error E = Teachers.publishEntry(Key, Entry))
      (void)static_cast<bool>(E);
  }
  return Out;
}
