//===- train/Pretrainer.cpp -----------------------------------------------------===//

#include "src/train/Pretrainer.h"

#include "src/nn/Loss.h"
#include "src/nn/Optimizer.h"
#include "src/pruning/Transfer.h"
#include "src/support/Hash.h"
#include "src/support/Stopwatch.h"

using namespace wootz;

uint64_t wootz::pretrainGroupSeed(uint64_t BaseSeed,
                                  const std::vector<TuningBlock> &Group) {
  Fnv1a Digest;
  Digest.mix(BaseSeed);
  for (const TuningBlock &Block : Group)
    Digest.mix(Block.id());
  return Digest.digest();
}

Result<GroupPretrainStats> wootz::pretrainGroup(
    const MultiplexingModel &Model, Graph &FullTrained,
    const std::string &FullPrefix, const std::vector<TuningBlock> &Group,
    const Dataset &Data, const TrainMeta &Meta, CheckpointStore &Store,
    Rng &Generator, const FilterScores *Scores, BlockCache *Cache) {
  const ModelSpec &Spec = Model.spec();
  Stopwatch GroupTimer;
  GroupPretrainStats Stats;

  Graph Network;
  PruneInfo Info;
  Info.Blocks = Group;
  Result<BuildResult> Built =
      Model.build(Network, BuildMode::PreTrain, Info, "full", Generator);
  if (!Built)
    return Built.takeError();

  // Teacher weights come from the trained full model; each student
  // starts from its l1-inherited slice of the teacher.
  transferWeights(Spec, FilterSelections(), FullTrained, FullPrefix,
                  Network, "full");
  for (const BlockPort &Port : Built->Ports) {
    PruneConfig BlockConfig = unprunedConfig(Spec);
    for (int M = 0; M < Port.Block.moduleCount(); ++M)
      BlockConfig[Port.Block.FirstModule + M] = Port.Block.Rates[M];
    const FilterSelections Selections =
        Scores ? selectionsFromScores(Spec, BlockConfig, *Scores)
               : selectFiltersByL1(Spec, BlockConfig, FullTrained,
                                   FullPrefix);
    transferWeights(Spec, Selections, FullTrained, FullPrefix, Network,
                    Port.Prefix, &Port.Layers);
  }

  BatchSampler Sampler(Data.Train, Meta.BatchSize, Generator.fork());
  SgdOptimizer Optimizer(Meta.PretrainLearningRate, Meta.Momentum,
                         Meta.WeightDecay);
  const std::vector<Param *> Params = Network.trainableParams();
  // One context carries the shared teacher forward plus every student's
  // pass, and its move-in input path avoids copying the batch each step.
  ExecContext Ctx(Network);
  Tensor GradOut;

  for (int Step = 1; Step <= Meta.PretrainSteps; ++Step) {
    Batch Mini = Sampler.next();
    Ctx.setInput(Built->InputNode, std::move(Mini.Images));
    Ctx.forward(Network, /*Training=*/true);
    Network.zeroGrads();
    double StepLoss = 0.0;
    for (const BlockPort &Port : Built->Ports) {
      StepLoss += l2Reconstruction(Ctx.activation(Port.StudentOut),
                                   Ctx.activation(Port.TeacherOut),
                                   GradOut);
      Ctx.seedGradient(Port.StudentOut, GradOut);
    }
    Ctx.backward(Network);
    Optimizer.step(Params);
    StepLoss /= static_cast<double>(Built->Ports.size());
    if (Step == 1)
      Stats.FirstLoss = StepLoss;
    if (Step == Meta.PretrainSteps)
      Stats.LastLoss = StepLoss;
  }

  for (const BlockPort &Port : Built->Ports) {
    Store.capture(Port.Block.id(), Network, Port.Prefix, Port.Layers);
    if (Cache) {
      // Cache publication failing (disk full, read-only mount) must not
      // fail the training run: the block is safely in the store.
      Error E = Cache->publish(Port.Block.id(), Store);
      (void)static_cast<bool>(E);
    }
  }
  Stats.Seconds = GroupTimer.seconds();
  return Stats;
}

PendingGroups wootz::pendingBlockGroups(const std::vector<TuningBlock> &Blocks,
                                       CheckpointStore &Store,
                                       BlockCache *Cache, uint64_t BaseSeed) {
  std::vector<TuningBlock> Pending;
  for (const TuningBlock &Block : Blocks) {
    if (Block.isIdentity() || Store.contains(Block.id()))
      continue;
    if (Cache && Cache->fetch(Block.id(), Store))
      continue;
    Pending.push_back(Block);
  }
  PendingGroups Out;
  Out.BlockCount = static_cast<int>(Pending.size());
  Out.Groups = partitionIntoGroups(std::move(Pending));
  for (const std::vector<TuningBlock> &Group : Out.Groups)
    Out.Seeds.push_back(pretrainGroupSeed(BaseSeed, Group));
  return Out;
}
