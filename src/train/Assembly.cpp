//===- train/Assembly.cpp -------------------------------------------------------===//

#include "src/train/Assembly.h"

#include "src/pruning/Transfer.h"

using namespace wootz;

Result<AssembledNetwork> wootz::buildPrunedNetwork(
    const MultiplexingModel &Model, const PruneConfig &Config,
    Graph &FullTrained, const std::string &FullPrefix,
    const CheckpointStore *Store,
    const std::vector<TuningBlock> *CompositeBlocks, Rng &Generator,
    const FilterScores *Scores) {
  const ModelSpec &Spec = Model.spec();
  AssembledNetwork Out;
  PruneInfo Info;
  Info.Config = Config;
  Result<BuildResult> Built = Model.build(Out.Network, BuildMode::FineTune,
                                          Info, "net", Generator);
  if (!Built)
    return Built.takeError();
  Out.InputNode = Built->InputNode;
  Out.LogitsNode = Built->LogitsNode;

  // Baseline initialization: inherit the most important filters.
  const FilterSelections Selections =
      Scores ? selectionsFromScores(Spec, Config, *Scores)
             : selectFiltersByL1(Spec, Config, FullTrained, FullPrefix);
  transferWeights(Spec, Selections, FullTrained, FullPrefix, Out.Network,
                  "net");

  if (!Store || !CompositeBlocks)
    return Out;

  // Overlay the pre-trained tuning blocks listed in the composite
  // vector. Identity blocks carry no checkpoint: the inherited weights
  // already equal the full model's at unpruned modules.
  for (const TuningBlock &Block : *CompositeBlocks) {
    assert(Block.matchesConfigAt(Config) &&
           "composite vector block does not match the configuration");
    if (Block.isIdentity())
      continue;
    if (Error E = Store->restore(Block.id(), Out.Network, "net"))
      return E;
    Out.BlocksUsed.push_back(Block.id());
  }
  return Out;
}
