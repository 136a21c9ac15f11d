//===- wootz/wootz.h - Public facade ------------------------------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Umbrella header for the Wootz library. Downstream users normally need
/// only this include; see README.md for a quickstart and examples/ for
/// runnable programs.
///
/// The typical flow mirrors the paper's Figure 2:
///   1. parseModelSpec() a Prototxt model (or build one via models/).
///   2. parseSubspaceSpec() / sampleSubspace() the promising subspace.
///   3. parseTrainMeta() the solver-style meta data and parseObjective()
///      the pruning objective.
///   4. runPruningPipeline() with UseComposability on or off (or
///      makeStrategy() + runStrategyExploration() for the on-the-fly
///      strategies), then summarizeExploration() to pick the best
///      network. Evaluations are listed in exploration order, which is
///      the order every WinnerIndex counts in.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_WOOTZ_H
#define WOOTZ_WOOTZ_H

#include "src/compiler/Codegen.h"
#include "src/compiler/GraphBuilder.h"
#include "src/compiler/Multiplexing.h"
#include "src/compiler/NetsFactory.h"
#include "src/compiler/Solver.h"
#include "src/data/Synthetic.h"
#include "src/explore/Pipeline.h"
#include "src/explore/Report.h"
#include "src/explore/strategy/Driver.h"
#include "src/explore/strategy/Strategy.h"
#include "src/identifier/Identifier.h"
#include "src/identifier/Optimal.h"
#include "src/models/MiniModels.h"
#include "src/plan/Plan.h"
#include "src/pruning/Importance.h"
#include "src/pruning/PruneConfig.h"
#include "src/pruning/Transfer.h"
#include "src/runtime/RunLog.h"
#include "src/runtime/TaskGraph.h"
#include "src/sequitur/Sequitur.h"
#include "src/serve/Server.h"
#include "src/support/StringUtils.h"
#include "src/support/Table.h"
#include "src/tensor/Kernels.h"
#include "src/train/BlockCache.h"
#include "src/train/Trainer.h"

#endif // WOOTZ_WOOTZ_H
