//===- explore/Report.h - Pipeline result reporting -------------------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a PipelineResult for humans and downstream tooling: a CSV of
/// every evaluated configuration (one row per network, suitable for
/// plotting Figures 6/7-style charts) and a markdown report summarizing
/// the run and the exploration outcome under an objective.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_EXPLORE_REPORT_H
#define WOOTZ_EXPLORE_REPORT_H

#include "src/explore/Pipeline.h"

#include <string>

namespace wootz {

/// CSV with header
/// `config,weights,size_fraction,init_accuracy,final_accuracy,
///  steps_to_best,train_seconds,blocks_used`;
/// one row per evaluated configuration in exploration order.
std::string renderEvaluationsCsv(const PipelineResult &Run);

/// Markdown report: run header (full model, pre-training stats), the
/// winner under \p Objective (bestEvaluation()) with the cost of walking
/// the evaluations in order on \p Nodes machines until the objective is
/// first met (summarizeExploration()), and the evaluation table in
/// exploration order.
std::string renderRunReport(const PipelineResult &Run,
                            const PruningObjective &Objective, int Nodes);

} // namespace wootz

#endif // WOOTZ_EXPLORE_REPORT_H
