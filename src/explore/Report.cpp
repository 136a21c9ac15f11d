//===- explore/Report.cpp -----------------------------------------------------===//

#include "src/explore/Report.h"

#include "src/support/StringUtils.h"
#include "src/support/Table.h"

using namespace wootz;

/// CSV-quotes a cell (the config column contains commas).
static std::string csvQuote(const std::string &Cell) {
  std::string Out = "\"";
  for (char C : Cell) {
    if (C == '"')
      Out += '"';
    Out += C;
  }
  return Out + "\"";
}

std::string wootz::renderEvaluationsCsv(const PipelineResult &Run) {
  std::string Out = "config,weights,size_fraction,init_accuracy,"
                    "final_accuracy,steps_to_best,train_seconds,"
                    "blocks_used,cancelled\n";
  for (const EvaluatedConfig &E : Run.Evaluations) {
    Out += csvQuote(formatConfig(E.Config)) + ",";
    Out += std::to_string(E.WeightCount) + ",";
    Out += formatDouble(E.SizeFraction, 4) + ",";
    Out += formatDouble(E.InitAccuracy, 4) + ",";
    Out += formatDouble(E.FinalAccuracy, 4) + ",";
    Out += std::to_string(E.StepsToBest) + ",";
    Out += formatDouble(E.TrainSeconds, 3) + ",";
    Out += csvQuote(join(E.BlocksUsed, ";")) + ",";
    Out += E.Cancelled ? "1" : "0";
    Out += '\n';
  }
  return Out;
}

std::string wootz::renderRunReport(const PipelineResult &Run,
                                   const PruningObjective &Objective,
                                   int Nodes) {
  std::string Out = "# Wootz pruning run\n\n";
  Out += "* full model: accuracy " + formatDouble(Run.FullAccuracy, 3) +
         ", " + std::to_string(Run.FullWeightCount) + " weights\n";
  Out += "* configurations evaluated: " +
         std::to_string(Run.Evaluations.size()) + "\n";
  if (!Run.Blocks.empty()) {
    Out += "* tuning blocks pre-trained: " +
           std::to_string(Run.Pretrain.BlockCount) + " in " +
           std::to_string(Run.Pretrain.GroupCount) + " group(s), " +
           formatDouble(Run.Pretrain.Seconds, 2) +
           " s (reconstruction loss " +
           formatDouble(Run.Pretrain.FirstLoss, 4) + " -> " +
           formatDouble(Run.Pretrain.LastLoss, 4) + ")\n";
  } else {
    Out += "* method: baseline (no tuning blocks)\n";
  }
  Out += "\n## Objective\n\n```\n" + printObjective(Objective) + "```\n";

  const ExplorationSummary Summary =
      summarizeExploration(Run, Objective, Nodes);
  const int Best = bestEvaluation(Run, Objective);
  Out += "\n## Outcome (" + std::to_string(Nodes) + " node(s))\n\n";
  if (Best < 0) {
    Out += "No configuration met the objective (" +
           std::to_string(Summary.ConfigsEvaluated) + " evaluated, " +
           formatDouble(Summary.Seconds, 2) + " s).\n";
  } else {
    const EvaluatedConfig &Winner = Run.Evaluations[Best];
    Out += "Winner `" + formatConfig(Winner.Config) + "`: " +
           formatDouble(100.0 * Winner.SizeFraction, 1) +
           "% of the full model, accuracy " +
           formatDouble(Winner.FinalAccuracy, 3) +
           "; the objective is first met after " +
           std::to_string(Summary.ConfigsEvaluated) +
           " configuration(s) in " + formatDouble(Summary.Seconds, 2) +
           " s (pre-training share " +
           formatDouble(100.0 * Summary.OverheadFraction, 0) + "%).\n";
  }

  // Runtime-scheduled runs carry their own span log; summarize what
  // actually happened (as opposed to the simulated schedule above).
  if (Run.Telemetry.Measured) {
    Out += "\n## Runtime (measured)\n\n";
    Out += "* makespan: " + formatDouble(Run.Telemetry.makespan(), 2) +
           " s (pre-training busy " +
           formatDouble(Run.Telemetry.busySeconds("pretrain"), 2) +
           " s, evaluation busy " +
           formatDouble(Run.Telemetry.busySeconds("eval"), 2) + " s)\n";
    Out += "* tasks: " +
           std::to_string(Run.Telemetry.counter("tasks_done")) +
           " done, " +
           std::to_string(Run.Telemetry.counter("tasks_cancelled")) +
           " cancelled, " +
           std::to_string(Run.Telemetry.counter("tasks_failed")) +
           " failed\n";
    const double FirstEval = Run.Telemetry.firstStart("eval");
    const double LastPretrain = Run.Telemetry.lastEnd("pretrain");
    if (LastPretrain > 0.0 && FirstEval < LastPretrain)
      Out += "* overlap: first fine-tune started " +
             formatDouble(LastPretrain - FirstEval, 2) +
             " s before the last block group finished\n";
  }

  Out += "\n## Evaluations (exploration order)\n\n";
  Table Evaluations({"config", "size %", "init", "final", "steps-to-best",
                     "seconds", "blocks", "status"});
  for (const EvaluatedConfig &E : Run.Evaluations) {
    if (E.Cancelled) {
      Evaluations.addRow({formatConfig(E.Config),
                          formatDouble(100.0 * E.SizeFraction, 1), "-",
                          "-", "-", "-",
                          std::to_string(E.BlocksUsed.size()),
                          "cancelled"});
      continue;
    }
    Evaluations.addRow({formatConfig(E.Config),
                        formatDouble(100.0 * E.SizeFraction, 1),
                        formatDouble(E.InitAccuracy, 3),
                        formatDouble(E.FinalAccuracy, 3),
                        std::to_string(E.StepsToBest),
                        formatDouble(E.TrainSeconds, 2),
                        std::to_string(E.BlocksUsed.size()), "done"});
  }
  Out += "```\n" + Evaluations.render() + "```\n";
  return Out;
}
