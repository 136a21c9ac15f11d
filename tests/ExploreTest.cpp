//===- tests/ExploreTest.cpp - explore/ unit tests ------------------------------------===//

#include "src/explore/Cluster.h"
#include "src/explore/Objective.h"
#include "src/support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace wootz;

namespace {

//===----------------------------------------------------------------------===//
// Objective parsing and semantics
//===----------------------------------------------------------------------===//

TEST(ObjectiveTest, ParsesFigure3bExample) {
  Result<PruningObjective> Objective =
      parseObjective("min ModelSize\nconstraint Accuracy > 0.8\n");
  ASSERT_TRUE(static_cast<bool>(Objective)) << Objective.message();
  EXPECT_TRUE(Objective->Minimize);
  EXPECT_EQ(Objective->Optimize, Metric::ModelSize);
  ASSERT_EQ(Objective->Constraints.size(), 1u);
  EXPECT_TRUE(Objective->satisfied(100, 0.9));
  EXPECT_FALSE(Objective->satisfied(100, 0.8)); // Strict >.
}

TEST(ObjectiveTest, ParsesAllOperators) {
  Result<PruningObjective> Objective = parseObjective(
      "max Accuracy\n"
      "constraint ModelSize <= 1000\n"
      "constraint ModelSize >= 10\n"
      "constraint Accuracy < 1.0\n");
  ASSERT_TRUE(static_cast<bool>(Objective)) << Objective.message();
  EXPECT_FALSE(Objective->Minimize);
  EXPECT_TRUE(Objective->satisfied(1000, 0.5));
  EXPECT_FALSE(Objective->satisfied(1001, 0.5));
  EXPECT_FALSE(Objective->satisfied(9, 0.5));
  EXPECT_FALSE(Objective->satisfied(100, 1.0));
}

TEST(ObjectiveTest, CommentsAndBlanksIgnored) {
  Result<PruningObjective> Objective = parseObjective(
      "# objective\n\nmin ModelSize # smallest\n"
      "constraint Accuracy >= 0.7\n");
  ASSERT_TRUE(static_cast<bool>(Objective)) << Objective.message();
}

TEST(ObjectiveTest, RejectsMalformedInput) {
  EXPECT_FALSE(static_cast<bool>(parseObjective("")));
  EXPECT_FALSE(static_cast<bool>(parseObjective("minimize ModelSize")));
  EXPECT_FALSE(static_cast<bool>(parseObjective("min Weight")));
  EXPECT_FALSE(
      static_cast<bool>(parseObjective("min ModelSize\nconstraint "
                                       "Accuracy == 0.8")));
  EXPECT_FALSE(static_cast<bool>(
      parseObjective("min ModelSize\nmin Accuracy")));
  EXPECT_FALSE(static_cast<bool>(parseObjective("constraint Accuracy > "
                                                "0.5")));
}

TEST(ObjectiveTest, ExplorationOrderFollowsObjective) {
  EXPECT_TRUE(smallestMeetingAccuracy(0.8).exploreSmallestFirst());
  Result<PruningObjective> MaxAcc =
      parseObjective("max Accuracy\nconstraint ModelSize <= 100\n");
  ASSERT_TRUE(static_cast<bool>(MaxAcc));
  EXPECT_FALSE(MaxAcc->exploreSmallestFirst());
}

TEST(ObjectiveTest, RoundTripsThroughPrinter) {
  const PruningObjective Objective = smallestMeetingAccuracy(0.8125);
  Result<PruningObjective> Reparsed =
      parseObjective(printObjective(Objective));
  ASSERT_TRUE(static_cast<bool>(Reparsed)) << Reparsed.message();
  EXPECT_TRUE(Reparsed->satisfied(1, 0.9));
  EXPECT_FALSE(Reparsed->satisfied(1, 0.8));
}

//===----------------------------------------------------------------------===//
// Exploration schedule simulation
//===----------------------------------------------------------------------===//

TEST(ClusterTest, SingleNodeStopsAtWinner) {
  const std::vector<double> Seconds{1, 1, 1, 1, 1};
  const std::vector<bool> Satisfies{false, false, true, false, true};
  const ExplorationOutcome Outcome =
      simulateExploration(Seconds, Satisfies, 1);
  EXPECT_EQ(Outcome.WinnerIndex, 2);
  EXPECT_EQ(Outcome.ConfigsEvaluated, 3);
  EXPECT_DOUBLE_EQ(Outcome.Seconds, 3.0);
}

TEST(ClusterTest, NoWinnerEvaluatesEverything) {
  const std::vector<double> Seconds{2, 3, 4};
  const std::vector<bool> Satisfies{false, false, false};
  const ExplorationOutcome Outcome =
      simulateExploration(Seconds, Satisfies, 2);
  EXPECT_EQ(Outcome.WinnerIndex, -1);
  EXPECT_EQ(Outcome.ConfigsEvaluated, 3);
  // Node 0 runs configs 0 and 2 (6s); node 1 runs config 1 (3s).
  EXPECT_DOUBLE_EQ(Outcome.Seconds, 6.0);
}

TEST(ClusterTest, RoundsQuantizeEvaluatedCount) {
  // Winner at index 5 with 4 nodes: rounds 0-1 complete, 8 configs.
  const std::vector<double> Seconds(12, 1.0);
  std::vector<bool> Satisfies(12, false);
  Satisfies[5] = true;
  const ExplorationOutcome Outcome =
      simulateExploration(Seconds, Satisfies, 4);
  EXPECT_EQ(Outcome.ConfigsEvaluated, 8);
  EXPECT_DOUBLE_EQ(Outcome.Seconds, 2.0); // Two rounds of 1s each.
}

TEST(ClusterTest, MoreNodesNeverSlower) {
  Rng Generator(3);
  std::vector<double> Seconds(30);
  for (double &S : Seconds)
    S = 1.0 + Generator.nextDouble();
  std::vector<bool> Satisfies(30, false);
  Satisfies[17] = true;
  double Previous = 1e100;
  for (int Nodes : {1, 2, 4, 8, 16}) {
    const ExplorationOutcome Outcome =
        simulateExploration(Seconds, Satisfies, Nodes);
    EXPECT_LE(Outcome.Seconds, Previous + 1e-9) << Nodes << " nodes";
    Previous = Outcome.Seconds;
  }
}

TEST(ClusterTest, EvaluatedCountCappedAtTotal) {
  const std::vector<double> Seconds{1, 1};
  std::vector<bool> Satisfies{false, true};
  const ExplorationOutcome Outcome =
      simulateExploration(Seconds, Satisfies, 16);
  EXPECT_EQ(Outcome.ConfigsEvaluated, 2);
}

TEST(ClusterTest, PretrainMakespanRoundRobin) {
  const std::vector<double> Groups{4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(pretrainMakespan(Groups, 1), 10.0);
  // Node 0: 4+2=6, node 1: 3+1=4.
  EXPECT_DOUBLE_EQ(pretrainMakespan(Groups, 2), 6.0);
  EXPECT_DOUBLE_EQ(pretrainMakespan(Groups, 4), 4.0);
  EXPECT_DOUBLE_EQ(pretrainMakespan({}, 4), 0.0);
}

TEST(ClusterTest, TaskAssignmentFileFormat) {
  const std::string Text = taskAssignmentFile(7, 3);
  EXPECT_NE(Text.find("node 0: 0 3 6"), std::string::npos);
  EXPECT_NE(Text.find("node 1: 1 4"), std::string::npos);
  EXPECT_NE(Text.find("node 2: 2 5"), std::string::npos);
}

} // namespace

//===----------------------------------------------------------------------===//
// Exploration order under a max-Accuracy objective (appended tests)
//===----------------------------------------------------------------------===//

#include "src/explore/Pipeline.h"

namespace {

/// Builds a synthetic PipelineResult with known per-config outcomes,
/// listed in exploration order: smallest first, or largest first when
/// \p LargestFirst (the max-Accuracy order).
static PipelineResult syntheticRun(bool LargestFirst = false) {
  PipelineResult Run;
  Run.FullAccuracy = 0.9;
  Run.FullWeightCount = 1000;
  // Sizes ascending; accuracies mostly rising with size.
  const std::vector<std::pair<size_t, double>> Points{
      {300, 0.50}, {400, 0.70}, {500, 0.72}, {700, 0.85}, {900, 0.88}};
  for (const auto &[Weights, Accuracy] : Points) {
    EvaluatedConfig E;
    E.Config = {0.5f};
    E.WeightCount = Weights;
    E.SizeFraction = static_cast<double>(Weights) / 1000.0;
    E.FinalAccuracy = Accuracy;
    E.TrainSeconds = 1.0;
    Run.Evaluations.push_back(E);
  }
  if (LargestFirst)
    std::reverse(Run.Evaluations.begin(), Run.Evaluations.end());
  return Run;
}

TEST(SummaryOrderTest, MinModelSizeWalksSmallestFirst) {
  const PipelineResult Run = syntheticRun();
  const PruningObjective Objective = smallestMeetingAccuracy(0.71);
  const ExplorationSummary Summary =
      summarizeExploration(Run, Objective, 1);
  // First satisfier in ascending-size order is index 2 (acc 0.72).
  EXPECT_EQ(Summary.WinnerIndex, 2);
  EXPECT_EQ(Summary.ConfigsEvaluated, 3);
  EXPECT_DOUBLE_EQ(Summary.WinnerSizeFraction, 0.5);
  // The smallest satisfying evaluation is also the first one.
  EXPECT_EQ(bestEvaluation(Run, Objective), 2);
}

TEST(SummaryOrderTest, MaxAccuracyWalksLargestFirst) {
  const PipelineResult Run = syntheticRun(/*LargestFirst=*/true);
  Result<PruningObjective> Objective = parseObjective(
      "max Accuracy\nconstraint ModelSize <= 750\n");
  ASSERT_TRUE(static_cast<bool>(Objective));
  const ExplorationSummary Summary =
      summarizeExploration(Run, *Objective, 1);
  // Largest-first order: 900 (violates the size cap), then 700
  // (satisfies) -> winner after two evaluations, size fraction 0.7.
  EXPECT_EQ(Summary.WinnerIndex, 1);
  EXPECT_EQ(Summary.ConfigsEvaluated, 2);
  EXPECT_DOUBLE_EQ(Summary.WinnerSizeFraction, 0.7);
  EXPECT_EQ(Run.Evaluations[Summary.WinnerIndex].WeightCount, 700u);
  // It is also the most accurate evaluation under the size cap.
  EXPECT_EQ(bestEvaluation(Run, *Objective), 1);
}

TEST(SummaryOrderTest, NoWinnerReportsEverything) {
  const PipelineResult Run = syntheticRun();
  const PruningObjective Objective = smallestMeetingAccuracy(0.95);
  const ExplorationSummary Summary =
      summarizeExploration(Run, Objective, 2);
  EXPECT_EQ(Summary.WinnerIndex, -1);
  EXPECT_EQ(bestEvaluation(Run, Objective), -1);
  EXPECT_EQ(Summary.ConfigsEvaluated, 5);
  EXPECT_DOUBLE_EQ(Summary.WinnerSizeFraction, 0.0);
}

} // namespace
