// Reproduces Figure 14: the dynamic workload experiment with the random
// dataflow generator (uniform application mix). Indexes rarely become
// non-beneficial here, so the cost gap between Gain and Gain(no delete)
// shrinks compared with the phase workload.

#include <cstdio>

#include "service_experiment.h"

int main() {
  using namespace dfim;
  bench::Header("Figure 14 -- random dataflow workload");

  Seconds horizon = (bench::FastMode() ? 180.0 : 720.0) * 60.0;
  std::printf("\nHorizon: %.0f quanta; uniformly random application mix; "
              "Poisson arrivals (lambda = 1 quantum).\n", horizon / 60.0);

  auto make_client = [](DataflowGenerator* gen) {
    return std::make_unique<RandomWorkloadClient>(gen, 60.0, 37);
  };
  auto results = bench::RunAllPolicies(horizon, 37, make_client);

  std::printf("\nFig. 14 -- dataflows finished & cost per dataflow (random):");
  bench::PrintFinishedAndCost(results);
  bench::Note("Paper shape: Gain and Gain (no delete) finish about the same"
              " number of dataflows, far more than No Index and Random; the "
              "cost reduction is smaller than under the phase workload "
              "because indexes stay useful (and stored) longer.");

  if (bench::CheckMode()) {
    bool ok = bench::CheckGainThroughput(results);
    ok = bench::CheckRandomCostliest(results) && ok;
    if (!ok) return 1;
    std::printf("\nbench check ok: Gain %.3fx No Index dataflows; Random "
                "costs the most per dataflow at %.2fq\n",
                bench::GainThroughputRatio(results),
                bench::CostQuanta(results, 1));
  }
  return 0;
}
