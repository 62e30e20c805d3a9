// Reproduces Figure 12, Table 7 and Figure 13: the dynamic workload
// experiment with the phase dataflow generator (Cybershake -> Ligo ->
// Montage -> Cybershake over 720 quanta), comparing No-Index, Random,
// Gain (no delete) and Gain.
//
// Usage: fig12_13_table07_phase
//        DFIM_FAST=1        shorter horizon (180 quanta)
//        DFIM_BENCH_CHECK=1 exit nonzero unless Fig. 12's shape holds: Gain
//                           finishes more than 1.5x No-Index's dataflows,
//                           costs less per dataflow than Gain (no delete),
//                           and Random costs the most per dataflow. Run
//                           it at full scale: the fast horizon ends before
//                           Gain deletes an index, so it fails there.

#include <algorithm>
#include <cstdio>

#include "service_experiment.h"

int main() {
  using namespace dfim;
  bench::Header("Figure 12 / Table 7 / Figure 13 -- phase dataflow workload");

  Seconds horizon = (bench::FastMode() ? 180.0 : 720.0) * 60.0;
  std::printf("\nHorizon: %.0f quanta; phases Cybershake/Ligo/Montage/"
              "Cybershake; Poisson arrivals (lambda = 1 quantum).\n",
              horizon / 60.0);

  auto make_client = [horizon](DataflowGenerator* gen) {
    // Phase durations scale with the horizon so the fast mode still crosses
    // all four phases.
    double f = horizon / (720.0 * 60.0);
    std::vector<WorkloadPhase> phases;
    for (auto& ph : PhaseWorkloadClient::PaperPhases(60.0)) {
      phases.push_back({ph.app, ph.duration * f});
    }
    return std::make_unique<PhaseWorkloadClient>(gen, 60.0, phases, 23);
  };

  auto results = bench::RunAllPolicies(horizon, 23, make_client);

  std::printf("\nFig. 12 -- dataflows finished & cost per dataflow (phase):");
  bench::PrintFinishedAndCost(results);
  bench::Note("Paper shape: Gain finishes ~2x the dataflows of No-Index; "
              "Random matches No-Index throughput at much higher cost; "
              "no-delete costs more than Gain.");

  bench::PrintOperatorCounts(results);

  bench::PrintAdaptationTimeline(results.back(), 60.0);
  bench::Note("Paper shape: indexes built per phase, deleted when the phase "
              "moves on, and re-created when Cybershake returns.");

  if (bench::CheckMode()) {
    auto cost = [&results](size_t i) { return bench::CostQuanta(results, i); };
    bool ok = bench::CheckGainThroughput(results);
    if (!(cost(3) < cost(2))) {
      std::fprintf(stderr,
                   "BENCH CHECK FAILED: Gain's cost per dataflow %.2fq is "
                   "not below Gain (no delete)'s %.2fq\n",
                   cost(3), cost(2));
      ok = false;
    }
    ok = bench::CheckRandomCostliest(results) && ok;
    if (!ok) return 1;
    std::printf("\nbench check ok: Gain %.3fx No Index dataflows; cost per "
                "dataflow Gain %.2fq < no-delete %.2fq; Random highest at "
                "%.2fq\n",
                bench::GainThroughputRatio(results),
                cost(3), cost(2), cost(1));
  }
  return 0;
}
