// Reproduces Figure 9: the timeline of a Montage dataflow interleaved with
// build-index operators by the LP algorithm ('#' dataflow ops, '+' build
// ops, '.' idle), and the fragmentation before/after interleaving (the
// paper reports 7.14 -> 1.6 quanta).

#include <cstdio>

#include "bench_util.h"
#include "core/interleave.h"
#include "core/tuner.h"
#include "dataflow/build_index_ops.h"

int main() {
  using namespace dfim;
  bench::Header("Figure 9 -- dataflow interleaved with build index ops (LP)");
  auto setup = std::make_unique<bench::PaperSetup>(7);
  SchedulerOptions so = bench::PaperSchedulerOptions();

  // The paper draws Montage here, but our Montage files (Table 4: <= 4 MB)
  // yield sub-second build ops that are invisible at quantum resolution;
  // Cybershake's 128 MB partitions give build ops of the size the paper's
  // green blocks show, so the figure uses a Cybershake dataflow.
  Dataflow df = setup->generator->Generate(AppType::kCybershake, 0, 0);
  Dag combined = df.dag;
  int next_id = static_cast<int>(combined.num_ops());
  for (const auto& idx : df.candidate_indexes) {
    auto ops = MakeBuildIndexOps(setup->catalog, idx, so.net_mb_per_sec,
                                 &next_id);
    if (!ops.ok()) continue;
    for (auto& op : *ops) {
      op.gain = 1.0;
      combined.AddOperator(std::move(op));
    }
  }
  std::vector<Seconds> durations;
  std::vector<SimOpCost> costs;
  BuildDataflowCosts(combined, df, setup->catalog, so.net_mb_per_sec,
                     &durations, &costs);

  Interleaver lp(so, InterleaveMode::kLp);
  auto bare = SkylineScheduler(so).ScheduleDag(combined, durations,
                                               /*place_optional=*/false);
  auto packed = lp.Interleave(combined, durations);
  if (!bare.ok() || !packed.ok()) {
    std::printf("scheduling failed\n");
    return 1;
  }
  const Schedule& before = bare->front();
  const Schedule& after = packed->front();

  std::printf("\nDataflow-only schedule ('#' ops, '.' idle):\n%s",
              before.ToAscii(so.quantum, 96).c_str());
  std::printf("\nWith LP-interleaved build ops ('+'):\n%s",
              after.ToAscii(so.quantum, 96).c_str());

  double idle_before = before.TotalIdle(so.quantum) / so.quantum;
  double idle_after = after.TotalIdle(so.quantum) / so.quantum;
  std::printf(
      "\nFragmentation: %.2f quanta before -> %.2f quanta after interleaving"
      "  (paper: 7.14 -> 1.6)\n",
      idle_before, idle_after);
  std::printf("Makespan %.1f s, %lld leased quanta on %d containers "
              "(unchanged by interleaving).\n",
              after.makespan(),
              static_cast<long long>(after.LeasedQuanta(so.quantum)),
              after.num_containers());
  return 0;
}
