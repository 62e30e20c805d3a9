// Reproduces Figure 6: sensitivity of the offline (skyline) scheduler to
// estimation errors. Operator runtimes and data sizes are perturbed by a
// random factor in [1-e, 1+e] at execution; we report the relative
// difference between the estimated schedule and its realized execution for
// time, money and fragmentation.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "core/tuner.h"
#include "sched/exec_simulator.h"
#include "sched/skyline_scheduler.h"

int main() {
  using namespace dfim;
  bench::Header("Figure 6 -- offline-scheduler sensitivity to estimation errors");
  auto setup = std::make_unique<bench::PaperSetup>(7);
  SchedulerOptions so = bench::PaperSchedulerOptions();
  SkylineScheduler scheduler(so);

  int reps = bench::FastMode() ? 2 : 8;
  const double errors[] = {0.0, 0.1, 0.2, 0.4, 0.8, 1.6};

  std::printf("\nCybershake, %d dataflows per point; CPU-time and data-size "
              "errors applied together.\n", reps);
  std::printf("%8s %12s %12s %16s\n", "Error", "dTime (%)", "dMoney (%)",
              "dFragment. (%)");
  for (double e : errors) {
    RunningStats dt, dm, dfr;
    for (int i = 0; i < reps; ++i) {
      Dataflow df = setup->generator->Generate(AppType::kCybershake, i, 0);
      std::vector<Seconds> durations;
      std::vector<SimOpCost> costs;
      BuildDataflowCosts(df.dag, df, setup->catalog, so.net_mb_per_sec,
                         &durations, &costs);
      auto skyline = scheduler.ScheduleDag(df.dag, durations, false);
      if (!skyline.ok() || skyline->empty()) continue;
      const Schedule& plan = skyline->front();
      SimOptions sim;
      sim.time_error = e;
      sim.data_error = e;
      ExecSimulator simulator(
          so, 1000 + static_cast<uint64_t>(i) + static_cast<uint64_t>(e * 100),
          sim);
      auto exec = simulator.Run(df.dag, plan, costs);
      if (!exec.ok()) continue;
      double est_time = plan.makespan();
      double est_money = static_cast<double>(plan.LeasedQuanta(so.quantum));
      double est_frag = plan.TotalIdle(so.quantum);
      dt.Add(100.0 * std::fabs(exec->makespan - est_time) / est_time);
      dm.Add(100.0 * std::fabs(static_cast<double>(exec->leased_quanta) -
                               est_money) / est_money);
      if (est_frag > 1.0) {
        dfr.Add(100.0 * std::fabs(exec->total_idle - est_frag) / est_frag);
      }
    }
    std::printf("%7.0f%% %12.2f %12.2f %16.2f\n", e * 100.0, dt.mean(),
                dm.mean(), dfr.mean());
  }
  bench::Note("Paper shape: robust (<~20% deviation) for errors up to ~20-40%;"
              " degrades for extreme errors.");
  return 0;
}
