// Pluggable pricing demo: the paper notes "our approach can work with
// different pricing models. A pricing model is plugged to the scheduler by
// using the appropriate pricing formulas" (§3). This example runs the same
// workload under three providers — the paper's default, a coarse-quantum
// provider (5-minute quanta, like first-generation EC2's hourly billing
// scaled down), and an expensive-storage provider — and shows how the
// tuner's build/keep/delete decisions shift.
//
// Build & run:  cmake --build build && ./build/examples/custom_pricing

#include <cstdio>

#include "core/service.h"

using namespace dfim;

namespace {

ServiceMetrics RunWith(const PricingModel& pricing, Seconds quantum,
                       const char* label) {
  Catalog catalog;
  FileDatabaseOptions fdo;
  fdo.montage_files = 5;
  fdo.ligo_files = 5;
  fdo.cybershake_files = 5;
  FileDatabase db(&catalog, fdo);
  if (!db.Populate().ok()) return {};
  DataflowGenerator generator(&db, 7);
  PhaseWorkloadClient client(&generator, 300.0,
                             {{AppType::kCybershake, 1e9}}, 7);

  ServiceOptions so;
  so.policy = IndexPolicy::kGain;
  so.total_time = 100.0 * quantum;
  so.tuner.pricing = pricing;
  so.tuner.sched.quantum = quantum;
  so.tuner.sched.max_containers = 16;
  so.tuner.sched.skyline_cap = 3;
  so.sim.time_error = 0.1;
  so.sim.data_error = 0.1;
  QaasService service(&catalog, so);
  auto m = service.Run(&client);
  if (!m.ok()) {
    std::printf("%s failed: %s\n", label, m.status().ToString().c_str());
    return {};
  }
  std::printf(
      "%-24s quantum=%4.0fs  Mst=%.0e  -> %3d dataflows, %4d index parts "
      "built, %3d deletions, storage bill $%.4f\n",
      label, quantum, pricing.storage_price_per_mb_per_quantum,
      m->dataflows_finished, m->index_partitions_built, m->indexes_deleted,
      m->storage_cost);
  return *m;
}

}  // namespace

int main() {
  std::printf("Same Cybershake stream under three pricing models:\n\n");

  // The paper's Table 3 pricing and quantum.
  const Seconds paper_quantum = SchedulerOptions{}.quantum;
  PricingModel paper;
  RunWith(paper, paper_quantum, "paper (EC2-like)");

  // Coarser quanta: more paid tail per container, so more room for builds.
  PricingModel coarse;
  coarse.vm_price_per_quantum = 0.5;  // same $/hour
  RunWith(coarse, 300.0, "coarse quanta (5 min)");

  // Storage 50x more expensive: indexes must earn their keep; the tuner
  // builds fewer and deletes sooner.
  PricingModel pricey_storage;
  pricey_storage.storage_price_per_mb_per_quantum = 5e-3;
  RunWith(pricey_storage, paper_quantum, "expensive storage");

  std::printf(
      "\nExpected: coarser quanta -> more idle-slot room (more builds); "
      "expensive storage -> fewer indexes kept.\n");
  return 0;
}
