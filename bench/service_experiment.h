#ifndef DFIM_BENCH_SERVICE_EXPERIMENT_H_
#define DFIM_BENCH_SERVICE_EXPERIMENT_H_

// Shared driver for the dynamic-workload experiments (§6.5): runs the four
// index-management policies on identical workload streams and prints the
// Fig. 12/14 bars and the Table 7 operator counts.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench_util.h"

namespace dfim {
namespace bench {

struct PolicyResult {
  IndexPolicy policy;
  ServiceMetrics metrics;
};

/// Runs one policy on a fresh catalog/database and a fresh workload client
/// produced by `make_client` (so every policy sees the same stream).
inline PolicyResult RunPolicy(
    IndexPolicy policy, Seconds horizon, uint64_t seed,
    const std::function<std::unique_ptr<WorkloadClient>(
        DataflowGenerator*)>& make_client) {
  Catalog catalog;
  FileDatabase db(&catalog, FileDatabaseOptions{});
  Status st = db.Populate();
  if (!st.ok()) std::abort();
  DataflowGenerator gen(&db, seed);

  ServiceOptions so = PaperServiceOptions(policy);
  so.total_time = horizon;
  so.seed = seed;
  QaasService service(&catalog, so);
  auto client = make_client(&gen);
  auto metrics = service.Run(client.get());
  PolicyResult r;
  r.policy = policy;
  if (metrics.ok()) {
    r.metrics = *metrics;
  } else {
    std::fprintf(stderr, "policy %s failed: %s\n",
                 std::string(IndexPolicyToString(policy)).c_str(),
                 metrics.status().ToString().c_str());
  }
  return r;
}

inline std::vector<PolicyResult> RunAllPolicies(
    Seconds horizon, uint64_t seed,
    const std::function<std::unique_ptr<WorkloadClient>(
        DataflowGenerator*)>& make_client) {
  std::vector<PolicyResult> out;
  for (IndexPolicy p : {IndexPolicy::kNoIndex, IndexPolicy::kRandom,
                        IndexPolicy::kGainNoDelete, IndexPolicy::kGain}) {
    out.push_back(RunPolicy(p, horizon, seed, make_client));
  }
  return out;
}

/// Fig. 12/14 bars: dataflows finished and cost per dataflow.
inline void PrintFinishedAndCost(const std::vector<PolicyResult>& results) {
  PricingModel pricing;
  std::printf("\n%-18s %12s %16s %10s %10s %12s\n", "Policy", "#Dataflows",
              "Cost/Dataflow(q)", "VM(q)", "Stor(q)", "Time/DF(q)");
  for (const auto& r : results) {
    double n = std::max(1, r.metrics.dataflows_finished);
    std::printf("%-18s %12d %16.2f %10.2f %10.2f %12.2f\n",
                std::string(IndexPolicyToString(r.policy)).c_str(),
                r.metrics.dataflows_finished,
                r.metrics.AvgCostQuantaPerDataflow(pricing),
                static_cast<double>(r.metrics.total_vm_quanta) / n,
                r.metrics.storage_cost / pricing.vm_price_per_quantum / n,
                r.metrics.AvgTimeQuantaPerDataflow());
  }
}

/// Cost per dataflow of `results[i]`, in quanta.
inline double CostQuanta(const std::vector<PolicyResult>& results, size_t i) {
  return results[i].metrics.AvgCostQuantaPerDataflow(PricingModel{});
}

/// \name Paper-shape gates (DFIM_BENCH_CHECK=1) over RunAllPolicies' order:
/// No Index, Random, Gain (no delete), Gain. Each prints why it failed to
/// stderr and returns false.
/// @{

/// Gain's dataflows finished over No Index's.
inline double GainThroughputRatio(const std::vector<PolicyResult>& results) {
  return static_cast<double>(results[3].metrics.dataflows_finished) /
         std::max(1, results[0].metrics.dataflows_finished);
}

/// Gain finishes more than 1.5x No Index's dataflows.
inline bool CheckGainThroughput(const std::vector<PolicyResult>& results) {
  double ratio = GainThroughputRatio(results);
  if (ratio > 1.5) return true;
  std::fprintf(stderr,
               "BENCH CHECK FAILED: Gain finished %.3fx No Index's "
               "dataflows (%d vs %d; must be > 1.5x)\n",
               ratio, results[3].metrics.dataflows_finished,
               results[0].metrics.dataflows_finished);
  return false;
}

/// Random costs the most per dataflow.
inline bool CheckRandomCostliest(const std::vector<PolicyResult>& results) {
  double random = CostQuanta(results, 1);
  if (random > CostQuanta(results, 0) && random > CostQuanta(results, 2) &&
      random > CostQuanta(results, 3)) {
    return true;
  }
  std::fprintf(stderr,
               "BENCH CHECK FAILED: Random's cost per dataflow %.2fq is not "
               "the highest\n",
               random);
  return false;
}
/// @}

/// Table 7: operators executed and killed.
inline void PrintOperatorCounts(const std::vector<PolicyResult>& results) {
  std::printf("\nTable 7 -- operators executed (paper: NoIndex 22402/0, "
              "Random 25649/1143 = 4.4%%, Gain 49549/1418 = 2.8%%):\n");
  std::printf("%-18s %12s %12s %12s\n", "Algorithm", "Total Ops", "Killed",
              "Percent");
  for (const auto& r : results) {
    if (r.policy == IndexPolicy::kGainNoDelete) continue;
    double pct = r.metrics.total_ops > 0
                     ? 100.0 * r.metrics.killed_ops / r.metrics.total_ops
                     : 0.0;
    std::printf("%-18s %12d %12d %11.1f%%\n",
                std::string(IndexPolicyToString(r.policy)).c_str(),
                r.metrics.total_ops, r.metrics.killed_ops, pct);
  }
}

/// Fig. 13: indexes built and storage cost over time for one policy.
inline void PrintAdaptationTimeline(const PolicyResult& r, Seconds quantum,
                                    int rows = 24) {
  std::printf("\nFig. 13 -- adaptation of '%s': indexes built and storage "
              "cost over time:\n",
              std::string(IndexPolicyToString(r.policy)).c_str());
  std::printf("%12s %14s %14s %16s\n", "t (quanta)", "#Indexes",
              "Index MB", "Storage cost ($)");
  const auto& tl = r.metrics.timeline;
  if (tl.empty()) return;
  size_t step = tl.size() > static_cast<size_t>(rows)
                    ? tl.size() / static_cast<size_t>(rows)
                    : 1;
  for (size_t i = 0; i < tl.size(); i += step) {
    std::printf("%12.1f %14d %14.1f %16.4f\n", tl[i].t / quantum,
                tl[i].indexes_built, tl[i].index_mb, tl[i].storage_cost);
  }
}

}  // namespace bench
}  // namespace dfim

#endif  // DFIM_BENCH_SERVICE_EXPERIMENT_H_
