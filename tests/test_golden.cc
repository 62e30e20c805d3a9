/// Golden outcome digests: "every counter bit-identical" as a tier-1 check.
///
/// Six short fixed-seed configurations, one per subsystem, each reduced to
/// an FNV-1a digest over the same fields `bench/e2e` digests: every mirrored
/// counter, `storage_cost`, `queue_delay_quanta` and every timeline point.
/// The digests are compared with the committed `tests/golden/digests.txt`.
/// A change that moves a digest is a behaviour change: the failure prints
/// the replacement line, and the change that commits it says which digest
/// moved and why.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "golden_configs.h"

namespace dfim {
namespace {

using golden::Digest;
using golden::GoldenLine;
using golden::kTenants;
using golden::ReadGolden;
using golden::RunAll;

/// RunAll, once per process; both tests read it.
const std::map<std::string, ServiceMetrics>& Outcomes() {
  static const std::map<std::string, ServiceMetrics> outcomes = RunAll();
  return outcomes;
}

TEST(GoldenTest, OutcomeDigestsMatchCommitted) {
  const std::map<std::string, uint64_t> golden = ReadGolden(DFIM_GOLDEN_FILE);
  ASSERT_FALSE(golden.empty()) << "no digests read from " << DFIM_GOLDEN_FILE;
  for (const auto& [name, metrics] : Outcomes()) {
    const uint64_t digest = Digest(metrics);
    auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden digest for " << name
                    << "; add the line:\n  " << GoldenLine(name, digest);
      continue;
    }
    EXPECT_EQ(it->second, digest)
        << name << " moved; if the change is intended, replace its line with:"
        << "\n  " << GoldenLine(name, digest);
  }
  for (const auto& [name, digest] : golden) {
    EXPECT_TRUE(Outcomes().count(name) > 0)
        << "golden digest " << name << " names no configuration";
  }
}

// A digest pins only what its run exercises.
TEST(GoldenTest, EveryConfigurationExercisesItsSubsystem) {
  const std::map<std::string, ServiceMetrics>& o = Outcomes();
  EXPECT_GT(o.at("phase_closed_gain_lp").indexes_deleted, 0);
  EXPECT_GT(o.at("gain_no_delete_online").index_partitions_built, 0);
  const ServiceMetrics& stressed = o.at("stressed_open_journal");
  EXPECT_GT(stressed.containers_failed, 0);
  EXPECT_GT(stressed.spec_wins, 0);
  EXPECT_GT(stressed.hedge_wins, 0);
  EXPECT_GT(stressed.repairs_completed, 0);
  EXPECT_GT(stressed.journal_records, 0);
  EXPECT_GT(o.at("journal_ctl_crashes").ctl_crashes, 0);
  EXPECT_GT(o.at("journal_ctl_crashes").breaker_opens, 0);
  const ServiceMetrics& elastic = o.at("elastic_fleet_faults");
  EXPECT_GT(elastic.containers_preempted, 0);
  EXPECT_GT(elastic.acquires_denied_quota, 0);
  EXPECT_GT(elastic.fleet_grow_events, 0);
  EXPECT_GT(elastic.fleet_shrink_events, 0);
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_GT(o.at("tenants_batched.t" + std::to_string(t)).dataflow_batches,
              0);
  }
}

}  // namespace
}  // namespace dfim
