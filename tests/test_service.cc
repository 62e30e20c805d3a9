#include "core/service.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

namespace dfim {
namespace {

/// Small database + short horizon so each arm runs in well under a second.
struct ServiceFixture {
  explicit ServiceFixture(IndexPolicy policy, uint64_t seed = 5,
                          Seconds horizon = 50.0 * 60.0) {
    FileDatabaseOptions fdo;
    fdo.montage_files = 4;
    fdo.ligo_files = 4;
    fdo.cybershake_files = 4;
    db = std::make_unique<FileDatabase>(&catalog, fdo);
    EXPECT_TRUE(db->Populate().ok());
    gen = std::make_unique<DataflowGenerator>(db.get(), seed);

    ServiceOptions so;
    so.policy = policy;
    so.total_time = horizon;
    so.tuner.sched.max_containers = 12;
    so.tuner.sched.skyline_cap = 3;
    so.sim.time_error = 0.1;
    so.sim.data_error = 0.1;
    so.seed = seed;
    service = std::make_unique<QaasService>(&catalog, so);
  }

  ServiceMetrics RunMontage(uint64_t seed = 5) {
    PhaseWorkloadClient client(
        gen.get(), 60.0, {{AppType::kMontage, 1e9}}, seed);
    auto m = service->Run(&client);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? *m : ServiceMetrics{};
  }

  Catalog catalog;
  std::unique_ptr<FileDatabase> db;
  std::unique_ptr<DataflowGenerator> gen;
  std::unique_ptr<QaasService> service;
};

TEST(ServiceTest, PolicyNames) {
  EXPECT_EQ(IndexPolicyToString(IndexPolicy::kNoIndex), "No Index");
  EXPECT_EQ(IndexPolicyToString(IndexPolicy::kRandom), "Random");
  EXPECT_EQ(IndexPolicyToString(IndexPolicy::kGainNoDelete),
            "Gain (no delete)");
  EXPECT_EQ(IndexPolicyToString(IndexPolicy::kGain), "Gain");
}

TEST(ServiceTest, NoIndexPolicyRunsAndBuildsNothing) {
  ServiceFixture f(IndexPolicy::kNoIndex);
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.dataflows_finished, 0);
  EXPECT_EQ(m.index_partitions_built, 0);
  EXPECT_EQ(m.killed_ops, 0);
  EXPECT_DOUBLE_EQ(m.storage_cost, 0);
  EXPECT_GT(m.total_vm_quanta, 0);
  EXPECT_GT(m.AvgTimeQuantaPerDataflow(), 0);
  // Timeline recorded per executed dataflow (the last one may finish past
  // the horizon and not count as finished).
  EXPECT_GE(m.timeline.size(), static_cast<size_t>(m.dataflows_finished));
}

TEST(ServiceTest, GainPolicyBuildsIndexes) {
  ServiceFixture f(IndexPolicy::kGain);
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.dataflows_finished, 0);
  EXPECT_GT(m.index_partitions_built, 0);
  EXPECT_GT(m.storage_cost, 0);
  // The timeline eventually shows built indexes.
  bool saw_index = false;
  for (const auto& pt : m.timeline) saw_index |= pt.indexes_built > 0;
  EXPECT_TRUE(saw_index);
}

TEST(ServiceTest, GainBeatsNoIndexOnThroughputOrTime) {
  ServiceFixture no_index(IndexPolicy::kNoIndex);
  ServiceFixture gain(IndexPolicy::kGain);
  ServiceMetrics a = no_index.RunMontage();
  ServiceMetrics b = gain.RunMontage();
  // Identical workload stream (same seeds): indexes can only help.
  EXPECT_GE(b.dataflows_finished, a.dataflows_finished);
  if (b.dataflows_finished == a.dataflows_finished) {
    EXPECT_LE(b.AvgTimeQuantaPerDataflow(),
              a.AvgTimeQuantaPerDataflow() * 1.05);
  }
}

TEST(ServiceTest, RandomPolicyBuildsAndNeverDeletes) {
  ServiceFixture f(IndexPolicy::kRandom);
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.dataflows_finished, 0);
  EXPECT_GT(m.index_partitions_built, 0);
  EXPECT_EQ(m.indexes_deleted, 0);
  EXPECT_GT(m.storage_cost, 0);
}

TEST(ServiceTest, NoDeleteKeepsStorageGrowing) {
  ServiceFixture keep(IndexPolicy::kGainNoDelete);
  ServiceMetrics m = keep.RunMontage();
  EXPECT_EQ(m.indexes_deleted, 0);
  // Storage footprint is monotone without deletions.
  MegaBytes prev = 0;
  for (const auto& pt : m.timeline) {
    EXPECT_GE(pt.index_mb, prev - 1e-6);
    prev = pt.index_mb;
  }
}

TEST(ServiceTest, HistoryRecordsAccumulate) {
  ServiceFixture f(IndexPolicy::kGain);
  ServiceMetrics m = f.RunMontage();
  EXPECT_GT(m.dataflows_finished, 0);
  EXPECT_FALSE(f.service->history().empty());
  for (const auto& rec : f.service->history()) {
    EXPECT_GE(rec.finished_at, 0);
    for (const auto& [idx, g] : rec.gain) EXPECT_GT(g, 0) << idx;
  }
}

TEST(ServiceTest, ArrivalsPastHorizonNotExecuted) {
  ServiceFixture f(IndexPolicy::kNoIndex, 5, /*horizon=*/10.0 * 60.0);
  ServiceMetrics m = f.RunMontage();
  EXPECT_LE(m.dataflows_finished, m.dataflows_arrived);
  for (const auto& pt : m.timeline) {
    EXPECT_LE(pt.t, 1e9);
  }
}

TEST(ServiceTest, ClosedLoopArrivalAtTheHorizonIsShed) {
  // The one dataflow arrives exactly when the horizon closes: it is counted
  // as arrived and shed, so the arrival identity holds with zero slack.
  const Seconds horizon = 10.0 * 60.0;
  ServiceFixture f(IndexPolicy::kGain, 5, horizon);
  ReplayWorkloadClient client({f.gen->Generate(AppType::kMontage, 0, horizon)});
  auto m = f.service->Run(&client);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->dataflows_arrived, 1);
  EXPECT_EQ(m->dataflows_shed, 1);
  EXPECT_EQ(m->dataflows_finished + m->dataflows_failed + m->dataflows_overran,
            0);
  EXPECT_TRUE(m->timeline.empty());
}

/// The status of a Montage run whose scheduler options `tweak` changed.
Status RunWithScheduler(void (*tweak)(SchedulerOptions*)) {
  ServiceFixture f(IndexPolicy::kGain);
  ServiceOptions so;
  so.total_time = 20.0 * 60.0;
  tweak(&so.tuner.sched);
  QaasService service(&f.catalog, so);
  PhaseWorkloadClient client(f.gen.get(), 60.0, {{AppType::kMontage, 1e9}},
                             5);
  return service.Run(&client).status();
}

bool Names(const Status& status, const std::string& what) {
  return status.IsInvalidArgument() &&
         status.message().find(what) != std::string::npos;
}

TEST(ServiceTest, RunRejectsAQuantumThatIsNotFiniteAndPositive) {
  // Zero and negative quanta used to hang the run; NaN was rejected only as
  // a billing mismatch.
  for (auto tweak : {+[](SchedulerOptions* o) { o->quantum = 0; },
                     +[](SchedulerOptions* o) { o->quantum = -60; },
                     +[](SchedulerOptions* o) { o->quantum = std::nan(""); },
                     +[](SchedulerOptions* o) { o->quantum = 1.0 / 0.0; }}) {
    const Status st = RunWithScheduler(tweak);
    EXPECT_TRUE(Names(st, "quantum must be finite and positive"))
        << st.ToString();
  }
}

TEST(ServiceTest, RunRejectsANetworkRateThatIsNotFiniteAndPositive) {
  // A zero rate used to finish nothing and bill NaN for storage.
  for (auto tweak :
       {+[](SchedulerOptions* o) { o->net_mb_per_sec = 0; },
        +[](SchedulerOptions* o) { o->net_mb_per_sec = -125; },
        +[](SchedulerOptions* o) { o->net_mb_per_sec = std::nan(""); }}) {
    const Status st = RunWithScheduler(tweak);
    EXPECT_TRUE(Names(st, "net_mb_per_sec must be finite and positive"))
        << st.ToString();
  }
}

TEST(ServiceTest, RunRejectsAFleetCapBelowOne) {
  // A cap of 0 or -1 used to finish dataflows on zero VM quanta.
  for (auto tweak : {+[](SchedulerOptions* o) { o->max_containers = 0; },
                     +[](SchedulerOptions* o) { o->max_containers = -1; }}) {
    const Status st = RunWithScheduler(tweak);
    EXPECT_TRUE(Names(st, "max_containers must be >= 1")) << st.ToString();
  }
}

/// Passes `inner` through, recording at each arrival how the service's
/// fleet and storage count quanta.
class QuantumProbeClient : public WorkloadClient {
 public:
  QuantumProbeClient(WorkloadClient* inner, const QaasService* service)
      : inner_(inner), service_(service) {}

  std::optional<Dataflow> Next(Seconds not_before, Seconds horizon) override {
    for (const Container& c : service_->fleet().SaveState().containers) {
      lease_seconds_per_quantum.push_back(
          (c.lease_end() - c.lease_start()) /
          static_cast<double>(c.quanta_charged()));
    }
    StorageService storage = service_->storage();
    if (storage.used() > 0) {
      // Billing one more quantum's worth of seconds accrues exactly one
      // quantum of the stored megabytes.
      const double before = storage.accrued_mb_quanta();
      storage.AdvanceTo(storage.last_billed() + kProbeQuantum);
      storage_quanta_per_probe.push_back(
          (storage.accrued_mb_quanta() - before) / storage.used());
    }
    return inner_->Next(not_before, horizon);
  }

  static constexpr Seconds kProbeQuantum = 300;
  std::vector<double> lease_seconds_per_quantum;
  std::vector<double> storage_quanta_per_probe;

 private:
  WorkloadClient* inner_;
  const QaasService* service_;
};

TEST(ServiceTest, SchedulerQuantumIsTheOneQuantumEveryLayerCounts) {
  // The skyline plans, the fleet leases, the store bills and the simulator
  // charges the scheduler's 300 s quanta. Dataflows arrive 10 quanta apart,
  // so each runs on a fresh fleet and, with exact estimates, the quanta the
  // simulator charges are the quanta the fleet bills.
  const Seconds q = QuantumProbeClient::kProbeQuantum;
  ServiceFixture f(IndexPolicy::kGain);
  ServiceOptions so;
  so.total_time = 40.0 * q;
  so.tuner.sched.quantum = q;
  so.tuner.sched.max_containers = 12;
  so.tuner.sched.skyline_cap = 3;
  QaasService service(&f.catalog, so);
  std::vector<Dataflow> stream;
  for (int i = 0; i < 3; ++i) {
    stream.push_back(f.gen->Generate(AppType::kMontage, i, 10.0 * q * i));
  }
  ReplayWorkloadClient replay(std::move(stream));
  QuantumProbeClient probe(&replay, &service);
  auto m = service.Run(&probe);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ASSERT_EQ(m->dataflows_finished, 3);
  ASSERT_GT(m->index_partitions_built, 0);

  ASSERT_FALSE(probe.lease_seconds_per_quantum.empty());
  for (double s : probe.lease_seconds_per_quantum) EXPECT_DOUBLE_EQ(s, q);
  ASSERT_FALSE(probe.storage_quanta_per_probe.empty());
  for (double n : probe.storage_quanta_per_probe) EXPECT_NEAR(n, 1.0, 1e-9);
  EXPECT_EQ(m->total_vm_quanta, m->fleet_quanta_charged);
}

/// Passes `inner` through, counting at each arrival the indexes a tuner
/// with the service's options flags for deletion.
class FlagCountingClient : public WorkloadClient {
 public:
  FlagCountingClient(WorkloadClient* inner, Catalog* catalog,
                     const QaasService* service, TunerOptions opts)
      : inner_(inner), tuner_(catalog, opts), service_(service) {}

  std::optional<Dataflow> Next(Seconds not_before, Seconds horizon) override {
    std::optional<Dataflow> df = inner_->Next(not_before, horizon);
    if (df.has_value()) {
      auto d = tuner_.OnDataflow(*df, service_->history(), df->issued_at);
      if (d.ok()) flagged += static_cast<int>(d->to_delete.size());
    }
    return df;
  }

  int flagged = 0;

 private:
  WorkloadClient* inner_;
  OnlineIndexTuner tuner_;
  const QaasService* service_;
};

TEST(ServiceTest, GainNoDeleteKeepsEveryIndexTheTunerFlags) {
  // A Montage phase, then LIGO: the Montage indexes stop earning and the
  // tuner flags them. With no grace period Gain deletes them; Gain (no
  // delete) runs the same tuner and keeps them all.
  auto run = [](IndexPolicy policy, int* flagged) {
    ServiceFixture f(policy, 5, /*horizon=*/60.0 * 60.0);
    ServiceOptions so;
    so.policy = policy;
    so.total_time = 60.0 * 60.0;
    so.deletion_grace_quanta = 0;
    so.tuner.sched.max_containers = 12;
    so.tuner.sched.skyline_cap = 3;
    QaasService service(&f.catalog, so);
    PhaseWorkloadClient phases(
        f.gen.get(), 60.0,
        {{AppType::kMontage, 20.0 * 60.0}, {AppType::kLigo, 1e9}}, 5);
    FlagCountingClient client(&phases, &f.catalog, &service, so.tuner);
    auto m = service.Run(&client);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    *flagged = client.flagged;
    return m.ok() ? m->indexes_deleted : -1;
  };
  int gain_flagged = 0;
  int keep_flagged = 0;
  EXPECT_GT(run(IndexPolicy::kGain, &gain_flagged), 0);
  EXPECT_EQ(run(IndexPolicy::kGainNoDelete, &keep_flagged), 0);
  EXPECT_GT(keep_flagged, 0);
}

TEST(ServiceTest, CheckInvariantsNamesTheLedgerThatSlips) {
  ServiceFixture f(IndexPolicy::kGain, 5, /*horizon=*/20.0 * 60.0);
  const ServiceMetrics m = f.RunMontage();
  ASSERT_GT(m.index_partitions_built, 0);
  EXPECT_EQ(f.service->CheckInvariants(m), ServiceSlack{});
  EXPECT_EQ(f.service->CheckInvariants(m).ToString(), "");

  // One tampered copy of the metrics per metrics-side ledger: exactly the
  // matching field moves, and ToString names it.
  const std::vector<std::tuple<std::string, void (*)(ServiceMetrics*),
                               int64_t ServiceSlack::*>>
      cases = {
          {"accounting", [](ServiceMetrics* t) { ++t->dataflows_arrived; },
           &ServiceSlack::accounting},
          {"speculation", [](ServiceMetrics* t) { ++t->ops_speculated; },
           &ServiceSlack::speculation},
          {"corruption", [](ServiceMetrics* t) { ++t->corruptions_injected; },
           &ServiceSlack::corruption},
          {"quarantine",
           [](ServiceMetrics* t) { ++t->partitions_quarantined; },
           &ServiceSlack::quarantine},
      };
  for (const auto& [name, tamper, field] : cases) {
    ServiceMetrics bad = m;
    tamper(&bad);
    ServiceSlack expected;
    expected.*field = 1;
    const ServiceSlack slack = f.service->CheckInvariants(bad);
    EXPECT_FALSE(slack.ok()) << name;
    EXPECT_EQ(slack, expected) << name << ": " << slack.ToString();
    EXPECT_EQ(slack.ToString(), "ledger slack: " + name + "=1");
  }

  // The catalog claims a partition built that storage never received (no
  // fault or update touches this run, so an unbuilt partition is unstored).
  std::string id;
  int pid = -1;
  for (const auto& idx : f.catalog.IndexIds()) {
    auto state = f.catalog.GetIndexState(idx);
    ASSERT_TRUE(state.ok());
    for (size_t p = 0; p < (*state)->num_partitions() && pid < 0; ++p) {
      if (!(*state)->part(p).built) {
        id = idx;
        pid = static_cast<int>(p);
      }
    }
    if (pid >= 0) break;
  }
  ASSERT_GE(pid, 0);
  ASSERT_TRUE(f.catalog.MarkIndexPartitionBuilt(id, pid, 0).ok());
  ServiceSlack expected;
  expected.unstored_partitions = 1;
  const ServiceSlack slack = f.service->CheckInvariants(m);
  EXPECT_EQ(slack, expected) << slack.ToString();
  EXPECT_EQ(slack.ToString(), "ledger slack: unstored_partitions=1");
}

TEST(ServiceTest, CostMetricCombinesVmAndStorage) {
  ServiceFixture f(IndexPolicy::kGain);
  ServiceMetrics m = f.RunMontage();
  PricingModel pricing;
  double cost = m.AvgCostQuantaPerDataflow(pricing);
  EXPECT_GE(cost,
            static_cast<double>(m.total_vm_quanta) / m.dataflows_finished);
}

}  // namespace
}  // namespace dfim
