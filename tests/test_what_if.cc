/// `WhatIfTable` against the per-query path it replaced, with `==`.
///
/// The golden digests see decisions, not the gains behind them: a one-ulp
/// change to a gain rarely flips a threshold test or a ranking. So this
/// test watches the six golden configurations through a client hook and,
/// at every arrival, compares the table and the tuner with the oracle in
/// `what_if_oracle.h` against the run's catalog and history as they stand:
/// every potential index's gain and both marginal directions, every op's
/// current cost, and the decision's `IndexGains`, per-op costs and
/// deletions. A second test does the same over randomized catalog states
/// that the configurations reach rarely or never.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/tuner.h"
#include "core/what_if.h"
#include "golden_configs.h"
#include "what_if_oracle.h"

namespace dfim {
namespace {

bool Chance(Rng* rng, double p) { return rng->Uniform() < p; }

std::string TableName(int t) {
  std::string name = "t";
  name += std::to_string(t);
  return name;
}

void ExpectSameCost(const EffectiveCost& got, const EffectiveCost& want,
                    const std::string& where) {
  EXPECT_EQ(got.cpu_time, want.cpu_time) << where;
  EXPECT_EQ(got.input_mb, want.input_mb) << where;
  EXPECT_EQ(got.index_used, want.index_used) << where;
  EXPECT_EQ(got.index_fraction, want.index_fraction) << where;
}

void ExpectSameGains(const IndexGains& got, const IndexGains& want,
                     const std::string& where) {
  EXPECT_EQ(got.gt, want.gt) << where;
  EXPECT_EQ(got.gm, want.gm) << where;
  EXPECT_EQ(got.g, want.g) << where;
  EXPECT_EQ(got.beneficial, want.beneficial) << where;
  EXPECT_EQ(got.deletable, want.deletable) << where;
}

/// What one comparison covered.
struct Coverage {
  int64_t dataflows = 0;
  int64_t indexes = 0;          // potential indexes compared
  int64_t non_candidates = 0;   // potential indexes df does not name
  int64_t positive_gains = 0;   // nonzero oracle gains
  int64_t ops = 0;
  int64_t deletions = 0;        // indexes a decision flagged for deletion
};

/// Compares the new path with the oracle for `df` against `catalog` and
/// `history` as they stand; `now` is the decision time.
void CompareWithOracle(const Dataflow& df, Catalog* catalog,
                       const std::deque<DataflowRecord>& history,
                       const TunerOptions& opts, Seconds now,
                       Coverage* coverage) {
  const OnlineIndexTuner tuner(catalog, opts);
  const oracle::Tuner old(catalog, opts);
  const WhatIfTable table = tuner.WhatIf(df);
  const std::string at = "dataflow " + std::to_string(df.id) + " at " +
                         std::to_string(now) + ", index ";

  const std::set<std::string> potential = old.Potential(df, history);
  const std::set<std::string> candidates(df.candidate_indexes.begin(),
                                         df.candidate_indexes.end());
  for (const std::string& idx : potential) {
    const double gain = old.EstimateDataflowGain(df, idx);
    EXPECT_EQ(table.Gain(idx), gain) << at << idx;
    EXPECT_EQ(table.Marginal(idx, true), old.MarginalGainQuanta(df, idx, true))
        << at << idx;
    EXPECT_EQ(table.Marginal(idx, false),
              old.MarginalGainQuanta(df, idx, false))
        << at << idx;
    ++coverage->indexes;
    if (candidates.count(idx) == 0) ++coverage->non_candidates;
    if (gain != 0) ++coverage->positive_gains;
  }
  for (const Operator& op : df.dag.ops()) {
    ExpectSameCost(table.Current(op.id),
                   oracle::EffectiveOpCost(op, df, *catalog),
                   at + "op " + std::to_string(op.id));
    ++coverage->ops;
  }

  Result<TunerDecision> d = tuner.OnDataflow(df, history, now);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_EQ(d->gains.size(), potential.size()) << at;
  for (const auto& [idx, g] : d->gains) {
    ASSERT_EQ(potential.count(idx), 1u) << at << idx;
    ExpectSameGains(g, old.EvaluateIndex(idx, history, &df, now), at + idx);
  }
  for (const Operator& op : d->combined.ops()) {
    if (op.optional) continue;
    const EffectiveCost want = oracle::EffectiveOpCost(op, df, *catalog);
    const SimOpCost& got = d->costs[static_cast<size_t>(op.id)];
    EXPECT_EQ(got.cpu_time, want.cpu_time) << at << "op " << op.id;
    EXPECT_EQ(got.input_mb, want.input_mb) << at << "op " << op.id;
    EXPECT_EQ(got.index_used, want.index_used) << at << "op " << op.id;
  }
  // The decision deletes exactly the built indexes the oracle marks
  // deletable, in catalog order.
  std::vector<std::string> deletable;
  for (const std::string& idx : catalog->IndexIds()) {
    if (old.IsBuilt(idx) &&
        old.EvaluateIndex(idx, history, &df, now).deletable) {
      deletable.push_back(idx);
    }
  }
  EXPECT_EQ(d->to_delete, deletable) << at;
  coverage->deletions += static_cast<int64_t>(deletable.size());
  ++coverage->dataflows;
}

/// Passes the workload through, comparing each arrival with the oracle
/// against the service's catalog and history at the moment it is issued.
class ComparingClient : public WorkloadClient {
 public:
  ComparingClient(WorkloadClient* inner, Catalog* catalog,
                  const QaasService& service, TunerOptions opts,
                  Coverage* coverage)
      : inner_(inner),
        catalog_(catalog),
        service_(service),
        opts_(opts),
        coverage_(coverage) {}

  std::optional<Dataflow> Next(Seconds not_before, Seconds horizon) override {
    std::optional<Dataflow> df = inner_->Next(not_before, horizon);
    if (df.has_value()) {
      CompareWithOracle(*df, catalog_, service_.history(), opts_,
                        df->issued_at, coverage_);
    }
    return df;
  }

 private:
  WorkloadClient* inner_;
  Catalog* catalog_;
  const QaasService& service_;
  TunerOptions opts_;
  Coverage* coverage_;
};

TEST(WhatIfTest, GoldenConfigurationsMatchTheOracleAtEveryArrival) {
  Coverage coverage;
  golden::ClientHook hook = [&](WorkloadClient* inner, Catalog* catalog,
                                const QaasService& service,
                                const ServiceOptions& so)
      -> std::unique_ptr<WorkloadClient> {
    return std::make_unique<ComparingClient>(inner, catalog, service,
                                             so.tuner, &coverage);
  };
  const std::map<std::string, ServiceMetrics> outcomes = golden::RunAll(hook);

  // The watched runs are the golden runs: the hook changed nothing.
  const std::map<std::string, uint64_t> digests =
      golden::ReadGolden(DFIM_GOLDEN_FILE);
  ASSERT_EQ(outcomes.size(), digests.size());
  for (const auto& [name, metrics] : outcomes) {
    ASSERT_EQ(digests.count(name), 1u) << name;
    EXPECT_EQ(golden::Digest(metrics), digests.at(name)) << name;
  }
  EXPECT_GT(coverage.dataflows, 100);
  EXPECT_GT(coverage.non_candidates, 0);
  EXPECT_GT(coverage.positive_gains, 0);
  EXPECT_GT(coverage.ops, 0);
  EXPECT_GT(coverage.deletions, 0);
}

/// A small catalog whose states the golden runs reach rarely: partial
/// builds, stale partitions after an update, quarantined partitions,
/// indexes with the same definition (equal gains), candidate lists with
/// repeated and undefined ids, speedups at or below 1, and ops on missing
/// tables.
class RandomizedWhatIfTest : public ::testing::Test {
 protected:
  static constexpr int kTables = 3;

  void SetUp() override {
    Schema s({Column::Int32("k"), Column::Date("d"), Column::Char("pad", 111)});
    for (int t = 0; t < kTables; ++t) {
      Table table(TableName(t), s);
      table.PartitionBySize(600000 + 400000 * t, 32.0);
      parts_.push_back(static_cast<int>(table.num_partitions()));
      ASSERT_TRUE(catalog_.AddTable(std::move(table)).ok());
      const std::string name = TableName(t);
      // "_k" and "_k2" share a definition, so their gains tie exactly.
      for (const auto& [suffix, column] :
           std::vector<std::pair<std::string, std::string>>{
               {"_k", "k"}, {"_k2", "k"}, {"_d", "d"}}) {
        ASSERT_TRUE(
            catalog_.DefineIndex(IndexDef{name + suffix, name, {column}}).ok());
        ids_.push_back(name + suffix);
      }
    }
  }

  /// A fresh random state: each index unbuilt, partly built or fully
  /// built, then updates, rebuilds and quarantines. Returns how many built
  /// partitions an update invalidated.
  int Scramble(Rng* rng) {
    int invalidated = 0;
    for (const std::string& id : ids_) {
      EXPECT_TRUE(catalog_.DropIndex(id).ok());
      const double p_built = 0.5 * static_cast<double>(rng->UniformInt(0, 2));
      for (int p = 0; p < Parts(id); ++p) {
        if (Chance(rng, p_built)) {
          EXPECT_TRUE(catalog_.MarkIndexPartitionBuilt(id, p, 0).ok());
        }
      }
    }
    for (int t = 0; t < kTables; ++t) {
      if (!Chance(rng, 0.3)) continue;
      std::vector<int> updated;
      for (int p = 0; p < parts_[static_cast<size_t>(t)]; ++p) {
        if (Chance(rng, 0.5)) updated.push_back(p);
      }
      auto paths = catalog_.ApplyBatchUpdate(TableName(t), updated);
      EXPECT_TRUE(paths.ok());
      if (paths.ok()) invalidated += static_cast<int>(paths->size());
    }
    for (const std::string& id : ids_) {
      for (int p = 0; p < Parts(id); ++p) {
        if (Chance(rng, 0.05)) {
          EXPECT_TRUE(catalog_.MarkIndexPartitionBuilt(id, p, 0).ok());
        }
        if (Chance(rng, 0.1)) catalog_.QuarantinePartition(id, p);
      }
    }
    return invalidated;
  }

  /// Partitions of index `id`'s table ("t<n>_...").
  int Parts(const std::string& id) const {
    return parts_[static_cast<size_t>(id[1] - '0')];
  }

  Dataflow RandomDataflow(Rng* rng, int id) {
    static const double kSpeedups[] = {0.5, 1.0, 2.0, 7.44, 7.44, 94.44};
    Dataflow df;
    df.id = id;
    const int ops = static_cast<int>(rng->UniformInt(1, 10));
    for (int i = 0; i < ops; ++i) {
      Operator op;
      op.name = "op" + std::to_string(i);
      op.time = 10.0 * rng->UniformInt(1, 20);
      // -1: no table; kTables: a table the catalog does not have.
      const int table = static_cast<int>(rng->UniformInt(-1, kTables));
      if (table >= 0) op.input_table = TableName(table);
      op.optional = Chance(rng, 0.1);
      df.dag.AddOperator(op);
    }
    const int candidates = static_cast<int>(rng->UniformInt(0, 8));
    for (int i = 0; i < candidates; ++i) {
      const auto pick = static_cast<int>(
          rng->UniformInt(0, static_cast<int>(ids_.size())));
      const std::string idx = pick < static_cast<int>(ids_.size())
                                  ? ids_[static_cast<size_t>(pick)]
                                  : "undefined";
      df.candidate_indexes.push_back(idx);
      df.index_speedup[idx] = kSpeedups[rng->UniformInt(0, 5)];
    }
    // Half of the time a "_k" candidate brings its twin at the same
    // speedup, so their gains tie.
    for (int t = 0; t < kTables; ++t) {
      const std::string k = TableName(t) + "_k";
      if (df.index_speedup.count(k) && Chance(rng, 0.5)) {
        df.candidate_indexes.push_back(k + "2");
        df.index_speedup[k + "2"] = df.index_speedup[k];
      }
    }
    return df;
  }

  Catalog catalog_;
  std::vector<int> parts_;
  std::vector<std::string> ids_;
};

TEST_F(RandomizedWhatIfTest, RandomStatesMatchTheOracle) {
  Rng rng(20);
  Coverage coverage;
  int duplicates = 0;
  int partial = 0;
  int stale = 0;  // built partitions an update invalidated
  int quarantined = 0;
  int ties = 0;
  for (int trial = 0; trial < 200; ++trial) {
    stale += Scramble(&rng);
    TunerOptions opts;
    opts.sched.max_containers = 4;
    opts.gain.adaptive_fading = trial % 2 == 1;
    std::deque<DataflowRecord> history;
    const int records = static_cast<int>(rng.UniformInt(0, 6));
    for (int r = 0; r < records; ++r) {
      DataflowRecord rec;
      rec.finished_at = 60.0 * (trial + r);
      for (int g = 0; g < 3; ++g) {
        const auto pick = static_cast<int>(
            rng.UniformInt(0, static_cast<int>(ids_.size())));
        rec.gain[pick < static_cast<int>(ids_.size())
                     ? ids_[static_cast<size_t>(pick)]
                     : "retired"] = 0.5 * rng.UniformInt(1, 8);
      }
      history.push_back(rec);
    }
    const Dataflow df = RandomDataflow(&rng, trial);
    const Seconds now = 60.0 * (trial + 3);
    CompareWithOracle(df, &catalog_, history, opts, now, &coverage);

    const oracle::Tuner old(&catalog_, opts);
    std::set<std::string> seen;
    for (const std::string& idx : df.candidate_indexes) {
      if (!seen.insert(idx).second) ++duplicates;
    }
    for (int t = 0; t < kTables; ++t) {
      const std::string k = TableName(t) + "_k";
      const double gain = old.MarginalGainQuanta(df, k, false);
      if (gain > 0 && !old.IsBuilt(k) && !old.IsBuilt(k + "2") &&
          gain == old.MarginalGainQuanta(df, k + "2", false)) {
        ++ties;
      }
    }
    for (const std::string& id : ids_) {
      const double fraction = *catalog_.BuiltFraction(id);
      if (fraction > 0 && fraction < 1) ++partial;
    }
    quarantined += static_cast<int>(catalog_.quarantined().size());
  }
  EXPECT_GT(coverage.non_candidates, 0);
  EXPECT_GT(coverage.positive_gains, 0);
  EXPECT_GT(coverage.deletions, 0);
  EXPECT_GT(duplicates, 0);
  EXPECT_GT(partial, 0);
  EXPECT_GT(stale, 0);
  EXPECT_GT(quarantined, 0);
  EXPECT_GT(ties, 0);
}

}  // namespace
}  // namespace dfim
