// The per-query what-if path that `WhatIfTable` replaced, kept as a test
// oracle: every query walks the catalog and the candidate list again.
// `test_what_if` compares the table with it using `==`; the bodies are the
// ones the tuner ran before the table existed, so keep them as they are.

#ifndef DFIM_TESTS_WHAT_IF_ORACLE_H_
#define DFIM_TESTS_WHAT_IF_ORACLE_H_

#include <algorithm>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "core/gain.h"
#include "core/tuner.h"
#include "data/catalog.h"
#include "dataflow/cost.h"
#include "dataflow/dataflow.h"

namespace dfim::oracle {

/// Scales cost for an index with speedup `s` covering fraction `phi`.
inline double Scale(double phi, double s) { return (1.0 - phi) + phi / s; }

inline EffectiveCost CostWith(const Operator& op, const Dataflow& df,
                              const Catalog& catalog,
                              const std::string& index_id,
                              double forced_fraction) {
  EffectiveCost base;
  base.cpu_time = op.time;
  base.input_mb = 0;
  if (op.input_table.empty()) return base;
  auto table = catalog.GetTable(op.input_table);
  if (!table.ok()) return base;
  MegaBytes file_mb = (*table)->TotalSize();
  base.input_mb = file_mb;
  if (index_id.empty()) return base;

  double phi = forced_fraction;
  MegaBytes idx_mb = 0;
  if (phi < 0) {  // use the real catalog state
    auto frac = catalog.BuiltFraction(index_id);
    if (!frac.ok()) return base;
    phi = *frac;
    auto built = catalog.BuiltSize(index_id);
    idx_mb = built.ok() ? *built : 0;
  } else {
    auto full = catalog.FullSize(index_id);
    idx_mb = full.ok() ? *full * phi : 0;
  }
  if (phi <= 0) return base;

  double s = df.SpeedupOf(index_id);
  if (s <= 1.0) return base;
  EffectiveCost out;
  out.cpu_time = op.time * Scale(phi, s);
  out.input_mb = file_mb * Scale(phi, s) + idx_mb;
  out.index_used = index_id;
  out.index_fraction = phi;
  return out;
}

/// The op's cost under the currently built indexes, optionally excluding
/// one candidate (`exclude`, as if dropped) and/or treating one as fully
/// built (`include`).
inline EffectiveCost EffectiveOpCostFiltered(const Operator& op,
                                             const Dataflow& df,
                                             const Catalog& catalog,
                                             const std::string& exclude,
                                             const std::string& include) {
  EffectiveCost best = BaseOpCost(op, catalog);
  if (op.input_table.empty()) return best;
  for (const auto& idx : df.candidate_indexes) {
    if (idx == exclude) continue;
    auto def = catalog.GetIndexDef(idx);
    if (!def.ok() || (*def)->table != op.input_table) continue;
    EffectiveCost c =
        CostWith(op, df, catalog, idx, idx == include ? 1.0 : -1.0);
    if (c.cpu_time < best.cpu_time) best = c;
  }
  return best;
}

inline EffectiveCost EffectiveOpCost(const Operator& op, const Dataflow& df,
                                     const Catalog& catalog) {
  return EffectiveOpCostFiltered(op, df, catalog, "", "");
}

/// The op's cost pretending `forced_index` is fully built.
inline EffectiveCost EffectiveOpCostWithIndex(const Operator& op,
                                              const Dataflow& df,
                                              const Catalog& catalog,
                                              const std::string& forced_index) {
  auto def = catalog.GetIndexDef(forced_index);
  if (!def.ok() || (*def)->table != op.input_table) {
    return BaseOpCost(op, catalog);
  }
  return CostWith(op, df, catalog, forced_index, 1.0);
}

/// The old tuner's what-if queries and history scan, over one catalog.
class Tuner {
 public:
  Tuner(const Catalog* catalog, TunerOptions options)
      : catalog_(catalog),
        opts_(options),
        gain_model_(options.gain, options.pricing) {}

  double MarginalGainQuanta(const Dataflow& df, const std::string& index_id,
                            bool built) const {
    auto def = catalog_->GetIndexDef(index_id);
    if (!def.ok()) return 0;
    double net = opts_.sched.net_mb_per_sec;
    double saving = 0;
    for (const auto& op : df.dag.ops()) {
      if (op.optional || op.input_table != (*def)->table) continue;
      EffectiveCost a, b;
      if (built) {
        a = EffectiveOpCostFiltered(op, df, *catalog_, index_id, "");
        b = EffectiveOpCostFiltered(op, df, *catalog_, "", "");
      } else {
        a = EffectiveOpCostFiltered(op, df, *catalog_, "", "");
        b = EffectiveOpCostFiltered(op, df, *catalog_, "", index_id);
      }
      double delta =
          (a.cpu_time + a.input_mb / net) - (b.cpu_time + b.input_mb / net);
      if (delta > 0) saving += delta;
    }
    return saving / opts_.sched.quantum;
  }

  bool IsBuilt(const std::string& index_id) const {
    auto st = catalog_->GetIndexState(index_id);
    return st.ok() && (*st)->NumBuilt() > 0;
  }

  double EstimateDataflowGain(const Dataflow& df,
                              const std::string& index_id) const {
    auto def = catalog_->GetIndexDef(index_id);
    if (!def.ok()) return 0;
    if (IsBuilt(index_id)) {
      return MarginalGainQuanta(df, index_id, /*built=*/true);
    }
    double my = MarginalGainQuanta(df, index_id, /*built=*/false);
    if (my <= 0) return 0;
    auto my_size = catalog_->FullSize(index_id);
    for (const auto& other : df.candidate_indexes) {
      if (other == index_id || IsBuilt(other)) continue;
      auto odef = catalog_->GetIndexDef(other);
      if (!odef.ok() || (*odef)->table != (*def)->table) continue;
      double others = MarginalGainQuanta(df, other, /*built=*/false);
      if (others > my) return 0;
      if (others == my) {
        auto osize = catalog_->FullSize(other);
        MegaBytes mine = my_size.ok() ? *my_size : 0;
        MegaBytes theirs = osize.ok() ? *osize : 0;
        if (theirs < mine || (theirs == mine && other < index_id)) return 0;
      }
    }
    return my;
  }

  IndexGains EvaluateIndex(const std::string& index_id,
                           const std::deque<DataflowRecord>& history,
                           const Dataflow* current, Seconds now) const {
    std::vector<GainContribution> uses;
    std::vector<double> reference_times;
    for (const auto& rec : history) {
      auto it = rec.gain.find(index_id);
      if (it == rec.gain.end()) continue;
      GainContribution c;
      c.gtd_quanta = it->second;
      c.gmd_quanta = it->second;
      c.delta_t_quanta = (now - rec.finished_at) / opts_.sched.quantum;
      if (c.delta_t_quanta < 0) c.delta_t_quanta = 0;
      uses.push_back(c);
      reference_times.push_back(rec.finished_at / opts_.sched.quantum);
    }
    if (current != nullptr) {
      double est = EstimateDataflowGain(*current, index_id);
      if (est > 0) uses.push_back(GainContribution{est, est, 0});
    }
    auto t = catalog_->FullBuildTime(index_id, opts_.sched.net_mb_per_sec);
    double ti = t.ok() ? *t / opts_.sched.quantum : 0;
    auto size = catalog_->FullSize(index_id);
    double d_override = 0;
    if (opts_.gain.adaptive_fading && reference_times.size() >= 2) {
      double gap_sum = 0;
      for (size_t i = 1; i < reference_times.size(); ++i) {
        gap_sum += reference_times[i] - reference_times[i - 1];
      }
      double mean_gap =
          gap_sum / static_cast<double>(reference_times.size() - 1);
      d_override = std::clamp(mean_gap, opts_.gain.fade_d_quanta,
                              kAdaptiveFadingMaxQuanta);
    }
    return gain_model_.Evaluate(uses, ti, /*build_cost_quanta=*/ti,
                                size.ok() ? *size : 0, d_override);
  }

  /// The potential set Pi: candidates, indexes in the history, and every
  /// index with built partitions.
  std::set<std::string> Potential(const Dataflow& df,
                                  const std::deque<DataflowRecord>& history)
      const {
    std::set<std::string> potential(df.candidate_indexes.begin(),
                                    df.candidate_indexes.end());
    for (const auto& rec : history) {
      for (const auto& [idx, _] : rec.gain) potential.insert(idx);
    }
    for (const auto& idx : catalog_->IndexIds()) {
      if (IsBuilt(idx)) potential.insert(idx);
    }
    return potential;
  }

 private:
  const Catalog* catalog_;
  TunerOptions opts_;
  GainModel gain_model_;
};

}  // namespace dfim::oracle

#endif  // DFIM_TESTS_WHAT_IF_ORACLE_H_
