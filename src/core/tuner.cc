#include "core/tuner.h"

#include <algorithm>
#include <utility>

#include "dataflow/build_index_ops.h"

namespace dfim {
namespace {

/// Cache key for an op's external input under the current catalog state:
/// table path + versions + the index it reads alongside.
std::string CacheKeyFor(const Operator& op, const EffectiveCost& cost,
                        const Catalog& catalog) {
  if (op.input_table.empty()) return "";
  int64_t version_sum = 0;
  auto table = catalog.GetTable(op.input_table);
  if (table.ok()) {
    for (const auto& p : (*table)->partitions()) version_sum += p.version;
  }
  std::string key = op.input_table + "|v" + std::to_string(version_sum);
  if (!cost.index_used.empty()) key += "|" + cost.index_used;
  return key;
}

/// BuildDataflowCosts with the dataflow's what-if table already built.
void FillCosts(const Dag& dag, const WhatIfTable& what_if,
               const Catalog& catalog, double net_mb_per_sec,
               std::vector<Seconds>* durations, std::vector<SimOpCost>* costs) {
  durations->assign(dag.num_ops(), 0);
  costs->assign(dag.num_ops(), SimOpCost{});
  for (const auto& op : dag.ops()) {
    auto i = static_cast<size_t>(op.id);
    if (op.optional) {
      // Build ops: the cost model's build time already includes their IO.
      (*durations)[i] = op.time;
      (*costs)[i] = SimOpCost{op.time, 0, ""};
      continue;
    }
    EffectiveCost c = what_if.Current(op.id);
    (*durations)[i] = c.cpu_time + c.input_mb / net_mb_per_sec;
    SimOpCost& sc = (*costs)[i];
    sc.cpu_time = c.cpu_time;
    sc.input_mb = c.input_mb;
    sc.cache_key = CacheKeyFor(op, c, catalog);
    // Which index backs the read — the integrity layer binds verification
    // verdicts per distinct index (empty = base scan, nothing to verify).
    sc.index_used = c.index_used;
  }
}

}  // namespace

Result<Schedule> FastestSchedule(Result<std::vector<Schedule>> skyline) {
  if (!skyline.ok()) return skyline.status();
  if (skyline->empty()) return Status::Internal("empty schedule skyline");
  return std::move(skyline->front());
}

void BuildDataflowCosts(const Dag& dag, const Dataflow& df,
                        const Catalog& catalog, double net_mb_per_sec,
                        std::vector<Seconds>* durations,
                        std::vector<SimOpCost>* costs) {
  // Only the per-op costs are read, so the quantum is immaterial.
  FillCosts(dag, WhatIfTable(df, catalog, net_mb_per_sec, /*quantum=*/1.0),
            catalog, net_mb_per_sec, durations, costs);
}

OnlineIndexTuner::OnlineIndexTuner(Catalog* catalog, TunerOptions options)
    : catalog_(catalog),
      opts_(options),
      gain_model_(options.gain, options.pricing) {
  // The interleaver's skyline must keep at least one survivor per round.
  opts_.sched.skyline_cap = std::max(1, opts_.sched.skyline_cap);
}

WhatIfTable OnlineIndexTuner::WhatIf(const Dataflow& df) const {
  return WhatIfTable(df, *catalog_, opts_.sched.net_mb_per_sec,
                     opts_.sched.quantum);
}

bool OnlineIndexTuner::IsBuilt(const std::string& index_id) const {
  auto st = catalog_->GetIndexState(index_id);
  return st.ok() && (*st)->NumBuilt() > 0;
}

double OnlineIndexTuner::FullBuildQuanta(const std::string& index_id) const {
  // ti(idx) is a constant of the index (Eq. 5 / Table 1), not the remaining
  // work: a built index keeps justifying its build effort against its faded
  // gains, which is exactly what lets gt(idx, t) drop to <= 0 and trigger
  // deletion once the workload moves on.
  auto t = catalog_->FullBuildTime(index_id, opts_.sched.net_mb_per_sec);
  return t.ok() ? *t / opts_.sched.quantum : 0;
}

OnlineIndexTuner::HistoryUses OnlineIndexTuner::IndexHistory(
    const std::deque<DataflowRecord>& history) {
  HistoryUses out;
  for (const auto& rec : history) {
    for (const auto& [idx, gain] : rec.gain) {
      out[idx].push_back(HistoryUse{gain, rec.finished_at});
    }
  }
  return out;
}

IndexGains OnlineIndexTuner::Evaluate(const std::string& index_id,
                                      const std::vector<HistoryUse>& uses,
                                      double current_gain, Seconds now) const {
  std::vector<GainContribution> contributions;
  std::vector<double> reference_times;  // quanta, for adaptive fading
  contributions.reserve(uses.size() + 1);
  reference_times.reserve(uses.size());
  for (const HistoryUse& use : uses) {
    GainContribution c;
    c.gtd_quanta = use.gain_quanta;
    c.gmd_quanta = use.gain_quanta;
    c.delta_t_quanta = (now - use.finished_at) / opts_.sched.quantum;
    if (c.delta_t_quanta < 0) c.delta_t_quanta = 0;
    contributions.push_back(c);
    reference_times.push_back(use.finished_at / opts_.sched.quantum);
  }
  if (current_gain > 0) {
    contributions.push_back(GainContribution{current_gain, current_gain, 0});
  }
  double ti = FullBuildQuanta(index_id);
  auto size = catalog_->FullSize(index_id);
  double d_override = 0;
  if (opts_.gain.adaptive_fading && reference_times.size() >= 2) {
    // Learn D from the index's mean inter-reference gap: an index used
    // every G quanta should not be fully faded between uses.
    double gap_sum = 0;
    for (size_t i = 1; i < reference_times.size(); ++i) {
      gap_sum += reference_times[i] - reference_times[i - 1];
    }
    double mean_gap = gap_sum / static_cast<double>(reference_times.size() - 1);
    d_override = std::clamp(mean_gap, opts_.gain.fade_d_quanta,
                            kAdaptiveFadingMaxQuanta);
  }
  return gain_model_.Evaluate(contributions, ti, /*build_cost_quanta=*/ti,
                              size.ok() ? *size : 0, d_override);
}

Result<TunerDecision> OnlineIndexTuner::OnDataflow(
    const Dataflow& df, const std::deque<DataflowRecord>& history, Seconds now,
    const BuildProgress* progress, double build_fraction,
    int max_containers) const {
  TunerDecision d;

  // The potential set Pi: the indexes seen in the history window (with
  // their uses) plus the dataflow's candidates plus everything built.
  HistoryUses potential = IndexHistory(history);
  for (const auto& idx : df.candidate_indexes) potential[idx];
  std::vector<std::string> available;  // Ai: indexes with built partitions
  for (const auto& idx : catalog_->IndexIds()) {
    auto st = catalog_->GetIndexState(idx);
    if (st.ok() && (*st)->NumBuilt() > 0) {
      available.push_back(idx);
      potential[idx];
    }
  }

  // Lines 2-9: evaluate gains, collect beneficial indexes.
  const WhatIfTable what_if = WhatIf(df);
  std::vector<std::pair<std::string, double>> beneficial;  // (idx, g)
  for (const auto& [idx, uses] : potential) {
    IndexGains g = Evaluate(idx, uses, what_if.Gain(idx), now);
    d.gains[idx] = g;
    if (g.beneficial) beneficial.emplace_back(idx, g.g);
  }
  std::stable_sort(
      beneficial.begin(), beneficial.end(),
      [](const auto& a, const auto& b) { return a.second > b.second; });

  // Overload brownout: under queue pressure only the top fraction of
  // beneficial indexes (by gain) keeps its build ops; the rest are shed
  // before any build op is materialized.
  if (build_fraction < 1.0 && !beneficial.empty()) {
    auto keep = static_cast<size_t>(std::ceil(
        std::max(0.0, build_fraction) * static_cast<double>(beneficial.size())));
    if (keep < beneficial.size()) {
      d.builds_shed = static_cast<int>(beneficial.size() - keep);
      beneficial.resize(keep);
    }
  }

  // Build the combined DAG: dataflow ops + build ops of beneficial indexes.
  d.combined = df.dag;
  int next_id = static_cast<int>(d.combined.num_ops());
  for (const auto& [idx, g] : beneficial) {
    auto ops = MakeBuildIndexOps(*catalog_, idx, opts_.sched.net_mb_per_sec,
                                 &next_id, progress);
    if (!ops.ok() || ops->empty()) continue;
    double per_op_gain = g / static_cast<double>(ops->size());
    for (auto& op : *ops) {
      op.gain = per_op_gain;
      d.combined.AddOperator(std::move(op));
    }
  }
  FillCosts(d.combined, what_if, *catalog_, opts_.sched.net_mb_per_sec,
            &d.durations, &d.costs);

  // Lines 10-11: interleave and select the fastest schedule, never
  // planning onto containers the elastic fleet does not have.
  const Interleaver interleaver(WithinFleet(opts_.sched, max_containers),
                                opts_.mode);
  DFIM_ASSIGN_OR_RETURN(
      d.chosen, FastestSchedule(interleaver.Interleave(d.combined, d.durations,
                                                       build_fraction)));
  for (const auto& a : d.chosen.assignments()) {
    if (a.optional) ++d.build_ops_scheduled;
  }

  // Lines 13-19: flag non-beneficial available indexes for deletion.
  if (opts_.delete_nonbeneficial) {
    for (const auto& idx : available) {
      auto it = d.gains.find(idx);
      if (it != d.gains.end() && it->second.deletable) {
        d.to_delete.push_back(idx);
      }
    }
  }
  return d;
}

}  // namespace dfim
