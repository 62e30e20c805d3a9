#ifndef DFIM_CORE_TUNER_H_
#define DFIM_CORE_TUNER_H_

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/gain.h"
#include "core/interleave.h"
#include "core/what_if.h"
#include "data/catalog.h"
#include "dataflow/build_index_ops.h"
#include "dataflow/cost.h"
#include "dataflow/dataflow.h"
#include "sched/exec_simulator.h"

namespace dfim {

/// \brief Tuner configuration (paper Table 3 defaults).
struct TunerOptions {
  GainOptions gain;
  SchedulerOptions sched;
  /// Provider prices per `sched.quantum`.
  PricingModel pricing;
  InterleaveMode mode = InterleaveMode::kLp;
};

/// \brief Output of one tuning step (Algorithm 1's return values).
struct TunerDecision {
  /// The dataflow DAG with candidate build-index ops appended (optional).
  Dag combined;
  /// Estimated durations per combined op id (input transfer + CPU).
  std::vector<Seconds> durations;
  /// Execution-simulator costs per combined op id.
  std::vector<SimOpCost> costs;
  /// The selected schedule: the fastest of the interleaved skyline
  /// (Sdf + SBI), per §5.2.
  Schedule chosen;
  /// Indexes to delete (DI).
  std::vector<std::string> to_delete;
  /// Diagnostic: evaluated gains of every considered index.
  std::map<std::string, IndexGains> gains;
  /// Build ops included in `chosen`.
  int build_ops_scheduled = 0;
  /// Beneficial indexes excluded by the overload brownout cap (their build
  /// ops were never appended to `combined`).
  int builds_shed = 0;
};

/// The fastest schedule of `skyline`, its front (§5.2). Internal when the
/// skyline is empty; passes a scheduling error through.
Result<Schedule> FastestSchedule(Result<std::vector<Schedule>> skyline);

/// \brief Algorithm 1: Online Index Tuning.
///
/// On every issued dataflow, evaluates each potential index's gains
/// (Eq. 3-5) against the historical dataflows Hd plus a what-if estimate
/// for the issued dataflow, ranks beneficial ones, interleaves their build
/// ops into the dataflow's schedule, and flags non-beneficial available
/// indexes for deletion. Algorithm 1's periodic deletion-only trigger is
/// not implemented: indexes are flagged only when a dataflow is issued.
class OnlineIndexTuner {
 public:
  OnlineIndexTuner(Catalog* catalog, TunerOptions options);

  /// Runs the tuning step for the issued dataflow `df` at time `now`.
  /// `progress` (optional) enables resumable builds: build ops are emitted
  /// with their remaining (not full) build time. `build_fraction` in [0, 1]
  /// is the overload-brownout knob: it caps the beneficial-index list at
  /// ceil(fraction x size) highest-gain entries and shrinks the idle-slot
  /// knapsack by the same factor; 1.0 (the default) is bit-identical to
  /// the unthrottled path. `max_containers`, when positive, overrides the
  /// configured fleet cap for this one decision when smaller (the elastic
  /// fleet hands the tuner the containers it actually has, DESIGN.md §13);
  /// 0 (the default) keeps the configured cap.
  Result<TunerDecision> OnDataflow(const Dataflow& df,
                                   const std::deque<DataflowRecord>& history,
                                   Seconds now,
                                   const BuildProgress* progress = nullptr,
                                   double build_fraction = 1.0,
                                   int max_containers = 0) const;

  /// The what-if table of `df` under the catalog as it stands now.
  WhatIfTable WhatIf(const Dataflow& df) const;

  /// True when the index has at least one built partition.
  bool IsBuilt(const std::string& index_id) const;

  const TunerOptions& options() const { return opts_; }

 private:
  /// ti(idx): the index's total build time in quanta — a constant of the
  /// index, charged in Eq. 4-5 whether or not partitions are already built.
  double FullBuildQuanta(const std::string& index_id) const;

  /// One history record's gain for an index.
  struct HistoryUse {
    double gain_quanta = 0;
    Seconds finished_at = 0;
  };
  /// Each index named in `history`, with its uses in history order.
  using HistoryUses = std::map<std::string, std::vector<HistoryUse>>;
  static HistoryUses IndexHistory(const std::deque<DataflowRecord>& history);

  /// Eq. 3-5 over `uses` plus the issued dataflow's what-if gain
  /// (`current_gain`, counted when positive).
  IndexGains Evaluate(const std::string& index_id,
                      const std::vector<HistoryUse>& uses,
                      double current_gain, Seconds now) const;

  Catalog* catalog_;
  TunerOptions opts_;
  GainModel gain_model_;
};

/// \brief Builds the simulator costs + durations for a dataflow DAG under
/// the current catalog state (shared by the tuner and the baselines).
/// `dag`'s non-optional ops are `df.dag`'s, with the same ids; optional
/// (build) ops may follow them.
void BuildDataflowCosts(const Dag& dag, const Dataflow& df,
                        const Catalog& catalog, double net_mb_per_sec,
                        std::vector<Seconds>* durations,
                        std::vector<SimOpCost>* costs);

}  // namespace dfim

#endif  // DFIM_CORE_TUNER_H_
