#ifndef DFIM_CORE_INTERLEAVE_H_
#define DFIM_CORE_INTERLEAVE_H_

#include <vector>

#include "common/result.h"
#include "dataflow/dag.h"
#include "sched/schedule.h"
#include "sched/skyline_scheduler.h"

namespace dfim {

/// Which interleaving algorithm the tuner/service uses (paper §5.3).
enum class InterleaveMode {
  /// Algorithm 2: schedule the dataflow, then knapsack build ops into idle
  /// slots (linear program based interleaving).
  kLp,
  /// §5.3.2: schedule build ops as optional operators inside Algorithm 4.
  kOnline,
};

/// \brief Interleaves dataflow and build-index operators without increasing
/// the dataflow's time or money.
///
/// The input `dag` contains the dataflow's mandatory operators plus the
/// candidate build-index operators appended as optional ops (no edges —
/// index partitions are independent). `durations` is indexed by op id and
/// already reflects available indexes (Algorithm 2, lines 1-5).
class Interleaver {
 public:
  Interleaver(SchedulerOptions options, InterleaveMode mode)
      : scheduler_(options), mode_(mode) {}

  /// \brief Returns the skyline of schedules, each containing the dataflow
  /// assignments and whatever build ops were interleaved.
  ///
  /// `build_fraction` in [0, 1] is the overload-brownout knob: it scales
  /// the idle-slot capacity offered to the build-op knapsack (kLp), so
  /// under queue pressure fewer optional builds ride along. 1.0 (the
  /// default) is bit-identical to the unthrottled path; 0 packs nothing.
  /// kOnline mode is throttled upstream (the tuner caps the candidate
  /// list), since its optional ops are placed inside the skyline search.
  Result<std::vector<Schedule>> Interleave(
      const Dag& dag, const std::vector<Seconds>& durations,
      double build_fraction = 1.0) const;

  /// \brief The LP packing step alone (Algorithm 2, lines 7-18): packs the
  /// given build ops into the idle slots of `schedule` by per-slot 0/1
  /// knapsack, highest-gain-first within each slot. `capacity_fraction`
  /// scales the capacity of every idle slot (brownout; 1.0 = full slots).
  ///
  /// Returns the schedule with the chosen build assignments appended.
  Schedule PackIntoIdleSlots(const Schedule& schedule, const Dag& dag,
                             const std::vector<Seconds>& durations,
                             const std::vector<int>& build_op_ids,
                             double capacity_fraction = 1.0) const;

  InterleaveMode mode() const { return mode_; }
  const SchedulerOptions& scheduler_options() const {
    return scheduler_.options();
  }

 private:
  SkylineScheduler scheduler_;
  InterleaveMode mode_;
};

}  // namespace dfim

#endif  // DFIM_CORE_INTERLEAVE_H_
