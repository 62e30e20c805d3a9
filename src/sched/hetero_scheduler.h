#ifndef DFIM_SCHED_HETERO_SCHEDULER_H_
#define DFIM_SCHED_HETERO_SCHEDULER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dataflow/dag.h"
#include "sched/partial_state.h"
#include "sched/schedule.h"

namespace dfim {

/// \brief One provider VM type (the paper's future work: "evaluate the
/// benefits of index management for scenarios with heterogeneous cloud
/// resources"; §3 already notes "the scheduler can consider slots at
/// different VM types").
struct VmType {
  std::string name = "standard";
  /// Relative compute speed (1.0 = the homogeneous baseline container).
  double speed = 1.0;
  /// Dollars per pricing quantum.
  Dollars price_per_quantum = 0.1;
  /// Network bandwidth in MB/s.
  double net_mb_per_sec = 125.0;
};

/// \brief A schedule over typed containers: the assignment timeline plus
/// which VM type each container index uses and the dollar bill.
struct TypedSchedule {
  Schedule schedule;
  /// VM type index (into the type list) per container.
  std::vector<int> container_type;
  /// Total dollars: sum over containers of leased quanta x type price.
  Dollars money = 0;

  Seconds makespan() const { return schedule.makespan(); }
};

/// \brief Skyline list scheduler over a heterogeneous VM pool.
///
/// Same search as SkylineScheduler (gap insertion, (time, money) Pareto
/// pruning, flow staging), except every fresh container is tried at every
/// VM type: op runtimes scale with the type's speed, transfers with its
/// bandwidth, and money is charged at the type's own per-quantum price.
class HeteroSkylineScheduler {
 public:
  HeteroSkylineScheduler(SchedulerOptions options, std::vector<VmType> types)
      : opts_(options), types_(std::move(types)) {}

  /// Schedules `dag` (durations at speed 1.0, exclusive of transfers).
  /// Returns the (time, dollars) skyline, fastest first.
  Result<std::vector<TypedSchedule>> ScheduleDag(
      const Dag& dag, const std::vector<Seconds>& durations) const;

  const std::vector<VmType>& types() const { return types_; }

 private:
  SchedulerOptions opts_;
  std::vector<VmType> types_;
};

}  // namespace dfim

#endif  // DFIM_SCHED_HETERO_SCHEDULER_H_
