#ifndef DFIM_SCHED_SKYLINE_SCHEDULER_H_
#define DFIM_SCHED_SKYLINE_SCHEDULER_H_

#include <vector>

#include "common/result.h"
#include "dataflow/dag.h"
#include "sched/partial_state.h"
#include "sched/schedule.h"

namespace dfim {

/// \brief The skyline dataflow scheduler (Algorithm 4) plus the optional-
/// operator extension used by online interleaving (§5.3.2).
///
/// Mandatory operators are assigned in topological order; each partial
/// schedule in the skyline is expanded over every candidate container (all
/// used ones plus one fresh). The new skyline keeps the non-dominated
/// (time, money) points; among equals the schedule with the largest
/// sequential idle slot wins (§5.3.1: "the schedule with the most
/// sequential idle compute time is selected"). Optional (index-build)
/// operators are then offered to every schedule: placements that would
/// increase time or money are discarded, and among equal (time, money)
/// points the schedule with more operators wins.
///
/// Operators are placed into the earliest gap that fits (insertion-based
/// list scheduling), so dependency stalls become usable idle slots.
///
/// Candidate expansion is two-phase: a copy-free *probe* evaluates every
/// (base, container) placement from the touched container's timeline plus
/// the per-container gap summaries, the skyline prune runs over the
/// lightweight probes, and only the <= skyline_cap survivors are
/// *committed*. A commit writes into a pooled state slot and copies only
/// the container it touches; the others stay shared with the base through
/// a call-local ContainerArena. The copy-everything engine it replaced is
/// the test oracle in tests/skyline_oracle.h; both return bit-identical
/// schedules.
class SkylineScheduler {
 public:
  explicit SkylineScheduler(SchedulerOptions options) : opts_(options) {}

  /// \brief Schedules `dag`, whose per-op effective durations (input
  /// transfer + CPU) are given by `durations`, indexed by op id.
  ///
  /// When `place_optional` is true, optional ops in the dag
  /// (OpKind::kBuildIndex / optional flag) are interleaved after all
  /// mandatory ops, best-gain first (the online interleaving algorithm);
  /// when false they are ignored (the LP interleaver packs them into idle
  /// slots itself). Returns the skyline ordered by makespan ascending
  /// (fastest first); never empty on success.
  Result<std::vector<Schedule>> ScheduleDag(
      const Dag& dag, const std::vector<Seconds>& durations,
      bool place_optional = true) const;

  const SchedulerOptions& options() const { return opts_; }

 private:
  SchedulerOptions opts_;
};

}  // namespace dfim

#endif  // DFIM_SCHED_SKYLINE_SCHEDULER_H_
