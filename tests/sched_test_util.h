#ifndef DFIM_TESTS_SCHED_TEST_UTIL_H_
#define DFIM_TESTS_SCHED_TEST_UTIL_H_

#include <map>
#include <vector>

#include "dataflow/dag.h"
#include "sched/exec_simulator.h"
#include "sched/schedule.h"

namespace dfim {
namespace testutil {

/// Identity fault injection (no crash, notice or straggler) for `nc`
/// containers, ready for a test to set one container's faults.
inline FaultInjection IdentityFaults(int nc) {
  FaultInjection fi;
  fi.trace.containers.resize(static_cast<size_t>(nc));
  return fi;
}

/// Builds a diamond DAG: 0 -> {1, 2} -> 3, with the given op times and a
/// uniform flow size.
inline Dag Diamond(Seconds t0, Seconds t1, Seconds t2, Seconds t3,
                   MegaBytes flow = 0) {
  Dag g;
  for (Seconds t : {t0, t1, t2, t3}) {
    Operator op;
    op.time = t;
    g.AddOperator(std::move(op));
  }
  (void)g.AddFlow(0, 1, flow);
  (void)g.AddFlow(0, 2, flow);
  (void)g.AddFlow(1, 3, flow);
  (void)g.AddFlow(2, 3, flow);
  return g;
}

/// A chain 0 -> 1 -> ... -> n-1.
inline Dag Chain(int n, Seconds t, MegaBytes flow = 0) {
  Dag g;
  for (int i = 0; i < n; ++i) {
    Operator op;
    op.time = t;
    g.AddOperator(std::move(op));
  }
  for (int i = 0; i + 1 < n; ++i) (void)g.AddFlow(i, i + 1, flow);
  return g;
}

/// n independent ops of the same duration.
inline Dag Independent(int n, Seconds t) {
  Dag g;
  for (int i = 0; i < n; ++i) {
    Operator op;
    op.time = t;
    g.AddOperator(std::move(op));
  }
  return g;
}

/// Uniform durations vector for a dag (op.time as the duration).
inline std::vector<Seconds> OpTimes(const Dag& g) {
  std::vector<Seconds> d(g.num_ops());
  for (const auto& op : g.ops()) d[static_cast<size_t>(op.id)] = op.time;
  return d;
}

/// \brief Checks a schedule is valid for the dag: all mandatory ops placed
/// exactly once, no container overlap, and every op starts at or after each
/// parent's end plus the cross-container transfer time.
inline ::testing::AssertionResult ValidSchedule(
    const Dag& dag, const Schedule& s, const std::vector<Seconds>& durations,
    double net_mb_per_sec) {
  std::map<int, Assignment> by_op;
  for (const auto& a : s.assignments()) {
    if (by_op.count(a.op_id)) {
      return ::testing::AssertionFailure()
             << "op " << a.op_id << " assigned twice";
    }
    by_op[a.op_id] = a;
  }
  for (const auto& op : dag.ops()) {
    if (op.optional) continue;
    if (!by_op.count(op.id)) {
      return ::testing::AssertionFailure()
             << "mandatory op " << op.id << " not scheduled";
    }
  }
  if (!s.CheckNoOverlap()) {
    return ::testing::AssertionFailure() << "container overlap";
  }
  for (const auto& [id, a] : by_op) {
    Seconds dur = durations[static_cast<size_t>(id)];
    if (a.end - a.start < dur - 1e-6) {
      return ::testing::AssertionFailure()
             << "op " << id << " window shorter than duration";
    }
    // The op may not start before any parent finishes. (Cross-container
    // transfers extend the op's occupancy, but staged outputs are free, so
    // only the lower bound `window >= duration` is placement-independent.)
    (void)net_mb_per_sec;
    for (int fid : dag.in_flows(id)) {
      const Flow& f = dag.flows()[static_cast<size_t>(fid)];
      auto it = by_op.find(f.from);
      if (it == by_op.end()) continue;
      if (a.start < it->second.end - 1e-6) {
        return ::testing::AssertionFailure()
               << "op " << id << " starts at " << a.start << " before parent "
               << f.from << " finishes at " << it->second.end;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// True when no schedule in the set dominates another (strictly better in
/// one of time/money and not worse in the other).
inline ::testing::AssertionResult NonDominatedSet(
    const std::vector<Schedule>& skyline, Seconds quantum) {
  for (size_t i = 0; i < skyline.size(); ++i) {
    for (size_t j = 0; j < skyline.size(); ++j) {
      if (i == j) continue;
      Seconds ti = skyline[i].makespan(), tj = skyline[j].makespan();
      int64_t mi = skyline[i].LeasedQuanta(quantum);
      int64_t mj = skyline[j].LeasedQuanta(quantum);
      bool better_or_equal = ti <= tj + 1e-9 && mi <= mj;
      bool strictly_better = ti < tj - 1e-9 || mi < mj;
      if (better_or_equal && strictly_better) {
        return ::testing::AssertionFailure()
               << "schedule " << j << " (t=" << tj << ",m=" << mj
               << ") dominated by " << i << " (t=" << ti << ",m=" << mi << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testutil
}  // namespace dfim

#endif  // DFIM_TESTS_SCHED_TEST_UTIL_H_
