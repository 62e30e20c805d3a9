// The copy-everything skyline engine that `SkylineScheduler`'s probe/commit
// engine replaced, kept as a test oracle: every candidate placement deep-
// copies its base state and recomputes every money/gap summary from scratch
// over all containers. `test_sched_equivalence` compares the production
// scheduler with it schedule for schedule; `bench_sched_scale` and
// `bench_micro` time it against the production engine. It is not the
// seed's scheduler: the skyline rewrite that added the incremental engine
// also changed the prune, and this engine prunes like the rewrite. It is
// the engine the incremental one is proven against, so keep the bodies as
// they are. Its `NaiveState` holds every container by value, so no state
// can see another's containers.

#ifndef DFIM_TESTS_SKYLINE_ORACLE_H_
#define DFIM_TESTS_SKYLINE_ORACLE_H_

#include <algorithm>
#include <vector>

#include "common/result.h"
#include "dataflow/dag.h"
#include "sched/partial_state.h"
#include "sched/schedule.h"

namespace dfim::oracle {

/// A partial schedule held by value: every container's timeline and staged
/// producers are the state's own, so a candidate copies all of them.
struct NaiveState {
  std::vector<Timeline> timelines;
  std::vector<std::vector<int>> delivered;
  std::vector<Seconds> op_finish;
  std::vector<int> op_container;
  Seconds makespan = 0;
  int64_t money = 0;
  int num_ops = 0;
  Seconds max_gap = 0;
};

/// Rebuilds every summary of `s` (money, max_gap) from the timelines alone.
inline void RecomputeCaches(NaiveState* s, Seconds quantum) {
  s->money = 0;
  s->max_gap = 0;
  for (const Timeline& tl : s->timelines) {
    s->money += tl.Quanta(quantum);
    s->max_gap = std::max(s->max_gap, tl.MaxGap(quantum));
  }
}

/// Expands one candidate: deep-copies the base state, inserts the
/// assignment, then recomputes every summary over all containers.
inline bool NaiveAssign(const NaiveState& base, const Dag& dag,
                        const Operator& op, Seconds dur, int c,
                        Seconds quantum, double net, NaiveState* out) {
  Seconds est = 0;
  Seconds transfer_in = 0;
  std::vector<int> newly_delivered;
  const std::vector<int>* delivered_c =
      c < static_cast<int>(base.delivered.size())
          ? &base.delivered[static_cast<size_t>(c)]
          : nullptr;
  for (int fid : dag.in_flows(op.id)) {
    const Flow& f = dag.flows()[static_cast<size_t>(fid)];
    Seconds pf = base.op_finish[static_cast<size_t>(f.from)];
    if (pf < 0) return false;
    est = std::max(est, pf);
    if (base.op_container[static_cast<size_t>(f.from)] != c) {
      bool staged =
          delivered_c != nullptr &&
          std::binary_search(delivered_c->begin(), delivered_c->end(), f.from);
      if (!staged) {
        transfer_in += f.size / net;
        newly_delivered.push_back(f.from);
      }
    }
  }
  Seconds occupancy = dur + transfer_in;
  *out = base;
  if (c >= static_cast<int>(out->timelines.size())) {
    out->timelines.resize(static_cast<size_t>(c) + 1);
    out->delivered.resize(static_cast<size_t>(c) + 1);
  }
  auto& tl = out->timelines[static_cast<size_t>(c)];
  auto& dl = out->delivered[static_cast<size_t>(c)];
  for (int p : newly_delivered) {
    dl.insert(std::lower_bound(dl.begin(), dl.end(), p), p);
  }
  Seconds start = tl.FindSlot(est, occupancy);
  Assignment a;
  a.op_id = op.id;
  a.container = c;
  a.start = start;
  a.end = start + occupancy;
  a.optional = op.optional;
  tl.Insert(a);
  RecomputeCaches(out, quantum);
  if (op.optional) {
    if (out->money > base.money) return false;
  } else {
    out->makespan = std::max(base.makespan, a.end);
  }
  out->op_finish[static_cast<size_t>(op.id)] = a.end;
  out->op_container[static_cast<size_t>(op.id)] = c;
  out->num_ops = base.num_ops + 1;
  return true;
}

/// `SkylineScheduler(opts).ScheduleDag(dag, durations, place_optional)`
/// through the naive engine: materialize every candidate, then prune.
inline Result<std::vector<Schedule>> NaiveSkylineSchedule(
    const Dag& dag, const std::vector<Seconds>& durations,
    const SchedulerOptions& opts, bool place_optional) {
  if (durations.size() != dag.num_ops()) {
    return Status::InvalidArgument("durations size != number of ops");
  }
  DFIM_ASSIGN_OR_RETURN(std::vector<int> order, dag.TopologicalOrder());

  std::vector<int> mandatory;
  std::vector<int> optional;
  for (int id : order) {
    (dag.op(id).optional ? optional : mandatory).push_back(id);
  }
  std::stable_sort(optional.begin(), optional.end(), [&dag](int a, int b) {
    return dag.op(a).gain > dag.op(b).gain;
  });

  NaiveState empty;
  empty.op_finish.assign(dag.num_ops(), -1.0);
  empty.op_container.assign(dag.num_ops(), -1);
  std::vector<NaiveState> skyline{empty};

  auto expand_naive = [&opts, &dag, &durations, &skyline](int op_id,
                                                          bool keep_base) {
    const Operator& op = dag.op(op_id);
    Seconds dur = durations[static_cast<size_t>(op_id)];
    std::vector<NaiveState> pool;
    for (const NaiveState& base : skyline) {
      if (keep_base) pool.push_back(base);
      int used = static_cast<int>(base.timelines.size());
      int limit = std::min(opts.max_containers, used + 1);
      for (int c = 0; c < limit; ++c) {
        NaiveState next;
        if (NaiveAssign(base, dag, op, dur, c, opts.quantum,
                        opts.net_mb_per_sec, &next)) {
          pool.push_back(std::move(next));
        }
      }
    }
    if (!pool.empty()) {
      SkylinePrune(&pool, opts.skyline_cap);
      skyline = std::move(pool);
    }
  };

  for (int id : mandatory) expand_naive(id, /*keep_base=*/false);
  if (place_optional) {
    for (int id : optional) expand_naive(id, /*keep_base=*/true);
  }

  std::vector<Schedule> out;
  out.reserve(skyline.size());
  for (const NaiveState& p : skyline) {
    Schedule s;
    for (size_t c = 0; c < p.timelines.size(); ++c) {
      const Timeline& tl = p.timelines[c];
      for (size_t i = 0; i < tl.size(); ++i) {
        s.Add(tl.At(i, static_cast<int>(c)));
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace dfim::oracle

#endif  // DFIM_TESTS_SKYLINE_ORACLE_H_
