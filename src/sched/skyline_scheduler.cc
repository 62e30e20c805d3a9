#include "sched/skyline_scheduler.h"

#include <algorithm>

namespace dfim {
namespace {

/// \brief Retained naive reference expansion of one candidate: deep-copies
/// the base state, inserts the assignment, then recomputes every money/gap
/// summary from scratch over all containers.
///
/// This is the pre-incremental O(|state| + containers x |timelines|) hot
/// path; it is kept (behind SchedulerOptions::use_naive_expansion) as the
/// ground truth the equivalence tests and the scaling bench compare the
/// incremental engine against.
bool NaiveAssign(const PartialState& base, const Dag& dag, const Operator& op,
                 Seconds dur, int c, Seconds quantum, double net,
                 PartialState* out) {
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
  out->RecomputeCaches(quantum);
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

Schedule ToSchedule(const PartialState& p) {
  Schedule s;
  for (size_t c = 0; c < p.timelines.size(); ++c) {
    const Timeline& tl = p.timelines[c];
    for (size_t i = 0; i < tl.size(); ++i) {
      s.Add(tl.At(i, static_cast<int>(c)));
    }
  }
  return s;
}

}  // namespace

Result<std::vector<Schedule>> SkylineScheduler::ScheduleDag(
    const Dag& dag, const std::vector<Seconds>& durations,
    bool place_optional) const {
  if (durations.size() != dag.num_ops()) {
    return Status::InvalidArgument("durations size != number of ops");
  }
  DFIM_ASSIGN_OR_RETURN(std::vector<int> order, dag.TopologicalOrder());

  // Split mandatory (scheduled in topological order) from optional ops
  // (offered afterwards, best gain first).
  std::vector<int> mandatory;
  std::vector<int> optional;
  for (int id : order) {
    (dag.op(id).optional ? optional : mandatory).push_back(id);
  }
  std::stable_sort(optional.begin(), optional.end(), [&dag](int a, int b) {
    return dag.op(a).gain > dag.op(b).gain;
  });

  PartialState empty;
  empty.Reset(dag.num_ops());
  std::vector<PartialState> skyline{empty};

  // Naive reference engine: materialize every candidate, then prune.
  auto expand_naive = [this, &dag, &durations, &skyline](int op_id,
                                                         bool keep_base) {
    const Operator& op = dag.op(op_id);
    Seconds dur = durations[static_cast<size_t>(op_id)];
    std::vector<PartialState> pool;
    for (const PartialState& base : skyline) {
      if (keep_base) pool.push_back(base);
      int used = static_cast<int>(base.timelines.size());
      int limit = std::min(opts_.max_containers, used + 1);
      for (int c = 0; c < limit; ++c) {
        PartialState next;
        if (NaiveAssign(base, dag, op, dur, c, opts_.quantum,
                        opts_.net_mb_per_sec, &next)) {
          pool.push_back(std::move(next));
        }
      }
    }
    if (!pool.empty()) {
      SkylinePrune(&pool, opts_.skyline_cap);
      skyline = std::move(pool);
    }
  };

  // Incremental engine: probe every candidate copy-free, prune the probes,
  // materialize only the survivors. Buffers are pooled across rounds.
  std::vector<PlacementProbe> probes;
  std::vector<PartialState> next_sky;

  auto expand = [this, &dag, &durations, &skyline, &probes,
                 &next_sky](int op_id, bool keep_base) {
    const Operator& op = dag.op(op_id);
    Seconds dur = durations[static_cast<size_t>(op_id)];
    // Per base: [keep-base?] then one probe per candidate container — the
    // naive enumeration order, which makes the whole search bit-identical
    // to naive runs.
    probes.clear();
    for (size_t b = 0; b < skyline.size(); ++b) {
      const PartialState& base = skyline[b];
      if (keep_base) {
        PlacementProbe& out = probes.emplace_back();
        out.base = static_cast<int>(b);
        out.container = PlacementProbe::kKeepBase;
        out.makespan = base.makespan;
        out.money = base.money;
        out.num_ops = base.num_ops;
        out.max_gap = base.max_gap;
        out.valid = true;
      }
      int used = static_cast<int>(base.timelines.size());
      int limit = std::min(opts_.max_containers, used + 1);
      for (int c = 0; c < limit; ++c) {
        ProbePlacement(base, static_cast<int>(b), dag, op, dur, c,
                       opts_.quantum, opts_.net_mb_per_sec,
                       &probes.emplace_back());
      }
    }
    probes.erase(std::remove_if(probes.begin(), probes.end(),
                                [](const PlacementProbe& p) { return !p.valid; }),
                 probes.end());
    if (probes.empty()) return;
    SkylinePrune(&probes, opts_.skyline_cap);
    next_sky.clear();
    next_sky.reserve(probes.size());
    for (const PlacementProbe& p : probes) {
      if (p.container == PlacementProbe::kKeepBase) {
        next_sky.push_back(skyline[static_cast<size_t>(p.base)]);
      } else {
        next_sky.emplace_back();
        CommitPlacement(skyline[static_cast<size_t>(p.base)], dag, p,
                        opts_.quantum, &next_sky.back());
      }
    }
    skyline.swap(next_sky);
  };

  if (opts_.use_naive_expansion) {
    for (int id : mandatory) expand_naive(id, /*keep_base=*/false);
    if (place_optional) {
      for (int id : optional) expand_naive(id, /*keep_base=*/true);
    }
  } else {
    for (int id : mandatory) expand(id, /*keep_base=*/false);
    if (place_optional) {
      for (int id : optional) expand(id, /*keep_base=*/true);
    }
  }

  std::vector<Schedule> out;
  out.reserve(skyline.size());
  for (const PartialState& p : skyline) out.push_back(ToSchedule(p));
  return out;
}

}  // namespace dfim
