#include "sched/skyline_scheduler.h"

#include <algorithm>

namespace dfim {
namespace {

Schedule ToSchedule(const PartialState& p, const ContainerArena& arena) {
  Schedule s;
  for (size_t c = 0; c < p.containers.size(); ++c) {
    const Timeline& tl = arena[p.containers[c]].timeline;
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

  // Probe every candidate copy-free, prune the probes, materialize only
  // the survivors. Everything is pooled for the whole call: the probes,
  // the prune's sort positions, the container records, and two banks of state slots that take turns
  // as the skyline, of which the first `sky_n` are live.
  ContainerArena arena;
  std::vector<PartialState> skyline(1);
  skyline[0].Reset(dag.num_ops());
  size_t sky_n = 1;
  std::vector<PlacementProbe> probes;
  std::vector<uint32_t> prune_order;
  std::vector<PartialState> next_sky;

  auto expand = [this, &dag, &durations, &arena, &skyline, &sky_n, &probes,
                 &prune_order, &next_sky](int op_id, bool keep_base) {
    const Operator& op = dag.op(op_id);
    Seconds dur = durations[static_cast<size_t>(op_id)];
    // Per base: [keep-base?] then one probe per candidate container — the
    // copy-everything engine's enumeration order, which makes the whole
    // search bit-identical to it (tests/skyline_oracle.h).
    probes.clear();
    for (size_t b = 0; b < sky_n; ++b) {
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
      int used = static_cast<int>(base.containers.size());
      int limit = std::min(opts_.max_containers, used + 1);
      for (int c = 0; c < limit; ++c) {
        ProbePlacement(base, arena, static_cast<int>(b), dag, op, dur, c,
                       opts_.quantum, opts_.net_mb_per_sec,
                       &probes.emplace_back());
      }
    }
    probes.erase(std::remove_if(probes.begin(), probes.end(),
                                [](const PlacementProbe& p) { return !p.valid; }),
                 probes.end());
    if (probes.empty()) return;
    SkylinePrune(&probes, opts_.skyline_cap, &prune_order);
    if (next_sky.size() < probes.size()) next_sky.resize(probes.size());
    for (size_t i = 0; i < probes.size(); ++i) {
      const PlacementProbe& p = probes[i];
      const PartialState& base = skyline[static_cast<size_t>(p.base)];
      if (p.container == PlacementProbe::kKeepBase) {
        next_sky[i] = base;
      } else {
        CommitPlacement(base, dag, p, &arena, &next_sky[i]);
      }
    }
    skyline.swap(next_sky);
    sky_n = probes.size();
    arena.Collect(skyline.data(), sky_n);
  };

  for (int id : mandatory) expand(id, /*keep_base=*/false);
  if (place_optional) {
    for (int id : optional) expand(id, /*keep_base=*/true);
  }

  std::vector<Schedule> out;
  out.reserve(sky_n);
  for (size_t i = 0; i < sky_n; ++i) {
    out.push_back(ToSchedule(skyline[i], arena));
  }
  return out;
}

}  // namespace dfim
