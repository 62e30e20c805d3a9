#include "sched/hetero_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/partial_state.h"

namespace dfim {
namespace {

/// Typed partial schedule with cached per-container lease summaries, so
/// probing a candidate never rescans untouched containers (same two-phase
/// probe/commit structure as the homogeneous SkylineScheduler).
struct HeteroPartial {
  std::vector<Timeline> timelines;
  std::vector<int> ctype;  // VM type per used container
  std::vector<std::vector<int>> delivered;
  std::vector<Seconds> op_finish;
  std::vector<int> op_container;
  /// Cached per-container summaries.
  std::vector<Seconds> last_end;
  std::vector<int64_t> quanta;
  Seconds makespan = 0;
  Dollars money = 0;
  int num_ops = 0;
};

/// A probed (base, container, type) placement; trivially copyable so the
/// probe pool is reused across rounds with no per-candidate allocation.
struct HeteroProbe {
  int base = 0;
  int container = 0;
  int type_idx = 0;
  bool valid = false;
  Seconds start = 0;
  Seconds end = 0;
  Seconds makespan = 0;
  Dollars money = 0;
  int num_ops = 0;
  int n_newly = 0;
  int newly[PlacementProbe::kInlineDelivered] = {0};
};

/// Total dollars with container `c`'s leased quanta replaced by `new_q` at
/// type `type_idx`. Summed in container order over the cached quanta, so
/// the result is bit-identical to a full post-insert rescan.
Dollars MoneyWith(const HeteroPartial& base, int c, int type_idx, int64_t new_q,
                  const std::vector<VmType>& types) {
  Dollars total = 0;
  size_t n = std::max(base.timelines.size(), static_cast<size_t>(c) + 1);
  for (size_t i = 0; i < n; ++i) {
    int64_t q = static_cast<int>(i) == c
                    ? new_q
                    : (i < base.quanta.size() ? base.quanta[i] : 0);
    if (q == 0) continue;
    int t = static_cast<int>(i) == c ? type_idx : base.ctype[i];
    total += static_cast<double>(q) *
             types[static_cast<size_t>(t)].price_per_quantum;
  }
  return total;
}

bool Probe(const HeteroPartial& base, int base_idx, const Dag& dag,
           const Operator& op, Seconds base_dur, int c, int type_idx,
           Seconds quantum, const std::vector<VmType>& types,
           HeteroProbe* out) {
  out->valid = false;
  const VmType& vt = types[static_cast<size_t>(type_idx)];
  // An existing container keeps its type (the caller enumerates types only
  // for fresh containers).
  if (c < static_cast<int>(base.timelines.size()) &&
      !base.timelines[static_cast<size_t>(c)].empty() &&
      base.ctype[static_cast<size_t>(c)] != type_idx) {
    return false;
  }
  Seconds est = 0;
  Seconds transfer_in = 0;
  out->n_newly = 0;
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
        transfer_in += f.size / vt.net_mb_per_sec;
        if (out->n_newly < PlacementProbe::kInlineDelivered) {
          out->newly[out->n_newly] = f.from;
        }
        ++out->n_newly;
      }
    }
  }
  Seconds occupancy = base_dur / vt.speed + transfer_in;
  static const Timeline kEmptyTimeline;
  const Timeline& tl = c < static_cast<int>(base.timelines.size())
                           ? base.timelines[static_cast<size_t>(c)]
                           : kEmptyTimeline;
  Seconds start = tl.FindSlot(est, occupancy);
  Seconds end = start + occupancy;
  Seconds new_last = std::max(
      c < static_cast<int>(base.last_end.size())
          ? base.last_end[static_cast<size_t>(c)]
          : 0.0,
      end);
  int64_t new_q = std::max<int64_t>(1, QuantaCeil(new_last, quantum));
  out->base = base_idx;
  out->container = c;
  out->type_idx = type_idx;
  out->start = start;
  out->end = end;
  out->makespan = op.optional ? base.makespan : std::max(base.makespan, end);
  out->money = MoneyWith(base, c, type_idx, new_q, types);
  out->num_ops = base.num_ops + 1;
  out->valid = true;
  return true;
}

void Commit(const HeteroPartial& base, const Dag& dag, const Operator& op,
            const HeteroProbe& p, Seconds quantum, HeteroPartial* out) {
  *out = base;
  int c = p.container;
  auto cs = static_cast<size_t>(c);
  if (c >= static_cast<int>(out->timelines.size())) {
    out->timelines.resize(cs + 1);
    out->delivered.resize(cs + 1);
    out->ctype.resize(cs + 1, p.type_idx);
    out->last_end.resize(cs + 1, 0.0);
    out->quanta.resize(cs + 1, 0);
  }
  out->ctype[cs] = p.type_idx;
  auto& tl = out->timelines[cs];
  auto& dl = out->delivered[cs];
  if (p.n_newly <= PlacementProbe::kInlineDelivered) {
    for (int i = 0; i < p.n_newly; ++i) {
      dl.insert(std::lower_bound(dl.begin(), dl.end(), p.newly[i]), p.newly[i]);
    }
  } else {
    const std::vector<int>* delivered_c =
        c < static_cast<int>(base.delivered.size()) ? &base.delivered[cs]
                                                    : nullptr;
    for (int fid : dag.in_flows(op.id)) {
      const Flow& f = dag.flows()[static_cast<size_t>(fid)];
      if (base.op_container[static_cast<size_t>(f.from)] == c) continue;
      bool staged =
          delivered_c != nullptr &&
          std::binary_search(delivered_c->begin(), delivered_c->end(), f.from);
      if (!staged) {
        dl.insert(std::lower_bound(dl.begin(), dl.end(), f.from), f.from);
      }
    }
  }
  Assignment a;
  a.op_id = op.id;
  a.container = c;
  a.start = p.start;
  a.end = p.end;
  a.optional = op.optional;
  tl.Insert(a);
  out->last_end[cs] = std::max(out->last_end[cs], a.end);
  out->quanta[cs] = std::max<int64_t>(1, QuantaCeil(out->last_end[cs], quantum));
  out->makespan = p.makespan;
  out->money = p.money;
  out->num_ops = p.num_ops;
  out->op_finish[static_cast<size_t>(op.id)] = p.end;
  out->op_container[static_cast<size_t>(op.id)] = c;
}

/// (time, dollars) skyline prune over the lightweight probes; the epsilon
/// on money absorbs float noise in per-type price sums.
void ParetoPrune(std::vector<HeteroProbe>* pool, int cap) {
  std::stable_sort(pool->begin(), pool->end(),
                   [](const HeteroProbe& a, const HeteroProbe& b) {
                     if (std::fabs(a.makespan - b.makespan) > 1e-9) {
                       return a.makespan < b.makespan;
                     }
                     return a.money < b.money;
                   });
  std::vector<HeteroProbe> kept;
  kept.reserve(pool->size());
  Dollars best_money = std::numeric_limits<double>::infinity();
  for (auto& p : *pool) {
    if (p.money < best_money - 1e-12) {
      kept.push_back(p);
      best_money = kept.back().money;
    }
  }
  SampleEvenlySpaced(&kept, cap);
  *pool = std::move(kept);
}

}  // namespace

Result<std::vector<TypedSchedule>> HeteroSkylineScheduler::ScheduleDag(
    const Dag& dag, const std::vector<Seconds>& durations) const {
  if (durations.size() != dag.num_ops()) {
    return Status::InvalidArgument("durations size != number of ops");
  }
  if (types_.empty()) {
    return Status::InvalidArgument("need at least one VM type");
  }
  DFIM_ASSIGN_OR_RETURN(std::vector<int> order, dag.TopologicalOrder());

  HeteroPartial empty;
  empty.op_finish.assign(dag.num_ops(), -1.0);
  empty.op_container.assign(dag.num_ops(), -1);
  std::vector<HeteroPartial> skyline{empty};

  std::vector<HeteroProbe> probes;
  std::vector<HeteroPartial> next_sky;
  for (int id : order) {
    const Operator& op = dag.op(id);
    if (op.optional) continue;  // interleaving handled by the homogeneous path
    Seconds dur = durations[static_cast<size_t>(id)];
    // Probes are enumerated in (base, container, type) order, which the
    // stable Pareto prune below relies on for deterministic tie-breaks.
    probes.clear();
    for (size_t b = 0; b < skyline.size(); ++b) {
      const HeteroPartial& base = skyline[b];
      int used = static_cast<int>(base.timelines.size());
      int limit = std::min(opts_.max_containers, used + 1);
      for (int c = 0; c < limit; ++c) {
        bool fresh =
            c >= used || base.timelines[static_cast<size_t>(c)].empty();
        int t_begin = 0;
        int t_end = static_cast<int>(types_.size());
        if (!fresh) {
          // Existing container: only its own type applies.
          t_begin = base.ctype[static_cast<size_t>(c)];
          t_end = t_begin + 1;
        }
        for (int t = t_begin; t < t_end; ++t) {
          Probe(base, static_cast<int>(b), dag, op, dur, c, t, opts_.quantum,
                types_, &probes.emplace_back());
        }
      }
    }
    probes.erase(std::remove_if(probes.begin(), probes.end(),
                                [](const HeteroProbe& p) { return !p.valid; }),
                 probes.end());
    if (probes.empty()) return Status::Internal("no feasible assignment");
    ParetoPrune(&probes, opts_.skyline_cap);
    next_sky.clear();
    next_sky.reserve(probes.size());
    for (const HeteroProbe& p : probes) {
      next_sky.emplace_back();
      Commit(skyline[static_cast<size_t>(p.base)], dag, op, p, opts_.quantum,
             &next_sky.back());
    }
    skyline.swap(next_sky);
  }

  std::vector<TypedSchedule> out;
  out.reserve(skyline.size());
  for (const HeteroPartial& p : skyline) {
    TypedSchedule ts;
    for (size_t c = 0; c < p.timelines.size(); ++c) {
      const Timeline& tl = p.timelines[c];
      for (size_t i = 0; i < tl.size(); ++i) {
        ts.schedule.Add(tl.At(i, static_cast<int>(c)));
      }
    }
    ts.container_type = p.ctype;
    ts.money = p.money;
    out.push_back(std::move(ts));
  }
  return out;
}

}  // namespace dfim
