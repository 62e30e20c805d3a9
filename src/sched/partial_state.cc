#include "sched/partial_state.h"

#include <algorithm>

namespace dfim {

int ContainerArena::Clone(int src) {
  int id;
  if (free_.empty()) {
    id = static_cast<int>(records_.size());
    records_.emplace_back();
  } else {
    id = free_.back();
    free_.pop_back();
  }
  ContainerRecord& rec = records_[static_cast<size_t>(id)];
  if (src == kFresh) {
    rec.timeline.clear();
    rec.delivered.clear();
  } else {
    rec = records_[static_cast<size_t>(src)];
  }
  return id;
}

void ContainerArena::Collect(const PartialState* states, size_t n) {
  live_.assign(records_.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    for (int id : states[i].containers) live_[static_cast<size_t>(id)] = 1;
  }
  free_.clear();
  for (size_t id = records_.size(); id-- > 0;) {
    if (live_[id] == 0) free_.push_back(static_cast<int>(id));
  }
}

void PartialState::Reset(size_t num_dag_ops) {
  containers.clear();
  gap.clear();
  op_finish.assign(num_dag_ops, -1.0);
  op_container.assign(num_dag_ops, -1);
  makespan = 0;
  money = 0;
  num_ops = 0;
  max_gap = 0;
}

bool ProbePlacement(const PartialState& base, const ContainerArena& arena,
                    int base_idx, const Dag& dag, const Operator& op,
                    Seconds dur, int c, Seconds quantum, double net,
                    PlacementProbe* out) {
  out->valid = false;
  // Earliest start: all parents finished. Cross-container flows are pulled
  // over the consumer's NIC, serialized, so they extend the op's occupancy
  // rather than just shifting its start. A producer's output is staged on a
  // container once; colocated siblings read it from local disk for free.
  Seconds est = 0;
  Seconds transfer_in = 0;
  out->n_newly = 0;
  const ContainerRecord* rec =
      c < static_cast<int>(base.containers.size())
          ? &arena[base.containers[static_cast<size_t>(c)]]
          : nullptr;
  const std::vector<int>* delivered_c = rec ? &rec->delivered : nullptr;
  for (int fid : dag.in_flows(op.id)) {
    const Flow& f = dag.flows()[static_cast<size_t>(fid)];
    Seconds pf = base.op_finish[static_cast<size_t>(f.from)];
    if (pf < 0) return false;  // parent unassigned (cannot happen in order)
    est = std::max(est, pf);
    if (base.op_container[static_cast<size_t>(f.from)] != c) {
      bool staged =
          delivered_c != nullptr &&
          std::binary_search(delivered_c->begin(), delivered_c->end(), f.from);
      if (!staged) {
        transfer_in += f.size / net;
        if (out->n_newly < PlacementProbe::kInlineDelivered) {
          out->newly[out->n_newly] = f.from;
        }
        ++out->n_newly;
      }
    }
  }
  Seconds occupancy = dur + transfer_in;
  static const Timeline kEmptyTimeline;
  const Timeline& tl = rec ? rec->timeline : kEmptyTimeline;
  Seconds start = tl.FindSlot(est, occupancy);
  Assignment a;
  a.op_id = op.id;
  a.container = c;
  a.start = start;
  a.end = start + occupancy;
  a.optional = op.optional;
  // Money delta from the touched container's lease end alone.
  int64_t old_q = tl.Quanta(quantum);
  Seconds new_last_end = std::max(tl.last_end(), a.end);
  int64_t new_q = std::max<int64_t>(1, QuantaCeil(new_last_end, quantum));
  int64_t money = base.money - old_q + new_q;
  if (op.optional && money > base.money) {
    // Optional ops must not extend the lease (paper §5.3.2: schedules where
    // they do are dominated and dropped). They may run past the dataflow
    // makespan inside an already-paid quantum (Fig. 2c, B2), and gap
    // insertion never delays mandatory ops.
    return false;
  }
  out->base = base_idx;
  out->container = c;
  out->op_id = op.id;
  out->optional = op.optional;
  out->start = a.start;
  out->end = a.end;
  out->makespan = op.optional ? base.makespan : std::max(base.makespan, a.end);
  out->money = money;
  out->num_ops = base.num_ops + 1;
  out->gap_c = tl.MaxGapWithInsert(a, quantum);
  Seconds mg = out->gap_c;
  for (size_t i = 0; i < base.gap.size(); ++i) {
    if (static_cast<int>(i) == c) continue;
    mg = std::max(mg, base.gap[i]);
  }
  out->max_gap = mg;
  out->valid = true;
  return true;
}

void CommitPlacement(const PartialState& base, const Dag& dag,
                     const PlacementProbe& probe, ContainerArena* arena,
                     PartialState* out) {
  *out = base;
  int c = probe.container;
  auto cs = static_cast<size_t>(c);
  bool fresh = cs == base.containers.size();
  int src = fresh ? ContainerArena::kFresh : base.containers[cs];
  int id = arena->Clone(src);
  if (fresh) {
    out->containers.push_back(id);
    out->gap.push_back(0.0);
  } else {
    out->containers[cs] = id;
  }
  ContainerRecord& rec = arena->at(id);
  auto& dl = rec.delivered;
  if (probe.n_newly <= PlacementProbe::kInlineDelivered) {
    for (int i = 0; i < probe.n_newly; ++i) {
      dl.insert(std::lower_bound(dl.begin(), dl.end(), probe.newly[i]),
                probe.newly[i]);
    }
  } else {
    // Inline list overflowed: recompute the newly staged producers exactly
    // as the probe saw them (staging checked against the *base* delivered
    // set, so duplicate flows stage duplicates, matching the probe's count).
    const std::vector<int>* delivered_c =
        fresh ? nullptr : &(*arena)[src].delivered;
    for (int fid : dag.in_flows(probe.op_id)) {
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
  a.op_id = probe.op_id;
  a.container = c;
  a.start = probe.start;
  a.end = probe.end;
  a.optional = probe.optional;
  rec.timeline.Insert(a);
  out->gap[cs] = probe.gap_c;
  out->makespan = probe.makespan;
  out->money = probe.money;
  out->num_ops = probe.num_ops;
  out->max_gap = probe.max_gap;
  out->op_finish[static_cast<size_t>(probe.op_id)] = probe.end;
  out->op_container[static_cast<size_t>(probe.op_id)] = c;
}

}  // namespace dfim
