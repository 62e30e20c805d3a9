#include "core/interleave.h"

#include <algorithm>

#include "core/knapsack.h"

namespace dfim {

Result<std::vector<Schedule>> Interleaver::Interleave(
    const Dag& dag, const std::vector<Seconds>& durations,
    double build_fraction) const {
  switch (mode_) {
    case InterleaveMode::kOnline:
      return scheduler_.ScheduleDag(dag, durations,
                                    /*place_optional=*/build_fraction > 0);
    case InterleaveMode::kLp: {
      // Algorithm 2: schedule the dataflow alone, then pack every schedule
      // in the skyline with build ops.
      DFIM_ASSIGN_OR_RETURN(
          std::vector<Schedule> skyline,
          scheduler_.ScheduleDag(dag, durations, /*place_optional=*/false));
      if (build_fraction <= 0) return skyline;
      std::vector<int> build_ops;
      for (const auto& op : dag.ops()) {
        if (op.optional) build_ops.push_back(op.id);
      }
      for (auto& s : skyline) {
        s = PackIntoIdleSlots(s, dag, durations, build_ops, build_fraction);
      }
      return skyline;
    }
  }
  return Status::InvalidArgument("unknown interleave mode");
}

Schedule Interleaver::PackIntoIdleSlots(
    const Schedule& schedule, const Dag& dag,
    const std::vector<Seconds>& durations,
    const std::vector<int>& build_op_ids, double capacity_fraction) const {
  const Seconds quantum = scheduler_.options().quantum;
  // Idle slots come from the shared Timeline gap walk
  // (Timeline::AppendIdleSlots via Schedule::FindIdleSlots), so the packer
  // sees exactly the gaps the scheduler's MaxGap tie-break accounted for.
  // These planned slots are shared at runtime: the execution simulator's
  // speculative clones claim realized idle time on the same paid leases
  // (via Timeline::FindSlotBounded), and builds packed here yield to them —
  // a preempted build's remaining slot time, and any cancelled clone's,
  // flows back to this knapsack on the next dataflow (DESIGN.md §9).
  std::vector<IdleSlot> slots = schedule.FindIdleSlots(quantum);
  std::vector<double> slot_sizes;
  slot_sizes.reserve(slots.size());
  // The brownout knob shrinks what the knapsack may fill, not the slots
  // themselves; >= 1 keeps the arithmetic bit-identical to the unthrottled
  // path (no multiply by 1.0).
  for (const auto& s : slots) {
    slot_sizes.push_back(capacity_fraction >= 1.0
                             ? s.size()
                             : s.size() * capacity_fraction);
  }

  std::vector<KnapsackItem> items;
  items.reserve(build_op_ids.size());
  for (int id : build_op_ids) {
    KnapsackItem it;
    it.id = id;
    it.size = durations[static_cast<size_t>(id)];
    it.gain = dag.op(id).gain;
    if (it.gain > 0) items.push_back(it);
  }

  MultiSlotPacking packing = PackSlotsLp(items, slot_sizes);

  Schedule out = schedule;
  for (size_t s = 0; s < packing.chosen.size(); ++s) {
    if (packing.chosen[s].empty()) continue;
    // Within a slot, run highest-gain first so estimation-error overruns
    // kill the least useful builds (Algorithm 2: "build index operators in
    // each idle slot are sorted by gain").
    std::vector<int> ids = packing.chosen[s];
    std::stable_sort(ids.begin(), ids.end(), [&dag](int a, int b) {
      return dag.op(a).gain > dag.op(b).gain;
    });
    Seconds cursor = slots[s].start;
    for (int id : ids) {
      Assignment a;
      a.op_id = id;
      a.container = slots[s].container;
      a.start = cursor;
      a.end = cursor + durations[static_cast<size_t>(id)];
      a.optional = true;
      cursor = a.end;
      out.Add(a);
    }
  }
  return out;
}

}  // namespace dfim
