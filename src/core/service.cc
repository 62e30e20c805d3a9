#include "core/service.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "core/interleave.h"
#include "dataflow/build_index_ops.h"
#include "dataflow/cost.h"

namespace dfim {

Status ValidateIntegrityOptions(const IntegrityOptions& opts) {
  if (opts.verify_reads && !(opts.verify_latency > 0)) {
    return Status::InvalidArgument(
        "verify_latency must be positive when verify_reads is on");
  }
  if (!(opts.verify_latency >= 0)) {
    return Status::InvalidArgument("verify_latency must be >= 0");
  }
  if (!(opts.scrub_objects_per_quantum >= 0)) {
    return Status::InvalidArgument("scrub_objects_per_quantum must be >= 0");
  }
  return Status::OK();
}

Status ValidateAutoscalerOptions(const AutoscalerOptions& opts) {
  if (!opts.enabled) return Status::OK();
  if (opts.min_containers < 1) {
    return Status::InvalidArgument("autoscaler min_containers must be >= 1");
  }
  if (opts.max_containers < opts.min_containers) {
    return Status::InvalidArgument(
        "autoscaler max_containers must be >= min_containers");
  }
  if (opts.initial_containers < 0 ||
      opts.initial_containers > opts.max_containers) {
    return Status::InvalidArgument(
        "autoscaler initial_containers must be in [0, max_containers]");
  }
  return Status::OK();
}

std::string_view IndexPolicyToString(IndexPolicy policy) {
  switch (policy) {
    case IndexPolicy::kNoIndex:
      return "No Index";
    case IndexPolicy::kRandom:
      return "Random";
    case IndexPolicy::kGainNoDelete:
      return "Gain (no delete)";
    case IndexPolicy::kGain:
      return "Gain";
  }
  return "?";
}

QaasService::QaasService(Catalog* catalog, ServiceOptions options)
    : catalog_(catalog),
      opts_(options),
      tuner_(catalog, [&options] {
        TunerOptions t = options.tuner;
        if (options.policy == IndexPolicy::kGainNoDelete) {
          t.delete_nonbeneficial = false;
        }
        return t;
      }()),
      storage_(options.tuner.pricing),
      faults_(options.faults),
      fleet_(options.container, options.tuner.pricing,
             options.autoscaler.enabled ? options.autoscaler.max_containers
                                        : std::numeric_limits<int>::max()),
      admission_(options.admission, options.brownout),
      state_(options.seed),
      journal_(options.journal) {
  // Plumb/normalize the scheduler knobs once: every SkylineScheduler the
  // service constructs (directly or via the tuner's interleaver) sees the
  // same options, and the skyline keeps at least one survivor per round.
  opts_.tuner.sched.skyline_cap = std::max(1, opts_.tuner.sched.skyline_cap);
  state_.retry_budget_left = opts_.admission.retry_budget;
  if (opts_.faults.provider_enabled()) {
    // Reclaim hazards walk at most the experiment horizon (plus slack for
    // lease tails past it).
    int64_t max_q =
        QuantaCeil(std::max(opts_.total_time, opts_.tuner.sched.quantum),
                   opts_.tuner.sched.quantum) +
        8;
    fleet_.SetFaultModel(&faults_, max_q);
  }
  state_.fleet_target = opts_.autoscaler.initial_containers > 0
                            ? opts_.autoscaler.initial_containers
                            : opts_.autoscaler.min_containers;
}

QaasService::FleetPlan QaasService::PrepareFleet(Seconds now,
                                                 ServiceMetrics* metrics) {
  FleetPlan plan;
  plan.bound = opts_.tuner.sched.max_containers;
  if (!ElasticActive()) return plan;

  const Seconds quantum = opts_.tuner.sched.quantum;
  int want = plan.bound;
  if (opts_.autoscaler.enabled) {
    // Statically provisioned fleet: bill every alive container through the
    // present before any reap can take an idle lease, so the always-on
    // baseline pays for its lulls.
    if (opts_.autoscaler.keep_alive) fleet_.KeepAlive(now);
    // Policy step: move the target with the queue-pressure signal (the
    // head's queue delay at the latest dequeue).
    const double signal = state_.last_pressure;
    const int prev = state_.fleet_target;
    if (signal >= kAutoscaleGrowPressure) {
      state_.fleet_target = std::min(opts_.autoscaler.max_containers,
                                     state_.fleet_target + kAutoscaleGrowStep);
      if (state_.fleet_target > prev) ++metrics->fleet_grow_events;
    } else if (signal <= kAutoscaleShrinkPressure) {
      state_.fleet_target =
          std::max(opts_.autoscaler.min_containers, state_.fleet_target - 1);
      if (state_.fleet_target < prev) ++metrics->fleet_shrink_events;
    }
    // Graceful drain: release idle containers above the target before they
    // renew another idle quantum. The fleet is quiescent here — the service
    // executes one dataflow at a time.
    fleet_.DrainIdleAbove(state_.fleet_target);
    want = std::min(want, state_.fleet_target);
  }
  want = std::max(1, want);

  // Acquire toward the target, waiting out boot delays and backing off on
  // provider denials. Bounded rounds: a pathological fleet (every VM doomed
  // the moment it boots) must not spin forever — the caller then falls back
  // to the strict path with whatever exists.
  Seconds t = now;
  int usable = 0;
  for (int round = 0; round < 64; ++round) {
    if (t < state_.acquire_backoff_until - 1e-9) {
      // Backing off from a denial: no fresh requests yet. Run with what is
      // usable — unless nothing is, in which case the backoff must not
      // wedge the service and we fall through to request anyway.
      usable = fleet_.UsableCount(t);
      if (usable > 0) break;
    }
    AcquireOutcome got = fleet_.AcquireUsable(want, t);
    usable = static_cast<int>(got.usable.size());
    if (got.denied_quota > 0) {
      // Capped exponential backoff on provider quota denials.
      ++metrics->acquire_backoffs;
      state_.acquire_backoff_quanta =
          state_.acquire_backoff_quanta <= 0
              ? kAcquireBackoffInitialQuanta
              : std::min(state_.acquire_backoff_quanta * 2.0,
                         kAcquireBackoffCapQuanta);
      state_.acquire_backoff_until =
          t + state_.acquire_backoff_quanta * quantum;
    } else if (usable > 0 || got.booting > 0) {
      state_.acquire_backoff_quanta = 0;  // a clean grant resets the ladder
    }
    if (usable > 0) break;
    Seconds next = fleet_.NextUsableAt(t);
    if (next < kNeverFails) {
      // Paid capacity is booting: wait for the earliest boot to finish.
      t = std::max(t, next);
      continue;
    }
    // Nothing usable and nothing booting: wait out the backoff (or one
    // quantum) and re-request — quota draws are keyed by the monotone
    // request index, so retries genuinely re-draw.
    t = std::max(t + quantum, state_.acquire_backoff_until);
  }
  if (t > now) {
    plan.wait = t - now;
    metrics->boot_wait_quanta += plan.wait / quantum;
  }
  plan.bound = std::max(1, std::min(plan.bound, usable));
  return plan;
}

void QaasService::HarvestFleet(ServiceMetrics* metrics) const {
  const FleetLedger& ledger = fleet_.ledger();
  metrics->containers_reaped = static_cast<int>(ledger.released_idle);
  metrics->containers_drained = static_cast<int>(ledger.drained);
  metrics->containers_preempted = static_cast<int>(ledger.preempted);
  metrics->fleet_acquire_requests = ledger.acquire_requests;
  metrics->fleet_granted = ledger.granted;
  metrics->acquires_denied_quota = ledger.denied_quota;
  metrics->acquires_denied_capacity = ledger.denied_capacity;
  metrics->fleet_quanta_charged = fleet_.total_quanta_charged();
}

Result<TunerDecision> QaasService::BaselineDecision(const Dataflow& df,
                                                    int max_containers) {
  TunerDecision d;
  d.combined = df.dag;

  if (opts_.policy == IndexPolicy::kRandom) {
    // §6: "randomly selects indexes from the potential set" — the whole
    // catalog, not just the current dataflow's candidates — "and randomly
    // assigns them to containers to be built".
    std::vector<std::string> cands = catalog_->IndexIds();
    state_.rng.Shuffle(&cands);
    int take = std::min<int>(kRandomIndexesPerDataflow,
                             static_cast<int>(cands.size()));
    int next_id = static_cast<int>(d.combined.num_ops());
    for (int i = 0; i < take; ++i) {
      auto ops = MakeBuildIndexOps(*catalog_, cands[static_cast<size_t>(i)],
                                   opts_.tuner.sched.net_mb_per_sec, &next_id);
      if (!ops.ok()) continue;
      for (auto& op : *ops) d.combined.AddOperator(std::move(op));
    }
  }

  BuildDataflowCosts(d.combined, df, *catalog_, opts_.tuner.sched.net_mb_per_sec,
                     &d.durations, &d.costs);

  SkylineScheduler scheduler(WithinFleet(opts_.tuner.sched, max_containers));
  DFIM_ASSIGN_OR_RETURN(
      d.chosen, FastestSchedule(scheduler.ScheduleDag(
                    d.combined, d.durations, /*place_optional=*/false)));

  if (opts_.policy == IndexPolicy::kRandom) {
    // Random assignment: each build op goes to the tail of a random
    // container, extending its lease (and the bill) as needed.
    int nc = std::max(1, d.chosen.num_containers());
    std::vector<Seconds> tail(static_cast<size_t>(nc), 0);
    for (const auto& a : d.chosen.assignments()) {
      tail[static_cast<size_t>(a.container)] =
          std::max(tail[static_cast<size_t>(a.container)], a.end);
    }
    for (const auto& op : d.combined.ops()) {
      if (!op.optional) continue;
      auto c = static_cast<size_t>(state_.rng.UniformInt(0, nc - 1));
      Assignment a;
      a.op_id = op.id;
      a.container = static_cast<int>(c);
      a.start = tail[c];
      a.end = a.start + d.durations[static_cast<size_t>(op.id)];
      a.optional = true;
      tail[c] = a.end;
      d.chosen.Add(a);
      ++d.build_ops_scheduled;
    }
  }
  return d;
}

namespace {

/// FNV-1a over an object path (the object key of the bit-rot draw).
uint64_t PathHash(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Deterministic per-persist-attempt key (FNV-1a over the index id, then
/// the partition and the retry number) for the storage-fault draws.
uint64_t PersistKey(const std::string& index_id, int partition, int retry) {
  uint64_t h = PathHash(index_id);
  h ^= static_cast<uint64_t>(partition) * 0x9e3779b97f4a7c15ULL;
  h *= 0x100000001b3ULL;
  h ^= static_cast<uint64_t>(retry);
  return h * 0x100000001b3ULL;
}

/// Key of one execution attempt's fault trace and persist-fault draws.
uint64_t RunKey(int df_id, int attempt) {
  return static_cast<uint64_t>(df_id) * 0x100000001b3ULL +
         static_cast<uint64_t>(attempt);
}

/// History list capacity (older records fade to ~0 anyway).
constexpr size_t kMaxHistory = 256;

/// A completed index partition's storage `Put` retries this many times on
/// transient faults, backing off exponentially from kPersistBackoffInitial
/// to at most kPersistBackoffCap; a partition that was never persisted is
/// discarded (no catalog entry).
constexpr int kPersistMaxRetries = 4;
constexpr Seconds kPersistBackoffInitial = 1.0;
constexpr Seconds kPersistBackoffCap = 30.0;

/// Batched admission (DESIGN.md §14): merges the members' decisions into
/// one, schedules the union through a single skyline pass within `sched`
/// and re-packs the union of build ops into the merged schedule's idle
/// slots. Members share the realized finish; per-member accounting (queue
/// delay, deadlines, history) stays distinct in FinishRun.
Result<TunerDecision> MergeDecisions(
    const std::vector<TunerDecision>& decisions,
    const SchedulerOptions& sched, double build_fraction) {
  // Merge into one decision. Duplicate build ops (two members wanting the
  // same index partition) keep only the first copy; flows touching a
  // dropped duplicate are dropped with it (build ops are sources/sinks of
  // their private staging flows, never of dataflow edges).
  TunerDecision merged;
  std::set<std::pair<std::string, int>> build_seen;
  std::vector<int> build_ids;
  for (const auto& d : decisions) {
    std::vector<int> remap(d.combined.num_ops(), -1);
    for (const auto& op : d.combined.ops()) {
      if (op.optional && op.kind == OpKind::kBuildIndex) {
        if (!build_seen.emplace(op.index_id, op.index_partition).second) {
          continue;  // another member already builds this partition
        }
      }
      Operator copy = op;
      int nid = merged.combined.AddOperator(std::move(copy));
      remap[static_cast<size_t>(op.id)] = nid;
      merged.durations.push_back(d.durations[static_cast<size_t>(op.id)]);
      merged.costs.push_back(d.costs[static_cast<size_t>(op.id)]);
      const Operator& placed = merged.combined.op(nid);
      if (placed.optional && placed.kind == OpKind::kBuildIndex) {
        build_ids.push_back(nid);
      }
    }
    for (const auto& f : d.combined.flows()) {
      int from = remap[static_cast<size_t>(f.from)];
      int to = remap[static_cast<size_t>(f.to)];
      if (from < 0 || to < 0) continue;
      DFIM_RETURN_NOT_OK(merged.combined.AddFlow(from, to, f.size));
    }
    for (const auto& idx : d.to_delete) {
      if (std::find(merged.to_delete.begin(), merged.to_delete.end(), idx) ==
          merged.to_delete.end()) {
        merged.to_delete.push_back(idx);
      }
    }
  }

  // One shared skyline pass over the merged mandatory DAG, then the union
  // of build ops re-packed into the merged schedule's idle slots (LP mode
  // regardless of the tuner's interleave mode — the members' own packings
  // were discarded with their schedules; a deliberate simplification).
  SkylineScheduler scheduler(sched);
  DFIM_ASSIGN_OR_RETURN(
      merged.chosen,
      FastestSchedule(scheduler.ScheduleDag(merged.combined, merged.durations,
                                            /*place_optional=*/false)));
  if (!build_ids.empty() && build_fraction > 0) {
    Interleaver interleaver(sched, InterleaveMode::kLp);
    merged.chosen = interleaver.PackIntoIdleSlots(
        merged.chosen, merged.combined, merged.durations, build_ids);
    for (const auto& a : merged.chosen.assignments()) {
      if (a.optional) ++merged.build_ops_scheduled;
    }
  }

  return merged;
}

}  // namespace

void QaasService::QuarantineAndScheduleRepair(const std::string& index_id,
                                              int partition, Seconds now,
                                              ServiceMetrics* metrics) {
  if (!catalog_->QuarantinePartition(index_id, partition)) return;
  ++metrics->partitions_quarantined;
  // Drop the failed object: no later read may bind to it, and the repair
  // re-persists a fresh generation. (Detected corruptions were already
  // counted by the VerifyRead, so this Delete does not mark them dead.)
  auto def = catalog_->GetIndexDef(index_id);
  if (def.ok()) StorageDelete((*def)->PartitionPath(partition), now);
  if (opts_.integrity.repair) {
    state_.repair_queue.push_back(RepairEntry{index_id, partition});
  }
}

void QaasService::VerifyIndexBindings(TunerDecision* decision, Seconds now,
                                      ServiceMetrics* metrics) {
  const StorageInstant at = StorageCallAt(now);
  // One verdict per distinct index the decision binds: every built partition
  // must pass both the checksum and the expected-generation check. The op
  // granularity is the index — a dataflow op cannot read half an index.
  std::map<std::string, bool> verdict;
  for (const auto& cost : decision->costs) {
    if (cost.index_used.empty() || verdict.count(cost.index_used) > 0) {
      continue;
    }
    const std::string id = cost.index_used;
    bool ok = true;
    auto def = catalog_->GetIndexDef(id);
    auto state = catalog_->GetIndexState(id);
    if (def.ok() && state.ok()) {
      for (size_t i = 0; i < (*state)->num_partitions(); ++i) {
        if (!(*state)->part(i).built) continue;
        const int64_t expect = (*state)->part(i).generation;
        const std::string path = (*def)->PartitionPath(static_cast<int>(i));
        VerifyResult vr = storage_.VerifyRead(path, at.issued);
        bool bad = false;
        if (vr == VerifyResult::kCorrupt) {
          ++metrics->corruptions_detected_on_read;
          bad = true;
        } else if (vr == VerifyResult::kAlreadyDetected ||
                   vr == VerifyResult::kMissing) {
          bad = true;
        } else if (expect > 0 && storage_.Generation(path) != expect) {
          // Checksum clean, but the object is not the write the catalog
          // recorded — a stale overwrite raced the persist.
          ++metrics->stale_reads;
          bad = true;
        }
        if (bad) {
          ok = false;
          QuarantineAndScheduleRepair(id, static_cast<int>(i), at.billed,
                                      metrics);
        }
      }
    }
    verdict.emplace(id, ok);
  }
  if (verdict.empty()) return;
  for (const auto& op : decision->combined.ops()) {
    auto& cost = decision->costs[static_cast<size_t>(op.id)];
    if (cost.index_used.empty()) continue;
    cost.verify_latency = opts_.integrity.verify_latency;
    if (!verdict[cost.index_used]) {
      // Fall back to the base scan: the op pays for the refused index fetch
      // plus the unperturbed model cost of scanning without it — degraded,
      // never wrong.
      EffectiveCost base = BaseOpCost(op, *catalog_);
      cost.corrupt_read = true;
      cost.fallback_cpu_time = base.cpu_time;
      cost.fallback_input_mb = base.input_mb;
    }
  }
}

void QaasService::RunScrub(Seconds now, ServiceMetrics* metrics) {
  const double per_quantum = opts_.integrity.scrub_objects_per_quantum;
  if (per_quantum <= 0) return;
  const StorageInstant at = StorageCallAt(now);
  now = at.billed;
  const Seconds quantum = opts_.tuner.sched.quantum;
  if (now > state_.last_scrub) {
    state_.scrub_credit += (now - state_.last_scrub) / quantum * per_quantum;
    state_.last_scrub = now;
  }
  const auto& objects = storage_.objects();
  if (objects.empty()) return;
  // One full pass per call at most: extra credit would only re-verify
  // objects this call already proved clean at `now`.
  state_.scrub_credit =
      std::min(state_.scrub_credit, static_cast<double>(objects.size()));
  while (state_.scrub_credit >= 1.0 && !objects.empty()) {
    auto it = objects.upper_bound(state_.scrub_cursor);
    if (it == objects.end()) it = objects.begin();
    const std::string path = it->first;
    state_.scrub_cursor = path;
    state_.scrub_credit -= 1.0;
    ++metrics->scrub_reads;
    if (storage_.VerifyRead(path, at.issued) != VerifyResult::kCorrupt) {
      continue;
    }
    ++metrics->corruptions_detected_by_scrub;
    // Quarantine the catalog partition when the object still backs a
    // built one.
    std::string id;
    int pid = 0;
    if (!ParseIndexPartitionPath(path, &id, &pid)) continue;
    auto state = catalog_->GetIndexState(id);
    if (state.ok() && static_cast<size_t>(pid) < (*state)->num_partitions() &&
        (*state)->part(static_cast<size_t>(pid)).built) {
      QuarantineAndScheduleRepair(id, pid, now, metrics);
    } else {
      // Orphan (already invalidated in the catalog): just drop it.
      StorageDelete(path, now);
    }
  }
}

void QaasService::ScheduleRepairs(TunerDecision* decision,
                                  ServiceMetrics* metrics) {
  if (state_.repair_queue.empty()) return;
  const double net = opts_.tuner.sched.net_mb_per_sec;
  // Partitions this decision already builds: the tuner sees a quarantined
  // partition as unbuilt and may pick it, and the queue may hold one
  // partition twice. A second build of a partition would persist it twice.
  std::set<std::pair<std::string, int>> building;
  for (const auto& op : decision->combined.ops()) {
    if (op.optional && op.kind == OpKind::kBuildIndex) {
      building.emplace(op.index_id, op.index_partition);
    }
  }
  std::vector<int> repair_ids;
  int budget = kMaxRepairsPerDataflow;
  size_t scan = state_.repair_queue.size();
  while (budget > 0 && scan-- > 0 && !state_.repair_queue.empty()) {
    RepairEntry e = std::move(state_.repair_queue.front());
    state_.repair_queue.pop_front();
    // Evicted meanwhile (index drop / batch update): the repair is moot.
    if (!catalog_->IsQuarantined(e.index_id, e.partition)) continue;
    if (!building.emplace(e.index_id, e.partition).second) {
      state_.repair_queue.push_back(std::move(e));  // built this time anyway
      continue;
    }
    auto def = catalog_->GetIndexDef(e.index_id);
    if (!def.ok()) continue;
    auto table = catalog_->GetTable((*def)->table);
    if (!table.ok()) continue;
    auto part = (*table)->GetPartition(e.partition);
    if (!part.ok()) continue;
    Seconds t = catalog_->cost_model().PartitionBuildTime(
        **table, (*def)->columns, *part, net);
    Operator op = Operator::BuildIndex(
        static_cast<int>(decision->combined.num_ops()), e.index_id,
        e.partition, t, (*table)->PartitionSize(*part));
    // The slot knapsack drops zero-gain items; a repair's gain is the build
    // investment it restores (the partition earned its build once already).
    op.gain = std::max<double>(t, 1e-9);
    int id = decision->combined.AddOperator(std::move(op));
    decision->durations.push_back(t);
    decision->costs.push_back(SimOpCost{t, 0, ""});
    repair_ids.push_back(id);
    --budget;
  }
  if (repair_ids.empty()) return;
  // Repairs ride the same idle-slot machinery as fresh builds
  // (marginal-cost-zero): packing on an already-packed schedule is safe —
  // the slot search sees every existing assignment, optional ones included.
  Interleaver interleaver(opts_.tuner.sched, InterleaveMode::kLp);
  Schedule packed = interleaver.PackIntoIdleSlots(
      decision->chosen, decision->combined, decision->durations, repair_ids);
  std::set<int> packed_ids;
  for (const auto& a : packed.assignments()) packed_ids.insert(a.op_id);
  for (int id : repair_ids) {
    if (packed_ids.count(id) > 0) {
      ++metrics->repairs_scheduled;
      ++decision->build_ops_scheduled;
    } else {
      // No idle slot this time: back to the queue for a later dataflow.
      const Operator& op = decision->combined.op(id);
      state_.repair_queue.push_back(
          RepairEntry{op.index_id, op.index_partition});
    }
  }
  decision->chosen = std::move(packed);
}

Result<TunerDecision> QaasService::Decide(const Dataflow& df, Seconds start,
                                          ServiceMetrics* metrics,
                                          double build_fraction,
                                          int fleet_bound) {
  const bool tuned = opts_.policy == IndexPolicy::kGain ||
                     opts_.policy == IndexPolicy::kGainNoDelete;
  TunerDecision decision;
  if (tuned && build_fraction <= 0) {
    // Full brownout: skip the tuning step entirely — schedule the bare
    // dataflow, no build ops, no deletions. History is still recorded by
    // the caller so gains keep accumulating for when pressure subsides.
    // Every unbuilt candidate the tuner might have picked counts as shed
    // (an upper-bound proxy; the tuner was never consulted).
    DFIM_ASSIGN_OR_RETURN(decision, BaselineDecision(df, fleet_bound));
    for (const auto& idx : df.candidate_indexes) {
      if (!tuner_.IsBuilt(idx)) ++decision.builds_shed;
    }
  } else if (tuned) {
    DFIM_ASSIGN_OR_RETURN(
        decision,
        tuner_.OnDataflow(
            df, state_.history, start,
            opts_.resumable_builds ? &state_.build_progress : nullptr,
            build_fraction, fleet_bound));
  } else {
    DFIM_ASSIGN_OR_RETURN(decision, BaselineDecision(df, fleet_bound));
  }
  metrics->builds_shed += decision.builds_shed;
  return decision;
}

Result<QaasService::RunOutcome> QaasService::StartRun(
    ServiceMetrics* metrics) {
  const std::vector<PendingDataflow>& batch = loop_->batch;
  const Seconds start = loop_->start;
  const double build_fraction = loop_->build_fraction;
  if (MaybeCtlCrash()) return RunOutcome{.crashed = true};  // b0: pre-Decide
  // Background scrub first (DESIGN.md §12): latent rot caught here is
  // quarantined before the tuner consults the catalog, so this very
  // decision already plans around (and can repair) the loss.
  RunScrub(start, metrics);
  // Elastic fleet (DESIGN.md §13): settle what the fleet can actually serve
  // *before* planning, so the tuner's build knapsack and the schedulers see
  // the real, smaller fleet. Inert (configured cap, zero wait) when the
  // elastic machinery is off.
  const FleetPlan fleet_plan = PrepareFleet(start, metrics);
  // Every member is tuned against the same catalog/history state. A batch
  // of one executes its member's decision as is; a larger batch executes
  // the merge.
  std::vector<TunerDecision> decisions;
  decisions.reserve(batch.size());
  for (const auto& p : batch) {
    DFIM_ASSIGN_OR_RETURN(
        TunerDecision d,
        Decide(p.df, start, metrics, build_fraction, fleet_plan.bound));
    decisions.push_back(std::move(d));
  }
  TunerDecision decision;
  if (decisions.size() == 1) {
    decision = std::move(decisions.front());
  } else {
    DFIM_ASSIGN_OR_RETURN(
        decision,
        MergeDecisions(decisions,
                       WithinFleet(opts_.tuner.sched, fleet_plan.bound),
                       build_fraction));
  }

  // Bind-time verification and repair packing (DESIGN.md §12; both no-ops
  // with the integrity knobs at their defaults). Verification runs before
  // repair scheduling so a partition that just failed can be repaired in
  // this same dataflow's idle slots.
  if (opts_.integrity.verify_reads) {
    VerifyIndexBindings(&decision, start, metrics);
  }
  if (build_fraction > 0) ScheduleRepairs(&decision, metrics);

  // The decision is final: commit it as the in-flight B-phase state. A
  // crash past this point resumes from here — the A-phase (whose scrub
  // verifies and quarantine deletes already happened) never re-runs. One
  // execution covers the whole batch (the head member keys the fault draws
  // in FinishRun).
  in_flight_ = InFlightDecision{std::move(decision), fleet_plan.wait};
  journal_.AppendStage(
      static_cast<int64_t>(in_flight_->decision.combined.num_ops()));
  CommitJournal(ServiceSnapshot::Kind::kPreExecute, *metrics);
  if (MaybeCtlCrash()) return RunOutcome{.crashed = true};  // b1: pre-Execute
  return FinishRun(metrics);
}

Result<QaasService::RunOutcome> QaasService::FinishRun(
    ServiceMetrics* metrics) {
  const std::vector<PendingDataflow>& batch = loop_->batch;
  const Seconds start = loop_->start;
  InFlightDecision& fl = *in_flight_;

  DFIM_ASSIGN_OR_RETURN(
      ExecOutcome exec,
      ExecuteDecision(&fl.decision, batch.front().df, start, fl.fleet_wait,
                      metrics));
  if (recovering_) {
    journal_.mutable_ledger()->recovery_replay_quanta +=
        exec.elapsed / opts_.tuner.sched.quantum;
  }
  journal_.AppendStage(static_cast<int64_t>(exec.total_leased));
  // b2: pre-RecordHistory
  if (MaybeCtlCrash()) return RunOutcome{.crashed = true};

  // ExecuteDecision counted one failure; a failed batch loses every member.
  if (exec.failed) {
    metrics->dataflows_failed += static_cast<int>(batch.size()) - 1;
  }
  const Seconds quantum = opts_.tuner.sched.quantum;
  const Seconds finish = start + exec.elapsed;
  if (!exec.failed) {
    for (const auto& p : batch) RecordHistory(p.df, finish);
  }
  journal_.AppendStage(static_cast<int64_t>(batch.size()));
  // b3: pre-ApplyDeletions
  if (MaybeCtlCrash()) return RunOutcome{.crashed = true};

  if (!exec.failed) {
    ApplyDeletions(fl.decision.to_delete, finish, metrics);
  }
  const Seconds settled = std::max(finish, exec.last_persist);
  SettleStorage(settled);
  // Server occupancy: the iteration held the service for one makespan.
  metrics->total_time_quanta += exec.elapsed / quantum;
  if (batch.size() > 1) {
    ++metrics->dataflow_batches;
    metrics->batched_dataflows += static_cast<int>(batch.size());
  }
  journal_.AppendStage(static_cast<int64_t>(fl.decision.to_delete.size()));
  // b4: pre-StampTimeline
  if (MaybeCtlCrash()) return RunOutcome{.crashed = true};

  // Per-member finish accounting and one timeline point per member.
  // Closed-loop members have no queue delay, estimate or deadline, so only
  // finished/overran move for them.
  for (const auto& m : batch) {
    const double queue_delay = (start - m.arrival) / quantum;
    metrics->queue_delay_quanta += queue_delay;
    StampTimeline(finish, queue_delay, exec.elapsed / quantum, metrics);
    if (exec.failed) continue;
    if (finish <= opts_.total_time) {
      ++metrics->dataflows_finished;
    } else {
      ++metrics->dataflows_overran;
    }
    if (m.deadline > 0 && finish > m.deadline) ++metrics->deadlines_missed;
  }
  journal_.AppendStage(static_cast<int64_t>(batch.size()));
  RunOutcome out;
  out.finish = finish;
  out.settled = settled;
  return out;
}

Result<TunerDecision> PlanRecoverySuffix(const TunerDecision& decision,
                                         const Schedule& plan,
                                         const ExecResult& exec,
                                         const std::vector<int>& hosts,
                                         double net_mb_per_sec,
                                         std::vector<int>* ids,
                                         std::vector<int>* holders) {
  const std::vector<int>& ran = *ids;
  std::vector<int>& holder = *holders;
  const Dag& dag = decision.combined;
  const size_t n = dag.num_ops();
  // Combined-id flags: needed again (the lost mandatory ops, so far).
  std::vector<char> needed(n, 0);
  for (const auto& l : exec.lost_ops) {
    if (!l.optional) {
      needed[static_cast<size_t>(ran[static_cast<size_t>(l.op_id)])] = 1;
    }
  }
  for (const auto& a : plan.assignments()) {
    const auto id = static_cast<size_t>(ran[static_cast<size_t>(a.op_id)]);
    if (!a.optional && !needed[id]) {
      holder[id] = hosts[static_cast<size_t>(a.container)];
    }
  }
  // A container's local disk dies with it (paper §3): every output it
  // held is gone, whichever attempt produced it.
  for (const ContainerLoss& l : exec.losses) {
    std::replace(holder.begin(), holder.end(),
                 hosts[static_cast<size_t>(l.container)], -1);
  }
  // A finished mandatory producer whose output is gone re-runs with its
  // needed consumer (transitively).
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& f : dag.flows()) {
      const auto from = static_cast<size_t>(f.from);
      if (needed[static_cast<size_t>(f.to)] && !needed[from] &&
          !dag.op(f.from).optional && holder[from] < 0) {
        needed[from] = 1;
        grew = true;
      }
    }
  }
  TunerDecision suffix;
  std::vector<int> suffix_ids;
  std::vector<int> local(n, -1);  // combined id -> suffix id
  for (size_t i = 0; i < n; ++i) {
    if (!needed[i]) continue;
    local[i] = suffix.combined.AddOperator(dag.op(static_cast<int>(i)));
    suffix_ids.push_back(static_cast<int>(i));
    suffix.durations.push_back(decision.durations[i]);
    suffix.costs.push_back(decision.costs[i]);
  }
  for (const auto& f : dag.flows()) {
    const int to = local[static_cast<size_t>(f.to)];
    if (to < 0) continue;
    const int from = local[static_cast<size_t>(f.from)];
    if (from >= 0) {
      DFIM_RETURN_NOT_OK(suffix.combined.AddFlow(from, to, f.size));
    } else if (!dag.op(f.from).optional) {
      // Every mandatory op outside the suffix finished, and the container
      // holding its output is alive. Its output survives there or can be
      // restaged: the re-executed consumer re-pays the transfer as an
      // external input (and its content no longer matches any cache key).
      SimOpCost& cost = suffix.costs[static_cast<size_t>(to)];
      cost.input_mb += f.size;
      cost.cache_key.clear();
      suffix.durations[static_cast<size_t>(to)] += f.size / net_mb_per_sec;
    }
  }
  *ids = std::move(suffix_ids);
  return suffix;
}

Result<QaasService::ExecOutcome> QaasService::ExecuteDecision(
    TunerDecision* decision, const Dataflow& df, Seconds start,
    Seconds initial_wait, ServiceMetrics* metrics) {
  // Attempt 0 runs the whole decision (dataflow + piggybacked builds);
  // each recovery attempt runs only the unfinished suffix, re-paying the
  // quanta. `ids` maps the running attempt's op ids to combined op ids.
  const TunerDecision* cur = decision;
  TunerDecision suffix;
  std::vector<int> ids(decision->combined.num_ops());
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<int> holders(decision->combined.num_ops(), -1);
  std::vector<int> hosts;
  ExecOutcome out;
  // The elastic fleet may have waited out a boot delay or an acquire
  // backoff before a single usable container existed.
  out.elapsed = initial_wait;
  for (int attempt = 0;; ++attempt) {
    const Seconds t0 = start + out.elapsed;
    DFIM_ASSIGN_OR_RETURN(
        ExecResult exec, RunAttempt(*cur, df.id, attempt, t0, &hosts, metrics));
    const Seconds persist_delay = LandBuilds(
        exec, RunKey(df.id, attempt), t0, &out.last_persist, metrics);
    // The realized span covers completed work and the crash instants;
    // persist backoff extends the dataflow's wall time.
    Seconds attempt_end = exec.makespan;
    for (const ContainerLoss& l : exec.losses) {
      attempt_end = std::max(attempt_end, l.at);
    }
    out.elapsed += attempt_end + persist_delay;
    out.total_leased += exec.leased_quanta;
    if (exec.complete) break;

    // The fleet-wide retry budget caps recovery work across all dataflows:
    // under overload, re-paying quanta for suffix re-execution steals
    // capacity from the queue, so once the budget is spent crash-lost
    // dataflows fail fast instead.
    const bool budgeted = opts_.admission.retry_budget >= 0;
    if (attempt >= kMaxRecoveryAttempts ||
        (budgeted && state_.retry_budget_left <= 0)) {
      if (attempt < kMaxRecoveryAttempts) ++metrics->retries_denied;
      out.failed = true;
      ++metrics->dataflows_failed;
      break;
    }
    if (budgeted) --state_.retry_budget_left;
    DFIM_ASSIGN_OR_RETURN(
        suffix, PlanRecoverySuffix(*decision, cur->chosen, exec, hosts,
                                   opts_.tuner.sched.net_mb_per_sec, &ids,
                                   &holders));
    // Recovery replans against the fleet as it stands now: preempted or
    // crashed VMs are gone, and the elastic fleet may need to wait out a
    // boot or a denial backoff before a usable container exists again.
    const FleetPlan recovery_plan = PrepareFleet(start + out.elapsed, metrics);
    out.elapsed += recovery_plan.wait;
    SkylineScheduler rescheduler(
        WithinFleet(opts_.tuner.sched, recovery_plan.bound));
    DFIM_ASSIGN_OR_RETURN(
        suffix.chosen,
        FastestSchedule(rescheduler.ScheduleDag(
            suffix.combined, suffix.durations, /*place_optional=*/false)));
    cur = &suffix;
  }
  return out;
}

Result<ExecResult> QaasService::RunAttempt(const TunerDecision& d, int df_id,
                                           int attempt, Seconds t0,
                                           std::vector<int>* hosts,
                                           ServiceMetrics* metrics) {
  const int nc = std::max(1, d.chosen.num_containers());
  // Best-effort elastic acquisition: only containers usable right now
  // (booted, outside any reclaim-notice window). The plan was bounded by
  // PrepareFleet at this same instant, so this normally covers nc.
  std::vector<Container*> containers =
      ElasticActive() ? fleet_.AcquireUsable(nc, t0).usable
                      : std::vector<Container*>{};
  if (static_cast<int>(containers.size()) < nc) {
    // Fixed-fleet path — or the elastic fleet shrank between planning and
    // acquisition; the strict path guarantees the plan its containers. The
    // cluster reaps expired containers (their pre-paid quantum is over and
    // their local disks/caches are gone, paper §3), reuses alive ones in
    // stable order, and allocates the rest fresh. With the elastic
    // machinery off the capacity cap is unbounded, so this never fails.
    auto got = fleet_.Acquire(nc, t0);
    containers = got.ok() ? *std::move(got) : std::vector<Container*>{};
  }
  hosts->clear();
  for (const Container* c : containers) hosts->push_back(c->id());
  SimOptions sim = opts_.sim;
  sim.quantum = opts_.tuner.sched.quantum;
  sim.net_mb_per_sec = opts_.tuner.sched.net_mb_per_sec;
  sim.seed = opts_.seed ^ (static_cast<uint64_t>(df_id) * 0x9e3779b9ULL) ^
             (static_cast<uint64_t>(attempt) * 0x517cc1b727220a95ULL);
  // The fault model rides every attempt: at zero rates its draws are the
  // identity and the simulator's result is the fault-free one.
  FaultInjection fi;
  fi.model = &faults_;
  fi.run_key = RunKey(df_id, attempt);
  fi.trace =
      faults_.DrawTrace(fi.run_key, nc, d.chosen.TotalSpan(), sim.quantum);
  // Translate each acquired container's absolute provider-reclaim instant
  // into the schedule-relative trace: the simulator drains the doomed
  // container through its notice window and charges nothing past the
  // reclaim (DESIGN.md §13).
  if (opts_.faults.preempt_rate > 0) {
    for (int c = 0; c < nc && c < static_cast<int>(containers.size()); ++c) {
      const Seconds at = containers[static_cast<size_t>(c)]->preempt_at();
      if (at >= kNeverFails) continue;
      ContainerFaults& cf = fi.trace.containers[static_cast<size_t>(c)];
      cf.reclaim_at = at - t0;
      cf.notice_at =
          std::max<Seconds>(0, cf.reclaim_at - opts_.faults.preempt_notice);
    }
  }
  fi.spec = opts_.speculation;
  // Breaker coordination: a hedge is an extra storage request, and piling
  // duplicates onto a store that already tripped the breaker would
  // double-trip it — suppress hedging while the breaker is open.
  if (fi.spec.hedge_reads && state_.breaker.OpenAt(t0)) {
    fi.spec.suppress_hedges = true;
  }
  DFIM_ASSIGN_OR_RETURN(
      ExecResult exec,
      ExecSimulator(sim).Run(d.combined, d.chosen, d.costs, &containers, &fi));

  // Lease bookkeeping: extend each container through its realized end
  // (Timeline::last_end() is the per-container high-water mark).
  std::vector<Timeline> actual_tls = exec.actual.BuildTimelines();
  for (int c = 0; c < nc && c < static_cast<int>(actual_tls.size()); ++c) {
    Seconds last = actual_tls[static_cast<size_t>(c)].last_end();
    if (last > 0) {
      fleet_.ChargeThrough(containers[static_cast<size_t>(c)], t0 + last);
    }
  }
  // Crashed/reclaimed containers are gone: the provider stops charging and
  // their local disks — caches, staged outputs, partial builds — are lost
  // (paper §3). Evict them from the fleet so the next acquisition leases
  // fresh, cold containers; the ledger distinguishes provider reclaims
  // from plain crashes.
  for (const ContainerLoss& l : exec.losses) {
    fleet_.RemoveFailed(containers[static_cast<size_t>(l.container)],
                        l.preempted);
  }
  metrics->containers_failed += static_cast<int>(exec.losses.size());
  metrics->storage_faults += exec.storage_faults;
  metrics->storage_reads += exec.storage_reads;
  metrics->ops_speculated += exec.ops_speculated;
  metrics->spec_wins += exec.spec_wins;
  metrics->spec_cancelled += exec.spec_cancelled;
  metrics->spec_cancelled_quanta += exec.spec_cancelled_seconds / sim.quantum;
  metrics->hedged_reads += exec.hedged_reads;
  metrics->hedge_wins += exec.hedge_wins;
  metrics->verified_reads += exec.verified_reads;
  metrics->degraded_reads += exec.corrupt_reads;
  metrics->total_vm_quanta += exec.leased_quanta;
  metrics->total_ops += exec.executed_ops;
  metrics->killed_ops += exec.killed_builds;
  if (attempt > 0) {
    metrics->recovery_quanta += exec.leased_quanta;
    metrics->ops_reexecuted += exec.executed_ops;
  }
  return exec;
}

Seconds QaasService::LandBuilds(const ExecResult& exec, uint64_t run_key,
                                Seconds t0, Seconds* last_persist,
                                ServiceMetrics* metrics) {
  // Each completed index partition is persisted to the storage service at
  // completion; a Put may fault transiently and retries with capped
  // exponential backoff. A partition that was never persisted gets no
  // catalog entry — a dead container cannot resend from its lost local
  // disk, so its builds get only the completion-time attempt.
  PersistBreaker& breaker = state_.breaker;
  Seconds delay = 0;
  for (const auto& b : exec.builds) {
    const bool died = std::any_of(
        exec.losses.begin(), exec.losses.end(),
        [&](const ContainerLoss& l) { return l.container == b.container; });
    const Seconds built_at = t0 + b.finish;
    // An open breaker knows the persist path is bad: the Put is skipped
    // outright instead of burning retries and backoff delay.
    const int retries =
        breaker.Admit(built_at, died ? 0 : kPersistMaxRetries);
    int landed = -1;
    if (retries >= 0) {
      Seconds backoff = kPersistBackoffInitial;
      for (int r = 0; r <= retries; ++r) {
        if (!faults_.StorageOpFaults(run_key,
                                     PersistKey(b.index_id, b.partition, r))) {
          breaker.Landed();
          landed = r;
          break;
        }
        ++metrics->storage_retries;
        if (breaker.Fault(opts_.breaker, built_at)) {
          ++metrics->breaker_opens;
          break;
        }
        if (r < retries) {
          delay += backoff;
          backoff = std::min(backoff * 2.0, kPersistBackoffCap);
        }
      }
    }
    if (landed < 0) {
      ++metrics->builds_discarded;
    } else {
      RecordBuild(b, run_key, landed, died, built_at, last_persist, metrics);
    }
  }
  if (opts_.resumable_builds) {
    // Preempted builds keep their progress; crash-lost builds do not (they
    // are in lost_ops, not kills — the partial work died with the
    // container's disk).
    for (const auto& k : exec.kills) {
      // A build preempted before it got any CPU leaves no useful progress.
      if (k.ran_for > 0) {
        state_.build_progress[{k.index_id, k.partition}] += k.ran_for;
      }
    }
  }
  return delay;
}

void QaasService::RecordBuild(const BuildCompletion& b, uint64_t run_key,
                              int landed, bool container_died,
                              Seconds built_at, Seconds* last_persist,
                              ServiceMetrics* metrics) {
  const uint64_t persist_key = PersistKey(b.index_id, b.partition, landed);
  // A build landing on a quarantined partition is the repair arriving
  // (MarkIndexPartitionBuilt lifts the quarantine).
  const bool was_quarantined = catalog_->IsQuarantined(b.index_id, b.partition);
  if (!catalog_->MarkIndexPartitionBuilt(b.index_id, b.partition, built_at)
           .ok()) {
    return;
  }
  auto def = catalog_->GetIndexDef(b.index_id);
  auto state = catalog_->GetIndexState(b.index_id);
  if (def.ok() && state.ok()) {
    const auto& part = (*state)->part(static_cast<size_t>(b.partition));
    const std::string path = (*def)->PartitionPath(b.partition);
    PutStamp stamp;
    if (opts_.faults.corruption_enabled()) {
      // Integrity stamps (DESIGN.md §12), keyed by the attempt that landed:
      // a crash-interrupted persist (dead container) is likelier torn;
      // latent rot is pre-drawn against the generation this Put creates.
      const Seconds quantum = opts_.tuner.sched.quantum;
      stamp.torn = faults_.TornWrite(run_key, persist_key, container_died);
      int64_t max_q =
          QuantaCeil(std::max(opts_.total_time - built_at, quantum), quantum) +
          8;
      stamp.rot_at =
          faults_.BitRotOnset(PathHash(path), storage_.NextGeneration(path),
                              built_at, quantum, max_q);
    }
    // Idempotency token: the journal sets it on every persist — recovery
    // replay re-resolves in-flight persists exactly-once through it (a
    // landing that survived the crash is acknowledged, never re-billed;
    // one that did not is re-issued).
    if (JournalOn()) stamp.token = persist_key | 1ULL;
    const StorageInstant at = StorageCallAt(built_at);
    // A replayed persist whose pre-crash landing survives dedupes by token
    // (same generation, stamps ignored, nothing re-billed).
    if (recovering_ && stamp.token != 0 &&
        storage_.TokenMatches(path, stamp.token)) {
      ++journal_.mutable_ledger()->persists_deduped;
    }
    int64_t gen = storage_.Put(path, part.size, at.issued, stamp);
    (void)catalog_->SetPartitionGeneration(b.index_id, b.partition, gen);
    *last_persist = std::max(*last_persist, at.billed);
  }
  ++metrics->index_partitions_built;
  if (was_quarantined) ++metrics->repairs_completed;
  // A fresh build counts as a reference: the grace clock starts now.
  auto [it, inserted] = state_.last_useful.try_emplace(b.index_id, built_at);
  if (!inserted) it->second = std::max(it->second, built_at);
  if (opts_.resumable_builds) {
    state_.build_progress.erase({b.index_id, b.partition});
  }
}

void QaasService::RecordHistory(const Dataflow& df, Seconds finish) {
  // Record history: what-if gains of every candidate index (the paper's
  // Hd stores each dataflow with its specified indexes and their gains).
  // Failed dataflows record nothing — they produced no result. The gains
  // loop refreshes state_.last_useful, so this must run before ApplyDeletions.
  DataflowRecord rec;
  rec.finished_at = finish;
  const WhatIfTable what_if = tuner_.WhatIf(df);
  for (const auto& idx : df.candidate_indexes) {
    double g = what_if.Gain(idx);
    if (g > 0) {
      rec.gain[idx] = g;
      state_.last_useful[idx] = finish;
    }
  }
  state_.history.push_back(std::move(rec));
  while (state_.history.size() > kMaxHistory) state_.history.pop_front();
}

void QaasService::ApplyDeletions(const std::vector<std::string>& to_delete,
                                 Seconds finish, ServiceMetrics* metrics) {
  // Deletions (Gain policy only; Random/NoDelete never delete). An index
  // is only dropped once it has gone unreferenced for the grace period,
  // so a single low-speedup draw does not evict an otherwise hot index.
  Seconds grace = opts_.deletion_grace_quanta * opts_.tuner.sched.quantum;
  for (const auto& idx : to_delete) {
    auto it = state_.last_useful.find(idx);
    // Unknown reference times count as fresh (conservative: never delete
    // an index whose usage we have not observed yet).
    if (it == state_.last_useful.end() || finish - it->second < grace) continue;
    auto dropped = catalog_->DropIndex(idx);
    if (dropped.ok() && !dropped->empty()) {
      for (const auto& path : *dropped) StorageDelete(path, finish);
      ++metrics->indexes_deleted;
    }
  }
}

void QaasService::StampTimeline(Seconds finish, double queue_delay_quanta,
                                double makespan_quanta,
                                ServiceMetrics* metrics) {
  // The Fig. 13 timeline.
  TimelinePoint pt;
  pt.t = finish;
  pt.storage_cost = storage_.accrued_cost();
  pt.queue_delay_quanta = queue_delay_quanta;
  pt.makespan_quanta = makespan_quanta;
  for (const auto& idx : catalog_->IndexIds()) {
    auto st = catalog_->GetIndexState(idx);
    if (st.ok() && (*st)->NumBuilt() > 0) {
      ++pt.indexes_built;
      pt.index_mb += (*st)->TotalBuiltSize();
    }
  }
  metrics->timeline.push_back(pt);
}

void QaasService::ApplyDueUpdates(Seconds now, ServiceMetrics* metrics) {
  if (opts_.update_interval_quanta <= 0) return;
  Seconds interval = opts_.update_interval_quanta * opts_.tuner.sched.quantum;
  if (state_.next_update <= 0) state_.next_update = interval;
  auto tables = catalog_->TableNames();
  if (tables.empty()) return;
  while (state_.next_update <= now) {
    for (int t = 0; t < kUpdateTablesPerBatch; ++t) {
      const std::string& name = tables[static_cast<size_t>(
          state_.rng.UniformInt(0, static_cast<int64_t>(tables.size()) - 1))];
      auto table = catalog_->GetTable(name);
      if (!table.ok()) continue;
      int nparts = static_cast<int>((*table)->num_partitions());
      int touch = std::max(
          1, static_cast<int>(kUpdateFraction * nparts + 0.5));
      std::vector<int> ids;
      for (int i = 0; i < touch; ++i) {
        ids.push_back(static_cast<int>(state_.rng.UniformInt(0, nparts - 1)));
      }
      auto invalidated = catalog_->ApplyBatchUpdate(name, ids);
      if (invalidated.ok()) {
        for (const auto& path : *invalidated) {
          StorageDelete(path, state_.next_update);
        }
        metrics->index_partitions_invalidated +=
            static_cast<int>(invalidated->size());
      }
    }
    ++metrics->update_batches;
    state_.next_update += interval;
  }
}

// ---------------------------------------------------------------------------
// Crash-consistent control plane (DESIGN.md §15)
// ---------------------------------------------------------------------------

bool QaasService::MaybeCtlCrash() {
  if (!JournalOn() || !opts_.faults.ctl_enabled()) return false;
  // The boundary counter ticks monotonically across crashes and replays
  // (it is deliberately not journaled), so a directed crash_at_boundary
  // fires exactly once and rate draws never repeat.
  const uint64_t idx = static_cast<uint64_t>(ctl_boundary_counter_++);
  // Fail open: past the resume bound the run proceeds uncrashed until an
  // iteration completes, instead of crash-looping under ctl_crash_rate = 1.
  if (resume_attempts_ >= kMaxResumeAttempts) return false;
  if (!faults_.CtlCrashAt(idx)) return false;
  ++journal_.mutable_ledger()->ctl_crashes;
  return true;
}

void QaasService::StorageDelete(const std::string& path, Seconds at) {
  BumpClockMirror(at);
  if (!JournalOn()) {
    storage_.Delete(path, at);
    return;
  }
  // Deferred: a crash between this delete and the next commit must not
  // have destroyed an object the replay still reads. The generation guard
  // skips the delete if the object was overwritten since staging.
  state_.staged_deletes.push_back(
      StagedDelete{path, at, storage_.Generation(path)});
}

void QaasService::FlushStagedDeletes() {
  for (const auto& d : state_.staged_deletes) {
    if (storage_.Generation(d.path) == d.generation) {
      storage_.Delete(d.path, ReplayClamp(d.at));
    }
  }
  state_.staged_deletes.clear();
}

void QaasService::SettleStorage(Seconds t) {
  BumpClockMirror(t);
  storage_.AdvanceTo(ReplayClamp(t));
}

ServiceSnapshot QaasService::MakeSnapshot(ServiceSnapshot::Kind kind,
                                          const ServiceMetrics& metrics) const {
  ServiceSnapshot s;
  s.kind = kind;
  s.catalog = catalog_->SaveState();
  s.fleet = fleet_.SaveState();
  s.control = state_;
  s.detection_watermark = storage_.detection_seq();
  s.loop = *loop_;
  s.metrics = metrics;
  if (kind == ServiceSnapshot::Kind::kPreExecute) s.in_flight = in_flight_;
  return s;
}

void QaasService::RestoreSnapshot(const ServiceSnapshot& s,
                                  ServiceMetrics* metrics) {
  catalog_->RestoreState(s.catalog);
  fleet_.RestoreState(s.fleet);
  state_ = s.control;
  // Un-detect every storage detection logged after the snapshot, so the
  // replayed verifies return kCorrupt again identically.
  storage_.RewindDetectionsTo(s.detection_watermark);
  *loop_ = s.loop;
  *metrics = s.metrics;
  in_flight_ = s.in_flight;
}

void QaasService::CommitJournal(ServiceSnapshot::Kind kind,
                                const ServiceMetrics& metrics) {
  if (!JournalOn()) return;
  // Group commit: the deferred destructive deletes apply first, so the
  // snapshot captures the post-flush storage view (staged list empty).
  FlushStagedDeletes();
  journal_.CommitSnapshot(MakeSnapshot(kind, metrics));
}

Status QaasService::RunIteration(ServiceMetrics* metrics) {
  bool resume_b_phase = false;
  while (true) {
    Result<RunOutcome> r =
        resume_b_phase ? FinishRun(metrics) : StartRun(metrics);
    if (!r.ok()) return r.status();
    if (!r->crashed) {
      loop_->clock = r->finish;
      loop_->settled = std::max(loop_->settled, r->settled);
      recovering_ = false;
      resume_attempts_ = 0;
      in_flight_.reset();
      return Status::OK();
    }
    // Injected control-plane crash. The journal (like the storage service)
    // survives; restore the latest snapshot and resume exactly-once: a
    // kIterStart snapshot re-runs the iteration from the top, a kPreExecute
    // snapshot re-enters the B-phase with the saved in-flight decision.
    ++resume_attempts_;
    std::shared_ptr<const ServiceSnapshot> snap = journal_.Recover();
    if (snap == nullptr) {
      return Status::Internal(
          "control-plane crash with no recoverable journal snapshot");
    }
    RestoreSnapshot(*snap, metrics);
    recovering_ = true;
    resume_b_phase = snap->kind == ServiceSnapshot::Kind::kPreExecute;
  }
}

void QaasService::HarvestJournal(ServiceMetrics* metrics) const {
  const JournalLedger& ledger = journal_.ledger();
  metrics->ctl_crashes = ledger.ctl_crashes;
  metrics->journal_records = ledger.records_written;
  metrics->journal_bytes = ledger.bytes_written;
  metrics->replayed_records = ledger.replayed;
  metrics->persists_deduped = ledger.persists_deduped;
  metrics->recovery_replay_quanta = ledger.recovery_replay_quanta;
}

Result<ServiceMetrics> QaasService::Run(WorkloadClient* client) {
  // Fail fast on misconfigured knobs before any draw consumes them —
  // DrawTrace would otherwise walk negative/>1 hazards raw.
  DFIM_RETURN_NOT_OK(ValidateFaultOptions(opts_.faults));
  DFIM_RETURN_NOT_OK(ValidateSpeculationOptions(opts_.speculation));
  DFIM_RETURN_NOT_OK(ValidateIntegrityOptions(opts_.integrity));
  DFIM_RETURN_NOT_OK(ValidateAutoscalerOptions(opts_.autoscaler));
  DFIM_RETURN_NOT_OK(ValidateBatchOptions(opts_.batch));
  if (opts_.tuner.pricing.quantum != opts_.tuner.sched.quantum) {
    return Status::InvalidArgument(
        "tuner.pricing.quantum must equal tuner.sched.quantum: the fleet and "
        "storage bill at the one while the skyline and the knapsack plan at "
        "the other, so a build is no longer free");
  }
  if (opts_.faults.ctl_enabled() && !opts_.journal.enabled) {
    return Status::InvalidArgument(
        "control-plane crash injection (ctl_crash_rate / crash_at_boundary) "
        "requires journal.enabled: a crash without a journal loses the run");
  }
  if (JournalOn()) storage_.EnableDetectionLog();
  if (opts_.autoscaler.enabled && !opts_.admission.open_loop) {
    return Status::InvalidArgument(
        "autoscaler requires admission.open_loop: the closed loop has no "
        "queue-pressure signal to scale on");
  }
  if (opts_.batch.max_batch > 1 && !opts_.admission.open_loop) {
    return Status::InvalidArgument(
        "batched admission requires admission.open_loop: the closed loop "
        "issues one dataflow at a time, so there is never a queue to merge");
  }
  if (opts_.admission.open_loop) return RunOpenLoop(client);
  ServiceMetrics metrics;
  ServiceSnapshot::LoopState loop;
  loop_ = &loop;
  while (true) {
    std::optional<Dataflow> df = client->Next(loop.clock, opts_.total_time);
    if (!df.has_value()) break;
    journal_.AppendArrival();
    ++metrics.dataflows_arrived;
    Seconds start = std::max(df->issued_at, loop.clock);
    if (start >= opts_.total_time) {
      // The horizon closed before this arrival could start: shed, as the
      // open loop sheds horizon-stranded entries.
      ++metrics.dataflows_shed;
      break;
    }
    ApplyDueUpdates(start, &metrics);
    loop.batch.clear();
    PendingDataflow p;
    p.df = std::move(*df);
    p.arrival = start;
    loop.batch.push_back(std::move(p));
    loop.start = start;
    loop.build_fraction = 1.0;
    // C0: all of this iteration's inputs (the arrival, due updates) are in;
    // a crash anywhere past this point re-runs from here.
    CommitJournal(ServiceSnapshot::Kind::kIterStart, metrics);
    DFIM_RETURN_NOT_OK(RunIteration(&metrics));
  }
  SettleRun(&metrics);
  const ServiceSlack slack = CheckInvariants(metrics);
  if (!slack.ok()) return Status::Internal(slack.ToString());
  return metrics;
}

void QaasService::SettleRun(ServiceMetrics* metrics) {
  // The last dataflow may legitimately finish (and persist builds) past the
  // horizon; the bill is already settled through `settled` in that case.
  const Seconds final_t =
      std::max({opts_.total_time, loop_->clock, loop_->settled});
  // A final scrub pass spends whatever budget the idle horizon tail
  // accrued, so end-of-run rot is detected rather than silently latent.
  RunScrub(final_t, metrics);
  SettleStorage(final_t);
  metrics->storage_cost = storage_.accrued_cost();
  metrics->storage_clock_clamps = storage_.clock_clamps();
  // The storage-side corruption ledger.
  metrics->corruptions_injected = storage_.corruptions_injected();
  metrics->corruptions_dead = storage_.corruptions_dead();
  metrics->corruptions_latent = storage_.LatentCorrupt(final_t);
  metrics->quarantine_evicted =
      static_cast<int>(catalog_->quarantine_evictions());
  // Settle the fleet: leases past the horizon expire idle, so the final
  // ledger accounts every granted container. An always-on fleet is billed
  // through the horizon first — its idle tail is part of the bill.
  if (opts_.autoscaler.enabled && opts_.autoscaler.keep_alive) {
    fleet_.KeepAlive(std::max(final_t, opts_.total_time));
  }
  fleet_.ReapExpired(std::max(final_t, opts_.total_time));
  HarvestFleet(metrics);
  HarvestJournal(metrics);
  loop_ = nullptr;
}

namespace {

/// Visits every ServiceSlack field with its name, in declaration order.
template <typename F>
void ForEachSlack(const ServiceSlack& s, F&& f) {
  f("accounting", s.accounting);
  f("speculation", s.speculation);
  f("corruption", s.corruption);
  f("quarantine", s.quarantine);
  f("fleet_requests", s.fleet_requests);
  f("fleet_grants", s.fleet_grants);
  f("journal_records", s.journal_records);
  f("journal_generations", s.journal_generations);
  f("unstored_partitions", s.unstored_partitions);
}

}  // namespace

bool ServiceSlack::ok() const {
  bool zero = true;
  ForEachSlack(*this, [&zero](const char*, int64_t v) { zero &= v == 0; });
  return zero;
}

std::string ServiceSlack::ToString() const {
  std::string out;
  ForEachSlack(*this, [&out](const char* name, int64_t v) {
    if (v == 0) return;
    out += out.empty() ? "ledger slack:" : "";
    out += std::string(" ") + name + "=" + std::to_string(v);
  });
  return out;
}

ServiceSlack QaasService::CheckInvariants(const ServiceMetrics& m) const {
  ServiceSlack s;
  s.accounting = int64_t{m.dataflows_arrived} - m.dataflows_finished -
                 m.dataflows_failed - m.dataflows_overran - m.dataflows_shed;
  s.speculation = int64_t{m.ops_speculated} - m.spec_wins - m.spec_cancelled;
  s.corruption = m.corruptions_injected - m.corruptions_detected_on_read -
                 m.corruptions_detected_by_scrub - m.corruptions_dead -
                 m.corruptions_latent;
  s.quarantine = int64_t{m.partitions_quarantined} - m.repairs_completed -
                 m.quarantine_evicted -
                 static_cast<int64_t>(catalog_->quarantined().size());
  s.fleet_requests = fleet_.ledger().RequestSlack();
  s.fleet_grants = fleet_.ledger().GrantSlack(fleet_.HeldCount());
  s.journal_records = journal_.LedgerSlack();
  s.journal_generations = journal_.generation() - journal_.ledger().replayed;
  for (const auto& idx : catalog_->IndexIds()) {
    auto def = catalog_->GetIndexDef(idx);
    auto state = catalog_->GetIndexState(idx);
    if (!def.ok() || !state.ok()) continue;
    for (size_t p = 0; p < (*state)->num_partitions(); ++p) {
      if ((*state)->part(p).built &&
          !storage_.Exists((*def)->PartitionPath(static_cast<int>(p)))) {
        ++s.unstored_partitions;
      }
    }
  }
  return s;
}

Result<ServiceMetrics> QaasService::RunOpenLoop(WorkloadClient* client) {
  ServiceMetrics metrics;
  const Seconds quantum = opts_.tuner.sched.quantum;
  ServiceSnapshot::LoopState loop;  // clock: when the front door is next free
  loop_ = &loop;
  loop.pending_arrival = client->Next(0, opts_.total_time);
  if (loop.pending_arrival.has_value()) journal_.AppendArrival();
  std::deque<PendingDataflow>& queue = loop.queue;
  std::optional<Dataflow>& next_df = loop.pending_arrival;

  // Event loop in virtual-time order: an arrival is admitted the moment it
  // occurs; the head of the queue is dequeued when the server frees up.
  // Every arrival is accounted exactly once — finished, overran, failed, or
  // shed — so arrived == finished + failed + overran + shed with zero slack.
  while (next_df.has_value() || !queue.empty()) {
    Seconds dequeue_at = queue.empty()
                             ? std::numeric_limits<Seconds>::infinity()
                             : std::max(loop.clock, queue.front().arrival);
    if (next_df.has_value() && next_df->issued_at <= dequeue_at) {
      admission_.Admit(std::move(*next_df), &queue, &metrics);
      next_df = client->Next(0, opts_.total_time);
      if (next_df.has_value()) journal_.AppendArrival();
      continue;
    }

    PendingDataflow p = std::move(queue.front());
    queue.pop_front();
    Seconds start = std::max(loop.clock, p.arrival);
    if (start >= opts_.total_time) {
      // Stranded: the horizon closed while this entry waited.
      ++metrics.dataflows_shed;
      continue;
    }
    if (opts_.admission.shed == ShedPolicy::kDeadlineInfeasible &&
        p.deadline > 0 && start + p.estimate > p.deadline) {
      // Early drop: even started immediately it cannot meet its deadline,
      // so don't waste server time on it.
      ++metrics.dataflows_shed;
      ++metrics.shed_infeasible;
      continue;
    }

    // Batched admission (DESIGN.md §14; max_batch 1 never enters this
    // loop). Work-conserving: only entries already pending whose arrivals
    // fall within the head's window join — the dequeue never waits for
    // future arrivals. Infeasible entries are shed here exactly as the head
    // check above would have shed them one dequeue later.
    std::vector<PendingDataflow>& batch = loop.batch;
    batch.clear();
    batch.push_back(std::move(p));
    if (opts_.batch.max_batch > 1) {
      const Seconds window = opts_.batch.window_quanta * quantum;
      while (static_cast<int>(batch.size()) < opts_.batch.max_batch &&
             !queue.empty() &&
             queue.front().arrival <= batch.front().arrival + window) {
        PendingDataflow q = std::move(queue.front());
        queue.pop_front();
        if (opts_.admission.shed == ShedPolicy::kDeadlineInfeasible &&
            q.deadline > 0 && start + q.estimate > q.deadline) {
          ++metrics.dataflows_shed;
          ++metrics.shed_infeasible;
          continue;
        }
        batch.push_back(std::move(q));
      }
    }

    // Queue pressure: the head's queue delay, read by the brownout knob
    // here and by the autoscaler in PrepareFleet.
    const double pressure = (start - batch.front().arrival) / quantum;
    state_.last_pressure = pressure;
    double fraction =
        admission_.BuildFraction(pressure, &state_.brownout_off);
    ApplyDueUpdates(start, &metrics);
    loop.start = start;
    loop.build_fraction = fraction;
    // C0: arrivals pulled, batch formed, due updates applied; a crash
    // anywhere in the iteration below re-runs from here.
    CommitJournal(ServiceSnapshot::Kind::kIterStart, metrics);
    DFIM_RETURN_NOT_OK(RunIteration(&metrics));
  }

  SettleRun(&metrics);
  const ServiceSlack slack = CheckInvariants(metrics);
  if (!slack.ok()) return Status::Internal(slack.ToString());
  return metrics;
}

}  // namespace dfim
