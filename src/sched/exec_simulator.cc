#include "sched/exec_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>

#include "cloud/storage_service.h"
#include "sched/timeline.h"

namespace dfim {
namespace {

/// Salted op-key bits: hedge duplicates and speculative clone fetches
/// re-draw storage faults independently of the primary read, but still
/// deterministically per (run_key, op_key, attempt). The salts live in the
/// top bits, far above both raw op ids and the service's persist-key space.
constexpr uint64_t kHedgeAttemptBit = uint64_t{1} << 62;
constexpr uint64_t kCloneAttemptBit = uint64_t{1} << 61;

constexpr Seconds kInf = std::numeric_limits<double>::infinity();

/// One clone's occupancy on its host: [start, busy_end) blocks Phase-2
/// builds; the tail of the reservation past busy_end is the slot time a
/// cancellation handed back to the build knapsack.
struct CloneOccupancy {
  Seconds start = 0;
  Seconds busy_end = 0;
};

/// Realized state of one dataflow pass.
struct DfState {
  std::vector<Seconds> finish;  // realized finish per op (-1 = never ran)
  std::vector<Seconds> start;   // realized start per op (-1 = never ran)
  std::vector<char> lost;
  std::vector<Seconds> cursor;  // per-container dataflow high-water mark
  std::vector<char> saw_crash;
  /// Producers whose output each container already holds.
  std::vector<std::set<int>> delivered;
  /// Mandatory ops not yet realized per container: a clone may only land
  /// on a drained host, so it can never delay mandatory work.
  std::vector<int> remaining;
  /// Realized busy intervals for the clone slot search (speculation only).
  std::vector<Timeline> tl;
  std::vector<std::vector<CloneOccupancy>> occ;
  std::vector<int> staged;  // scratch for StageSeconds

  DfState(size_t num_ops, size_t nc, bool spec)
      : finish(num_ops, -1.0),
        start(num_ops, -1.0),
        lost(num_ops, 0),
        cursor(nc, 0),
        saw_crash(nc, 0),
        delivered(nc),
        remaining(nc, 0),
        tl(spec ? nc : 0),
        occ(nc) {}
};

/// One op's storage fetch.
struct Fetch {
  Seconds transfer = 0;   // realized (fault latency / hedge / verify applied)
  Seconds base_read = 0;  // healthy fetch time (no fault latency)
  Seconds verify_charge = 0;
  bool fetched = false;
};

/// A container's lease: the quanta covering its planned span and realized
/// dataflow end, truncated at its failure instant when it died first.
struct Lease {
  int64_t quanta = 0;
  bool crashed = false;
};

/// One replay of a plan: the inputs, the per-op actual values drawn once,
/// and the per-container plan and fault record every pass reads.
class Replay {
 public:
  Replay(const SimOptions& opts, const Dag& dag, const Schedule& plan,
         const std::vector<SimOpCost>& costs, const FaultInjection& fi)
      : opts_(opts),
        dag_(dag),
        costs_(costs),
        fi_(fi),
        fault_latency_(fi.model != nullptr
                           ? fi.model->options().storage_fault_latency
                           : 0),
        sorted_(plan.SortedByContainer()),
        nc_(static_cast<size_t>(plan.num_containers())) {
    // Actual values are drawn once, in op-id order (deterministic).
    Rng rng(opts_.seed);
    auto perturb = [&rng](double v, double err) {
      if (err <= 0) return v;
      return v * rng.Uniform(1.0 - err, 1.0 + err);
    };
    cpu_.resize(dag.num_ops());
    input_.resize(dag.num_ops());
    for (size_t i = 0; i < dag.num_ops(); ++i) {
      cpu_[i] = perturb(costs[i].cpu_time, opts.time_error);
      input_[i] = perturb(costs[i].input_mb, opts.data_error);
    }
    // A winning clone ships its output back to the planned container, so
    // consumers read it where the plan expects: pre-sum it per producer.
    flow_.resize(dag.num_flows());
    out_flow_mb_.assign(dag.num_ops(), 0);
    for (size_t i = 0; i < dag.num_flows(); ++i) {
      flow_[i] = perturb(dag.flows()[i].size, opts.data_error);
      out_flow_mb_[static_cast<size_t>(dag.flows()[i].from)] += flow_[i];
    }
    seq_.resize(nc_);
    planned_end_.assign(nc_, 0);
    placed_.assign(dag.num_ops(), -1);
    for (const Assignment& a : sorted_) {
      const auto c = static_cast<size_t>(a.container);
      seq_[c].push_back(&a);
      planned_end_[c] = std::max(planned_end_[c], a.end);
      placed_[static_cast<size_t>(a.op_id)] = a.container;
      if (!a.optional) df_plan_.push_back(&a);
    }
    // Global planned-start order is a topological order for schedules built
    // by our schedulers (children always start after parents end).
    std::stable_sort(df_plan_.begin(), df_plan_.end(),
                     [](const Assignment* x, const Assignment* y) {
                       if (x->start != y->start) return x->start < y->start;
                       return x->op_id < y->op_id;
                     });
    // A container without a trace entry keeps the identity record. A
    // provider reclaim ends the lease exactly like a crash, so it is folded
    // into the crash instant.
    faults_.resize(nc_);
    for (size_t c = 0; c < std::min(nc_, fi.trace.containers.size()); ++c) {
      faults_[c] = fi.trace.containers[c];
      faults_[c].crash_at =
          std::min(faults_[c].crash_at, faults_[c].reclaim_at);
    }
  }

  const ContainerFaults& faults(size_t c) const { return faults_[c]; }

  /// Runs every dataflow op in planned-start order against `caches`,
  /// recording into `out`; with `spec`, stragglers are cloned into the
  /// quanta `floor` already pays for.
  Status DataflowPass(const std::vector<LruCache*>& caches, bool hedge,
                      bool spec, const std::vector<int64_t>& floor,
                      DfState* st, ExecResult* out) const {
    for (const Assignment* a : df_plan_) {
      ++st->remaining[static_cast<size_t>(a->container)];
    }
    for (const Assignment* a : df_plan_) {
      const auto id = static_cast<size_t>(a->op_id);
      const auto c = static_cast<size_t>(a->container);
      const ContainerFaults& f = faults_[c];
      --st->remaining[c];
      Seconds est = st->cursor[c];
      bool doomed = false;
      for (int fid : dag_.in_flows(a->op_id)) {
        const auto from =
            static_cast<size_t>(dag_.flows()[static_cast<size_t>(fid)].from);
        if (st->lost[from]) {
          // The producer died with its container: this op can never run.
          doomed = true;
          break;
        }
        if (st->finish[from] < 0) {
          return Status::Internal(
              "plan is not dependency-ordered: parent of op " +
              std::to_string(a->op_id) + " not finished");
        }
        est = std::max(est, st->finish[from]);
      }
      if (!doomed && est >= std::min(f.crash_at, f.notice_at) - 1e-9) {
        // The container is already dead when this op could start — or its
        // reclaim notice has arrived, and a draining container accepts no
        // new work (the op is rescheduled by the recovery path instead).
        doomed = true;
        st->saw_crash[c] = 1;
      }
      if (doomed) {
        st->lost[id] = 1;
        out->lost_ops.push_back(LostOp{a->op_id, a->container, false});
        continue;
      }
      const Seconds flow_transfer =
          StageSeconds(a->op_id, a->container, st->delivered[c], &st->staged);
      const Fetch in = FetchInput(*a, caches[c], hedge, out);
      const Seconds start = est;
      const double s = f.slowdown;
      const Seconds cpu_used =
          costs_[id].corrupt_read ? costs_[id].fallback_cpu_time : cpu_[id];
      const Seconds end =
          start + flow_transfer * s + in.transfer * s + cpu_used * s;
      ++out->executed_ops;
      Assignment actual = *a;
      actual.start = start;
      if (end > f.crash_at + 1e-9) {
        // The container dies mid-op: the partial work (and the local disk
        // holding the op's inputs/outputs) is lost.
        st->lost[id] = 1;
        st->saw_crash[c] = 1;
        out->lost_ops.push_back(LostOp{a->op_id, a->container, false});
        actual.end = f.crash_at;
        out->actual.Add(actual);
        st->cursor[c] = f.crash_at;
        if (spec) st->tl[c].Insert(actual);
        continue;
      }
      for (int p : st->staged) st->delivered[c].insert(p);
      if (in.fetched && !costs_[id].corrupt_read && caches[c] != nullptr &&
          !costs_[id].cache_key.empty()) {
        caches[c]->Put(costs_[id].cache_key, input_[id]);
      }
      actual.end = end;
      if (spec) {
        // The original occupies its container until it finishes or is
        // cancelled by a winning clone: either way the slot frees then.
        actual.end =
            Speculate(*a, start, end, flow_transfer, in, floor, st, out);
        st->tl[c].Insert(actual);
      }
      st->finish[id] = actual.end;
      st->start[id] = start;
      st->cursor[c] = actual.end;
      out->makespan = std::max(out->makespan, actual.end);
      out->actual.Add(actual);
    }
    return Status::OK();
  }

  Lease LeaseOf(size_t c, const DfState& st) const {
    const Seconds span = std::max(planned_end_[c], st.cursor[c]);
    const Seconds crash_at = faults_[c].crash_at;
    const bool crashed = st.saw_crash[c] != 0 || crash_at < span - 1e-9;
    const Seconds lease_span = crashed ? std::min(span, crash_at) : span;
    return Lease{std::max<int64_t>(1, QuantaCeil(lease_span, opts_.quantum)),
                 crashed};
  }

  /// Runs container `c`'s build ops in the gaps the dataflow pass left,
  /// stopping each at `bound`, the next dataflow arrival or the next clone.
  void BuildPass(size_t c, const Lease& lease, Seconds bound, DfState* st,
                 ExecResult* out) const {
    const auto& items = seq_[c];
    const ContainerFaults& f = faults_[c];
    // Next dataflow op's actual start, per position in the planned sequence
    // (lost dataflow ops never arrive, so they preempt nothing).
    std::vector<Seconds> next_df(items.size() + 1, kInf);
    for (size_t i = items.size(); i-- > 0;) {
      next_df[i] = next_df[i + 1];
      const auto id = static_cast<size_t>(items[i]->op_id);
      if (!items[i]->optional && !st->lost[id]) next_df[i] = st->start[id];
    }
    auto& occ = st->occ[c];
    std::sort(occ.begin(), occ.end(),
              [](const CloneOccupancy& x, const CloneOccupancy& y) {
                return x.start < y.start;
              });
    size_t occ_ptr = 0;
    Seconds cursor = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      const Assignment* a = items[i];
      const auto id = static_cast<size_t>(a->op_id);
      if (!a->optional) {
        if (!st->lost[id]) cursor = std::max(cursor, st->finish[id]);
        continue;
      }
      // Builds yield to realized clone occupancy: step over clones already
      // underway, and stop at the next clone's start.
      while (occ_ptr < occ.size() && occ[occ_ptr].start <= cursor + 1e-9) {
        cursor = std::max(cursor, occ[occ_ptr].busy_end);
        ++occ_ptr;
      }
      const Seconds next_clone =
          occ_ptr < occ.size() ? occ[occ_ptr].start : kInf;
      const Seconds start = cursor;
      if ((lease.crashed && start >= f.crash_at - 1e-9) ||
          start >= f.notice_at - 1e-9) {
        // The container is gone before this build could start, or its
        // reclaim notice has arrived — a draining container starts no builds.
        out->lost_ops.push_back(LostOp{a->op_id, a->container, true});
        continue;
      }
      const Seconds dur = cpu_[id] * f.slowdown;  // build time includes its IO
      const Seconds kill_at = std::max(
          std::min(std::min(next_df[i + 1], bound), next_clone), start);
      const Operator& op = dag_.op(a->op_id);
      Assignment actual = *a;
      actual.start = start;
      ++out->executed_ops;
      if (start + dur <= kill_at + 1e-9) {
        actual.end = start + dur;
        out->builds.push_back(BuildCompletion{op.index_id, op.index_partition,
                                              actual.end, a->container});
      } else if (lease.crashed && kill_at >= f.crash_at - 1e-9) {
        // Killed by the crash itself: unlike a preemption, no partial
        // progress survives (it lived on the dead local disk).
        actual.end = f.crash_at;
        ++out->killed_builds;
        out->lost_ops.push_back(LostOp{a->op_id, a->container, true});
      } else {
        actual.end = kill_at;
        ++out->killed_builds;
        out->kills.push_back(
            BuildKill{op.index_id, op.index_partition, kill_at - start});
      }
      cursor = actual.end;
      out->actual.Add(actual);
    }
  }

 private:
  /// Seconds to stage `op`'s inputs onto `host`: each producer placed
  /// elsewhere whose output `host` does not hold yet, once, in `in_flows`
  /// order. Cross-container flows serialize on the consumer's NIC. The
  /// producers counted are left in `*staged`.
  Seconds StageSeconds(int op, int host, const std::set<int>& delivered,
                       std::vector<int>* staged) const {
    staged->clear();
    Seconds t = 0;
    for (int fid : dag_.in_flows(op)) {
      const int from = dag_.flows()[static_cast<size_t>(fid)].from;
      if (placed_[static_cast<size_t>(from)] == host ||
          delivered.count(from) != 0 ||
          std::find(staged->begin(), staged->end(), from) != staged->end()) {
        continue;
      }
      t += flow_[static_cast<size_t>(fid)] / opts_.net_mb_per_sec;
      staged->push_back(from);
    }
    return t;
  }

  Fetch FetchInput(const Assignment& a, LruCache* cache, bool hedge,
                   ExecResult* out) const {
    // Input transfer from the storage service, absorbed by a warm cache.
    // Integrity verification (DESIGN.md §12): a cache-miss fetch of an
    // index-backed input pays the checksum-verify latency; an op whose
    // pre-computed verdict is corrupt_read pays for the wasted index fetch,
    // then re-reads via the base scan and runs at fallback cost — degraded,
    // never wrong.
    const auto id = static_cast<size_t>(a.op_id);
    const SimOpCost& cost = costs_[id];
    Fetch in;
    if (!(input_[id] > 0)) return in;
    // A corrupt verdict bypasses the cache outright: the binding to the index
    // object was refused at verification time, so there is no clean cached
    // copy to serve under this op's cache key.
    if (!cost.corrupt_read && cache != nullptr && !cost.cache_key.empty() &&
        cache->Touch(cost.cache_key)) {
      return in;
    }
    in.base_read = input_[id] / opts_.net_mb_per_sec;
    // Transient read faults delay the fetch, they do not kill the op; a hedge
    // re-draws under a salted key (the duplicate's fault is independent of
    // the primary's) and the op proceeds with whichever response lands first.
    const auto key = static_cast<uint64_t>(a.op_id);
    const bool primary_fault =
        fi_.model != nullptr && fi_.model->StorageOpFaults(fi_.run_key, key);
    const bool dup_fault =
        hedge && fi_.model != nullptr &&
        fi_.model->StorageOpFaults(fi_.run_key, key | kHedgeAttemptBit);
    const ReadOutcome read = StorageService::SimulateRead(
        in.base_read, primary_fault, fault_latency_, hedge,
        fi_.spec.hedge_after, dup_fault);
    in.transfer = read.latency;
    if (cost.verify_latency > 0 && !cost.index_used.empty()) {
      in.verify_charge = cost.verify_latency;
      in.transfer += in.verify_charge;
      ++out->verified_reads;
    }
    if (cost.corrupt_read) {
      // Failed verify: one extra storage read fetches the base-scan input (it
      // matches no cache key, so it bypasses the cache).
      in.transfer += cost.fallback_input_mb / opts_.net_mb_per_sec;
      ++out->corrupt_reads;
      ++out->storage_reads;
    }
    ++out->storage_reads;
    if (read.primary_fault) ++out->storage_faults;
    if (read.hedged) {
      ++out->hedged_reads;
      ++out->storage_reads;
      if (read.hedge_fault) ++out->storage_faults;
    }
    if (read.hedge_won) ++out->hedge_wins;
    in.fetched = true;
    return in;
  }

  Seconds Speculate(const Assignment& a, Seconds start, Seconds end,
                    Seconds flow_transfer, const Fetch& in,
                    const std::vector<int64_t>& floor, DfState* st,
                    ExecResult* out) const {
    // Speculative re-execution (DESIGN.md §9). Watermark: the op has provably
    // overrun its healthy estimate (straggler stretch or storage-fault
    // latency), observable at t_detect without knowing how much longer it
    // will run. A corrupt op is excluded: its overrun is the verified
    // fallback, not straggling, and a clone would re-read the same object.
    const auto id = static_cast<size_t>(a.op_id);
    const Seconds healthy =
        flow_transfer + in.base_read + in.verify_charge + cpu_[id];
    const Seconds watermark = fi_.spec.spec_slowdown_threshold * healthy;
    if (costs_[id].corrupt_read || healthy <= 0 ||
        end - start <= watermark + 1e-9) {
      return end;
    }
    // Clone cost on a prospective host: inputs it must pull over, the op
    // itself at healthy speed, and shipping the output back to the planned
    // container. Clone fetches bypass the host cache (they must not perturb
    // the trajectory mandatory ops see) and re-draw their storage fault under
    // a salted key.
    const bool fetches = input_[id] > 0;
    const bool clone_fault =
        fetches && fi_.model != nullptr &&
        fi_.model->StorageOpFaults(
            fi_.run_key, static_cast<uint64_t>(a.op_id) | kCloneAttemptBit);
    const Seconds clone_read =
        fetches ? input_[id] / opts_.net_mb_per_sec +
                      (clone_fault ? fault_latency_ : 0) + in.verify_charge
                : 0;
    const Assignment cl =
        FindClone(a, start + watermark, end, clone_read,
                  out_flow_mb_[id] / opts_.net_mb_per_sec, floor, st);
    if (cl.container < 0) return end;
    ++out->ops_speculated;
    if (fetches) {
      ++out->storage_reads;
      if (clone_fault) ++out->storage_faults;
    }
    // First finisher wins; ties (within epsilon) go to the original,
    // deterministically. The loser is cancelled the instant the winner
    // completes.
    const bool win = cl.end < end - 1e-9;
    const Seconds busy_end = win ? cl.end : std::min(end, cl.end);
    if (win) {
      ++out->spec_wins;
    } else {
      ++out->spec_cancelled;
      out->spec_cancelled_seconds += std::max(0.0, cl.end - busy_end);
    }
    out->actual.Add(Assignment{a.op_id, cl.container, cl.start, busy_end,
                               false});
    // The reservation blocks later clones for the clone's full duration (a
    // cancellation can't be predicted at placement time); Phase-2 builds only
    // yield to the realized occupancy, so cancelled tail time flows back to
    // the build knapsack.
    const auto hi = static_cast<size_t>(cl.container);
    st->tl[hi].Insert(cl);
    st->occ[hi].push_back(CloneOccupancy{cl.start, busy_end});
    return win ? cl.end : end;
  }

  /// The reservation of a clone of `a` on the drained, healthy host where
  /// it finishes first (lowest index on ties), starting before the original
  /// ends; its container is -1 when no host qualifies.
  Assignment FindClone(const Assignment& a, Seconds t_detect, Seconds end,
                       Seconds clone_read, Seconds shipback,
                       const std::vector<int64_t>& floor, DfState* st) const {
    const auto id = static_cast<size_t>(a.op_id);
    Assignment best{a.op_id, -1, 0, kInf, true};
    for (size_t hi = 0; hi < nc_; ++hi) {
      const int h = static_cast<int>(hi);
      const ContainerFaults& f = faults_[hi];
      if (h == a.container || st->remaining[hi] != 0 || f.slowdown != 1.0) {
        continue;
      }
      const Seconds dur =
          StageSeconds(a.op_id, h, st->delivered[hi], &st->staged) +
          clone_read + cpu_[id] + shipback;
      if (dur <= 0) continue;
      // Cost guard: the clone (run to completion) must fit inside quanta the
      // shadow pass already charged, on a host that survives it and has not
      // been given notice — marginal-cost-zero, like index builds.
      const Seconds paid = static_cast<double>(floor[hi]) * opts_.quantum;
      const Seconds bound = std::min(std::min(paid, f.crash_at), f.notice_at);
      const auto slot = st->tl[hi].FindSlotBounded(t_detect, dur, bound);
      if (!slot.has_value() || *slot >= end - 1e-9) continue;
      if (*slot + dur < best.end - 1e-9) {
        best = Assignment{a.op_id, h, *slot, *slot + dur, true};
      }
    }
    return best;
  }

  const SimOptions& opts_;
  const Dag& dag_;
  const std::vector<SimOpCost>& costs_;
  const FaultInjection& fi_;
  const Seconds fault_latency_;
  const std::vector<Assignment> sorted_;
  const size_t nc_;
  std::vector<Seconds> cpu_;        // actual CPU seconds per op
  std::vector<MegaBytes> input_;    // actual storage input per op
  std::vector<MegaBytes> flow_;     // actual size per flow
  std::vector<MegaBytes> out_flow_mb_;  // actual outbound flow per op
  std::vector<std::vector<const Assignment*>> seq_;  // per container
  std::vector<Seconds> planned_end_;
  std::vector<int> placed_;  // planned container per op
  std::vector<const Assignment*> df_plan_;
  std::vector<ContainerFaults> faults_;
};

Status ValidateRun(const Dag& dag, const Schedule& plan,
                   const std::vector<SimOpCost>& costs,
                   const std::vector<Container*>* containers,
                   const FaultInjection& fi) {
  if (costs.size() != dag.num_ops()) {
    return Status::InvalidArgument("costs size != number of ops");
  }
  for (const auto& a : plan.assignments()) {
    if (a.op_id < 0 || static_cast<size_t>(a.op_id) >= dag.num_ops()) {
      return Status::InvalidArgument("plan references op " +
                                     std::to_string(a.op_id) +
                                     " outside the dag");
    }
    if (a.container < 0) {
      return Status::InvalidArgument("plan places op " +
                                     std::to_string(a.op_id) +
                                     " on negative container " +
                                     std::to_string(a.container));
    }
  }
  for (size_t i = 0; i < costs.size(); ++i) {
    if (costs[i].cpu_time < 0 || costs[i].input_mb < 0) {
      return Status::InvalidArgument("negative cost for op " +
                                     std::to_string(i));
    }
    if (costs[i].verify_latency < 0 || costs[i].fallback_cpu_time < 0 ||
        costs[i].fallback_input_mb < 0) {
      return Status::InvalidArgument("negative integrity cost for op " +
                                     std::to_string(i));
    }
  }
  if (containers != nullptr &&
      containers->size() < static_cast<size_t>(plan.num_containers())) {
    return Status::InvalidArgument(
        "containers vector shorter than plan.num_containers()");
  }
  if (fi.model != nullptr) {
    DFIM_RETURN_NOT_OK(ValidateFaultOptions(fi.model->options()));
  }
  return ValidateSpeculationOptions(fi.spec);
}

}  // namespace

Status ValidateSpeculationOptions(const SpeculationOptions& opts) {
  if (opts.speculate && !(opts.spec_slowdown_threshold > 1.0)) {
    return Status::InvalidArgument(
        "spec_slowdown_threshold must be > 1 when speculation is on");
  }
  if (opts.hedge_reads && !(opts.hedge_after > 0)) {
    return Status::InvalidArgument(
        "hedge_after must be positive when read hedging is on");
  }
  return Status::OK();
}

Result<ExecResult> ExecSimulator::Run(const Dag& dag, const Schedule& plan,
                                      const std::vector<SimOpCost>& costs,
                                      std::vector<Container*>* containers,
                                      const FaultInjection* faults) {
  static const FaultInjection kIdentity;
  const FaultInjection& fi = faults != nullptr ? *faults : kIdentity;
  DFIM_RETURN_NOT_OK(ValidateRun(dag, plan, costs, containers, fi));
  const Replay replay(opts_, dag, plan, costs, fi);
  const auto nc = static_cast<size_t>(plan.num_containers());
  std::vector<LruCache*> caches(nc, nullptr);
  for (size_t c = 0; containers != nullptr && c < nc; ++c) {
    if ((*containers)[c] != nullptr) caches[c] = &(*containers)[c]->cache();
  }

  // Tail-tolerance overlay (DESIGN.md §9). The shadow pass is the same
  // dataflow pass with both features off, into a discarded result and
  // against copies of the caches: its leases are what the provider would
  // have charged anyway, the paid quanta clones may use and the floor the
  // real pass is billed at. Without the overlay the floor is zero.
  const bool spec = fi.spec.speculate && nc > 1;
  const bool hedge = fi.spec.hedge_reads && !fi.spec.suppress_hedges;
  std::vector<int64_t> floor(nc, 0);
  if (spec || hedge) {
    std::vector<std::optional<LruCache>> store(nc);
    std::vector<LruCache*> copies(nc, nullptr);
    for (size_t c = 0; c < nc; ++c) {
      if (caches[c] != nullptr) copies[c] = &store[c].emplace(*caches[c]);
    }
    DfState shadow(dag.num_ops(), nc, /*spec=*/false);
    ExecResult discarded;
    DFIM_RETURN_NOT_OK(replay.DataflowPass(copies, /*hedge=*/false,
                                           /*spec=*/false, floor, &shadow,
                                           &discarded));
    for (size_t c = 0; c < nc; ++c) floor[c] = replay.LeaseOf(c, shadow).quanta;
  }

  ExecResult result;
  DfState st(dag.num_ops(), nc, spec);
  DFIM_RETURN_NOT_OK(
      replay.DataflowPass(caches, hedge, spec, floor, &st, &result));

  // Build ops run in the lease each container is charged: the quanta its
  // plan and realized dataflow ops need, never below the shadow floor.
  // Interior quantum boundaries are paid for, so builds run up to the
  // lease end (Fig. 2c: B2) or until a dataflow op or clone arrives (A1).
  // A crash ends the lease at the failure instant and loses in-flight
  // builds outright; a reclaim notice stops them earlier, leaving the
  // window to stage their partial progress off the doomed disk.
  for (size_t c = 0; c < nc; ++c) {
    const Lease lease = replay.LeaseOf(c, st);
    const int64_t quanta = std::max(lease.quanta, floor[c]);
    const ContainerFaults& f = replay.faults(c);
    result.leased_quanta += quanta;
    if (lease.crashed) {
      // A reclaim that came first makes the loss a preemption.
      result.losses.push_back(ContainerLoss{
          static_cast<int>(c), f.crash_at,
          f.reclaimed() && f.reclaim_at <= f.crash_at});
    }
    const Seconds lease_end = static_cast<double>(quanta) * opts_.quantum;
    replay.BuildPass(c, lease,
                     std::min(lease.crashed ? f.crash_at : lease_end,
                              f.notice_at),
                     &st, &result);
  }
  // Busy time per container (assignments never overlap), settled off the
  // same Timeline type the schedulers and interleaver use.
  Seconds busy = 0;
  for (const Timeline& tl : result.actual.BuildTimelines()) {
    busy += tl.BusySeconds();
  }
  result.total_idle =
      static_cast<double>(result.leased_quanta) * opts_.quantum - busy;
  result.complete =
      std::none_of(result.lost_ops.begin(), result.lost_ops.end(),
                   [](const LostOp& l) { return !l.optional; });
  return result;
}

}  // namespace dfim
