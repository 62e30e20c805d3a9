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

/// Realized dataflow-phase state; one instance per pass (shadow / real).
struct DfState {
  std::vector<Seconds> finish;    // realized finish per op (-1 = never ran)
  std::vector<char> lost;
  std::vector<Seconds> df_start;  // realized start per op (-1 = never ran)
  std::vector<Seconds> df_cursor; // per-container dataflow high-water mark
  std::vector<char> saw_crash;

  DfState(size_t num_ops, size_t nc)
      : finish(num_ops, -1.0),
        lost(num_ops, 0),
        df_start(num_ops, -1.0),
        df_cursor(nc, 0),
        saw_crash(nc, 0) {}
};

/// One clone's occupancy on its host: [start, busy_end) blocks Phase-2
/// builds; the tail of the reservation past busy_end is the slot time a
/// cancellation handed back to the build knapsack.
struct CloneOccupancy {
  Seconds start = 0;
  Seconds busy_end = 0;
};

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
  static const FaultInjection kIdentity;
  const FaultInjection& fi = faults != nullptr ? *faults : kIdentity;
  if (fi.model != nullptr) {
    DFIM_RETURN_NOT_OK(ValidateFaultOptions(fi.model->options()));
  }
  DFIM_RETURN_NOT_OK(ValidateSpeculationOptions(fi.spec));

  Rng rng(opts_.seed);
  auto perturb = [&rng](double v, double err) {
    if (err <= 0) return v;
    return v * rng.Uniform(1.0 - err, 1.0 + err);
  };

  // Draw per-op actual values once, in op-id order (deterministic).
  std::vector<Seconds> actual_cpu(dag.num_ops());
  std::vector<MegaBytes> actual_input(dag.num_ops());
  for (size_t i = 0; i < dag.num_ops(); ++i) {
    actual_cpu[i] = perturb(costs[i].cpu_time, opts_.time_error);
    actual_input[i] = perturb(costs[i].input_mb, opts_.data_error);
  }
  std::vector<MegaBytes> actual_flow(dag.num_flows());
  for (size_t i = 0; i < dag.num_flows(); ++i) {
    actual_flow[i] = perturb(dag.flows()[i].size, opts_.data_error);
  }

  auto sorted = plan.SortedByContainer();
  // Per-container planned sequences (already sorted by start within each).
  int nc = plan.num_containers();
  std::vector<std::vector<const Assignment*>> seq(static_cast<size_t>(nc));
  for (const auto& a : sorted) {
    seq[static_cast<size_t>(a.container)].push_back(&a);
  }
  std::vector<Seconds> planned_end(static_cast<size_t>(nc), 0);
  for (int c = 0; c < nc; ++c) {
    for (const Assignment* a : seq[static_cast<size_t>(c)]) {
      planned_end[static_cast<size_t>(c)] =
          std::max(planned_end[static_cast<size_t>(c)], a->end);
    }
  }

  // Container placement per op (for flow transfer decisions).
  std::vector<int> placed(dag.num_ops(), -1);
  for (const auto& a : sorted) placed[static_cast<size_t>(a.op_id)] = a.container;

  std::vector<LruCache*> real_cache(static_cast<size_t>(nc), nullptr);
  if (containers != nullptr) {
    for (int c = 0; c < nc; ++c) {
      auto i = static_cast<size_t>(c);
      if (i < containers->size() && (*containers)[i] != nullptr) {
        real_cache[i] = &(*containers)[i]->cache();
      }
    }
  }

  // Per-container fault draws (crash instant + straggler slowdown). A
  // container without one keeps the identity (never crashes, slowdown 1),
  // under which every path below is arithmetically fault-free.
  std::vector<Seconds> crash_at(static_cast<size_t>(nc), kNeverFails);
  std::vector<double> slow(static_cast<size_t>(nc), 1.0);
  std::vector<Seconds> notice_at(static_cast<size_t>(nc), kNeverFails);
  std::vector<uint8_t> provider_pre(static_cast<size_t>(nc), 0);
  const size_t traced =
      std::min(static_cast<size_t>(nc), fi.trace.containers.size());
  for (size_t i = 0; i < traced; ++i) {
    const ContainerFaults& cf = fi.trace.containers[i];
    crash_at[i] = cf.crash_at;
    slow[i] = cf.slowdown;
    notice_at[i] = cf.notice_at;
    // A provider reclaim ends the lease exactly like a crash (nothing is
    // charged past it), so fold it into the crash instant and remember the
    // classification; the notice window is handled separately.
    if (cf.reclaim_at <= crash_at[i]) {
      crash_at[i] = cf.reclaim_at;
      provider_pre[i] = cf.reclaimed() ? 1 : 0;
    }
  }
  const FaultModel* fmodel = fi.model;
  const uint64_t run_key = fi.run_key;
  const Seconds fault_latency =
      fmodel != nullptr ? fmodel->options().storage_fault_latency : 0;

  // Tail-tolerance overlay (DESIGN.md §9): with both features off (or
  // hedging suppressed by the breaker), `overlay` is false and Run takes
  // exactly the single-pass pre-speculation path — bit-identical per seed.
  const SpeculationOptions& spec = fi.spec;
  const bool with_spec = spec.speculate && nc > 1;
  const bool with_hedge = spec.hedge_reads && !spec.suppress_hedges;
  const bool overlay = with_spec || with_hedge;

  ExecResult result;

  // ---- Phase 1: dataflow operators. --------------------------------------
  // Global planned-start order is a topological order for schedules built by
  // our schedulers (children always start after parents end in the plan).
  std::vector<const Assignment*> df_plan;
  for (const auto& a : sorted) {
    if (!a.optional) df_plan.push_back(&a);
  }
  std::stable_sort(df_plan.begin(), df_plan.end(),
                   [](const Assignment* x, const Assignment* y) {
                     if (x->start != y->start) return x->start < y->start;
                     return x->op_id < y->op_id;
                   });

  // Pre-summed outbound flow per op: a winning clone ships its output back
  // to the planned container, so consumers read it where the plan expects.
  std::vector<MegaBytes> out_flow_mb;
  if (with_spec) {
    out_flow_mb.assign(dag.num_ops(), 0);
    for (size_t i = 0; i < dag.num_flows(); ++i) {
      out_flow_mb[static_cast<size_t>(dag.flows()[i].from)] += actual_flow[i];
    }
  }

  // Per-container paid-lease bound for clones and the billing floor, both
  // settled by the shadow pass below when the overlay is active.
  std::vector<Seconds> clone_bound;
  std::vector<int64_t> floor_quanta;

  // One dataflow pass. `caches` is the cache universe this pass mutates
  // (the real containers' caches, or shadow copies); `out` is null for the
  // shadow pass — it observes timing only, never counters or the realized
  // schedule. The do_hedge/do_spec=false configuration is line-for-line the
  // pre-speculation Phase 1.
  auto run_dataflow = [&](const std::vector<LruCache*>& caches, bool do_hedge,
                          bool do_spec, ExecResult* out, DfState* st,
                          std::vector<std::vector<CloneOccupancy>>* occ)
      -> Status {
    std::vector<std::set<int>> delivered(static_cast<size_t>(nc));
    // Speculation bookkeeping: mandatory ops not yet realized per container
    // (a clone may only land on a *drained* host, so it can never delay
    // mandatory work), and the realized busy intervals for slot search.
    std::vector<int> remaining;
    std::vector<Timeline> tl;
    if (do_spec) {
      remaining.assign(static_cast<size_t>(nc), 0);
      tl.resize(static_cast<size_t>(nc));
      for (const Assignment* a : df_plan) {
        ++remaining[static_cast<size_t>(a->container)];
      }
    }
    for (const Assignment* a : df_plan) {
      auto id = static_cast<size_t>(a->op_id);
      auto c = static_cast<size_t>(a->container);
      Seconds est = st->df_cursor[c];
      // Cross-container flows serialize on the consumer's NIC: they extend
      // the op's busy time instead of merely delaying its start.
      Seconds flow_transfer = 0;
      std::vector<int> to_stage;
      bool doomed = false;
      for (int fid : dag.in_flows(a->op_id)) {
        const Flow& f = dag.flows()[static_cast<size_t>(fid)];
        if (st->lost[static_cast<size_t>(f.from)]) {
          // The producer died with its container: this op can never run.
          doomed = true;
          break;
        }
        Seconds pf = st->finish[static_cast<size_t>(f.from)];
        if (pf < 0) {
          return Status::Internal(
              "plan is not dependency-ordered: parent of op " +
              std::to_string(a->op_id) + " not finished");
        }
        est = std::max(est, pf);
        if (placed[static_cast<size_t>(f.from)] != a->container &&
            delivered[c].count(f.from) == 0 &&
            std::find(to_stage.begin(), to_stage.end(), f.from) ==
                to_stage.end()) {
          flow_transfer +=
              actual_flow[static_cast<size_t>(fid)] / opts_.net_mb_per_sec;
          to_stage.push_back(f.from);
        }
      }
      if (!doomed && est >= std::min(crash_at[c], notice_at[c]) - 1e-9) {
        // The container is already dead when this op could start — or its
        // reclaim notice has arrived, and a draining container accepts no
        // new work (the op is rescheduled by the recovery path instead).
        doomed = true;
        st->saw_crash[c] = 1;
      }
      if (doomed) {
        st->lost[id] = 1;
        if (out != nullptr) {
          out->lost_ops.push_back(LostOp{a->op_id, a->container, false});
        }
        if (do_spec) --remaining[c];
        continue;
      }
      // Input transfer from the storage service, absorbed by a warm cache.
      // Integrity verification (DESIGN.md §12): a cache-miss fetch of an
      // index-backed input pays the checksum-verify latency; an op whose
      // pre-computed verdict is corrupt_read pays for the wasted index
      // fetch, then re-reads via the base scan and runs at fallback cost —
      // degraded, never wrong. Both knobs default off (zero / false), which
      // keeps every line below arithmetically identical to the
      // pre-integrity path.
      const bool corrupt = costs[id].corrupt_read;
      const bool verify =
          costs[id].verify_latency > 0 && !costs[id].index_used.empty();
      Seconds transfer = 0;   // realized (fault latency / hedge applied)
      Seconds base_read = 0;  // healthy fetch time (no fault latency)
      Seconds verify_charge = 0;
      bool fetched = false;
      if (actual_input[id] > 0) {
        LruCache* cache = caches[c];
        // A corrupt verdict bypasses the cache outright: the binding to the
        // index object was refused at verification time, so there is no
        // clean cached copy to serve under this op's cache key.
        bool hit = !corrupt && cache != nullptr &&
                   !costs[id].cache_key.empty() &&
                   cache->Touch(costs[id].cache_key);
        if (!hit) {
          base_read = actual_input[id] / opts_.net_mb_per_sec;
          // Transient read faults delay the fetch, they do not kill the op;
          // a hedge re-draws under a salted key (the duplicate's fault is
          // independent of the primary's) and the op proceeds with
          // whichever response lands first.
          bool primary_fault =
              fmodel != nullptr &&
              fmodel->StorageOpFaults(run_key,
                                      static_cast<uint64_t>(a->op_id));
          bool dup_fault =
              do_hedge && fmodel != nullptr &&
              fmodel->StorageOpFaults(
                  run_key, static_cast<uint64_t>(a->op_id) | kHedgeAttemptBit);
          ReadOutcome read = StorageService::SimulateRead(
              base_read, primary_fault, fault_latency, do_hedge,
              spec.hedge_after, dup_fault);
          transfer = read.latency;
          if (verify) {
            verify_charge = costs[id].verify_latency;
            transfer += verify_charge;
            if (out != nullptr) ++out->verified_reads;
          }
          if (corrupt) {
            // Failed verify: one extra storage read fetches the base-scan
            // input (it matches no cache key, so it bypasses the cache).
            transfer += costs[id].fallback_input_mb / opts_.net_mb_per_sec;
            if (out != nullptr) {
              ++out->corrupt_reads;
              ++out->storage_reads;
            }
          }
          if (out != nullptr) {
            ++out->storage_reads;
            if (read.primary_fault) ++out->storage_faults;
            if (read.hedged) {
              ++out->hedged_reads;
              ++out->storage_reads;
              if (read.hedge_fault) ++out->storage_faults;
            }
            if (read.hedge_won) ++out->hedge_wins;
          }
          fetched = true;
        }
      }
      Seconds start = est;
      double s = slow[c];
      const Seconds cpu_used = corrupt ? costs[id].fallback_cpu_time
                                       : actual_cpu[id];
      Seconds end =
          start + flow_transfer * s + transfer * s + cpu_used * s;
      if (out != nullptr) ++out->executed_ops;
      if (end > crash_at[c] + 1e-9) {
        // The container dies mid-op: the partial work (and the local disk
        // holding the op's inputs/outputs) is lost.
        st->lost[id] = 1;
        st->saw_crash[c] = 1;
        if (out != nullptr) {
          out->lost_ops.push_back(LostOp{a->op_id, a->container, false});
          Assignment partial = *a;
          partial.start = start;
          partial.end = crash_at[c];
          out->actual.Add(partial);
        }
        st->df_cursor[c] = crash_at[c];
        if (do_spec) {
          --remaining[c];
          tl[c].Insert(
              Assignment{a->op_id, a->container, start, crash_at[c], false});
        }
        continue;
      }
      for (int p : to_stage) delivered[c].insert(p);
      if (fetched && !corrupt) {
        LruCache* cache = caches[c];
        if (cache != nullptr && !costs[id].cache_key.empty()) {
          cache->Put(costs[id].cache_key, actual_input[id]);
        }
      }
      Seconds final_end = end;
      if (do_spec) {
        --remaining[c];
        // --- Speculative re-execution (DESIGN.md §9). -------------------
        // Watermark: the op has provably overrun its healthy estimate
        // (straggler stretch or storage-fault latency), observable at
        // t_detect without knowing how much longer it will run.
        // A corrupt op is excluded: its overrun is the verified fallback,
        // not straggling, and a clone would re-read the same corrupt object.
        Seconds healthy =
            flow_transfer + base_read + verify_charge + actual_cpu[id];
        Seconds watermark = spec.spec_slowdown_threshold * healthy;
        if (!corrupt && healthy > 0 && end - start > watermark + 1e-9) {
          Seconds t_detect = start + watermark;
          // Clone cost on a prospective host: inputs it must pull over,
          // the op itself at healthy speed, and shipping the output back
          // to the planned container. Clone fetches bypass the host cache
          // (they must not perturb the trajectory mandatory ops see) and
          // re-draw their storage fault under a salted key.
          bool clone_fault =
              actual_input[id] > 0 && fmodel != nullptr &&
              fmodel->StorageOpFaults(
                  run_key, static_cast<uint64_t>(a->op_id) | kCloneAttemptBit);
          Seconds clone_read =
              actual_input[id] > 0
                  ? actual_input[id] / opts_.net_mb_per_sec +
                        (clone_fault ? fault_latency : 0) + verify_charge
                  : 0;
          Seconds shipback = out_flow_mb[id] / opts_.net_mb_per_sec;
          int best_host = -1;
          Seconds best_t0 = 0;
          Seconds best_end = std::numeric_limits<double>::infinity();
          Seconds best_dur = 0;
          for (int h = 0; h < nc; ++h) {
            auto hi = static_cast<size_t>(h);
            if (h == a->container) continue;
            if (remaining[hi] != 0) continue;  // host not drained
            if (slow[hi] != 1.0) continue;     // healthy hosts only
            Seconds clone_flow = 0;
            std::vector<int> seen;
            for (int fid : dag.in_flows(a->op_id)) {
              const Flow& f = dag.flows()[static_cast<size_t>(fid)];
              if (placed[static_cast<size_t>(f.from)] == h) continue;
              if (delivered[hi].count(f.from) != 0) continue;
              if (std::find(seen.begin(), seen.end(), f.from) != seen.end()) {
                continue;
              }
              clone_flow +=
                  actual_flow[static_cast<size_t>(fid)] / opts_.net_mb_per_sec;
              seen.push_back(f.from);
            }
            Seconds dur = clone_flow + clone_read + actual_cpu[id] + shipback;
            if (dur <= 0) continue;
            // Cost guard: the clone (run to completion) must fit inside
            // quanta the shadow pass already charged, on a host that
            // survives it — marginal-cost-zero, like index builds.
            Seconds bound = std::min(std::min(clone_bound[hi], crash_at[hi]),
                                     notice_at[hi]);
            auto slot = tl[hi].FindSlotBounded(t_detect, dur, bound);
            if (!slot.has_value()) continue;
            Seconds t0 = *slot;
            if (t0 >= end - 1e-9) continue;  // original beats it to the start
            Seconds ce = t0 + dur;
            if (ce < best_end - 1e-9) {
              best_host = h;
              best_t0 = t0;
              best_end = ce;
              best_dur = dur;
            }
          }
          if (best_host >= 0) {
            auto hi = static_cast<size_t>(best_host);
            if (out != nullptr) {
              ++out->ops_speculated;
              if (actual_input[id] > 0) {
                ++out->storage_reads;
                if (clone_fault) ++out->storage_faults;
              }
            }
            // First finisher wins; ties (within epsilon) go to the
            // original, deterministically. The loser is cancelled the
            // instant the winner completes.
            bool win = best_end < end - 1e-9;
            Seconds busy_end = win ? best_end : std::min(end, best_end);
            if (out != nullptr) {
              if (win) {
                ++out->spec_wins;
              } else {
                ++out->spec_cancelled;
                out->spec_cancelled_seconds +=
                    std::max(0.0, best_end - busy_end);
              }
              out->actual.Add(
                  Assignment{a->op_id, best_host, best_t0, busy_end, false});
            }
            // The reservation blocks later clones for the clone's full
            // duration (a cancellation can't be predicted at placement
            // time); Phase-2 builds only yield to the realized occupancy,
            // so cancelled tail time flows back to the build knapsack.
            tl[hi].Insert(Assignment{a->op_id, best_host, best_t0,
                                     best_t0 + best_dur, true});
            if (occ != nullptr) {
              (*occ)[hi].push_back(CloneOccupancy{best_t0, busy_end});
            }
            if (win) final_end = best_end;
          }
        }
        // The original occupies its container until it finishes or is
        // cancelled by a winning clone — either way the slot frees at
        // final_end.
        tl[c].Insert(
            Assignment{a->op_id, a->container, start, final_end, false});
      }
      st->finish[id] = final_end;
      st->df_start[id] = start;
      st->df_cursor[c] = final_end;
      if (out != nullptr) {
        out->makespan = std::max(out->makespan, final_end);
        Assignment actual = *a;
        actual.start = start;
        actual.end = final_end;
        out->actual.Add(actual);
      }
    }
    return Status::OK();
  };

  if (overlay) {
    // Shadow pass: the exact no-speculation algorithm against copies of the
    // container caches. Its realized per-container spans are what the
    // provider would have charged anyway — the paid lease clones may use,
    // and the floor the real pass is billed at.
    std::vector<std::optional<LruCache>> shadow_store(
        static_cast<size_t>(nc));
    std::vector<LruCache*> shadow_cache(static_cast<size_t>(nc), nullptr);
    for (int c = 0; c < nc; ++c) {
      auto i = static_cast<size_t>(c);
      if (real_cache[i] != nullptr) {
        shadow_store[i].emplace(*real_cache[i]);
        shadow_cache[i] = &*shadow_store[i];
      }
    }
    DfState sh(dag.num_ops(), static_cast<size_t>(nc));
    DFIM_RETURN_NOT_OK(run_dataflow(shadow_cache, /*do_hedge=*/false,
                                    /*do_spec=*/false, /*out=*/nullptr, &sh,
                                    /*occ=*/nullptr));
    clone_bound.assign(static_cast<size_t>(nc), 0);
    floor_quanta.assign(static_cast<size_t>(nc), 0);
    for (int c = 0; c < nc; ++c) {
      auto i = static_cast<size_t>(c);
      Seconds span = std::max(planned_end[i], sh.df_cursor[i]);
      bool crashed = sh.saw_crash[i] != 0 || crash_at[i] < span - 1e-9;
      Seconds lease_span = crashed ? std::min(span, crash_at[i]) : span;
      int64_t q =
          std::max<int64_t>(1, QuantaCeil(lease_span, opts_.quantum));
      floor_quanta[i] = q;
      clone_bound[i] = static_cast<double>(q) * opts_.quantum;
    }
  }

  DfState st(dag.num_ops(), static_cast<size_t>(nc));
  std::vector<std::vector<CloneOccupancy>> clone_occ(
      static_cast<size_t>(nc));
  DFIM_RETURN_NOT_OK(
      run_dataflow(real_cache, with_hedge, with_spec, &result, &st,
                   &clone_occ));

  // ---- Phase 2: build-index operators, preempted as needed. --------------
  // A container's lease covers the quanta needed by its planned assignments
  // and by the realized dataflow ops (which must run regardless). Build ops
  // may run up to the lease end — interior quantum boundaries are already
  // paid for — and are stopped there (Fig. 2c: B2) or when a dataflow op
  // arrives (Fig. 2c: A1). A crash ends the lease early: the provider stops
  // charging at the failure quantum and in-flight builds are lost outright
  // (no resumable progress — the local disk died with the container).
  // Speculative clones are extra realized occupancy builds must flow
  // around; the billing floor keeps the charge at the shadow lease even
  // when a winning clone shrank the realized span.
  int64_t leased_total = 0;
  Seconds busy_total = 0;
  for (int c = 0; c < nc; ++c) {
    auto ci = static_cast<size_t>(c);
    const auto& items = seq[ci];
    Seconds actual_df_end = st.df_cursor[ci];
    Seconds span = std::max(planned_end[ci], actual_df_end);
    bool crashed = st.saw_crash[ci] != 0 || crash_at[ci] < span - 1e-9;
    Seconds lease_span = crashed ? std::min(span, crash_at[ci]) : span;
    int64_t leased_q = std::max<int64_t>(
        1, QuantaCeil(lease_span, opts_.quantum));
    if (overlay) leased_q = std::max(leased_q, floor_quanta[ci]);
    Seconds lease_end = static_cast<double>(leased_q) * opts_.quantum;
    // Builds stop at the crash instant, not the end of its (paid) quantum —
    // and a reclaim notice stops them even earlier, leaving the notice
    // window to stage their partial progress off the doomed disk.
    Seconds build_bound =
        std::min(crashed ? crash_at[ci] : lease_end, notice_at[ci]);
    leased_total += leased_q;
    if (crashed) {
      result.failed_containers.push_back(c);
      result.failure_times.push_back(crash_at[ci]);
      result.failure_preempted.push_back(provider_pre[ci]);
    }
    // Next dataflow op's actual start, per position in the planned sequence
    // (lost dataflow ops never arrive, so they preempt nothing).
    std::vector<Seconds> next_df(items.size() + 1,
                                 std::numeric_limits<double>::infinity());
    for (size_t i = items.size(); i-- > 0;) {
      next_df[i] = next_df[i + 1];
      if (!items[i]->optional &&
          !st.lost[static_cast<size_t>(items[i]->op_id)]) {
        next_df[i] = st.df_start[static_cast<size_t>(items[i]->op_id)];
      }
    }
    auto& occ = clone_occ[ci];
    std::sort(occ.begin(), occ.end(),
              [](const CloneOccupancy& x, const CloneOccupancy& y) {
                return x.start < y.start;
              });
    size_t occ_ptr = 0;
    Seconds cursor = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      const Assignment* a = items[i];
      auto id = static_cast<size_t>(a->op_id);
      if (!a->optional) {
        if (!st.lost[id]) cursor = std::max(cursor, st.finish[id]);
        continue;
      }
      // Builds yield to realized clone occupancy: step over clones already
      // underway, and stop at the next clone's start.
      while (occ_ptr < occ.size() &&
             occ[occ_ptr].start <= cursor + 1e-9) {
        cursor = std::max(cursor, occ[occ_ptr].busy_end);
        ++occ_ptr;
      }
      Seconds next_clone = occ_ptr < occ.size()
                               ? occ[occ_ptr].start
                               : std::numeric_limits<double>::infinity();
      Seconds start = cursor;
      if ((crashed && start >= crash_at[ci] - 1e-9) ||
          start >= notice_at[ci] - 1e-9) {
        // The container is gone before this build could start, or its
        // reclaim notice has arrived — a draining container starts no builds.
        result.lost_ops.push_back(LostOp{a->op_id, c, true});
        continue;
      }
      Seconds dur = actual_cpu[id] * slow[ci];  // build time includes its IO
      Seconds kill_at = std::max(
          std::min(std::min(next_df[i + 1], build_bound), next_clone), start);
      Seconds end;
      ++result.executed_ops;
      if (start + dur <= kill_at + 1e-9) {
        end = start + dur;
        result.builds.push_back(BuildCompletion{dag.op(a->op_id).index_id,
                                                dag.op(a->op_id).index_partition,
                                                end, c});
      } else if (crashed && kill_at >= crash_at[ci] - 1e-9) {
        // Killed by the crash itself: unlike a preemption, no partial
        // progress survives (it lived on the dead local disk).
        end = crash_at[ci];
        ++result.killed_builds;
        result.lost_ops.push_back(LostOp{a->op_id, c, true});
      } else {
        end = kill_at;
        ++result.killed_builds;
        result.kills.push_back(BuildKill{dag.op(a->op_id).index_id,
                                         dag.op(a->op_id).index_partition,
                                         end - start});
      }
      cursor = end;
      Assignment actual = *a;
      actual.start = start;
      actual.end = end;
      result.actual.Add(actual);
    }
  }
  // Busy time per container (assignments never overlap), settled off the
  // same Timeline type the schedulers and interleaver use.
  for (const Timeline& tl : result.actual.BuildTimelines()) {
    busy_total += tl.BusySeconds();
  }

  for (const auto& l : result.lost_ops) {
    if (!l.optional) {
      result.complete = false;
      break;
    }
  }

  result.leased_quanta = leased_total;
  result.total_idle =
      static_cast<double>(leased_total) * opts_.quantum - busy_total;
  return result;
}

}  // namespace dfim
