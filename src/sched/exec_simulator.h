#ifndef DFIM_SCHED_EXEC_SIMULATOR_H_
#define DFIM_SCHED_EXEC_SIMULATOR_H_

#include <string>
#include <vector>

#include "cloud/container.h"
#include "cloud/fault_model.h"
#include "common/result.h"
#include "common/rng.h"
#include "dataflow/dag.h"
#include "sched/partial_state.h"
#include "sched/schedule.h"

namespace dfim {

/// \brief Per-op execution inputs for the simulator.
struct SimOpCost {
  SimOpCost() = default;
  /// The pre-integrity three-field shape; the integrity fields keep their
  /// inert defaults.
  SimOpCost(Seconds cpu, MegaBytes input, std::string key)
      : cpu_time(cpu), input_mb(input), cache_key(std::move(key)) {}

  /// CPU seconds (post index speedup) — perturbed by time_error.
  Seconds cpu_time = 0;
  /// MB pulled from the storage service before the op starts — perturbed by
  /// data_error, skipped on a warm container cache.
  MegaBytes input_mb = 0;
  /// Cache key of the input (table/index path + version); empty when the op
  /// reads no external input or caching should not apply.
  std::string cache_key;
  /// \name Integrity verification (DESIGN.md §12; all defaults keep the op
  /// on the pre-integrity arithmetic path exactly).
  /// @{
  /// Index whose partitions back this op's read (empty = base scan only).
  std::string index_used;
  /// Checksum-verification latency charged on each cache-miss fetch of an
  /// index-backed input (0 = verification off).
  Seconds verify_latency = 0;
  /// Pre-computed verdict: the index partition(s) backing this op's read
  /// fail verification (corrupt checksum or stale generation), so the op
  /// pays for the failed fetch and falls back to the base-scan costs below
  /// — degraded, never wrong.
  bool corrupt_read = false;
  /// Base-scan fallback charged when `corrupt_read` fires.
  Seconds fallback_cpu_time = 0;
  MegaBytes fallback_input_mb = 0;
  /// @}
};

/// \brief Execution-simulator estimation errors.
struct SimOptions {
  /// Runtime estimation error e: actual = estimate * U(1-e, 1+e) (Fig. 6).
  double time_error = 0.0;
  /// Data-size estimation error, same convention.
  double data_error = 0.0;
};

/// \brief Tail-tolerance knobs (speculative re-execution + hedged reads).
///
/// Both features are off by default. With both off (or hedging suppressed)
/// the simulator runs one dataflow pass, no shadow pass and no billing
/// floor, so the disabled configuration's outputs are the plain replay's.
/// See DESIGN.md §9.
struct SpeculationOptions {
  /// Clone ops whose observed elapsed time exceeds the watermark
  /// (`spec_slowdown_threshold` × healthy estimate) onto healthy containers
  /// — but only into already-paid idle slots (marginal-cost-zero rule).
  bool speculate = false;
  /// Watermark multiplier; must be > 1 (a clone is only worth spawning once
  /// the op has provably overrun its healthy estimate).
  double spec_slowdown_threshold = 1.5;
  /// Issue one duplicate for a storage read that has not completed within
  /// `hedge_after`; first response wins.
  bool hedge_reads = false;
  Seconds hedge_after = 15.0;
};

/// Rejects `spec_slowdown_threshold <= 1` (speculation on) and
/// non-positive `hedge_after` (hedging on).
Status ValidateSpeculationOptions(const SpeculationOptions& opts);

/// \brief Pre-drawn faults applied to one execution.
///
/// `trace.containers` is indexed by the schedule's container indices;
/// `model`/`run_key` supply the per-storage-operation transient-fault draws.
/// A default-constructed FaultInjection is the identity. `spec` rides along
/// because both tail-tolerance features consume the same deterministic
/// draw streams (hedges and clone reads re-draw under salted op keys).
struct FaultInjection {
  const FaultModel* model = nullptr;
  FaultTrace trace;
  uint64_t run_key = 0;
  SpeculationOptions spec;
  /// Set by the service while the storage circuit breaker is open: a hedge
  /// is an *extra* request, and piling duplicates onto a store that is
  /// already tripping the breaker would double-trip it.
  bool suppress_hedges = false;
};

/// \brief One completed index-build operator.
struct BuildCompletion {
  std::string index_id;
  int partition = -1;
  Seconds finish = 0;
  /// Schedule container the build ran on (for persist/crash bookkeeping).
  int container = -1;
};

/// \brief One preempted index-build operator and how long it ran before
/// being stopped (feeds the resumable-builds extension).
struct BuildKill {
  std::string index_id;
  int partition = -1;
  Seconds ran_for = 0;
};

/// \brief One operator lost to a container crash: it never ran, or its
/// partial work died with the container's local disk (paper §3).
struct LostOp {
  int op_id = 0;
  int container = 0;
  bool optional = false;
};

/// \brief One container that died mid-schedule, at `at` (its crash or a
/// provider spot reclaim). A reclaim is `preempted`: the lease ends at `at`
/// exactly like a crash, but the fleet ledger counts it as preempted.
struct ContainerLoss {
  int container = 0;
  Seconds at = 0;
  bool preempted = false;
};

/// \brief Outcome of executing one schedule.
struct ExecResult {
  /// Completion time of the last dataflow operator that finished (actual).
  Seconds makespan = 0;
  /// Leased quanta actually charged (sum over containers; crashed
  /// containers are charged through their failure quantum only).
  int64_t leased_quanta = 0;
  /// Idle seconds inside leased quanta (actual fragmentation).
  Seconds total_idle = 0;
  /// Operators attempted (dataflow + build).
  int executed_ops = 0;
  /// Build ops stopped by preemption or quantum expiry (Table 7).
  int killed_builds = 0;
  /// Transient storage-read faults absorbed as latency spikes.
  int storage_faults = 0;
  /// Read requests issued to the storage service (cache-miss fetches,
  /// hedge duplicates, clone fetches). `storage_faults` draws are a subset
  /// of these; Put retries are counted by the service, not here.
  int storage_reads = 0;
  /// Speculative clones spawned into already-paid idle slots.
  int ops_speculated = 0;
  /// Clones that finished before their original (first finisher wins).
  int spec_wins = 0;
  /// Clones cancelled because the original finished first.
  int spec_cancelled = 0;
  /// Reserved slot seconds handed back to the build knapsack when clones
  /// were cancelled (reservation end minus cancellation instant).
  Seconds spec_cancelled_seconds = 0;
  /// Duplicate storage reads issued after `hedge_after` elapsed.
  int hedged_reads = 0;
  /// Hedge duplicates that beat the primary read.
  int hedge_wins = 0;
  /// Cache-miss fetches that ran checksum verification (charged latency).
  int verified_reads = 0;
  /// Ops whose verified read failed and fell back to the base scan.
  int corrupt_reads = 0;
  /// True when every mandatory (dataflow) operator finished. False means a
  /// crash lost part of the dataflow and the caller must recover.
  bool complete = true;
  /// Build ops that finished: their index partitions are now built.
  std::vector<BuildCompletion> builds;
  /// Preempted build ops with their partial progress.
  std::vector<BuildKill> kills;
  /// Operators (dataflow and build) lost to container crashes.
  std::vector<LostOp> lost_ops;
  /// Containers that died mid-schedule, in container order.
  std::vector<ContainerLoss> losses;
  /// The realized timeline (completed and crash-truncated work).
  Schedule actual;
};

/// \brief Replays a planned schedule against actual conditions (paper §6.1
/// simulator): estimation errors perturb runtimes and data sizes, container
/// caches absorb repeat reads, and build-index operators (priority -1) are
/// stopped when a dataflow operator arrives at their container or the
/// current time quantum expires.
///
/// Dataflow operators keep their planned per-container order but start as
/// soon as their dependencies allow — never waiting for build ops, which
/// are preempted instead.
///
/// With fault injection, a container that crashes loses everything
/// unfinished at the failure instant — dataflow ops (and transitively their
/// descendants), running build ops (no resumable progress: the local disk is
/// gone), and its cache contents; stragglers stretch CPU time and transfers
/// on affected containers; transient storage-read faults add latency to
/// cache-miss fetches.
///
/// A provider spot reclaim (`ContainerFaults::reclaim_at`) ends the lease
/// exactly like a crash — nothing is charged past the reclaim instant — but
/// its notice window (`notice_at`..`reclaim_at`) drains the container first:
/// no new dataflow op, clone, or build is dispatched after the notice,
/// running dataflow ops may still finish before the reclaim, and builds are
/// stopped at the notice with their partial progress carried (a zero-notice
/// reclaim kills them like a crash — the disk dies before anything can be
/// staged off). See DESIGN.md §13.
///
/// With `FaultInjection::spec` enabled, a shadow pass (the same dataflow
/// pass with both features off, into a discarded result and against copies
/// of the container caches) first establishes what each container *would*
/// have been charged; that shadow lease is both the clone placement bound
/// and the billing floor, so speculation can only ever consume quanta that
/// were already paid for — `leased_quanta` is identical with and without
/// speculation (DESIGN.md §9).
class ExecSimulator {
 public:
  /// Replays plans made under `sched` (its quantum and network rate), with
  /// the actual runtimes and data sizes drawn from `seed` within `errors`.
  ExecSimulator(const SchedulerOptions& sched, uint64_t seed,
                SimOptions errors = {})
      : sched_(sched), errors_(errors), seed_(seed) {}

  /// \brief Executes `plan` for `dag`.
  ///
  /// `costs` is indexed by op id. `containers`, when non-null, maps the
  /// schedule's container indices to live Container objects whose LRU
  /// caches are consulted and updated (pass null for cold, cacheless runs);
  /// it must cover plan.num_containers() entries. A null `faults` means
  /// the identity FaultInjection: no crash, notice or reclaim, slowdown 1,
  /// no storage-fault model, speculation off.
  Result<ExecResult> Run(const Dag& dag, const Schedule& plan,
                         const std::vector<SimOpCost>& costs,
                         std::vector<Container*>* containers = nullptr,
                         const FaultInjection* faults = nullptr);

 private:
  SchedulerOptions sched_;
  SimOptions errors_;
  uint64_t seed_;
};

}  // namespace dfim

#endif  // DFIM_SCHED_EXEC_SIMULATOR_H_
