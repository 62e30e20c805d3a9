#ifndef DFIM_CORE_SHARDED_SERVICE_H_
#define DFIM_CORE_SHARDED_SERVICE_H_

#include <memory>
#include <vector>

#include "core/service.h"

namespace dfim {

/// \brief Cross-shard fairness on the shared storage backend (DESIGN.md
/// §14). Off by default: with `enabled` false no gate is constructed and
/// every shard's persist path is bit-identical to an unsharded service.
struct FairnessOptions {
  bool enabled = false;
  /// Arbitration window length, in quanta.
  double window_quanta = 1.0;
  /// Global persist budget per window, split evenly across shards (each
  /// shard's share is max(1, cap / num_shards)). Persists past a shard's
  /// share are deferred to the start of a later window — deficit-style:
  /// a shard k shares over budget waits k windows, so a hot shard cannot
  /// starve the others' access to the shared backend.
  int max_puts_per_window = 0;
};

/// \brief Multi-tenant partitioning of the QaaS (DESIGN.md §14).
struct ShardOptions {
  /// Tenant shards run one thread each; tenant t lives on shard
  /// t % num_shards. 1 = unsharded (still per-tenant isolated).
  int num_shards = 1;
  FairnessOptions fairness;
};

/// Rejects a non-positive shard count and — when fairness is enabled — a
/// non-positive window or budget.
Status ValidateShardOptions(const ShardOptions& opts);

/// \brief Deficit round-robin persist arbiter over virtual-time windows.
///
/// Each shard owns a lane with a per-window budget of `share` persists
/// (the global cap split evenly). A persist beyond the budget is delayed to
/// the start of the window where the shard's cumulative budget covers it.
/// Lane state is only ever touched by its owning shard's thread (the
/// aggregate accessors are for after the run), so arbitration is
/// deterministic: it depends only on the shard's own sequential persist
/// stream, never on cross-thread timing.
class CrossShardGate : public PersistGate {
 public:
  CrossShardGate(const FairnessOptions& opts, int num_shards, Seconds quantum);

  Seconds OnPersist(int shard, Seconds at) override;

  /// Per-shard fair share (persists per window).
  int share() const { return share_; }

  /// \name Run-wide tallies (sum over lanes; read after the run joins).
  /// `puts()` and `throttled()` must equal the sums of every tenant's
  /// `gate_puts` and `gate_throttled`; `ShardedQaasService::Run` checks it.
  /// @{
  int64_t puts() const;
  int64_t throttled() const;
  double throttle_quanta() const;
  /// @}

 private:
  /// One shard's arbitration state, padded so neighbouring lanes never
  /// share a cache line (each is written by a different thread).
  struct alignas(64) Lane {
    /// Window the budget was last reset in (-1 = never).
    int64_t window = -1;
    /// Persists charged against the current window, carryover included.
    int64_t used = 0;
    int64_t puts = 0;
    int64_t throttled = 0;
    Seconds delay = 0;
  };

  Seconds window_len_;
  Seconds quantum_;
  int share_;
  std::vector<Lane> lanes_;
};

/// \brief The sharded, multi-tenant QaaS (DESIGN.md §14).
///
/// One catalog — and one full QaasService underneath: storage, fleet,
/// tuner EWMA state, admission queue, history — per tenant; tenants are the
/// isolation unit, shards are their thread grouping (tenant t runs on shard
/// t % num_shards, tenants within a shard run sequentially in tenant
/// order). Per-tenant metrics are therefore a pure function of the tenant's
/// own dataflow stream and seed, independent of the shard count — the
/// shard-count-invariance property the tests pin down. The optional
/// cross-shard gate arbitrates every shard's persists against the shared
/// backend's global budget.
class ShardedQaasService {
 public:
  /// `catalogs[t]` is tenant t's catalog binding; catalogs.size() is the
  /// tenant count. Each tenant's service derives its seed from the base
  /// options' seed (tenant 0 keeps it verbatim, so a single-tenant sharded
  /// run is bit-identical to the monolithic service).
  ShardedQaasService(std::vector<Catalog*> catalogs, ServiceOptions options,
                     ShardOptions shards);

  /// Drains `client` up front (arrival order), partitions the stream by
  /// tenant, runs every shard, and returns the cross-tenant aggregate.
  /// Requires admission.open_loop — tenants consume their partitions as
  /// arrival-driven replay streams. Returns Status::Internal when a
  /// tenant's ledgers or the gate lanes do not balance.
  Result<ServiceMetrics> Run(WorkloadClient* client);

  /// Per-tenant metrics of the last Run (index = tenant id).
  const std::vector<ServiceMetrics>& per_tenant() const { return per_tenant_; }

  /// The fairness gate (null when fairness is off).
  const CrossShardGate* gate() const { return gate_.get(); }

 private:
  std::vector<Catalog*> catalogs_;
  ServiceOptions opts_;
  ShardOptions shards_;
  std::vector<ServiceMetrics> per_tenant_;
  std::unique_ptr<CrossShardGate> gate_;
};

}  // namespace dfim

#endif  // DFIM_CORE_SHARDED_SERVICE_H_
