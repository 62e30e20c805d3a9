#ifndef DFIM_CORE_SHARDED_SERVICE_H_
#define DFIM_CORE_SHARDED_SERVICE_H_

#include <vector>

#include "core/service.h"

namespace dfim {

/// \brief Multi-tenant partitioning of the QaaS (DESIGN.md §14).
struct ShardOptions {
  /// Tenant shards run one thread each; tenant t lives on shard
  /// t % num_shards. 1 = unsharded (still per-tenant isolated).
  int num_shards = 1;
};

/// Rejects a non-positive shard count.
Status ValidateShardOptions(const ShardOptions& opts);

/// \brief The sharded, multi-tenant QaaS (DESIGN.md §14).
///
/// One catalog — and one full QaasService underneath: storage, fleet,
/// tuner EWMA state, admission queue, history — per tenant; tenants are the
/// isolation unit, shards are their thread grouping (tenant t runs on shard
/// t % num_shards, tenants within a shard run sequentially in tenant
/// order). Per-tenant metrics are therefore a pure function of the tenant's
/// own dataflow stream and seed, independent of the shard count — the
/// shard-count-invariance property the tests pin down. Shards share no
/// state.
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
  /// tenant's ledgers do not balance.
  Result<ServiceMetrics> Run(WorkloadClient* client);

  /// Per-tenant metrics of the last Run (index = tenant id).
  const std::vector<ServiceMetrics>& per_tenant() const { return per_tenant_; }

 private:
  std::vector<Catalog*> catalogs_;
  ServiceOptions opts_;
  ShardOptions shards_;
  std::vector<ServiceMetrics> per_tenant_;
};

}  // namespace dfim

#endif  // DFIM_CORE_SHARDED_SERVICE_H_
