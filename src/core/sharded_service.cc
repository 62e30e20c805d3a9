#include "core/sharded_service.h"

#include <thread>
#include <utility>

namespace dfim {

Status ValidateShardOptions(const ShardOptions& opts) {
  if (opts.num_shards < 1) {
    return Status::InvalidArgument("shard num_shards must be >= 1");
  }
  return Status::OK();
}

ShardedQaasService::ShardedQaasService(std::vector<Catalog*> catalogs,
                                       ServiceOptions options,
                                       ShardOptions shards)
    : catalogs_(std::move(catalogs)),
      opts_(std::move(options)),
      shards_(std::move(shards)) {}

Result<ServiceMetrics> ShardedQaasService::Run(WorkloadClient* client) {
  DFIM_RETURN_NOT_OK(ValidateShardOptions(shards_));
  if (catalogs_.empty()) {
    return Status::InvalidArgument("sharded service needs >= 1 catalog");
  }
  if (!opts_.admission.open_loop) {
    return Status::InvalidArgument(
        "sharded service requires admission.open_loop: tenant partitions "
        "replay as arrival-driven streams");
  }
  const int num_tenants = static_cast<int>(catalogs_.size());
  const int num_shards = shards_.num_shards;

  // Drain the client up front and partition by tenant. The open-loop
  // client yields arrivals in issue order irrespective of the clock
  // argument, so the per-tenant sub-streams are exactly what each tenant
  // would have seen from its own client.
  std::vector<std::vector<Dataflow>> streams(
      static_cast<size_t>(num_tenants));
  while (true) {
    std::optional<Dataflow> df = client->Next(0, opts_.total_time);
    if (!df.has_value()) break;
    const int t =
        ((df->tenant % num_tenants) + num_tenants) % num_tenants;
    streams[static_cast<size_t>(t)].push_back(*std::move(df));
  }

  per_tenant_.assign(static_cast<size_t>(num_tenants), ServiceMetrics{});
  std::vector<Status> statuses(static_cast<size_t>(num_tenants),
                               Status::OK());

  // Shard runner: shard s owns tenants t with t % num_shards == s, run
  // sequentially in tenant order. All of a tenant's state (catalog,
  // storage, fleet, tuner, admission, history) lives in its own
  // QaasService, so per-tenant results are independent of how tenants are
  // grouped into shards.
  auto run_shard = [&](size_t shard) {
    for (int t = static_cast<int>(shard); t < num_tenants; t += num_shards) {
      ServiceOptions o = opts_;
      // Tenant 0 keeps the base seed verbatim: a one-tenant sharded run is
      // bit-identical to the monolithic service.
      o.seed = opts_.seed ^ (static_cast<uint64_t>(t) * 0x9e3779b97f4a7c15ULL);
      QaasService svc(catalogs_[static_cast<size_t>(t)], o);
      ReplayWorkloadClient replay(std::move(streams[static_cast<size_t>(t)]));
      auto result = svc.Run(&replay);
      if (!result.ok()) {
        statuses[static_cast<size_t>(t)] = result.status();
        continue;
      }
      per_tenant_[static_cast<size_t>(t)] = *std::move(result);
      per_tenant_[static_cast<size_t>(t)].tenant = t;
    }
  };
  // One thread per shard; shard 0 runs on the calling thread. jthreads
  // join on destruction, so every shard is joined before `statuses` and the
  // streams go away, on exception paths too.
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<size_t>(num_shards - 1));
    for (int s = 1; s < num_shards; ++s) {
      threads.emplace_back(run_shard, static_cast<size_t>(s));
    }
    run_shard(0);
  }

  for (const Status& st : statuses) {
    DFIM_RETURN_NOT_OK(st);
  }
  // Each tenant's Run checked its own ledgers.
  return AggregateMetrics(per_tenant_);
}

}  // namespace dfim
