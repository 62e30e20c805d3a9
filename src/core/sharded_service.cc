#include "core/sharded_service.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

namespace dfim {

Status ValidateShardOptions(const ShardOptions& opts) {
  if (opts.num_shards < 1) {
    return Status::InvalidArgument("shard num_shards must be >= 1");
  }
  if (opts.fairness.enabled) {
    if (!(opts.fairness.window_quanta > 0)) {
      return Status::InvalidArgument(
          "fairness window_quanta must be positive when fairness is on");
    }
    if (opts.fairness.max_puts_per_window < 1) {
      return Status::InvalidArgument(
          "fairness max_puts_per_window must be >= 1 when fairness is on");
    }
  }
  return Status::OK();
}

CrossShardGate::CrossShardGate(const FairnessOptions& opts, int num_shards,
                               Seconds quantum)
    : window_len_(opts.window_quanta * quantum),
      quantum_(quantum),
      share_(std::max(1, opts.max_puts_per_window / std::max(1, num_shards))),
      lanes_(static_cast<size_t>(std::max(1, num_shards))) {}

Seconds CrossShardGate::OnPersist(int shard, Seconds at) {
  Lane& lane = lanes_[static_cast<size_t>(shard) % lanes_.size()];
  ++lane.puts;
  const int64_t w = static_cast<int64_t>(std::floor(at / window_len_));
  if (w > lane.window) {
    // A fresh window resets the budget. Virtual time may regress across
    // tenants within a shard (each tenant replays its own arrival clock);
    // regressed persists are charged against the lane's current window —
    // arbitration follows the shard's persist order, which is
    // deterministic regardless of wall-clock interleaving.
    lane.window = w;
    lane.used = 0;
  }
  ++lane.used;
  if (lane.used <= share_) return 0;
  // Deficit carryover: the k-th share-sized chunk past the budget waits k
  // windows, so a burst drains at exactly the fair rate.
  const int64_t overflow = (lane.used - 1) / share_;
  const Seconds release =
      static_cast<Seconds>(lane.window + overflow) * window_len_;
  const Seconds delay = release > at ? release - at : 0;
  if (delay > 0) {
    ++lane.throttled;
    lane.delay += delay;
  }
  return delay;
}

int64_t CrossShardGate::puts() const {
  int64_t n = 0;
  for (const Lane& l : lanes_) n += l.puts;
  return n;
}

int64_t CrossShardGate::throttled() const {
  int64_t n = 0;
  for (const Lane& l : lanes_) n += l.throttled;
  return n;
}

double CrossShardGate::throttle_quanta() const {
  Seconds d = 0;
  for (const Lane& l : lanes_) d += l.delay;
  return d / quantum_;
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

  gate_.reset();
  if (shards_.fairness.enabled) {
    gate_ = std::make_unique<CrossShardGate>(shards_.fairness, num_shards,
                                             opts_.tuner.sched.quantum);
  }

  per_tenant_.assign(static_cast<size_t>(num_tenants), ServiceMetrics{});
  std::vector<Status> statuses(static_cast<size_t>(num_tenants),
                               Status::OK());

  // Shard runner: shard s owns tenants t with t % num_shards == s, run
  // sequentially in tenant order. All of a tenant's state (catalog,
  // storage, fleet, tuner, admission, history) lives in its own
  // QaasService, so per-tenant results are independent of how tenants are
  // grouped into shards — only the shared gate crosses shards, and its
  // lane state is per-shard.
  auto run_shard = [&](size_t shard) {
    for (int t = static_cast<int>(shard); t < num_tenants; t += num_shards) {
      ServiceOptions o = opts_;
      // Tenant 0 keeps the base seed verbatim: a one-tenant sharded run is
      // bit-identical to the monolithic service.
      o.seed = opts_.seed ^ (static_cast<uint64_t>(t) * 0x9e3779b97f4a7c15ULL);
      QaasService svc(catalogs_[static_cast<size_t>(t)], o);
      if (gate_) svc.set_persist_gate(gate_.get(), static_cast<int>(shard));
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
  // The one cross-tenant ledger (each tenant's Run checked its own): every
  // persist a tenant counts as gated went through the gate, and vice versa.
  ServiceMetrics agg = AggregateMetrics(per_tenant_);
  const int64_t gate_puts_slack = agg.gate_puts - (gate_ ? gate_->puts() : 0);
  const int64_t gate_throttled_slack =
      agg.gate_throttled - (gate_ ? gate_->throttled() : 0);
  if (gate_puts_slack != 0 || gate_throttled_slack != 0) {
    return Status::Internal(
        "ledger slack: gate_puts=" + std::to_string(gate_puts_slack) +
        " gate_throttled=" + std::to_string(gate_throttled_slack));
  }
  return agg;
}

}  // namespace dfim
