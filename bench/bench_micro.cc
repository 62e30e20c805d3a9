// Google-benchmark microbenchmarks for the core components: B+Tree
// operations, the knapsack solvers, the gain model and the schedulers.
// The knapsack and skyline arms also time the test oracles the production
// code replaced.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/gain.h"
#include "core/knapsack.h"
#include "core/tuner.h"
#include "index/bplus_tree.h"
#include "sched/load_balance_scheduler.h"
#include "sched/skyline_scheduler.h"
#include "knapsack_oracle.h"
#include "skyline_oracle.h"

namespace dfim {
namespace {

void BM_BPlusTreeInsert(benchmark::State& state) {
  auto n = static_cast<int64_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    BPlusTree<int64_t> tree;
    for (int64_t i = 0; i < n; ++i) {
      tree.Insert(static_cast<int64_t>(rng.Next() % 1000000),
                  static_cast<RowId>(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BPlusTreeBulkLoad(benchmark::State& state) {
  auto n = static_cast<int64_t>(state.range(0));
  std::vector<BPlusTree<int64_t>::Entry> entries;
  for (int64_t i = 0; i < n; ++i) {
    entries.push_back({i, static_cast<RowId>(i)});
  }
  for (auto _ : state) {
    BPlusTree<int64_t> tree;
    tree.BulkLoad(entries);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BPlusTreeBulkLoad)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_BPlusTreeLookup(benchmark::State& state) {
  BPlusTree<int64_t> tree;
  Rng rng(2);
  for (int64_t i = 0; i < 100000; ++i) {
    tree.Insert(static_cast<int64_t>(rng.Next() % 1000000),
                static_cast<RowId>(i));
  }
  int64_t k = 0;
  for (auto _ : state) {
    auto rows = tree.Lookup(k % 1000000);
    benchmark::DoNotOptimize(rows.size());
    k += 7919;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreeLookup);

void BM_BPlusTreeLookupBatch(benchmark::State& state) {
  // Pipelined group probes (forced past the adaptive threshold) vs the
  // one-at-a-time BM_BPlusTreeLookup above; arg = group size.
  const size_t group = static_cast<size_t>(state.range(0));
  BPlusTree<int64_t>::Options opts;
  opts.batch_pipeline_min_bytes = 0;
  BPlusTree<int64_t> tree(opts);
  Rng rng(2);
  for (int64_t i = 0; i < 100000; ++i) {
    tree.Insert(static_cast<int64_t>(rng.Next() % 1000000),
                static_cast<RowId>(i));
  }
  std::vector<int64_t> keys;
  int64_t k = 0;
  for (int i = 0; i < 1024; ++i) {
    keys.push_back(k % 1000000);
    k += 7919;
  }
  for (auto _ : state) {
    int64_t visits = 0;
    tree.LookupBatch(
        std::span<const int64_t>(keys),
        [&visits](size_t, const int64_t&, RowId) { ++visits; }, group);
    benchmark::DoNotOptimize(visits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_BPlusTreeLookupBatch)->Arg(1)->Arg(8)->Arg(16);

void BM_BPlusTreeRangeScan(benchmark::State& state) {
  BPlusTree<int64_t> tree;
  std::vector<BPlusTree<int64_t>::Entry> entries;
  for (int64_t i = 0; i < 1000000; ++i) {
    entries.push_back({i, static_cast<RowId>(i)});
  }
  tree.BulkLoad(entries);
  for (auto _ : state) {
    int64_t sum = 0;
    tree.ScanRange(250000, 260000,
                   [&sum](const int64_t& key, RowId) { sum += key; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_BPlusTreeRangeScan);

/// A slot's knapsack: with `partitioned` == 0, `n` items of random sizes
/// and gains (capacity 0.6); otherwise one slot of the phase workload
/// scaled to `n` build ops: six indexes whose partitions share one size
/// and whose gains differ in the fourth digit, plus one op of another size
/// (capacity 38.77, about 30 items). At n = 490 it is that slot.
std::vector<KnapsackItem> KnapsackInstance(int n, bool partitioned,
                                           double* capacity) {
  std::vector<KnapsackItem> items;
  if (!partitioned) {
    Rng rng(3);
    for (int i = 0; i < n; ++i) {
      items.push_back({i, rng.Uniform(0.02, 0.2), rng.Uniform(0.1, 1.0)});
    }
    *capacity = 0.6;
    return items;
  }
  struct Type {
    double size;
    double gain;
    int count;  // of 490
  };
  const Type types[] = {
      {1.255293383089898, 0.0026856401111466522, 92},
      {1.255293383089898, 0.0028602425212496782, 141},
      {1.255293383089898, 0.0030146236401575478, 81},
      {1.255293383089898, 0.0035877233339432074, 72},
      {1.255293383089898, 0.0037084203271268812, 63},
      {1.255293383089898, 0.0037090485939110613, 40},
      {1.0223275900012398, 0.0030146236401575478, 1},
  };
  for (const Type& t : types) {
    int copies = std::max(1, t.count * n / 490);
    for (int k = 0; k < copies; ++k) {
      items.push_back({static_cast<int>(items.size()), t.size, t.gain});
    }
  }
  *capacity = 38.774432264519191;
  return items;
}

void BM_KnapsackBranchAndBound(benchmark::State& state) {
  double capacity = 0;
  auto items = KnapsackInstance(static_cast<int>(state.range(0)),
                                state.range(1) != 0, &capacity);
  for (auto _ : state) {
    auto r = SolveKnapsackBranchAndBound(items, capacity);
    benchmark::DoNotOptimize(r.total_gain);
  }
}
BENCHMARK(BM_KnapsackBranchAndBound)
    ->ArgNames({"items", "partitioned"})
    ->Args({10, 0})
    ->Args({50, 0})
    ->Args({200, 0})
    ->Args({200, 1})
    ->Args({490, 1});

/// The per-item branch and bound the solver replaced (the test oracle), on
/// the partitioned arm: it stops at its 2^20 node cap there.
void BM_KnapsackOracleBranchAndBound(benchmark::State& state) {
  double capacity = 0;
  auto items =
      KnapsackInstance(static_cast<int>(state.range(0)), true, &capacity);
  for (auto _ : state) {
    auto r = oracle::SolveKnapsackBranchAndBound(items, capacity);
    benchmark::DoNotOptimize(r.total_gain);
  }
}
BENCHMARK(BM_KnapsackOracleBranchAndBound)
    ->ArgNames({"items"})
    ->Arg(490)
    ->Unit(benchmark::kMillisecond);

void BM_GainEvaluation(benchmark::State& state) {
  GainModel model(GainOptions{}, PricingModel{});
  std::vector<GainContribution> uses;
  for (int i = 0; i < 64; ++i) {
    uses.push_back({1.0 + i * 0.1, 1.0, static_cast<double>(i)});
  }
  for (auto _ : state) {
    auto g = model.Evaluate(uses, 1.0, 1.0, 500.0);
    benchmark::DoNotOptimize(g.g);
  }
}
BENCHMARK(BM_GainEvaluation);

void BM_SkylineScheduler(benchmark::State& state) {
  bench::PaperSetup setup(7);
  Dataflow df = setup.generator->Generate(AppType::kMontage, 0, 0);
  std::vector<Seconds> durations;
  std::vector<SimOpCost> costs;
  SchedulerOptions so = bench::PaperSchedulerOptions();
  so.skyline_cap = static_cast<int>(state.range(0));
  BuildDataflowCosts(df.dag, df, setup.catalog, so.net_mb_per_sec, &durations,
                     &costs);
  SkylineScheduler sched(so);
  for (auto _ : state) {
    auto skyline = sched.ScheduleDag(df.dag, durations, false);
    benchmark::DoNotOptimize(skyline.ok());
  }
}
BENCHMARK(BM_SkylineScheduler)->Arg(2)->Arg(4)->Arg(8);

/// The naive test oracle (tests/skyline_oracle.h) vs SkylineScheduler on
/// the same generated dataflow (arg = engine: 0 naive, 1 incremental),
/// optional build ops included so the keep-base path is exercised.
void BM_SkylineSchedule(benchmark::State& state) {
  bench::PaperSetup setup(7);
  Dataflow df = setup.generator->Generate(AppType::kMontage, 0, 0);
  std::vector<Seconds> durations;
  std::vector<SimOpCost> costs;
  SchedulerOptions so = bench::PaperSchedulerOptions();
  so.skyline_cap = 8;
  so.max_containers = 16;
  const bool naive = state.range(0) == 0;
  BuildDataflowCosts(df.dag, df, setup.catalog, so.net_mb_per_sec, &durations,
                     &costs);
  SkylineScheduler sched(so);
  for (auto _ : state) {
    auto skyline =
        naive ? oracle::NaiveSkylineSchedule(df.dag, durations, so, true)
              : sched.ScheduleDag(df.dag, durations, true);
    benchmark::DoNotOptimize(skyline.ok());
  }
}
BENCHMARK(BM_SkylineSchedule)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"engine"});

void BM_LoadBalanceScheduler(benchmark::State& state) {
  bench::PaperSetup setup(7);
  Dataflow df = setup.generator->Generate(AppType::kMontage, 0, 0);
  std::vector<Seconds> durations;
  std::vector<SimOpCost> costs;
  SchedulerOptions so = bench::PaperSchedulerOptions();
  BuildDataflowCosts(df.dag, df, setup.catalog, so.net_mb_per_sec, &durations,
                     &costs);
  LoadBalanceScheduler sched(so);
  for (auto _ : state) {
    auto s = sched.ScheduleDag(df.dag, durations, 10);
    benchmark::DoNotOptimize(s.ok());
  }
}
BENCHMARK(BM_LoadBalanceScheduler);

}  // namespace
}  // namespace dfim

BENCHMARK_MAIN();
