// dfim_e2e: runs one workload of the end-to-end control-plane benchmark.
//
//   dfim_e2e --workload NAME [--seed N] [--seconds S] [--smoke]
//
// Repeats {set up, run} until S seconds have passed (at least one rep),
// then prints one JSON object: per-rep set-up and run wall times, the work
// each rep did, the run's deterministic outcome, the self-checks, the peak
// RSS of the first rep and, in dfim_e2e_traced, the per-layer span
// aggregates. Exits 1 when a self-check fails or the outcome differs
// between reps. README.md describes the workloads and why each was chosen.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/service.h"
#include "core/sharded_service.h"
#include "dataflow/file_database.h"
#include "dataflow/generators.h"
#include "dataflow/workload.h"
#include "index/bplus_tree.h"
#include "index/hash_index.h"
#include "tpch/lineitem.h"
#include "tpch/queries.h"
#include "trace.h"

namespace dfim::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr Seconds kQuantum = 60.0;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "dfim_e2e: %s\n", msg.c_str());
  std::exit(2);
}

struct Args {
  std::string workload;
  uint64_t seed = 23;
  double seconds = 0;
  bool smoke = false;
};

/// Named numbers, kept in insertion order for the JSON output.
using Fields = std::vector<std::pair<std::string, double>>;

std::string ToJson(const Fields& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + fields[i].first + "\": " +
           JsonNumber(fields[i].second);
  }
  return out + "}";
}

struct Rep {
  double setup_s = 0;
  double run_s = 0;
  /// Work the timed run handled: dataflows executed, or index operations.
  int64_t items = 0;
  /// Deterministic per seed: must be bit-identical across reps and
  /// between the traced and untraced binaries.
  Fields outcome;
  /// Operation counts and wall seconds per operation type
  /// (lineitem_index only).
  Fields timings;
  std::vector<std::pair<std::string, bool>> checks;
};

// ---- Service workloads ------------------------------------------------------

/// The paper's Table 3 settings. Defined here, not shared with the
/// paper-reproduction benches, so that editing those never changes what
/// this benchmark measures.
ServiceOptions Table3Options(Seconds horizon, uint64_t seed) {
  ServiceOptions so;
  so.policy = IndexPolicy::kGain;
  so.tuner.sched.max_containers = 100;
  so.tuner.sched.quantum = kQuantum;
  so.tuner.sched.net_mb_per_sec = 125.0;
  so.tuner.sched.skyline_cap = 4;
  so.tuner.gain.alpha = 0.5;
  so.tuner.gain.fade_d_quanta = 1.0;
  so.sim.time_error = 0.1;
  so.sim.data_error = 0.1;
  so.total_time = horizon;
  so.seed = seed;
  return so;
}

/// Open-loop admission with deadline shedding, brownout and the storage
/// breaker, as in the overload bench.
void OpenLoopControls(ServiceOptions* so) {
  so->admission.open_loop = true;
  so->admission.max_queue = 32;
  so->admission.shed = ShedPolicy::kDeadlineInfeasible;
  so->admission.slo_factor = 4.0;
  so->admission.retry_budget = 64;
  so->brownout.pressure_lo_quanta = 1.0;
  so->brownout.pressure_hi_quanta = 8.0;
  so->breaker.open_after = 4;
  so->breaker.open_duration = 300.0;
}

/// One tenant's world: the paper's 125-file database (fixed seed) and a
/// dataflow generator seeded by the workload seed.
struct World {
  Catalog catalog;
  FileDatabase db{&catalog, FileDatabaseOptions{}};
  std::unique_ptr<DataflowGenerator> gen;

  explicit World(uint64_t seed) {
    Status st = db.Populate();
    if (!st.ok()) Die("database set-up failed: " + st.ToString());
    gen = std::make_unique<DataflowGenerator>(&db, seed);
  }
};

/// Every index partition the catalog marks as built exists in storage.
bool CatalogInStorage(const Catalog& catalog, const StorageService& storage) {
  for (const auto& idx : catalog.IndexIds()) {
    auto def = catalog.GetIndexDef(idx);
    auto state = catalog.GetIndexState(idx);
    if (!def.ok() || !state.ok()) continue;
    for (size_t p = 0; p < (*state)->num_partitions(); ++p) {
      if ((*state)->part(p).built &&
          !storage.Exists((*def)->PartitionPath(static_cast<int>(p)))) {
        return false;
      }
    }
  }
  return true;
}

/// FNV-1a over the bit patterns of every counter and timeline point, so the
/// outcome check covers more than the headline numbers.
class Digest {
 public:
  template <typename T>
  void Add(T v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001b3ULL;
  }
  void Add(const ServiceMetrics& m) {
#define DFIM_E2E_DIGEST(type, name) Add(m.name);
    DFIM_MIRRORED_COUNTERS(DFIM_E2E_DIGEST)
#undef DFIM_E2E_DIGEST
    Add(m.storage_cost);
    Add(m.queue_delay_quanta);
    for (const TimelinePoint& pt : m.timeline) {
      Add(pt.t);
      Add(pt.indexes_built);
      Add(pt.index_mb);
      Add(pt.queue_delay_quanta);
      Add(pt.makespan_quanta);
    }
  }
  /// The top 52 bits, which a JSON number holds exactly.
  double Value() const { return static_cast<double>(h_ >> 12); }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The outcome of one service run. `tenants` holds every per-tenant result
/// (one entry for an unsharded run); `m` is the aggregate.
Fields ServiceOutcome(const ServiceMetrics& m,
                      const std::vector<ServiceMetrics>& tenants) {
  std::vector<double> response;
  Digest digest;
  for (const ServiceMetrics& t : tenants) {
    digest.Add(t);
    for (const TimelinePoint& pt : t.timeline) {
      response.push_back(pt.queue_delay_quanta + pt.makespan_quanta);
    }
  }
  const int executed =
      m.dataflows_finished + m.dataflows_failed + m.dataflows_overran;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  return {
      {"arrived", m.dataflows_arrived},
      {"executed", executed},
      {"finished", m.dataflows_finished},
      {"goodput", m.dataflows_finished - m.deadlines_missed},
      {"cost_per_dataflow_q", m.AvgCostQuantaPerDataflow(PricingModel{})},
      {"response_p50_q", Percentile(&response, 0.50)},
      {"response_p90_q", Percentile(&response, 0.90)},
      {"response_samples", static_cast<double>(response.size())},
      {"failed_frac",
       ratio(m.dataflows_failed + m.dataflows_shed + m.dataflows_overran,
             m.dataflows_arrived)},
      {"killed_frac", ratio(m.killed_ops, m.total_ops)},
      {"spec_win_frac", ratio(m.spec_wins, m.ops_speculated)},
      {"queue_delay_mean_q", ratio(m.queue_delay_quanta, executed)},
      {"journal_mb", static_cast<double>(m.journal_bytes) / (1 << 20)},
      {"digest", digest.Value()},
  };
}

/// arrived == finished + failed + overran + shed. The open loop balances
/// exactly; the closed loop may leave the one arrival the horizon cut off
/// mid-issue unaccounted.
bool Balanced(const ServiceMetrics& m, bool open_loop) {
  const int slack = m.dataflows_arrived - m.dataflows_finished -
                    m.dataflows_failed - m.dataflows_overran -
                    m.dataflows_shed;
  return open_loop ? slack == 0 : (slack == 0 || slack == 1);
}

/// Service set-up runs this many times per rep and reports the median: it
/// takes about a millisecond, and the first build after a rep has freed its
/// heap pays page faults that the others do not.
constexpr int kServiceSetups = 5;

/// Calls `make` `samples` times, destroying each result before the next
/// call, and returns the last; `*median_s` gets the median call time.
template <typename Make>
auto SetUp(int samples, Make make, double* median_s) {
  std::optional<decltype(make())> built;
  std::vector<double> times;
  for (int i = 0; i < samples; ++i) {
    built.reset();
    const Clock::time_point t0 = Clock::now();
    built.emplace(make());
    times.push_back(Since(t0));
  }
  *median_s = Percentile(&times, 0.5);
  return std::move(*built);
}

/// Everything a service rep builds before the timed run. The client and
/// the service point into the world, which is declared first so that it is
/// destroyed last.
struct ServiceSetup {
  std::unique_ptr<World> world;
  std::unique_ptr<QaasService> service;
  std::unique_ptr<WorkloadClient> client;
};

/// Runs one QaasService over a fresh world; `configure` finishes the
/// options and `make_client` builds the workload client.
template <typename Configure, typename MakeClient>
Rep RunService(const Args& args, Seconds horizon, bool open_loop,
               Configure configure, MakeClient make_client) {
  Rep rep;
  ServiceSetup s = SetUp(
      kServiceSetups,
      [&] {
        ServiceSetup b;
        b.world = std::make_unique<World>(args.seed);
        ServiceOptions so = Table3Options(horizon, args.seed);
        configure(&so);
        b.service = std::make_unique<QaasService>(&b.world->catalog, so);
        b.client = make_client(b.world->gen.get());
        return b;
      },
      &rep.setup_s);
  const Clock::time_point t0 = Clock::now();
  Result<ServiceMetrics> m = s.service->Run(s.client.get());
  rep.run_s = Since(t0);
  if (!m.ok()) Die("service run failed: " + m.status().ToString());

  rep.items = m->dataflows_finished + m->dataflows_failed + m->dataflows_overran;
  rep.outcome = ServiceOutcome(*m, {*m});
  rep.checks = {
      {"balanced", Balanced(*m, open_loop)},
      {"catalog_in_storage",
       CatalogInStorage(s.world->catalog, s.service->storage())},
      {"journal_ledger", s.service->journal().LedgerSlack() == 0},
  };
  return rep;
}

Rep PhaseClosed(const Args& args) {
  const Seconds horizon = (args.smoke ? 120.0 : 720.0) * kQuantum;
  return RunService(
      args, horizon, /*open_loop=*/false, [](ServiceOptions*) {},
      [&](DataflowGenerator* gen) {
        // Phase lengths scale with the horizon, so the smoke run still
        // crosses all four phases.
        const double f = horizon / (720.0 * kQuantum);
        std::vector<WorkloadPhase> phases;
        for (const WorkloadPhase& ph :
             PhaseWorkloadClient::PaperPhases(kQuantum)) {
          phases.push_back({ph.app, ph.duration * f});
        }
        return std::make_unique<PhaseWorkloadClient>(gen, kQuantum, phases,
                                                     args.seed);
      });
}

Rep MontageDurable(const Args& args) {
  const Seconds horizon = (args.smoke ? 120.0 : 720.0) * kQuantum;
  return RunService(
      args, horizon, /*open_loop=*/true,
      [](ServiceOptions* so) {
        OpenLoopControls(so);
        so->faults.crash_rate = 0.02;
        so->faults.storage_fault_rate = 0.05;
        so->faults.straggler_rate = 0.1;
        so->faults.torn_write_rate = 0.1;
        so->faults.bitrot_rate = 0.002;
        so->faults.seed = 17;
        so->integrity.verify_reads = true;
        so->integrity.verify_latency = 1.0;
        so->integrity.scrub_objects_per_quantum = 2.0;
        so->integrity.repair = true;
        so->speculation.speculate = true;
        so->speculation.spec_slowdown_threshold = 1.5;
        so->speculation.hedge_reads = true;
        so->speculation.hedge_after = 5.0;
        so->journal.enabled = true;
      },
      [&](DataflowGenerator* gen) {
        ArrivalOptions arrivals;
        arrivals.mean_interarrival = 120.0;
        return std::make_unique<OpenLoopWorkloadClient>(
            gen, arrivals,
            std::vector<WorkloadPhase>{{AppType::kMontage, 1e9}}, args.seed);
      });
}

struct TenantsSetup {
  std::vector<std::unique_ptr<World>> worlds;
  std::unique_ptr<ShardedQaasService> service;
  std::unique_ptr<OpenLoopWorkloadClient> client;
};

Rep TenantsBatched(const Args& args) {
  constexpr int kTenants = 8;
  constexpr int kShards = 4;
  const Seconds horizon = (args.smoke ? 60.0 : 480.0) * kQuantum;
  Rep rep;
  TenantsSetup s = SetUp(
      kServiceSetups,
      [&] {
        TenantsSetup b;
        std::vector<Catalog*> catalogs;
        for (int t = 0; t < kTenants; ++t) {
          b.worlds.push_back(std::make_unique<World>(args.seed));
          catalogs.push_back(&b.worlds.back()->catalog);
        }
        ServiceOptions so = Table3Options(horizon, args.seed);
        OpenLoopControls(&so);
        so.tuner.sched.max_containers = 12;
        so.tuner.sched.skyline_cap = 3;
        so.batch.max_batch = 4;
        so.batch.window_quanta = 10.0;
        ShardOptions shards;
        shards.num_shards = kShards;
        b.service =
            std::make_unique<ShardedQaasService>(catalogs, so, shards);
        ArrivalOptions arrivals;
        arrivals.mean_interarrival = 10.0;
        b.client = std::make_unique<OpenLoopWorkloadClient>(
            b.worlds.front()->gen.get(), arrivals,
            std::vector<WorkloadPhase>{{AppType::kMontage, 1e9}}, args.seed);
        b.client->set_num_tenants(kTenants);
        return b;
      },
      &rep.setup_s);
  const Clock::time_point t0 = Clock::now();
  Result<ServiceMetrics> m = s.service->Run(s.client.get());
  rep.run_s = Since(t0);
  if (!m.ok()) Die("sharded run failed: " + m.status().ToString());

  const std::vector<ServiceMetrics>& tenants = s.service->per_tenant();
  bool tenants_balanced = true;
  for (const ServiceMetrics& t : tenants) {
    tenants_balanced = tenants_balanced && Balanced(t, true);
  }
  // Summed in tenant order with the counter's own type, as
  // AggregateMetrics does, so equality is exact.
  bool sum_identity = true;
#define DFIM_E2E_SUM(type, name)                      \
  {                                                   \
    type sum = 0;                                     \
    for (const ServiceMetrics& t : tenants) sum += t.name; \
    sum_identity = sum_identity && sum == m->name;    \
  }
  DFIM_MIRRORED_COUNTERS(DFIM_E2E_SUM)
#undef DFIM_E2E_SUM

  rep.items = m->dataflows_finished + m->dataflows_failed + m->dataflows_overran;
  rep.outcome = ServiceOutcome(*m, tenants);
  rep.outcome.push_back({"shards", kShards});
  rep.checks = {
      {"balanced", Balanced(*m, true) && tenants_balanced},
      {"aggregate_is_tenant_sum", sum_identity},
  };
  return rep;
}

// ---- Index workload ---------------------------------------------------------

/// Order-independent fold of (key, row) results: two index structures that
/// return the same multiset of rows give the same fold.
struct Fold {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(int32_t key, RowId row) {
    ++count;
    uint64_t x = (row + 0x9e3779b97f4a7c15ULL) ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(key)) << 32);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    sum += x;
  }
  bool operator==(const Fold&) const = default;
};

Rep LineitemIndex(const Args& args) {
  const double scale = args.smoke ? 0.02 : 0.2;
  const int rounds = args.smoke ? 2 : 10;
  const size_t kLookups = args.smoke ? 40000 : 400000;
  const size_t kScans = kLookups / 10;
  const size_t kInserts = kLookups * 3 / 40;
  constexpr int32_t kScanWidth = 8;

  Rep rep;
  Clock::time_point t0 = Clock::now();
  // The table is fixed, like the service workloads' file database; the
  // seed draws the operations. A seed-dependent table would also make peak
  // RSS seed-dependent: Generate reserves 4 rows per order, and a table
  // that overflows the reservation doubles the heap.
  const tpch::LineitemGenerator generator(scale, /*seed=*/7);
  BPlusTree<int32_t> tree;
  HashIndex<int32_t> hash;
  RowId next_row = 0;
  {
    TableHeap<tpch::LineitemRow> heap;
    {
      ScopedSpan span(Layer::kLineitemGenerate);
      generator.Generate(&heap);
    }
    {
      ScopedSpan span(Layer::kBptreeBulkLoad);
      tree = tpch::BuildOrderkeyIndex(heap);
    }
    heap.Scan([&hash](RowId id, const tpch::LineitemRow& row) {
      hash.Insert(row.orderkey, id);
    });
    next_row = heap.size();
  }
  // Probe inputs for every round, drawn before the clock starts.
  Rng rng(args.seed ^ 0x5bd1e995ULL);
  const int32_t max_key = generator.MaxOrderKey();
  auto draw_keys = [&](size_t n) {
    std::vector<int32_t> keys(n);
    for (int32_t& k : keys) k = static_cast<int32_t>(rng.UniformInt(1, max_key));
    return keys;
  };
  std::vector<std::vector<int32_t>> lookup_keys, scan_keys, insert_keys;
  for (int r = 0; r < rounds; ++r) {
    lookup_keys.push_back(draw_keys(kLookups));
    scan_keys.push_back(draw_keys(kScans));
    insert_keys.push_back(draw_keys(kInserts));
  }
  rep.setup_s = Since(t0);

  double lookup_s = 0, scan_s = 0, insert_s = 0;
  Fold tree_fold, hash_fold, scan_fold;
  bool folds_match = true;
  const Clock::time_point run0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    Fold tree_round, hash_round;
    Clock::time_point t = Clock::now();
    {
      ScopedSpan span(Layer::kBptreeLookupBatch);
      tree.LookupBatch(std::span<const int32_t>(lookup_keys[r]),
                       [&tree_round](size_t, int32_t key, RowId row) {
                         tree_round.Add(key, row);
                       });
    }
    {
      ScopedSpan span(Layer::kHashLookup);
      for (int32_t key : lookup_keys[r]) {
        for (RowId row : hash.Lookup(key)) hash_round.Add(key, row);
      }
    }
    lookup_s += Since(t);
    t = Clock::now();
    {
      ScopedSpan span(Layer::kBptreeScanRange);
      for (int32_t lo : scan_keys[r]) {
        tree.ScanRange(lo, lo + kScanWidth - 1,
                       [&scan_fold](int32_t key, RowId row) {
                         scan_fold.Add(key, row);
                       });
      }
    }
    scan_s += Since(t);
    t = Clock::now();
    {
      ScopedSpan span(Layer::kBptreeInsert);
      for (size_t i = 0; i < kInserts; ++i) {
        tree.Insert(insert_keys[r][i], next_row + i);
      }
    }
    {
      ScopedSpan span(Layer::kHashInsert);
      for (size_t i = 0; i < kInserts; ++i) {
        hash.Insert(insert_keys[r][i], next_row + i);
      }
    }
    insert_s += Since(t);
    next_row += kInserts;
    folds_match = folds_match && tree_round == hash_round;
    tree_fold.count += tree_round.count;
    tree_fold.sum += tree_round.sum;
    hash_fold.count += hash_round.count;
    hash_fold.sum += hash_round.sum;
  }
  rep.run_s = Since(run0);

  const double lookups = 2.0 * rounds * static_cast<double>(kLookups);
  const double scans = static_cast<double>(rounds) * kScans;
  const double inserts = 2.0 * rounds * static_cast<double>(kInserts);
  rep.items = static_cast<int64_t>(lookups + scans + inserts);
  rep.timings = {{"lookups", lookups}, {"lookup_s", lookup_s},
                 {"scans", scans},     {"scan_s", scan_s},
                 {"inserts", inserts}, {"insert_s", insert_s}};
  rep.outcome = {
      {"entries", static_cast<double>(tree.size())},
      {"tree_height", tree.height()},
      {"lookup_rows", static_cast<double>(tree_fold.count)},
      {"lookup_fold", static_cast<double>(tree_fold.sum >> 12)},
      {"scan_rows", static_cast<double>(scan_fold.count)},
      {"scan_fold", static_cast<double>(scan_fold.sum >> 12)},
  };
  rep.checks = {
      {"bptree_hash_lookups_agree", folds_match && tree_fold == hash_fold},
      {"bptree_hash_sizes_agree", tree.size() == hash.size()},
      {"bptree_invariants", tree.CheckInvariants()},
  };
  return rep;
}

// ---- Driver -----------------------------------------------------------------

struct Workload {
  const char* name;
  Rep (*run)(const Args&);
};

constexpr Workload kWorkloads[] = {
    {"phase_closed", PhaseClosed},
    {"montage_durable", MontageDurable},
    {"tenants_batched", TenantsBatched},
    {"lineitem_index", LineitemIndex},
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value after " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--smoke") {
      args.smoke = true;
    } else {
      Die("unknown argument " + a);
    }
  }
  return args;
}

/// The process's peak resident set (VmHWM). Not getrusage's ru_maxrss,
/// which keeps the peak of the parent image a process was forked from.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Die("cannot read /proc/self/status");
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Die("unknown workload '" + args.workload + "'");

  const Clock::time_point t0 = Clock::now();
  std::vector<Rep> reps = {workload->run(args)};
  // Taken after one rep, so it does not depend on how many reps fit.
  const double peak_rss_mb = PeakRssMb();
  while (Since(t0) < args.seconds) reps.push_back(workload->run(args));

  bool ok = true;
  std::string checks = "{";
  for (size_t i = 0; i < reps.front().checks.size(); ++i) {
    const std::string& name = reps.front().checks[i].first;
    bool pass = true;
    for (const Rep& r : reps) pass = pass && r.checks[i].second;
    ok = ok && pass;
    checks += (i == 0 ? "\"" : ", \"") + name + "\": " + (pass ? "true" : "false");
  }
  const std::string outcome = ToJson(reps.front().outcome);
  bool same = true;
  for (const Rep& r : reps) same = same && ToJson(r.outcome) == outcome;
  ok = ok && same;
  checks += std::string(", \"outcome_identical_across_reps\": ") +
            (same ? "true" : "false") + "}";

  std::string out = "{\"workload\": \"" + args.workload + "\"";
  out += ", \"seed\": " + std::to_string(args.seed);
  out += std::string(", \"smoke\": ") + (args.smoke ? "true" : "false");
  out += std::string(", \"traced\": ") + (Traced() ? "true" : "false");
  out += ", \"reps\": [";
  for (size_t i = 0; i < reps.size(); ++i) {
    Fields f = {{"setup_s", reps[i].setup_s},
                {"run_s", reps[i].run_s},
                {"items", static_cast<double>(reps[i].items)}};
    f.insert(f.end(), reps[i].timings.begin(), reps[i].timings.end());
    out += (i == 0 ? "" : ", ") + ToJson(f);
  }
  out += "], \"outcome\": " + outcome;
  out += ", \"checks\": " + checks;
  out += ", \"peak_rss_mb\": " + JsonNumber(peak_rss_mb);
  if (Traced()) {
    out += ", \"trace\": " + TraceReportJson(static_cast<int>(reps.size()));
  }
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dfim::e2e

int main(int argc, char** argv) { return dfim::e2e::Main(argc, argv); }
