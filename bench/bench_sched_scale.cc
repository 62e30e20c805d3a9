// Skyline-scheduler scaling bench: sweeps DAG width/depth x container count
// x skyline cap, timing the copy-everything test oracle
// (tests/skyline_oracle.h) against SkylineScheduler's incremental
// probe/commit engine on identical inputs, and writes
// BENCH_sched.json (min/median runtime per config, generate_stats style) so
// successive PRs have a recorded perf trajectory.
//
// Also microbenches the slot-search primitives: the flat SoA Timeline scans
// (FindSlot / MaxGapWithInsert) against the retained AoS
// std::vector<Assignment> walk they replaced, on timelines tiled from the
// schedules this config actually produces. Checksums are compared
// bit-identically so neither side can be dead-code-eliminated or wrong.
//
// Usage: bench_sched_scale [output.json]
// Env:   DFIM_FAST=1        fewer repetitions (CI smoke)
//        DFIM_BENCH_CHECK=1 exit nonzero if any engine or slot-search
//                           median speedup falls below 1.0x

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sched/skyline_scheduler.h"
#include "skyline_oracle.h"

namespace dfim {
namespace {

Dag RandomLayeredDag(int width, int depth, int optional_ops, uint64_t seed) {
  Rng rng(seed);
  Dag g;
  std::vector<int> prev_layer;
  for (int d = 0; d < depth; ++d) {
    std::vector<int> layer;
    for (int w = 0; w < width; ++w) {
      Operator op;
      op.time = rng.Uniform(5.0, 90.0);
      op.output_mb = rng.Uniform(1.0, 800.0);
      int id = g.AddOperator(std::move(op));
      layer.push_back(id);
      if (!prev_layer.empty()) {
        int parents = static_cast<int>(rng.UniformInt(1, 3));
        for (int p = 0; p < parents; ++p) {
          int from = prev_layer[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(prev_layer.size()) - 1))];
          (void)g.AddFlow(from, id, rng.Uniform(1.0, 800.0));
        }
      }
    }
    prev_layer = std::move(layer);
  }
  for (int i = 0; i < optional_ops; ++i) {
    Operator build = Operator::BuildIndex(
        static_cast<int>(g.num_ops()), "idx_" + std::to_string(i), i,
        rng.Uniform(5.0, 45.0), 64);
    build.gain = rng.Uniform(0.1, 5.0);
    g.AddOperator(std::move(build));
  }
  return g;
}

std::vector<Seconds> Durations(const Dag& g) {
  std::vector<Seconds> d(g.num_ops());
  for (const auto& op : g.ops()) d[static_cast<size_t>(op.id)] = op.time;
  return d;
}

struct Stats {
  double min_ms = 0;
  double median_ms = 0;
  std::vector<double> runtimes_ms;
};

/// generate_stats idiom: min + median over the repetition runtimes.
Stats MakeStats(std::vector<double> runtimes) {
  Stats s;
  s.runtimes_ms = runtimes;
  std::sort(runtimes.begin(), runtimes.end());
  s.min_ms = runtimes.front();
  s.median_ms = runtimes[runtimes.size() / 2];
  return s;
}

/// Times the naive oracle when `naive`, SkylineScheduler otherwise.
Stats TimeEngine(const Dag& g, const std::vector<Seconds>& durations,
                 const SchedulerOptions& opts, bool naive, int reps,
                 std::vector<Schedule>* last_skyline) {
  SkylineScheduler sched(opts);
  std::vector<double> runtimes;
  runtimes.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    auto skyline =
        naive ? oracle::NaiveSkylineSchedule(g, durations, opts,
                                             /*place_optional=*/true)
              : sched.ScheduleDag(g, durations, /*place_optional=*/true);
    auto t1 = std::chrono::steady_clock::now();
    if (!skyline.ok()) {
      std::fprintf(stderr, "schedule failed: %s\n",
                   skyline.status().ToString().c_str());
      std::exit(1);
    }
    runtimes.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (r + 1 == reps) *last_skyline = std::move(*skyline);
  }
  return MakeStats(std::move(runtimes));
}

/// Retained AoS baseline: the pre-SoA timeline walk, byte-for-byte the
/// semantics Timeline::FindSlot now implements over flat columns.
Seconds AosFindSlot(const std::vector<Assignment>& tl, Seconds est,
                    Seconds duration) {
  Seconds cursor = 0;
  for (const auto& a : tl) {
    Seconds candidate = std::max(est, cursor);
    if (a.start - candidate >= duration - 1e-9) return candidate;
    cursor = std::max(cursor, a.end);
  }
  return std::max(est, cursor);
}

/// Retained AoS baseline for Timeline::MaxGapWithInsert.
Seconds AosMaxGapWithInsert(const std::vector<Assignment>& tl,
                            const Assignment& a, Seconds quantum) {
  Seconds best = 0;
  Seconds cursor = 0;
  bool placed = false;
  for (const auto& x : tl) {
    if (!placed && x.start >= a.start) {
      best = std::max(best, a.start - cursor);
      cursor = std::max(cursor, a.end);
      placed = true;
    }
    best = std::max(best, x.start - cursor);
    cursor = std::max(cursor, x.end);
  }
  if (!placed) {
    best = std::max(best, a.start - cursor);
    cursor = std::max(cursor, a.end);
  }
  Seconds lease_end =
      static_cast<double>(std::max<int64_t>(1, QuantaCeil(cursor, quantum))) *
      quantum;
  return std::max(best, lease_end - cursor);
}

struct SlotProbe {
  Seconds est;
  Seconds duration;
};

struct SlotBench {
  Stats aos;
  Stats flat;
  double speedup_median = 0;
};

/// Times the slot-search primitives on timelines tiled from `schedule`:
/// each container's assignments are repeated `tiles` times, shifted by the
/// schedule makespan, so the scans cover realistic multi-quantum timelines
/// rather than the handful of entries one dataflow produces.
SlotBench TimeSlotSearch(const Schedule& schedule, int num_containers,
                         int tiles, int probes, Seconds quantum, int reps,
                         uint64_t seed) {
  Seconds span = std::max<Seconds>(schedule.makespan(), 1.0);
  std::vector<Timeline> flat(static_cast<size_t>(num_containers));
  std::vector<std::vector<Assignment>> aos(
      static_cast<size_t>(num_containers));
  for (int t = 0; t < tiles; ++t) {
    for (const auto& a : schedule.SortedByContainer()) {
      if (a.container < 0 || a.container >= num_containers) continue;
      Assignment shifted = a;
      shifted.start += static_cast<double>(t) * span;
      shifted.end += static_cast<double>(t) * span;
      flat[static_cast<size_t>(a.container)].Insert(shifted);
      auto& tl = aos[static_cast<size_t>(a.container)];
      tl.insert(std::lower_bound(tl.begin(), tl.end(), shifted,
                                 [](const Assignment& x, const Assignment& y) {
                                   return x.start < y.start;
                                 }),
                shifted);
    }
  }

  Rng rng(seed);
  std::vector<SlotProbe> probe_set;
  probe_set.reserve(static_cast<size_t>(probes));
  for (int i = 0; i < probes; ++i) {
    probe_set.push_back({rng.Uniform(0.0, static_cast<double>(tiles) * span),
                         rng.Uniform(0.0, 120.0)});
  }

  // Checksums accumulate every returned slot and gap so the compiler cannot
  // discard either loop; they must match bit-for-bit across representations.
  auto run_aos = [&] {
    double sum = 0;
    for (const auto& p : probe_set) {
      for (const auto& tl : aos) {
        sum += AosFindSlot(tl, p.est, p.duration);
        Assignment a;
        a.op_id = 0;
        a.start = p.est;
        a.end = p.est + p.duration;
        sum += AosMaxGapWithInsert(tl, a, quantum);
      }
    }
    return sum;
  };
  auto run_flat = [&] {
    double sum = 0;
    for (const auto& p : probe_set) {
      for (const auto& tl : flat) {
        sum += tl.FindSlot(p.est, p.duration);
        Assignment a;
        a.op_id = 0;
        a.start = p.est;
        a.end = p.est + p.duration;
        sum += tl.MaxGapWithInsert(a, quantum);
      }
    }
    return sum;
  };

  double aos_sum = run_aos();  // warm + checksum
  double flat_sum = run_flat();
  if (aos_sum != flat_sum) {
    std::fprintf(stderr,
                 "FATAL: slot-search checksum mismatch (aos=%.17g flat=%.17g)\n",
                 aos_sum, flat_sum);
    std::exit(1);
  }

  SlotBench out;
  std::vector<double> aos_ms, flat_ms;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    double s = run_aos();
    auto t1 = std::chrono::steady_clock::now();
    double f = run_flat();
    auto t2 = std::chrono::steady_clock::now();
    if (s != aos_sum || f != flat_sum) {
      std::fprintf(stderr, "FATAL: slot-search checksum drifted\n");
      std::exit(1);
    }
    aos_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    flat_ms.push_back(
        std::chrono::duration<double, std::milli>(t2 - t1).count());
  }
  out.aos = MakeStats(std::move(aos_ms));
  out.flat = MakeStats(std::move(flat_ms));
  out.speedup_median =
      out.flat.median_ms > 0 ? out.aos.median_ms / out.flat.median_ms : 0;
  return out;
}

bool SameSkylines(const std::vector<Schedule>& a,
                  const std::vector<Schedule>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    auto sa = a[i].SortedByContainer();
    auto sb = b[i].SortedByContainer();
    if (sa.size() != sb.size()) return false;
    for (size_t k = 0; k < sa.size(); ++k) {
      if (sa[k].op_id != sb[k].op_id || sa[k].container != sb[k].container ||
          sa[k].start != sb[k].start || sa[k].end != sb[k].end) {
        return false;
      }
    }
  }
  return true;
}

void AppendStats(std::string* out, const char* name, const Stats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"min_runtime_ms\": %.4f, "
                "\"median_runtime_ms\": %.4f, \"runtimes_ms\": [",
                name, s.min_ms, s.median_ms);
  *out += buf;
  for (size_t i = 0; i < s.runtimes_ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", i ? ", " : "", s.runtimes_ms[i]);
    *out += buf;
  }
  *out += "]}";
}

}  // namespace
}  // namespace dfim

int main(int argc, char** argv) {
  using namespace dfim;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_sched.json";
  const char* fast = std::getenv("DFIM_FAST");
  const int reps = (fast != nullptr && fast[0] == '1') ? 3 : 7;

  struct Config {
    int width, depth, optional_ops, containers, cap;
  };
  // The last two are service-scale: a 134-op merged batch DAG over 12
  // containers with a skyline of 3 (the batched multi-tenant service), and
  // an 87-op Montage-sized DAG over 16 containers with a skyline of 8.
  const std::vector<Config> configs = {
      {4, 4, 4, 4, 8},    {8, 4, 6, 8, 8},    {8, 8, 8, 8, 16},
      {16, 4, 8, 16, 16}, {16, 4, 8, 16, 32}, {32, 4, 6, 12, 3},
      {20, 4, 7, 16, 8},
  };

  std::string json = "{\n  \"bench\": \"sched_scale\",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"quantum\": 60,\n  \"configs\": [\n";

  std::printf("%-22s %-12s %10s %10s %10s %8s %s\n", "config", "engine",
              "min(ms)", "median(ms)", "speedup", "same?", "");
  bool first = true;
  double min_engine_speedup = 1e30;
  double min_slot_speedup = 1e30;
  for (const auto& cfg : configs) {
    Dag g = RandomLayeredDag(cfg.width, cfg.depth, cfg.optional_ops, 42);
    auto durations = Durations(g);

    SchedulerOptions opts;
    opts.max_containers = cfg.containers;
    opts.skyline_cap = cfg.cap;

    std::vector<Schedule> naive_sky, inc_sky;
    Stats naive =
        TimeEngine(g, durations, opts, /*naive=*/true, reps, &naive_sky);
    Stats inc = TimeEngine(g, durations, opts, /*naive=*/false, reps, &inc_sky);

    bool identical = SameSkylines(naive_sky, inc_sky);
    double speedup = inc.median_ms > 0 ? naive.median_ms / inc.median_ms : 0;
    min_engine_speedup = std::min(min_engine_speedup, speedup);

    SlotBench slot = TimeSlotSearch(inc_sky.front(), cfg.containers,
                                    /*tiles=*/16, /*probes=*/4096,
                                    /*quantum=*/60.0, reps, /*seed=*/42);
    min_slot_speedup = std::min(min_slot_speedup, slot.speedup_median);

    char label[64];
    std::snprintf(label, sizeof(label), "%dx%d+%d c%d cap%d", cfg.width,
                  cfg.depth, cfg.optional_ops, cfg.containers, cfg.cap);
    std::printf("%-22s %-12s %10.3f %10.3f %10s %8s\n", label, "naive",
                naive.min_ms, naive.median_ms, "", "");
    std::printf("%-22s %-12s %10.3f %10.3f %9.2fx %8s\n", "", "incremental",
                inc.min_ms, inc.median_ms, speedup, identical ? "yes" : "NO");
    std::printf("%-22s %-12s %10.3f %10.3f\n", "", "slot:aos", slot.aos.min_ms,
                slot.aos.median_ms);
    std::printf("%-22s %-12s %10.3f %10.3f %9.2fx\n", "", "slot:flat",
                slot.flat.min_ms, slot.flat.median_ms, slot.speedup_median);

    if (!first) json += ",\n";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"width\": %d, \"depth\": %d, \"optional_ops\": %d, "
                  "\"ops\": %d, \"containers\": %d, \"skyline_cap\": %d,\n",
                  cfg.width, cfg.depth, cfg.optional_ops,
                  cfg.width * cfg.depth + cfg.optional_ops, cfg.containers,
                  cfg.cap);
    json += buf;
    AppendStats(&json, "naive", naive);
    json += ",\n";
    AppendStats(&json, "incremental", inc);
    json += ",\n";
    AppendStats(&json, "slot_search_aos", slot.aos);
    json += ",\n";
    AppendStats(&json, "slot_search_flat", slot.flat);
    json += ",\n";
    std::snprintf(buf, sizeof(buf),
                  "      \"slot_search_speedup_median\": %.3f,\n",
                  slot.speedup_median);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "      \"speedup_median\": %.3f, \"identical_schedules\": %s\n"
                  "    }",
                  speedup, identical ? "true" : "false");
    json += buf;
    if (!identical) {
      std::fprintf(stderr, "FATAL: engines disagree on %s\n", label);
      return 1;
    }
  }
  json += "\n  ]\n}\n";

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);

  const char* check = std::getenv("DFIM_BENCH_CHECK");
  if (check != nullptr && check[0] == '1') {
    if (min_engine_speedup < 1.0 || min_slot_speedup < 1.0) {
      std::fprintf(stderr,
                   "BENCH CHECK FAILED: min engine speedup %.3fx, min "
                   "slot-search speedup %.3fx (both must be >= 1.0x)\n",
                   min_engine_speedup, min_slot_speedup);
      return 1;
    }
    std::printf("bench check ok: min engine speedup %.3fx, min slot-search "
                "speedup %.3fx\n",
                min_engine_speedup, min_slot_speedup);
  }
  return 0;
}
