#ifndef DFIM_BENCH_BENCH_UTIL_H_
#define DFIM_BENCH_BENCH_UTIL_H_

// Shared setup for the experiment-reproduction binaries. Each binary
// regenerates one table or figure of the paper (see DESIGN.md's
// per-experiment index) and prints paper-shaped rows.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/service.h"
#include "dataflow/file_database.h"
#include "dataflow/generators.h"
#include "dataflow/workload.h"

namespace dfim {
namespace bench {

/// True when DFIM_FAST=1: experiments shrink (fewer repetitions, shorter
/// horizons) so the whole bench suite runs in seconds.
inline bool FastMode() {
  const char* v = std::getenv("DFIM_FAST");
  return v != nullptr && v[0] == '1';
}

/// True when DFIM_BENCH_CHECK=1: the bench exits non-zero when a gated
/// result (a paper shape or a speedup floor) does not hold.
inline bool CheckMode() {
  const char* v = std::getenv("DFIM_BENCH_CHECK");
  return v != nullptr && v[0] == '1';
}

/// The paper's evaluation environment (§6.1, Table 3): the 125-file
/// database with 4 candidate indexes per file, plus a generator.
struct PaperSetup {
  Catalog catalog;
  std::unique_ptr<FileDatabase> db;
  std::unique_ptr<DataflowGenerator> generator;

  explicit PaperSetup(uint64_t seed = 7,
                      GeneratorOptions gen_opts = GeneratorOptions{}) {
    db = std::make_unique<FileDatabase>(&catalog, FileDatabaseOptions{});
    Status st = db->Populate();
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      std::abort();
    }
    generator = std::make_unique<DataflowGenerator>(db.get(), seed, gen_opts);
  }
};

/// Table 3 defaults for schedulers/tuner/service.
inline SchedulerOptions PaperSchedulerOptions() {
  SchedulerOptions o;
  o.max_containers = 100;
  o.quantum = 60.0;
  o.net_mb_per_sec = 125.0;
  o.skyline_cap = 4;
  return o;
}

inline ServiceOptions PaperServiceOptions(IndexPolicy policy) {
  ServiceOptions so;
  so.policy = policy;
  so.tuner.sched = PaperSchedulerOptions();
  so.tuner.gain.alpha = 0.5;           // Table 3
  so.tuner.gain.fade_d_quanta = 1.0;   // Table 3
  so.total_time = 720.0 * 60.0;        // Table 3
  so.sim.time_error = 0.1;
  so.sim.data_error = 0.1;
  return so;
}

inline void Header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void Note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

}  // namespace bench
}  // namespace dfim

#endif  // DFIM_BENCH_BENCH_UTIL_H_
