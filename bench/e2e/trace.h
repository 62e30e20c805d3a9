#ifndef DFIM_BENCH_E2E_TRACE_H_
#define DFIM_BENCH_E2E_TRACE_H_

// Span hooks shared by the benchmark driver (e2e.cc) and the span recorder
// (trace_wrap.cc), plus the two report helpers both use. Only
// dfim_e2e_traced links trace_wrap.cc; the hooks are weak, so in dfim_e2e
// they stay null and a span costs one branch.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace dfim::e2e {

/// Every timed layer. The service entry points are wrapped at link time
/// (trace_wrap.syms); the index layer is header-only, so e2e.cc opens its
/// spans around each batch of calls.
enum class Layer : int {
  kServiceRun,
  kAdmit,
  kOnDataflow,
  kEstimateDataflowGain,
  kGainEvaluate,
  kInterleave,
  kPackIntoIdleSlots,
  kPackSlotsLp,
  kScheduleDag,
  kExecRun,
  kStoragePut,
  kStorageVerifyRead,
  kClusterAcquire,
  kCommitSnapshot,
  kBptreeLookupBatch,
  kBptreeScanRange,
  kBptreeInsert,
  kBptreeBulkLoad,
  kHashLookup,
  kHashInsert,
  kLineitemGenerate,
  kCount,
};

inline constexpr const char* kLayerNames[] = {
    "core.service.Run",
    "core.admission.Admit",
    "core.tuner.OnDataflow",
    "core.tuner.EstimateDataflowGain",
    "core.gain.Evaluate",
    "core.interleave.Interleave",
    "core.interleave.PackIntoIdleSlots",
    "core.knapsack.PackSlotsLp",
    "sched.skyline.ScheduleDag",
    "sched.exec.Run",
    "cloud.storage.Put",
    "cloud.storage.VerifyRead",
    "cloud.cluster.Acquire",
    "core.journal.CommitSnapshot",
    "index.bptree.LookupBatch",
    "index.bptree.ScanRange",
    "index.bptree.Insert",
    "index.bptree.BulkLoad",
    "index.hash.Lookup",
    "index.hash.Insert",
    "tpch.lineitem.Generate",
};
static_assert(sizeof(kLayerNames) / sizeof(kLayerNames[0]) ==
              static_cast<size_t>(Layer::kCount));

/// Opens a span of `layer` on the calling thread; its parent is the
/// thread's innermost open span.
[[gnu::weak]] void SpanEnter(Layer layer);
/// Closes the calling thread's innermost open span.
[[gnu::weak]] void SpanExit();
/// Aggregates every span recorded so far into a JSON object: per layer
/// `calls`, `busy_ms` and `self_ms` divided by `reps`, plus per-call
/// `p50_us`/`p99_us`; `unwrapped` names each entry point whose symbol did
/// not resolve at link time.
[[gnu::weak]] std::string TraceReportJson(int reps);

inline bool Traced() { return TraceReportJson != nullptr; }

class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) {
    if (SpanEnter != nullptr) SpanEnter(layer);
  }
  ~ScopedSpan() {
    if (SpanExit != nullptr) SpanExit();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

/// Shortest decimal that reads back as `v`.
inline std::string JsonNumber(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Nearest-rank percentile (0 when empty); reorders `v`.
template <typename T>
double Percentile(std::vector<T>* v, double p) {
  if (v->empty()) return 0;
  const double n = static_cast<double>(v->size());
  const size_t rank = static_cast<size_t>(std::max(1.0, std::ceil(p * n))) - 1;
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(rank),
                   v->end());
  return static_cast<double>((*v)[rank]);
}

}  // namespace dfim::e2e

#endif  // DFIM_BENCH_E2E_TRACE_H_
