// Span recorder of dfim_e2e_traced, plus one link-time wrapper per service
// entry point. The binary is linked with -Wl,--wrap=<symbol> for every
// symbol in trace_wrap.syms: callers in other object files then reach
// __wrap_<symbol>, which opens a span and forwards to __real_<symbol>.
// Calls inside the symbol's own object file are not redirected, so their
// time stays in the caller's self time (see README.md).
//
// Each __real_* is weak: if an entry point is renamed, the binary still
// links, the wrapper is never reached, and the layer reports calls == 0
// with a warning naming the symbol.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cluster.h"
#include "cloud/storage_service.h"
#include "core/admission.h"
#include "core/gain.h"
#include "core/interleave.h"
#include "core/journal.h"
#include "core/knapsack.h"
#include "core/service.h"
#include "core/tuner.h"
#include "sched/exec_simulator.h"
#include "sched/skyline_scheduler.h"
#include "trace.h"

namespace dfim::e2e {
namespace {

struct Span {
  Layer layer;
  /// Index of the enclosing span in the same thread's buffer (-1 = root).
  int32_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<int32_t> open;
};

/// Buffers are owned here, not by their threads, so the spans of a pool
/// thread outlive it until the report.
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(size_t{1} << 16);
    buf = owned.get();
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::move(owned));
  }
  return *buf;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct EntryPoint {
  Layer layer;
  const char* symbol;
  const void* real;
};

}  // namespace

void SpanEnter(Layer layer) {
  ThreadBuffer& b = LocalBuffer();
  const int32_t parent = b.open.empty() ? -1 : b.open.back();
  b.open.push_back(static_cast<int32_t>(b.spans.size()));
  b.spans.push_back({layer, parent, 0, 0});
  b.spans.back().start_ns = NowNs();
}

void SpanExit() {
  const int64_t end = NowNs();
  ThreadBuffer& b = LocalBuffer();
  b.spans[static_cast<size_t>(b.open.back())].end_ns = end;
  b.open.pop_back();
}

}  // namespace dfim::e2e

using namespace dfim;
using dfim::e2e::Layer;
using dfim::e2e::ScopedSpan;

// X(layer, mangled symbol, return type, (parameters), (forwarded args)).
// The receiver of a member function is the first parameter: the Itanium
// ABI passes `this` like a leading pointer argument.
#define DFIM_E2E_ENTRY_POINTS(X)                                              \
  X(kServiceRun, _ZN4dfim11QaasService3RunEPNS_14WorkloadClientE,             \
    Result<ServiceMetrics>, (QaasService * self, WorkloadClient * client),    \
    (self, client))                                                           \
  X(kAdmit,                                                                   \
    _ZN4dfim19AdmissionController5AdmitENS_8DataflowEPSt5dequeINS_15PendingDataflowESaIS3_EEPNS_14ServiceMetricsE, \
    void,                                                                     \
    (AdmissionController * self, Dataflow df,                                 \
     std::deque<PendingDataflow> * queue, ServiceMetrics * metrics),          \
    (self, std::move(df), queue, metrics))                                    \
  X(kOnDataflow,                                                              \
    _ZNK4dfim16OnlineIndexTuner10OnDataflowERKNS_8DataflowERKSt5dequeINS_14DataflowRecordESaIS5_EEdPKSt3mapISt4pairINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEiEdSt4lessISI_ESaISB_IKSI_dEEEdi, \
    Result<TunerDecision>,                                                    \
    (const OnlineIndexTuner* self, const Dataflow& df,                        \
     const std::deque<DataflowRecord>& history, Seconds now,                  \
     const BuildProgress* progress, double build_fraction,                    \
     int max_containers),                                                     \
    (self, df, history, now, progress, build_fraction, max_containers))       \
  X(kEstimateDataflowGain,                                                    \
    _ZNK4dfim16OnlineIndexTuner20EstimateDataflowGainERKNS_8DataflowERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE, \
    double,                                                                   \
    (const OnlineIndexTuner* self, const Dataflow& df,                        \
     const std::string& index_id),                                            \
    (self, df, index_id))                                                     \
  X(kGainEvaluate,                                                            \
    _ZNK4dfim9GainModel8EvaluateERKSt6vectorINS_16GainContributionESaIS2_EEdddd, \
    IndexGains,                                                               \
    (const GainModel* self, const std::vector<GainContribution>& uses,        \
     double build_time_quanta, double build_cost_quanta, MegaBytes size_mb,   \
     double fade_d_override),                                                 \
    (self, uses, build_time_quanta, build_cost_quanta, size_mb,               \
     fade_d_override))                                                        \
  X(kInterleave,                                                              \
    _ZNK4dfim11Interleaver10InterleaveERKNS_3DagERKSt6vectorIdSaIdEEd,        \
    Result<std::vector<Schedule>>,                                            \
    (const Interleaver* self, const Dag& dag,                                 \
     const std::vector<Seconds>& durations, double build_fraction),           \
    (self, dag, durations, build_fraction))                                   \
  X(kPackIntoIdleSlots,                                                       \
    _ZNK4dfim11Interleaver17PackIntoIdleSlotsERKNS_8ScheduleERKNS_3DagERKSt6vectorIdSaIdEERKS7_IiSaIiEEd, \
    Schedule,                                                                 \
    (const Interleaver* self, const Schedule& schedule, const Dag& dag,       \
     const std::vector<Seconds>& durations,                                   \
     const std::vector<int>& build_op_ids, double capacity_fraction),         \
    (self, schedule, dag, durations, build_op_ids, capacity_fraction))        \
  X(kPackSlotsLp,                                                             \
    _ZN4dfim11PackSlotsLpERKSt6vectorINS_12KnapsackItemESaIS1_EERKS0_IdSaIdEE, \
    MultiSlotPacking,                                                         \
    (const std::vector<KnapsackItem>& items,                                  \
     const std::vector<double>& slot_sizes),                                  \
    (items, slot_sizes))                                                      \
  X(kScheduleDag,                                                             \
    _ZNK4dfim16SkylineScheduler11ScheduleDagERKNS_3DagERKSt6vectorIdSaIdEEb,  \
    Result<std::vector<Schedule>>,                                            \
    (const SkylineScheduler* self, const Dag& dag,                            \
     const std::vector<Seconds>& durations, bool place_optional),             \
    (self, dag, durations, place_optional))                                   \
  X(kExecRun,                                                                 \
    _ZN4dfim13ExecSimulator3RunERKNS_3DagERKNS_8ScheduleERKSt6vectorINS_9SimOpCostESaIS8_EEPS7_IPNS_9ContainerESaISE_EEPKNS_14FaultInjectionE, \
    Result<ExecResult>,                                                       \
    (ExecSimulator * self, const Dag& dag, const Schedule& plan,              \
     const std::vector<SimOpCost>& costs,                                     \
     std::vector<Container*>* containers, const FaultInjection* faults),      \
    (self, dag, plan, costs, containers, faults))                             \
  X(kStoragePut,                                                              \
    _ZN4dfim14StorageService3PutERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEddRKNS_8PutStampE, \
    int64_t,                                                                  \
    (StorageService * self, const std::string& path, MegaBytes size,          \
     Seconds now, const PutStamp& stamp),                                     \
    (self, path, size, now, stamp))                                           \
  X(kStorageVerifyRead,                                                       \
    _ZN4dfim14StorageService10VerifyReadERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEd, \
    VerifyResult,                                                             \
    (StorageService * self, const std::string& path, Seconds now),            \
    (self, path, now))                                                        \
  X(kClusterAcquire, _ZN4dfim7Cluster7AcquireEid,                             \
    Result<std::vector<Container*>>, (Cluster * self, int n, Seconds now),    \
    (self, n, now))                                                           \
  X(kCommitSnapshot, _ZN4dfim7Journal14CommitSnapshotENS_15ServiceSnapshotE,  \
    void, (Journal * self, ServiceSnapshot snap), (self, std::move(snap)))

#define DFIM_E2E_DEFINE_WRAPPER(layer, sym, Ret, params, args)  \
  extern "C" Ret __real_##sym params __attribute__((weak));     \
  extern "C" Ret __wrap_##sym params {                          \
    ScopedSpan span(Layer::layer);                              \
    return __real_##sym args;                                   \
  }
DFIM_E2E_ENTRY_POINTS(DFIM_E2E_DEFINE_WRAPPER)
#undef DFIM_E2E_DEFINE_WRAPPER

namespace dfim::e2e {
namespace {

#define DFIM_E2E_ENTRY(layer, sym, Ret, params, args) \
  {Layer::layer, #sym, reinterpret_cast<const void*>(&__real_##sym)},
const EntryPoint kEntryPoints[] = {DFIM_E2E_ENTRY_POINTS(DFIM_E2E_ENTRY)};
#undef DFIM_E2E_ENTRY

struct LayerAgg {
  int64_t busy_ns = 0;
  int64_t self_ns = 0;
  std::vector<int64_t> durations;
};

}  // namespace

std::string TraceReportJson(int reps) {
  const double per_rep = 1.0 / std::max(1, reps);
  std::vector<LayerAgg> agg(static_cast<size_t>(Layer::kCount));
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& buf : g_buffers) {
      const std::vector<Span>& spans = buf->spans;
      std::vector<int64_t> child_ns(spans.size(), 0);
      for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0) {
          child_ns[static_cast<size_t>(spans[i].parent)] +=
              spans[i].end_ns - spans[i].start_ns;
        }
      }
      for (size_t i = 0; i < spans.size(); ++i) {
        const int64_t dur = spans[i].end_ns - spans[i].start_ns;
        LayerAgg& a = agg[static_cast<size_t>(spans[i].layer)];
        a.busy_ns += dur;
        a.self_ns += dur - child_ns[i];
        a.durations.push_back(dur);
      }
    }
  }
  std::string out = "{\"layers\": {";
  for (size_t l = 0; l < agg.size(); ++l) {
    LayerAgg& a = agg[l];
    const double calls = static_cast<double>(a.durations.size());
    out += l == 0 ? "" : ", ";
    out += "\"" + std::string(kLayerNames[l]) + "\": {";
    out += "\"calls\": " + JsonNumber(calls * per_rep);
    out += ", \"busy_ms\": " + JsonNumber(static_cast<double>(a.busy_ns) * 1e-6 * per_rep);
    out += ", \"self_ms\": " + JsonNumber(static_cast<double>(a.self_ns) * 1e-6 * per_rep);
    out += ", \"p50_us\": " + JsonNumber(Percentile(&a.durations, 0.50) * 1e-3);
    out += ", \"p99_us\": " + JsonNumber(Percentile(&a.durations, 0.99) * 1e-3);
    out += "}";
  }
  out += "}, \"unwrapped\": [";
  bool first = true;
  for (const EntryPoint& e : kEntryPoints) {
    if (e.real != nullptr) continue;
    std::fprintf(stderr,
                 "WARNING: entry point %s (%s) is not in the link; it "
                 "reports calls == 0. Update trace_wrap.syms and "
                 "trace_wrap.cc.\n",
                 kLayerNames[static_cast<size_t>(e.layer)], e.symbol);
    out += first ? "" : ", ";
    out += "\"" + std::string(e.symbol) + "\"";
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace dfim::e2e
