#include "core/admission.h"

#include <algorithm>

namespace dfim {

std::string_view ShedPolicyToString(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kRejectNewest:
      return "reject-newest";
    case ShedPolicy::kDeadlineInfeasible:
      return "deadline-infeasible";
  }
  return "?";
}

Status ValidateBatchOptions(const BatchOptions& opts) {
  if (opts.max_batch < 1) {
    return Status::InvalidArgument("batch max_batch must be >= 1");
  }
  if (!(opts.window_quanta >= 0)) {
    return Status::InvalidArgument("batch window_quanta must be >= 0");
  }
  return Status::OK();
}

void AdmissionController::Admit(Dataflow df,
                                std::deque<PendingDataflow>* queue,
                                ServiceMetrics* metrics) {
  ++metrics->dataflows_arrived;
  PendingDataflow p;
  p.arrival = df.issued_at;
  auto cp = df.dag.CriticalPath();
  p.estimate = cp.ok() ? *cp : 0;
  if (admission_.slo_factor > 0) {
    p.deadline = p.arrival + admission_.slo_factor * p.estimate;
  }
  p.df = std::move(df);

  int cap = admission_.max_queue;
  if (cap > 0 && static_cast<int>(queue->size()) >= cap) {
    // Both shed policies tail-drop when full.
    ++metrics->dataflows_shed;
    ++metrics->shed_queue_full;
    return;
  }
  queue->push_back(std::move(p));
  metrics->peak_queue_len =
      std::max(metrics->peak_queue_len, static_cast<int>(queue->size()));
}

double AdmissionController::BuildFraction(double pressure_quanta,
                                          bool* brownout_off) const {
  const BrownoutOptions& b = brownout_;
  if (b.pressure_hi_quanta <= 0) return 1.0;
  if (*brownout_off) {
    if (pressure_quanta < b.pressure_lo_quanta * kBrownoutResumeFraction) {
      *brownout_off = false;  // hysteretic re-enable
    } else {
      return 0;
    }
  }
  if (pressure_quanta >= b.pressure_hi_quanta) {
    *brownout_off = true;
    return 0;
  }
  if (pressure_quanta <= b.pressure_lo_quanta) return 1.0;
  return 1.0 - (pressure_quanta - b.pressure_lo_quanta) /
                   (b.pressure_hi_quanta - b.pressure_lo_quanta);
}

}  // namespace dfim
