#include "core/admission.h"

#include <algorithm>

namespace dfim {

std::string_view ShedPolicyToString(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kRejectNewest:
      return "reject-newest";
    case ShedPolicy::kRejectByCost:
      return "reject-by-cost";
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
  p.raw_estimate = cp.ok() ? *cp : 0;
  p.estimate = CorrectedEstimate(df.app, p.raw_estimate);
  if (admission_.slo_factor > 0) {
    // The SLO contract stays pinned to the raw critical path so the
    // deadline itself does not drift as the correction learns.
    p.deadline = p.arrival + admission_.slo_factor * p.raw_estimate;
  }
  p.df = std::move(df);

  int cap = admission_.max_queue;
  if (cap > 0 && static_cast<int>(queue->size()) >= cap) {
    if (admission_.shed == ShedPolicy::kRejectByCost) {
      // Drop the most expensive pending entry — the arrival included — so
      // cheap work keeps flowing under overload.
      auto worst = queue->end();
      Seconds worst_est = p.estimate;
      for (auto it = queue->begin(); it != queue->end(); ++it) {
        if (it->estimate > worst_est) {
          worst_est = it->estimate;
          worst = it;
        }
      }
      ++metrics->dataflows_shed;
      ++metrics->shed_queue_full;
      if (worst == queue->end()) return;  // the arrival itself is worst
      queue->erase(worst);
    } else {
      // kRejectNewest and kDeadlineInfeasible both tail-drop when full.
      ++metrics->dataflows_shed;
      ++metrics->shed_queue_full;
      return;
    }
  }
  queue->push_back(std::move(p));
  metrics->peak_queue_len =
      std::max(metrics->peak_queue_len, static_cast<int>(queue->size()));
  SampleQueuePressure(static_cast<int>(queue->size()));
}

void AdmissionController::SampleQueuePressure(int queue_len) {
  double alpha = brownout_.queue_ewma_alpha;
  if (alpha <= 0) return;
  queue_ewma_ =
      alpha * static_cast<double>(queue_len) + (1.0 - alpha) * queue_ewma_;
}

Seconds AdmissionController::CorrectedEstimate(AppType app, Seconds raw) const {
  if (admission_.estimate_ewma_alpha <= 0) return raw;
  auto it = ewma_ratio_.find(app);
  if (it == ewma_ratio_.end()) return raw;
  if (it->second.count < kEstimateEwmaWarmup) return raw;
  return raw * it->second.ratio;
}

void AdmissionController::ObserveMakespan(AppType app, Seconds raw_estimate,
                                          Seconds observed) {
  double alpha = admission_.estimate_ewma_alpha;
  if (alpha <= 0 || raw_estimate <= 0 || observed <= 0) return;
  double ratio = observed / raw_estimate;
  EwmaState& state = ewma_ratio_[app];  // starts at the 1.0 prior
  state.ratio = alpha * ratio + (1.0 - alpha) * state.ratio;
  ++state.count;
}

double AdmissionController::BuildFraction(double pressure_quanta) {
  const BrownoutOptions& b = brownout_;
  if (b.pressure_hi_quanta <= 0) return 1.0;
  if (brownout_off_) {
    if (pressure_quanta < b.pressure_lo_quanta * kBrownoutResumeFraction) {
      brownout_off_ = false;  // hysteretic re-enable
    } else {
      return 0;
    }
  }
  if (pressure_quanta >= b.pressure_hi_quanta) {
    brownout_off_ = true;
    return 0;
  }
  if (pressure_quanta <= b.pressure_lo_quanta) return 1.0;
  return 1.0 - (pressure_quanta - b.pressure_lo_quanta) /
                   (b.pressure_hi_quanta - b.pressure_lo_quanta);
}

bool AdmissionController::WarmRatio(AppType app, double* ratio) const {
  if (admission_.estimate_ewma_alpha <= 0) return false;
  auto it = ewma_ratio_.find(app);
  if (it == ewma_ratio_.end()) return false;
  if (it->second.count < kEstimateEwmaWarmup) return false;
  *ratio = it->second.ratio;
  return true;
}

}  // namespace dfim
