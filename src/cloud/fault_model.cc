#include "cloud/fault_model.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/units.h"

namespace dfim {
namespace {

/// splitmix64 finalizer: the standard 64-bit avalanche mix.
uint64_t Avalanche(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-independent counter-based stream key.
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b, uint64_t stream) {
  return Avalanche(Avalanche(Avalanche(seed ^ stream) ^ a) ^ b);
}

constexpr uint64_t kCrashStream = 0x63726173ULL;     // "cras"
constexpr uint64_t kStragglerStream = 0x73747261ULL; // "stra"
constexpr uint64_t kStorageStream = 0x73746f72ULL;   // "stor"
constexpr uint64_t kTornStream = 0x746f726eULL;      // "torn"
constexpr uint64_t kRotStream = 0x726f7434ULL;       // "rot4"
constexpr uint64_t kAcquireStream = 0x61637166ULL;   // "acqf"
constexpr uint64_t kBootStream = 0x626f6f74ULL;      // "boot"
constexpr uint64_t kPreemptStream = 0x7072656dULL;   // "prem"
constexpr uint64_t kCtlStream = 0x63746c63ULL;       // "ctlc"

/// Uniform double in [0, 1) from one hashed value.
double ToUnit(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

Status ValidateFaultOptions(const FaultOptions& opts) {
  auto bad_rate = [](double r) { return !(r >= 0.0 && r <= 1.0); };
  if (bad_rate(opts.crash_rate)) {
    return Status::InvalidArgument("crash_rate must be in [0, 1]");
  }
  if (bad_rate(opts.straggler_rate)) {
    return Status::InvalidArgument("straggler_rate must be in [0, 1]");
  }
  if (bad_rate(opts.storage_fault_rate)) {
    return Status::InvalidArgument("storage_fault_rate must be in [0, 1]");
  }
  if (!(opts.straggler_slowdown_min >= 1.0)) {
    return Status::InvalidArgument("straggler_slowdown_min must be >= 1");
  }
  if (!(opts.straggler_slowdown_max >= opts.straggler_slowdown_min)) {
    return Status::InvalidArgument(
        "straggler_slowdown_max must be >= straggler_slowdown_min");
  }
  if (opts.storage_fault_rate > 0 && !(opts.storage_fault_latency > 0)) {
    return Status::InvalidArgument(
        "storage_fault_latency must be positive when storage_fault_rate > 0");
  }
  if (bad_rate(opts.torn_write_rate)) {
    return Status::InvalidArgument("torn_write_rate must be in [0, 1]");
  }
  if (bad_rate(opts.bitrot_rate)) {
    return Status::InvalidArgument("bitrot_rate must be in [0, 1]");
  }
  if (bad_rate(opts.acquire_fail_rate)) {
    return Status::InvalidArgument("acquire_fail_rate must be in [0, 1]");
  }
  if (bad_rate(opts.preempt_rate)) {
    return Status::InvalidArgument("preempt_rate must be in [0, 1]");
  }
  if (!(opts.boot_delay_max >= 0)) {
    return Status::InvalidArgument("boot_delay_max must be >= 0");
  }
  if (!(opts.preempt_notice >= 0)) {
    return Status::InvalidArgument("preempt_notice must be >= 0");
  }
  if (bad_rate(opts.ctl_crash_rate)) {
    return Status::InvalidArgument("ctl_crash_rate must be in [0, 1]");
  }
  if (opts.crash_at_boundary < -1) {
    return Status::InvalidArgument("crash_at_boundary must be >= -1");
  }
  if (opts.crash_at_boundary_2 < -1) {
    return Status::InvalidArgument("crash_at_boundary_2 must be >= -1");
  }
  return Status::OK();
}

FaultTrace FaultModel::DrawTrace(uint64_t run_key, int num_containers,
                                 Seconds horizon, Seconds quantum) const {
  FaultTrace trace;
  if (num_containers <= 0) return trace;
  trace.containers.resize(static_cast<size_t>(num_containers));
  if (!enabled()) return trace;
  // Cover overruns past the planned horizon (stragglers, estimation error):
  // hazard draws extend a margin of quanta beyond it.
  int64_t max_q = QuantaCeil(std::max(horizon, quantum), quantum) + 8;
  for (int c = 0; c < num_containers; ++c) {
    auto& f = trace.containers[static_cast<size_t>(c)];
    if (opts_.crash_rate > 0) {
      // Per-quantum hazard: the first losing draw kills the container at a
      // uniform instant inside that quantum (spot preemption is unannounced).
      Rng rng(Mix(opts_.seed, run_key, static_cast<uint64_t>(c), kCrashStream));
      for (int64_t q = 0; q < max_q; ++q) {
        if (rng.Uniform() < opts_.crash_rate) {
          f.crash_at = (static_cast<double>(q) + rng.Uniform()) * quantum;
          break;
        }
      }
    }
    if (opts_.straggler_rate > 0) {
      Rng rng(
          Mix(opts_.seed, run_key, static_cast<uint64_t>(c), kStragglerStream));
      if (rng.Uniform() < opts_.straggler_rate) {
        f.slowdown = rng.Uniform(opts_.straggler_slowdown_min,
                                 opts_.straggler_slowdown_max);
      }
    }
  }
  return trace;
}

bool FaultModel::StorageOpFaults(uint64_t run_key, uint64_t op_key) const {
  if (opts_.storage_fault_rate <= 0) return false;
  return ToUnit(Mix(opts_.seed, run_key, op_key, kStorageStream)) <
         opts_.storage_fault_rate;
}

bool FaultModel::TornWrite(uint64_t run_key, uint64_t persist_key,
                           bool crash_interrupted) const {
  if (opts_.torn_write_rate <= 0) return false;
  double rate = opts_.torn_write_rate *
                (crash_interrupted ? kTornCrashMultiplier : 1.0);
  return ToUnit(Mix(opts_.seed, run_key, persist_key, kTornStream)) <
         std::min(1.0, rate);
}

Seconds FaultModel::BitRotOnset(uint64_t object_key, int64_t generation,
                                Seconds now, Seconds quantum,
                                int64_t max_quanta) const {
  if (opts_.bitrot_rate <= 0 || quantum <= 0) return kNeverFails;
  // Per-quantum hazard walk, same shape as the crash draw: the first losing
  // draw rots the object at a uniform instant inside that quantum.
  Rng rng(Mix(opts_.seed, object_key, static_cast<uint64_t>(generation),
              kRotStream));
  for (int64_t q = 0; q < max_quanta; ++q) {
    if (rng.Uniform() < opts_.bitrot_rate) {
      return now + (static_cast<double>(q) + rng.Uniform()) * quantum;
    }
  }
  return kNeverFails;
}

bool FaultModel::AcquireDenied(uint64_t request_index) const {
  if (opts_.acquire_fail_rate <= 0) return false;
  return ToUnit(Mix(opts_.seed, request_index, 0, kAcquireStream)) <
         opts_.acquire_fail_rate;
}

Seconds FaultModel::BootDelay(uint64_t container_id) const {
  if (opts_.boot_delay_max <= 0) return 0;
  return ToUnit(Mix(opts_.seed, container_id, 0, kBootStream)) *
         opts_.boot_delay_max;
}

Seconds FaultModel::PreemptOnset(uint64_t container_id, Seconds quantum,
                                 int64_t max_quanta) const {
  if (opts_.preempt_rate <= 0 || quantum <= 0) return kNeverFails;
  // Per-quantum hazard walk from the lease start, same shape as the crash
  // draw: the first losing draw reclaims the VM at a uniform instant inside
  // that quantum.
  Rng rng(Mix(opts_.seed, container_id, 0, kPreemptStream));
  for (int64_t q = 0; q < max_quanta; ++q) {
    if (rng.Uniform() < opts_.preempt_rate) {
      return (static_cast<double>(q) + rng.Uniform()) * quantum;
    }
  }
  return kNeverFails;
}

bool FaultModel::CtlCrashAt(uint64_t boundary_index) const {
  const int64_t idx = static_cast<int64_t>(boundary_index);
  if (opts_.crash_at_boundary >= 0 && idx == opts_.crash_at_boundary) {
    return true;
  }
  if (opts_.crash_at_boundary_2 >= 0 && idx == opts_.crash_at_boundary_2) {
    return true;
  }
  if (opts_.ctl_crash_rate <= 0) return false;
  return ToUnit(Mix(opts_.seed, boundary_index, 0, kCtlStream)) <
         opts_.ctl_crash_rate;
}

}  // namespace dfim
