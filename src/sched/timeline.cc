#include "sched/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace dfim {

void Timeline::clear() {
  starts_.clear();
  ends_.clear();
  op_ids_.clear();
  optional_.clear();
  last_end_ = 0;
  interior_gap_ = 0;
}

void Timeline::reserve(size_t n) {
  starts_.reserve(n);
  ends_.reserve(n);
  op_ids_.reserve(n);
  optional_.reserve(n);
}

Assignment Timeline::At(size_t i, int container) const {
  Assignment a;
  a.op_id = op_ids_[i];
  a.container = container;
  a.start = starts_[i];
  a.end = ends_[i];
  a.optional = optional_[i] != 0;
  return a;
}

void Timeline::Insert(const Assignment& a) {
  size_t pos = LowerBound(a.start);
  starts_.insert(starts_.begin() + static_cast<ptrdiff_t>(pos), a.start);
  ends_.insert(ends_.begin() + static_cast<ptrdiff_t>(pos), a.end);
  op_ids_.insert(op_ids_.begin() + static_cast<ptrdiff_t>(pos),
                 static_cast<int32_t>(a.op_id));
  optional_.insert(optional_.begin() + static_cast<ptrdiff_t>(pos),
                   a.optional ? uint8_t{1} : uint8_t{0});
  last_end_ = std::max(last_end_, a.end);
  interior_gap_ =
      timeline_internal::GapScan(starts_.data(), ends_.data(), starts_.size());
}

void Timeline::AppendIdleSlots(int container, Seconds quantum,
                               std::vector<IdleSlot>* out) const {
  if (empty()) return;
  auto leased =
      static_cast<double>(std::max<int64_t>(1, QuantaCeil(last_end_, quantum)));
  Seconds lease_end = leased * quantum;
  auto emit = [out, quantum, container](Seconds lo, Seconds hi) {
    // Split [lo, hi) at quantum boundaries.
    while (hi - lo > 1e-9) {
      auto q = static_cast<int64_t>(std::floor(lo / quantum + 1e-9));
      Seconds q_end = static_cast<double>(q + 1) * quantum;
      Seconds piece_end = std::min(hi, q_end);
      if (piece_end - lo > 1e-9) {
        out->push_back(IdleSlot{container, q, lo, piece_end});
      }
      lo = piece_end;
    }
  };
  Seconds cursor = 0;
  for (size_t i = 0; i < starts_.size(); ++i) {
    if (starts_[i] - cursor > 1e-9) emit(cursor, starts_[i]);
    cursor = std::max(cursor, ends_[i]);
  }
  if (lease_end - cursor > 1e-9) emit(cursor, lease_end);
}

Seconds Timeline::BusySeconds() const {
  Seconds total = 0;
  for (size_t i = 0; i < starts_.size(); ++i) total += ends_[i] - starts_[i];
  return total;
}

bool Timeline::NoOverlap() const {
  for (size_t i = 0; i < starts_.size(); ++i) {
    if (ends_[i] < starts_[i] - 1e-9) return false;
    if (i > 0 && starts_[i] < ends_[i - 1] - 1e-9) return false;
  }
  return true;
}

}  // namespace dfim
