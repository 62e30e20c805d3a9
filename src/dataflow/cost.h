#ifndef DFIM_DATAFLOW_COST_H_
#define DFIM_DATAFLOW_COST_H_

#include <string>

#include "data/catalog.h"
#include "dataflow/dataflow.h"

namespace dfim {

/// \brief Effective resource needs of an operator given available indexes
/// (`WhatIfTable::Current` in `core/what_if.h` picks the index).
struct EffectiveCost {
  /// CPU runtime in seconds after index speedup.
  Seconds cpu_time = 0;
  /// MB read from the storage service (file and/or index partitions).
  MegaBytes input_mb = 0;
  /// The index applied (empty when none).
  std::string index_used;
  /// Built-and-current fraction of that index at evaluation time.
  double index_fraction = 0;
};

/// \brief Baseline cost with no indexes at all.
EffectiveCost BaseOpCost(const Operator& op, const Catalog& catalog);

}  // namespace dfim

#endif  // DFIM_DATAFLOW_COST_H_
