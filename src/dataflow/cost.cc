#include "dataflow/cost.h"

namespace dfim {

EffectiveCost BaseOpCost(const Operator& op, const Catalog& catalog) {
  EffectiveCost c;
  c.cpu_time = op.time;
  if (!op.input_table.empty()) {
    auto table = catalog.GetTable(op.input_table);
    if (table.ok()) c.input_mb = (*table)->TotalSize();
  }
  return c;
}

}  // namespace dfim
