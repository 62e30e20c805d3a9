#include "dataflow/operator.h"

#include "data/index_meta.h"

namespace dfim {

Operator Operator::BuildIndex(int id, std::string index_id, int partition,
                              Seconds build_time, MegaBytes memory_mb) {
  Operator op;
  op.id = id;
  op.name = "build:" + IndexPartitionPath(index_id, partition);
  op.kind = OpKind::kBuildIndex;
  op.priority = kBuildIndexPriority;
  op.optional = true;
  op.time = build_time;
  op.memory = memory_mb;
  op.index_id = std::move(index_id);
  op.index_partition = partition;
  return op;
}

}  // namespace dfim
