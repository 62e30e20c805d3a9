#ifndef DFIM_DATA_INDEX_META_H_
#define DFIM_DATA_INDEX_META_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace dfim {

/// Storage-service path of index `id`'s partition over table partition
/// `pid`: "<id>/p.<pid>".
std::string IndexPartitionPath(const std::string& id, int pid);

/// Inverse of IndexPartitionPath: splits `path` into the index id and the
/// partition. False for a path of any other shape.
bool ParseIndexPartitionPath(const std::string& path, std::string* id,
                             int* pid);

/// \brief Definition of a (potential) index idx(t, C): the table it covers
/// and the ordered key columns. Whether it is built — and on which
/// partitions — lives in IndexState.
struct IndexDef {
  /// Unique id, e.g. "idx:lineitem:orderkey".
  std::string id;
  std::string table;
  std::vector<std::string> columns;

  /// Storage-service path of the index partition over table partition `pid`.
  std::string PartitionPath(int pid) const {
    return IndexPartitionPath(id, pid);
  }
};

/// \brief Build state of one index partition (the `T` in idx(t, C, T)).
struct IndexPartitionState {
  bool built = false;
  /// Simulated time the partition finished building (valid when built).
  Seconds built_at = 0;
  /// Table-partition version the index was built against; a mismatch with
  /// the current partition version means the index partition is stale.
  int64_t built_version = 0;
  /// Size in MB as charged to the storage service (valid when built).
  MegaBytes size = 0;
  /// Storage generation the catalog expects for the persisted object
  /// (DESIGN.md §12); 0 until the persist lands. A stored object whose
  /// generation differs was overwritten behind the catalog's back — the
  /// read is stale even when its checksum verifies.
  int64_t generation = 0;
};

/// \brief Build state of an index across all partitions of its table.
///
/// Indexes are built incrementally: any subset of partitions may be built
/// at any time (paper §3: "not all index partitions need to be built in
/// order to use the index").
class IndexState {
 public:
  IndexState() = default;
  explicit IndexState(size_t num_partitions) : parts_(num_partitions) {}

  size_t num_partitions() const { return parts_.size(); }
  const IndexPartitionState& part(size_t i) const { return parts_[i]; }

  void MarkBuilt(size_t i, Seconds now, int64_t version, MegaBytes size);
  /// Records the storage generation of partition `i`'s persisted object
  /// (known only after the Put returns; 0 = unknown).
  void SetGeneration(size_t i, int64_t generation);
  void MarkNotBuilt(size_t i);

  /// True when partition `i` is built against `current_version`.
  bool IsCurrent(size_t i, int64_t current_version) const;

  /// Number of built partitions (regardless of staleness).
  size_t NumBuilt() const;

  /// Fraction of partitions built and current, given per-partition versions.
  double CurrentFraction(const std::vector<int64_t>& versions) const;

  /// Total MB across built partitions.
  MegaBytes TotalBuiltSize() const;

 private:
  std::vector<IndexPartitionState> parts_;
};

}  // namespace dfim

#endif  // DFIM_DATA_INDEX_META_H_
