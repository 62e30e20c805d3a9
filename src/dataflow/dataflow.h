#ifndef DFIM_DATAFLOW_DATAFLOW_H_
#define DFIM_DATAFLOW_DATAFLOW_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "dataflow/dag.h"

namespace dfim {

/// Application families used in the paper's evaluation (§6.1, Fig. 5).
enum class AppType { kMontage, kLigo, kCybershake };

std::string_view AppTypeToString(AppType app);

/// \brief A dataflow d(expr, R, N, t) (paper §3, Application Model).
///
/// `dag` is the operator graph; `input_tables` is R (names of files/tables
/// read by entry operators); `candidate_indexes` is N, the indexes that can
/// accelerate this dataflow (the index-advisor output the service tunes
/// over); `issued_at` is t. `index_speedup` gives, per candidate index, the
/// speedup it offers *to this dataflow* (sampled from the Table 6
/// calibration set, §6.1: "its speed-up is randomly chosen from the values
/// of Table 6").
struct Dataflow {
  int id = 0;
  /// Owning tenant (multi-tenant sharded service; 0 = the default tenant,
  /// bit-identical to a pre-tenant dataflow).
  int tenant = 0;
  AppType app = AppType::kMontage;
  std::string expr;  // free-form definition label
  Dag dag;
  std::vector<std::string> input_tables;
  std::vector<std::string> candidate_indexes;
  std::map<std::string, double> index_speedup;
  Seconds issued_at = 0;

  /// Speedup of `index_id` for this dataflow (1.0 when not a candidate).
  double SpeedupOf(const std::string& index_id) const {
    auto it = index_speedup.find(index_id);
    return it == index_speedup.end() ? 1.0 : it->second;
  }
};

/// \brief Execution record kept in the history list Hd (paper §3/§4).
///
/// Stores the per-index gains used by Equations 4-5.
struct DataflowRecord {
  /// Time the dataflow finished executing.
  Seconds finished_at = 0;
  /// Per-index what-if gain in quanta, used as both gtd(idx, d) and
  /// gmd(idx, d): the service estimates one value for time and money.
  std::map<std::string, double> gain;
};

}  // namespace dfim

#endif  // DFIM_DATAFLOW_DATAFLOW_H_
