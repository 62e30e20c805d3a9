#ifndef DFIM_CORE_WHAT_IF_H_
#define DFIM_CORE_WHAT_IF_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "data/catalog.h"
#include "dataflow/cost.h"
#include "dataflow/dataflow.h"

namespace dfim {

/// \brief What-if costs of one dataflow under one catalog state
/// (DESIGN.md §5 item 4).
///
/// Built once from `df` and the catalog as they stand; every query then
/// reads precomputed doubles instead of walking the catalog. For each op
/// of `df.dag` that reads a table the table holds the base cost and, for
/// every candidate index on that table in candidate order, the op's cost
/// at the index's current built-and-current fraction and fully built. For
/// each distinct candidate it holds the build value and the retention
/// value.
///
/// An op reads at most one index (Algorithm 2, lines 1-5): an entry
/// operator reading table F through index i (speedup s, fraction φ) runs in
/// `t·((1-φ) + φ/s)` and reads `|F|·((1-φ) + φ/s) + φ·|i|` MB — the indexed
/// part of the input is located via the index instead of scanned, at the
/// price of also reading the index partitions (paper §6.1). The candidate
/// with the strictly lowest CPU time wins and the earlier candidate keeps a
/// tie, so a repeated id never beats its first occurrence.
///
/// Not a cache: the catalog changes whenever a build lands, so each call
/// site builds a table, uses it and drops it. `df` must outlive the table.
class WhatIfTable {
 public:
  /// `net_mb_per_sec` prices input transfer; `quantum` converts the
  /// seconds an index saves into quanta.
  WhatIfTable(const Dataflow& df, const Catalog& catalog,
              double net_mb_per_sec, Seconds quantum);

  /// What-if time gain (quanta) of `index_id` for the dataflow (feeds
  /// Eq. 4-5 at δT = 0). A built index earns its retention value. An
  /// unbuilt one earns its build value unless an unbuilt candidate on the
  /// same table offers more (ties go to the smaller full size, then the
  /// smaller id): crediting runners-up would build redundant indexes. A
  /// non-candidate earns 0.
  double Gain(const std::string& index_id) const;

  /// Retention value (quanta) when `built`: how much slower the dataflow
  /// gets without the index. Build value otherwise: how much faster it gets
  /// with the index fully built, over the currently built indexes. 0 for a
  /// non-candidate.
  double Marginal(const std::string& index_id, bool built) const;

  /// Cost of `df.dag` op `op_id` under the currently built indexes.
  EffectiveCost Current(int op_id) const;

 private:
  /// One op's cost through one index, or its base cost (`candidate` -1).
  struct Choice {
    Seconds cpu_time = 0;
    MegaBytes input_mb = 0;
    double fraction = 0;
    int candidate = -1;
  };
  /// One op's cost through one same-table candidate.
  struct Entry {
    Choice current;  // at the index's built-and-current fraction
    Choice full;     // fully built
  };
  /// One op that reads a table; its entries follow its table's candidates.
  struct OpRow {
    Choice base;
    int table = 0;
    size_t first = 0;  // offset of the op's entries in `entries_`
    int best = -1;     // the entry the op reads now (-1: base)
    int second = -1;   // the entry it reads without `best`
  };
  struct Candidate {
    std::string_view id;
    int table = -1;  // -1: no IndexDef
    int slot = 0;    // position among the table's candidates
    bool built = false;
    MegaBytes full_mb = 0;
    double build = 0;      // quanta
    double retention = 0;  // quanta
  };
  struct TableCosts {
    MegaBytes file_mb = 0;
    bool exists = false;
    std::vector<int> candidates;  // distinct candidates, candidate order
    std::vector<int> rows;        // non-optional ops' rows, op order
  };

  int Find(const std::string& index_id) const;
  const Choice& At(const OpRow& row, int entry) const;
  /// The entry the op reads among all but `skip` (-1: base).
  int Cheapest(const OpRow& row, int skip) const;
  /// What the op reads with entry `k` fully built.
  const Choice& WithFull(const OpRow& row, int k) const;

  const Dataflow* df_;
  std::vector<Candidate> candidates_;
  std::map<std::string_view, int> by_id_;
  std::vector<TableCosts> tables_;
  std::vector<OpRow> rows_;
  std::vector<int> row_of_op_;  // -1: the op reads no table
  std::vector<Entry> entries_;
};

}  // namespace dfim

#endif  // DFIM_CORE_WHAT_IF_H_
