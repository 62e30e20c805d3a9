#include "core/what_if.h"

namespace dfim {
namespace {

/// Scales cost for an index with speedup `s` covering fraction `phi`.
double Scale(double phi, double s) { return (1.0 - phi) + phi / s; }

/// Adds to `*sum` the seconds (transfer included) an op saves by reading
/// `b` instead of `a`, when it saves any.
void AddSaving(Seconds cpu_a, MegaBytes mb_a, Seconds cpu_b, MegaBytes mb_b,
               double net, double* sum) {
  double delta = (cpu_a + mb_a / net) - (cpu_b + mb_b / net);
  if (delta > 0) *sum += delta;
}

}  // namespace

WhatIfTable::WhatIfTable(const Dataflow& df, const Catalog& catalog,
                         double net_mb_per_sec, Seconds quantum)
    : df_(&df) {
  std::map<std::string_view, int> by_table;
  auto table_of = [&](std::string_view name) {
    auto [it, added] = by_table.emplace(name, static_cast<int>(tables_.size()));
    if (added) {
      TableCosts t;
      auto table = catalog.GetTable(std::string(name));
      if (table.ok()) {
        t.exists = true;
        t.file_mb = (*table)->TotalSize();
      }
      tables_.push_back(std::move(t));
    }
    return it->second;
  };

  // Each distinct candidate's standing, read from the catalog once.
  struct Terms {
    bool current = false;  // BuiltFraction known
    double phi = 0;
    MegaBytes built_mb = 0;
    double speedup = 1;
  };
  std::vector<Terms> terms;
  for (const std::string& id : df.candidate_indexes) {
    const int index = static_cast<int>(candidates_.size());
    if (!by_id_.emplace(id, index).second) continue;
    Candidate c;
    c.id = id;
    Terms t;
    auto def = catalog.GetIndexDef(id);
    if (def.ok()) {
      c.table = table_of((*def)->table);
      TableCosts& table = tables_[static_cast<size_t>(c.table)];
      c.slot = static_cast<int>(table.candidates.size());
      table.candidates.push_back(index);
      auto state = catalog.GetIndexState(id);
      c.built = state.ok() && (*state)->NumBuilt() > 0;
      auto full = catalog.FullSize(id);
      c.full_mb = full.ok() ? *full : 0;
      auto frac = catalog.BuiltFraction(id);
      if (frac.ok()) {
        t.current = true;
        t.phi = *frac;
        auto built = catalog.BuiltSize(id);
        t.built_mb = built.ok() ? *built : 0;
      }
      t.speedup = df.SpeedupOf(id);
    }
    candidates_.push_back(c);
    terms.push_back(t);
  }

  row_of_op_.assign(df.dag.num_ops(), -1);
  for (const Operator& op : df.dag.ops()) {
    if (op.input_table.empty()) continue;
    OpRow row;
    row.table = table_of(op.input_table);
    TableCosts& table = tables_[static_cast<size_t>(row.table)];
    row.base.cpu_time = op.time;
    row.base.input_mb = table.file_mb;
    row.first = entries_.size();
    auto through = [&](double phi, MegaBytes idx_mb, double s, int c) {
      double scale = Scale(phi, s);
      return Choice{op.time * scale, table.file_mb * scale + idx_mb, phi, c};
    };
    for (int c : table.candidates) {
      const Terms& t = terms[static_cast<size_t>(c)];
      Entry e{row.base, row.base};
      if (table.exists && t.speedup > 1.0) {
        if (t.current && t.phi > 0) {
          e.current = through(t.phi, t.built_mb, t.speedup, c);
        }
        e.full = through(1.0, candidates_[static_cast<size_t>(c)].full_mb * 1.0,
                         t.speedup, c);
      }
      entries_.push_back(e);
    }
    row.best = Cheapest(row, -1);
    row.second = row.best < 0 ? -1 : Cheapest(row, row.best);
    const int r = static_cast<int>(rows_.size());
    row_of_op_[static_cast<size_t>(op.id)] = r;
    if (!op.optional) table.rows.push_back(r);
    rows_.push_back(row);
  }

  // Build and retention values add each op's saving in op order.
  for (Candidate& c : candidates_) {
    if (c.table < 0) continue;
    double build = 0;
    double retention = 0;
    for (int r : tables_[static_cast<size_t>(c.table)].rows) {
      const OpRow& row = rows_[static_cast<size_t>(r)];
      const Choice& now = At(row, row.best);
      const Choice& without =
          At(row, row.best == c.slot ? row.second : row.best);
      const Choice& with = WithFull(row, c.slot);
      AddSaving(without.cpu_time, without.input_mb, now.cpu_time,
                now.input_mb, net_mb_per_sec, &retention);
      AddSaving(now.cpu_time, now.input_mb, with.cpu_time, with.input_mb,
                net_mb_per_sec, &build);
    }
    c.build = build / quantum;
    c.retention = retention / quantum;
  }
}

const WhatIfTable::Choice& WhatIfTable::At(const OpRow& row, int entry) const {
  if (entry < 0) return row.base;
  return entries_[row.first + static_cast<size_t>(entry)].current;
}

int WhatIfTable::Cheapest(const OpRow& row, int skip) const {
  int best = -1;
  const Choice* cheapest = &row.base;
  const std::vector<int>& on_table =
      tables_[static_cast<size_t>(row.table)].candidates;
  for (int k = 0; k < static_cast<int>(on_table.size()); ++k) {
    if (k == skip) continue;
    const Choice& c = At(row, k);
    if (c.cpu_time < cheapest->cpu_time) {
      best = k;
      cheapest = &c;
    }
  }
  return best;
}

const WhatIfTable::Choice& WhatIfTable::WithFull(const OpRow& row,
                                                 int k) const {
  // Entry k's fully built cost takes its place in the scan; the rest of the
  // scan's winner is `rival`, and the earlier of two equal costs wins.
  const int r = row.best != k ? row.best : row.second;
  const Choice& rival = At(row, r);
  const Choice& full = entries_[row.first + static_cast<size_t>(k)].full;
  if (full.cpu_time < rival.cpu_time ||
      (full.cpu_time == rival.cpu_time && k < r)) {
    return full;
  }
  return rival;
}

int WhatIfTable::Find(const std::string& index_id) const {
  auto it = by_id_.find(index_id);
  return it == by_id_.end() ? -1 : it->second;
}

double WhatIfTable::Marginal(const std::string& index_id, bool built) const {
  const int i = Find(index_id);
  if (i < 0) return 0;
  const Candidate& c = candidates_[static_cast<size_t>(i)];
  return built ? c.retention : c.build;
}

double WhatIfTable::Gain(const std::string& index_id) const {
  const int i = Find(index_id);
  if (i < 0) return 0;
  const Candidate& c = candidates_[static_cast<size_t>(i)];
  if (c.table < 0) return 0;
  if (c.built) return c.retention;
  // Unbuilt candidates compete: only the one with the best marginal
  // improvement for this dataflow's table earns the gain, because an
  // operator reads at most one index (crediting runners-up would build
  // redundant indexes — the index-interaction issue the paper defers,
  // §2: "delete indexes that become obsolete when index interactions...
  // are identified").
  if (c.build <= 0) return 0;
  for (int o : tables_[static_cast<size_t>(c.table)].candidates) {
    const Candidate& other = candidates_[static_cast<size_t>(o)];
    if (o == i || other.built) continue;
    if (other.build > c.build) return 0;
    if (other.build == c.build &&
        (other.full_mb < c.full_mb ||
         (other.full_mb == c.full_mb && other.id < c.id))) {
      return 0;
    }
  }
  return c.build;
}

EffectiveCost WhatIfTable::Current(int op_id) const {
  EffectiveCost out;
  const int r = row_of_op_[static_cast<size_t>(op_id)];
  if (r < 0) {
    out.cpu_time = df_->dag.op(op_id).time;
    return out;
  }
  const OpRow& row = rows_[static_cast<size_t>(r)];
  const Choice& c = At(row, row.best);
  out.cpu_time = c.cpu_time;
  out.input_mb = c.input_mb;
  if (c.candidate >= 0) {
    out.index_used =
        std::string(candidates_[static_cast<size_t>(c.candidate)].id);
    out.index_fraction = c.fraction;
  }
  return out;
}

}  // namespace dfim
