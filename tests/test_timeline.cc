// Randomized property tests for the SoA Timeline: the flat-array scans
// (FindSlot / MaxGap / MaxGapWithInsert / IdleSlots / summaries) must be
// bit-identical to a retained scalar reference implementation that walks an
// AoS std::vector<Assignment> exactly the way the pre-Timeline scheduler
// did. EXPECT_EQ on doubles throughout — bit-identity, not tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "sched/partial_state.h"
#include "sched/timeline.h"

namespace dfim {
namespace {

// ---- Scalar reference: the historical AoS walks, kept verbatim. ----------

Seconds RefFindSlot(const std::vector<Assignment>& tl, Seconds est,
                    Seconds duration) {
  Seconds cursor = 0;
  for (const auto& a : tl) {
    Seconds candidate = std::max(est, cursor);
    if (a.start - candidate >= duration - 1e-9) return candidate;
    cursor = std::max(cursor, a.end);
  }
  return std::max(est, cursor);
}

void RefInsertSorted(std::vector<Assignment>* tl, const Assignment& a) {
  auto it = std::lower_bound(tl->begin(), tl->end(), a,
                             [](const Assignment& x, const Assignment& y) {
                               return x.start < y.start;
                             });
  tl->insert(it, a);
}

int64_t RefQuanta(const std::vector<Assignment>& tl, Seconds quantum) {
  if (tl.empty()) return 0;
  Seconds end = 0;
  for (const auto& a : tl) end = std::max(end, a.end);
  return std::max<int64_t>(1, QuantaCeil(end, quantum));
}

Seconds RefMaxGap(const std::vector<Assignment>& tl, Seconds quantum) {
  if (tl.empty()) return 0;
  Seconds best = 0;
  Seconds cursor = 0;
  for (const auto& a : tl) {
    best = std::max(best, a.start - cursor);
    cursor = std::max(cursor, a.end);
  }
  Seconds lease_end =
      static_cast<double>(std::max<int64_t>(1, QuantaCeil(cursor, quantum))) *
      quantum;
  return std::max(best, lease_end - cursor);
}

Seconds RefMaxGapWithInsert(const std::vector<Assignment>& tl,
                            const Assignment& a, Seconds quantum) {
  Seconds best = 0;
  Seconds cursor = 0;
  bool placed = false;
  for (const auto& x : tl) {
    if (!placed && x.start >= a.start) {
      best = std::max(best, a.start - cursor);
      cursor = std::max(cursor, a.end);
      placed = true;
    }
    best = std::max(best, x.start - cursor);
    cursor = std::max(cursor, x.end);
  }
  if (!placed) {
    best = std::max(best, a.start - cursor);
    cursor = std::max(cursor, a.end);
  }
  Seconds lease_end =
      static_cast<double>(std::max<int64_t>(1, QuantaCeil(cursor, quantum))) *
      quantum;
  return std::max(best, lease_end - cursor);
}

std::vector<IdleSlot> RefIdleSlots(const std::vector<Assignment>& tl, int c,
                                   Seconds quantum) {
  std::vector<IdleSlot> slots;
  if (tl.empty()) return slots;
  Seconds last_end = 0;
  for (const auto& a : tl) last_end = std::max(last_end, a.end);
  auto leased =
      static_cast<double>(std::max<int64_t>(1, QuantaCeil(last_end, quantum)));
  Seconds lease_end = leased * quantum;
  Seconds cursor = 0;
  auto emit = [&slots, quantum, c](Seconds lo, Seconds hi) {
    while (hi - lo > 1e-9) {
      auto q = static_cast<int64_t>(std::floor(lo / quantum + 1e-9));
      Seconds q_end = static_cast<double>(q + 1) * quantum;
      Seconds piece_end = std::min(hi, q_end);
      if (piece_end - lo > 1e-9) slots.push_back(IdleSlot{c, q, lo, piece_end});
      lo = piece_end;
    }
  };
  for (const auto& a : tl) {
    if (a.start - cursor > 1e-9) emit(cursor, a.start);
    cursor = std::max(cursor, a.end);
  }
  if (lease_end - cursor > 1e-9) emit(cursor, lease_end);
  return slots;
}

// Builds one random timeline (Timeline + AoS mirror) via sorted insertion.
// Mixes non-overlapping runs with occasional overlaps, duplicate starts,
// zero durations, and fractional times so the scans see every shape.
struct TimelinePair {
  Timeline tl;
  std::vector<Assignment> ref;
};

TimelinePair RandomTimeline(Rng* rng) {
  TimelinePair p;
  int n = static_cast<int>(rng->UniformInt(0, 24));
  Seconds cursor = 0;
  for (int i = 0; i < n; ++i) {
    Assignment a;
    a.op_id = i;
    a.optional = rng->Uniform() < 0.3;
    double kind = rng->Uniform();
    if (kind < 0.70) {
      // Gap-then-run, the scheduler's normal shape.
      a.start = cursor + rng->Uniform(0.0, 40.0);
      a.end = a.start + rng->Uniform(0.0, 30.0);
      cursor = a.end;
    } else if (kind < 0.85) {
      // Duplicate start of the previous element (zero-length gap edge).
      a.start = p.ref.empty() ? 0.0 : p.ref.back().start;
      a.end = a.start + rng->Uniform(0.0, 10.0);
      cursor = std::max(cursor, a.end);
    } else {
      // Arbitrary (possibly overlapping) interval anywhere in the span.
      a.start = rng->Uniform(0.0, std::max(1.0, cursor));
      a.end = a.start + rng->Uniform(0.0, 25.0);
      cursor = std::max(cursor, a.end);
    }
    p.tl.Insert(a);
    RefInsertSorted(&p.ref, a);
  }
  return p;
}

TEST(TimelineProperty, FlatScansBitIdenticalToScalarReference) {
  Rng rng(20260806);
  const Seconds quanta_choices[] = {60.0, 37.5, 1.0, 600.0};
  int checked = 0;
  for (int iter = 0; iter < 1200; ++iter) {
    TimelinePair p = RandomTimeline(&rng);
    Seconds quantum = quanta_choices[iter % 4];

    // Mirror layout first: same order, same values.
    ASSERT_EQ(p.tl.size(), p.ref.size());
    for (size_t i = 0; i < p.ref.size(); ++i) {
      EXPECT_EQ(p.tl.start(i), p.ref[i].start);
      EXPECT_EQ(p.tl.end(i), p.ref[i].end);
      EXPECT_EQ(p.tl.op_id(i), p.ref[i].op_id);
      EXPECT_EQ(p.tl.optional(i), p.ref[i].optional);
    }

    // Incrementally maintained summaries == reference full walks.
    EXPECT_EQ(p.tl.Quanta(quantum), RefQuanta(p.ref, quantum));
    EXPECT_EQ(p.tl.MaxGap(quantum), RefMaxGap(p.ref, quantum));

    // FindSlot over a spread of (est, duration) probes.
    for (int k = 0; k < 8; ++k) {
      Seconds est = rng.Uniform(0.0, 120.0);
      Seconds dur = rng.Uniform(0.0, 45.0);
      EXPECT_EQ(p.tl.FindSlot(est, dur), RefFindSlot(p.ref, est, dur))
          << "iter=" << iter << " est=" << est << " dur=" << dur;
    }

    // MaxGapWithInsert: virtual insert == real insert on the reference.
    for (int k = 0; k < 4; ++k) {
      Assignment a;
      a.op_id = 1000 + k;
      a.start = rng.Uniform(0.0, 150.0);
      a.end = a.start + rng.Uniform(0.0, 30.0);
      Seconds got = p.tl.MaxGapWithInsert(a, quantum);
      EXPECT_EQ(got, RefMaxGapWithInsert(p.ref, a, quantum));
      std::vector<Assignment> inserted = p.ref;
      RefInsertSorted(&inserted, a);
      EXPECT_EQ(got, RefMaxGap(inserted, quantum));
    }

    // Idle slots: same count, same bits, same order.
    std::vector<IdleSlot> got;
    p.tl.AppendIdleSlots(7, quantum, &got);
    std::vector<IdleSlot> want = RefIdleSlots(p.ref, 7, quantum);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].container, want[i].container);
      EXPECT_EQ(got[i].quantum_index, want[i].quantum_index);
      EXPECT_EQ(got[i].start, want[i].start);
      EXPECT_EQ(got[i].end, want[i].end);
    }
    ++checked;
  }
  EXPECT_GE(checked, 1000);
}

TEST(TimelineTest, EmptyTimelineSummaries) {
  Timeline tl;
  EXPECT_TRUE(tl.empty());
  EXPECT_EQ(tl.last_end(), 0.0);
  EXPECT_EQ(tl.Quanta(60.0), 0);
  EXPECT_EQ(tl.MaxGap(60.0), 0.0);
  EXPECT_EQ(tl.FindSlot(12.5, 10.0), 12.5);
  EXPECT_EQ(tl.BusySeconds(), 0.0);
  EXPECT_TRUE(tl.NoOverlap());
  std::vector<IdleSlot> slots;
  tl.AppendIdleSlots(0, 60.0, &slots);
  EXPECT_TRUE(slots.empty());
}

TEST(TimelineTest, InsertBeforeEqualStartsMatchesLowerBound) {
  Timeline tl;
  Assignment a{1, 0, 10.0, 12.0, false};
  Assignment b{2, 0, 10.0, 11.0, false};
  tl.Insert(a);
  tl.Insert(b);  // equal start: lands before the earlier arrival
  EXPECT_EQ(tl.op_id(0), 2);
  EXPECT_EQ(tl.op_id(1), 1);
  EXPECT_EQ(tl.last_end(), 12.0);
}

TEST(TimelineTest, BusySecondsAndNoOverlap) {
  Timeline tl;
  tl.Insert(Assignment{0, 0, 0.0, 5.0, false});
  tl.Insert(Assignment{1, 0, 8.0, 9.5, true});
  EXPECT_EQ(tl.BusySeconds(), 6.5);
  EXPECT_TRUE(tl.NoOverlap());
  tl.Insert(Assignment{2, 0, 9.0, 10.0, false});  // overlaps op 1
  EXPECT_FALSE(tl.NoOverlap());
}

TEST(TimelineTest, AtMaterializesAssignmentWithContainer) {
  Timeline tl;
  tl.Insert(Assignment{4, 0, 3.0, 7.0, true});
  Assignment a = tl.At(0, 9);
  EXPECT_EQ(a.op_id, 4);
  EXPECT_EQ(a.container, 9);
  EXPECT_EQ(a.start, 3.0);
  EXPECT_EQ(a.end, 7.0);
  EXPECT_TRUE(a.optional);
}

// ---- SampleEvenlySpaced regression (cap == 1 used to divide by zero). ----

struct Tagged {
  Seconds makespan = 0;
  int64_t money = 0;
  int num_ops = 0;
  Seconds max_gap = 0;
  int tag = 0;
};

TEST(SampleEvenlySpacedTest, CapOfOneKeepsFastestEndpoint) {
  // Before the guard, cap == 1 computed step = (n-1)/0 -> inf, then
  // llround(0 * inf) = llround(NaN): UB. Now it keeps the first element.
  std::vector<Tagged> v;
  for (int i = 0; i < 5; ++i) v.push_back(Tagged{double(i), i, i, 0, i});
  SampleEvenlySpaced(&v, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].tag, 0);
}

TEST(SampleEvenlySpacedTest, CapOfOneViaSkylinePrune) {
  // End-to-end through the prune: skyline_cap = 1 must keep the fastest
  // non-dominated survivor, not crash or NaN.
  std::vector<Tagged> pool;
  pool.push_back(Tagged{30.0, 1, 3, 0, 0});
  pool.push_back(Tagged{10.0, 3, 3, 0, 1});
  pool.push_back(Tagged{20.0, 2, 3, 0, 2});
  SkylinePrune(&pool, 1);
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool[0].tag, 1);
}

TEST(SampleEvenlySpacedTest, LargerCapsKeepEndpoints) {
  std::vector<Tagged> v;
  for (int i = 0; i < 9; ++i) v.push_back(Tagged{double(i), i, i, 0, i});
  SampleEvenlySpaced(&v, 3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.front().tag, 0);
  EXPECT_EQ(v.back().tag, 8);
}

/// The prune as it was before it sorted positions: a stable sort of the
/// elements themselves, then an in-order compaction.
void PruneByMovingElements(std::vector<Tagged>* pool, int cap) {
  std::stable_sort(pool->begin(), pool->end(),
                   [](const Tagged& a, const Tagged& b) {
                     if (std::fabs(a.makespan - b.makespan) > 1e-9) {
                       return a.makespan < b.makespan;
                     }
                     if (a.money != b.money) return a.money < b.money;
                     if (a.num_ops != b.num_ops) return a.num_ops > b.num_ops;
                     return a.max_gap > b.max_gap;
                   });
  std::vector<Tagged>& v = *pool;
  size_t w = 0;
  int64_t best_money = std::numeric_limits<int64_t>::max();
  for (size_t r = 0; r < v.size(); ++r) {
    if (w > 0 && TimeEq(v[w - 1].makespan, v[r].makespan) &&
        v[w - 1].money == v[r].money) {
      continue;
    }
    if (v[r].money >= best_money) continue;
    best_money = v[r].money;
    if (r != w) v[w] = v[r];
    ++w;
  }
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(w), v.end());
  SampleEvenlySpaced(pool, cap);
}

TEST(SkylinePruneTest, SortingPositionsKeepsTheElementOrder) {
  // Makespans cluster within the comparator's 1e-9 tie band, so the tie
  // order depends on the input order; both prunes must agree anyway.
  Rng rng(26);
  std::vector<uint32_t> order;  // reused across calls, as the scheduler does
  for (int trial = 0; trial < 500; ++trial) {
    int n = 1 + static_cast<int>(rng.UniformInt(0, 60));
    std::vector<Tagged> pool;
    for (int i = 0; i < n; ++i) {
      Tagged t;
      t.makespan = static_cast<double>(rng.UniformInt(0, 8)) +
                   static_cast<double>(rng.UniformInt(-2, 2)) * 4e-10;
      t.money = rng.UniformInt(0, 12);
      t.num_ops = static_cast<int>(rng.UniformInt(0, 2));
      t.max_gap = static_cast<double>(rng.UniformInt(0, 3));
      t.tag = i;
      pool.push_back(t);
    }
    int cap = static_cast<int>(rng.UniformInt(0, 9));
    std::vector<Tagged> want = pool;
    PruneByMovingElements(&want, cap);
    SkylinePrune(&pool, cap, &order);
    ASSERT_EQ(pool.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < pool.size(); ++i) {
      EXPECT_EQ(pool[i].tag, want[i].tag) << "trial " << trial << " i " << i;
    }
  }
}

}  // namespace
}  // namespace dfim
