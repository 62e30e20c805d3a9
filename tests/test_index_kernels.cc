// Property tests for the cache-conscious index kernels (DESIGN.md §11):
//  - the hybrid/unrolled intra-node search kernels return bit-identical
//    indices to the naive scalar reference;
//  - the arena/SoA BPlusTree is structurally equivalent to the retained
//    pointer-chasing BPlusTreeRef over seeded random Insert/BulkLoad
//    histories (invariants, size/height/node_count, full ScanAll);
//  - visitor Lookup/ScanRange and the pipelined LookupBatch/ScanRangeBatch
//    produce visit sequences bit-identical to the reference walks, for
//    int64 and string keys, duplicates included.

#include "index/btree_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "index/bplus_tree.h"
#include "index/bplus_tree_ref.h"

namespace dfim {
namespace {

// ---------------------------------------------------------------------------
// Kernel level: hybrid Lower/UpperBound vs the naive linear reference.
// ---------------------------------------------------------------------------

/// Naive scalar reference: first i in [0, n) whose (keys[i], rows[i]) is
/// not less than (key, row).
template <typename Key>
size_t NaiveLowerBound(const Key* keys, const RowId* rows, size_t n,
                       const Key& key, RowId row) {
  size_t i = 0;
  while (i < n && btree_kernels::CompositeLess(keys[i], rows[i], key, row)) {
    ++i;
  }
  return i;
}

/// Naive scalar reference: first i in [0, n) with (key, row) <
/// (keys[i], rows[i]).
template <typename Key>
size_t NaiveUpperBound(const Key* keys, const RowId* rows, size_t n,
                       const Key& key, RowId row) {
  size_t i = 0;
  while (i < n && !btree_kernels::CompositeLess(key, row, keys[i], rows[i])) {
    ++i;
  }
  return i;
}

class KernelBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelBoundTest, MatchesNaiveOnRandomNodes) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{31}, size_t{32},
                   size_t{33}, size_t{100}, size_t{257}}) {
    // Sorted composite (key, row) columns with heavy key duplication.
    std::vector<int64_t> keys;
    std::vector<RowId> rows;
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(rng.UniformInt(-8, 8));
      rows.push_back(static_cast<RowId>(rng.UniformInt(0, 6)));
    }
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return btree_kernels::CompositeLess(keys[a], rows[a], keys[b], rows[b]);
    });
    std::vector<int64_t> sk(n);
    std::vector<RowId> sr(n);
    for (size_t i = 0; i < n; ++i) {
      sk[i] = keys[order[i]];
      sr[i] = rows[order[i]];
    }
    // Dedupe exact composite duplicates (the tree never stores them).
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      if (m > 0 && sk[m - 1] == sk[i] && sr[m - 1] == sr[i]) continue;
      sk[m] = sk[i];
      sr[m] = sr[i];
      ++m;
    }
    sk.resize(m);
    sr.resize(m);
    for (int probe = 0; probe < 40; ++probe) {
      int64_t k = rng.UniformInt(-10, 10);
      RowId r = static_cast<RowId>(rng.UniformInt(0, 8));
      EXPECT_EQ(
          btree_kernels::LowerBound(sk.data(), sr.data(), m, k, r),
          NaiveLowerBound(sk.data(), sr.data(), m, k, r))
          << "n=" << m << " k=" << k << " r=" << r;
      EXPECT_EQ(
          btree_kernels::UpperBound(sk.data(), sr.data(), m, k, r),
          NaiveUpperBound(sk.data(), sr.data(), m, k, r))
          << "n=" << m << " k=" << k << " r=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomNodes, KernelBoundTest,
                         ::testing::Range(1, 41));

TEST(KernelBoundTest, StringKeysMatchNaive) {
  Rng rng(99);
  std::vector<std::string> keys;
  std::vector<RowId> rows;
  for (int i = 0; i < 200; ++i) {
    std::string s(1 + static_cast<size_t>(rng.UniformInt(0, 5)), 'a');
    for (auto& c : s) c = static_cast<char>('a' + rng.UniformInt(0, 3));
    keys.push_back(s);
    rows.push_back(static_cast<RowId>(rng.UniformInt(0, 4)));
  }
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return btree_kernels::CompositeLess(keys[a], rows[a], keys[b], rows[b]);
  });
  std::vector<std::string> sk;
  std::vector<RowId> sr;
  for (size_t i : order) {
    if (!sk.empty() && sk.back() == keys[i] && sr.back() == rows[i]) continue;
    sk.push_back(keys[i]);
    sr.push_back(rows[i]);
  }
  for (int probe = 0; probe < 200; ++probe) {
    std::string k(1 + static_cast<size_t>(rng.UniformInt(0, 5)), 'a');
    for (auto& c : k) c = static_cast<char>('a' + rng.UniformInt(0, 3));
    RowId r = static_cast<RowId>(rng.UniformInt(0, 5));
    EXPECT_EQ(
        btree_kernels::LowerBound(sk.data(), sr.data(), sk.size(), k, r),
        NaiveLowerBound(sk.data(), sr.data(), sk.size(), k, r));
    EXPECT_EQ(
        btree_kernels::UpperBound(sk.data(), sr.data(), sk.size(), k, r),
        NaiveUpperBound(sk.data(), sr.data(), sk.size(), k, r));
  }
}

// ---------------------------------------------------------------------------
// Tree level: arena/SoA tree vs the retained pointer-chasing reference.
// ---------------------------------------------------------------------------

/// One (key, row) visit; sequences are compared with EXPECT_EQ.
template <typename Key>
using Visits = std::vector<std::pair<Key, RowId>>;

/// Runs one seeded random Insert/BulkLoad history against both trees and
/// asserts structural equivalence plus bit-identical visit sequences across
/// every probe path. `make_key(rng)` draws a key.
template <typename Key, typename MakeKey>
void RunEquivalenceCase(uint64_t seed, MakeKey make_key) {
  Rng rng(seed);
  typename BPlusTree<Key>::Options opts;
  typename BPlusTreeRef<Key>::Options ref_opts;
  // Mix page geometries: tiny pages force deep trees.
  const size_t pages[] = {64, 256, 4096};
  opts.page_bytes = pages[rng.UniformInt(0, 2)];
  opts.key_bytes = 8;
  // Force the pipelined group descent: these trees are tiny, and the
  // adaptive threshold would otherwise route every batch through the
  // sequential path, leaving the state machine untested.
  opts.batch_pipeline_min_bytes = 0;
  ref_opts.page_bytes = opts.page_bytes;
  ref_opts.key_bytes = opts.key_bytes;
  BPlusTree<Key> tree(opts);
  BPlusTreeRef<Key> ref(ref_opts);

  // Mixed history: optional bulk load of a sorted duplicate-free prefix,
  // then random inserts with duplicate keys and occasional exact-duplicate
  // (key, row) pairs (which both trees must ignore).
  if (rng.UniformInt(0, 1) == 1) {
    int m = static_cast<int>(rng.UniformInt(0, 200));
    std::vector<typename BPlusTree<Key>::Entry> entries;
    std::vector<typename BPlusTreeRef<Key>::Entry> ref_entries;
    for (int i = 0; i < m; ++i) {
      Key k = make_key(rng);
      RowId r = static_cast<RowId>(rng.UniformInt(0, 1000));
      entries.push_back({k, r});
    }
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end(),
                              [](const auto& a, const auto& b) {
                                return !(a < b) && !(b < a);
                              }),
                  entries.end());
    for (const auto& e : entries) ref_entries.push_back({e.key, e.row});
    tree.BulkLoad(entries);
    ref.BulkLoad(ref_entries);
  }
  int inserts = static_cast<int>(rng.UniformInt(0, 250));
  Key last_key = make_key(rng);
  for (int i = 0; i < inserts; ++i) {
    Key k = rng.UniformInt(0, 9) == 0 ? last_key : make_key(rng);
    RowId r = static_cast<RowId>(rng.UniformInt(0, 400));
    tree.Insert(k, r);
    ref.Insert(k, r);
    last_key = k;
  }

  // Structural equivalence.
  ASSERT_TRUE(tree.CheckInvariants()) << "seed " << seed;
  ASSERT_TRUE(ref.CheckInvariants()) << "seed " << seed;
  ASSERT_EQ(tree.size(), ref.size()) << "seed " << seed;
  ASSERT_EQ(tree.height(), ref.height()) << "seed " << seed;
  ASSERT_EQ(tree.node_count(), ref.node_count()) << "seed " << seed;

  // Full ScanAll comparison.
  Visits<Key> got, want;
  tree.ScanAll([&got](const Key& k, RowId r) { got.push_back({k, r}); });
  ref.ScanAll([&want](const Key& k, RowId r) { want.push_back({k, r}); });
  ASSERT_EQ(got, want) << "seed " << seed;

  // Point probes: vector API, visitor API, and batch — all bit-identical
  // to the reference.
  std::vector<Key> probes;
  for (int i = 0; i < 24; ++i) probes.push_back(make_key(rng));
  for (size_t i = 0; i + 4 <= got.size() && probes.size() < 32; i += 7) {
    probes.push_back(got[i].first);  // guaranteed hits, duplicates included
  }
  Visits<Key> seq;
  std::vector<size_t> seq_probe_ids;
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(tree.Lookup(probes[i]), ref.Lookup(probes[i]))
        << "seed " << seed;
    tree.Lookup(probes[i], [&](const Key& k, RowId r) {
      seq.push_back({k, r});
      seq_probe_ids.push_back(i);
    });
  }
  for (size_t group : {size_t{1}, size_t{3}, size_t{8}, size_t{13}}) {
    Visits<Key> batch;
    std::vector<size_t> batch_probe_ids;
    tree.LookupBatch(
        std::span<const Key>(probes),
        [&](size_t probe, const Key& k, RowId r) {
          batch.push_back({k, r});
          batch_probe_ids.push_back(probe);
        },
        group);
    EXPECT_EQ(batch, seq) << "seed " << seed << " group " << group;
    EXPECT_EQ(batch_probe_ids, seq_probe_ids)
        << "seed " << seed << " group " << group;
  }

  // Range probes: template ScanRange vs reference, then ScanRangeBatch vs
  // sequential ScanRange.
  std::vector<std::pair<Key, Key>> ranges;
  for (int i = 0; i < 12; ++i) {
    Key a = make_key(rng);
    Key b = make_key(rng);
    if (b < a) std::swap(a, b);
    ranges.push_back({a, b});
  }
  Visits<Key> range_seq;
  for (const auto& [lo, hi] : ranges) {
    Visits<Key> t_visits, r_visits;
    tree.ScanRange(lo, hi, [&t_visits](const Key& k, RowId r) {
      t_visits.push_back({k, r});
    });
    ref.ScanRange(lo, hi, [&r_visits](const Key& k, RowId r) {
      r_visits.push_back({k, r});
    });
    EXPECT_EQ(t_visits, r_visits) << "seed " << seed;
    range_seq.insert(range_seq.end(), t_visits.begin(), t_visits.end());
  }
  for (size_t group : {size_t{1}, size_t{5}}) {
    Visits<Key> batch;
    tree.ScanRangeBatch(
        std::span<const std::pair<Key, Key>>(ranges),
        [&batch](size_t, const Key& k, RowId r) { batch.push_back({k, r}); },
        group);
    EXPECT_EQ(batch, range_seq) << "seed " << seed << " group " << group;
  }
}

int64_t MakeInt64Key(Rng& rng) { return rng.UniformInt(-120, 120); }

std::string MakeStringKey(Rng& rng) {
  std::string s(1 + static_cast<size_t>(rng.UniformInt(0, 6)), 'a');
  for (auto& c : s) c = static_cast<char>('a' + rng.UniformInt(0, 5));
  return s;
}

class Int64TreeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(Int64TreeEquivalence, MatchesReference) {
  RunEquivalenceCase<int64_t>(static_cast<uint64_t>(GetParam()),
                              MakeInt64Key);
}

// 500 int64 histories + 500 string histories = 1000 seeded random trees.
INSTANTIATE_TEST_SUITE_P(Seeds, Int64TreeEquivalence,
                         ::testing::Range(1, 501));

class StringTreeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(StringTreeEquivalence, MatchesReference) {
  RunEquivalenceCase<std::string>(static_cast<uint64_t>(GetParam()) + 10000,
                                  MakeStringKey);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StringTreeEquivalence,
                         ::testing::Range(1, 501));

// ---------------------------------------------------------------------------
// Directed batch-probe cases the random sweep is unlikely to pin down.
// ---------------------------------------------------------------------------

TEST(LookupBatchTest, EmptyTreeAndEmptyProbes) {
  BPlusTree<int64_t>::Options o;
  o.batch_pipeline_min_bytes = 0;  // pipelined even on the empty tree
  BPlusTree<int64_t> t(o);
  std::vector<int64_t> none;
  int visits = 0;
  t.LookupBatch(std::span<const int64_t>(none),
                [&visits](size_t, const int64_t&, RowId) { ++visits; });
  EXPECT_EQ(visits, 0);
  std::vector<int64_t> some = {1, 2, 3};
  t.LookupBatch(std::span<const int64_t>(some),
                [&visits](size_t, const int64_t&, RowId) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(LookupBatchTest, DuplicateRunSpansLeaves) {
  BPlusTree<int64_t>::Options o;
  o.page_bytes = 64;  // capacity 4: a 30-duplicate run spans many leaves
  o.batch_pipeline_min_bytes = 0;
  BPlusTree<int64_t> t(o);
  for (RowId r = 0; r < 30; ++r) t.Insert(7, r);
  t.Insert(6, 99);
  t.Insert(8, 100);
  std::vector<int64_t> probes = {7, 7, 6};
  std::vector<RowId> rows;
  std::vector<size_t> ids;
  t.LookupBatch(std::span<const int64_t>(probes),
                [&](size_t probe, const int64_t&, RowId r) {
                  rows.push_back(r);
                  ids.push_back(probe);
                });
  ASSERT_EQ(rows.size(), 61u);  // 30 + 30 + 1
  for (RowId r = 0; r < 30; ++r) {
    EXPECT_EQ(rows[static_cast<size_t>(r)], r);
    EXPECT_EQ(ids[static_cast<size_t>(r)], 0u);
  }
  EXPECT_EQ(rows.back(), 99u);
  EXPECT_EQ(ids.back(), 2u);
}

TEST(LookupBatchTest, GroupLargerThanProbeCount) {
  BPlusTree<int64_t>::Options o;
  o.batch_pipeline_min_bytes = 0;
  BPlusTree<int64_t> t(o);
  for (int64_t k = 0; k < 100; ++k) t.Insert(k, static_cast<RowId>(k));
  std::vector<int64_t> probes = {5, 50};
  int visits = 0;
  t.LookupBatch(std::span<const int64_t>(probes),
                [&visits](size_t, const int64_t&, RowId) { ++visits; },
                /*group=*/64);
  EXPECT_EQ(visits, 2);
}

TEST(LookupBatchTest, AdaptiveThresholdMatchesForcedPipeline) {
  // Identical content; one tree below the pipeline threshold (sequential
  // batch descents), one forced onto the pipeline. Visit sequences must be
  // bit-identical either way — the threshold is a pure perf knob.
  BPlusTree<int64_t>::Options seq;  // default threshold >> this tree
  BPlusTree<int64_t>::Options piped;
  piped.batch_pipeline_min_bytes = 0;
  BPlusTree<int64_t> a(seq), b(piped);
  Rng rng(7);
  std::vector<int64_t> probes;
  for (int i = 0; i < 500; ++i) {
    int64_t k = rng.UniformInt(0, 80);
    a.Insert(k, static_cast<RowId>(i));
    b.Insert(k, static_cast<RowId>(i));
    if (i % 3 == 0) probes.push_back(k);
  }
  Visits<int64_t> va, vb;
  std::vector<size_t> ia, ib;
  a.LookupBatch(std::span<const int64_t>(probes),
                [&](size_t p, const int64_t& k, RowId r) {
                  va.push_back({k, r});
                  ia.push_back(p);
                });
  b.LookupBatch(std::span<const int64_t>(probes),
                [&](size_t p, const int64_t& k, RowId r) {
                  vb.push_back({k, r});
                  ib.push_back(p);
                });
  EXPECT_EQ(va, vb);
  EXPECT_EQ(ia, ib);
  EXPECT_FALSE(va.empty());
}

}  // namespace
}  // namespace dfim
