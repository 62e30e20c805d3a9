#ifndef DFIM_INDEX_BTREE_KERNELS_H_
#define DFIM_INDEX_BTREE_KERNELS_H_

// Intra-node search kernels for the arena B+Tree (bplus_tree.h).
//
// Every kernel is selection-only: it returns an index computed from
// comparisons of the stored keys/rows, never an arithmetic combination of
// them — so the unrolled path and a naive linear scan are bit-identical by
// construction (the same contract as the GapScan/FirstFit kernels in
// sched/timeline.h), which tests/test_index_kernels.cc asserts over seeded
// random nodes against its naive reference.
//
// Layout assumption: a node's keys live in one dense column (`keys[0..n)`)
// with the parallel payload column `rows[0..n)`, both sorted by the
// composite (key, row) order the tree uses to keep duplicate keys unique.

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace dfim {

/// Identifies a row in a TableHeap.
using RowId = uint64_t;

namespace btree_kernels {

/// Below this window length the hybrid searches switch from branch-light
/// binary halving to the unrolled linear count (one cache-line stream).
inline constexpr size_t kLinearCutover = 32;

/// Issues a read prefetch for the given address (no-op off GCC/Clang).
inline void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Composite (key, row) < (key, row), branch-free for arithmetic keys.
template <typename Key>
inline bool CompositeLess(const Key& ak, RowId ar, const Key& bk, RowId br) {
  if constexpr (std::is_arithmetic_v<Key>) {
    return (ak < bk) | ((ak == bk) & (ar < br));
  } else {
    if (ak < bk) return true;
    if (bk < ak) return false;
    return ar < br;
  }
}

/// \brief Hybrid lower bound over one node's key/row columns: branch-light
/// binary halving down to a kLinearCutover window, then a 4-wide unrolled
/// branch-free count of the monotone "less than target" predicate (the
/// window is one dense cache-line stream, so the count beats the
/// unpredictable tail of a full binary search) — identical returns to a
/// naive linear scan, see header comment. Ordered-only keys (std::string) take the plain halving loop to len 0.
template <typename Key>
inline size_t LowerBound(const Key* keys, const RowId* rows, size_t n,
                         const Key& key, RowId row) {
  size_t lo = 0;
  size_t len = n;
  if constexpr (std::is_arithmetic_v<Key>) {
    while (len > kLinearCutover) {
      size_t half = len >> 1;
      size_t mid = lo + half;
      bool less = CompositeLess(keys[mid], rows[mid], key, row);
      lo = less ? mid + 1 : lo;
      len = less ? len - half - 1 : half;
    }
    const size_t end = lo + len;
    size_t i = lo;
    size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    for (; i + 4 <= end; i += 4) {
      c0 += CompositeLess(keys[i], rows[i], key, row) ? 1u : 0u;
      c1 += CompositeLess(keys[i + 1], rows[i + 1], key, row) ? 1u : 0u;
      c2 += CompositeLess(keys[i + 2], rows[i + 2], key, row) ? 1u : 0u;
      c3 += CompositeLess(keys[i + 3], rows[i + 3], key, row) ? 1u : 0u;
    }
    size_t cnt = c0 + c1 + c2 + c3;
    for (; i < end; ++i) {
      cnt += CompositeLess(keys[i], rows[i], key, row) ? 1u : 0u;
    }
    return lo + cnt;
  } else {
    while (len > 0) {
      size_t half = len >> 1;
      size_t mid = lo + half;
      bool less = CompositeLess(keys[mid], rows[mid], key, row);
      lo = less ? mid + 1 : lo;
      len = less ? len - half - 1 : half;
    }
    return lo;
  }
}

/// Hybrid upper bound (first index whose (key, row) exceeds the target),
/// same structure and bit-identity contract as LowerBound. This is the
/// child-index search during descent: separators are composite entries.
template <typename Key>
inline size_t UpperBound(const Key* keys, const RowId* rows, size_t n,
                         const Key& key, RowId row) {
  size_t lo = 0;
  size_t len = n;
  if constexpr (std::is_arithmetic_v<Key>) {
    while (len > kLinearCutover) {
      size_t half = len >> 1;
      size_t mid = lo + half;
      bool le = !CompositeLess(key, row, keys[mid], rows[mid]);
      lo = le ? mid + 1 : lo;
      len = le ? len - half - 1 : half;
    }
    const size_t end = lo + len;
    size_t i = lo;
    size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    for (; i + 4 <= end; i += 4) {
      c0 += CompositeLess(key, row, keys[i], rows[i]) ? 0u : 1u;
      c1 += CompositeLess(key, row, keys[i + 1], rows[i + 1]) ? 0u : 1u;
      c2 += CompositeLess(key, row, keys[i + 2], rows[i + 2]) ? 0u : 1u;
      c3 += CompositeLess(key, row, keys[i + 3], rows[i + 3]) ? 0u : 1u;
    }
    size_t cnt = c0 + c1 + c2 + c3;
    for (; i < end; ++i) {
      cnt += CompositeLess(key, row, keys[i], rows[i]) ? 0u : 1u;
    }
    return lo + cnt;
  } else {
    while (len > 0) {
      size_t half = len >> 1;
      size_t mid = lo + half;
      bool le = !CompositeLess(key, row, keys[mid], rows[mid]);
      lo = le ? mid + 1 : lo;
      len = le ? len - half - 1 : half;
    }
    return lo;
  }
}

}  // namespace btree_kernels
}  // namespace dfim

#endif  // DFIM_INDEX_BTREE_KERNELS_H_
