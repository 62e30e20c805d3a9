#ifndef DFIM_INDEX_BPLUS_TREE_H_
#define DFIM_INDEX_BPLUS_TREE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "index/btree_kernels.h"

namespace dfim {

/// \brief Cache-conscious in-memory paged B+Tree mapping Key -> RowId, with
/// duplicates.
///
/// This is the real data structure behind the paper's Table 5/6 calibration:
/// leaves hold (key, rowid) entries in sorted order and are chained for
/// range scans; internal nodes hold separator entries. Node capacities are
/// derived from a page size and the average key width, so reported sizes
/// mirror a disk-resident tree.
///
/// Layout (DESIGN.md §11): nodes live in one contiguous arena and link by
/// 32-bit arena index, not pointer — BulkLoad pools each level's nodes
/// consecutively, so a level scan walks the arena forward. Each node splits
/// its payload into a flat key column and a parallel row column, so the
/// intra-node search (btree_kernels.h: branch-light hybrid lower/upper
/// bound) reads one dense cache-line stream.
/// Descents prefetch the next node's columns before searching the current
/// one, and LookupBatch/ScanRangeBatch run G concurrent descents in a
/// software-pipelined group (AMAC-style state machine advancing one
/// binary-search step per rotation, every touched line prefetched one
/// rotation ahead) that hides DRAM latency across probes; trees whose
/// columns fit in cache skip the pipeline (Options::batch_pipeline_min_bytes)
/// since there is no latency to hide. Scans take template visitors: the hot path pays
/// no std::function dispatch and no per-call vector allocation.
///
/// Results are bit-identical to the retained pointer-chasing reference
/// (bplus_tree_ref.h) — tests/test_index_kernels.cc asserts structural
/// equivalence and identical visit sequences over seeded random histories.
///
/// Duplicate keys are supported by ordering entries by the composite
/// (key, rowid), which is always unique.
///
/// \tparam Key a totally ordered, copyable key type (int64_t, std::string...).
template <typename Key>
class BPlusTree {
 public:
  struct Entry {
    Key key;
    RowId row;
    bool operator<(const Entry& o) const {
      if (key < o.key) return true;
      if (o.key < key) return false;
      return row < o.row;
    }
  };

  struct Options {
    /// Emulated disk page size in bytes.
    size_t page_bytes = 4096;
    /// Average encoded key width in bytes (used to derive fanout).
    size_t key_bytes = 8;
    /// Bytes per child pointer / row id.
    size_t pointer_bytes = 8;
    /// Leaf fill factor applied by BulkLoad.
    double bulk_fill = 0.9;
    /// Column footprint below which LookupBatch/ScanRangeBatch use plain
    /// sequential descents instead of the software-pipelined group descent:
    /// a cache-resident tree has no DRAM latency to hide, so pipelining
    /// only adds state-machine overhead there. Set to 0 to force the
    /// pipelined path (the property tests do, so it is always exercised).
    size_t batch_pipeline_min_bytes = size_t{8} << 20;
  };

  /// Probes per software-pipelined descent group (LookupBatch default).
  static constexpr size_t kDefaultProbeGroup = 8;

  explicit BPlusTree(Options options = Options{}) : opts_(options) {
    size_t per_entry = opts_.key_bytes + opts_.pointer_bytes;
    capacity_ = std::max<size_t>(4, opts_.page_bytes / per_entry);
    root_ = NewNode(/*leaf=*/true);
  }

  /// \brief Inserts one (key, row) pair. Duplicate keys are allowed;
  /// duplicate (key, row) pairs are ignored.
  void Insert(const Key& key, RowId row) {
    SplitResult split = InsertRec(root_, key, row);
    if (split.happened) {
      NodeId new_root = NewNode(/*leaf=*/false);
      Node& r = arena_[new_root];
      r.keys.push_back(std::move(split.sep_key));
      r.rows.push_back(split.sep_row);
      r.children.push_back(root_);
      r.children.push_back(split.right);
      root_ = new_root;
      ++height_;
    }
  }

  /// \brief Builds the tree from entries sorted by (key, row), pooling each
  /// level's nodes consecutively in the arena.
  ///
  /// Replaces any existing content. Precondition: `sorted` is sorted and
  /// duplicate-free under Entry ordering (asserted in debug builds).
  void BulkLoad(const std::vector<Entry>& sorted) {
    Clear();
    if (sorted.empty()) return;
    assert(std::is_sorted(sorted.begin(), sorted.end()));
    arena_.clear();
    num_nodes_ = 0;
    size_t per_leaf = std::max<size_t>(
        2, static_cast<size_t>(static_cast<double>(capacity_) * opts_.bulk_fill));
    // Build the leaf level: consecutive arena slots, so the leaf chain is a
    // forward arena walk.
    std::vector<NodeId> level;
    size_t i = 0;
    const size_t n = sorted.size();
    while (i < n) {
      size_t remaining = n - i;
      size_t take = std::min(per_leaf, remaining);
      if (remaining - take == 1) {
        // Never strand a single-entry last leaf: absorb the tail when it
        // fits one page, else rebalance the final two leaves.
        take = remaining <= capacity_ ? remaining : (remaining + 1) / 2;
      }
      NodeId id = NewNode(/*leaf=*/true);
      Node& leaf = arena_[id];
      leaf.keys.reserve(take);
      leaf.rows.reserve(take);
      for (size_t k = 0; k < take; ++k) {
        leaf.keys.push_back(sorted[i + k].key);
        leaf.rows.push_back(sorted[i + k].row);
      }
      i += take;
      level.push_back(id);
    }
    for (size_t c = 0; c + 1 < level.size(); ++c) {
      arena_[level[c]].next = level[c + 1];
    }
    num_entries_ = n;
    // Build internal levels bottom-up, one arena pool per level.
    height_ = 1;
    while (level.size() > 1) {
      std::vector<NodeId> parents;
      size_t j = 0;
      while (j < level.size()) {
        size_t take = std::min(capacity_, level.size() - j);
        if (level.size() - (j + take) == 1) {
          // Avoid leaving a singleton orphan: rebalance the tail.
          take = (level.size() - j + 1) / 2;
        }
        NodeId pid = NewNode(/*leaf=*/false);
        Node& parent = arena_[pid];
        parent.children.reserve(take);
        parent.keys.reserve(take - 1);
        parent.rows.reserve(take - 1);
        for (size_t c = 0; c < take; ++c) {
          if (c > 0) {
            const Node& first = FirstLeaf(level[j + c]);
            parent.keys.push_back(first.keys.front());
            parent.rows.push_back(first.rows.front());
          }
          parent.children.push_back(level[j + c]);
        }
        j += take;
        parents.push_back(pid);
      }
      level = std::move(parents);
      ++height_;
    }
    root_ = level.front();
  }

  /// \brief Visits all rows whose key equals `key`, in row order —
  /// allocation-free, no std::function dispatch.
  template <typename Visitor>
  void Lookup(const Key& key, Visitor&& visit) const {
    ScanRange(key, key, std::forward<Visitor>(visit));
  }

  /// Collects all rows whose key equals `key` (thin wrapper over the
  /// visitor overload, kept for existing call sites).
  std::vector<RowId> Lookup(const Key& key) const {
    std::vector<RowId> rows;
    Lookup(key, [&rows](const Key&, RowId row) { rows.push_back(row); });
    return rows;
  }

  /// \brief Visits entries with lo <= key <= hi in key order. The visitor
  /// is a template parameter (no std::function on the hot path); the next
  /// leaf's columns are prefetched while the current leaf is emitted.
  template <typename Visitor>
  void ScanRange(const Key& lo, const Key& hi, Visitor&& visit) const {
    const Node* n = &arena_[DescendToLeaf(lo)];
    size_t pos =
        btree_kernels::LowerBound(n->keys.data(), n->rows.data(),
                                  n->keys.size(), lo, RowId{0});
    while (true) {
      if (n->next != kNilNode) PrefetchColumns(arena_[n->next]);
      // Resolve this leaf's end once — first key > hi, found by composite
      // upper bound of (hi, max row) — so the emission loop is check-free
      // and vectorizes over the flat columns.
      const size_t end = LeafEnd(*n, hi);
      for (; pos < end; ++pos) visit(n->keys[pos], n->rows[pos]);
      if (end < n->keys.size() || n->next == kNilNode) return;
      n = &arena_[n->next];
      pos = 0;
    }
  }

  /// Visits every entry in key order (the sorted leaf chain).
  template <typename Visitor>
  void ScanAll(Visitor&& visit) const {
    const Node* n = &arena_[LeftmostLeaf()];
    while (true) {
      if (n->next != kNilNode) PrefetchColumns(arena_[n->next]);
      const size_t sz = n->keys.size();
      for (size_t pos = 0; pos < sz; ++pos) visit(n->keys[pos], n->rows[pos]);
      if (n->next == kNilNode) return;
      n = &arena_[n->next];
    }
  }

  /// \brief Batched point lookups: runs up to `group` concurrent descents in
  /// a software-pipelined state machine — each live probe advances one
  /// binary-search step per rotation and prefetches the cache lines its
  /// next step will read, so one probe's DRAM miss is hidden behind the
  /// others' work (AMAC-style, no coroutines). Cache-resident trees take
  /// sequential descents instead (Options::batch_pipeline_min_bytes).
  ///
  /// Visits are emitted per probe in input order, so the visit sequence is
  /// bit-identical to calling Lookup(keys[i], ...) for i = 0..n-1.
  /// `visit(probe_index, key, row)`.
  template <typename Visitor>
  void LookupBatch(std::span<const Key> keys, Visitor&& visit,
                   size_t group = kDefaultProbeGroup) const {
    group = std::max<size_t>(1, group);
    std::vector<ProbeState> states(std::min(group, keys.size()));
    for (size_t base = 0; base < keys.size(); base += group) {
      const size_t g = std::min(group, keys.size() - base);
      DescendGroup(&keys[base], g, states.data());
      // Emit in input order: identical visits to sequential Lookup calls.
      for (size_t j = 0; j < g; ++j) {
        EmitRange(states[j], keys[base + j], keys[base + j], base + j, visit);
      }
    }
  }

  /// \brief Batched range scans: interleaved group descent on each range's
  /// lower bound, then per-range emission in input order (visit sequence
  /// bit-identical to sequential ScanRange calls).
  /// `visit(probe_index, key, row)`.
  template <typename Visitor>
  void ScanRangeBatch(std::span<const std::pair<Key, Key>> ranges,
                      Visitor&& visit,
                      size_t group = kDefaultProbeGroup) const {
    group = std::max<size_t>(1, group);
    std::vector<ProbeState> states(std::min(group, ranges.size()));
    std::vector<Key> los(std::min(group, ranges.size()));
    for (size_t base = 0; base < ranges.size(); base += group) {
      const size_t g = std::min(group, ranges.size() - base);
      for (size_t j = 0; j < g; ++j) los[j] = ranges[base + j].first;
      DescendGroup(los.data(), g, states.data());
      for (size_t j = 0; j < g; ++j) {
        EmitRange(states[j], ranges[base + j].first, ranges[base + j].second,
                  base + j, visit);
      }
    }
  }

  size_t size() const { return num_entries_; }
  bool empty() const { return num_entries_ == 0; }
  int height() const { return height_; }
  size_t node_count() const { return num_nodes_; }
  /// Emulated on-disk footprint: one page per node.
  size_t SizeBytes() const { return num_nodes_ * opts_.page_bytes; }
  size_t capacity_per_node() const { return capacity_; }

  void Clear() {
    arena_.clear();
    num_nodes_ = 0;
    num_entries_ = 0;
    height_ = 1;
    root_ = NewNode(/*leaf=*/true);
  }

  /// \brief Verifies structural invariants (ordering, separator correctness,
  /// node fill — leaves of a multi-leaf tree hold >= 2 entries — uniform
  /// leaf depth, column-length agreement). Used by property tests.
  bool CheckInvariants() const {
    int leaf_depth = -1;
    return CheckNode(root_, nullptr, nullptr, 0, &leaf_depth, true);
  }

 private:
  /// Arena index of a node; kNilNode terminates the leaf chain.
  using NodeId = uint32_t;
  static constexpr NodeId kNilNode = std::numeric_limits<NodeId>::max();

  /// \brief One node, SoA: the key column and the parallel payload column.
  /// Leaves: keys/rows are the entries, `next` chains to the right sibling.
  /// Internal nodes: keys/rows are the composite separators and
  /// children.size() == keys.size() + 1.
  struct Node {
    std::vector<Key> keys;
    std::vector<RowId> rows;
    std::vector<NodeId> children;
    NodeId next = kNilNode;
    bool leaf = false;
  };

  struct SplitResult {
    bool happened = false;
    Key sep_key{};
    RowId sep_row = 0;
    NodeId right = kNilNode;
  };

  /// One probe of a pipelined descent group. The machine advances at
  /// cache-line granularity, not node granularity: every line a step reads
  /// was prefetched by that probe's previous step, one rotation earlier,
  /// while the other probes' steps (and their in-flight prefetches)
  /// overlapped the miss. Stages:
  ///   kLoad    the probe chose node `node` last rotation and prefetched its
  ///            struct; now read the header, stage the first search window.
  ///   kSearch  while the window exceeds kLinearCutover: one binary-halving
  ///            step per rotation (mid line prefetched last rotation), then
  ///            prefetch the new mid. Once narrow: resolve the node with the
  ///            hybrid kernel over the fully prefetched window — internal
  ///            nodes step to a child (prefetch its struct, back to kLoad),
  ///            the leaf records its lower-bound `pos`.
  enum class ProbeStage : uint8_t { kLoad, kSearch, kDone };
  struct ProbeState {
    NodeId node = 0;
    uint32_t lo = 0;       // search window [lo, lo + len)
    uint32_t len = 0;
    uint32_t pos = 0;      // resolved leaf position (kDone)
    uint8_t depth_left = 0;  // levels below the current node; 0 = leaf
    ProbeStage stage = ProbeStage::kLoad;
  };

  NodeId NewNode(bool leaf) {
    arena_.emplace_back();
    arena_.back().leaf = leaf;
    ++num_nodes_;
    return static_cast<NodeId>(arena_.size() - 1);
  }

  static void PrefetchColumns(const Node& n) {
    btree_kernels::Prefetch(n.keys.data());
    btree_kernels::Prefetch(n.rows.data());
  }

  /// Prefetches every cache line overlapping [p, p + bytes).
  static void PrefetchSpan(const void* p, size_t bytes) {
    const char* c = static_cast<const char*>(p);
    for (size_t off = 0; off < bytes; off += 64) {
      btree_kernels::Prefetch(c + off);
    }
  }

  /// Prefetches the narrowed window [lo, lo + len) of both columns, plus
  /// the candidate child-id slice on internal nodes, so the resolving
  /// rotation runs miss-free.
  void PrefetchFinalWindow(const Node& n, uint32_t lo, uint32_t len,
                           bool internal) const {
    if (len > 0) {
      PrefetchSpan(n.keys.data() + lo, len * sizeof(Key));
      PrefetchSpan(n.rows.data() + lo, len * sizeof(RowId));
    }
    if (internal) {
      PrefetchSpan(n.children.data() + lo, (len + 1) * sizeof(NodeId));
    }
  }

  /// Resident footprint of the entry columns; the pipelined descent only
  /// pays off once this exceeds the cache (Options::batch_pipeline_min_bytes).
  size_t ColumnBytes() const {
    return num_entries_ * (sizeof(Key) + sizeof(RowId));
  }

  const Node& FirstLeaf(NodeId id) const {
    const Node* n = &arena_[id];
    while (!n->leaf) n = &arena_[n->children.front()];
    return *n;
  }

  NodeId LeftmostLeaf() const {
    NodeId id = root_;
    while (!arena_[id].leaf) id = arena_[id].children.front();
    return id;
  }

  /// Descends to the leaf covering (key, row=0), prefetching each child's
  /// columns as soon as it is chosen.
  NodeId DescendToLeaf(const Key& key) const {
    NodeId id = root_;
    const Node* n = &arena_[id];
    while (!n->leaf) {
      size_t c = btree_kernels::UpperBound(n->keys.data(), n->rows.data(),
                                           n->keys.size(), key, RowId{0});
      id = n->children[c];
      n = &arena_[id];
      PrefetchColumns(*n);
    }
    return id;
  }

  /// \brief Advances `g` probes (keys[0..g)) from the root to their leaf
  /// lower-bound positions.
  ///
  /// On trees past the pipeline threshold this is the AMAC-style rotation
  /// loop: each live probe performs one cache-line-granular step per
  /// rotation (see ProbeStage) and prefetches everything its next step will
  /// read, so up to `g` DRAM misses are in flight at once instead of each
  /// descent serializing its own. Smaller trees take plain sequential
  /// descents — same resolved positions, no pipeline overhead.
  void DescendGroup(const Key* keys, size_t g, ProbeState* states) const {
    if (ColumnBytes() < opts_.batch_pipeline_min_bytes) {
      for (size_t j = 0; j < g; ++j) {
        const NodeId leaf = DescendToLeaf(keys[j]);
        const Node& n = arena_[leaf];
        states[j].node = leaf;
        states[j].pos = static_cast<uint32_t>(
            btree_kernels::LowerBound(n.keys.data(), n.rows.data(),
                                      n.keys.size(), keys[j], RowId{0}));
        states[j].stage = ProbeStage::kDone;
      }
      return;
    }
    btree_kernels::Prefetch(&arena_[root_]);
    PrefetchColumns(arena_[root_]);
    size_t live = g;
    for (size_t j = 0; j < g; ++j) {
      states[j] = ProbeState{};
      states[j].node = root_;
      states[j].depth_left = static_cast<uint8_t>(height_ - 1);
    }
    while (live > 0) {
      for (size_t j = 0; j < g; ++j) {
        ProbeState& s = states[j];
        if (s.stage == ProbeStage::kDone) continue;
        const Node& n = arena_[s.node];
        if (s.stage == ProbeStage::kLoad) {
          // Struct lines were prefetched when this node was chosen: read
          // the header, open the full window, stage its first probe line.
          s.lo = 0;
          s.len = static_cast<uint32_t>(n.keys.size());
          if (s.len > btree_kernels::kLinearCutover) {
            const size_t mid = s.lo + (s.len >> 1);
            btree_kernels::Prefetch(n.keys.data() + mid);
            btree_kernels::Prefetch(n.rows.data() + mid);
          } else {
            PrefetchFinalWindow(n, s.lo, s.len, s.depth_left > 0);
          }
          s.stage = ProbeStage::kSearch;
          continue;
        }
        if (s.len > btree_kernels::kLinearCutover) {
          // One binary-halving step; the mid lines are resident (prefetched
          // by this probe's previous rotation).
          const uint32_t half = s.len >> 1;
          const uint32_t mid = s.lo + half;
          // Internal separators route by UpperBound of (key, 0); the leaf
          // narrows toward LowerBound. Same predicates as btree_kernels.
          const bool adv =
              s.depth_left > 0
                  ? !btree_kernels::CompositeLess(keys[j], RowId{0},
                                                  n.keys[mid], n.rows[mid])
                  : btree_kernels::CompositeLess(n.keys[mid], n.rows[mid],
                                                 keys[j], RowId{0});
          s.lo = adv ? mid + 1 : s.lo;
          s.len = adv ? s.len - half - 1 : half;
          if (s.len > btree_kernels::kLinearCutover) {
            const size_t next_mid = s.lo + (s.len >> 1);
            btree_kernels::Prefetch(n.keys.data() + next_mid);
            btree_kernels::Prefetch(n.rows.data() + next_mid);
          } else {
            PrefetchFinalWindow(n, s.lo, s.len, s.depth_left > 0);
          }
          continue;
        }
        // Narrow window, fully resident: resolve this node with the hybrid
        // kernel, offset back by lo.
        if (s.depth_left == 0) {
          s.pos = s.lo + static_cast<uint32_t>(btree_kernels::LowerBound(
                             n.keys.data() + s.lo, n.rows.data() + s.lo,
                             s.len, keys[j], RowId{0}));
          s.stage = ProbeStage::kDone;
          --live;
          continue;
        }
        const size_t c =
            s.lo + btree_kernels::UpperBound(n.keys.data() + s.lo,
                                             n.rows.data() + s.lo, s.len,
                                             keys[j], RowId{0});
        const NodeId child = n.children[c];
        // Stage the child's struct (two lines: vector headers + chain).
        const char* cp = reinterpret_cast<const char*>(&arena_[child]);
        btree_kernels::Prefetch(cp);
        btree_kernels::Prefetch(cp + 64);
        s.node = child;
        --s.depth_left;
        s.stage = ProbeStage::kLoad;
      }
    }
  }

  /// Index one past the last entry of `n` with key <= hi: the composite
  /// upper bound of (hi, max row). Lets emission loops run check-free.
  size_t LeafEnd(const Node& n, const Key& hi) const {
    const size_t sz = n.keys.size();
    if (sz == 0 || !(hi < n.keys[sz - 1])) return sz;
    return btree_kernels::UpperBound(n.keys.data(), n.rows.data(), sz, hi,
                                     std::numeric_limits<RowId>::max());
  }

  /// Emits entries in [lo, hi] starting from a resolved probe position —
  /// the same walk ScanRange performs after its descent.
  template <typename Visitor>
  void EmitRange(const ProbeState& s, const Key& lo, const Key& hi,
                 size_t probe, Visitor&& visit) const {
    (void)lo;
    const Node* n = &arena_[s.node];
    size_t pos = s.pos;
    while (true) {
      const size_t end = LeafEnd(*n, hi);
      for (; pos < end; ++pos) visit(probe, n->keys[pos], n->rows[pos]);
      if (end < n->keys.size() || n->next == kNilNode) return;
      n = &arena_[n->next];
      pos = 0;
    }
  }

  SplitResult InsertRec(NodeId nid, const Key& key, RowId row) {
    if (arena_[nid].leaf) {
      {
        Node& n = arena_[nid];
        size_t pos = btree_kernels::LowerBound(n.keys.data(), n.rows.data(),
                                               n.keys.size(), key, row);
        if (pos < n.keys.size() && !(n.keys[pos] < key) &&
            !(key < n.keys[pos]) && n.rows[pos] == row) {
          return SplitResult{};  // exact duplicate (key, row): ignore
        }
        n.keys.insert(n.keys.begin() + static_cast<long>(pos), key);
        n.rows.insert(n.rows.begin() + static_cast<long>(pos), row);
        ++num_entries_;
        if (n.keys.size() <= capacity_) return SplitResult{};
      }
      // Split the leaf in half; the right node's first entry separates.
      // NewNode may grow the arena, so re-resolve references after it.
      NodeId rid = NewNode(/*leaf=*/true);
      Node& left = arena_[nid];
      Node& right = arena_[rid];
      size_t mid = left.keys.size() / 2;
      right.keys.assign(left.keys.begin() + static_cast<long>(mid),
                        left.keys.end());
      right.rows.assign(left.rows.begin() + static_cast<long>(mid),
                        left.rows.end());
      left.keys.resize(mid);
      left.rows.resize(mid);
      right.next = left.next;
      left.next = rid;
      SplitResult r;
      r.happened = true;
      r.sep_key = right.keys.front();
      r.sep_row = right.rows.front();
      r.right = rid;
      return r;
    }
    size_t idx;
    NodeId child;
    {
      const Node& n = arena_[nid];
      idx = btree_kernels::UpperBound(n.keys.data(), n.rows.data(),
                                      n.keys.size(), key, row);
      child = n.children[idx];
    }
    SplitResult child_split = InsertRec(child, key, row);
    if (!child_split.happened) return SplitResult{};
    {
      Node& n = arena_[nid];  // re-resolve: the recursion may have grown arena_
      n.keys.insert(n.keys.begin() + static_cast<long>(idx),
                    std::move(child_split.sep_key));
      n.rows.insert(n.rows.begin() + static_cast<long>(idx),
                    child_split.sep_row);
      n.children.insert(n.children.begin() + static_cast<long>(idx) + 1,
                        child_split.right);
      if (n.keys.size() <= capacity_) return SplitResult{};
    }
    // Split the internal node: middle separator moves up.
    NodeId rid = NewNode(/*leaf=*/false);
    Node& left = arena_[nid];
    Node& right = arena_[rid];
    size_t mid = left.keys.size() / 2;
    SplitResult r;
    r.happened = true;
    r.sep_key = left.keys[mid];
    r.sep_row = left.rows[mid];
    r.right = rid;
    right.keys.assign(left.keys.begin() + static_cast<long>(mid) + 1,
                      left.keys.end());
    right.rows.assign(left.rows.begin() + static_cast<long>(mid) + 1,
                      left.rows.end());
    right.children.assign(left.children.begin() + static_cast<long>(mid) + 1,
                          left.children.end());
    left.keys.resize(mid);
    left.rows.resize(mid);
    left.children.resize(mid + 1);
    return r;
  }

  /// (lo, hi) bound entries as composite (key, row) pairs; nullptr = open.
  bool CheckNode(NodeId nid, const std::pair<const Key*, RowId>* lo,
                 const std::pair<const Key*, RowId>* hi, int depth,
                 int* leaf_depth, bool is_root) const {
    const Node& n = arena_[nid];
    if (n.keys.size() != n.rows.size()) return false;
    auto in_bounds = [&](const Key& k, RowId r) {
      if (lo != nullptr &&
          btree_kernels::CompositeLess(k, r, *lo->first, lo->second)) {
        return false;
      }
      if (hi != nullptr &&
          !btree_kernels::CompositeLess(k, r, *hi->first, hi->second)) {
        return false;
      }
      return true;
    };
    auto sorted = [&] {
      for (size_t i = 0; i + 1 < n.keys.size(); ++i) {
        if (!btree_kernels::CompositeLess(n.keys[i], n.rows[i], n.keys[i + 1],
                                          n.rows[i + 1])) {
          return false;
        }
      }
      return true;
    };
    if (n.leaf) {
      if (*leaf_depth == -1) {
        *leaf_depth = depth;
      } else if (*leaf_depth != depth) {
        return false;  // leaves at different depths
      }
      if (!n.children.empty()) return false;
      if (!is_root && n.keys.size() < 2) return false;  // leaf min-fill
      if (!sorted()) return false;
      for (size_t i = 0; i < n.keys.size(); ++i) {
        if (!in_bounds(n.keys[i], n.rows[i])) return false;
      }
      return true;
    }
    if (n.children.size() != n.keys.size() + 1) return false;
    if (!is_root && n.children.size() < 2) return false;
    if (!sorted()) return false;
    for (size_t i = 0; i < n.children.size(); ++i) {
      std::pair<const Key*, RowId> clo_v{nullptr, 0}, chi_v{nullptr, 0};
      const std::pair<const Key*, RowId>* clo = lo;
      const std::pair<const Key*, RowId>* chi = hi;
      if (i > 0) {
        clo_v = {&n.keys[i - 1], n.rows[i - 1]};
        clo = &clo_v;
      }
      if (i < n.keys.size()) {
        chi_v = {&n.keys[i], n.rows[i]};
        chi = &chi_v;
      }
      if (!CheckNode(n.children[i], clo, chi, depth + 1, leaf_depth, false)) {
        return false;
      }
    }
    return true;
  }

  Options opts_;
  size_t capacity_;
  /// Contiguous node arena; nodes never move ids, BulkLoad pools per level.
  std::vector<Node> arena_;
  NodeId root_ = 0;
  size_t num_nodes_ = 0;
  size_t num_entries_ = 0;
  int height_ = 1;
};

}  // namespace dfim

#endif  // DFIM_INDEX_BPLUS_TREE_H_
