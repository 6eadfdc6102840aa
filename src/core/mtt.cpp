#include "core/mtt.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <stdexcept>

#include "crypto/ct.hpp"
#include "crypto/sha2.hpp"
#include "crypto/sha2_multi.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace spider::core {

namespace {
constexpr int kSlot0 = 0, kSlot1 = 1, kSlotE = 2;

/// Runs fn(start, end) over [0, n), either inline or sharded across `pool`
/// when the range is large enough to amortize the task overhead.  Barrier
/// semantics: returns only after every shard finished.  fn must not throw
/// from pooled shards (ThreadPool contract).
template <typename Fn>
void shard_range(util::ThreadPool* pool, std::size_t n, std::size_t min_parallel,
                 std::size_t chunks, Fn&& fn) {
  if (n == 0) return;
  if (pool == nullptr || n < min_parallel) {
    fn(static_cast<std::size_t>(0), n);
    return;
  }
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  for (std::size_t start = 0; start < n; start += chunk_size) {
    const std::size_t end = std::min(n, start + chunk_size);
    pool->submit([&fn, start, end] { fn(start, end); });
    SPIDER_OBS_GAUGE_MAX("core/threadpool_queue_depth", pool->queue_depth());
  }
  pool->wait_idle();
}
}  // namespace

// -------------------------------------------------- proof subpath helpers

Digest20 mtt_combine_children(const Digest20& c0, const Digest20& c1, const Digest20& c2) {
  return crypto::digest20_concat({ByteSpan{c0.data(), c0.size()}, ByteSpan{c1.data(), c1.size()},
                                  ByteSpan{c2.data(), c2.size()}});
}

Digest20 mtt_prefix_label(const Digest20* bit_labels, std::size_t n) {
  crypto::Sha512 h;
  for (std::size_t i = 0; i < n; ++i) {
    h.update(ByteSpan{bit_labels[i].data(), bit_labels[i].size()});
  }
  auto full = h.finish();
  Digest20 out{};
  std::copy(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(out.size()), out.begin());
  return out;
}

int mtt_path_slot(const bgp::Prefix& prefix, std::size_t level) {
  if (level == prefix.length()) return kSlotE;
  return prefix.bit(static_cast<std::uint8_t>(level)) ? kSlot1 : kSlot0;
}

std::uint64_t mtt_path_position(const bgp::Prefix& prefix, std::size_t level) {
  // 32 path bits | 6 depth bits | 1 node-kind bit.  Inner positions carry
  // the path truncated to `level` bits (canonical: lower bits zero), the
  // prefix-node position the full canonical (bits, length) pair, so the
  // packing is injective across both node kinds.
  if (level > prefix.length()) {
    return (static_cast<std::uint64_t>(prefix.bits()) << 32) |
           (static_cast<std::uint64_t>(prefix.length()) << 1) | 1U;
  }
  const std::uint32_t bits =
      level == 0 ? 0U : (prefix.bits() >> (32 - level)) << (32 - level);
  return (static_cast<std::uint64_t>(bits) << 32) | (static_cast<std::uint64_t>(level) << 1);
}

Digest20 mtt_fold_level(const bgp::Prefix& prefix, std::size_t level, const Digest20& current,
                        const std::array<Digest20, 2>& siblings) {
  const int path_slot = mtt_path_slot(prefix, level);
  std::array<Digest20, 3> labels{};
  int out = 0;
  for (int slot = 0; slot < 3; ++slot) {
    if (slot == path_slot) {
      labels[static_cast<std::size_t>(slot)] = current;
    } else {
      labels[static_cast<std::size_t>(slot)] = siblings[static_cast<std::size_t>(out++)];
    }
  }
  return mtt_combine_children(labels[0], labels[1], labels[2]);
}

// ------------------------------------------------------------ PRF indices

std::uint64_t Mtt::bit_prf_index(const bgp::Prefix& prefix, std::uint32_t group) {
  // bgp::Prefix is canonical (bits beyond the length are zero), so the
  // (bits, length) pair identifies the prefix and the packing is injective
  // for group < 2^26: 32 prefix bits | 6 length bits | 26 group bits.
  return (static_cast<std::uint64_t>(prefix.bits()) << 32) |
         (static_cast<std::uint64_t>(prefix.length()) << 26) | group;
}

std::uint64_t Mtt::dummy_prf_index(std::uint32_t path_bits, std::uint8_t depth) {
  // 32 path bits | depth in the low bits; path bits below `depth` are zero
  // (trie paths are canonical like prefixes), so this too is injective.
  return (static_cast<std::uint64_t>(path_bits) << 32) | static_cast<std::uint64_t>(depth);
}

// ------------------------------------------------------------------ arena

std::uint32_t Mtt::alloc_inner(std::uint8_t depth, std::uint32_t path_bits) {
  std::uint32_t index;
  if (!inner_free_.empty()) {
    index = inner_free_.back();
    inner_free_.pop_back();
    inner_[index] = Inner{};
  } else {
    index = static_cast<std::uint32_t>(inner_.size());
    inner_.emplace_back();
    inner_depth_.push_back(0);
    inner_path_.push_back(0);
    inner_alive_.push_back(0);
  }
  inner_depth_[index] = depth;
  inner_path_[index] = path_bits;
  inner_alive_[index] = 1;
  // A fresh inner node starts with three dummy children.
  for (std::size_t s = 0; s < 3; ++s) inner_[index].kind[s] = ChildKind::kDummy;
  dummy_count_ += 3;
  return index;
}

void Mtt::free_inner(std::uint32_t index) {
  inner_[index] = Inner{};
  inner_alive_[index] = 0;
  inner_free_.push_back(index);
}

std::uint32_t Mtt::alloc_prefix(const bgp::Prefix& prefix) {
  std::uint32_t index;
  if (!prefix_free_.empty()) {
    index = prefix_free_.back();
    prefix_free_.pop_back();
    prefix_nodes_[index] = prefix;
  } else {
    index = static_cast<std::uint32_t>(prefix_nodes_.size());
    prefix_nodes_.push_back(prefix);
    prefix_alive_.push_back(0);
    const std::size_t words =
        (prefix_nodes_.size() * static_cast<std::size_t>(num_classes_) + 63) / 64;
    if (bitmap_.size() < words) bitmap_.resize(words, 0);
  }
  prefix_alive_[index] = 1;
  return index;
}

void Mtt::free_prefix(std::uint32_t index) {
  prefix_alive_[index] = 0;
  prefix_free_.push_back(index);
}

void Mtt::write_bits(std::uint32_t prefix_index, const std::vector<bool>& bits) {
  const std::uint64_t base = static_cast<std::uint64_t>(prefix_index) * num_classes_;
  for (std::uint32_t c = 0; c < num_classes_; ++c) {
    const std::uint64_t idx = base + c;
    if (bits[c]) {
      bitmap_[idx / 64] |= 1ULL << (idx % 64);
    } else {
      bitmap_[idx / 64] &= ~(1ULL << (idx % 64));
    }
  }
}

bool Mtt::bits_equal(std::uint32_t prefix_index, const std::vector<bool>& bits) const {
  const std::uint64_t base = static_cast<std::uint64_t>(prefix_index) * num_classes_;
  for (std::uint32_t c = 0; c < num_classes_; ++c) {
    if (stored_bit(base + c) != bits[c]) return false;
  }
  return true;
}

// ----------------------------------------------------------------- build

Mtt Mtt::build(std::vector<std::pair<bgp::Prefix, std::vector<bool>>> entries,
               std::uint32_t num_classes) {
  if (num_classes == 0) throw std::invalid_argument("Mtt: num_classes must be > 0");
  if (num_classes > kMaxClasses) {
    throw std::invalid_argument("Mtt: num_classes exceeds the PRF index packing limit");
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].first == entries[i - 1].first) {
      throw std::invalid_argument("Mtt: duplicate prefix " + entries[i].first.str());
    }
  }

  Mtt tree;
  tree.num_classes_ = num_classes;
  tree.alloc_inner(0, 0);  // root at index 0
  tree.prefix_nodes_.reserve(entries.size());
  tree.bitmap_.assign((entries.size() * num_classes + 63) / 64, 0);

  for (auto& [prefix, bits] : entries) {
    if (bits.size() != num_classes) {
      throw std::invalid_argument("Mtt: wrong bit count for " + prefix.str());
    }
    tree.apply_structural(MttUpdate{prefix, std::move(bits)});
  }
  SPIDER_OBS_COUNT("core/mtt_builds", 1);
  SPIDER_OBS_COUNT("core/mtt_prefix_nodes", tree.prefix_nodes_.size());
  return tree;
}

Mtt::Counts Mtt::counts() const {
  Counts c;
  c.inner = inner_.size() - inner_free_.size();
  for (std::size_t i = 0; i < inner_.size(); ++i) {
    const auto& kind = inner_[i].kind;
    if (inner_alive_[i] && std::find(kind.begin(), kind.end(), ChildKind::kDummy) != kind.end()) {
      ++c.inner_with_dummy;
    }
  }
  c.prefix = prefix_nodes_.size() - prefix_free_.size();
  c.dummy = dummy_count_;
  c.bit = c.prefix * num_classes_;
  return c;
}

std::size_t Mtt::memory_bytes() const {
  return inner_.size() * sizeof(Inner) + inner_depth_.size() * sizeof(std::uint8_t) +
         inner_path_.size() * sizeof(std::uint32_t) + inner_alive_.size() * sizeof(std::uint8_t) +
         inner_free_.size() * sizeof(std::uint32_t) +
         prefix_nodes_.size() * sizeof(bgp::Prefix) +
         prefix_alive_.size() * sizeof(std::uint8_t) +
         prefix_free_.size() * sizeof(std::uint32_t) + bitmap_.size() * sizeof(std::uint64_t) +
         inner_labels_.size() * sizeof(Digest20) + prefix_labels_.size() * sizeof(Digest20);
}

bool Mtt::stored_bit(std::uint64_t bit_index) const {
  return (bitmap_[bit_index / 64] >> (bit_index % 64)) & 1ULL;
}

std::optional<bool> Mtt::bit(const bgp::Prefix& prefix, ClassId cls) const {
  if (cls >= num_classes_) return std::nullopt;
  auto idx = find_prefix(prefix);
  if (!idx) return std::nullopt;
  return stored_bit(static_cast<std::uint64_t>(*idx) * num_classes_ + cls);
}

std::optional<std::uint32_t> Mtt::find_prefix(const bgp::Prefix& prefix) const {
  std::uint32_t node = 0;
  for (std::uint8_t depth = 0; depth < prefix.length(); ++depth) {
    const Inner& inner = inner_[node];
    int slot = prefix.bit(depth) ? kSlot1 : kSlot0;
    if (inner.kind[static_cast<std::size_t>(slot)] != ChildKind::kInner) return std::nullopt;
    node = inner.child[static_cast<std::size_t>(slot)];
  }
  const Inner& parent = inner_[node];
  if (parent.kind[kSlotE] != ChildKind::kPrefix) return std::nullopt;
  return parent.child[kSlotE];
}

// ---------------------------------------------------------------- updates

void Mtt::apply_structural(const MttUpdate& update) {
  const bgp::Prefix& prefix = update.prefix;
  if (update.bits) {
    if (update.bits->size() != num_classes_) {
      throw std::invalid_argument("Mtt: wrong bit count for " + prefix.str());
    }
    std::uint32_t node = 0;
    for (std::uint8_t depth = 0; depth < prefix.length(); ++depth) {
      const bool bit = prefix.bit(depth);
      const std::size_t slot = bit ? kSlot1 : kSlot0;
      if (inner_[node].kind[slot] == ChildKind::kInner) {
        node = inner_[node].child[slot];
        continue;
      }
      const std::uint32_t path =
          inner_path_[node] | (bit ? (1u << (31 - depth)) : 0u);
      const std::uint32_t fresh = alloc_inner(static_cast<std::uint8_t>(depth + 1), path);
      // Re-index after alloc: the arena may have reallocated.
      inner_[node].kind[slot] = ChildKind::kInner;
      inner_[node].child[slot] = fresh;
      --dummy_count_;  // the slot's dummy is replaced by the new inner node
      node = fresh;
    }
    if (inner_[node].kind[kSlotE] == ChildKind::kPrefix) {
      const std::uint32_t pi = inner_[node].child[kSlotE];
      if (bits_equal(pi, *update.bits)) return;  // no-op rewrite
      write_bits(pi, *update.bits);
    } else {
      const std::uint32_t pi = alloc_prefix(prefix);
      inner_[node].kind[kSlotE] = ChildKind::kPrefix;
      inner_[node].child[kSlotE] = pi;
      --dummy_count_;
      write_bits(pi, *update.bits);
    }
    return;
  }

  // Removal.  Record the root path so pruning can walk back up.
  std::array<std::uint32_t, 33> path_nodes{};
  std::uint32_t node = 0;
  for (std::uint8_t depth = 0; depth < prefix.length(); ++depth) {
    path_nodes[depth] = node;
    const Inner& inner = inner_[node];
    const std::size_t slot = prefix.bit(depth) ? kSlot1 : kSlot0;
    if (inner.kind[slot] != ChildKind::kInner) return;  // absent: no-op
    node = inner.child[slot];
  }
  path_nodes[prefix.length()] = node;
  if (inner_[node].kind[kSlotE] != ChildKind::kPrefix) return;  // absent: no-op
  free_prefix(inner_[node].child[kSlotE]);
  inner_[node].kind[kSlotE] = ChildKind::kDummy;
  inner_[node].child[kSlotE] = 0;
  ++dummy_count_;

  // Prune upward: an inner node whose children are all dummies is
  // structurally identical to the single dummy a fresh build would place
  // there, and must collapse for incremental and rebuilt trees to agree.
  for (std::uint8_t depth = prefix.length(); depth > 0; --depth) {
    const std::uint32_t cur = path_nodes[depth];
    const Inner& n = inner_[cur];
    if (n.kind[0] != ChildKind::kDummy || n.kind[1] != ChildKind::kDummy ||
        n.kind[2] != ChildKind::kDummy) {
      break;
    }
    free_inner(cur);
    dummy_count_ -= 3;
    const std::uint32_t parent = path_nodes[depth - 1];
    const std::size_t slot = prefix.bit(static_cast<std::uint8_t>(depth - 1)) ? kSlot1 : kSlot0;
    inner_[parent].kind[slot] = ChildKind::kDummy;
    inner_[parent].child[slot] = 0;
    ++dummy_count_;
  }
}

void Mtt::apply(const std::vector<MttUpdate>& updates) {
  SPIDER_OBS_SPAN(apply_span, "core/mtt_apply");
  labels_done_ = false;
  for (const MttUpdate& update : updates) apply_structural(update);
  SPIDER_OBS_COUNT("core/mtt_apply_runs", 1);
  SPIDER_OBS_COUNT("core/mtt_apply_updates", updates.size());
}

// -------------------------------------------------------------- labeling

void Mtt::label_prefix_ids(const std::uint32_t* ids, std::size_t n,
                           const crypto::CommitmentPrf& prf, std::uint64_t& hashes) {
  const std::uint32_t k = num_classes_;
  const std::uint32_t groups = (k + 2) / 3;
  // Derive the x triples for a chunk of prefix nodes, hash all their
  // leaves, then hash the per-node leaf concatenations — three lane calls
  // of uniform-length messages, so the SHA-512 lanes stay full.  Hash
  // accounting counts one hash per PRF triple, leaf and prefix label
  // (ceil(k/3) + k + 1 per prefix node).
  constexpr std::size_t kNodeChunk = 16;
  const std::size_t max_bits = kNodeChunk * k;
  std::vector<std::uint64_t> indices(kNodeChunk * groups);
  std::vector<crypto::PrfTriple> triples(kNodeChunk * groups);
  std::vector<std::uint8_t> bits(max_bits);
  std::vector<Digest20> xs(max_bits);
  std::vector<Digest20> leaves(max_bits);
  Digest20 chunk_labels[kNodeChunk];
  ByteSpan spans[kNodeChunk];
  // A node's message is the contiguous bytes of its k leaf digests.
  static_assert(sizeof(Digest20) == 20, "Digest20 must pack to exactly 20 bytes");
  for (std::size_t base = 0; base < n; base += kNodeChunk) {
    const std::size_t c = std::min(kNodeChunk, n - base);
    const std::size_t m = c * k;
    for (std::size_t node = 0; node < c; ++node) {
      const std::uint32_t id = ids[base + node];
      for (std::uint32_t g = 0; g < groups; ++g) {
        indices[node * groups + g] = bit_prf_index(prefix_nodes_[id], g);
      }
      const std::uint64_t storage = static_cast<std::uint64_t>(id) * k;
      for (std::uint32_t cls = 0; cls < k; ++cls) {
        bits[node * k + cls] = stored_bit(storage + cls) ? 1 : 0;
      }
    }
    prf.derive3_batch(crypto::CommitmentPrf::Domain::kBit, indices.data(), c * groups,
                      triples.data());
    for (std::size_t node = 0; node < c; ++node) {
      for (std::uint32_t cls = 0; cls < k; ++cls) {
        xs[node * k + cls] = triples[node * groups + cls / 3][cls % 3];
      }
    }
    bit_leaf_hash_batch(bits.data(), xs.data(), m, leaves.data());
    for (std::size_t j = 0; j < c; ++j) {
      spans[j] = ByteSpan{leaves[j * k].data(), static_cast<std::size_t>(k) * sizeof(Digest20)};
    }
    crypto::digest20_batch(spans, c, chunk_labels);
    for (std::size_t j = 0; j < c; ++j) prefix_labels_[ids[base + j]] = chunk_labels[j];
    hashes += static_cast<std::uint64_t>(c) * (groups + k + 1);
  }
}

const Digest20& Mtt::child_label(std::uint32_t inner_index, std::size_t slot) const {
  const Inner& node = inner_[inner_index];
  switch (node.kind[slot]) {
    case ChildKind::kInner: return inner_labels_[node.child[slot]];
    case ChildKind::kPrefix: return prefix_labels_[node.child[slot]];
    case ChildKind::kDummy:
    case ChildKind::kNone: break;
  }
  throw std::logic_error("Mtt: child slot has no materialized label");
}

void Mtt::label_inner_ids(const std::uint32_t* ids, std::size_t n,
                          const crypto::CommitmentPrf& prf, std::uint64_t& hashes) {
  // Lay out each node's c0 || c1 || cE message, deriving the dummy triple
  // of every node in the chunk that has a dummy child with one PRF batch
  // call, then hash the chunk's 60-byte messages with one fixed-length
  // lane call.  Labels equal mtt_combine_children over child_label() and
  // the node's dummy triple; hash accounting counts one combining hash per
  // node plus one PRF triple per node with any dummy child.
  constexpr std::size_t kNodeChunk = 64;
  constexpr std::size_t kLabel = sizeof(Digest20);
  constexpr std::size_t kMsg = 3 * kLabel;
  std::uint8_t msgs[kNodeChunk * kMsg];
  std::uint64_t dummy_indices[kNodeChunk];
  std::size_t dummy_nodes[kNodeChunk];
  crypto::PrfTriple dummy_triples[kNodeChunk];
  Digest20 labels[kNodeChunk];
  for (std::size_t base = 0; base < n; base += kNodeChunk) {
    const std::size_t c = std::min(kNodeChunk, n - base);
    std::size_t dummies = 0;
    for (std::size_t j = 0; j < c; ++j) {
      const std::uint32_t id = ids[base + j];
      const Inner& node = inner_[id];
      bool has_dummy = false;
      for (std::size_t s = 0; s < 3; ++s) {
        if (node.kind[s] == ChildKind::kDummy) {
          has_dummy = true;
        } else {
          std::memcpy(msgs + j * kMsg + s * kLabel, child_label(id, s).data(), kLabel);
        }
      }
      if (has_dummy) {
        dummy_indices[dummies] = dummy_prf_index(inner_path_[id], inner_depth_[id]);
        dummy_nodes[dummies++] = j;
      }
    }
    prf.derive3_batch(crypto::CommitmentPrf::Domain::kDummy, dummy_indices, dummies,
                      dummy_triples);
    for (std::size_t d = 0; d < dummies; ++d) {
      const std::size_t j = dummy_nodes[d];
      const Inner& node = inner_[ids[base + j]];
      for (std::size_t s = 0; s < 3; ++s) {
        if (node.kind[s] != ChildKind::kDummy) continue;
        std::memcpy(msgs + j * kMsg + s * kLabel, dummy_triples[d][s].data(), kLabel);
      }
    }
    crypto::digest20_batch(msgs, kMsg, c, labels);
    for (std::size_t j = 0; j < c; ++j) inner_labels_[ids[base + j]] = labels[j];
    hashes += c + dummies;
  }
}

void Mtt::compute_labels(const crypto::CommitmentPrf& prf, unsigned threads) {
  SPIDER_OBS_SPAN(label_span, "core/mtt_label");
  util::WallTimer label_timer;
  // Invalidate first: a throw mid-labeling must never leave the previous
  // root servable.
  labels_done_ = false;
  inner_labels_.assign(inner_.size(), Digest20{});
  prefix_labels_.assign(prefix_nodes_.size(), Digest20{});
  std::atomic<std::uint64_t> hash_count{0};

  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  util::ThreadPool* pool_ptr = pool ? &*pool : nullptr;
  const std::size_t chunks = static_cast<std::size_t>(threads) * 8;

  // Phase 1 — prefix-node labels.  Each is independent (the "subtrees
  // labeled completely by one thread" of §7.1; a prefix node's subtree is
  // its k bit nodes), and this phase is ~95% of all hashing.
  std::vector<std::uint32_t> prefix_ids;
  prefix_ids.reserve(prefix_nodes_.size());
  for (std::uint32_t i = 0; i < prefix_nodes_.size(); ++i) {
    if (prefix_alive_[i]) prefix_ids.push_back(i);
  }
  std::atomic<std::size_t> submitted{0};
  shard_range(pool_ptr, prefix_ids.size(), 256, chunks,
              [&](std::size_t start, std::size_t end) {
                std::uint64_t hashes = 0;
                label_prefix_ids(prefix_ids.data() + start, end - start, prf, hashes);
                hash_count += hashes;
                submitted += 1;
              });
  SPIDER_OBS_COUNT("core/mtt_parallel_chunks", submitted.load());

  // Phase 2 — inner labels bottom-up, grouped by trie depth.  A node's
  // children are strictly deeper, so each level depends only on deeper
  // levels; within a level every node is independent, which is what lets
  // this formerly serial pass shard across the pool (and tolerate the
  // arbitrary index order left behind by free-list recycling) and hash in
  // lane-sized chunks (label_inner_ids).
  std::array<std::vector<std::uint32_t>, 33> levels;
  for (std::uint32_t i = 0; i < inner_.size(); ++i) {
    if (inner_alive_[i]) levels[inner_depth_[i]].push_back(i);
  }
  for (std::size_t depth = levels.size(); depth-- > 0;) {
    const std::vector<std::uint32_t>& ids = levels[depth];
    shard_range(pool_ptr, ids.size(), 1024, chunks, [&](std::size_t start, std::size_t end) {
      std::uint64_t hashes = 0;
      label_inner_ids(ids.data() + start, end - start, prf, hashes);
      hash_count += hashes;
    });
  }

  label_hashes_ = hash_count.load();
  labels_done_ = true;
  SPIDER_OBS_COUNT("core/mtt_label_runs", 1);
  SPIDER_OBS_COUNT("core/mtt_nodes_labeled", prefix_ids.size() + inner_.size() - inner_free_.size());
  SPIDER_OBS_COUNT("core/mtt_label_hashes", label_hashes_);
  SPIDER_OBS_HIST("core/mtt_label_micros",
                  static_cast<std::uint64_t>(label_timer.seconds() * 1e6),
                  obs::latency_buckets_micros());
}

const Digest20& Mtt::root_label() const {
  if (!labels_done_) throw std::logic_error("Mtt: labels not computed");
  return inner_labels_[0];
}

// ----------------------------------------------------------------- proofs

MttProofMemo::Stats MttProofMemo::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

MttPrefixProof Mtt::prove(const crypto::CommitmentPrf& prf, const bgp::Prefix& prefix,
                          const std::vector<ClassId>& classes, MttProofMemo* memo) const {
  if (!labels_done_) throw std::logic_error("Mtt: labels not computed");
  auto prefix_index = find_prefix(prefix);
  if (!prefix_index) throw std::out_of_range("Mtt::prove: prefix not in tree " + prefix.str());
  const std::uint64_t storage_base = static_cast<std::uint64_t>(*prefix_index) * num_classes_;

  // The class-independent proof material: memo hit skips all PRF and
  // digest work; the revealed openings below read the stored bits either
  // way (they are the claim, and cost no hashing).
  MttProofMemo::Entry material;
  bool have_material = false;
  if (memo != nullptr) {
    std::lock_guard<std::mutex> lock(memo->mutex_);
    auto it = memo->entries_.find(prefix);
    if (it != memo->entries_.end()) {
      material = it->second;
      have_material = true;
      ++memo->stats_.hits;
    } else {
      ++memo->stats_.misses;
    }
  }
  if (!have_material) {
    // Derive the x value of each bit node exactly once (ceil(k/3) PRF
    // triples) and reuse it for both the openings and the bit labels; both
    // batches run through the SHA-512 lanes.
    const std::uint32_t groups = (num_classes_ + 2) / 3;
    std::vector<std::uint64_t> prf_indices(groups);
    for (std::uint32_t g = 0; g < groups; ++g) prf_indices[g] = bit_prf_index(prefix, g);
    std::vector<crypto::PrfTriple> triples(groups);
    prf.derive3_batch(crypto::CommitmentPrf::Domain::kBit, prf_indices.data(), groups,
                      triples.data());
    material.xs.resize(num_classes_);
    for (std::uint32_t c = 0; c < num_classes_; ++c) material.xs[c] = triples[c / 3][c % 3];

    std::vector<std::uint8_t> bits(num_classes_);
    for (std::uint32_t c = 0; c < num_classes_; ++c) bits[c] = stored_bit(storage_base + c) ? 1 : 0;
    material.bit_labels.resize(num_classes_);
    bit_leaf_hash_batch(bits.data(), material.xs.data(), num_classes_, material.bit_labels.data());

    // Path from the root to the prefix node's parent, recording the two
    // non-path child labels at each level (one dummy triple per level that
    // carries a dummy sibling).
    std::uint32_t node = 0;
    for (std::uint8_t depth = 0; depth <= prefix.length(); ++depth) {
      const Inner& inner = inner_[node];
      const auto path_slot = static_cast<std::size_t>(mtt_path_slot(prefix, depth));
      std::array<Digest20, 2> sibs{};
      std::optional<crypto::PrfTriple> dummies;
      std::size_t out = 0;
      for (std::size_t slot = 0; slot < 3; ++slot) {
        if (slot == path_slot) continue;
        if (inner.kind[slot] == ChildKind::kDummy) {
          if (!dummies) {
            dummies = prf.derive3(crypto::CommitmentPrf::Domain::kDummy,
                                  dummy_prf_index(inner_path_[node], inner_depth_[node]));
          }
          sibs[out++] = (*dummies)[slot];
        } else {
          sibs[out++] = child_label(node, slot);
        }
      }
      material.siblings.push_back(sibs);
      if (path_slot != kSlotE) node = inner.child[path_slot];
    }
    if (memo != nullptr) {
      std::lock_guard<std::mutex> lock(memo->mutex_);
      memo->entries_.emplace(prefix, material);
    }
  }

  MttPrefixProof proof;
  proof.prefix = prefix;
  for (ClassId cls : classes) {
    if (cls >= num_classes_) throw std::out_of_range("Mtt::prove: class out of range");
    proof.revealed.push_back({cls, stored_bit(storage_base + cls), material.xs[cls]});
  }
  proof.bit_labels = std::move(material.bit_labels);
  proof.siblings = std::move(material.siblings);
  SPIDER_OBS_COUNT("core/mtt_proofs_generated", 1);
  return proof;
}

bool Mtt::verify(const Digest20& root, std::uint32_t num_classes, const MttPrefixProof& proof) {
  SPIDER_OBS_COUNT("core/mtt_proofs_verified", 1);
  if (proof.bit_labels.size() != num_classes) return false;
  if (proof.siblings.size() != static_cast<std::size_t>(proof.prefix.length()) + 1) return false;

  // Revealed bits must hash to the claimed bit-node labels.
  for (const auto& opened : proof.revealed) {
    if (opened.cls >= num_classes) return false;
    if (bit_leaf_hash(opened.bit, opened.x) != proof.bit_labels[opened.cls]) return false;
  }

  // Prefix-node label from its bit-node labels, then fold upward through
  // the shared subpath helpers (deepest path entry first).
  Digest20 current = mtt_prefix_label(proof.bit_labels.data(), proof.bit_labels.size());
  for (std::size_t level = proof.siblings.size(); level-- > 0;) {
    current = mtt_fold_level(proof.prefix, level, current, proof.siblings[level]);
  }
  return crypto::constant_time_equal(current, root);
}

std::size_t MttPrefixProof::byte_size() const { return encode().size(); }

util::Bytes MttPrefixProof::encode() const {
  util::ByteWriter w;
  prefix.encode(w);
  w.u32(static_cast<std::uint32_t>(revealed.size()));
  for (const auto& opened : revealed) {
    w.u32(opened.cls);
    w.u8(opened.bit ? 1 : 0);
    w.digest(opened.x);
  }
  w.u32(static_cast<std::uint32_t>(bit_labels.size()));
  for (const auto& label : bit_labels) w.digest(label);
  w.u32(static_cast<std::uint32_t>(siblings.size()));
  for (const auto& pair : siblings) {
    w.digest(pair[0]);
    w.digest(pair[1]);
  }
  return w.take();
}

MttPrefixProof MttPrefixProof::decode(util::ByteSpan data) {
  util::ByteReader r(data);
  MttPrefixProof proof;
  proof.prefix = bgp::Prefix::decode(r);
  std::uint32_t n_revealed = r.check_count(r.u32(), 25, "MttPrefixProof revealed");
  proof.revealed.reserve(n_revealed);
  std::set<ClassId> seen_classes;
  for (std::uint32_t i = 0; i < n_revealed; ++i) {
    MttPrefixProof::Opened opened;
    opened.cls = r.u32();
    // A class opened twice is a non-canonical encoding: checkers look up
    // classes with find-first, so a second entry could carry a different
    // bit than the one actually verified against the commitment.
    if (!seen_classes.insert(opened.cls).second) {
      throw util::DecodeError("MttPrefixProof: duplicate revealed class");
    }
    std::uint8_t bit = r.u8();
    if (bit > 1) throw util::DecodeError("MttPrefixProof: bad bit");
    opened.bit = bit == 1;
    opened.x = r.digest();
    proof.revealed.push_back(opened);
  }
  std::uint32_t n_labels = r.check_count(r.u32(), 20, "MttPrefixProof bit labels");
  proof.bit_labels.reserve(n_labels);
  for (std::uint32_t i = 0; i < n_labels; ++i) proof.bit_labels.push_back(r.digest());
  std::uint32_t n_sibs = r.u32();
  if (n_sibs > 33) throw util::DecodeError("MttPrefixProof: path too long");
  r.check_count(n_sibs, 40, "MttPrefixProof siblings");
  proof.siblings.reserve(n_sibs);
  for (std::uint32_t i = 0; i < n_sibs; ++i) {
    std::array<Digest20, 2> pair{};
    pair[0] = r.digest();
    pair[1] = r.digest();
    proof.siblings.push_back(pair);
  }
  r.expect_end();
  return proof;
}

}  // namespace spider::core
