#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

namespace llmpq {

struct KvCacheManagerOptions {
  /// Tokens per KV page. Every page holds page_size K rows and page_size V
  /// rows of `hidden` floats each, so the allocation unit is
  /// 2 * page_size * hidden * sizeof(float) bytes.
  std::size_t page_size = 16;
};

/// Paged key/value cache for one decoder layer: fixed-size pages owned by a
/// shared pool, mapped to sequences through per-sequence page tables —
/// replacing the monolithic [batch, max_seq, hidden] `KvCache` reservation
/// so the serving loop can admit/retire sequences of different lengths
/// without reshaping or copying anything.
///
/// Contract notes:
///   * Pages are stable in memory once allocated (unique_ptr<float[]>), so
///     k_at()/v_at() pointers stay valid across append()s to any sequence.
///   * reserve() is the only allocation choke point. The pool is unbounded:
///     plan feasibility was already checked by the planner's memory model,
///     and the serving layer's CapacityScheduler ledger decides preemption
///     (see preempt()).
///   * k_at()/v_at() validate like the legacy KvCache: unknown sequence or
///     `pos >= filled()` throws InvalidArgumentError instead of reading
///     stale pool memory.
///   * truncate() rolls `filled` back without releasing pages — the
///     engine's rollback path after a failed pipeline pass, cheap to redo.
///   * Freed pages return to the pool's free list, never to the OS, so
///     footprint_bytes() is monotonic — matching how the planner's
///     `layer_kv_bytes` reserves for the peak, not the instant.
class KvCacheManager {
 public:
  KvCacheManager() = default;
  explicit KvCacheManager(std::size_t hidden,
                          const KvCacheManagerOptions& options = {});

  std::size_t hidden() const { return hidden_; }
  std::size_t page_size() const { return options_.page_size; }

  /// Creates an empty page table for `seq`. Ids are caller-chosen and
  /// single-use while the sequence lives; reusing a live id throws.
  void begin_seq(int seq);
  /// Returns every page of `seq` to the free list and forgets it. Unknown
  /// ids throw (freeing twice is a lifecycle bug worth surfacing).
  void free_seq(int seq);
  bool has_seq(int seq) const { return seqs_.count(seq) != 0; }

  /// Ensures `seq` owns enough pages for `target_len` tokens, reusing
  /// free pages before growing the pool. Never shrinks.
  void reserve(int seq, std::size_t target_len);

  /// Number of positions stored for `seq`.
  std::size_t filled(int seq) const;

  /// Appends one position's K/V vectors (hidden() floats each). The
  /// position must already be reserve()d — append never allocates.
  void append(int seq, const float* k_vec, const float* v_vec);

  /// K/V vector of `seq` at position `pos` (`pos < filled(seq)`).
  const float* k_at(int seq, std::size_t pos) const;
  const float* v_at(int seq, std::size_t pos) const;

  /// Rolls `filled` back to `len` (<= filled), keeping the pages — the
  /// rollback primitive for a pipeline pass that died after some layers
  /// already appended.
  void truncate(int seq, std::size_t len);

  /// The serving layer's preemption primitive: returns every page of `seq`
  /// to the free list and resets `filled` to zero, so the owner (which
  /// keeps the sequence's tokens) can re-prefill it exactly. Preempting a
  /// sequence that holds no pages — never filled, or already preempted —
  /// throws InvalidArgumentError: double-preempt is a scheduler bug.
  void preempt(int seq);

  /// Pages needed to hold `tokens` positions at `page_size` tokens each.
  static std::size_t pages_for(std::size_t tokens, std::size_t page_size) {
    return (tokens + page_size - 1) / page_size;
  }

  /// Pool-level bytes this layer's manager would hold with `batch`
  /// sequences reserved to `max_seq` tokens — the runtime (FP32) mirror of
  /// the planner's FP16 `layer_kv_bytes`: exactly 2x it whenever page_size
  /// divides max_seq, plus page-granularity rounding otherwise (the
  /// reconciliation test in tests/test_session.cpp pins this).
  static std::size_t planned_bytes(std::size_t batch, std::size_t max_seq,
                                   std::size_t hidden,
                                   std::size_t page_size) {
    return batch * pages_for(max_seq, page_size) * 2 * page_size * hidden *
           sizeof(float);
  }

  std::size_t pool_pages() const { return pool_.size(); }
  std::size_t free_pages() const { return free_.size(); }
  /// Bytes the pool holds (allocated pages, in use or free). Monotonic.
  std::size_t footprint_bytes() const { return pool_.size() * page_bytes(); }
  /// Bytes of pages currently mapped to sequences.
  std::size_t used_bytes() const {
    return (pool_.size() - free_.size()) * page_bytes();
  }

 private:
  struct Seq {
    std::vector<std::size_t> pages;  ///< indices into pool_
    std::size_t filled = 0;
  };

  std::size_t page_bytes() const {
    return 2 * options_.page_size * hidden_ * sizeof(float);
  }
  std::size_t page_floats() const { return 2 * options_.page_size * hidden_; }
  Seq& seq_at(int seq, const char* who);
  const Seq& seq_at(int seq, const char* who) const;
  const float* at(int seq, std::size_t pos, bool value, const char* who) const;

  std::size_t hidden_ = 0;
  KvCacheManagerOptions options_;
  std::vector<std::unique_ptr<float[]>> pool_;  ///< stable page storage
  std::vector<std::size_t> free_;               ///< free page indices
  std::unordered_map<int, Seq> seqs_;
};

}  // namespace llmpq
