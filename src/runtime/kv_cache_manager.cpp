#include "runtime/kv_cache_manager.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace llmpq {

KvCacheManager::KvCacheManager(std::size_t hidden,
                               const KvCacheManagerOptions& options)
    : hidden_(hidden), options_(options) {
  check_arg(hidden_ >= 1, "KvCacheManager: hidden must be >= 1");
  check_arg(options_.page_size >= 1,
            "KvCacheManager: page_size must be >= 1");
}

KvCacheManager::Seq& KvCacheManager::seq_at(int seq, const char* who) {
  return const_cast<Seq&>(std::as_const(*this).seq_at(seq, who));
}

const KvCacheManager::Seq& KvCacheManager::seq_at(int seq,
                                                  const char* who) const {
  auto it = seqs_.find(seq);
  if (it == seqs_.end())
    throw InvalidArgumentError(std::string("KvCacheManager::") + who +
                               ": unknown sequence id");
  return it->second;
}

void KvCacheManager::begin_seq(int seq) {
  check_arg(seqs_.emplace(seq, Seq{}).second,
            "KvCacheManager::begin_seq: sequence id already live");
}

void KvCacheManager::free_seq(int seq) {
  auto it = seqs_.find(seq);
  check_arg(it != seqs_.end(),
            "KvCacheManager::free_seq: unknown sequence id");
  for (std::size_t page : it->second.pages) free_.push_back(page);
  seqs_.erase(it);
}

void KvCacheManager::reserve(int seq, std::size_t target_len) {
  Seq& s = seq_at(seq, "reserve");
  const std::size_t want = pages_for(target_len, options_.page_size);
  while (s.pages.size() < want) {
    if (!free_.empty()) {
      s.pages.push_back(free_.back());
      free_.pop_back();
    } else {
      pool_.push_back(std::make_unique<float[]>(page_floats()));
      s.pages.push_back(pool_.size() - 1);
    }
  }
}

std::size_t KvCacheManager::filled(int seq) const {
  return seq_at(seq, "filled").filled;
}

void KvCacheManager::append(int seq, const float* k_vec, const float* v_vec) {
  Seq& s = seq_at(seq, "append");
  check_arg(s.filled < s.pages.size() * options_.page_size,
            "KvCacheManager::append: position not reserved (reserve first)");
  float* page = pool_[s.pages[s.filled / options_.page_size]].get();
  const std::size_t slot = s.filled % options_.page_size;
  std::copy(k_vec, k_vec + hidden_, page + slot * hidden_);
  std::copy(v_vec, v_vec + hidden_,
            page + (options_.page_size + slot) * hidden_);
  ++s.filled;
}

const float* KvCacheManager::at(int seq, std::size_t pos, bool value,
                                const char* who) const {
  const Seq& s = seq_at(seq, who);
  if (pos >= s.filled)
    throw InvalidArgumentError(std::string("KvCacheManager::") + who +
                               ": position not filled");
  const float* page = pool_[s.pages[pos / options_.page_size]].get();
  const std::size_t slot = pos % options_.page_size;
  return page + (value ? (options_.page_size + slot) : slot) * hidden_;
}

const float* KvCacheManager::k_at(int seq, std::size_t pos) const {
  return at(seq, pos, /*value=*/false, "k_at");
}

const float* KvCacheManager::v_at(int seq, std::size_t pos) const {
  return at(seq, pos, /*value=*/true, "v_at");
}

void KvCacheManager::preempt(int seq) {
  Seq& s = seq_at(seq, "preempt");
  check_arg(!s.pages.empty(),
            "KvCacheManager::preempt: sequence holds no pages "
            "(double-preempt or never filled)");
  for (std::size_t page : s.pages) free_.push_back(page);
  s.pages.clear();
  s.filled = 0;
}

void KvCacheManager::truncate(int seq, std::size_t len) {
  Seq& s = seq_at(seq, "truncate");
  check_arg(len <= s.filled,
            "KvCacheManager::truncate: cannot truncate beyond filled");
  s.filled = len;
}

}  // namespace llmpq
