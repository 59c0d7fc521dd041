#include "serve/result_cache.hpp"

#include <bit>
#include <sstream>

#include "fault/failpoint.hpp"
#include "graph/binary_io.hpp"

namespace sssp::serve {

std::size_t CacheKeyHash::operator()(const CacheKey& key) const noexcept {
  // FNV-1a over the three components; the options key is short.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  mix(&key.fingerprint, sizeof key.fingerprint);
  mix(&key.source, sizeof key.source);
  mix(key.options_key.data(), key.options_key.size());
  return static_cast<std::size_t>(h);
}

std::string cache_options_key(const std::string& algorithm,
                              std::uint64_t delta, double set_point) {
  std::ostringstream key;
  key << algorithm << ":" << delta << ":" << set_point;
  return key.str();
}

namespace {

constexpr std::uint64_t kNarrowInfinity = 0xFFFFFFFFULL;

// One checksum step: xor, multiply by an odd constant, rotate — each a
// bijection, so the step is one in the state for a fixed word and in
// the word for a fixed state.
std::uint64_t checksum_step(std::uint64_t state, std::uint64_t word) noexcept {
  return std::rotl((state ^ word) * 0x9E3779B97F4A7C15ULL, 29);
}

}  // namespace

std::uint64_t word_checksum(std::span<const std::uint64_t> words) noexcept {
  // Independent lanes keep several multiplies in flight; word i always
  // goes to lane i % kLanes, so a single changed word changes exactly
  // one lane, and the fold below is a bijection in each lane.
  constexpr std::size_t kLanes = 4;
  std::uint64_t lane[kLanes] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                                0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  const std::size_t n = words.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    for (std::size_t l = 0; l < kLanes; ++l)
      lane[l] = checksum_step(lane[l], words[i + l]);
  for (; i < n; ++i)
    lane[i % kLanes] = checksum_step(lane[i % kLanes], words[i]);
  std::uint64_t h = n;
  for (const std::uint64_t value : lane) h = checksum_step(h, value);
  return h;
}

CacheEntry::CacheEntry(const algo::SsspResult& result, bool certified)
    : num_vertices_(result.distances.size()),
      dist_checksum_(graph::fnv1a64(
          result.distances.data(),
          result.distances.size() * sizeof(graph::Distance))),
      iterations_(result.num_iterations()),
      improving_relaxations_(result.improving_relaxations),
      certified_(certified) {
  const std::vector<graph::Distance>& dist = result.distances;
  for (const graph::Distance d : dist) {
    if (d == graph::kInfiniteDistance) continue;
    ++reached_;
    if (d >= kNarrowInfinity) narrow_ = false;
  }
  if (narrow_) {
    words_.assign((dist.size() + 1) / 2, 0);
    for (std::size_t v = 0; v < dist.size(); ++v) {
      const std::uint64_t word =
          dist[v] == graph::kInfiniteDistance ? kNarrowInfinity : dist[v];
      words_[v / 2] |= word << (32 * (v % 2));
    }
  } else {
    words_.assign(dist.begin(), dist.end());
  }
  storage_checksum_ = word_checksum(words_);
}

graph::Distance CacheEntry::distance(graph::VertexId v) const noexcept {
  if (!narrow_) return words_[v];
  const std::uint64_t word =
      (words_[v / 2] >> (32 * (v % 2))) & kNarrowInfinity;
  return word == kNarrowInfinity ? graph::kInfiniteDistance : word;
}

bool CacheEntry::intact() const noexcept {
  return word_checksum(words_) == storage_checksum_;
}

std::size_t CacheEntry::bytes() const noexcept {
  return sizeof(CacheEntry) + words_.capacity() * sizeof(std::uint64_t);
}

ResultCache::ResultCache(std::size_t capacity, std::size_t max_bytes)
    : capacity_(capacity), max_bytes_(max_bytes) {}

void ResultCache::evict_tail_locked() {
  while (!lru_.empty() &&
         (lru_.size() > capacity_ ||
          (max_bytes_ != 0 && bytes_ > max_bytes_))) {
    bytes_ -= lru_.back().bytes;
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const CacheEntry> ResultCache::lookup(const CacheKey& key,
                                                     bool certified_only) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end() ||
      (certified_only && !it->second->entry->certified())) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->entry;
}

void ResultCache::insert(const CacheKey& key,
                         std::shared_ptr<const CacheEntry> entry) {
  if (capacity_ == 0 || entry == nullptr) return;

  // Cache-poisoning drill: store a copy with one finite distance
  // bit-flipped. The copy keeps the storage checksum taken when the
  // entry was built, so the corruption is latent until a read-side
  // checksum comparison exposes it.
  if (SSSP_FAILPOINT("serve.cache.flip")) {
    auto poisoned = std::make_shared<CacheEntry>(*entry);
    const bool narrow = poisoned->narrow_;
    for (std::size_t v = poisoned->num_vertices_ / 2;
         v < poisoned->num_vertices_; ++v) {
      if (poisoned->distance(static_cast<graph::VertexId>(v)) ==
          graph::kInfiniteDistance)
        continue;
      poisoned->words_[narrow ? v / 2 : v] ^= std::uint64_t{1}
                                              << (narrow ? 32 * (v % 2) : 0);
      break;
    }
    entry = std::move(poisoned);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = map_.find(key); it != map_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    map_.erase(it);
  }
  const std::size_t size = entry->bytes();
  lru_.push_front(Slot{key, std::move(entry), size});
  bytes_ += size;
  map_[key] = lru_.begin();
  ++inserts_;
  evict_tail_locked();
}

void ResultCache::invalidate(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return;
  bytes_ -= it->second->bytes;
  lru_.erase(it->second);
  map_.erase(it);
  ++invalidations_;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.inserts = inserts_;
  stats.invalidations = invalidations_;
  stats.entries = lru_.size();
  stats.bytes = bytes_;
  return stats;
}

}  // namespace sssp::serve
