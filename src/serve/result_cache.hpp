// LRU result cache for the query service (docs/SERVING.md, "Result
// cache").
//
// Keyed by (graph fingerprint, source, canonical options string) so a
// hit is only possible for the *same* graph bytes and the same
// algorithm knobs — a server restarted onto a different graph, or a
// query with a different delta/set-point, can never be served a stale
// answer. Entries keep only what a response reads: the distances
// (32-bit words when every finite one fits), the wire checksum and
// three counters. Each entry is certified once, from the fresh result
// it is built from; a hit compares a word-at-a-time storage checksum
// taken at that moment, which is what catches the `serve.cache.flip`
// poisoning drill at read time.
//
// Thread-safety: lookup/insert/stats are mutex-guarded; entries are
// handed out as shared_ptr<const ...> so readers never race an
// eviction, and an entry never changes once it is stored. Capacity is
// a hard entry bound — with V-sized arrays per entry this is the
// server's dominant memory budget, and the eviction counter is how the
// chaos harness observes the bound holding.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/types.hpp"
#include "sssp/result.hpp"

namespace sssp::serve {

struct CacheKey {
  std::uint64_t fingerprint = 0;
  graph::VertexId source = 0;
  std::string options_key;  // canonical "algorithm:delta:set_point"

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept;
};

// Canonical options string (the cache-key third component).
std::string cache_options_key(const std::string& algorithm,
                              std::uint64_t delta, double set_point);

// The storage checksum: 8 bytes per step over a few independent lanes,
// folded together at the end. Each step is a bijection of the lane
// state for a fixed word and of the word for a fixed state, so two
// buffers of one length that differ in a single word always hash
// differently: every single-bit flip is caught.
std::uint64_t word_checksum(std::span<const std::uint64_t> words) noexcept;

// One cached answer, slimmed to what a response reads. Built once from
// a fresh result and never changed after (the serve.cache.flip drill
// corrupts a private copy before it is stored).
class CacheEntry {
 public:
  // Narrows `result`'s distances to 32-bit words when every finite one
  // is below 2^32 - 1 (UINT32_MAX then means infinity), else keeps them
  // 64-bit; computes the wire checksum and takes the storage checksum
  // over the stored words. `certified` records whether verify::certify
  // passed `result`.
  CacheEntry(const algo::SsspResult& result, bool certified);

  // FNV-1a 64 over the result's 64-bit distances: the wire value a
  // response carries, unchanged by the storage width.
  std::uint64_t dist_checksum() const noexcept { return dist_checksum_; }
  std::size_t reached() const noexcept { return reached_; }
  std::size_t iterations() const noexcept { return iterations_; }
  std::uint64_t improving_relaxations() const noexcept {
    return improving_relaxations_;
  }
  // True when the certifier passed the result this entry was built
  // from; false when verification was waived.
  bool certified() const noexcept { return certified_; }

  // Widened distance of `v` (kInfiniteDistance when unreached).
  graph::Distance distance(graph::VertexId v) const noexcept;

  // The stored buffer: two 32-bit distances per word (vertex 2k in the
  // low half) when narrow, one per word otherwise.
  std::span<const std::uint64_t> words() const noexcept { return words_; }
  // True while the stored words still hash to the storage checksum
  // taken when the entry was built. O(V / 2) word steps when narrow.
  bool intact() const noexcept;

 private:
  friend class ResultCache;  // byte accounting and the flip drill

  // Heap and object bytes, for the cache's byte bound.
  std::size_t bytes() const noexcept;

  std::vector<std::uint64_t> words_;
  std::size_t num_vertices_ = 0;
  bool narrow_ = true;
  std::uint64_t storage_checksum_ = 0;
  std::uint64_t dist_checksum_ = 0;
  std::size_t reached_ = 0;
  std::size_t iterations_ = 0;
  std::uint64_t improving_relaxations_ = 0;
  bool certified_ = false;
};

class ResultCache {
 public:
  // `capacity` bounds entries; `max_bytes` (0 = unbounded) additionally
  // bounds the summed size of the cached entries — the knob the
  // resource budget layer uses, since entry counts say nothing about
  // V-sized payloads. Either bound evicts from the LRU tail; an entry
  // larger than max_bytes on its own is effectively not cached.
  explicit ResultCache(std::size_t capacity, std::size_t max_bytes = 0);

  // Hit moves the entry to the front of the LRU order. With
  // `certified_only`, an entry stored with verification waived is a
  // miss: a verified query solves, certifies and replaces it.
  std::shared_ptr<const CacheEntry> lookup(const CacheKey& key,
                                           bool certified_only = false);

  // Inserts (or replaces) and evicts from the LRU tail past capacity.
  // Hosts the `serve.cache.flip` failpoint: when armed, one finite
  // distance in a private copy of the entry is bit-flipped after its
  // storage checksum was taken, before it is stored — subsequent hits
  // serve poisoned data that the read-side checksum must catch.
  void insert(const CacheKey& key, std::shared_ptr<const CacheEntry> entry);

  // Drops the entry if present (read-side poisoning quarantine).
  void invalidate(const CacheKey& key);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t inserts = 0;
    std::uint64_t invalidations = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;  // summed CacheEntry::bytes() of resident entries
  };
  Stats stats() const;

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t max_bytes() const noexcept { return max_bytes_; }

 private:
  struct Slot {
    CacheKey key;
    std::shared_ptr<const CacheEntry> entry;
    std::size_t bytes = 0;
  };

  void evict_tail_locked();

  const std::size_t capacity_;
  const std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  mutable std::mutex mu_;
  std::list<Slot> lru_;  // front = most recent
  std::unordered_map<CacheKey, std::list<Slot>::iterator, CacheKeyHash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace sssp::serve
