#include "serve/result_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "fault/failpoint.hpp"
#include "graph/binary_io.hpp"
#include "graph/builder.hpp"
#include "sssp/dijkstra.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::serve {
namespace {

using algo::testing::ring;

CacheKey key(std::uint64_t fingerprint, graph::VertexId source) {
  CacheKey k;
  k.fingerprint = fingerprint;
  k.source = source;
  k.options_key = cache_options_key("near-far", 0, 0.0);
  return k;
}

std::shared_ptr<const CacheEntry> entry_for(const graph::CsrGraph& g,
                                            graph::VertexId source) {
  return std::make_shared<const CacheEntry>(algo::dijkstra(g, source),
                                            /*certified=*/true);
}

// A path whose every edge weighs `weight`. With 0xFFFFFFFF, dist(1) =
// 2^32 - 1 already does not fit a 32-bit word (that value marks
// infinity), so its entries keep 64-bit distances.
graph::CsrGraph path(graph::VertexId n, graph::Weight weight = 0xFFFFFFFFu) {
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 0; v + 1 < n; ++v)
    edges.push_back({v, v + 1, weight});
  return graph::build_csr(n, std::move(edges));
}

TEST(ResultCacheTest, HitAfterInsert) {
  const auto g = ring(32);
  ResultCache cache(4);
  EXPECT_EQ(cache.lookup(key(1, 0)), nullptr);
  cache.insert(key(1, 0), entry_for(g, 0));
  const auto hit = cache.lookup(key(1, 0));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->distance(5), 5u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  const auto g = ring(32);
  ResultCache cache(2);
  cache.insert(key(1, 0), entry_for(g, 0));
  cache.insert(key(1, 1), entry_for(g, 1));
  // Touch 0 so 1 becomes the LRU victim.
  ASSERT_NE(cache.lookup(key(1, 0)), nullptr);
  cache.insert(key(1, 2), entry_for(g, 2));
  EXPECT_NE(cache.lookup(key(1, 0)), nullptr);
  EXPECT_EQ(cache.lookup(key(1, 1)), nullptr);  // evicted
  EXPECT_NE(cache.lookup(key(1, 2)), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCacheTest, CapacityIsAHardBound) {
  const auto g = ring(32);
  ResultCache cache(3);
  for (graph::VertexId s = 0; s < 20; ++s)
    cache.insert(key(1, s), entry_for(g, s));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 17u);
}

TEST(ResultCacheTest, FingerprintMismatchNeverHits) {
  const auto g = ring(32);
  ResultCache cache(4);
  cache.insert(key(0xAAAA, 0), entry_for(g, 0));
  // Same source and options on a *different graph's* fingerprint — a
  // restarted server must never serve the old graph's answer.
  EXPECT_EQ(cache.lookup(key(0xBBBB, 0)), nullptr);
  EXPECT_NE(cache.lookup(key(0xAAAA, 0)), nullptr);
}

TEST(ResultCacheTest, OptionsAreSeparateEntries) {
  const auto g = ring(32);
  ResultCache cache(4);
  CacheKey nf = key(1, 0);
  CacheKey ds = key(1, 0);
  ds.options_key = cache_options_key("delta-stepping", 16, 0.0);
  cache.insert(nf, entry_for(g, 0));
  EXPECT_EQ(cache.lookup(ds), nullptr);
  EXPECT_NE(cache.lookup(nf), nullptr);
}

TEST(ResultCacheTest, InvalidateRemoves) {
  const auto g = ring(32);
  ResultCache cache(4);
  cache.insert(key(1, 0), entry_for(g, 0));
  cache.invalidate(key(1, 0));
  EXPECT_EQ(cache.lookup(key(1, 0)), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  cache.invalidate(key(1, 0));  // absent: a no-op, not a count
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching) {
  const auto g = ring(32);
  ResultCache cache(0);
  cache.insert(key(1, 0), entry_for(g, 0));
  EXPECT_EQ(cache.lookup(key(1, 0)), nullptr);
}

// The cache-poisoning drill: with serve.cache.flip armed, the stored
// copy has one finite distance bit-flipped after its storage checksum
// was taken, while the producer-computed wire checksum is untouched —
// so the read-side checksum comparison must catch it. This is the
// in-vitro version of what the server's cache-hit path does.
TEST(ResultCacheTest, PoisonedInsertIsCaughtOnRead) {
  const auto g = ring(64);
  ResultCache cache(4);
  const auto clean = entry_for(g, 0);
  fault::FailpointRegistry::global().arm("serve.cache.flip");
  cache.insert(key(1, 0), clean);
  fault::FailpointRegistry::global().disarm_all();

  const auto poisoned = cache.lookup(key(1, 0));
  ASSERT_NE(poisoned, nullptr);
  // The caller's copy was not mutated — only the stored one, in exactly
  // one finite distance.
  EXPECT_TRUE(clean->intact());
  std::size_t differing = 0;
  for (graph::VertexId v = 0; v < 64; ++v)
    differing += poisoned->distance(v) != clean->distance(v) ? 1 : 0;
  EXPECT_EQ(differing, 1u);
  EXPECT_EQ(poisoned->dist_checksum(), clean->dist_checksum());
  // The storage checksum catches the flip.
  EXPECT_FALSE(poisoned->intact());
}

// Byte bound (docs/ROBUSTNESS.md, "Resource budgets & exhaustion"):
// entry counts say nothing about V-sized payloads, so the cache also
// enforces a summed-bytes cap, evicting from the LRU tail.
TEST(ResultCacheTest, ByteBudgetEvictsFromTheTail) {
  const auto g = ring(64);
  // Size one ring-64 entry as the cache counts it; three entries fit
  // comfortably, five do not.
  std::size_t one_entry = 0;
  {
    ResultCache probe(1);
    probe.insert(key(1, 0), entry_for(g, 0));
    one_entry = probe.stats().bytes;
  }
  ASSERT_GT(one_entry, 0u);
  ResultCache cache(100, 3 * one_entry + one_entry / 2);
  for (graph::VertexId s = 0; s < 5; ++s)
    cache.insert(key(1, s), entry_for(g, s));
  const auto stats = cache.stats();
  EXPECT_LE(stats.bytes, 3 * one_entry + one_entry / 2);
  EXPECT_LT(stats.entries, 5u) << "byte bound never evicted";
  EXPECT_GT(stats.evictions, 0u);
  // Newest entries survive; the oldest were evicted.
  EXPECT_NE(cache.lookup(key(1, 4)), nullptr);
  EXPECT_EQ(cache.lookup(key(1, 0)), nullptr);
}

TEST(ResultCacheTest, BytesAccountingFollowsInsertAndInvalidate) {
  const auto g = ring(32);
  ResultCache cache(8, 1 << 20);
  EXPECT_EQ(cache.stats().bytes, 0u);
  cache.insert(key(1, 0), entry_for(g, 0));
  const std::size_t after_one = cache.stats().bytes;
  EXPECT_GT(after_one, 0u);
  cache.insert(key(1, 1), entry_for(g, 1));
  EXPECT_EQ(cache.stats().bytes, 2 * after_one);
  // Replacing an entry must not double-count it.
  cache.insert(key(1, 0), entry_for(g, 0));
  EXPECT_EQ(cache.stats().bytes, 2 * after_one);
  cache.invalidate(key(1, 0));
  cache.invalidate(key(1, 1));
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// Concurrent hits, inserts, and evictions on a small cache: entries are
// handed out as shared_ptr<const>, so readers must never race an
// eviction. Run under TSan in CI.
TEST(ResultCacheTest, ConcurrentHitInsertEvict) {
  const auto g = ring(32);
  ResultCache cache(4);
  std::vector<std::shared_ptr<const CacheEntry>> entries;
  for (graph::VertexId s = 0; s < 8; ++s) entries.push_back(entry_for(g, s));

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &entries, t] {
      for (int i = 0; i < 400; ++i) {
        const auto s = static_cast<graph::VertexId>((i + t) % 8);
        if ((i + t) % 3 == 0) {
          cache.insert(key(1, s), entries[s]);
        } else if (const auto hit = cache.lookup(key(1, s)); hit != nullptr) {
          // Touch the payload: a use-after-evict would trip TSan/ASan.
          EXPECT_EQ(hit->distance(s), 0u);  // source's own distance
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.stats();
  EXPECT_LE(stats.entries, 4u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

// Entries keep 32-bit words when every finite distance fits and 64-bit
// ones otherwise — 2^32 - 2 is the largest that fits — and either way
// they read back exactly, with the wire checksum over the 64-bit
// distances and the solve's counters.
TEST(ResultCacheTest, EntriesNarrowOnlyWhenEveryDistanceFits) {
  // The random graph leaves some vertices unreached, so infinity makes
  // the 32-bit round trip too.
  const auto random = algo::testing::random_graph(257, 3.0, 1000, 7);
  const auto largest_narrow = path(2, 0xFFFFFFFEu);
  const auto smallest_wide = path(2);
  const auto wide = path(9);
  const struct {
    const graph::CsrGraph* graph;
    bool wide;
  } cases[] = {{&random, false},
               {&largest_narrow, false},
               {&smallest_wide, true},
               {&wide, true}};
  for (const auto& c : cases) {
    const algo::SsspResult result = algo::dijkstra(*c.graph, 0);
    const std::size_t n = c.graph->num_vertices();
    const CacheEntry entry(result, /*certified=*/false);
    ASSERT_EQ(entry.words().size(), c.wide ? n : (n + 1) / 2) << n;
    for (graph::VertexId v = 0; v < n; ++v)
      EXPECT_EQ(entry.distance(v), result.distances[v]) << v;
    EXPECT_EQ(entry.dist_checksum(),
              graph::fnv1a64(result.distances.data(),
                             result.distances.size() *
                                 sizeof(graph::Distance)));
    EXPECT_EQ(entry.reached(), result.reached_count());
    EXPECT_EQ(entry.iterations(), result.num_iterations());
    EXPECT_EQ(entry.improving_relaxations(), result.improving_relaxations);
    EXPECT_FALSE(entry.certified());
    EXPECT_TRUE(entry.intact());
  }
  ASSERT_LT(algo::dijkstra(random, 0).reached_count(), random.num_vertices());
}

// Every single-bit flip of a stored buffer changes the storage
// checksum, at both widths (exhaustive over every bit of each buffer).
TEST(ResultCacheTest, StorageChecksumCatchesEverySingleBitFlip) {
  const auto narrow_graph = ring(11);  // odd: the last word is half used
  const auto wide_graph = path(7);
  for (const graph::CsrGraph* g : {&narrow_graph, &wide_graph}) {
    const CacheEntry entry(algo::dijkstra(*g, 0), /*certified=*/true);
    const std::uint64_t stored = word_checksum(entry.words());
    std::vector<std::uint64_t> words(entry.words().begin(),
                                     entry.words().end());
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (int bit = 0; bit < 64; ++bit) {
        words[w] ^= std::uint64_t{1} << bit;
        EXPECT_NE(word_checksum(words), stored) << "word " << w << " bit "
                                                << bit;
        words[w] ^= std::uint64_t{1} << bit;
      }
    }
    EXPECT_EQ(word_checksum(words), stored);
  }
}

}  // namespace
}  // namespace sssp::serve
