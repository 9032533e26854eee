// FlatHashMap: growth, tombstone deletion, erase-during-iteration, and
// the iterator-free lookup path the simulator's hot paths use. SmallSet /
// SmallMap: inline-first storage that spills to the heap past N.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "common/flat_hash_map.hpp"
#include "common/small_map.hpp"

namespace neutrino {
namespace {

TEST(FlatHashMap, InsertLookupGrowth) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  constexpr std::uint64_t kN = 10'000;
  for (std::uint64_t k = 0; k < kN; ++k) {
    const auto [it, inserted] = m.try_emplace(k, k * 3);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(it->first, k);
  }
  EXPECT_EQ(m.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    const std::uint64_t* v = m.lookup(k);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k * 3);
  }
  EXPECT_EQ(m.lookup(kN + 1), nullptr);
  EXPECT_FALSE(m.contains(kN + 1));
  // Load factor stays under 7/8 through every doubling.
  EXPECT_GE(m.capacity() * 7, m.size() * 8);
}

TEST(FlatHashMap, TryEmplaceDoesNotOverwrite) {
  FlatHashMap<int, std::string> m;
  m.try_emplace(1, "first");
  const auto [it, inserted] = m.try_emplace(1, "second");
  EXPECT_FALSE(inserted);
  EXPECT_EQ(it->second, "first");
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMap, OperatorIndexDefaultConstructs) {
  FlatHashMap<int, int> m;
  EXPECT_EQ(m[7], 0);
  m[7] = 42;
  EXPECT_EQ(m[7], 42);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMap, EraseAndReinsertReusesTombstones) {
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m.try_emplace(k, 1);
  for (std::uint64_t k = 0; k < 100; k += 2) EXPECT_TRUE(m.erase(k));
  EXPECT_FALSE(m.erase(0));  // already gone
  EXPECT_EQ(m.size(), 50u);
  for (std::uint64_t k = 0; k < 100; k += 2) {
    EXPECT_FALSE(m.contains(k));
    m.try_emplace(k, 2);
  }
  EXPECT_EQ(m.size(), 100u);
  for (std::uint64_t k = 1; k < 100; k += 2) {
    ASSERT_TRUE(m.contains(k));  // odd keys survived the churn
    EXPECT_EQ(*m.lookup(k), 1);
  }
}

TEST(FlatHashMap, ChurnDoesNotGrowCapacityUnbounded) {
  // Steady-state insert/erase over a tiny live set: same-size rehashes
  // must purge tombstones instead of doubling forever.
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    m.try_emplace(i, 1);
    m.erase(i - (i >= 8 ? 8 : i));  // keep ~8 live
  }
  EXPECT_LE(m.size(), 9u);
  EXPECT_LE(m.capacity(), 64u);
}

TEST(FlatHashMap, ChurnKeepsProbeLengthsBounded) {
  // Regression for tombstone-occupancy drift: a steady working set under
  // heavy erase/insert churn used to accumulate tombstones between
  // rehashes, stretching probe chains toward the load-factor ceiling.
  // With trailing-tombstone reclamation and same-size purge rehashes,
  // chains stay near what a fresh table of this size would produce.
  FlatHashMap<std::uint64_t, int> m;
  constexpr std::uint64_t kLive = 256;
  for (std::uint64_t k = 0; k < kLive; ++k) m.try_emplace(k, 1);
  const std::size_t cap = m.capacity();
  for (std::uint64_t i = 0; i < 200'000; ++i) {
    ASSERT_TRUE(m.erase(i));
    m.try_emplace(i + kLive, 1);
    if (i % 4096 == 0) {
      ASSERT_LE(m.max_probe_length(), 32u) << "after " << i << " cycles";
    }
  }
  EXPECT_EQ(m.size(), kLive);
  EXPECT_LE(m.capacity(), cap * 2);
  EXPECT_LE(m.max_probe_length(), 32u);
}

TEST(FlatHashMap, IterationSeesExactlyLiveKeys) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  std::set<std::uint64_t> expect;
  for (std::uint64_t k = 0; k < 500; ++k) {
    m.try_emplace(k, k);
    expect.insert(k);
  }
  for (std::uint64_t k = 0; k < 500; k += 3) {
    m.erase(k);
    expect.erase(k);
  }
  std::set<std::uint64_t> seen;
  for (const auto& [k, v] : m) {
    EXPECT_EQ(k, v);
    EXPECT_TRUE(seen.insert(k).second) << "duplicate key " << k;
  }
  EXPECT_EQ(seen, expect);
}

TEST(FlatHashMap, EraseDuringIterationReturnsNextLive) {
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 200; ++k) m.try_emplace(k, k % 2 == 0);
  // The CTA failure-sweep idiom: erase matching entries while walking.
  for (auto it = m.begin(); it != m.end();) {
    if (it->second != 0) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(m.size(), 100u);
  for (std::uint64_t k = 0; k < 200; ++k) {
    EXPECT_EQ(m.contains(k), k % 2 != 0);
  }
}

TEST(FlatHashMap, FindReturnsEndForMissing) {
  FlatHashMap<int, int> m;
  EXPECT_TRUE(m.find(1) == m.end());  // pre-allocation
  m.try_emplace(1, 10);
  auto it = m.find(1);
  ASSERT_TRUE(it != m.end());
  EXPECT_EQ(it->second, 10);
  EXPECT_TRUE(m.find(2) == m.end());
}

TEST(FlatHashMap, ClearKeepsAllocationAndDropsValues) {
  FlatHashMap<int, std::shared_ptr<int>> m;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  m.try_emplace(1, std::move(token));
  for (int k = 2; k < 100; ++k) m.try_emplace(k, nullptr);
  const std::size_t cap = m.capacity();
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_TRUE(alive.expired());  // held resources released on clear
  m.try_emplace(1, nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMap, MoveOnlyValues) {
  FlatHashMap<int, std::unique_ptr<int>> m;
  for (int k = 0; k < 300; ++k) {  // enough to force rehashes
    m.try_emplace(k, std::make_unique<int>(k));
  }
  for (int k = 0; k < 300; ++k) {
    auto* v = m.lookup(k);
    ASSERT_NE(v, nullptr);
    ASSERT_NE(v->get(), nullptr);
    EXPECT_EQ(**v, k);
  }
  EXPECT_TRUE(m.erase(7));
  EXPECT_EQ(m.lookup(7), nullptr);
}

TEST(FlatHashMap, ReservePreventsRehash) {
  FlatHashMap<std::uint64_t, int> m;
  m.reserve(1000);
  const std::size_t cap = m.capacity();
  EXPECT_GE(cap * 7, 1000u * 8);
  int* first = nullptr;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    m.try_emplace(k, 5);
    if (k == 0) first = m.lookup(0);
  }
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.lookup(0), first);  // no rehash => pointers stayed stable
}

TEST(FlatHashMap, SequentialIdsDoNotCluster) {
  // StrongId keys hash as identity via std::hash; the mix64 finalizer must
  // spread them so sequential UE ids don't form one long probe chain.
  // Smoke-check: a full sequential fill still answers misses fast (probe
  // chains terminate at empties well before a full-table scan).
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < (1u << 14); ++k) m.try_emplace(k, 1);
  for (std::uint64_t k = 1u << 20; k < (1u << 20) + 1000; ++k) {
    EXPECT_FALSE(m.contains(k));
  }
}

TEST(SmallSet, SpillsPastInlineCapacityAndComesBack) {
  SmallSet<std::uint32_t, 2> s;
  for (std::uint32_t k = 0; k < 5; ++k) s.insert(k);
  s.insert(3);  // duplicate
  EXPECT_EQ(s.size(), 5u);
  for (std::uint32_t k = 0; k < 5; ++k) EXPECT_TRUE(s.contains(k));
  EXPECT_FALSE(s.contains(5));
  for (std::uint32_t k = 0; k < 5; k += 2) s.erase(k);
  s.erase(9);  // absent
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(1));
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(0));
  s.erase(1);
  s.erase(3);
  EXPECT_EQ(s.size(), 0u);
  s.insert(7);  // inline again
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(7));
}

TEST(SmallMap, IndexLookupEraseClearAcrossSpill) {
  SmallMap<std::uint32_t, std::uint64_t, 2> m;
  EXPECT_EQ(m.lookup(1), nullptr);
  EXPECT_EQ(m[1], 0u);  // value-initialized on first access
  for (std::uint32_t k = 0; k < 6; ++k) m[k] = 10 * k;
  for (std::uint32_t k = 0; k < 6; ++k) {
    ASSERT_NE(m.lookup(k), nullptr);
    EXPECT_EQ(*m.lookup(k), 10u * k);
  }
  m[4] = std::max<std::uint64_t>(m[4], 7);
  EXPECT_EQ(*m.lookup(4), 40u);
  m.erase(0);
  m.erase(5);
  EXPECT_EQ(m.lookup(0), nullptr);
  EXPECT_EQ(m.lookup(5), nullptr);
  EXPECT_EQ(*m.lookup(3), 30u);
  m.clear();
  for (std::uint32_t k = 0; k < 6; ++k) EXPECT_EQ(m.lookup(k), nullptr);
  m[2] = 5;
  EXPECT_EQ(*m.lookup(2), 5u);
}

}  // namespace
}  // namespace neutrino
