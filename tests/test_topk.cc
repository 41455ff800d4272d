/**
 * @file test_topk.cc
 * Tests for the bounded top-k accumulator: equivalence with
 * std::partial_sort under the Neighbor ordering, threshold semantics,
 * empty/duplicate-score edge cases, and agreement with the binary-heap
 * accumulator it replaced (kept here as a test oracle).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "retrieval/ann/topk.h"
#include "tests/testing/test_support.h"

namespace rago::ann {
namespace {

/// Reference implementation: sort all candidates, keep the first k.
std::vector<Neighbor> PartialSortTopK(std::vector<Neighbor> candidates,
                                      size_t k) {
  const size_t keep = std::min(k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + keep,
                    candidates.end());
  candidates.resize(keep);
  return candidates;
}

/// The max-heap accumulator TopK used to be: same admission rule
/// (strict Neighbor order against the worst kept), heap storage.
std::vector<Neighbor> HeapTopK(const std::vector<Neighbor>& candidates,
                               size_t k) {
  std::priority_queue<Neighbor> heap;
  for (const Neighbor& c : candidates) {
    if (heap.size() < k) {
      heap.push(c);
    } else if (c < heap.top()) {
      heap.pop();
      heap.push(c);
    }
  }
  std::vector<Neighbor> out;
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << "rank " << i;
  }
}

TEST(TopK, RejectsZeroK) {
  EXPECT_THROW(TopK(0), rago::ConfigError);
}

TEST(TopK, EmptyHeapTakesNothing) {
  TopK topk(5);
  EXPECT_EQ(topk.size(), 0u);
  EXPECT_EQ(topk.Threshold(), std::numeric_limits<float>::infinity());
  EXPECT_TRUE(topk.SortedTake().empty());
}

TEST(TopK, FewerCandidatesThanK) {
  TopK topk(10);
  topk.Push(3.0f, 7);
  topk.Push(1.0f, 9);
  const auto out = topk.SortedTake();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 9);
  EXPECT_EQ(out[1].id, 7);
}

using TopKSeeded = rago::testing::SeededTest;

TEST_F(TopKSeeded, MatchesPartialSortOnRandomStreams) {
  Rng& rng = this->rng();
  for (const size_t k : {1u, 3u, 10u, 64u}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<Neighbor> candidates;
      const size_t n = 1 + rng.NextBounded(500);
      for (size_t i = 0; i < n; ++i) {
        candidates.push_back(
            {static_cast<float>(rng.NextUniform(0.0, 100.0)),
             static_cast<int64_t>(i)});
      }
      TopK topk(k);
      for (const Neighbor& c : candidates) {
        topk.Push(c.dist, c.id);
      }
      const auto heap_result = topk.SortedTake();
      const auto reference = PartialSortTopK(candidates, k);
      ASSERT_EQ(heap_result.size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(heap_result[i].id, reference[i].id);
        EXPECT_EQ(heap_result[i].dist, reference[i].dist);
      }
    }
  }
}

TEST(TopK, MatchesPartialSortWithDuplicateScores) {
  // Heavily quantized distances force tie-breaks at the admission
  // boundary; the heap must agree with the Neighbor ordering (lower id
  // wins) regardless of push order.
  Rng rng(99);
  std::vector<Neighbor> candidates;
  for (int64_t i = 0; i < 200; ++i) {
    candidates.push_back(
        {static_cast<float>(rng.NextBounded(5)), i});
  }
  for (const size_t k : {1u, 7u, 50u}) {
    TopK topk(k);
    for (const Neighbor& c : candidates) {
      topk.Push(c.dist, c.id);
    }
    const auto heap_result = topk.SortedTake();
    const auto reference = PartialSortTopK(candidates, k);
    ASSERT_EQ(heap_result.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(heap_result[i].id, reference[i].id) << "k=" << k;
      EXPECT_EQ(heap_result[i].dist, reference[i].dist) << "k=" << k;
    }
  }
}

TEST(TopK, ResultIndependentOfPushOrder) {
  std::vector<Neighbor> candidates = {
      {2.0f, 0}, {2.0f, 1}, {2.0f, 2}, {1.0f, 3}, {3.0f, 4}, {2.0f, 5}};
  std::vector<Neighbor> expected;
  {
    TopK topk(3);
    for (const Neighbor& c : candidates) {
      topk.Push(c.dist, c.id);
    }
    expected = topk.SortedTake();
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Neighbor& a, const Neighbor& b) { return b < a; });
  TopK reversed(3);
  for (const Neighbor& c : candidates) {
    reversed.Push(c.dist, c.id);
  }
  const auto out = reversed.SortedTake();
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out[i].id, expected[i].id);
    EXPECT_EQ(out[i].dist, expected[i].dist);
  }
}

TEST(TopK, ThresholdTracksWorstKept) {
  TopK topk(2);
  EXPECT_EQ(topk.Threshold(), std::numeric_limits<float>::infinity());
  topk.Push(4.0f, 1);
  EXPECT_EQ(topk.Threshold(), std::numeric_limits<float>::infinity());
  topk.Push(2.0f, 2);
  EXPECT_EQ(topk.Threshold(), 4.0f);
  topk.Push(1.0f, 3);  // Evicts 4.0.
  EXPECT_EQ(topk.Threshold(), 2.0f);
  topk.Push(9.0f, 4);  // Rejected.
  EXPECT_EQ(topk.Threshold(), 2.0f);
}

TEST(TopK, SortedTakeEmptiesTheHeap) {
  TopK topk(3);
  topk.Push(1.0f, 1);
  topk.Push(2.0f, 2);
  EXPECT_EQ(topk.size(), 2u);
  EXPECT_EQ(topk.SortedTake().size(), 2u);
  EXPECT_EQ(topk.size(), 0u);
  EXPECT_TRUE(topk.SortedTake().empty());
}

TEST(TopK, ReusableAfterSortedTake) {
  Rng rng(7);
  TopK topk(4);
  for (int round = 0; round < 3; ++round) {
    std::vector<Neighbor> candidates;
    for (int64_t i = 0; i < 40; ++i) {
      candidates.push_back(
          {static_cast<float>(rng.NextUniform(0.0, 10.0)), i});
    }
    for (const Neighbor& c : candidates) {
      topk.Push(c.dist, c.id);
    }
    // Each round sees only its own candidates.
    ExpectSameNeighbors(topk.SortedTake(), PartialSortTopK(candidates, 4));
    EXPECT_EQ(topk.size(), 0u);
    EXPECT_EQ(topk.Threshold(), std::numeric_limits<float>::infinity());
  }
}

TEST(TopK, DuplicatePairsKeptExactlyAsTheHeapKeptThem) {
  // Exact (dist, id) repeats: both accumulators admit a repeat while
  // filling and reject one equal to the worst kept once full.
  Rng rng(123);
  for (const size_t k : {1u, 2u, 5u, 16u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<Neighbor> candidates;
      for (int i = 0; i < 60; ++i) {
        candidates.push_back({static_cast<float>(rng.NextBounded(3)),
                              static_cast<int64_t>(rng.NextBounded(4))});
      }
      TopK topk(k);
      for (const Neighbor& c : candidates) {
        topk.Push(c.dist, c.id);
      }
      ExpectSameNeighbors(topk.SortedTake(), HeapTopK(candidates, k));
    }
  }
}

TEST(TopK, KLargerThanCandidateCountReturnsAllSorted) {
  Rng rng(5);
  std::vector<Neighbor> candidates;
  for (int64_t i = 0; i < 1500; ++i) {
    candidates.push_back(
        {static_cast<float>(rng.NextUniform(0.0, 1.0)), i});
  }
  for (const size_t k : {size_t{1501}, size_t{4096}, size_t{1} << 40}) {
    TopK topk(k);
    for (const Neighbor& c : candidates) {
      topk.Push(c.dist, c.id);
    }
    EXPECT_EQ(topk.Threshold(), std::numeric_limits<float>::infinity());
    ExpectSameNeighbors(topk.SortedTake(), HeapTopK(candidates, k));
  }
}

}  // namespace
}  // namespace rago::ann
