// IndexSteps, the one per-cell index routine of the junction-tree plan
// (gather tables, static fusion, wide-bag Execute loops), against the
// naive per-bit formula it replaces: bit j of the mapped index is bit
// bits[j] of the table index. The plan's own bit-loop test hooks run
// the same routine, so this is their independent oracle.

#include "inference/index_steps.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace tud {
namespace {

uint32_t NaiveIndex(size_t idx, const std::vector<uint8_t>& bits) {
  uint32_t m = 0;
  for (size_t j = 0; j < bits.size(); ++j) {
    m |= static_cast<uint32_t>((idx >> bits[j]) & 1u) << j;
  }
  return m;
}

// Sweeps a 2^k table with ForEach and with Fill, and checks every
// (idx, mapped) pair against the naive formula, and that ForEach visits
// 0 .. 2^k - 1 exactly once, in order.
void ExpectMatchesNaive(const std::vector<uint8_t>& bits, uint32_t k) {
  const size_t size = size_t{1} << k;
  const IndexSteps steps(bits.data(), bits.size());
  size_t next = 0;
  size_t out_of_order = 0;
  size_t mismatches = 0;
  steps.ForEach(size, [&](size_t idx, uint32_t m) {
    if (idx != next) ++out_of_order;
    ++next;
    if (m != NaiveIndex(idx, bits)) ++mismatches;
  });
  EXPECT_EQ(next, size);
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_EQ(mismatches, 0u) << "ForEach k=" << k << " bits=" << bits.size();

  // One guard cell past the end: Fill writes exactly `size` entries.
  std::vector<uint32_t> filled(size + 1, 0xdeadbeef);
  steps.Fill(size, filled.data());
  size_t fill_mismatches = 0;
  for (size_t idx = 0; idx < size; ++idx) {
    if (filled[idx] != NaiveIndex(idx, bits)) ++fill_mismatches;
  }
  EXPECT_EQ(fill_mismatches, 0u) << "Fill k=" << k << " bits=" << bits.size();
  EXPECT_EQ(filled[size], 0xdeadbeefu);
}

TEST(IndexStepsTest, EmptyBitListMapsEverythingToZero) {
  for (uint32_t k : {0u, 1u, 2u, 3u, 4u, 11u}) ExpectMatchesNaive({}, k);
}

TEST(IndexStepsTest, ZeroBitTableHasOneCell) {
  // k = 0: a single cell, index 0, whatever the (out-of-table) bits.
  ExpectMatchesNaive({}, 0);
  ExpectMatchesNaive({0}, 0);
  ExpectMatchesNaive({2, 5}, 0);
}

TEST(IndexStepsTest, AllBitsInOrderIsTheIdentity) {
  for (uint32_t k = 0; k <= 20; ++k) {
    std::vector<uint8_t> bits(k);
    std::iota(bits.begin(), bits.end(), 0);
    ExpectMatchesNaive(bits, k);
    size_t off = 0;
    IndexSteps(bits.data(), bits.size())
        .ForEach(size_t{1} << k, [&](size_t idx, uint32_t m) {
          if (m != idx) ++off;
        });
    EXPECT_EQ(off, 0u) << "k=" << k;
  }
}

TEST(IndexStepsTest, AllBitsPermuted) {
  Rng rng(3);
  for (uint32_t k = 1; k <= 12; ++k) {
    std::vector<uint8_t> bits(k);
    std::iota(bits.begin(), bits.end(), 0);
    for (size_t i = k; i-- > 1;) {
      std::swap(bits[i], bits[rng.UniformInt(i + 1)]);
    }
    ExpectMatchesNaive(bits, k);
  }
}

TEST(IndexStepsTest, NonContiguousSets) {
  ExpectMatchesNaive({1, 4, 9}, 10);
  ExpectMatchesNaive({9, 1, 4}, 10);  // Static-factor scopes are unsorted.
  ExpectMatchesNaive({0, 2}, 3);
  // Fill handles the three low table bits inside each block of eight
  // cells and the higher ones between blocks.
  ExpectMatchesNaive({2}, 3);          // Only a block's top bit.
  ExpectMatchesNaive({3}, 4);          // Only the first between-block bit.
  ExpectMatchesNaive({0, 1, 2}, 17);   // Only in-block bits.
  ExpectMatchesNaive({3, 8, 16}, 17);  // Only between-block bits.
}

TEST(IndexStepsTest, BitsOutsideTheTableReadAsZero) {
  ExpectMatchesNaive({0, 7, 2}, 3);
  ExpectMatchesNaive({12, 31}, 5);
}

TEST(IndexStepsTest, RandomSubsetsUpToTwentyBits) {
  Rng rng(20);
  for (uint32_t k = 0; k <= 20; ++k) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<uint8_t> bits;
      for (uint32_t b = 0; b < k; ++b) {
        if (rng.UniformInt(2) == 1) bits.push_back(static_cast<uint8_t>(b));
      }
      for (size_t i = bits.size(); i-- > 1;) {
        std::swap(bits[i], bits[rng.UniformInt(i + 1)]);
      }
      ExpectMatchesNaive(bits, k);
    }
  }
}

}  // namespace
}  // namespace tud
