#ifndef TUD_INFERENCE_INDEX_STEPS_H_
#define TUD_INFERENCE_INDEX_STEPS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/check.h"

namespace tud {

/// The index map from a bag's table index to the index of a factor or
/// message over a subset of the bag's vertices: bit j of the mapped
/// index is bit `bits[j]` of the table index.
///
/// The map is linear over GF(2), so in a sequential sweep going from
/// idx to idx + 1 flips a fixed set of mapped bits that depends only on
/// t = countr_zero(idx + 1): table bits 0..t flip, hence mapped bit j
/// flips iff bits[j] <= t. With step[t] that set of mapped bits, a
/// sweep over the whole table costs one XOR per cell however many bits
/// the map has:
///
///   m ^= step[countr_zero(idx + 1)]
///
/// Every per-cell index computation of the junction-tree plan runs
/// through this class: Fill expands gather tables at Build, ForEach
/// drives static fusion at Build and the wide-bag loops at Execute.
class IndexSteps {
 public:
  /// Table bits (and mapped bits) an index map may have.
  static constexpr size_t kMaxBits = 32;

  /// `bits` holds `count` distinct table bit positions, each < kMaxBits.
  IndexSteps(const uint8_t* bits, size_t count) {
    TUD_CHECK_LE(count, kMaxBits);
    uint32_t from[kMaxBits] = {};  // Mapped bits read from table bit t.
    for (size_t j = 0; j < count; ++j) {
      TUD_CHECK_LT(size_t{bits[j]}, kMaxBits);
      from[bits[j]] |= uint32_t{1} << j;
    }
    uint32_t acc = 0;
    for (size_t t = 0; t < kMaxBits; ++t) {
      acc |= from[t];
      step_[t] = acc;
    }
  }

  /// Calls f(idx, mapped index) for idx = 0 .. size - 1 in order.
  /// `size` is a power of two, at most 2^(kMaxBits - 1). A plain loop
  /// on purpose: the Execute kernels inline it into their wide-bag
  /// branches, and a larger body there slows their gather-table
  /// branches on small bags.
  template <typename F>
  void ForEach(size_t size, F&& f) const {
    uint32_t m = 0;
    for (size_t idx = 0; idx < size; ++idx) {
      f(idx, m);
      m ^= step_[std::countr_zero(idx + 1)];
    }
  }

  /// Writes the mapped index of every idx < size to out[idx] (size as
  /// for ForEach). Runs the
  /// recurrence once per block of 8 cells: inside a block the mapped
  /// index is the block's base XOR the map of the three low table bits,
  /// so the eight stores are independent and vectorise.
  void Fill(size_t size, uint32_t* out) const {
    if (size < kBlock) {
      ForEach(size, [out](size_t idx, uint32_t m) { out[idx] = m; });
      return;
    }
    uint32_t low[kBlock];
    ForEach(kBlock, [&low](size_t idx, uint32_t m) { low[idx] = m; });
    uint32_t base = 0;
    for (size_t blk = 0; blk < size; blk += kBlock) {
      for (size_t i = 0; i < kBlock; ++i) out[blk + i] = base ^ low[i];
      base ^= low[kBlock - 1] ^ step_[std::countr_zero(blk + kBlock)];
    }
  }

 private:
  static constexpr size_t kBlock = 8;

  uint32_t step_[kMaxBits];
};

}  // namespace tud

#endif  // TUD_INFERENCE_INDEX_STEPS_H_
