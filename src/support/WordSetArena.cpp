//===- support/WordSetArena.cpp - Flat hashed set of word strings ---------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/WordSetArena.h"

#include <algorithm>
#include <cassert>

using namespace cable;

WordSetArena::WordSetArena(size_t WordsPerKey, size_t ExpectedKeys)
    : W(WordsPerKey) {
  size_t NumSlots = 1024;
  while (NumSlots < 2 * ExpectedKeys)
    NumSlots *= 2;
  Slots.assign(NumSlots, npos);
  Words.reserve(ExpectedKeys * W);
}

std::pair<uint32_t, bool> WordSetArena::insert(const uint64_t *Key) {
  if (2 * (Count + 1) > Slots.size())
    grow();
  size_t Mask = Slots.size() - 1;
  for (size_t I = hash(Key) & Mask;; I = (I + 1) & Mask) {
    if (Slots[I] == npos) {
      assert(Count < npos && "word set index overflow");
      Slots[I] = static_cast<uint32_t>(Count++);
      Words.insert(Words.end(), Key, Key + W);
      return {Slots[I], true};
    }
    if (equalAt(Slots[I], Key))
      return {Slots[I], false};
  }
}

uint32_t WordSetArena::find(const uint64_t *Key) const {
  size_t Mask = Slots.size() - 1;
  for (size_t I = hash(Key) & Mask;; I = (I + 1) & Mask) {
    // The table is never full, so a probe always meets an empty slot.
    if (Slots[I] == npos || equalAt(Slots[I], Key))
      return Slots[I];
  }
}

/// FNV-1a over the words, then a 64-bit finalizer. FNV's multiply only
/// carries bits upward, so without the finalizer the low bits the table
/// mask keeps would depend only on the low bits of each word: for sets of
/// labeled objects, only on whether the first few objects are labeled.
uint64_t WordSetArena::hash(const uint64_t *Key) const {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I < W; ++I)
    H = (H ^ Key[I]) * 0x100000001b3ULL;
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdULL;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ULL;
  H ^= H >> 33;
  return H;
}

bool WordSetArena::equalAt(uint32_t I, const uint64_t *Key) const {
  return std::equal(Key, Key + W, key(I));
}

/// Doubles the table and re-indexes every stored key.
void WordSetArena::grow() {
  Slots.assign(2 * Slots.size(), npos);
  size_t Mask = Slots.size() - 1;
  for (size_t K = 0; K < Count; ++K) {
    size_t I = hash(key(K)) & Mask;
    while (Slots[I] != npos)
      I = (I + 1) & Mask;
    Slots[I] = static_cast<uint32_t>(K);
  }
}
