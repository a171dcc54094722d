//===- support/WordSetArena.h - Flat hashed set of word strings -*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set of bit sets over one universe, each stored as the same number of
/// 64-bit words. Keys sit back to back in one flat arena in insertion
/// order, so a key's index is its insertion rank, and are found through an
/// open-addressing table of arena indices kept at most half full.
/// Inserting a key copies its words; nothing is allocated per key beyond
/// the arena's and the table's amortized growth. find() never writes, so
/// any number of threads may look keys up once insertion is over.
///
/// Users: the Optimal labeling search (visited set and FIFO queue in one)
/// and the cover search's intent-to-node index.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_WORDSETARENA_H
#define CABLE_SUPPORT_WORDSETARENA_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cable {

class WordSetArena {
public:
  /// find()'s answer for an absent key.
  static constexpr uint32_t npos = ~uint32_t(0);

  /// An empty set of keys of \p WordsPerKey words, with table room for
  /// \p ExpectedKeys of them before the first rehash.
  explicit WordSetArena(size_t WordsPerKey, size_t ExpectedKeys = 0);

  /// Number of keys stored.
  size_t size() const { return Count; }

  /// The words of key \p I (valid until the next insert).
  const uint64_t *key(size_t I) const { return Words.data() + I * W; }

  /// Appends \p Key unless an equal key is stored. Returns the key's index
  /// and whether it was new.
  std::pair<uint32_t, bool> insert(const uint64_t *Key);

  /// The index of \p Key, or npos.
  uint32_t find(const uint64_t *Key) const;

private:
  uint64_t hash(const uint64_t *Key) const;
  bool equalAt(uint32_t I, const uint64_t *Key) const;
  void grow();

  size_t W;
  size_t Count = 0;
  std::vector<uint64_t> Words;
  std::vector<uint32_t> Slots;
};

} // namespace cable

#endif // CABLE_SUPPORT_WORDSETARENA_H
