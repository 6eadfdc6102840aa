// IPv4 prefixes, the keys of every routing table and of the MTT.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/serde.hpp"

namespace spider::bgp {

/// An IPv4 prefix: `length` leading bits of `bits` (host byte order); all
/// bits beyond `length` are kept zero, which makes comparison/total order
/// well-defined.  Length 0 (the default route) is valid.
class Prefix {
 public:
  Prefix() = default;
  /// Masks `bits` down to `length` bits. length must be <= 32.
  Prefix(std::uint32_t bits, std::uint8_t length);

  /// Parses "a.b.c.d/len"; throws std::invalid_argument on malformed input.
  static Prefix parse(std::string_view text);

  std::uint32_t bits() const { return bits_; }
  std::uint8_t length() const { return length_; }

  /// The i-th bit of the prefix (0 = most significant). i < length().
  bool bit(std::uint8_t i) const { return (bits_ >> (31 - i)) & 1u; }

  /// True when `other` is equal to or more specific than this prefix.
  bool contains(const Prefix& other) const;

  /// The greatest prefix this one contains, in Prefix order (bits, then
  /// length): the host bits all set, length 32.  Exactly the prefixes
  /// `contains` accepts sort in [*this, last_contained()] — a shorter
  /// prefix with the same bits sorts before *this, and a canonical prefix
  /// shorter than this one cannot have bits strictly inside the range.
  Prefix last_contained() const;

  std::string str() const;

  void encode(util::ByteWriter& w) const;
  static Prefix decode(util::ByteReader& r);

  auto operator<=>(const Prefix&) const = default;

 private:
  std::uint32_t bits_ = 0;
  std::uint8_t length_ = 0;
};

/// A begin/end pair usable in range-for.
template <typename It>
struct KeyRange {
  It first;
  It last;
  It begin() const { return first; }
  It end() const { return last; }
};

/// The entries of a Prefix-keyed ordered map whose keys lie inside
/// `within` (all entries for nullopt).  A subtree is one contiguous key
/// range (see last_contained), so this costs two lookups plus the
/// subtree's size, not a walk of the whole map.
template <typename Map>
auto subtree_of(Map& map, const std::optional<Prefix>& within) {
  using It = decltype(map.begin());
  if (!within) return KeyRange<It>{map.begin(), map.end()};
  return KeyRange<It>{map.lower_bound(*within), map.upper_bound(within->last_contained())};
}

}  // namespace spider::bgp
