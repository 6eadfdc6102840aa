#include "bgp/prefix.hpp"

#include <charconv>
#include <stdexcept>

namespace spider::bgp {

namespace {
std::uint32_t mask_for(std::uint8_t length) {
  return length == 0 ? 0 : (length == 32 ? 0xffffffffu : ~((1u << (32 - length)) - 1));
}

std::uint32_t parse_octet(std::string_view text, std::size_t& pos) {
  std::uint32_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data() + pos, text.data() + text.size(), value);
  if (ec != std::errc{} || value > 255) throw std::invalid_argument("Prefix::parse: bad octet");
  pos = static_cast<std::size_t>(ptr - text.data());
  return value;
}
}  // namespace

Prefix::Prefix(std::uint32_t bits, std::uint8_t length) : length_(length) {
  if (length > 32) throw std::invalid_argument("Prefix: length > 32");
  bits_ = bits & mask_for(length);
}

Prefix Prefix::parse(std::string_view text) {
  std::size_t pos = 0;
  std::uint32_t addr = 0;
  for (int octet = 0; octet < 4; ++octet) {
    addr = (addr << 8) | parse_octet(text, pos);
    if (octet < 3) {
      if (pos >= text.size() || text[pos] != '.') throw std::invalid_argument("Prefix::parse: expected '.'");
      ++pos;
    }
  }
  if (pos >= text.size() || text[pos] != '/') throw std::invalid_argument("Prefix::parse: expected '/'");
  ++pos;
  std::uint32_t len = 0;
  auto [ptr, ec] = std::from_chars(text.data() + pos, text.data() + text.size(), len);
  if (ec != std::errc{} || len > 32 || ptr != text.data() + text.size()) {
    throw std::invalid_argument("Prefix::parse: bad length");
  }
  return Prefix(addr, static_cast<std::uint8_t>(len));
}

bool Prefix::contains(const Prefix& other) const {
  if (other.length_ < length_) return false;
  return (other.bits_ & mask_for(length_)) == bits_;
}

Prefix Prefix::last_contained() const { return Prefix(bits_ | ~mask_for(length_), 32); }

std::string Prefix::str() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u/%u", bits_ >> 24, (bits_ >> 16) & 0xff,
                (bits_ >> 8) & 0xff, bits_ & 0xff, length_);
  return buf;
}

void Prefix::encode(util::ByteWriter& w) const {
  w.u32(bits_);
  w.u8(length_);
}

Prefix Prefix::decode(util::ByteReader& r) {
  std::uint32_t bits = r.u32();
  std::uint8_t length = r.u8();
  if (length > 32) throw util::DecodeError("Prefix: length > 32");
  Prefix p(bits, length);
  if (p.bits() != bits) throw util::DecodeError("Prefix: non-canonical bits");
  return p;
}

}  // namespace spider::bgp
