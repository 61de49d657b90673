#include "src/support/hash.h"

#include <algorithm>

namespace dexlego::support {

uint32_t adler32(std::span<const uint8_t> data) {
  constexpr uint32_t kMod = 65521;
  // zlib's deferred modulo: 5552 is the largest n for which
  // 255n(n+1)/2 + (n+1)(kMod-1) fits in 32 bits, so both sums can run that
  // many bytes unreduced even when every byte is 0xFF.
  constexpr size_t kNMax = 5552;
  uint32_t a = 1, b = 0;
  size_t i = 0;
  while (i < data.size()) {
    size_t end = i + std::min(kNMax, data.size() - i);
    for (; i < end; ++i) {
      a += data[i];
      b += a;
    }
    a %= kMod;
    b %= kMod;
  }
  return (b << 16) | a;
}

std::array<uint8_t, 20> sha1(std::span<const uint8_t> data) {
  // Straight FIPS 180-1 implementation: 512-bit blocks, 80-round compression.
  uint32_t h[5] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u,
                   0xc3d2e1f0u};
  // Message + 0x80 + zero pad + 64-bit bit length, padded to a block multiple.
  uint64_t bit_len = static_cast<uint64_t>(data.size()) * 8;
  size_t padded = ((data.size() + 8) / 64 + 1) * 64;
  auto byte_at = [&](size_t i) -> uint8_t {
    if (i < data.size()) return data[i];
    if (i == data.size()) return 0x80;
    if (i >= padded - 8) return static_cast<uint8_t>(bit_len >> (8 * (padded - 1 - i)));
    return 0;
  };
  auto rol = [](uint32_t v, int n) { return (v << n) | (v >> (32 - n)); };
  for (size_t block = 0; block < padded; block += 64) {
    uint32_t w[80];
    for (int t = 0; t < 16; ++t) {
      size_t i = block + static_cast<size_t>(t) * 4;
      w[t] = (static_cast<uint32_t>(byte_at(i)) << 24) |
             (static_cast<uint32_t>(byte_at(i + 1)) << 16) |
             (static_cast<uint32_t>(byte_at(i + 2)) << 8) |
             static_cast<uint32_t>(byte_at(i + 3));
    }
    for (int t = 16; t < 80; ++t) {
      w[t] = rol(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int t = 0; t < 80; ++t) {
      uint32_t f, k;
      if (t < 20) {
        f = (b & c) | (~b & d);
        k = 0x5a827999u;
      } else if (t < 40) {
        f = b ^ c ^ d;
        k = 0x6ed9eba1u;
      } else if (t < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8f1bbcdcu;
      } else {
        f = b ^ c ^ d;
        k = 0xca62c1d6u;
      }
      uint32_t tmp = rol(a, 5) + f + e + k + w[t];
      e = d;
      d = c;
      c = rol(b, 30);
      b = a;
      a = tmp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
  std::array<uint8_t, 20> digest;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) {
      digest[static_cast<size_t>(i * 4 + j)] =
          static_cast<uint8_t>(h[i] >> (24 - 8 * j));
    }
  }
  return digest;
}

namespace {
constexpr uint64_t kFnvPrime = 0x100000001b3ull;
}

uint64_t fnv1a(std::span<const uint8_t> data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t byte : data) {
    h ^= byte;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t fnv1a(std::string_view s) {
  return fnv1a(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()),
                                        s.size()));
}

void Fnv1a::add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= kFnvPrime;
  }
}

void Fnv1a::add_bytes(std::span<const uint8_t> data) {
  for (uint8_t byte : data) {
    h_ ^= byte;
    h_ *= kFnvPrime;
  }
}

}  // namespace dexlego::support
