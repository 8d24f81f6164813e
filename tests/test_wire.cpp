/// Wire-codec layer hardening (runtime/wire.hpp): round-trips for every
/// message class under every precision x index-codec combination (and,
/// through Auto, every private index-section encoding),
/// adversarial support shapes, corrupt-message rejection (truncation,
/// trailing garbage, tampered headers), quantization error bounds, the
/// idempotence the multi-hop rings rely on, and the chunk-invariant
/// totals of the row-support messages. These tests also pin the
/// encode/decode/words triples for dsk_lint's P1 protocol account.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "runtime/wire.hpp"

namespace dsk {
namespace {

constexpr WirePrecision kPrecisions[] = {
    WirePrecision::Full, WirePrecision::F32, WirePrecision::BF16};
constexpr IndexCodec kIndexCodecs[] = {IndexCodec::Raw, IndexCodec::Auto};

/// Per-value relative error ceiling of one quantization (round to
/// nearest even): 2^-25 for f32's 24-bit mantissa, 2^-9 for bf16's
/// 8-bit mantissa — with slack for the double round-trip.
double precision_bound(WirePrecision precision) {
  switch (precision) {
    case WirePrecision::Full: return 0.0;
    case WirePrecision::F32: return 1e-7;
    case WirePrecision::BF16: return 1.0 / 256.0;
  }
  return 0.0;
}

std::vector<Scalar> gaussian_values(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Scalar> values(count);
  for (auto& v : values) v = rng.next_gaussian();
  return values;
}

void expect_within_bound(const std::vector<Scalar>& got,
                         const std::vector<Scalar>& want,
                         WirePrecision precision) {
  ASSERT_EQ(got.size(), want.size());
  const double bound = precision_bound(precision);
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (precision == WirePrecision::Full) {
      EXPECT_EQ(got[i], want[i]) << "value " << i;
    } else {
      EXPECT_LE(std::abs(got[i] - want[i]), bound * std::abs(want[i]))
          << "value " << i << " at " << to_string(precision);
    }
  }
}

TEST(WireValues, RoundTripAllPrecisions) {
  for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{4},
                                  std::size_t{17}}) {
    const auto values = gaussian_values(count, 11 + count);
    for (const WirePrecision precision : kPrecisions) {
      const WireCodec codec{precision, IndexCodec::Raw};
      const auto words = encode_values(values, codec);
      EXPECT_EQ(words.size(),
                encoded_values_words(static_cast<std::int64_t>(count),
                                     codec));
      const auto back = decode_values(
          words, static_cast<std::int64_t>(count), codec);
      expect_within_bound(back, values, precision);
    }
  }
}

TEST(WireValues, DefaultCodecIsOneWordPerValueBitExact) {
  const auto values = gaussian_values(9, 21);
  const auto words = encode_values(values, WireCodec{});
  ASSERT_EQ(words.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &values[i], sizeof bits);
    EXPECT_EQ(words[i], bits);
  }
}

/// Re-encoding an already-quantized payload must be bit-identical —
/// the property that lets a ring hop re-encode a forwarded block
/// without compounding error.
TEST(WireValues, QuantizationIsIdempotent) {
  const auto values = gaussian_values(13, 31);
  for (const WirePrecision precision :
       {WirePrecision::F32, WirePrecision::BF16}) {
    const WireCodec codec{precision, IndexCodec::Raw};
    const auto once = encode_values(values, codec);
    const auto decoded = decode_values(once, 13, codec);
    const auto twice = encode_values(decoded, codec);
    EXPECT_EQ(once, twice) << to_string(precision);
  }
}

TEST(WireValues, RejectsWrongLength) {
  const auto values = gaussian_values(5, 41);
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision, IndexCodec::Raw};
    auto words = encode_values(values, codec);
    words.push_back(0); // trailing garbage
    EXPECT_THROW(decode_values(words, 5, codec), Error);
    words.pop_back();
    if (!words.empty()) {
      words.pop_back(); // truncated
      EXPECT_THROW(decode_values(words, 5, codec), Error);
    }
  }
}

TEST(WireDense, RoundTripAllPrecisions) {
  const Index rows = 5;
  const Index width = 3;
  const auto values =
      gaussian_values(static_cast<std::size_t>(rows * width), 51);
  MessageWords image(values.size());
  std::memcpy(image.data(), values.data(),
              values.size() * sizeof(Scalar));
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision, IndexCodec::Raw};
    const auto wire = encode_dense(image, rows, width, codec);
    EXPECT_EQ(wire.size(), encoded_dense_words(rows, width, codec));
    const auto back = decode_dense(wire, rows, width, codec);
    ASSERT_EQ(back.size(), image.size());
    std::vector<Scalar> decoded(values.size());
    std::memcpy(decoded.data(), back.data(),
                decoded.size() * sizeof(Scalar));
    expect_within_bound(decoded, values, precision);
  }
  // The default codec is the identity on the raw image.
  EXPECT_EQ(encode_dense(image, rows, width, WireCodec{}), image);
}

TEST(WireDense, RejectsWrongSizes) {
  const WireCodec bf16{WirePrecision::BF16, IndexCodec::Raw};
  MessageWords image(6, 0);
  EXPECT_THROW(encode_dense(image, 2, 4, bf16), Error); // 6 != 2x4
  auto wire = encode_dense(std::move(image), 2, 3, bf16);
  wire.push_back(0);
  EXPECT_THROW(decode_dense(wire, 2, 3, bf16), Error);
  wire.pop_back();
  wire.pop_back();
  EXPECT_THROW(decode_dense(wire, 2, 3, bf16), Error);
}

TEST(WireTripletsCodec, RoundTripAllPrecisions) {
  const std::vector<Index> rows = {0, 2, 2, 7};
  const std::vector<Index> cols = {5, 1, 3, 0};
  const auto values = gaussian_values(4, 61);
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision, IndexCodec::Raw};
    const auto words = encode_triplets(rows, cols, values, codec);
    EXPECT_EQ(words.size(), encoded_triplets_words(4, codec));
    const auto back = decode_triplets(words, codec);
    EXPECT_EQ(back.rows, rows);
    EXPECT_EQ(back.cols, cols);
    expect_within_bound(back.values, values, precision);
  }
  // Empty triplets are one header word under every precision.
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision, IndexCodec::Raw};
    const auto words = encode_triplets({}, {}, {}, codec);
    EXPECT_EQ(words.size(), 1u);
    EXPECT_EQ(decode_triplets(words, codec).rows.size(), 0u);
  }
}

TEST(WireTripletsCodec, RejectsCorruptMessages) {
  const std::vector<Index> rows = {1, 3};
  const std::vector<Index> cols = {0, 2};
  const auto values = gaussian_values(2, 71);
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision, IndexCodec::Raw};
    auto words = encode_triplets(rows, cols, values, codec);
    words.push_back(0); // trailing garbage
    EXPECT_THROW(decode_triplets(words, codec), Error);
    words.pop_back();
    words.pop_back(); // truncated payload
    EXPECT_THROW(decode_triplets(words, codec), Error);
    EXPECT_THROW(decode_triplets(MessageWords{}, codec), Error);
  }
}

/// Support shapes chosen to favor each index section Auto can pick: a
/// lone row (raw), a tight cluster (delta-varint), a dense support over
/// a small block (bitmap), and the adversarial two-endpoint support
/// whose single huge gap costs the varint encoding most.
struct SupportCase {
  const char* name;
  Index block_rows;
  std::vector<Index> rows;
};

std::vector<SupportCase> support_cases() {
  std::vector<SupportCase> cases;
  cases.push_back({"single-first", 256, {0}});
  cases.push_back({"single-last", 256, {255}});
  cases.push_back({"endpoints", 1 << 20, {0, (1 << 20) - 1}});
  SupportCase cluster{"cluster", 4096, {}};
  for (Index i = 100; i < 180; ++i) cluster.rows.push_back(i);
  cases.push_back(std::move(cluster));
  SupportCase full{"full", 192, {}};
  for (Index i = 0; i < 192; ++i) full.rows.push_back(i);
  cases.push_back(std::move(full));
  SupportCase strided{"strided", 1024, {}};
  for (Index i = 0; i < 1024; i += 3) strided.rows.push_back(i);
  cases.push_back(std::move(strided));
  return cases;
}

/// The index-section sizes Auto chooses between, as closed forms: one
/// word per index; the LEB128 bytes of the first index and the gaps,
/// packed 8 per word; one bit per block row.
struct SectionSizes {
  std::uint64_t raw;
  std::uint64_t varint;
  std::uint64_t bitmap;
};

SectionSizes section_sizes(const SupportCase& sc) {
  std::uint64_t bytes = 0;
  for (std::size_t k = 0; k < sc.rows.size(); ++k) {
    auto gap = static_cast<std::uint64_t>(
        k == 0 ? sc.rows[0] : sc.rows[k] - sc.rows[k - 1]);
    for (bytes += 1; gap >= 0x80; gap >>= 7) bytes += 1;
  }
  return {sc.rows.size(), (bytes + 7) / 8,
          static_cast<std::uint64_t>((sc.block_rows + 63) / 64)};
}

const SupportCase& find_case(const std::vector<SupportCase>& cases,
                             const std::string& name) {
  for (const auto& sc : cases) {
    if (name == sc.name) return sc;
  }
  throw std::runtime_error("no support case " + name);
}

TEST(WireIndexSections, AutoPicksTheSmallestAndNeverExceedsRaw) {
  for (const auto& sc : support_cases()) {
    const SectionSizes size = section_sizes(sc);
    EXPECT_EQ(encoded_index_words(sc.rows, sc.block_rows, IndexCodec::Raw),
              size.raw)
        << sc.name;
    EXPECT_EQ(encoded_index_words(sc.rows, sc.block_rows, IndexCodec::Auto),
              std::min({size.raw, size.varint, size.bitmap}))
        << sc.name;
  }
}

/// Auto must keep reaching both private sections: on the cluster
/// support the delta-varint section is strictly the smallest, on the
/// dense small block the bitmap is. Either way the message is strictly
/// smaller than under Raw indices and decodes bit-identically to it.
TEST(WireIndexSections, AutoReachesDeltaVarintAndBitmapSections) {
  const auto cases = support_cases();
  const Index width = 3;
  for (const char* name : {"cluster", "full"}) {
    const SupportCase& sc = find_case(cases, name);
    const SectionSizes size = section_sizes(sc);
    const bool varint = std::string(name) == "cluster";
    const std::uint64_t winner = varint ? size.varint : size.bitmap;
    EXPECT_LT(winner, size.raw) << name;
    EXPECT_LT(winner, varint ? size.bitmap : size.varint) << name;
    EXPECT_EQ(encoded_index_words(sc.rows, sc.block_rows, IndexCodec::Auto),
              winner)
        << name;

    const auto values = gaussian_values(
        static_cast<std::size_t>(sc.block_rows * width), 71);
    MessageWords image(values.size());
    std::memcpy(image.data(), values.data(),
                values.size() * sizeof(Scalar));
    const WireCodec raw{WirePrecision::Full, IndexCodec::Raw};
    const WireCodec best{WirePrecision::Full, IndexCodec::Auto};
    const auto raw_words =
        encode_cols_block(image, sc.block_rows, width, sc.rows, raw);
    const auto auto_words =
        encode_cols_block(image, sc.block_rows, width, sc.rows, best);
    EXPECT_EQ(raw_words.size() - auto_words.size(), size.raw - winner)
        << name;
    EXPECT_EQ(decode_cols_block(auto_words, sc.block_rows, width, sc.rows,
                                best),
              decode_cols_block(raw_words, sc.block_rows, width, sc.rows,
                                raw))
        << name;

    const auto row_values = gaussian_values(
        sc.rows.size() * static_cast<std::size_t>(width), 72);
    const auto raw_rows = encode_rows_chunk(
        sc.rows, 0, sc.rows.size(), sc.block_rows, width, row_values, raw);
    const auto auto_rows = encode_rows_chunk(
        sc.rows, 0, sc.rows.size(), sc.block_rows, width, row_values, best);
    EXPECT_EQ(raw_rows.size() - auto_rows.size(), size.raw - winner)
        << name;
    EXPECT_EQ(decode_rows_chunk(auto_rows, sc.rows, 0, sc.rows.size(),
                                sc.block_rows, width, best),
              row_values)
        << name;
  }
}

TEST(WireColsBlock, RoundTripEveryCodecAndSupportShape) {
  for (const auto& sc : support_cases()) {
    if (sc.block_rows > 4096) continue; // keep the dense image small
    const Index width = 3;
    const auto values = gaussian_values(
        static_cast<std::size_t>(sc.block_rows * width), 81);
    MessageWords image(values.size());
    std::memcpy(image.data(), values.data(),
                values.size() * sizeof(Scalar));
    for (const WirePrecision precision : kPrecisions) {
      for (const IndexCodec index_codec : kIndexCodecs) {
        const WireCodec codec{precision, index_codec};
        const auto words =
            encode_cols_block(image, sc.block_rows, width, sc.rows, codec);
        EXPECT_EQ(words.size(),
                  encoded_cols_words(sc.rows, sc.block_rows, width, codec))
            << sc.name;
        const auto dense = decode_cols_block(words, sc.block_rows, width,
                                             sc.rows, codec);
        ASSERT_EQ(dense.size(), image.size()) << sc.name;
        // Supported rows round-trip within the precision bound;
        // unsupported rows are exactly zero.
        std::size_t k = 0;
        for (Index row = 0; row < sc.block_rows; ++row) {
          const bool supported =
              k < sc.rows.size() && sc.rows[k] == row;
          for (Index j = 0; j < width; ++j) {
            const auto at = static_cast<std::size_t>(row * width + j);
            Scalar got;
            std::memcpy(&got, &dense[at], sizeof got);
            if (!supported) {
              EXPECT_EQ(got, 0.0) << sc.name;
            } else if (precision == WirePrecision::Full) {
              EXPECT_EQ(got, values[at]) << sc.name;
            } else {
              EXPECT_LE(std::abs(got - values[at]),
                        precision_bound(precision) * std::abs(values[at]))
                  << sc.name;
            }
          }
          if (supported) ++k;
        }
      }
    }
  }
}

TEST(WireColsBlock, EmptySupportSendsNothing) {
  for (const WirePrecision precision : kPrecisions) {
    for (const IndexCodec index_codec : kIndexCodecs) {
      EXPECT_EQ(encoded_cols_words({}, 64, 8,
                                   WireCodec{precision, index_codec}),
                0u);
    }
  }
}

TEST(WireColsBlock, RejectsCorruptMessages) {
  const Index block_rows = 128;
  const Index width = 2;
  // Under Auto the scattered support rides a delta-varint section and
  // the dense prefix a bitmap, so both private sections are tampered.
  std::vector<Index> dense_prefix(40);
  std::iota(dense_prefix.begin(), dense_prefix.end(), Index{0});
  const auto values = gaussian_values(
      static_cast<std::size_t>(block_rows * width), 91);
  MessageWords image(values.size());
  std::memcpy(image.data(), values.data(), values.size() * sizeof(Scalar));
  for (const std::vector<Index>& cols :
       {std::vector<Index>{3, 64, 100}, dense_prefix}) {
    for (const IndexCodec index_codec : kIndexCodecs) {
      const WireCodec codec{WirePrecision::BF16, index_codec};
      const auto good = encode_cols_block(image, block_rows, width, cols,
                                          codec);
      ASSERT_NO_THROW(decode_cols_block(good, block_rows, width, cols,
                                        codec));
      auto tampered = good;
      tampered.push_back(0); // trailing garbage
      EXPECT_THROW(decode_cols_block(tampered, block_rows, width, cols,
                                     codec),
                   Error);
      tampered = good;
      tampered.pop_back(); // truncated payload
      EXPECT_THROW(decode_cols_block(tampered, block_rows, width, cols,
                                     codec),
                   Error);
      tampered = good;
      tampered[0] += 1; // count disagrees with the support table
      EXPECT_THROW(decode_cols_block(tampered, block_rows, width, cols,
                                     codec),
                   Error);
      tampered = good;
      tampered[1] ^= 1; // index section disagrees with the support table
      EXPECT_THROW(decode_cols_block(tampered, block_rows, width, cols,
                                     codec),
                   Error);
      EXPECT_THROW(decode_cols_block(MessageWords{}, block_rows, width,
                                     cols, codec),
                   Error);
    }
  }
}

TEST(WireRowsChunks, WholeAndChunkedDecodesAgree) {
  const Index block_rows = 64;
  const Index width = 3;
  const std::vector<Index> rows = {1, 7, 8, 20, 40, 41, 63};
  const auto values = gaussian_values(
      rows.size() * static_cast<std::size_t>(width), 101);
  for (const WirePrecision precision : kPrecisions) {
    for (const IndexCodec index_codec : kIndexCodecs) {
      const WireCodec codec{precision, index_codec};
      // Whole-support message.
      const auto whole = encode_rows_chunk(rows, 0, rows.size(),
                                           block_rows, width, values,
                                           codec);
      EXPECT_EQ(whole.size(),
                encoded_rows_words(rows, block_rows, width, codec));
      const auto whole_decoded = decode_rows_chunk(
          whole, rows, 0, rows.size(), block_rows, width, codec);
      expect_within_bound(whole_decoded, values, precision);
      // Split into chunks; the count header rides only on the first.
      std::vector<Scalar> reassembled;
      for (const auto& [k0, k1] :
           std::vector<std::pair<std::size_t, std::size_t>>{
               {0, 3}, {3, 4}, {4, rows.size()}}) {
        const std::span<const Scalar> chunk_values(
            values.data() + k0 * static_cast<std::size_t>(width),
            (k1 - k0) * static_cast<std::size_t>(width));
        const auto chunk = encode_rows_chunk(rows, k0, k1, block_rows,
                                             width, chunk_values, codec);
        EXPECT_EQ(chunk.size(),
                  encoded_rows_chunk_words(rows, k0, k1, block_rows,
                                           width, codec));
        const auto decoded = decode_rows_chunk(chunk, rows, k0, k1,
                                               block_rows, width, codec);
        reassembled.insert(reassembled.end(), decoded.begin(),
                           decoded.end());
      }
      EXPECT_EQ(reassembled, whole_decoded)
          << to_string(precision) << " " << to_string(index_codec);
    }
  }
}

/// Row-padded value packing makes the value payload split-invariant:
/// under Raw indices (chunking forces partial chunks to Raw anyway) the
/// total words of any chunking equal the unchunked message exactly.
TEST(WireRowsChunks, TotalsAreChunkInvariantUnderRawIndices) {
  const Index block_rows = 96;
  const Index width = 5;
  std::vector<Index> rows;
  for (Index i = 0; i < 90; i += 2) rows.push_back(i);
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision, IndexCodec::Raw};
    const auto whole =
        encoded_rows_words(rows, block_rows, width, codec);
    for (const std::size_t step : {std::size_t{1}, std::size_t{7},
                                   std::size_t{16}}) {
      std::uint64_t total = 0;
      for (std::size_t k0 = 0; k0 < rows.size(); k0 += step) {
        const std::size_t k1 = std::min(rows.size(), k0 + step);
        total += encoded_rows_chunk_words(rows, k0, k1, block_rows,
                                          width, codec);
      }
      EXPECT_EQ(total, whole)
          << to_string(precision) << " step " << step;
    }
  }
}

TEST(WireRowsChunks, RejectsCorruptMessages) {
  const Index block_rows = 32;
  const Index width = 2;
  const std::vector<Index> rows = {0, 5, 9, 30};
  const auto values = gaussian_values(
      rows.size() * static_cast<std::size_t>(width), 111);
  for (const IndexCodec index_codec : kIndexCodecs) {
    const WireCodec codec{WirePrecision::F32, index_codec};
    const auto good = encode_rows_chunk(rows, 0, rows.size(), block_rows,
                                        width, values, codec);
    auto tampered = good;
    tampered[0] += 1; // count header disagrees with the support
    EXPECT_THROW(decode_rows_chunk(tampered, rows, 0, rows.size(),
                                   block_rows, width, codec),
                 Error);
    tampered = good;
    tampered.push_back(7); // trailing garbage
    EXPECT_THROW(decode_rows_chunk(tampered, rows, 0, rows.size(),
                                   block_rows, width, codec),
                 Error);
    tampered = good;
    tampered.pop_back(); // truncated values
    EXPECT_THROW(decode_rows_chunk(tampered, rows, 0, rows.size(),
                                   block_rows, width, codec),
                 Error);
    EXPECT_THROW(decode_rows_chunk(MessageWords{}, rows, 0, rows.size(),
                                   block_rows, width, codec),
                 Error);
  }
}

} // namespace
} // namespace dsk
