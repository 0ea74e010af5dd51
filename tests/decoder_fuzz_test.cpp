// Seeded fuzz tests for the two decoders that read bytes from outside the
// process: the checkpoint snapshot loader and the obs report decoder. Each
// seed builds a random valid encoding, then feeds the decoder every
// truncation, random bit flips and lying length fields. Every input must
// end in a clean status (kCorrupt) or a typed exception — never in
// undefined behaviour, which the ASan and UBSan jobs run these to catch.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "quake/obs/report.hpp"
#include "quake/util/checkpoint.hpp"
#include "quake/util/rng.hpp"

namespace {

using namespace quake;
using Bytes = std::vector<unsigned char>;

// Uniform integer in [lo, hi].
int pick(util::Rng& rng, int lo, int hi) {
  return lo + static_cast<int>(rng.next_u64() %
                               static_cast<std::uint64_t>(hi - lo + 1));
}

std::string random_key(util::Rng& rng) {
  std::string k(static_cast<std::size_t>(pick(rng, 0, 12)), ' ');
  for (char& c : k) c = static_cast<char>(pick(rng, 32, 126));
  return k;
}

// ---- snapshot files --------------------------------------------------------

class SnapshotFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::string path_ = testing::TempDir() + "/snapshot_fuzz_" +
                      std::to_string(GetParam()) + ".ckpt";

  void TearDown() override { std::remove(path_.c_str()); }

  Bytes read_file() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }
  void write_file(const Bytes& b) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(b.size()));
  }
  // Appends a valid CRC to `payload`, so the decoder's structural checks,
  // not the checksum, decide the outcome.
  void write_with_crc(Bytes payload) const {
    const std::uint32_t crc = util::crc32(payload);
    const auto* p = reinterpret_cast<const unsigned char*>(&crc);
    payload.insert(payload.end(), p, p + sizeof crc);
    write_file(payload);
  }
  util::SnapshotLoadStatus load() const {
    util::Snapshot s;
    return util::load_snapshot_status(path_, &s);
  }
};

TEST_P(SnapshotFuzz, HostileBytesEndInCorrupt) {
  util::Rng rng(GetParam());
  util::Snapshot snap;
  snap.step = pick(rng, 0, 1 << 20);
  const int n_fields = pick(rng, 1, 4);
  for (int f = 0; f < n_fields; ++f) {
    std::vector<double> data(static_cast<std::size_t>(pick(rng, 0, 9)));
    for (double& d : data) d = rng.uniform(-1e3, 1e3);
    snap.add(random_key(rng), std::move(data));
  }
  util::save_snapshot(path_, snap);
  const Bytes file = read_file();
  ASSERT_EQ(load(), util::SnapshotLoadStatus::kOk);
  const Bytes payload(file.begin(), file.end() - sizeof(std::uint32_t));

  // Truncation at every length, with the stored CRC cut off and with a
  // recomputed one.
  for (std::size_t len = 0; len < file.size(); ++len) {
    write_file(Bytes(file.begin(), file.begin() + static_cast<long>(len)));
    EXPECT_EQ(load(), util::SnapshotLoadStatus::kCorrupt) << "len " << len;
    if (len < payload.size()) {
      write_with_crc(Bytes(payload.begin(),
                           payload.begin() + static_cast<long>(len)));
      EXPECT_EQ(load(), util::SnapshotLoadStatus::kCorrupt) << "len " << len;
    }
  }

  // Random bit flips: the CRC catches them; behind a recomputed CRC the
  // structure either still parses or is rejected.
  for (int trial = 0; trial < 200; ++trial) {
    Bytes b = payload;
    const int flips = pick(rng, 1, 4);
    for (int i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(
          pick(rng, 0, static_cast<int>(b.size()) - 1));
      b[at] ^= static_cast<unsigned char>(1u << pick(rng, 0, 7));
    }
    Bytes raw = b;
    raw.insert(raw.end(), file.end() - sizeof(std::uint32_t), file.end());
    write_file(raw);
    EXPECT_EQ(load(), util::SnapshotLoadStatus::kCorrupt);
    write_with_crc(b);
    const auto st = load();
    EXPECT_TRUE(st == util::SnapshotLoadStatus::kOk ||
                st == util::SnapshotLoadStatus::kCorrupt);
  }

  // Lying length fields behind a valid CRC: the first field's name length
  // (offset 20) and element count (after the name).
  const std::size_t name_len_at = 20;
  std::uint32_t name_len = 0;
  std::memcpy(&name_len, payload.data() + name_len_at, sizeof name_len);
  const std::size_t count_at = name_len_at + sizeof name_len + name_len;
  for (const std::uint64_t lie :
       {std::uint64_t{1} << 61, std::uint64_t{1} << 63,
        std::numeric_limits<std::uint64_t>::max(),
        std::uint64_t{1} + payload.size()}) {
    Bytes b = payload;
    std::memcpy(b.data() + count_at, &lie, sizeof lie);
    write_with_crc(b);
    EXPECT_EQ(load(), util::SnapshotLoadStatus::kCorrupt) << "count " << lie;
    b = payload;
    const auto lie32 = static_cast<std::uint32_t>(lie | 0x80000000u);
    std::memcpy(b.data() + name_len_at, &lie32, sizeof lie32);
    write_with_crc(b);
    EXPECT_EQ(load(), util::SnapshotLoadStatus::kCorrupt) << "name " << lie32;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz,
                         ::testing::Values(1u, 42u, 2026u, 777u));

// ---- obs reports -----------------------------------------------------------

class ReportFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Decodes `data`; a typed std::runtime_error is an accepted outcome.
bool decodes(const std::vector<double>& data) {
  try {
    (void)obs::decode_report(data);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

TEST_P(ReportFuzz, HostileBuffersThrowTyped) {
  util::Rng rng(GetParam());
  obs::RankReport r;
  r.rank = pick(rng, 0, 63);
  for (int i = pick(rng, 0, 3); i > 0; --i) {
    r.metrics.scopes[random_key(rng)] = {
        static_cast<std::uint64_t>(pick(rng, 0, 1000)),
        rng.uniform(0.0, 5.0)};
  }
  for (int i = pick(rng, 0, 3); i > 0; --i) {
    r.metrics.counters[random_key(rng)] = pick(rng, -1000, 1000);
  }
  for (int i = pick(rng, 0, 3); i > 0; --i) {
    r.metrics.gauges[random_key(rng)] = rng.uniform(-1.0, 1.0);
  }
  for (int i = pick(rng, 0, 3); i > 0; --i) {
    std::vector<double> v(static_cast<std::size_t>(pick(rng, 0, 6)));
    for (double& x : v) x = rng.uniform(-1.0, 1.0);
    r.metrics.series[random_key(rng)] = std::move(v);
  }
  const std::vector<double> enc = obs::encode_report(r);
  ASSERT_TRUE(decodes(enc));

  // Truncation at every length.
  for (std::size_t len = 0; len < enc.size(); ++len) {
    EXPECT_FALSE(decodes({enc.begin(), enc.begin() + static_cast<long>(len)}))
        << "len " << len;
  }

  // Random bit flips anywhere in the encoding (exponent bits included, so
  // counts and integer fields become huge, negative, infinite or NaN).
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<double> b = enc;
    const auto at = static_cast<std::size_t>(
        pick(rng, 0, static_cast<int>(b.size()) - 1));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &b[at], sizeof bits);
    bits ^= std::uint64_t{1} << pick(rng, 0, 63);
    std::memcpy(&b[at], &bits, sizeof bits);
    (void)decodes(b);
  }

  // Lying length fields: the scope count (index 1) and every other slot,
  // overwritten with counts no buffer this size can hold, and with values
  // no integer field can take.
  for (std::size_t at = 0; at < enc.size(); ++at) {
    for (const double lie :
         {static_cast<double>(enc.size()), 1e12, 1e300, -1.0,
          std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()}) {
      std::vector<double> b = enc;
      b[at] = lie;
      (void)decodes(b);
    }
  }
  std::vector<double> b = enc;
  b[1] = static_cast<double>(enc.size());
  EXPECT_FALSE(decodes(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReportFuzz,
                         ::testing::Values(1u, 42u, 2026u, 777u));

}  // namespace
