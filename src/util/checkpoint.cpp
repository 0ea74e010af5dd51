#include "quake/util/checkpoint.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace quake::util {
namespace {

constexpr std::uint32_t kMagic = 0x50'4B'43'51;  // "QCKP" little-endian
constexpr std::uint32_t kVersion = 1;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Little-endian append of a trivially copyable value / raw buffer.
template <typename T>
void put(std::vector<unsigned char>& buf, const T& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  buf.insert(buf.end(), p, p + sizeof(T));
}

void put_bytes(std::vector<unsigned char>& buf, const void* data,
               std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  buf.insert(buf.end(), p, p + n);
}

// Bounds-checked little-endian reads from a loaded file image.
template <typename T>
bool get(std::span<const unsigned char> buf, std::size_t& off, T* v) {
  if (off + sizeof(T) > buf.size()) return false;
  std::memcpy(v, buf.data() + off, sizeof(T));
  off += sizeof(T);
  return true;
}

}  // namespace

std::uint32_t crc32(std::span<const unsigned char> data, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (unsigned char b : data) {
    c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::span<const double> Snapshot::field(std::string_view name) const {
  for (const auto& [n, data] : fields) {
    if (n == name) return data;
  }
  return {};
}

namespace {

// Serializes + writes the snapshot to `tmp`; returns false (with *error
// set) instead of throwing so retention-aware callers can ride out disk
// pressure. A failed write removes the partial temp file.
bool write_snapshot_file(const std::string& tmp, const Snapshot& snap,
                         std::string* error) {
  std::vector<unsigned char> buf;
  put(buf, kMagic);
  put(buf, kVersion);
  put(buf, snap.step);
  put(buf, static_cast<std::uint32_t>(snap.fields.size()));
  for (const auto& [name, data] : snap.fields) {
    put(buf, static_cast<std::uint32_t>(name.size()));
    put_bytes(buf, name.data(), name.size());
    put(buf, static_cast<std::uint64_t>(data.size()));
    put_bytes(buf, data.data(), data.size() * sizeof(double));
  }
  put(buf, crc32(buf));

  FilePtr f(std::fopen(tmp.c_str(), "wb"));
  if (!f) {
    if (error != nullptr) *error = "cannot open " + tmp;
    return false;
  }
  if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size() ||
      std::ferror(f.get()) != 0) {
    f.reset();
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "short write to " + tmp;
    return false;
  }
  std::FILE* raw = f.release();
  if (std::fclose(raw) != 0) {  // delayed ENOSPC surfaces here
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "close failed for " + tmp;
    return false;
  }
  return true;
}

}  // namespace

void save_snapshot(const std::string& path, const Snapshot& snap) {
  const std::string tmp = path + ".tmp";
  std::string error;
  if (!write_snapshot_file(tmp, snap, &error)) {
    throw std::runtime_error("save_snapshot: " + error);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("save_snapshot: rename to " + path + " failed");
  }
}

std::string snapshot_generation_path(const std::string& path, int gen) {
  return gen <= 0 ? path : path + "." + std::to_string(gen);
}

bool save_snapshot_rotating(const std::string& path, const Snapshot& snap,
                            int keep, std::string* error) {
  if (keep < 1) keep = 1;
  const std::string tmp = path + ".tmp";
  // Write the new data first: until it is safely on disk, the existing
  // generation chain is not touched, so a failure here (ENOSPC, read-only
  // filesystem) leaves every previous restore target intact.
  if (!write_snapshot_file(tmp, snap, error)) return false;
  // Rotate newest -> oldest; the rename onto `path.(keep-1)` atomically
  // replaces (= prunes) the oldest retained generation. A missing link in
  // the chain is fine — rename of a nonexistent source just fails and the
  // younger generations still shift up.
  for (int gen = keep - 1; gen >= 1; --gen) {
    std::rename(snapshot_generation_path(path, gen - 1).c_str(),
                snapshot_generation_path(path, gen).c_str());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "rename to " + path + " failed";
    return false;
  }
  // Prune generations beyond the retention window (e.g. after `keep` was
  // lowered between runs); only after the successful rename above, so a
  // failed save never costs us a usable snapshot.
  std::remove(snapshot_generation_path(path, keep).c_str());
  return true;
}

SnapshotLoadStatus load_snapshot_status(const std::string& path,
                                        Snapshot* out) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return SnapshotLoadStatus::kMissing;
  // From here on the file exists: any failure to decode it is kCorrupt.
  std::vector<unsigned char> buf;
  unsigned char chunk[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(chunk, 1, sizeof(chunk), f.get());
    buf.insert(buf.end(), chunk, chunk + n);
    if (n < sizeof(chunk)) break;
  }
  if (std::ferror(f.get()) != 0) return SnapshotLoadStatus::kCorrupt;

  if (buf.size() < sizeof(std::uint32_t)) return SnapshotLoadStatus::kCorrupt;
  const std::size_t payload = buf.size() - sizeof(std::uint32_t);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buf.data() + payload, sizeof(stored_crc));
  if (crc32({buf.data(), payload}) != stored_crc) {
    return SnapshotLoadStatus::kCorrupt;
  }

  std::size_t off = 0;
  std::uint32_t magic = 0, version = 0, n_fields = 0;
  Snapshot snap;
  if (!get({buf.data(), payload}, off, &magic) || magic != kMagic) {
    return SnapshotLoadStatus::kCorrupt;
  }
  if (!get({buf.data(), payload}, off, &version) || version != kVersion) {
    return SnapshotLoadStatus::kCorrupt;
  }
  if (!get({buf.data(), payload}, off, &snap.step)) {
    return SnapshotLoadStatus::kCorrupt;
  }
  if (!get({buf.data(), payload}, off, &n_fields)) {
    return SnapshotLoadStatus::kCorrupt;
  }
  for (std::uint32_t i = 0; i < n_fields; ++i) {
    std::uint32_t name_len = 0;
    if (!get({buf.data(), payload}, off, &name_len)) {
      return SnapshotLoadStatus::kCorrupt;
    }
    if (off + name_len > payload) return SnapshotLoadStatus::kCorrupt;
    std::string name(reinterpret_cast<const char*>(buf.data() + off),
                     name_len);
    off += name_len;
    std::uint64_t count = 0;
    if (!get({buf.data(), payload}, off, &count)) {
      return SnapshotLoadStatus::kCorrupt;
    }
    // Compare by division: count * sizeof(double) can wrap for a lying
    // count and slip past an addition-based bound.
    if (count > (payload - off) / sizeof(double)) {
      return SnapshotLoadStatus::kCorrupt;
    }
    std::vector<double> data(static_cast<std::size_t>(count));
    // An empty field leaves data() null, and memcpy from/to null is
    // undefined even for zero bytes.
    if (count > 0) {
      std::memcpy(data.data(), buf.data() + off, count * sizeof(double));
    }
    off += static_cast<std::size_t>(count) * sizeof(double);
    snap.add(std::move(name), std::move(data));
  }
  *out = std::move(snap);
  return SnapshotLoadStatus::kOk;
}

bool load_snapshot(const std::string& path, Snapshot* out) {
  return load_snapshot_status(path, out) == SnapshotLoadStatus::kOk;
}

}  // namespace quake::util
