#include "io/artifact_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "matchers/artifact_cache.h"

namespace valentine {

namespace {

constexpr char kMagic[4] = {'V', 'D', 'A', '1'};
// Version 3 holds sketches only; version 1 and 2 files, which also
// carried column profiles, are rejected and rebuilt at registration.
constexpr uint32_t kVersion = 3;

// ---------------------------------------------------------------------------
// Canonical little-endian writers. Everything multi-byte goes through
// these so the byte stream is identical on every platform.

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutBool(std::string* out, bool v) {
  out->push_back(v ? '\x01' : '\x00');
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

void PutU64Vector(std::string* out, const std::vector<uint64_t>& v) {
  PutU64(out, v.size());
  for (uint64_t x : v) PutU64(out, x);
}

// ---------------------------------------------------------------------------
// Bounds-checked reader. Every Read* returns false on truncation; the
// parser surfaces that as ParseError instead of reading garbage.

class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  bool ReadRaw(void* dst, size_t n) {
    if (bytes_.size() - pos_ < n) return false;
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    char buf[4];
    if (!ReadRaw(buf, 4)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<unsigned char>(buf[i]))
            << (8 * i);
    }
    return true;
  }

  bool ReadU64(uint64_t* v) {
    char buf[8];
    if (!ReadRaw(buf, 8)) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(buf[i]))
            << (8 * i);
    }
    return true;
  }

  bool ReadBool(bool* v) {
    char c;
    if (!ReadRaw(&c, 1)) return false;
    *v = (c != '\x00');
    return true;
  }

  bool ReadString(std::string* s) {
    uint64_t len = 0;
    if (!ReadU64(&len)) return false;
    if (bytes_.size() - pos_ < len) return false;
    s->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool ReadU64Vector(std::vector<uint64_t>* v) {
    uint64_t n = 0;
    if (!ReadU64(&n)) return false;
    if (n > (bytes_.size() - pos_) / 8) return false;
    v->assign(n, 0);
    for (uint64_t i = 0; i < n; ++i) {
      if (!ReadU64(&(*v)[i])) return false;
    }
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

void PutSignature(std::string* out, const MinHashSignature& sig) {
  PutBool(out, sig.empty_set());
  PutU64Vector(out, sig.mins());
}

bool ReadSignature(Reader* r, MinHashSignature* sig) {
  bool empty_set = false;
  std::vector<uint64_t> mins;
  if (!r->ReadBool(&empty_set) || !r->ReadU64Vector(&mins)) return false;
  *sig = MinHashSignature::FromMins(std::move(mins), empty_set);
  return true;
}

}  // namespace

TableDiscoveryArtifact BuildDiscoveryArtifact(
    const Table& table, size_t signature_size,
    std::optional<uint64_t> fingerprint) {
  TableDiscoveryArtifact artifact;
  artifact.fingerprint =
      fingerprint.has_value() ? *fingerprint : TableContentFingerprint(table);
  artifact.table_name = table.name();
  artifact.signature_size = signature_size;
  artifact.columns.reserve(table.num_columns());
  for (const Column& c : table.columns()) {
    artifact.columns.push_back(
        {c.name(), LazoSketch::Build(c.DistinctStringSet(), signature_size)});
  }
  return artifact;
}

std::string SerializeDiscoveryArtifact(const TableDiscoveryArtifact& a) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kVersion);
  PutU64(&out, a.fingerprint);
  PutString(&out, a.table_name);
  PutU64(&out, a.signature_size);
  PutU64(&out, a.columns.size());
  for (const ColumnDiscoveryArtifact& c : a.columns) {
    PutString(&out, c.name);
    PutU64(&out, c.sketch.cardinality);
    PutSignature(&out, c.sketch.signature);
  }
  return out;
}

Result<TableDiscoveryArtifact> ParseDiscoveryArtifact(
    const std::string& bytes) {
  Reader r(bytes);
  char magic[4];
  if (!r.ReadRaw(magic, sizeof(magic))) {
    return Status::ParseError("artifact: truncated header");
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("artifact: bad magic (not a VDA file)");
  }
  uint32_t version = 0;
  if (!r.ReadU32(&version)) {
    return Status::ParseError("artifact: truncated version");
  }
  if (version != kVersion) {
    return Status::ParseError("artifact: unsupported version " +
                              std::to_string(version));
  }
  TableDiscoveryArtifact a;
  uint64_t fingerprint = 0, signature_size = 0, num_columns = 0;
  if (!r.ReadU64(&fingerprint) || !r.ReadString(&a.table_name) ||
      !r.ReadU64(&signature_size) || !r.ReadU64(&num_columns)) {
    return Status::ParseError("artifact: truncated table header");
  }
  a.fingerprint = fingerprint;
  a.signature_size = signature_size;
  if (num_columns > bytes.size()) {
    return Status::ParseError("artifact: implausible column count");
  }
  a.columns.reserve(num_columns);
  for (uint64_t i = 0; i < num_columns; ++i) {
    ColumnDiscoveryArtifact c;
    uint64_t cardinality = 0;
    if (!r.ReadString(&c.name) || !r.ReadU64(&cardinality) ||
        !ReadSignature(&r, &c.sketch.signature)) {
      return Status::ParseError("artifact: truncated column " +
                                std::to_string(i));
    }
    // Every column is banded at the header's width; a file mixing
    // widths cannot be served, so it is rejected here and rebuilt.
    if (c.sketch.signature.size() != a.signature_size) {
      return Status::ParseError("artifact: column " + std::to_string(i) +
                                " signature width differs from header");
    }
    c.sketch.cardinality = cardinality;
    a.columns.push_back(std::move(c));
  }
  if (!r.AtEnd()) {
    return Status::ParseError("artifact: trailing bytes");
  }
  return a;
}

namespace {

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return std::string(buf);
}

}  // namespace

ArtifactStore::ArtifactStore(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  // A failure here surfaces on the first Put/Get as IOError.
}

std::string ArtifactStore::PathFor(uint64_t fingerprint) const {
  return directory_ + "/" + FingerprintHex(fingerprint) + ".vda";
}

Status ArtifactStore::Put(
    std::shared_ptr<const TableDiscoveryArtifact> artifact) {
  if (artifact == nullptr) {
    return Status::InvalidArgument("ArtifactStore::Put: null artifact");
  }
  const std::string bytes = SerializeDiscoveryArtifact(*artifact);
  const std::string path = PathFor(artifact->fingerprint);
  // Atomic publish: write a temp file in the same directory, then
  // rename over the final name. Readers never observe partial writes.
  const std::string tmp =
      path + ".tmp." + FingerprintHex(artifact->fingerprint);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("ArtifactStore: cannot open " + tmp);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      return Status::IOError("ArtifactStore: short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status::IOError("ArtifactStore: rename failed for " + path);
  }
  MutexLock lock(&mu_);
  cache_[artifact->fingerprint] = std::move(artifact);
  return Status::OK();
}

Result<std::shared_ptr<const TableDiscoveryArtifact>> ArtifactStore::Get(
    uint64_t fingerprint) const {
  {
    MutexLock lock(&mu_);
    auto it = cache_.find(fingerprint);
    if (it != cache_.end()) return it->second;
  }
  const std::string path = PathFor(fingerprint);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("ArtifactStore: no artifact " +
                            FingerprintHex(fingerprint));
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IOError("ArtifactStore: read failed for " + path);
  }
  Result<TableDiscoveryArtifact> parsed = ParseDiscoveryArtifact(bytes);
  if (!parsed.ok()) return parsed.status();
  if (parsed->fingerprint != fingerprint) {
    return Status::ParseError("ArtifactStore: fingerprint mismatch in " +
                              path);
  }
  auto shared = std::make_shared<const TableDiscoveryArtifact>(
      std::move(parsed).ValueOrDie());
  MutexLock lock(&mu_);
  auto [it, inserted] = cache_.emplace(fingerprint, std::move(shared));
  // On a racing double-load the first insert wins; both loads parsed the
  // same bytes, so either object is identical.
  return it->second;
}

bool ArtifactStore::Contains(uint64_t fingerprint) const {
  {
    MutexLock lock(&mu_);
    if (cache_.count(fingerprint) != 0) return true;
  }
  std::error_code ec;
  return std::filesystem::exists(PathFor(fingerprint), ec);
}

Status ArtifactStore::Remove(uint64_t fingerprint) {
  {
    MutexLock lock(&mu_);
    cache_.erase(fingerprint);
  }
  std::error_code ec;
  std::filesystem::remove(PathFor(fingerprint), ec);
  if (ec) {
    return Status::IOError("ArtifactStore: remove failed for " +
                           PathFor(fingerprint));
  }
  return Status::OK();
}

std::vector<uint64_t> ArtifactStore::List() const {
  std::vector<uint64_t> fingerprints;
  std::error_code ec;
  std::filesystem::directory_iterator it(directory_, ec);
  if (ec) return fingerprints;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 20 || name.substr(16) != ".vda") continue;
    uint64_t fp = 0;
    bool valid = true;
    for (char ch : name.substr(0, 16)) {
      fp <<= 4;
      if (ch >= '0' && ch <= '9') {
        fp |= static_cast<uint64_t>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        fp |= static_cast<uint64_t>(ch - 'a' + 10);
      } else {
        valid = false;
        break;
      }
    }
    if (valid) fingerprints.push_back(fp);
  }
  std::sort(fingerprints.begin(), fingerprints.end());
  return fingerprints;
}

void ArtifactStore::DropMemoryCache() {
  MutexLock lock(&mu_);
  cache_.clear();
}

size_t ArtifactStore::memory_cache_size() const {
  MutexLock lock(&mu_);
  return cache_.size();
}

}  // namespace valentine
