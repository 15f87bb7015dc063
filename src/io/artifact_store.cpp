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
// Version 2 writes a profile's MinHash as a flag when it is its column's
// sketch; version 1 files are rejected and rebuilt at registration.
constexpr uint32_t kVersion = 2;

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

void PutDouble(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutBool(std::string* out, bool v) {
  out->push_back(v ? '\x01' : '\x00');
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

void PutStringVector(std::string* out, const std::vector<std::string>& v) {
  PutU64(out, v.size());
  for (const std::string& s : v) PutString(out, s);
}

/// Unordered sets are canonicalized by sorting: the same set always
/// yields the same bytes regardless of hash-table iteration order.
void PutStringSet(std::string* out,
                  const std::unordered_set<std::string>& set) {
  // Copy feeds std::sort immediately below, so hash order is harmless.
  std::vector<std::string> sorted(
      set.begin(), set.end());  // lint:allow(unordered-iteration)
  std::sort(sorted.begin(), sorted.end());
  PutStringVector(out, sorted);
}

void PutDoubleVector(std::string* out, const std::vector<double>& v) {
  PutU64(out, v.size());
  for (double d : v) PutDouble(out, d);
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

  bool ReadDouble(double* v) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(bits));
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

  bool ReadStringVector(std::vector<std::string>* v) {
    uint64_t n = 0;
    if (!ReadU64(&n)) return false;
    // Even a zero-length string costs an 8-byte length prefix, so a
    // count beyond remaining/8 is corrupt — reject before reserving.
    if (n > (bytes_.size() - pos_) / 8) return false;
    v->clear();
    v->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      std::string s;
      if (!ReadString(&s)) return false;
      v->push_back(std::move(s));
    }
    return true;
  }

  bool ReadStringSet(std::unordered_set<std::string>* set) {
    std::vector<std::string> v;
    if (!ReadStringVector(&v)) return false;
    set->clear();
    set->reserve(v.size());
    for (std::string& s : v) set->insert(std::move(s));
    return true;
  }

  bool ReadDoubleVector(std::vector<double>* v) {
    uint64_t n = 0;
    if (!ReadU64(&n)) return false;
    if (n > (bytes_.size() - pos_) / 8) return false;
    v->assign(n, 0.0);
    for (uint64_t i = 0; i < n; ++i) {
      if (!ReadDouble(&(*v)[i])) return false;
    }
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

void PutSpec(std::string* out, const ProfileSpec& spec) {
  PutU64(out, spec.distinct_cap);
  PutU64(out, spec.set_cap);
  PutU64(out, spec.histogram_cap);
  PutU64(out, spec.num_bins);
  PutU64(out, spec.minhash_hashes);
  PutU64(out, spec.ngram_n);
  PutBool(out, spec.build_value_ngrams);
}

bool ReadSpec(Reader* r, ProfileSpec* spec) {
  uint64_t distinct_cap, set_cap, histogram_cap, num_bins, minhash_hashes,
      ngram_n;
  bool build_value_ngrams = false;
  if (!r->ReadU64(&distinct_cap) || !r->ReadU64(&set_cap) ||
      !r->ReadU64(&histogram_cap) || !r->ReadU64(&num_bins) ||
      !r->ReadU64(&minhash_hashes) || !r->ReadU64(&ngram_n) ||
      !r->ReadBool(&build_value_ngrams)) {
    return false;
  }
  spec->distinct_cap = distinct_cap;
  spec->set_cap = set_cap;
  spec->histogram_cap = histogram_cap;
  spec->num_bins = num_bins;
  spec->minhash_hashes = minhash_hashes;
  spec->ngram_n = ngram_n;
  spec->build_value_ngrams = build_value_ngrams;
  return true;
}

}  // namespace

/// The single sanctioned backdoor into ColumnProfile / TableProfile /
/// QuantileHistogram internals (declared friend in their headers):
/// serializes a profile field-by-field and reconstructs it exactly, so
/// a loaded profile is indistinguishable from a freshly built one.
///
/// A profile's MinHash that equals its column's sketch (one signature,
/// shared by BuildDiscoveryArtifact whenever the widths agree) is written
/// as a set flag byte instead of a second copy; the parser copies the
/// sketch back.
class DiscoveryArtifactCodec {
 public:
  static void PutProfile(std::string* out, const ColumnProfile& p,
                         const MinHashSignature* sketch) {
    PutStringVector(out, p.distinct_);
    PutU64(out, p.full_distinct_count_);
    PutStringSet(out, p.distinct_set_);
    PutDoubleVector(out, p.histogram_.centers_);
    PutDoubleVector(out, p.histogram_.masses_);
    PutDouble(out, p.histogram_.min_);
    PutDouble(out, p.histogram_.max_);
    const bool is_sketch = sketch != nullptr &&
                           p.minhash_.empty_set() == sketch->empty_set() &&
                           p.minhash_.mins() == sketch->mins();
    PutBool(out, is_sketch);
    if (!is_sketch) PutSignature(out, p.minhash_);
    PutU64(out, p.text_profile_.count);
    PutDouble(out, p.text_profile_.mean_length);
    PutDouble(out, p.text_profile_.stddev_length);
    PutDouble(out, p.text_profile_.digit_fraction);
    PutDouble(out, p.text_profile_.alpha_fraction);
    PutDouble(out, p.text_profile_.space_fraction);
    PutDouble(out, p.text_profile_.distinct_ratio);
    PutU64(out, p.numeric_stats_.count);
    PutDouble(out, p.numeric_stats_.mean);
    PutDouble(out, p.numeric_stats_.stddev);
    PutDouble(out, p.numeric_stats_.min);
    PutDouble(out, p.numeric_stats_.max);
    PutDouble(out, p.numeric_stats_.median);
    PutDouble(out, p.numeric_fraction_);
    PutStringVector(out, p.name_tokens_);
    PutStringSet(out, p.value_ngrams_);
    PutSpec(out, p.spec_);
  }

  /// Reads one profile; `*is_sketch` reports whether its MinHash was
  /// copied from `sketch`.
  static bool ReadProfile(Reader* r, const MinHashSignature& sketch,
                          ColumnProfile* p, bool* is_sketch) {
    uint64_t full_distinct_count = 0;
    uint64_t text_count = 0;
    uint64_t numeric_count = 0;
    if (!r->ReadStringVector(&p->distinct_) ||
        !r->ReadU64(&full_distinct_count) ||
        !r->ReadStringSet(&p->distinct_set_) ||
        !r->ReadDoubleVector(&p->histogram_.centers_) ||
        !r->ReadDoubleVector(&p->histogram_.masses_) ||
        !r->ReadDouble(&p->histogram_.min_) ||
        !r->ReadDouble(&p->histogram_.max_) || !r->ReadBool(is_sketch) ||
        (!*is_sketch && !ReadSignature(r, &p->minhash_)) ||
        !r->ReadU64(&text_count) ||
        !r->ReadDouble(&p->text_profile_.mean_length) ||
        !r->ReadDouble(&p->text_profile_.stddev_length) ||
        !r->ReadDouble(&p->text_profile_.digit_fraction) ||
        !r->ReadDouble(&p->text_profile_.alpha_fraction) ||
        !r->ReadDouble(&p->text_profile_.space_fraction) ||
        !r->ReadDouble(&p->text_profile_.distinct_ratio) ||
        !r->ReadU64(&numeric_count) ||
        !r->ReadDouble(&p->numeric_stats_.mean) ||
        !r->ReadDouble(&p->numeric_stats_.stddev) ||
        !r->ReadDouble(&p->numeric_stats_.min) ||
        !r->ReadDouble(&p->numeric_stats_.max) ||
        !r->ReadDouble(&p->numeric_stats_.median) ||
        !r->ReadDouble(&p->numeric_fraction_) ||
        !r->ReadStringVector(&p->name_tokens_) ||
        !r->ReadStringSet(&p->value_ngrams_) || !ReadSpec(r, &p->spec_)) {
      return false;
    }
    if (*is_sketch) p->minhash_ = sketch;
    p->full_distinct_count_ = full_distinct_count;
    p->text_profile_.count = text_count;
    p->numeric_stats_.count = numeric_count;
    return true;
  }

  static std::shared_ptr<const TableProfile> AssembleTableProfile(
      const TableDiscoveryArtifact& artifact) {
    auto profile = std::make_shared<TableProfile>();
    profile->spec_ = artifact.profile_spec;
    profile->columns_ = artifact.profiles;
    return profile;
  }
};

std::shared_ptr<const TableProfile> TableProfileFromArtifact(
    const TableDiscoveryArtifact& artifact) {
  if (!artifact.has_profiles) return nullptr;
  return DiscoveryArtifactCodec::AssembleTableProfile(artifact);
}

TableDiscoveryArtifact BuildDiscoveryArtifact(
    const Table& table, size_t signature_size, bool with_profiles,
    const ProfileSpec& spec, std::optional<uint64_t> fingerprint) {
  TableDiscoveryArtifact artifact;
  artifact.fingerprint =
      fingerprint.has_value() ? *fingerprint : TableContentFingerprint(table);
  artifact.table_name = table.name();
  artifact.signature_size = signature_size;
  if (with_profiles) {
    artifact.has_profiles = true;
    artifact.profile_spec = spec;
    artifact.profiles.reserve(table.num_columns());
    for (const Column& c : table.columns()) {
      artifact.profiles.push_back(ColumnProfile::Build(c, spec));
    }
  }
  // A profile's MinHash is the column sketch whenever it was built over
  // the whole distinct set at the sketch's width, so the column is
  // sketched once; otherwise the sketch gets its own build.
  artifact.columns.reserve(table.num_columns());
  for (size_t i = 0; i < table.num_columns(); ++i) {
    const Column& c = table.column(i);
    const ColumnProfile* p = with_profiles ? &artifact.profiles[i] : nullptr;
    if (p != nullptr && spec.minhash_hashes == signature_size &&
        (spec.set_cap == 0 || p->full_distinct_count() <= spec.set_cap)) {
      artifact.columns.push_back(
          {c.name(), {p->minhash(), p->full_distinct_count()}});
    } else {
      artifact.columns.push_back(
          {c.name(), LazoSketch::Build(c.DistinctStringSet(), signature_size)});
    }
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
  PutBool(&out, a.has_profiles);
  if (a.has_profiles) {
    PutSpec(&out, a.profile_spec);
    PutU64(&out, a.profiles.size());
    for (size_t i = 0; i < a.profiles.size(); ++i) {
      DiscoveryArtifactCodec::PutProfile(
          &out, a.profiles[i],
          i < a.columns.size() ? &a.columns[i].sketch.signature : nullptr);
    }
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
  if (!r.ReadBool(&a.has_profiles)) {
    return Status::ParseError("artifact: truncated profile flag");
  }
  if (a.has_profiles) {
    uint64_t num_profiles = 0;
    if (!ReadSpec(&r, &a.profile_spec) || !r.ReadU64(&num_profiles)) {
      return Status::ParseError("artifact: truncated profile header");
    }
    if (num_profiles != a.columns.size()) {
      return Status::ParseError("artifact: profile count mismatch");
    }
    a.profiles.reserve(num_profiles);
    for (uint64_t i = 0; i < num_profiles; ++i) {
      ColumnProfile p;
      bool is_sketch = false;
      if (!DiscoveryArtifactCodec::ReadProfile(
              &r, a.columns[i].sketch.signature, &p, &is_sketch)) {
        return Status::ParseError("artifact: truncated profile " +
                                  std::to_string(i));
      }
      // The shared signature must have the width the profile's spec
      // builds; a flag on any other profile is corrupt.
      if (is_sketch && p.spec().minhash_hashes != a.signature_size) {
        return Status::ParseError("artifact: profile " + std::to_string(i) +
                                  " shares a sketch of another width");
      }
      a.profiles.push_back(std::move(p));
    }
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
