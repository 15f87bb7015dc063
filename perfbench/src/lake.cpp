#include "lake.h"

#include "common.h"
#include "serve/json.h"

namespace valentine {
namespace perfbench {

namespace {

constexpr size_t kCoreValues = 32;  // pool values every shard carries
constexpr size_t kTailValues = 16;  // shard-private pool values
constexpr size_t kWordLen = 6;
constexpr uint64_t kWordSpace = 308915776ULL;  // 26^6

// Pure-alpha base-26 word: family tokens must not share digits or
// separators the name tokenizer could split on.
std::string AlphaWord(uint64_t v, size_t len) {
  std::string out(len, 'a');
  for (size_t i = 0; i < len; ++i) {
    out[len - 1 - i] = static_cast<char>('a' + v % 26);
    v /= 26;
  }
  return out;
}

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

LakeUniverse::LakeUniverse(uint64_t seed, size_t families)
    : seed_(seed), families_(families) {
  uint64_t h = Fnv1a("valentine-perfbench-lake");
  for (size_t idx = 0; idx < universe_size(); ++idx) {
    const Table t = TableAt(idx);
    h = Fnv1a(t.name(), h);
    for (const Column& c : t.columns()) {
      h = Fnv1a(c.name(), h);
      for (const Value& v : c.values()) h = Fnv1a(v.AsString(), h);
    }
  }
  fingerprint_ = h;
}

std::string LakeUniverse::FamilyWord(size_t family) const {
  // An affine map with a multiplier coprime to 26^6 is a bijection on
  // the word space, so distinct families always get distinct tokens.
  const uint64_t offset = Mix(seed_) % kWordSpace;
  return AlphaWord((offset + family * 1000003ULL) % kWordSpace, kWordLen);
}

std::string LakeUniverse::NameAt(size_t idx) const {
  const size_t family = idx / kSlotsPerFamily;
  const size_t slot = idx % kSlotsPerFamily;
  return FamilyWord(family) + "_shard_" + std::to_string(slot);
}

Table LakeUniverse::TableAt(size_t idx) const {
  const size_t family = idx / kSlotsPerFamily;
  const size_t slot = idx % kSlotsPerFamily;
  const std::string word = FamilyWord(family);
  auto pool_value = [&](uint64_t region_slot) {
    return AlphaWord(Mix(Mix(seed_ ^ (family * 1000003ULL)) + region_slot),
                     12);
  };
  Table t(NameAt(idx));
  for (size_t col = 0; col < 2; ++col) {
    Column c(word + (col == 0 ? "key" : "val"), DataType::kString);
    const uint64_t region = col * 500000ULL;
    for (size_t i = 0; i < kCoreValues; ++i) {
      c.Append(Value::String(pool_value(region + i)));
    }
    for (size_t i = 0; i < kTailValues; ++i) {
      c.Append(Value::String(
          pool_value(region + 1000 + slot * kTailValues + i)));
    }
    // Column names are unique within the table by construction.
    Status added = t.AddColumn(std::move(c));
    (void)added;
  }
  return t;
}

std::string TableToJson(const Table& table) {
  serve::JsonValue root = serve::JsonValue::Object();
  root.Set("name", serve::JsonValue::String(table.name()));
  serve::JsonValue columns = serve::JsonValue::Array();
  for (const Column& c : table.columns()) {
    serve::JsonValue col = serve::JsonValue::Object();
    col.Set("name", serve::JsonValue::String(c.name()));
    col.Set("type", serve::JsonValue::String("string"));
    serve::JsonValue values = serve::JsonValue::Array();
    for (const Value& v : c.values()) {
      values.Append(serve::JsonValue::String(v.AsString()));
    }
    col.Set("values", std::move(values));
    columns.Append(std::move(col));
  }
  root.Set("columns", std::move(columns));
  return serve::WriteJson(root);
}

std::string UniverseSelfTest(uint64_t seed, size_t families) {
  const uint64_t a = LakeUniverse(seed, families).universe_fingerprint();
  const uint64_t b = LakeUniverse(seed, families).universe_fingerprint();
  const uint64_t c = LakeUniverse(seed + 1, families).universe_fingerprint();
  if (a != b) return "same seed produced two different universe fingerprints";
  if (a == c) return "a different seed produced the same universe fingerprint";
  return "";
}

}  // namespace perfbench
}  // namespace valentine
