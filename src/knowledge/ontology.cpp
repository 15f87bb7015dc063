#include "knowledge/ontology.h"

#include <algorithm>

namespace valentine {

size_t Ontology::AddClass(std::string name, std::vector<std::string> labels) {
  fingerprint_.Invalidate();
  classes_.push_back({std::move(name), std::move(labels), std::nullopt});
  return classes_.size() - 1;
}

size_t Ontology::AddSubclass(size_t parent, std::string name,
                             std::vector<std::string> labels) {
  fingerprint_.Invalidate();
  classes_.push_back({std::move(name), std::move(labels), parent});
  return classes_.size() - 1;
}

std::vector<size_t> Ontology::AncestorsOf(size_t i) const {
  std::vector<size_t> chain{i};
  while (classes_[chain.back()].parent) {
    chain.push_back(*classes_[chain.back()].parent);
  }
  return chain;
}

std::optional<size_t> Ontology::HierarchyDistance(size_t a, size_t b) const {
  if (a == b) return 0;
  auto ca = AncestorsOf(a);
  auto cb = AncestorsOf(b);
  for (size_t i = 0; i < ca.size(); ++i) {
    auto it = std::find(cb.begin(), cb.end(), ca[i]);
    if (it != cb.end()) {
      return i + static_cast<size_t>(it - cb.begin());
    }
  }
  return std::nullopt;
}

uint64_t Ontology::Fingerprint() const {
  return fingerprint_.Get([this] { return ComputeFingerprint(); });
}

uint64_t Ontology::ComputeFingerprint() const {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xFF;  // terminator so concatenated fields cannot alias
    h *= 1099511628211ULL;
  };
  for (const OntologyClass& c : classes_) {
    mix(c.name);
    for (const std::string& label : c.labels) mix(label);
    mix(c.parent ? std::to_string(*c.parent) : "-");
  }
  return h;
}

std::vector<std::pair<size_t, std::string>> Ontology::AllLabels() const {
  std::vector<std::pair<size_t, std::string>> out;
  for (size_t i = 0; i < classes_.size(); ++i) {
    for (const auto& label : classes_[i].labels) {
      out.emplace_back(i, label);
    }
  }
  return out;
}

}  // namespace valentine
