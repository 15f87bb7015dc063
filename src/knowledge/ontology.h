#ifndef VALENTINE_KNOWLEDGE_ONTOLOGY_H_
#define VALENTINE_KNOWLEDGE_ONTOLOGY_H_

/// \file ontology.h
/// Domain ontology model: a class hierarchy where each class carries a
/// set of textual labels. SemProp links attribute/table names to ontology
/// classes (via embeddings) and then relates attributes linked to the
/// same or nearby classes.
///
/// Substitution note (DESIGN.md §3): the paper ran SemProp against the
/// EFO ontology shipped with ChEMBL; the ChEMBL dataset generator here
/// fabricates an EFO-like ontology covering its column semantics.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "knowledge/fingerprint_memo.h"

namespace valentine {

/// \brief One ontology class: a name, surface labels, and a parent.
struct OntologyClass {
  std::string name;                 ///< canonical class name
  std::vector<std::string> labels;  ///< surface forms / synonym labels
  std::optional<size_t> parent;     ///< index of parent class, if any
};

/// \brief A small class hierarchy with label search.
class Ontology {
 public:
  /// Adds a root class; returns its index.
  size_t AddClass(std::string name, std::vector<std::string> labels);

  /// Adds a subclass of `parent`; returns its index.
  size_t AddSubclass(size_t parent, std::string name,
                     std::vector<std::string> labels);

  size_t num_classes() const { return classes_.size(); }
  const OntologyClass& cls(size_t i) const { return classes_[i]; }
  const std::vector<OntologyClass>& classes() const { return classes_; }

  /// Number of edges on the path between two classes through their
  /// lowest common ancestor; nullopt when they are in different trees.
  std::optional<size_t> HierarchyDistance(size_t a, size_t b) const;

  /// All labels of all classes, as (class index, label) pairs.
  std::vector<std::pair<size_t, std::string>> AllLabels() const;

  /// Deterministic content hash (FNV-1a over classes, labels, and
  /// parent edges, in insertion order). Two ontologies with equal
  /// fingerprints link names identically, so matcher PrepareKeys embed
  /// this to keep per-table artifacts keyed by knowledge-base content.
  /// Memoized: hashed on first use after construction or after the
  /// latest mutation.
  uint64_t Fingerprint() const;

 private:
  std::vector<size_t> AncestorsOf(size_t i) const;
  uint64_t ComputeFingerprint() const;
  std::vector<OntologyClass> classes_;
  FingerprintMemo fingerprint_;
};

}  // namespace valentine

#endif  // VALENTINE_KNOWLEDGE_ONTOLOGY_H_
