#ifndef VALENTINE_KNOWLEDGE_THESAURUS_H_
#define VALENTINE_KNOWLEDGE_THESAURUS_H_

/// \file thesaurus.h
/// A compact thesaurus: synonym sets, a hypernym (is-a) hierarchy, and an
/// abbreviation dictionary.
///
/// Substitution note (DESIGN.md §3): the original Cupid/COMA runs used
/// WordNet via NLTK. We embed a curated vocabulary that covers the schema
/// vocabulary of this suite's dataset generators, which exercises the
/// same lookup / expansion / relatedness code paths.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "knowledge/fingerprint_memo.h"

namespace valentine {

/// \brief Synonyms + hypernyms + abbreviations with similarity scoring.
class Thesaurus {
 public:
  Thesaurus() = default;

  /// The built-in thesaurus covering the suite's generator vocabulary.
  static const Thesaurus& Default();

  /// Registers a set of mutually synonymous (lowercase) words.
  void AddSynonymSet(const std::vector<std::string>& words);

  /// Registers `word IS-A parent` (both lowercase).
  void AddHypernym(const std::string& word, const std::string& parent);

  /// Registers an abbreviation expansion, e.g. "addr" -> "address".
  void AddAbbreviation(const std::string& abbrev,
                       const std::string& expansion);

  /// True when the two words share a synonym set (or are equal).
  bool AreSynonyms(const std::string& a, const std::string& b) const;

  /// Expands a token if it is a known abbreviation, else returns it.
  std::string Expand(const std::string& token) const;

  /// Lexical relatedness in [0,1]: 1 for equal/synonyms, 0.8 for direct
  /// hypernym/hyponym or shared parent, 0 otherwise.
  double Relatedness(const std::string& a, const std::string& b) const;

  static constexpr size_t kNoSet = static_cast<size_t>(-1);

  /// A word with its lookups (synonym set, hypernym) resolved once, for
  /// callers that compare the same words many times. Stale after any
  /// mutation of the thesaurus that resolved it.
  struct Term {
    std::string word;
    std::string parent;          ///< hypernym, when has_parent
    bool has_parent = false;
    size_t set = kNoSet;         ///< synonym set of `word`
    size_t parent_set = kNoSet;  ///< synonym set of `parent`
  };
  Term Resolve(const std::string& word) const;

  /// Relatedness over resolved words, without hashing; the string
  /// overload resolves both words and calls this.
  static double Relatedness(const Term& a, const Term& b);

  /// All synonyms of a word, including itself (empty when unknown).
  std::vector<std::string> Synonyms(const std::string& word) const;

  size_t num_synonym_sets() const { return sets_.size(); }

  /// Deterministic content hash (synonym sets in insertion order;
  /// hypernym and abbreviation entries sorted before hashing). Matcher
  /// PrepareKeys embed this so artifacts derived through thesaurus
  /// lookups stay keyed by knowledge-base content. Memoized: hashed on
  /// first use after construction or after the latest mutation.
  uint64_t Fingerprint() const;

 private:
  uint64_t ComputeFingerprint() const;

  std::vector<std::vector<std::string>> sets_;
  std::unordered_map<std::string, size_t> word_to_set_;
  std::unordered_map<std::string, std::string> hypernym_;
  std::unordered_map<std::string, std::string> abbreviations_;
  FingerprintMemo fingerprint_;
};

}  // namespace valentine

#endif  // VALENTINE_KNOWLEDGE_THESAURUS_H_
