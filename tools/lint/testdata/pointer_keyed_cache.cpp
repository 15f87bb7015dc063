// Deliberately violating fixture for the pointer-cache-key rule: caches
// keyed on object addresses. The first include matches the header of
// src/stats/minhash.cpp so the self-test can also run this file
// pretending to be that file without tripping include-hygiene.
#include "stats/minhash.h"

#include <map>
#include <string>
#include <unordered_map>

namespace valentine {

class Table;

// Both of these must be flagged anywhere in src/ outside the exemption.
std::map<const Table*, std::string> g_serialized_cache;
std::unordered_map<Table*, int> g_hit_counts;

// A justified pointer key is suppressible line-by-line.
std::map<const Table*, int> g_generation;  // lint:allow(pointer-cache-key)

int Lookup(const std::map<const Table*, std::string>& cache) {
  return static_cast<int>(cache.size());
}

}  // namespace valentine
