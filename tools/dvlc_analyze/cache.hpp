// Incremental-analysis cache for dvlc_analyze.
//
// Per-file work (tokenizing, scope-tree construction, every file-scoped
// pass) is cached under a content-addressed key; project-level passes
// re-run every time but consume only the cached FileSummary records, so
// a warm run over an unchanged tree re-analyzes zero files.
//
// Key = FNV-1a(file bytes) ⊕ FNV-1a(config), where the config string
// folds in everything that can change a file's findings besides its own
// content: the analyzer pass-version (bumped whenever any pass's
// behavior changes), the enabled pass set, and the file's root-relative
// path (rules are path-sensitive: physics-core checks, module maps).
// Each entry is one small text file named <hash>.dvlca in the cache
// directory; stale entries are left behind and garbage-collected by age
// (anything not touched by the current run is fair game to delete).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "index.hpp"

namespace densevlc::analyze {

/// Bump when ANY pass's behavior changes: the version participates in
/// every cache key, so old entries become unreachable (not wrong).
inline constexpr const char* kAnalyzerPassVersion = "dvlc-analyze-v5";

/// 64-bit FNV-1a.
std::uint64_t fnv1a(const std::string& data);

/// Everything cached per file: the summary the project passes need plus
/// the file-scoped findings and waiver statistics.
struct CacheEntry {
  FileSummary summary;
  std::vector<Finding> findings;  // file-scoped passes only
  std::size_t waived = 0;
};

/// Round-trip text serialization (exposed for the self-tests).
std::string serialize_entry(const CacheEntry& entry);
[[nodiscard]] bool parse_entry(const std::string& text, CacheEntry& out);

class AnalysisCache {
 public:
  /// `config` must fold in every non-content input that affects per-file
  /// results (pass version, enabled passes). An empty `dir` disables the
  /// cache (every probe misses, stores are dropped).
  AnalysisCache(std::filesystem::path dir, std::string config);

  /// Looks up the entry for a file with the given root-relative path and
  /// raw contents. Returns nullopt on miss or parse failure.
  std::optional<CacheEntry> probe(const std::string& rel,
                                  const std::string& contents);

  /// Stores the entry under the same key probe() would use.
  void store(const std::string& rel, const std::string& contents,
             const CacheEntry& entry);

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  bool enabled() const { return !dir_.empty(); }

 private:
  std::filesystem::path entry_path(const std::string& rel,
                                   const std::string& contents) const;

  std::filesystem::path dir_;
  std::string config_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace densevlc::analyze
