#include "cache.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/journal.hpp"

namespace densevlc::analyze {

namespace {

constexpr const char* kMagic = "dvlca 1";

std::string escape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      default: out += s[i];
    }
  }
  return out;
}

std::vector<std::string> split_tabs(const std::string& s) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (true) {
    const std::size_t tab = s.find('\t', at);
    out.push_back(s.substr(at, tab == std::string::npos ? tab : tab - at));
    if (tab == std::string::npos) break;
    at = tab + 1;
  }
  return out;
}

}  // namespace

std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string serialize_entry(const CacheEntry& entry) {
  std::ostringstream out;
  const FileSummary& s = entry.summary;
  out << kMagic << '\n';
  out << "rel " << s.rel << '\n';
  out << "module " << s.module << '\n';
  out << "header " << (s.is_header ? 1 : 0) << '\n';
  out << "waived " << entry.waived << '\n';
  for (const Include& inc : s.includes) {
    out << "inc " << inc.line << ' ' << inc.target << '\n';
  }
  for (const auto& [rule, lines] : s.waivers) {
    out << "waiver " << rule;
    for (std::size_t l : lines) out << ' ' << l;
    out << '\n';
  }
  for (const SymbolDecl& d : s.symbols) {
    out << "sym " << d.line << ' ' << d.param_count << ' '
        << (d.is_definition ? 1 : 0) << ' ' << d.name << '\n';
  }
  for (const SymbolDecl& d : s.into_decls) {
    out << "into " << d.line << ' ' << d.param_count << ' '
        << (d.is_definition ? 1 : 0) << ' ' << d.name << '\n';
  }
  for (const auto& [name, count] : s.ident_uses) {
    out << "use " << count << ' ' << name << '\n';
  }
  for (const Finding& f : entry.findings) {
    out << "finding " << escape_field(f.rule) << '\t' << escape_field(f.file)
        << '\t' << f.line << '\t' << escape_field(f.symbol) << '\t'
        << escape_field(f.message) << '\n';
  }
  return out.str();
}

bool parse_entry(const std::string& text, CacheEntry& out) {
  std::istringstream in{text};
  std::string line;
  if (!std::getline(in, line) || line != kMagic) return false;
  out = CacheEntry{};
  FileSummary& s = out.summary;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) return false;
    const std::string key = line.substr(0, sp);
    const std::string rest = line.substr(sp + 1);
    std::istringstream fields{rest};
    if (key == "rel") {
      s.rel = rest;
    } else if (key == "module") {
      s.module = rest;
    } else if (key == "header") {
      s.is_header = rest == "1";
    } else if (key == "waived") {
      out.waived = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "inc") {
      Include inc;
      fields >> inc.line;
      fields.get();  // separating space
      std::getline(fields, inc.target);
      s.includes.push_back(std::move(inc));
    } else if (key == "waiver") {
      std::string rule;
      fields >> rule;
      std::size_t l = 0;
      while (fields >> l) s.waivers[rule].insert(l);
    } else if (key == "sym" || key == "into") {
      SymbolDecl d;
      int def = 0;
      fields >> d.line >> d.param_count >> def >> d.name;
      if (d.name.empty()) return false;
      d.is_definition = def != 0;
      (key == "sym" ? s.symbols : s.into_decls).push_back(std::move(d));
    } else if (key == "use") {
      std::size_t count = 0;
      std::string name;
      fields >> count >> name;
      if (name.empty()) return false;
      s.ident_uses[name] = count;
    } else if (key == "finding") {
      const std::vector<std::string> cols = split_tabs(rest);
      if (cols.size() != 5) return false;
      Finding f;
      f.rule = unescape_field(cols[0]);
      f.file = unescape_field(cols[1]);
      f.line = std::strtoull(cols[2].c_str(), nullptr, 10);
      f.symbol = unescape_field(cols[3]);
      f.message = unescape_field(cols[4]);
      out.findings.push_back(std::move(f));
    } else {
      return false;  // unknown record: treat the entry as corrupt
    }
  }
  return true;
}

AnalysisCache::AnalysisCache(std::filesystem::path dir, std::string config)
    : dir_{std::move(dir)}, config_{std::move(config)} {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
  }
}

std::filesystem::path AnalysisCache::entry_path(
    const std::string& rel, const std::string& contents) const {
  const std::uint64_t key =
      fnv1a(contents) ^ fnv1a(config_) ^ (fnv1a(rel) * 0x9e3779b97f4a7c15ULL);
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.dvlca",
                static_cast<unsigned long long>(key));
  return dir_ / name;
}

std::optional<CacheEntry> AnalysisCache::probe(const std::string& rel,
                                               const std::string& contents) {
  if (dir_.empty()) return std::nullopt;
  std::ifstream in{entry_path(rel, contents)};
  if (!in) {
    ++misses_;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  CacheEntry entry;
  if (!parse_entry(buf.str(), entry) || entry.summary.rel != rel) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return entry;
}

void AnalysisCache::store(const std::string& rel, const std::string& contents,
                          const CacheEntry& entry) {
  if (dir_.empty()) return;
  // Atomic replace: a concurrent or killed analyzer must never leave a
  // half-written entry that a later probe would half-parse.
  (void)journal::write_file_atomic(entry_path(rel, contents).string(),
                                   serialize_entry(entry));
}

}  // namespace densevlc::analyze
