// Dead-API pass: cross-TU liveness over the project symbol index.
//
//   dead-public-api  a free function declared in a src/ header is used
//                    nowhere outside its own header/source pair — the
//                    symbol's only occurrences are its declaration (and,
//                    for non-inline functions, the one definition in the
//                    paired .cpp). "Used by its own header" (an inline
//                    helper another inline function calls) clears it, as
//                    does any mention anywhere else in the analyzed tree.
//                    Tests are not users: the analyzer_no_test_only_api
//                    ctest runs this pass without tests/, so a function
//                    that only a test calls is reported as dead.
//   api-pair-drift   a `foo_into(out, ...)` overload whose value wrapper
//                    `foo(...)` exists but no longer takes one fewer
//                    parameter — the pair's signatures drifted apart, so
//                    the wrapper is probably not forwarding anymore.
//
// Both rules are name-based and conservative: overloads share liveness,
// all-caps (macro-like) names and operator/main entry points are
// exempt, and any count mismatch the pairing cannot explain stays
// silent rather than guessing.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>

#include "analysis.hpp"

namespace densevlc::analyze {
namespace {

bool macro_like(const std::string& name) {
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isupper(c) != 0 || std::isdigit(c) != 0 || c == '_';
  });
}

bool exempt_name(const std::string& name) {
  return name == "main" || name.rfind("operator", 0) == 0 ||
         macro_like(name) || name.empty() || name[0] == '_';
}

std::string stem_of(const std::string& rel) {
  const std::size_t dot = rel.rfind('.');
  return dot == std::string::npos ? rel : rel.substr(0, dot);
}

class DeadApiPass final : public Pass {
 public:
  const char* name() const override { return "dead-api"; }

  std::vector<RuleInfo> rules() const override {
    return {
        {"dead-public-api",
         "src/ header functions must be used outside their own TU"},
        {"api-pair-drift",
         "*_into overloads and their value wrappers must keep paired "
         "signatures"},
    };
  }

  void run_project(const AnalysisContext& ctx, Sink& sink) const override {
    check_dead(ctx, sink);
    check_pair_drift(ctx, sink);
  }

 private:
  void check_dead(const AnalysisContext& ctx, Sink& sink) const {
    for (const FileSummary& f : ctx.index.files) {
      if (!f.is_header || f.rel.rfind("src/", 0) != 0) continue;
      const std::string stem = stem_of(f.rel);
      std::set<std::string> counted;
      for (const SymbolDecl& d : f.symbols) {
        if (exempt_name(d.name)) continue;
        if (ctx.index.external_uses(d.name, f.rel) != 0) continue;
        if (!counted.insert(d.name).second) continue;
        // Count this name's occurrences inside the header/source pair.
        std::size_t uses_in_pair = 0;
        std::size_t decl_sites = 0;
        bool any_declaration_only = false;
        for (const SymbolDecl& d2 : f.symbols) {
          if (d2.name != d.name) continue;
          ++decl_sites;
          if (!d2.is_definition) any_declaration_only = true;
        }
        for (const FileSummary& g : ctx.index.files) {
          if (stem_of(g.rel) != stem) continue;
          const auto it = g.ident_uses.find(d.name);
          if (it != g.ident_uses.end()) uses_in_pair += it->second;
        }
        // Expected occurrences when truly dead: every decl site, plus
        // one out-of-line definition if any site was declaration-only.
        const std::size_t expected =
            decl_sites + (any_declaration_only ? 1 : 0);
        if (uses_in_pair > expected) continue;  // used inside its own pair
        sink.report(f, d.line, "dead-public-api", d.name,
                    "'" + d.name +
                        "' is declared in a src/ header but never used "
                        "outside its own translation unit; delete it or "
                        "move it into the .cpp");
      }
    }
  }

  void check_pair_drift(const AnalysisContext& ctx, Sink& sink) const {
    // Wrapper param counts, by name, across every header.
    std::map<std::string, std::set<std::size_t>> wrapper_counts;
    for (const FileSummary& f : ctx.index.files) {
      for (const SymbolDecl& d : f.symbols) {
        wrapper_counts[d.name].insert(d.param_count);
      }
    }
    std::set<std::string> reported;
    for (const FileSummary& f : ctx.index.files) {
      for (const SymbolDecl& d : f.into_decls) {
        static const std::string kSuffix = "_into";
        if (d.name.size() <= kSuffix.size()) continue;
        const std::string wrapper =
            d.name.substr(0, d.name.size() - kSuffix.size());
        const auto it = wrapper_counts.find(wrapper);
        if (it == wrapper_counts.end()) continue;  // no wrapper to drift from
        // The `_into` form carries the output buffer (and possibly a
        // scratch) as extra parameters: a healthy wrapper takes one or
        // two fewer. Drift = no wrapper overload within that window.
        bool paired = false;
        for (std::size_t w : it->second) {
          if (w + 1 == d.param_count || w + 2 == d.param_count ||
              w == d.param_count) {
            paired = true;
          }
        }
        if (paired) continue;
        if (!reported.insert(d.name).second) continue;
        sink.report(f, d.line, "api-pair-drift", d.name,
                    "'" + d.name + "' takes " +
                        std::to_string(d.param_count) +
                        " parameter(s) but no overload of its value "
                        "wrapper '" + wrapper +
                        "' takes a compatible count; the pair's "
                        "signatures have drifted apart");
      }
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_deadapi_pass() {
  return std::make_unique<DeadApiPass>();
}

}  // namespace densevlc::analyze
