// Determinism pass: audits every parallel_for call site
// against the reproducibility contract of common/thread_pool.hpp. The
// contract allows exactly three things inside a parallel body:
//
//   - reads of captured state,
//   - writes through an index ([] subscript) into disjoint slots,
//   - body-local declarations (including per-link Rng streams derived via
//     split() / fork() / derive_stream_seed).
//
// Everything else is a cross-chunk hazard:
//
//   par-shared-write      a bare (unsubscripted) assignment, compound
//                         assignment, or ++/-- targeting a name that is
//                         not declared inside the body — i.e. mutation of
//                         by-reference-captured shared state.
//   par-container-growth  push_back / emplace_back / insert / emplace /
//                         append / push_front / resize on a receiver that
//                         is not body-local: growth order depends on chunk
//                         scheduling, which breaks bit-identical replay.
//   par-rng-stream        use of a captured Rng-like object without
//                         deriving a per-index stream (split / fork /
//                         derive_stream_seed): chunk placement would leak
//                         into the random sequence.
#include <algorithm>
#include <set>
#include <string>

#include "analysis.hpp"

namespace densevlc::analyze {
namespace {

bool is_assign_op(const std::string& s) {
  return s == "=" || s == "+=" || s == "-=" || s == "*=" || s == "/=" ||
         s == "%=" || s == "&=" || s == "|=" || s == "^=" || s == "<<=" ||
         s == ">>=";
}

bool rng_like(const std::string& name) {
  return name == "rng" || name == "rng_" || name.rfind("rng_", 0) == 0 ||
         ends_with(name, "_rng") || ends_with(name, "_rng_");
}

const char* const kGrowers[] = {"push_back", "emplace_back", "insert",
                                "emplace",   "append",       "push_front",
                                "resize"};

const char* const kStreamDerivers[] = {"split", "fork", "derive_stream_seed"};

bool is_stream_deriver(const std::string& s) {
  return std::any_of(std::begin(kStreamDerivers), std::end(kStreamDerivers),
                     [&](const char* d) { return s == d; });
}

/// One lambda argument of a parallel call: [captures](params){ body }.
struct LambdaBody {
  std::size_t body_open = 0;   // index of "{"
  std::size_t body_close = 0;  // index of matching "}"
  std::set<std::string> locals;
};

/// Statement boundary inside a body. `)` is included so `if (...) x = 1;`
/// still scans x at a statement start; `(expr) = y` is not valid C++, so
/// the approximation is safe.
bool is_stmt_boundary(const Token& t) {
  if (t.kind == TokenKind::kPunct) {
    return t.text == "{" || t.text == ";" || t.text == "}" || t.text == ")";
  }
  return t.kind == TokenKind::kIdentifier &&
         (t.text == "else" || t.text == "do");
}

/// Collects names declared inside [begin, end): lambda-style parameter
/// lists are handled by the caller; here we catch `Type name =/;/{/(/:`
/// pairs, `Type& name`, and `auto [a, b] =` structured bindings.
void collect_locals(const std::vector<Token>& toks, std::size_t begin,
                    std::size_t end, std::set<std::string>& locals) {
  for (std::size_t i = begin; i < end; ++i) {
    // Template-typed declarations: `std::vector<double> scratch;` — the
    // name follows the closing `>` of the template argument list.
    if (toks[i].kind == TokenKind::kPunct && toks[i].text == ">") {
      const std::size_t name = next_code(toks, i);
      if (name != std::string::npos && name < end &&
          toks[name].kind == TokenKind::kIdentifier) {
        const std::size_t after = next_code(toks, name);
        if (after != std::string::npos && after < end &&
            (toks[after].text == "=" || toks[after].text == "{" ||
             toks[after].text == ";" || toks[after].text == "(")) {
          locals.insert(toks[name].text);
        }
      }
      continue;
    }
    if (toks[i].kind != TokenKind::kIdentifier) continue;
    // auto [a, b] = ...
    if (toks[i].text == "auto") {
      const std::size_t br = next_code(toks, i);
      if (token_is(toks, br, "[")) {
        for (std::size_t j = br + 1; j < end && toks[j].text != "]"; ++j) {
          if (toks[j].kind == TokenKind::kIdentifier) {
            locals.insert(toks[j].text);
          }
        }
        continue;
      }
    }
    // `Type name`, `Type& name`, `Type* name` followed by a declarator
    // terminator. The type may be qualified (a::b) — adjacency of two
    // plain identifiers is what signals a declaration.
    std::size_t j = next_code(toks, i);
    while (j != std::string::npos && j < end &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "&&")) {
      j = next_code(toks, j);
    }
    if (j == std::string::npos || j >= end ||
        toks[j].kind != TokenKind::kIdentifier) {
      continue;
    }
    const std::size_t after = next_code(toks, j);
    if (after == std::string::npos || after >= end) continue;
    const std::string& term = toks[after].text;
    if (term == "=" || term == "{" || term == ";" || term == "(" ||
        term == ":" || term == ",") {
      // Exclude `a . b` style chains: the first identifier must not be
      // preceded by a member/scope operator.
      const std::size_t p = prev_code(toks, i);
      const bool chained = p != std::string::npos &&
                           (toks[p].text == "." || toks[p].text == "->");
      if (!chained) locals.insert(toks[j].text);
    }
  }
}

/// Parses the lambda arguments of a parallel call whose argument list is
/// toks(open..close). Returns every lambda found at the top level.
std::vector<LambdaBody> find_lambdas(const std::vector<Token>& toks,
                                     std::size_t open, std::size_t close) {
  std::vector<LambdaBody> out;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (toks[i].text != "[" || toks[i].kind != TokenKind::kPunct) continue;
    const std::size_t p = prev_code(toks, i);
    const bool intro = p != std::string::npos &&
                       (toks[p].text == "(" || toks[p].text == ",");
    if (!intro) continue;
    // Skip the capture list.
    std::size_t j = i;
    int depth = 0;
    for (; j < close; ++j) {
      if (toks[j].text == "[") ++depth;
      if (toks[j].text == "]" && --depth == 0) break;
    }
    if (j >= close) break;
    LambdaBody lb;
    std::size_t k = next_code(toks, j);
    if (token_is(toks, k, "(")) {
      const std::size_t params_close = match_paren(toks, k);
      if (params_close == std::string::npos) break;
      // Parameter names: last identifier before each `,` or the `)`.
      std::size_t last_ident = std::string::npos;
      for (std::size_t q = k + 1; q <= params_close; ++q) {
        if (toks[q].kind == TokenKind::kIdentifier) last_ident = q;
        if ((toks[q].text == "," || q == params_close) &&
            last_ident != std::string::npos) {
          lb.locals.insert(toks[last_ident].text);
          last_ident = std::string::npos;
        }
      }
      k = next_code(toks, params_close);
    }
    // Skip specifiers (mutable, noexcept, -> T) until the body opens.
    while (k != std::string::npos && k < close && toks[k].text != "{") {
      k = next_code(toks, k);
    }
    if (k == std::string::npos || k >= close) break;
    lb.body_open = k;
    lb.body_close = match_brace(toks, k);
    if (lb.body_close == std::string::npos) break;
    collect_locals(toks, lb.body_open + 1, lb.body_close, lb.locals);
    const std::size_t resume = lb.body_close;
    out.push_back(std::move(lb));
    i = resume;
  }
  return out;
}

void check_body(const SourceFile& f, const std::vector<Token>& toks,
                const LambdaBody& lb, Sink& sink) {
  const auto local = [&](const std::string& name) {
    return lb.locals.count(name) != 0;
  };
  for (std::size_t i = lb.body_open + 1; i < lb.body_close; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) {
      // ++x / --x on a shared name at a statement start.
      if (t.kind == TokenKind::kPunct && (t.text == "++" || t.text == "--")) {
        const std::size_t p = prev_code(toks, i);
        const bool at_start =
            p == std::string::npos || p <= lb.body_open || is_stmt_boundary(toks[p]);
        const std::size_t x = next_code(toks, i);
        if (at_start && x != std::string::npos && x < lb.body_close &&
            toks[x].kind == TokenKind::kIdentifier && !local(toks[x].text) &&
            !token_is(toks, next_code(toks, x), "[")) {
          sink.report(f, toks[x].line, "par-shared-write", toks[x].text,
                      "'" + toks[x].text +
                          "' is incremented inside a parallel body but is "
                          "not body-local; chunk scheduling would race on "
                          "it — write to an i-indexed slot instead");
        }
      }
      continue;
    }

    // Container growth on a non-local receiver.
    if (std::any_of(std::begin(kGrowers), std::end(kGrowers),
                    [&](const char* g) { return t.text == g; })) {
      const std::size_t dot = prev_code(toks, i);
      if (dot != std::string::npos &&
          (toks[dot].text == "." || toks[dot].text == "->") &&
          token_is(toks, next_code(toks, i), "(")) {
        const std::size_t recv = prev_code(toks, dot);
        const bool shared_recv =
            recv == std::string::npos ||
            toks[recv].kind != TokenKind::kIdentifier ||
            !local(toks[recv].text);
        if (shared_recv) {
          const std::string who =
              (recv != std::string::npos &&
               toks[recv].kind == TokenKind::kIdentifier)
                  ? toks[recv].text
                  : t.text;
          sink.report(f, t.line, "par-container-growth", who,
                      "'" + t.text +
                          "' grows a container that is not body-local "
                          "inside a parallel body; element order would "
                          "depend on chunk scheduling — preallocate, "
                          "write per-index slots, then fold serially");
        }
      }
      continue;
    }

    // Rng use without a derived per-index stream.
    if (rng_like(t.text) && !local(t.text)) {
      const std::size_t dot = next_code(toks, i);
      bool derives = false;
      if (dot != std::string::npos && dot < lb.body_close &&
          (toks[dot].text == "." || toks[dot].text == "->")) {
        const std::size_t m = next_code(toks, dot);
        derives = m != std::string::npos && m < lb.body_close &&
                  is_stream_deriver(toks[m].text);
      }
      if (!derives) {
        // `derive_stream_seed(seed, rng_salt)` style use within the same
        // statement also derives a fresh stream.
        for (std::size_t j = i; j > lb.body_open; --j) {
          if (toks[j].text == ";" || toks[j].text == "{") break;
          if (is_stream_deriver(toks[j].text)) derives = true;
        }
      }
      if (!derives) {
        sink.report(f, t.line, "par-rng-stream", t.text,
                    "'" + t.text +
                        "' is used inside a parallel body without deriving "
                        "a per-index stream; call split(i) / fork() / "
                        "derive_stream_seed so draws are independent of "
                        "chunk placement");
      }
      continue;
    }

    // Bare assignment to a shared name at a statement start.
    const std::size_t p = prev_code(toks, i);
    const bool at_start =
        p == std::string::npos || p <= lb.body_open || is_stmt_boundary(toks[p]);
    if (!at_start) continue;
    // Walk the postfix chain: name (.member | ->member | ::member)*.
    std::size_t end_of_chain = i;
    bool subscripted = false;
    std::size_t j = next_code(toks, i);
    while (j != std::string::npos && j < lb.body_close) {
      if (toks[j].text == "[") {
        subscripted = true;
        std::size_t depth = 0;
        while (j < lb.body_close) {
          if (toks[j].text == "[") ++depth;
          if (toks[j].text == "]" && --depth == 0) break;
          ++j;
        }
        j = next_code(toks, j);
        continue;
      }
      if (toks[j].text == "." || toks[j].text == "->" ||
          toks[j].text == "::") {
        j = next_code(toks, j);  // member name
        if (j == std::string::npos) break;
        end_of_chain = j;
        j = next_code(toks, j);
        continue;
      }
      break;
    }
    (void)end_of_chain;
    if (j == std::string::npos || j >= lb.body_close) continue;
    if (is_assign_op(toks[j].text) && !subscripted && !local(t.text)) {
      sink.report(f, t.line, "par-shared-write", t.text,
                  "'" + t.text +
                      "' is assigned inside a parallel body but is not "
                      "body-local and not index-subscripted; concurrent "
                      "chunks would race — write to a disjoint i-indexed "
                      "slot instead");
    }
    if ((toks[j].text == "++" || toks[j].text == "--") && !subscripted &&
        !local(t.text)) {
      sink.report(f, t.line, "par-shared-write", t.text,
                  "'" + t.text +
                      "' is incremented inside a parallel body but is not "
                      "body-local; chunk scheduling would race on it — "
                      "write to an i-indexed slot instead");
    }
  }
}

class DeterminismPass final : public Pass {
 public:
  const char* name() const override { return "determinism"; }

  std::vector<RuleInfo> rules() const override {
    return {
        {"par-shared-write",
         "parallel bodies must not mutate shared state without an index"},
        {"par-container-growth",
         "parallel bodies must not grow shared containers"},
        {"par-rng-stream",
         "parallel bodies must derive per-index Rng streams"},
    };
  }

  void run_file(const SourceFile& f, const ScopeTree& scope,
                Sink& sink) const override {
    (void)scope;
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier ||
          toks[i].text != "parallel_for") {
        continue;
      }
      // Skip the definition in thread_pool.hpp: there the
      // name is preceded by its return type (an identifier, `>`, `&`, or
      // `*`); at a call site it follows a statement boundary, `return`,
      // `::`, or an argument separator.
      const std::size_t p = prev_code(toks, i);
      if (p != std::string::npos &&
          ((toks[p].kind == TokenKind::kIdentifier &&
            toks[p].text != "return" && toks[p].text != "co_return") ||
           toks[p].text == ">" || toks[p].text == "&" ||
           toks[p].text == "*")) {
        continue;
      }
      const std::size_t open = next_code(toks, i);
      if (!token_is(toks, open, "(")) continue;
      const std::size_t close = match_paren(toks, open);
      if (close == std::string::npos) continue;
      for (const LambdaBody& lb : find_lambdas(toks, open, close)) {
        check_body(f, toks, lb, sink);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_determinism_pass() {
  return std::make_unique<DeterminismPass>();
}

}  // namespace densevlc::analyze
