// psn_lint — project-specific static checks for the psn codebase
// (DESIGN.md §13). Three checks, each encoding an invariant the ordinary
// toolchain cannot express:
//
//   psn-determinism     A simulation run must be a pure function of seed and
//                       configuration. Ambient nondeterminism — wall clocks,
//                       libc randomness, the environment — is banned from
//                       src/{sim,core,clocks,net,check,world}; and code on
//                       output-feeding paths must not iterate unordered
//                       containers with a range-for (hash order varies per
//                       process, so exports/metrics/verdicts would too).
//
//   psn-hot-path-alloc  A function annotated PSN_HOT (common/hot.hpp)
//                       claims an allocation-free steady state; its body
//                       must not contain the obviously-allocating calls
//                       (new/delete, malloc family, make_unique/shared,
//                       to_string, stringstreams, std::function). The
//                       dynamic half of the contract is the alloc-guard
//                       suite (`ctest -L lint`).
//
//   psn-locale-safe-io  Float text in src/serve and src/analysis/export is
//                       wire format, not UI: it must round-trip under any
//                       process locale. The --faults grammar (src/sim/fault)
//                       and the predicate grammar (src/core/predicate*)
//                       read and print numbers under the same rule.
//                       Only the repo's json_fixed / json_general /
//                       from_chars paths are allowed — the strto* family,
//                       atof, sscanf and printf-family formatting are not.
//
// Implementation: a dependency-free token-level analyzer — a small C++
// lexer (comments, strings, raw strings, char literals, continuations,
// preprocessor lines) plus per-check token scans, so it needs no libclang
// and builds wherever the project does. Token-level is deliberately
// conservative: it flags call-shaped uses only (identifier followed by '(' ,
// not preceded by '.', '->', or a non-std qualifier), so member functions
// named `clock` or variables named `time` do not trip it.
//
// Suppressions, for sanctioned exceptions (same syntax as the checks
// report): a comment containing
//     psn-lint: allow(check-name[, check-name...])
// silences those checks on the comment's line and the one after it;
//     psn-lint: allow-file(check-name[, ...])
// silences them for the whole file. Every suppression should say why.
//
// Usage: psn_lint [--root <dir>] <file>...
// Output: <path>:<line>: [<check>] <message>, sorted; exit 0 when clean,
// 1 with findings, 2 on usage/IO errors.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

// --------------------------------------------------------------------------
// Lexer
// --------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kString, kChar, kPunct };

struct Tok {
  TokKind kind;
  std::string text;
  int line = 0;
};

struct Comment {
  int line = 0;      ///< line the comment starts on
  std::string text;
};

struct LexResult {
  std::vector<Tok> tokens;
  std::vector<Comment> comments;
};

bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool ident_char(char c) { return ident_start(c) || (c >= '0' && c <= '9'); }

/// Lexes enough C++ to scan safely: tokens never come from comments,
/// string/char literals, or preprocessor lines (so `#include <ctime>` and
/// the `#define PSN_HOT ...` line itself are invisible to the checks).
LexResult lex(const std::string& src) {
  LexResult out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the last newline

  const auto newline = [&] { line++; at_line_start = true; };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      newline();
      i++;
      continue;
    }
    if (c == '\\' && i + 1 < n && src[i + 1] == '\n') {  // continuation
      line++;
      i += 2;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      i++;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const int start_line = line;
      std::string text;
      i += 2;
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          line++;
          i += 2;
          continue;
        }
        text.push_back(src[i++]);
      }
      out.comments.push_back({start_line, std::move(text)});
      at_line_start = false;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      std::string text;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') line++;
        text.push_back(src[i++]);
      }
      i = (i + 1 < n) ? i + 2 : n;
      out.comments.push_back({start_line, std::move(text)});
      at_line_start = false;
      continue;
    }
    if (c == '#' && at_line_start) {  // preprocessor directive: skip the line
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          line++;
          i += 2;
          continue;
        }
        // Comments may trail a directive and still carry suppressions.
        if (src[i] == '/' && i + 1 < n &&
            (src[i + 1] == '/' || src[i + 1] == '*')) {
          break;
        }
        i++;
      }
      at_line_start = false;
      continue;
    }
    at_line_start = false;
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {  // raw string
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim.push_back(src[j++]);
      const std::string close = ")" + delim + "\"";
      const std::size_t end = src.find(close, j);
      const std::size_t stop = (end == std::string::npos) ? n : end + close.size();
      out.tokens.push_back({TokKind::kString, "<raw>", line});
      for (std::size_t k = i; k < stop; k++) {
        if (src[k] == '\n') line++;
      }
      i = stop;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) j++;
        if (src[j] == '\n') line++;
        j++;
      }
      out.tokens.push_back(
          {quote == '"' ? TokKind::kString : TokKind::kChar, "<lit>", line});
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) j++;
      out.tokens.push_back({TokKind::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c >= '0' && c <= '9') {
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.' || src[j] == '\'' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                         src[j - 1] == 'p' || src[j - 1] == 'P')))) {
        j++;
      }
      out.tokens.push_back({TokKind::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation; '::' and '->' matter to the checks, keep them fused.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back({TokKind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back({TokKind::kPunct, "->", line});
      i += 2;
      continue;
    }
    out.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
    i++;
  }
  return out;
}

// --------------------------------------------------------------------------
// Suppressions
// --------------------------------------------------------------------------

struct Suppressions {
  std::set<std::string> file_wide;
  std::map<int, std::set<std::string>> by_line;  ///< line -> silenced checks

  bool allows(const std::string& check, int line) const {
    if (file_wide.contains(check)) return true;
    // allow(...) covers its own line and the next (NOLINTNEXTLINE-style).
    for (int l : {line, line - 1}) {
      const auto it = by_line.find(l);
      if (it != by_line.end() && it->second.contains(check)) return true;
    }
    return false;
  }
};

void parse_allow_list(const std::string& body, std::set<std::string>& into) {
  std::string name;
  for (const char c : body) {
    if (ident_char(c) || c == '-') {
      name.push_back(c);
    } else {
      if (!name.empty()) into.insert(name);
      name.clear();
    }
  }
  if (!name.empty()) into.insert(name);
}

Suppressions collect_suppressions(const std::vector<Comment>& comments) {
  Suppressions s;
  for (const Comment& c : comments) {
    const std::size_t at = c.text.find("psn-lint:");
    if (at == std::string::npos) continue;
    const std::string rest = c.text.substr(at + 9);
    const std::size_t open = rest.find('(');
    const std::size_t close = rest.find(')', open);
    if (open == std::string::npos || close == std::string::npos) continue;
    const std::string kw = rest.substr(0, open);
    const std::string body = rest.substr(open + 1, close - open - 1);
    if (kw.find("allow-file") != std::string::npos) {
      parse_allow_list(body, s.file_wide);
    } else if (kw.find("allow") != std::string::npos) {
      parse_allow_list(body, s.by_line[c.line]);
    }
  }
  return s;
}

// --------------------------------------------------------------------------
// Findings + path scoping
// --------------------------------------------------------------------------

struct Finding {
  std::string path;
  int line = 0;
  std::string check;
  std::string message;

  bool operator<(const Finding& o) const {
    if (path != o.path) return path < o.path;
    if (line != o.line) return line < o.line;
    return message < o.message;
  }
};

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool in_any(std::string_view path, const std::vector<std::string_view>& dirs) {
  return std::any_of(dirs.begin(), dirs.end(), [&](std::string_view d) {
    return starts_with(path, d);
  });
}

/// Scope of the ambient-nondeterminism scan: everything a simulation result
/// flows through.
const std::vector<std::string_view> kDeterminismDirs = {
    "src/sim/", "src/core/", "src/clocks/", "src/net/", "src/check/",
    "src/world/"};

/// Output-feeding paths: bytes produced here reach exports, metrics dumps,
/// traces, or check verdicts, so iteration order is output order.
const std::vector<std::string_view> kOutputFeedingPaths = {
    "src/analysis/export", "src/analysis/sweep", "src/common/metrics",
    "src/common/table",    "src/sim/trace",      "src/check/",
    "src/serve/",          "src/core/lattice",
    // The sharded runner's merge paths (outbox exchange, root-log merge,
    // trace concatenation) define cross-shard event order — hash-order
    // iteration there would make results depend on the process, not the
    // seed (DESIGN.md §14).
    "src/sim/sharded", "src/core/sharded_system", "src/net/shard_map",
    // The fault layer (DESIGN.md §15): fault-plan compilation orders trace
    // records and partition transitions, and the transport/overlay
    // partition-epoch replay decides per-message drops — iteration order
    // there is drop order, which is output order.
    "src/sim/fault", "src/net/transport", "src/net/overlay"};

const std::vector<std::string_view> kLocaleSafeDirs = {
    "src/serve/", "src/analysis/export", "src/sim/fault",
    "src/core/predicate"};

// --------------------------------------------------------------------------
// Check 1: psn-determinism
// --------------------------------------------------------------------------

const std::set<std::string, std::less<>> kBannedAnywhere = {
    "system_clock", "random_device"};
const std::set<std::string, std::less<>> kBannedEnv = {"getenv", "setenv",
                                                       "putenv", "unsetenv"};
/// Banned only in call position (`name(`), and only unqualified or
/// std-qualified — `rng.clock()` or `legacy::time()` are someone else's.
const std::set<std::string, std::less<>> kBannedCalls = {
    "time",      "rand",         "srand",  "clock",       "gettimeofday",
    "localtime", "gmtime",       "mktime", "timespec_get", "clock_gettime",
    "drand48",   "lrand48",      "random", "srandom"};

const std::set<std::string, std::less<>> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/// True when `prev` cannot precede a plain function call — everything else
/// (operators, '(', ',', '{', 'return', ...) can.
bool prev_blocks_call(const std::vector<Tok>& toks, std::size_t i) {
  if (i == 0) return false;
  const Tok& prev = toks[i - 1];
  if (prev.kind == TokKind::kIdent) {
    // A declaration (`SimTime time(0)`) — unless it's a keyword that can
    // legally precede a call expression.
    static const std::set<std::string, std::less<>> kExprKeywords = {
        "return", "co_return", "co_yield", "case", "else", "do"};
    return !kExprKeywords.contains(prev.text);
  }
  if (prev.text == "." || prev.text == "->") return true;
  if (prev.text == "::") {
    if (i >= 2 && toks[i - 2].kind == TokKind::kIdent) {
      return toks[i - 2].text != "std";
    }
    return false;  // leading `::` — the global entity, banned
  }
  return false;
}

void check_determinism(const std::string& path, const std::vector<Tok>& toks,
                       const Suppressions& sup, std::vector<Finding>& out) {
  static const std::string kCheck = "psn-determinism";
  const bool scan_ambient = in_any(path, kDeterminismDirs);
  const bool scan_range_for = in_any(path, kOutputFeedingPaths);
  if (!scan_ambient && !scan_range_for) return;

  if (scan_ambient) {
    for (std::size_t i = 0; i < toks.size(); i++) {
      const Tok& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      if (sup.allows(kCheck, t.line)) continue;
      if (kBannedAnywhere.contains(t.text)) {
        out.push_back({path, t.line, kCheck,
                       t.text + " is ambient nondeterminism; derive from the "
                               "run's seeded Rng / simulated clock instead"});
        continue;
      }
      const bool call_like =
          i + 1 < toks.size() && toks[i + 1].text == "(";
      if (!call_like) continue;
      if (kBannedEnv.contains(t.text) && !prev_blocks_call(toks, i)) {
        out.push_back({path, t.line, kCheck,
                       t.text + "() reads the ambient environment; thread "
                               "configuration through SimConfig instead"});
        continue;
      }
      if (kBannedCalls.contains(t.text) && !prev_blocks_call(toks, i)) {
        out.push_back({path, t.line, kCheck,
                       t.text + "() is wall-clock/libc nondeterminism; use "
                               "Simulation::now() or a seeded Rng"});
      }
    }
  }

  if (scan_range_for) {
    // Names declared as unordered containers in this file (member or local:
    // `std::unordered_map<K, V> name;` — the token after the closing '>').
    std::set<std::string> unordered_names;
    for (std::size_t i = 0; i < toks.size(); i++) {
      if (toks[i].kind != TokKind::kIdent ||
          !kUnorderedContainers.contains(toks[i].text)) {
        continue;
      }
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<") {
        int depth = 0;
        for (; j < toks.size(); j++) {
          if (toks[j].text == "<") depth++;
          if (toks[j].text == ">" && --depth == 0) {
            j++;
            break;
          }
        }
      }
      if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
        unordered_names.insert(toks[j].text);
      }
    }
    for (std::size_t i = 0; i + 1 < toks.size(); i++) {
      if (toks[i].text != "for" || toks[i + 1].text != "(") continue;
      const int for_line = toks[i].line;
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < toks.size(); j++) {
        if (toks[j].text == "(") depth++;
        if (toks[j].text == ")" && --depth == 0) {
          close = j;
          break;
        }
        if (toks[j].text == ":" && depth == 1 && colon == 0) colon = j;
      }
      if (colon == 0 || close == 0) continue;  // not a range-for
      for (std::size_t j = colon + 1; j < close; j++) {
        if (toks[j].kind == TokKind::kIdent &&
            unordered_names.contains(toks[j].text)) {
          if (!sup.allows(kCheck, for_line)) {
            out.push_back(
                {path, for_line, kCheck,
                 "range-for over unordered container '" + toks[j].text +
                     "' on an output-feeding path: hash order is not "
                     "deterministic across processes — iterate a sorted "
                     "view or keep a side order"});
          }
          break;
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// Check 2: psn-hot-path-alloc
// --------------------------------------------------------------------------

const std::set<std::string, std::less<>> kAllocCalls = {
    "malloc",        "calloc",      "realloc",    "strdup",     "strndup",
    "aligned_alloc", "posix_memalign"};
const std::set<std::string, std::less<>> kAllocTemplates = {
    "make_unique", "make_shared", "to_string"};
const std::set<std::string, std::less<>> kStreamTypes = {
    "ostringstream", "stringstream", "istringstream"};

void check_hot_path_alloc(const std::string& path,
                          const std::vector<Tok>& toks,
                          const Suppressions& sup, std::vector<Finding>& out) {
  static const std::string kCheck = "psn-hot-path-alloc";
  if (!starts_with(path, "src/")) return;
  for (std::size_t i = 0; i < toks.size(); i++) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "PSN_HOT") continue;
    // The annotated definition's body: the first '{' before any ';' (a ';'
    // first would make it a declaration — nothing to scan).
    std::size_t body = i + 1;
    int paren = 0;
    for (; body < toks.size(); body++) {
      if (toks[body].text == "(") paren++;
      if (toks[body].text == ")") paren--;
      if (paren == 0 && toks[body].text == ";") {
        body = toks.size();
        break;
      }
      if (paren == 0 && toks[body].text == "{") break;
    }
    if (body >= toks.size()) continue;
    int depth = 0;
    for (std::size_t j = body; j < toks.size(); j++) {
      const Tok& t = toks[j];
      if (t.text == "{") depth++;
      if (t.text == "}" && --depth == 0) break;
      if (t.kind != TokKind::kIdent) continue;
      if (sup.allows(kCheck, t.line)) continue;
      std::string why;
      if (t.text == "new" || t.text == "delete") {
        why = "'" + t.text + "' touches the global allocator";
      } else if (kAllocCalls.contains(t.text) && j + 1 < toks.size() &&
                 toks[j + 1].text == "(") {
        why = t.text + "() allocates";
      } else if (kAllocTemplates.contains(t.text) && j + 1 < toks.size() &&
                 (toks[j + 1].text == "(" || toks[j + 1].text == "<")) {
        why = t.text + " allocates";
      } else if (kStreamTypes.contains(t.text)) {
        why = t.text + " buffers on the heap";
      } else if (t.text == "function" && j >= 1 && toks[j - 1].text == "::" &&
                 j >= 2 && toks[j - 2].text == "std") {
        why = "std::function may heap-allocate its target; use InlineFn";
      }
      if (!why.empty()) {
        out.push_back({path, t.line, kCheck,
                       why + " inside a PSN_HOT function — hot paths pin an "
                             "allocation-free steady state (alloc-guard "
                             "suite); hoist it or justify a suppression"});
      }
    }
  }
}

// --------------------------------------------------------------------------
// Check 3: psn-locale-safe-io
// --------------------------------------------------------------------------

const std::set<std::string, std::less<>> kLocaleSensitive = {
    "strtod",    "strtof",   "strtold",      "strtol",     "strtoll",
    "strtoul",   "strtoull", "atof",         "stod",       "stof",
    "stold",     "sscanf",   "vsscanf",      "fscanf",     "scanf",
    "printf",    "fprintf",  "sprintf",      "snprintf",   "vsprintf",
    "vsnprintf", "vprintf",  "setprecision", "setlocale"};

void check_locale_safe_io(const std::string& path, const std::vector<Tok>& toks,
                          const Suppressions& sup, std::vector<Finding>& out) {
  static const std::string kCheck = "psn-locale-safe-io";
  if (!in_any(path, kLocaleSafeDirs)) return;
  for (std::size_t i = 0; i < toks.size(); i++) {
    const Tok& t = toks[i];
    if (t.kind != TokKind::kIdent || !kLocaleSensitive.contains(t.text)) {
      continue;
    }
    if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
    if (prev_blocks_call(toks, i)) continue;
    if (sup.allows(kCheck, t.line)) continue;
    out.push_back({path, t.line, kCheck,
                   t.text + "() is locale-sensitive; wire float text must "
                           "round-trip under any locale — use json_fixed/"
                           "json_general/from_chars (common/format)"});
  }
}

// --------------------------------------------------------------------------
// Driver
// --------------------------------------------------------------------------

std::string relative_to(const std::string& root, const std::string& path) {
  std::string p = path;
  while (starts_with(p, "./")) p = p.substr(2);
  if (!root.empty()) {
    std::string r = root;
    if (r.back() != '/') r.push_back('/');
    if (starts_with(p, r)) p = p.substr(r.size());
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::vector<std::string> files;
  for (int a = 1; a < argc; a++) {
    const std::string arg = argv[a];
    if (arg == "--root") {
      if (a + 1 >= argc) {
        std::cerr << "psn_lint: --root needs a value\n";
        return 2;
      }
      root = argv[++a];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: psn_lint [--root <dir>] <file>...\n"
                   "checks: psn-determinism, psn-hot-path-alloc, "
                   "psn-locale-safe-io\n";
      return 0;
    } else if (starts_with(arg, "--")) {
      std::cerr << "psn_lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::cerr << "psn_lint: no input files (usage: psn_lint [--root <dir>] "
                 "<file>...)\n";
    return 2;
  }

  std::vector<Finding> findings;
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cerr << "psn_lint: cannot read " << file << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string src = buf.str();
    const std::string rel = relative_to(root, file);

    const LexResult lexed = lex(src);
    const Suppressions sup = collect_suppressions(lexed.comments);
    check_determinism(rel, lexed.tokens, sup, findings);
    check_hot_path_alloc(rel, lexed.tokens, sup, findings);
    check_locale_safe_io(rel, lexed.tokens, sup, findings);
  }

  std::sort(findings.begin(), findings.end());
  for (const Finding& f : findings) {
    std::cout << f.path << ":" << f.line << ": [" << f.check << "] "
              << f.message << "\n";
  }
  if (!findings.empty()) {
    std::cout << findings.size() << " finding(s)\n";
    return 1;
  }
  return 0;
}
