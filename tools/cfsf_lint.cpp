// cfsf_lint — repo-specific C++ linter for the CFSF tree (v4).
//
// Four rule engines share one scan:
//
//  * line rules — regexes over comment/string-stripped single lines;
//  * token rules — a lightweight tokenizer plus a per-file state
//    machine, for rules that are inherently cross-line (a declaration
//    on one line changes what an expression three lines later means);
//  * cross-file rules (v3) — a whole-repo index (include graph, string
//    literals, CMakeLists labels, the names/docs inventories) that
//    enforces the declared module layering and the registry contracts
//    between code, docs, bench JSON and tests;
//  * call-graph rules (v4) — a whole-repo function index and call graph
//    over src/ (function definitions with qualified names, calls
//    resolved by terminal name — deliberately conservative for
//    overloads and virtual dispatch — plus address-of-function
//    conservative edges), driven by the annotation macros in
//    src/util/attrs.hpp (CFSF_HOT_PATH / CFSF_BLOCKING /
//    CFSF_ACK_POINT) and the TSA macros in src/util/mutex.hpp.
//
// Line rules:
//
//   no-std-rand          std::rand/srand are banned everywhere; randomness
//                        must go through cfsf::util::Rng so experiments
//                        stay bit-reproducible.
//   unseeded-mt19937     std::mt19937 default-constructed (fixed,
//                        implementation-defined sequence masquerading as
//                        randomness) — and the type is discouraged at all
//                        in favour of cfsf::util::Rng.
//   float-accumulator    `float` variables named like accumulators (sum,
//                        acc, dot, total, …).  Similarity/metric sums must
//                        accumulate in double; float storage of *results*
//                        (e.g. Neighbor::similarity) is fine.
//   missing-pragma-once  every .hpp must contain #pragma once.
//   naked-new            `new`/`delete` outside smart pointers/containers.
//                        (`= delete` declarations are not flagged.)
//   iostream-in-library  std::cout/std::cerr/printf in src/ library code —
//                        libraries must log through cfsf::util (CFSF_LOG);
//                        tools, benches, examples and tests may print.
//   stopwatch-in-library raw util::Stopwatch in src/ library code outside
//                        obs/ — library timing must go through the metrics
//                        layer (obs::ScopedTimer / obs::PhaseProfiler) so
//                        it lands in the registry; measurements that *are*
//                        the product (eval's reported seconds) are
//                        allowlisted.
//   naked-system-exit    std::abort/std::exit/std::terminate in library
//                        code; recoverable failures must throw.
//   naked-sleep-in-library  std::this_thread::sleep_for/sleep_until (and
//                        POSIX usleep/nanosleep) in src/ — library code
//                        has no sleep: a thread waits on a
//                        util::CondVar for the event it needs, with
//                        WaitUntil for a deadline, so Stop() can wake it.
//   raw-durable-io-in-library  fsync/fdatasync/rename/unlink calls and
//                        std::filesystem rename/remove/remove_all/
//                        create_directory/create_directories in src/ —
//                        how a file becomes durable is decided in one
//                        module, src/util/durable_file, which is exempt.
//
// Token rules (cross-line, src/ only):
//
//   raw-mutex-in-library    std::mutex / std::lock_guard / std::unique_lock
//                           / std::condition_variable & friends — library
//                           code must lock through the Clang-thread-safety
//                           annotated wrappers in src/util/mutex.hpp so the
//                           `tsa` build tier can prove the lock contracts.
//   lock-scope-leak         manual .lock()/.unlock()/.try_lock() member
//                           calls — lock lifetimes must be RAII scopes
//                           (util::MutexLock), never open-coded pairs that
//                           leak on an early return or a throw.
//   atomic-rmw-discipline   operations on std::atomic variables must spell
//                           their memory order out (no defaulted seq_cst
//                           load/store/fetch_*, no bare ++/--/+=/-= on
//                           hot-path atomics): the order IS the contract,
//                           write what you mean.
//
// Cross-file rules (enabled by --repo-root; see docs/TOOLING.md
// "Whole-repo analysis"):
//
//   layering                the include graph over src/ must respect the
//                           module DAG declared in tools/cfsf_layers.txt
//                           (util → {matrix,data,obs,parallel} →
//                           {eval,similarity,clustering,baselines,core}
//                           → robust → serve; tests/bench/tools/examples
//                           may depend on anything, nothing may depend
//                           on them).  Violations name the offending
//                           include edge.
//   include-cycle           no cycles anywhere in the project include
//                           graph (detected per strongly-connected
//                           component, reported with the cycle path).
//   stray-metric-literal    GetCounter/GetGauge/GetHistogram in src/ or
//                           bench/ must take a constant from
//                           src/obs/names.hpp, never a raw string —
//                           metric names are a cross-artifact contract
//                           (code ↔ docs ↔ BENCH_*.json ↔ dashboards).
//   undocumented-failpoint  every CFSF_FAILPOINT site must appear in
//                           the names.hpp inventory table, be listed in
//                           docs/ROBUSTNESS.md, and be armed by at
//                           least one fault-labelled test; inventory
//                           rows with no site, and rows of the docs'
//                           "Instrumented sites" table with no
//                           inventory entry, are stale and fail too.
//   unknown-ctest-label     every literal ctest label in a CMakeLists
//                           must be one of unit/integration/stress/
//                           lint/fault.
//
// Call-graph rules (v4, enabled by --repo-root; see docs/TOOLING.md
// "Interprocedural analysis (lint v4)"):
//
//   blocking-call-on-hot-path  from every CFSF_HOT_PATH root no
//                           transitive callee may reach a blocking
//                           primitive (fsync, file open/read/write,
//                           sleeps, condvar/future waits) unless the
//                           path crosses a callee annotated
//                           CFSF_BLOCKING — the sanctioned boundaries
//                           (WAL append, thread-pool joins, the
//                           Submit+Await sync bridge).  The report
//                           prints the full call chain.
//   lock-order-inversion    the lock-order graph built from
//                           util::MutexLock scopes and CFSF_REQUIRES/
//                           CFSF_ACQUIRE entry contracts must be
//                           acyclic; every cycle (e.g. a two-mutex
//                           ABBA) is reported once, deterministically,
//                           with the witness acquisition sites.
//   ack-before-durable      every CFSF_ACK_POINT function must reach a
//                           CFSF_BLOCKING callee that itself reaches
//                           fsync/fdatasync — the durability barrier
//                           must sit on the ack path.
//
// Suppression, in order of preference:
//   1. inline, same line:           // cfsf-lint: allow(rule-id)
//      (for missing-pragma-once the marker may sit on any line; for
//      CMakeLists anchors use a trailing `# cfsf-lint: allow(rule-id)`)
//   2. allowlist file entries:      rule-id  path-substring
// An allowlist entry whose path-substring matches no scanned file is
// *stale* and fails the run (exit 3) so tools/cfsf_lint_allow.txt cannot
// rot.
//
// Run with --self-test to verify every rule fires on a seeded violation,
// stays quiet on the matching clean snippet, and is silenced by its
// inline allow marker (the ctest `lint` label runs both modes).  The
// self-test also replays the on-disk fixture corpus under
// tools/lint_fixtures/ (--fixtures DIR overrides the location; the
// corpus is skipped with a notice when the directory is absent).
//
// Usage: cfsf_lint [--allowlist FILE] [--repo-root DIR] [--self-test]
//                  [--fixtures DIR] [--list-rules] [--json]
//                  [--rules ID[,ID...]] DIR...
//
//   --json    emit the machine-readable report (per-rule counts plus
//             findings with file:line and call chains) on stdout
//             instead of the human listing; exit codes are unchanged.
//   --rules   run only the named rules (comma list); CI uses this to
//             run the call-graph rules as their own timed step.
#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <tuple>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Violation {
  std::string path;
  std::size_t line = 0;
  std::string rule;
  std::string message;
  // v4: hop-by-hop call chain ("qualified-name (path:line)") for the
  // call-graph rules; empty for every other rule.
  std::vector<std::string> chain;
};

// Active-rule filter (--rules).  nullptr = every rule runs.
using RuleFilter = std::set<std::string>;

bool RuleActive(const RuleFilter* filter, const std::string& id) {
  return filter == nullptr || filter->count(id) != 0;
}

struct AllowEntry {
  std::string rule;  // "*" matches every rule
  std::string path_substring;
};

// ---------------------------------------------------------------------------
// Comment / string-literal stripping.
//
// Violations must not fire inside comments or literals, so the scanner
// blanks them out (preserving newlines and offsets) before rule regexes
// and the tokenizer run.  Handles //, /* */ across lines, "..." and '...'
// with escapes, and R"delim(...)delim" raw strings.  Inline `cfsf-lint:
// allow` markers are read from the *original* text, since they live in
// comments.
// ---------------------------------------------------------------------------
// A string literal the stripper blanked out, kept aside for the v3
// cross-file rules (metric names, fail-point sites) which match on
// literal *contents*.
struct StringLiteral {
  std::size_t offset = 0;  // byte offset of the opening quote
  std::size_t line = 0;    // 1-based line of the opening quote
  std::string text;        // contents between the quotes, escapes as written
};

std::string StripCommentsAndStrings(
    const std::string& text, std::vector<StringLiteral>* literals = nullptr) {
  std::string out(text);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;
  StringLiteral current;
  std::size_t line = 1;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') ++line;
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          // R"delim( ... )delim"  (the prefix cannot contain newlines)
          std::size_t open = text.find('(', i + 2);
          if (open == std::string::npos) break;
          raw_delim = ")" + text.substr(i + 2, open - i - 2) + "\"";
          for (std::size_t k = i; k <= open; ++k) out[k] = ' ';
          current = {i, line, ""};
          i = open;
          state = State::kRaw;
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
          current = {i, line, ""};
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          if (next == '\n') ++line;
          if (state == State::kString) {
            current.text.push_back(c);
            current.text.push_back(next);
          }
          ++i;
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          out[i] = ' ';
          if (state == State::kString && literals != nullptr) {
            literals->push_back(current);
          }
          state = State::kCode;
        } else {
          if (c != '\n') out[i] = ' ';
          if (state == State::kString) current.text.push_back(c);
        }
        break;
      case State::kRaw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) out[i + k] = ' ';
          i += raw_delim.size() - 1;
          if (literals != nullptr) literals->push_back(current);
          state = State::kCode;
        } else {
          if (c != '\n') out[i] = ' ';
          current.text.push_back(c);
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(current);
  return lines;
}

bool IsLibrarySource(const std::string& path) {
  return path.find("src/") != std::string::npos;
}

bool IsHeader(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

bool PathExempt(const std::string& display_path,
                const std::vector<std::string>& exempt_substrings) {
  return std::any_of(exempt_substrings.begin(), exempt_substrings.end(),
                     [&display_path](const std::string& sub) {
                       return display_path.find(sub) != std::string::npos;
                     });
}

// ---------------------------------------------------------------------------
// Line rules.  Each sees one comment/string-stripped line.
// ---------------------------------------------------------------------------
struct LineRule {
  std::string id;
  std::string message;
  std::regex pattern;
  bool library_only = false;  // restrict to src/
  // Paths containing any of these substrings are exempt (for rules whose
  // target has a legitimate home, e.g. the obs/ timing layer itself).
  std::vector<std::string> exempt_path_substrings;
};

const std::vector<LineRule>& LineRules() {
  static const std::vector<LineRule> rules = {
      {"no-std-rand",
       "std::rand/srand are banned; use cfsf::util::Rng (seeded, "
       "reproducible)",
       std::regex(R"(\bstd\s*::\s*rand\b|\bsrand\s*\()"), false, {}},
      {"unseeded-mt19937",
       "std::mt19937 without an explicit seed (and prefer cfsf::util::Rng "
       "over <random> engines)",
       std::regex(
           R"(\bstd\s*::\s*mt19937(_64)?\s*(\{\s*\}|\(\s*\)|\s+\w+\s*(;|,|\))))"),
       false, {}},
      {"float-accumulator",
       "accumulate in double, not float: similarity/metric sums lose "
       "precision (store results as float if needed)",
       std::regex(
           R"(\bfloat\s+\w*(sum|acc|total|dot|norm|rmse|mae|err)\w*\s*(=|;|\{|,))",
           std::regex::icase),
       false, {}},
      {"naked-new",
       "naked new/delete; use std::make_unique/std::vector (or add an "
       "allowlist entry for an intentional leak)",
       std::regex(R"(\bnew\b|\bdelete\b)"), false, {}},
      {"iostream-in-library",
       "library code must not print directly; use CFSF_LOG_* "
       "(util/logging.hpp)",
       std::regex(R"(\bstd\s*::\s*(cout|cerr|clog)\b|\b(printf|fprintf|puts)\s*\()"),
       true, {}},
      {"stopwatch-in-library",
       "raw Stopwatch in library code; time through obs::ScopedTimer/"
       "PhaseProfiler so the measurement reaches the metrics registry",
       std::regex(R"(\bStopwatch\b)"), true,
       {"src/obs/", "src/util/stopwatch"}},
      {"naked-system-exit",
       "std::abort/std::exit/std::terminate in library code; recoverable "
       "failures must throw cfsf::util::Error subclasses (util/check.hpp "
       "owns the abort path)",
       std::regex(
           R"(\bstd\s*::\s*(abort|exit|_Exit|quick_exit|terminate)\s*\(|\b(abort|exit|_Exit|quick_exit)\s*\()"),
       true,
       {"src/util/check"}},
      {"naked-sleep-in-library",
       "sleep in library code; wait on a util::CondVar (util/mutex.hpp), "
       "and use WaitUntil for a deadline",
       std::regex(
           R"(\bstd\s*::\s*this_thread\s*::\s*sleep_(for|until)\b|\bsleep_(for|until)\s*\(|\b(usleep|nanosleep)\s*\()"),
       true,
       {}},
      {"raw-durable-io-in-library",
       "raw fsync/rename/unlink or std::filesystem create/rename/remove in "
       "library code; go through util/durable_file.hpp so one module "
       "decides how a file becomes durable",
       std::regex(
           R"((^|[^\w.>:])(::\s*)?(fsync|fdatasync|rename|unlink)\s*\()"
           R"(|\bstd\s*::\s*(rename|unlink)\s*\()"
           R"(|\b(fs|filesystem)\s*::\s*(rename|remove|remove_all|)"
           R"(create_directory|create_directories)\s*\()"),
       true,
       {"src/util/durable_file"}},
  };
  return rules;
}

// `= delete;` / `= delete ;` function deletions and `delete` as part of
// `=delete` must not count as naked-delete.  The regex above is permissive,
// so re-examine the match context here.
bool IsDeletedFunction(const std::string& line, std::size_t keyword_pos) {
  std::size_t k = keyword_pos;
  while (k > 0 && std::isspace(static_cast<unsigned char>(line[k - 1]))) --k;
  return k > 0 && line[k - 1] == '=';
}

bool LineTriggersRule(const LineRule& rule, const std::string& stripped_line) {
  if (!std::regex_search(stripped_line, rule.pattern)) return false;
  if (rule.id != "naked-new") return true;
  // Check every new/delete keyword on the line; the line triggers only if
  // at least one is a genuine allocation/deallocation.
  static const std::regex keyword(R"(\bnew\b|\bdelete\b)");
  for (auto it = std::sregex_iterator(stripped_line.begin(),
                                      stripped_line.end(), keyword);
       it != std::sregex_iterator(); ++it) {
    const std::size_t pos = static_cast<std::size_t>(it->position());
    if (it->str() == "new") return true;  // `= new` is still a naked new
    if (!IsDeletedFunction(stripped_line, pos)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Tokenizer for the cross-line rules.  Runs on the stripped text, so
// comments and string literals are already blank; it only needs to carve
// identifiers, numbers and (multi-char) punctuation, remembering the
// 1-based line each token starts on.
// ---------------------------------------------------------------------------
struct Token {
  std::string text;
  std::size_t line = 0;
  std::size_t offset = 0;   // byte offset into the file
  bool is_string = false;   // v3 merged stream: text = literal contents
};

bool IsIdentifierToken(const std::string& text) {
  return !text.empty() && (std::isalpha(static_cast<unsigned char>(text[0])) ||
                           text[0] == '_');
}

std::vector<Token> Tokenize(const std::string& stripped) {
  std::vector<Token> tokens;
  std::size_t line = 1;
  std::size_t i = 0;
  const auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  while (i < stripped.size()) {
    const char c = stripped[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i + 1;
      while (j < stripped.size() && is_ident(stripped[j])) ++j;
      tokens.push_back({stripped.substr(i, j - i), line, i});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i + 1;
      while (j < stripped.size() &&
             (is_ident(stripped[j]) || stripped[j] == '.' ||
              stripped[j] == '\'')) {
        ++j;
      }
      tokens.push_back({stripped.substr(i, j - i), line, i});
      i = j;
      continue;
    }
    static constexpr std::array<const char*, 14> kTwoCharOps = {
        "::", "++", "--", "->", "+=", "-=", "<<",
        ">>", "==", "!=", "<=", ">=", "&&", "||"};
    bool matched = false;
    if (i + 1 < stripped.size()) {
      for (const char* op : kTwoCharOps) {
        if (c == op[0] && stripped[i + 1] == op[1]) {
          tokens.push_back({std::string(op), line, i});
          i += 2;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      tokens.push_back({std::string(1, c), line, i});
      ++i;
    }
  }
  return tokens;
}

// ---------------------------------------------------------------------------
// Token rules.  Each sees the whole file's token stream and reports the
// 1-based lines that violate it.
// ---------------------------------------------------------------------------
struct TokenRule {
  std::string id;
  std::string message;
  bool library_only = false;
  std::vector<std::string> exempt_path_substrings;
  void (*check)(const std::vector<Token>& tokens,
                std::vector<std::size_t>& violation_lines);
};

// raw-mutex-in-library: std::<locking type> anywhere in src/.  Cross-line
// because `std::` and the type name may be split across lines.
void CheckRawMutex(const std::vector<Token>& tokens,
                   std::vector<std::size_t>& violation_lines) {
  static const std::set<std::string> kRawLockingTypes = {
      "mutex",         "timed_mutex",        "recursive_mutex",
      "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
      "lock_guard",    "unique_lock",        "scoped_lock",
      "shared_lock",   "condition_variable", "condition_variable_any"};
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].text == "std" && tokens[i + 1].text == "::" &&
        kRawLockingTypes.count(tokens[i + 2].text) != 0) {
      violation_lines.push_back(tokens[i].line);
    }
  }
}

// lock-scope-leak: explicit .lock()/.unlock()/.try_lock() member calls.
void CheckLockScopeLeak(const std::vector<Token>& tokens,
                        std::vector<std::size_t>& violation_lines) {
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if ((tokens[i].text == "." || tokens[i].text == "->") &&
        (tokens[i + 1].text == "lock" || tokens[i + 1].text == "unlock" ||
         tokens[i + 1].text == "try_lock") &&
        tokens[i + 2].text == "(") {
      violation_lines.push_back(tokens[i + 1].line);
    }
  }
}

// atomic-rmw-discipline, pass 1: collect the names declared as
// std::atomic<...> / std::atomic_xxx in this file.
std::set<std::string> CollectAtomicNames(const std::vector<Token>& tokens) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].text != "std" || tokens[i + 1].text != "::") continue;
    std::size_t j = i + 2;
    if (tokens[j].text == "atomic") {
      ++j;
      if (j < tokens.size() && tokens[j].text == "<") {
        // Skip the balanced template argument list; `>>` closes two.
        int depth = 0;
        while (j < tokens.size()) {
          if (tokens[j].text == "<") {
            ++depth;
          } else if (tokens[j].text == ">") {
            if (--depth == 0) {
              ++j;
              break;
            }
          } else if (tokens[j].text == ">>") {
            depth -= 2;
            if (depth <= 0) {
              ++j;
              break;
            }
          }
          ++j;
        }
      }
    } else if (tokens[j].text.rfind("atomic_", 0) == 0) {
      ++j;  // std::atomic_bool and friends
    } else {
      continue;
    }
    if (j < tokens.size() && IsIdentifierToken(tokens[j].text)) {
      names.insert(tokens[j].text);
    }
  }
  return names;
}

// atomic-rmw-discipline, pass 2: every use of a collected name must spell
// its memory order; ++/--/+=/-= never can, so they are banned outright.
void CheckAtomicRmwDiscipline(const std::vector<Token>& tokens,
                              std::vector<std::size_t>& violation_lines) {
  static const std::set<std::string> kOrderedMethods = {
      "load",          "store",
      "exchange",      "fetch_add",
      "fetch_sub",     "fetch_and",
      "fetch_or",      "fetch_xor",
      "compare_exchange_weak", "compare_exchange_strong",
      "test_and_set",  "clear"};
  const std::set<std::string> atomics = CollectAtomicNames(tokens);
  if (atomics.empty()) return;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (atomics.count(tokens[i].text) == 0) continue;
    // Skip the declaration site itself (`std::atomic<T> name` /
    // `std::atomic_bool name`).
    if (i > 0 && (tokens[i - 1].text == ">" || tokens[i - 1].text == ">>" ||
                  tokens[i - 1].text == "atomic" ||
                  tokens[i - 1].text.rfind("atomic_", 0) == 0)) {
      continue;
    }
    if (i > 0 && (tokens[i - 1].text == "++" || tokens[i - 1].text == "--")) {
      violation_lines.push_back(tokens[i].line);
      continue;
    }
    if (i + 1 >= tokens.size()) continue;
    const std::string& next = tokens[i + 1].text;
    if (next == "++" || next == "--" || next == "+=" || next == "-=") {
      violation_lines.push_back(tokens[i].line);
      continue;
    }
    if ((next == "." || next == "->") && i + 3 < tokens.size() &&
        kOrderedMethods.count(tokens[i + 2].text) != 0 &&
        tokens[i + 3].text == "(") {
      // Scan the (possibly multi-line) argument list for an explicit
      // std::memory_order_* token.
      int depth = 0;
      bool has_order = false;
      for (std::size_t j = i + 3; j < tokens.size(); ++j) {
        if (tokens[j].text == "(") {
          ++depth;
        } else if (tokens[j].text == ")") {
          if (--depth == 0) break;
        } else if (tokens[j].text.rfind("memory_order", 0) == 0) {
          has_order = true;
        }
      }
      if (!has_order) violation_lines.push_back(tokens[i + 2].line);
    }
  }
}

const std::vector<TokenRule>& TokenRules() {
  static const std::vector<TokenRule> rules = {
      {"raw-mutex-in-library",
       "raw std:: locking primitive in library code; use the annotated "
       "wrappers (util/mutex.hpp: Mutex/MutexLock/CondVar) so the `tsa` "
       "tier can compile-check the lock contract",
       true,
       {"src/util/mutex.hpp"},
       &CheckRawMutex},
      {"lock-scope-leak",
       "manual .lock()/.unlock() call; hold locks as RAII scopes "
       "(util::MutexLock) so early returns and exceptions cannot leak "
       "the critical section",
       true,
       {"src/util/mutex.hpp"},
       &CheckLockScopeLeak},
      {"atomic-rmw-discipline",
       "atomic operation without an explicit memory order (or a bare "
       "++/--/+=/-=); spell std::memory_order_* out — the ordering is the "
       "contract",
       true,
       {},
       &CheckAtomicRmwDiscipline},
  };
  return rules;
}

bool InlineAllowed(const std::string& original_line, const std::string& rule) {
  const std::size_t marker = original_line.find("cfsf-lint:");
  if (marker == std::string::npos) return false;
  const std::string tail = original_line.substr(marker);
  return tail.find("allow(" + rule + ")") != std::string::npos ||
         tail.find("allow(*)") != std::string::npos;
}

void LintFile(const std::string& display_path, const std::string& content,
              std::vector<Violation>& out,
              const RuleFilter* filter = nullptr) {
  const std::vector<std::string> original_lines = SplitLines(content);

  const bool header = IsHeader(display_path);
  if (header && RuleActive(filter, "missing-pragma-once") &&
      content.find("#pragma once") == std::string::npos) {
    // File-level rule: the allow marker may sit on any line.
    const bool allowed = std::any_of(
        original_lines.begin(), original_lines.end(),
        [](const std::string& line) {
          return InlineAllowed(line, "missing-pragma-once");
        });
    if (!allowed) {
      out.push_back({display_path, 1, "missing-pragma-once",
                     "header is missing #pragma once", {}});
    }
  }

  const std::string stripped = StripCommentsAndStrings(content);
  const std::vector<std::string> stripped_lines = SplitLines(stripped);
  const bool library = IsLibrarySource(display_path);

  for (std::size_t n = 0; n < stripped_lines.size(); ++n) {
    for (const auto& rule : LineRules()) {
      if (!RuleActive(filter, rule.id)) continue;
      if (rule.library_only && !library) continue;
      if (PathExempt(display_path, rule.exempt_path_substrings)) continue;
      if (!LineTriggersRule(rule, stripped_lines[n])) continue;
      if (InlineAllowed(original_lines[n], rule.id)) continue;
      out.push_back({display_path, n + 1, rule.id, rule.message, {}});
    }
  }

  const std::vector<Token> tokens = Tokenize(stripped);
  for (const auto& rule : TokenRules()) {
    if (!RuleActive(filter, rule.id)) continue;
    if (rule.library_only && !library) continue;
    if (PathExempt(display_path, rule.exempt_path_substrings)) continue;
    std::vector<std::size_t> lines;
    rule.check(tokens, lines);
    for (const std::size_t line : lines) {
      if (line >= 1 && line <= original_lines.size() &&
          InlineAllowed(original_lines[line - 1], rule.id)) {
        continue;
      }
      out.push_back({display_path, line, rule.id, rule.message, {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Allowlist.
// ---------------------------------------------------------------------------
std::vector<AllowEntry> LoadAllowlist(const std::string& path) {
  std::vector<AllowEntry> entries;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cfsf_lint: cannot open allowlist " << path << "\n";
    std::exit(2);
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    AllowEntry entry;
    if (!(fields >> entry.rule)) continue;  // blank/comment-only line
    if (!(fields >> entry.path_substring)) {
      std::cerr << "cfsf_lint: allowlist " << path << ":" << line_no
                << ": expected `<rule> <path-substring>`\n";
      std::exit(2);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

// ---------------------------------------------------------------------------
// v3: whole-repo cross-file analysis.
//
// The per-file engines above see one translation unit at a time; the
// contracts that rot in practice are *between* files: an include edge
// that quietly inverts the module DAG, a metric literal that drifts away
// from docs and dashboards, a fail point nobody documents or tests.
// AnalyzeRepo runs over an index of every scanned file plus the repo's
// declared conventions (tools/cfsf_layers.txt, src/obs/names.hpp,
// docs/ROBUSTNESS.md, the CMakeLists.txt files) and reports violations
// anchored at the offending line, so inline allow(...) markers and the
// allowlist work exactly as for per-file rules.
// ---------------------------------------------------------------------------

// Repo-root-relative conventions the cross-file rules key on.
constexpr const char kLayersSpecPath[] = "tools/cfsf_layers.txt";
constexpr const char kNamesHeaderPath[] = "src/obs/names.hpp";
constexpr const char kRobustnessDocPath[] = "docs/ROBUSTNESS.md";

const std::vector<std::string>& CrossFileRuleIds() {
  static const std::vector<std::string> ids = {
      "layering", "include-cycle", "stray-metric-literal",
      "undocumented-failpoint", "unknown-ctest-label"};
  return ids;
}

// v4 call-graph rules.  These are the rules whose allowlist entries are
// additionally checked for *suppression* staleness: an entry that
// suppressed nothing in a run where its rule executed is rot (the
// violation it excused was fixed), and fails the run with exit 3 —
// the tree's target is zero call-graph allowlist entries.
const std::vector<std::string>& CallGraphRuleIds() {
  static const std::vector<std::string> ids = {
      "blocking-call-on-hot-path", "lock-order-inversion",
      "ack-before-durable"};
  return ids;
}

struct RepoIndex {
  // Repo-root-relative path (generic, forward slashes) -> file content.
  std::map<std::string, std::string> code;   // .cpp/.hpp/.cc/.h
  std::map<std::string, std::string> cmake;  // CMakeLists.txt
  std::string robustness_doc;                // "" when absent
  std::string layers_text;
  bool has_layers = false;
};

// Tokens of one file with string-literal contents interleaved at their
// source position — what the registry-contract rules match on.
std::vector<Token> TokenizeWithStrings(const std::string& content) {
  std::vector<StringLiteral> literals;
  const std::string stripped = StripCommentsAndStrings(content, &literals);
  std::vector<Token> tokens = Tokenize(stripped);
  for (const auto& lit : literals) {
    tokens.push_back({lit.text, lit.line, lit.offset, true});
  }
  std::sort(tokens.begin(), tokens.end(),
            [](const Token& a, const Token& b) { return a.offset < b.offset; });
  return tokens;
}

// Parsed tools/cfsf_layers.txt.  Grammar (one directive per line, `#`
// starts a comment):
//   layer <module>...   the next rung, bottom-up; same-rung modules may
//                       include each other (cycles are still caught)
//   open <dir>...       unlayered top-level trees (tests, bench, ...)
//                       that may include anything, but that nothing in a
//                       layered module may include
struct LayerSpec {
  std::map<std::string, std::size_t> rung_of;  // module -> 1-based rung
  std::set<std::string> open_dirs;
};

bool ParseLayerSpec(const std::string& text, LayerSpec* spec,
                    std::string* error) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  std::size_t rung = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string directive;
    if (!(fields >> directive)) continue;
    std::vector<std::string> modules;
    std::string module;
    while (fields >> module) modules.push_back(module);
    if (directive != "layer" && directive != "open") {
      *error = "line " + std::to_string(line_no) + ": unknown directive `" +
               directive + "` (expected `layer` or `open`)";
      return false;
    }
    if (modules.empty()) {
      *error = "line " + std::to_string(line_no) + ": `" + directive +
               "` needs at least one module";
      return false;
    }
    if (directive == "layer") ++rung;
    for (const auto& m : modules) {
      if (spec->rung_of.count(m) != 0 || spec->open_dirs.count(m) != 0) {
        *error = "line " + std::to_string(line_no) + ": module `" + m +
                 "` declared twice";
        return false;
      }
      if (directive == "layer") {
        spec->rung_of[m] = rung;
      } else {
        spec->open_dirs.insert(m);
      }
    }
  }
  if (spec->rung_of.empty()) {
    *error = "no `layer` lines — at least one rung must be declared";
    return false;
  }
  return true;
}

// Module of a repo-relative path: the first directory under src/ for
// library code, else the top-level tree name (tests, bench, ...).  Files
// that fit neither (or sit directly in src/) have no module and are
// exempt from layering.
std::string ModuleOf(const std::string& rel_path) {
  const std::size_t slash = rel_path.find('/');
  if (slash == std::string::npos) return "";
  const std::string top = rel_path.substr(0, slash);
  if (top != "src") return top;
  const std::size_t second = rel_path.find('/', slash + 1);
  if (second == std::string::npos) return "";
  return rel_path.substr(slash + 1, second - slash - 1);
}

struct IncludeEdge {
  std::size_t line = 0;  // 1-based line of the #include
  std::string target;    // path as written between the quotes
  std::string resolved;  // repo-relative path ("" = external, ignored)
};

std::vector<IncludeEdge> ExtractIncludes(const std::string& content) {
  static const std::regex pattern(R"(^\s*#\s*include\s*"([^"]+)\")");
  std::vector<IncludeEdge> edges;
  const std::vector<std::string> lines = SplitLines(content);
  for (std::size_t n = 0; n < lines.size(); ++n) {
    std::smatch match;
    if (std::regex_search(lines[n], match, pattern)) {
      edges.push_back({n + 1, match[1].str(), ""});
    }
  }
  return edges;
}

// Quoted includes resolve the way the build does: against -Isrc first
// (the library convention, `#include "util/check.hpp"`), then relative
// to the including file.  Anything else is an external header.
std::string ResolveInclude(const std::string& includer,
                           const std::string& target,
                           const std::map<std::string, std::string>& code) {
  const std::string as_library =
      (fs::path("src") / target).lexically_normal().generic_string();
  if (code.count(as_library) != 0) return as_library;
  const std::string as_relative = (fs::path(includer).parent_path() / target)
                                      .lexically_normal()
                                      .generic_string();
  if (code.count(as_relative) != 0) return as_relative;
  return "";
}

// ---------------------------------------------------------------------------
// v4: function index and call graph.
//
// Built from the same tokenizer as the token rules, over src/ only (the
// contracts are library properties; tests/bench/tools define thousands
// of helpers that would only blur terminal-name resolution).  The
// parser is deliberately approximate where C++ forces a real frontend,
// and every approximation errs conservative for the rules:
//
//  * calls resolve by *terminal* name to every definition sharing it —
//    overloads and virtual overrides all become edges, so a blocking
//    override behind a base-class pointer is still reached;
//  * an address-of / reference to a known function (function pointers,
//    `&Class::Method` thread entry points) becomes a conservative edge;
//  * lambdas are attributed to their enclosing function (their calls
//    become its calls), which is exact for immediately-run lambdas and
//    conservative for deferred ones;
//  * preprocessor lines are blanked, so macro *bodies* are invisible —
//    CFSF_LOG/CFSF_FAILPOINT internals do not generate edges.
//
// Annotations (CFSF_HOT_PATH / CFSF_BLOCKING / CFSF_ACK_POINT, plus the
// TSA CFSF_REQUIRES / CFSF_ACQUIRE lock contracts) are read from the
// token position the repo mandates — after the parameter list — on
// declarations and definitions alike, keyed by qualified name, so a
// header declaration annotates its out-of-line definition.
// ---------------------------------------------------------------------------

struct PrimitiveHit {
  std::string name;  // "fsync", "sleep_for", "std::future::get", ...
  std::size_t line = 0;
};

struct CallSite {
  std::string terminal;           // unqualified callee name
  std::size_t line = 0;
  bool bare = false;              // address-of / fn-pointer conservative edge
  bool is_member = false;         // called through `.` / `->`
  std::string recv;               // receiver identifier for member calls
  std::vector<std::string> quals; // explicit `A::B::` qualifier chain
  std::vector<std::string> held;  // lock ids held at the call site
};

struct LockAcq {
  std::string lock;  // qualified id, e.g. "cfsf::wal::WriteAheadLog::mutex_"
  std::size_t line = 0;
};

struct FunctionDef {
  std::string name;      // fully qualified
  std::string terminal;  // last component
  std::string cls;       // qualified enclosing class/namespace scope
  std::string path;
  std::size_t line = 0;
  // True when this is (heuristically) a class member: defined inside a
  // class scope, or out-of-line with a CamelCase qualifier (the repo
  // style: classes are CamelCase, namespaces lowercase).
  bool member_fn = false;
  bool hot = false, blocking = false, ack = false;
  std::vector<CallSite> calls;
  std::vector<PrimitiveHit> primitives;
  std::vector<LockAcq> acquisitions;  // every MutexLock in the body
  // Scope-nested ordering facts: lock `first` was held when `second`
  // was acquired.
  std::vector<std::pair<std::string, LockAcq>> lock_edges;
  std::vector<std::string> entry_locks;  // CFSF_REQUIRES/CFSF_ACQUIRE
};

struct FnAnnotation {
  bool hot = false, blocking = false, ack = false;
  std::set<std::string> entry_locks;
};

struct CallGraph {
  std::vector<FunctionDef> defs;
  // terminal name -> indices into defs (deterministic: files are
  // visited in sorted order, tokens in source order).
  std::map<std::string, std::vector<std::size_t>> by_terminal;
  std::map<std::string, FnAnnotation> annotations;  // by qualified name
};

// Blocking primitives, matched as called terminal names.
const std::set<std::string>& BlockingPrimitiveNames() {
  static const std::set<std::string> names = {
      // durability / file descriptors
      "fsync", "fdatasync", "open", "openat", "creat", "close", "read",
      "write", "pread", "pwrite", "ftruncate", "rename", "unlink", "mkdir",
      "rmdir",
      // stdio
      "fopen", "freopen", "fclose", "fread", "fwrite", "fflush",
      // sockets
      "recv", "send", "accept", "connect", "poll", "select",
      // sleeps
      "usleep", "nanosleep", "sleep", "sleep_for", "sleep_until",
      // waits (condition_variable / future); `get` is special-cased on
      // a future-like receiver below to avoid flagging shared_ptr::get
      "wait", "wait_for", "wait_until"};
  return names;
}

// iostream types whose construction/open is file I/O.
bool IsFileStreamType(const std::string& ident) {
  return ident == "ifstream" || ident == "ofstream" || ident == "fstream";
}

bool IsCallKeyword(const std::string& ident) {
  static const std::set<std::string> keywords = {
      "if",      "for",        "while",      "switch",    "return",
      "sizeof",  "catch",      "new",        "delete",    "throw",
      "operator", "decltype",  "alignof",    "noexcept",  "static_cast",
      "dynamic_cast", "reinterpret_cast", "const_cast", "static_assert",
      "alignas", "requires",   "assert",     "defined"};
  return keywords.count(ident) != 0;
}

// Blank preprocessor lines (and their backslash continuations) so macro
// definitions cannot masquerade as function definitions.  Newlines are
// preserved to keep token line numbers stable.
std::string BlankPreprocessorLines(std::string text) {
  bool at_line_start = true;
  bool in_directive = false;
  char last_nonspace = '\0';
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {
      in_directive = in_directive && last_nonspace == '\\';
      at_line_start = true;
      last_nonspace = '\0';
      continue;
    }
    if (at_line_start && !in_directive) {
      if (c == '#') in_directive = true;
      if (!std::isspace(static_cast<unsigned char>(c))) at_line_start = false;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) last_nonspace = c;
    if (in_directive) text[i] = ' ';
  }
  return text;
}

// Skip a balanced token group starting at `i` (tokens[i] must be the
// opener).  Returns the index one past the matching closer, or
// tokens.size() when unbalanced.
std::size_t SkipBalanced(const std::vector<Token>& tokens, std::size_t i,
                         const char* open, const char* close) {
  int depth = 0;
  for (; i < tokens.size(); ++i) {
    if (tokens[i].text == open) {
      ++depth;
    } else if (tokens[i].text == close) {
      if (--depth == 0) return i + 1;
    }
  }
  return tokens.size();
}

// Outcome of the post-parameter-list lookahead.
struct SignatureTail {
  enum class Kind { kNeither, kDeclaration, kDefinition } kind = Kind::kNeither;
  std::size_t end = 0;   // ';' for declarations, '{' (body open) for defs
  std::size_t zone_end = 0;  // end of the annotation zone (exclusive)
};

// After a candidate `name ( ... )`, decide declaration vs definition by
// scanning the qualifier zone: const/noexcept/override/&/&&/trailing
// return/annotation macros (with balanced parens), an optional ctor
// initialiser list, then `{` (definition) or `;`/`=` (declaration).
SignatureTail ScanSignatureTail(const std::vector<Token>& tokens,
                                std::size_t after_close) {
  SignatureTail tail;
  std::size_t k = after_close;
  const std::size_t limit = std::min(tokens.size(), after_close + 200);
  while (k < limit) {
    const std::string& t = tokens[k].text;
    if (t == "{") {
      tail.kind = SignatureTail::Kind::kDefinition;
      tail.end = k;
      tail.zone_end = k;
      return tail;
    }
    if (t == ";" || t == "=") {
      tail.kind = SignatureTail::Kind::kDeclaration;
      tail.end = k;
      tail.zone_end = k;
      return tail;
    }
    if (t == ":") {
      // Constructor initialiser list: `ident (args)` or `ident {args}`
      // groups separated by commas, then the body `{`.
      tail.zone_end = k;
      ++k;
      while (k < tokens.size()) {
        while (k < tokens.size() &&
               (IsIdentifierToken(tokens[k].text) || tokens[k].text == "::")) {
          ++k;
        }
        if (k < tokens.size() && tokens[k].text == "<") {
          k = SkipBalanced(tokens, k, "<", ">");
        }
        if (k >= tokens.size()) break;
        if (tokens[k].text == "(") {
          k = SkipBalanced(tokens, k, "(", ")");
        } else if (tokens[k].text == "{") {
          k = SkipBalanced(tokens, k, "{", "}");
        } else {
          return tail;  // not an initialiser list — give up
        }
        if (k < tokens.size() && tokens[k].text == ",") {
          ++k;
          continue;
        }
        if (k < tokens.size() && tokens[k].text == "{") {
          tail.kind = SignatureTail::Kind::kDefinition;
          tail.end = k;
          return tail;
        }
        return tail;
      }
      return tail;
    }
    if (t == "(") {
      k = SkipBalanced(tokens, k, "(", ")");
      continue;
    }
    if (t == "[") {
      k = SkipBalanced(tokens, k, "[", "]");
      continue;
    }
    if (IsIdentifierToken(t) || t == "const" || t == "&" || t == "&&" ||
        t == "->" || t == "::" || t == "<" || t == ">" || t == "," ||
        t == "*") {
      ++k;
      continue;
    }
    return tail;  // anything else: not a function signature
  }
  return tail;
}

// Lock identity for a `&receiver` expression or an annotation argument.
// Members (trailing underscore, per the style guide) qualify with the
// enclosing class; `g_`-prefixed globals with the enclosing namespace.
// Anything else (parameters, through-pointer receivers) is unknowable
// without types and is skipped — an under-approximation the docs call
// out.
std::string LockIdFor(const std::string& ident, const std::string& scope) {
  const bool member = !ident.empty() && ident.back() == '_';
  const bool global = ident.rfind("g_", 0) == 0;
  if (!member && !global) return "";
  if (scope.empty()) return ident;
  return scope + "::" + ident;
}

// Collect CFSF_* annotations from a signature's qualifier zone.
void CollectAnnotations(const std::vector<Token>& tokens, std::size_t begin,
                        std::size_t end, const std::string& scope,
                        FnAnnotation* ann) {
  for (std::size_t k = begin; k < end; ++k) {
    const std::string& t = tokens[k].text;
    if (t == "CFSF_HOT_PATH") ann->hot = true;
    if (t == "CFSF_BLOCKING") ann->blocking = true;
    if (t == "CFSF_ACK_POINT") ann->ack = true;
    if ((t == "CFSF_REQUIRES" || t == "CFSF_ACQUIRE") &&
        k + 1 < end && tokens[k + 1].text == "(") {
      const std::size_t close = SkipBalanced(tokens, k + 1, "(", ")");
      for (std::size_t a = k + 2; a + 1 < close; ++a) {
        if (!IsIdentifierToken(tokens[a].text)) continue;
        if (tokens[a].text == "this") continue;
        const std::string id = LockIdFor(tokens[a].text, scope);
        if (!id.empty()) ann->entry_locks.insert(id);
      }
      k = close - 1;
    }
  }
}

// Parse one src/ file into the call graph: function definitions with
// their bodies' calls, blocking primitives and lock acquisitions, and
// annotations from declarations and definitions alike.
void IndexFileForCallGraph(const std::string& path, const std::string& content,
                           CallGraph* cg) {
  const std::string stripped =
      BlankPreprocessorLines(StripCommentsAndStrings(content));
  const std::vector<Token> tokens = Tokenize(stripped);

  struct ScopeEnt {
    enum class Kind { kPlain, kNamespace, kClass } kind = Kind::kPlain;
    std::string name;
  };
  std::vector<ScopeEnt> scopes;
  const auto scope_name = [&scopes](bool namespaces_only) {
    std::string joined;
    for (const auto& s : scopes) {
      if (s.kind == ScopeEnt::Kind::kPlain) continue;
      if (namespaces_only && s.kind != ScopeEnt::Kind::kNamespace) continue;
      if (s.name.empty()) continue;
      if (!joined.empty()) joined += "::";
      joined += s.name;
    }
    return joined;
  };

  std::size_t i = 0;
  const std::size_t n = tokens.size();
  while (i < n) {
    const std::string& t = tokens[i].text;

    if (t == "namespace") {
      std::string name;
      std::size_t k = i + 1;
      while (k < n && (IsIdentifierToken(tokens[k].text) ||
                       tokens[k].text == "::")) {
        name += tokens[k].text;
        ++k;
      }
      if (k < n && tokens[k].text == "{") {
        scopes.push_back({ScopeEnt::Kind::kNamespace, name});
        i = k + 1;
        continue;
      }
      i = k + 1;  // alias or using-directive — no scope
      continue;
    }

    if (t == "class" || t == "struct" || t == "union" || t == "enum") {
      const bool is_enum = t == "enum";
      std::string name;
      bool past_colon = false;
      std::size_t k = i + 1;
      while (k < n && tokens[k].text != "{" && tokens[k].text != ";" &&
             tokens[k].text != "(" && tokens[k].text != "=") {
        if (tokens[k].text == ":") past_colon = true;
        if (tokens[k].text == "<") past_colon = true;  // specialisation args
        if (!past_colon && IsIdentifierToken(tokens[k].text) &&
            tokens[k].text != "final" && tokens[k].text != "class") {
          name = tokens[k].text;
        }
        ++k;
      }
      if (k < n && tokens[k].text == "{") {
        scopes.push_back({is_enum ? ScopeEnt::Kind::kPlain
                                  : ScopeEnt::Kind::kClass,
                          is_enum ? "" : name});
        i = k + 1;
        continue;
      }
      i = k + 1;  // forward declaration / variable — nothing to push
      continue;
    }

    if (t == "{") {
      scopes.push_back({ScopeEnt::Kind::kPlain, ""});
      ++i;
      continue;
    }
    if (t == "}") {
      if (!scopes.empty()) scopes.pop_back();
      ++i;
      continue;
    }

    // Candidate function signature: identifier directly followed by `(`.
    if (IsIdentifierToken(t) && !IsCallKeyword(t) && i + 1 < n &&
        tokens[i + 1].text == "(" &&
        !(i > 0 && (tokens[i - 1].text == "." || tokens[i - 1].text == "->" ||
                    tokens[i - 1].text == "operator"))) {
      const std::size_t after_close = SkipBalanced(tokens, i + 1, "(", ")");
      if (after_close >= n) {
        ++i;
        continue;
      }
      const SignatureTail tail = ScanSignatureTail(tokens, after_close);
      if (tail.kind == SignatureTail::Kind::kNeither) {
        ++i;
        continue;
      }

      // Explicit qualifiers (`Class::Name`) walked back from the name.
      std::vector<std::string> explicit_parts;
      std::size_t back = i;
      while (back >= 2 && tokens[back - 1].text == "::" &&
             IsIdentifierToken(tokens[back - 2].text)) {
        explicit_parts.insert(explicit_parts.begin(), tokens[back - 2].text);
        back -= 2;
      }
      std::string terminal = t;
      if (back > 0 && tokens[back - 1].text == "~") terminal = "~" + t;

      std::string cls = scope_name(false);
      for (const auto& part : explicit_parts) {
        cls = cls.empty() ? part : cls + "::" + part;
      }
      const std::string qualified =
          cls.empty() ? terminal : cls + "::" + terminal;

      FnAnnotation sig_ann;
      CollectAnnotations(tokens, after_close, tail.zone_end, cls, &sig_ann);
      FnAnnotation& merged = cg->annotations[qualified];
      merged.hot |= sig_ann.hot;
      merged.blocking |= sig_ann.blocking;
      merged.ack |= sig_ann.ack;
      merged.entry_locks.insert(sig_ann.entry_locks.begin(),
                                sig_ann.entry_locks.end());

      if (tail.kind == SignatureTail::Kind::kDeclaration) {
        i = tail.end + 1;
        continue;
      }

      // Definition: scan the body.
      FunctionDef def;
      def.name = qualified;
      def.terminal = terminal;
      def.cls = cls;
      def.path = path;
      def.line = tokens[i].line;
      def.member_fn =
          std::any_of(scopes.begin(), scopes.end(),
                      [](const ScopeEnt& s) {
                        return s.kind == ScopeEnt::Kind::kClass;
                      }) ||
          (!explicit_parts.empty() &&
           std::isupper(static_cast<unsigned char>(explicit_parts.back()[0])));
      def.entry_locks.assign(sig_ann.entry_locks.begin(),
                             sig_ann.entry_locks.end());

      std::vector<std::pair<std::string, int>> held;  // lock id, depth
      for (const auto& lock : def.entry_locks) held.emplace_back(lock, 0);
      const auto held_ids = [&held]() {
        std::vector<std::string> ids;
        ids.reserve(held.size());
        for (const auto& [lock, depth] : held) ids.push_back(lock);
        return ids;
      };

      int depth = 1;
      std::size_t j = tail.end + 1;
      while (j < n && depth > 0) {
        const std::string& bt = tokens[j].text;
        if (bt == "{") {
          ++depth;
          ++j;
          continue;
        }
        if (bt == "}") {
          --depth;
          while (!held.empty() && held.back().second > depth) held.pop_back();
          ++j;
          continue;
        }

        // util::MutexLock <var>(&receiver) acquisition.
        if (bt == "MutexLock" && j + 3 < n &&
            IsIdentifierToken(tokens[j + 1].text) &&
            tokens[j + 2].text == "(" && tokens[j + 3].text == "&") {
          std::string receiver;
          std::size_t r = j + 4;
          if (r + 2 < n && tokens[r].text == "this" &&
              tokens[r + 1].text == "->" &&
              IsIdentifierToken(tokens[r + 2].text) &&
              tokens[r + 3].text == ")") {
            receiver = tokens[r + 2].text;
          } else if (r + 1 < n && IsIdentifierToken(tokens[r].text) &&
                     tokens[r + 1].text == ")") {
            receiver = tokens[r].text;
          }
          const std::string scope =
              cls.empty() ? scope_name(true) : cls;
          const std::string lock_id =
              receiver.empty() ? "" : LockIdFor(receiver, scope);
          if (!lock_id.empty()) {
            const LockAcq acq{lock_id, tokens[j].line};
            for (const auto& [h, hd] : held) {
              def.lock_edges.emplace_back(h, acq);
            }
            def.acquisitions.push_back(acq);
            held.emplace_back(lock_id, depth);
          }
          j = SkipBalanced(tokens, j + 2, "(", ")");
          continue;
        }

        if (IsIdentifierToken(bt)) {
          const bool is_call = j + 1 < n && tokens[j + 1].text == "(";
          const bool member =
              j > 0 && (tokens[j - 1].text == "." || tokens[j - 1].text == "->");
          // Call-site context: explicit `A::B::` qualifiers, or the
          // receiver identifier of a member call.
          const auto make_site = [&](bool bare) {
            CallSite site;
            site.terminal = bt;
            site.line = tokens[j].line;
            site.bare = bare;
            site.held = held_ids();
            std::size_t cb = j;
            while (cb >= 2 && tokens[cb - 1].text == "::" &&
                   IsIdentifierToken(tokens[cb - 2].text)) {
              site.quals.insert(site.quals.begin(), tokens[cb - 2].text);
              cb -= 2;
            }
            if (site.quals.empty() && cb > 0 &&
                (tokens[cb - 1].text == "." || tokens[cb - 1].text == "->")) {
              site.is_member = true;
              if (cb >= 2 && IsIdentifierToken(tokens[cb - 2].text)) {
                site.recv = tokens[cb - 2].text;
              }
            }
            return site;
          };
          if (is_call && !IsCallKeyword(bt)) {
            // Blocking primitive?
            if (BlockingPrimitiveNames().count(bt) != 0) {
              def.primitives.push_back({bt, tokens[j].line});
            } else if (bt == "get" && member && j >= 2 &&
                       IsIdentifierToken(tokens[j - 2].text)) {
              // std::future::get — only on a future-looking receiver, so
              // the ubiquitous shared_ptr::get stays quiet.
              const std::string& recv = tokens[j - 2].text;
              if (recv.find("future") != std::string::npos ||
                  recv.find("fut") != std::string::npos ||
                  recv.find("promise") != std::string::npos) {
                def.primitives.push_back({"std::future::get", tokens[j].line});
              }
            }
            if (IsFileStreamType(bt)) {
              def.primitives.push_back({"std::" + bt, tokens[j].line});
            }
            def.calls.push_back(make_site(false));
          } else if (!is_call) {
            if (IsFileStreamType(bt)) {
              def.primitives.push_back({"std::" + bt, tokens[j].line});
            } else if (std::isupper(static_cast<unsigned char>(bt[0])) &&
                       !member && j + 1 < n &&
                       (tokens[j + 1].text == ")" ||
                        tokens[j + 1].text == "," ||
                        tokens[j + 1].text == ";" ||
                        tokens[j + 1].text == "}")) {
              // Possible address-of-function / functor reference (an
              // argument or initializer position: `&Class::Method,` /
              // `Submit(Helper)`) — resolved against the function index
              // later; names that match no definition are dropped.
              // Idents followed by `*`, `&`, `<`, `::` or another ident
              // are type mentions, not references.
              def.calls.push_back(make_site(true));
            }
          }
          ++j;
          continue;
        }
        ++j;
      }

      cg->defs.push_back(std::move(def));
      i = j;
      continue;
    }

    ++i;
  }
}

CallGraph BuildCallGraph(const RepoIndex& repo) {
  CallGraph cg;
  for (const auto& [path, content] : repo.code) {
    if (!path.starts_with("src/")) continue;
    IndexFileForCallGraph(path, content, &cg);
  }
  for (std::size_t d = 0; d < cg.defs.size(); ++d) {
    FunctionDef& def = cg.defs[d];
    const auto ann = cg.annotations.find(def.name);
    if (ann != cg.annotations.end()) {
      def.hot |= ann->second.hot;
      def.blocking |= ann->second.blocking;
      def.ack |= ann->second.ack;
      for (const auto& lock : ann->second.entry_locks) {
        if (std::find(def.entry_locks.begin(), def.entry_locks.end(), lock) ==
            def.entry_locks.end()) {
          def.entry_locks.push_back(lock);
        }
      }
    }
    cg.by_terminal[def.terminal].push_back(d);
  }
  return cg;
}

std::string LowerCopy(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// Receiver-name ~ class-name heuristic for member calls: `pool.Submit`
// resolves to ThreadPool::Submit, not to every Submit in the tree.  A
// receiver matches a class when either contains the other (lowercased,
// trailing `_` stripped) or any `_`-separated receiver piece of length
// >= 3 appears in the class name (`rating_log` ~ WriteAheadLog).
bool ReceiverMatchesClass(const std::string& recv, const std::string& cls) {
  const std::size_t pos = cls.rfind("::");
  std::string klass =
      LowerCopy(pos == std::string::npos ? cls : cls.substr(pos + 2));
  std::string r = LowerCopy(recv);
  while (!r.empty() && r.back() == '_') r.pop_back();
  if (r.empty() || klass.empty()) return false;
  if (klass.find(r) != std::string::npos ||
      r.find(klass) != std::string::npos) {
    return true;
  }
  std::istringstream pieces(r);
  std::string piece;
  while (std::getline(pieces, piece, '_')) {
    if (piece.size() >= 3 && klass.find(piece) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// Resolve a call site to its candidate definitions.  Resolution is by
// terminal name, narrowed when the site carries usable context, and
// falls back to EVERY terminal match when it does not — virtual
// dispatch through a base pointer, overloads, and function pointers all
// stay conservative:
//
//  * `A::B::f(...)` — defs whose qualified name ends in `A::B::f`;
//  * `obj.f(...)` / `obj->f(...)` — defs whose class matches the
//    receiver name (ReceiverMatchesClass); `this->f()` prefers the
//    caller's own class;
//  * plain `f(...)` — the caller's own members plus free functions
//    (an unqualified call cannot name another class's member; inherited
//    members still resolve via the fallback when nothing narrows).
//
// An empty narrowed set always widens back to every terminal match.
void ForEachCallee(const CallGraph& cg, const FunctionDef& caller,
                   const CallSite& call,
                   const std::function<void(std::size_t)>& fn) {
  const auto it = cg.by_terminal.find(call.terminal);
  if (it == cg.by_terminal.end()) return;
  const std::vector<std::size_t>& all = it->second;
  std::vector<std::size_t> narrowed;
  if (!call.quals.empty()) {
    std::string suffix;
    for (const auto& q : call.quals) suffix += q + "::";
    suffix += call.terminal;
    for (const std::size_t d : all) {
      const std::string& name = cg.defs[d].name;
      if (name == suffix ||
          (name.size() > suffix.size() + 2 &&
           name.compare(name.size() - suffix.size() - 2, 2, "::") == 0 &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0)) {
        narrowed.push_back(d);
      }
    }
  } else if (call.is_member) {
    if (call.recv == "this") {
      for (const std::size_t d : all) {
        if (cg.defs[d].cls == caller.cls) narrowed.push_back(d);
      }
    } else if (!call.recv.empty()) {
      for (const std::size_t d : all) {
        if (cg.defs[d].member_fn &&
            ReceiverMatchesClass(call.recv, cg.defs[d].cls)) {
          narrowed.push_back(d);
        }
      }
    }
  } else {
    for (const std::size_t d : all) {
      if (cg.defs[d].cls == caller.cls || !cg.defs[d].member_fn) {
        narrowed.push_back(d);
      }
    }
  }
  const std::vector<std::size_t>& targets = narrowed.empty() ? all : narrowed;
  for (const std::size_t target : targets) fn(target);
}

std::string ChainEntry(const FunctionDef& def) {
  return def.name + " (" + def.path + ":" + std::to_string(def.line) + ")";
}

// Rule 1: blocking-call-on-hot-path.  BFS from every CFSF_HOT_PATH
// definition; CFSF_BLOCKING definitions are sanctioned boundaries (not
// expanded, not checked); any other reachable definition containing a
// blocking primitive is a violation, anchored at the root (the function
// whose contract broke) with the full call chain.
void CheckHotPaths(
    const CallGraph& cg,
    const std::function<void(const std::string&, std::size_t,
                             const std::string&, const std::string&,
                             const std::vector<std::string>&)>& emit) {
  std::vector<std::size_t> roots;
  for (std::size_t d = 0; d < cg.defs.size(); ++d) {
    if (cg.defs[d].hot) roots.push_back(d);
  }
  std::sort(roots.begin(), roots.end(), [&cg](std::size_t a, std::size_t b) {
    return cg.defs[a].name != cg.defs[b].name
               ? cg.defs[a].name < cg.defs[b].name
               : cg.defs[a].path < cg.defs[b].path;
  });
  for (const std::size_t root : roots) {
    const FunctionDef& root_def = cg.defs[root];
    if (root_def.blocking) {
      emit(root_def.path, root_def.line, "blocking-call-on-hot-path",
           "`" + root_def.name +
               "` is annotated both CFSF_HOT_PATH and CFSF_BLOCKING — a "
               "hot root cannot also be a sanctioned blocking boundary",
           {ChainEntry(root_def)});
      continue;
    }
    std::map<std::size_t, std::size_t> parent;  // def -> predecessor
    std::vector<std::size_t> queue{root};
    std::set<std::size_t> visited{root};
    std::set<std::size_t> reported;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::size_t d = queue[qi];
      const FunctionDef& def = cg.defs[d];
      if (d != root && def.blocking) continue;  // sanctioned boundary
      if (!def.primitives.empty() && reported.insert(d).second) {
        const PrimitiveHit& prim = def.primitives.front();
        std::vector<std::string> chain;
        for (std::size_t v = d; v != root; v = parent.at(v)) {
          chain.push_back(ChainEntry(cg.defs[v]));
        }
        chain.push_back(ChainEntry(root_def));
        std::reverse(chain.begin(), chain.end());
        emit(root_def.path, root_def.line, "blocking-call-on-hot-path",
             "hot path `" + root_def.name + "` reaches blocking primitive `" +
                 prim.name + "` (" + def.path + ":" +
                 std::to_string(prim.line) +
                 ") — move it off the request path or annotate a sanctioned "
                 "boundary CFSF_BLOCKING (src/util/attrs.hpp)",
             chain);
      }
      for (const CallSite& call : def.calls) {
        ForEachCallee(cg, def, call, [&](std::size_t target) {
          if (visited.insert(target).second) {
            parent[target] = d;
            queue.push_back(target);
          }
        });
      }
    }
  }
}

// Rule 2: lock-order-inversion.  Edge H -> L when L is acquired while H
// is held — directly (nested MutexLock scopes, or an acquisition under
// a CFSF_REQUIRES entry contract) or transitively (a call made while H
// is held reaches a function that acquires L).  Cycles found with the
// same Tarjan machinery as include-cycle, one deterministic report per
// cycle.
void CheckLockOrder(
    const CallGraph& cg,
    const std::function<void(const std::string&, std::size_t,
                             const std::string&, const std::string&,
                             const std::vector<std::string>&)>& emit) {
  // Transitive acquisition sets per definition (fixpoint over the call
  // graph; conservative via terminal-name resolution).
  std::vector<std::set<std::string>> acquires(cg.defs.size());
  for (std::size_t d = 0; d < cg.defs.size(); ++d) {
    for (const auto& acq : cg.defs[d].acquisitions) {
      acquires[d].insert(acq.lock);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t d = 0; d < cg.defs.size(); ++d) {
      for (const CallSite& call : cg.defs[d].calls) {
        ForEachCallee(cg, cg.defs[d], call, [&](std::size_t target) {
          for (const auto& lock : acquires[target]) {
            if (acquires[d].insert(lock).second) changed = true;
          }
        });
      }
    }
  }

  struct Witness {
    std::string path;
    std::size_t line = 0;
    std::string how;
  };
  std::map<std::pair<std::string, std::string>, Witness> edges;
  const auto add_edge = [&edges](const std::string& from,
                                 const std::string& to, Witness w) {
    if (from == to) return;  // re-acquisition is TSA's department
    const auto key = std::make_pair(from, to);
    const auto it = edges.find(key);
    if (it == edges.end() ||
        std::tie(w.path, w.line) < std::tie(it->second.path, it->second.line)) {
      edges.insert_or_assign(it == edges.end() ? edges.begin() : it, key,
                             std::move(w));
    }
  };
  for (const FunctionDef& def : cg.defs) {
    for (const auto& [from, acq] : def.lock_edges) {
      add_edge(from, acq.lock,
               {def.path, acq.line, "acquired in `" + def.name + "`"});
    }
  }
  for (std::size_t d = 0; d < cg.defs.size(); ++d) {
    const FunctionDef& def = cg.defs[d];
    for (const CallSite& call : def.calls) {
      if (call.held.empty()) continue;
      ForEachCallee(cg, def, call, [&](std::size_t target) {
        for (const auto& lock : acquires[target]) {
          for (const auto& held : call.held) {
            add_edge(held, lock,
                     {def.path, call.line,
                      "via call to `" + cg.defs[target].name + "` from `" +
                          def.name + "`"});
          }
        }
      });
    }
  }

  // Tarjan over the lock graph (iterative, as for include-cycle).
  std::map<std::string, std::size_t> id;
  for (const auto& [key, w] : edges) {
    id.emplace(key.first, id.size());
    id.emplace(key.second, id.size());
  }
  const std::size_t n = id.size();
  std::vector<std::string> order(n);
  for (const auto& [lock, node] : id) order[node] = lock;
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& [key, w] : edges) {
    adj[id.at(key.first)].push_back(id.at(key.second));
  }
  for (auto& targets : adj) std::sort(targets.begin(), targets.end());

  std::vector<std::size_t> index(n, 0), low(n, 0), stack;
  std::vector<bool> visited(n, false), on_stack(n, false);
  std::vector<std::vector<std::size_t>> sccs;
  std::size_t counter = 0;
  struct Frame {
    std::size_t v;
    std::size_t edge = 0;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (visited[root]) continue;
    std::vector<Frame> frames{{root, 0}};
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::size_t v = f.v;
      if (f.edge == 0 && !visited[v]) {
        visited[v] = true;
        index[v] = low[v] = counter++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      if (f.edge < adj[v].size()) {
        const std::size_t w = adj[v][f.edge++];
        if (!visited[w]) {
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
      } else {
        if (low[v] == index[v]) {
          std::vector<std::size_t> scc;
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);
            if (w == v) break;
          }
          sccs.push_back(std::move(scc));
        }
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }

  for (const auto& scc : sccs) {
    if (scc.size() == 1) continue;  // self-edges are filtered at add_edge
    const std::set<std::size_t> members(scc.begin(), scc.end());
    std::size_t start = scc[0];
    for (const std::size_t v : scc) {
      if (order[v] < order[start]) start = v;
    }
    // Shortest cycle through `start` (BFS within the component).
    std::size_t pred_of_start = n;
    std::map<std::size_t, std::size_t> parent;
    std::vector<std::size_t> queue{start};
    std::set<std::size_t> seen{start};
    for (std::size_t qi = 0; qi < queue.size() && pred_of_start == n; ++qi) {
      const std::size_t u = queue[qi];
      for (const std::size_t w : adj[u]) {
        if (w == start) {
          pred_of_start = u;
          break;
        }
        if (members.count(w) == 0 || !seen.insert(w).second) continue;
        parent[w] = u;
        queue.push_back(w);
      }
    }
    if (pred_of_start == n) continue;
    std::vector<std::size_t> cycle{start};
    {
      std::vector<std::size_t> hops;
      for (std::size_t v = pred_of_start; v != start; v = parent.at(v)) {
        hops.push_back(v);
      }
      std::reverse(hops.begin(), hops.end());
      cycle.insert(cycle.end(), hops.begin(), hops.end());
    }
    std::string pretty;
    std::vector<std::string> chain;
    for (std::size_t h = 0; h < cycle.size(); ++h) {
      const std::string& from = order[cycle[h]];
      const std::string& to = order[cycle[(h + 1) % cycle.size()]];
      pretty += (h == 0 ? "" : " -> ") + from;
      const Witness& w = edges.at({from, to});
      chain.push_back(from + " -> " + to + " (" + w.path + ":" +
                      std::to_string(w.line) + ", " + w.how + ")");
    }
    pretty += " -> " + order[start];
    const Witness& anchor = edges.at({order[cycle[0]], order[cycle[1]]});
    emit(anchor.path, anchor.line, "lock-order-inversion",
         "lock-order cycle: " + pretty +
             " — pick one acquisition order and restructure the odd one out",
         chain);
  }
}

// Rule 3: ack-before-durable.  A CFSF_ACK_POINT definition must reach
// (full traversal, boundaries included) a CFSF_BLOCKING definition that
// itself reaches fsync/fdatasync — the durability barrier sits on the
// ack path.  This is must-reach, not true dominance: a token scanner
// cannot prove ordering, but a Rate path with *no* fsync barrier at all
// is exactly the regression the rule exists to stop.
void CheckAckDurability(
    const CallGraph& cg,
    const std::function<void(const std::string&, std::size_t,
                             const std::string&, const std::string&,
                             const std::vector<std::string>&)>& emit) {
  std::vector<bool> reaches_fsync(cg.defs.size(), false);
  for (std::size_t d = 0; d < cg.defs.size(); ++d) {
    for (const auto& prim : cg.defs[d].primitives) {
      if (prim.name == "fsync" || prim.name == "fdatasync") {
        reaches_fsync[d] = true;
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t d = 0; d < cg.defs.size(); ++d) {
      if (reaches_fsync[d]) continue;
      for (const CallSite& call : cg.defs[d].calls) {
        ForEachCallee(cg, cg.defs[d], call, [&](std::size_t target) {
          if (reaches_fsync[target] && !reaches_fsync[d]) {
            reaches_fsync[d] = true;
            changed = true;
          }
        });
        if (reaches_fsync[d]) break;
      }
    }
  }

  std::vector<std::size_t> acks;
  for (std::size_t d = 0; d < cg.defs.size(); ++d) {
    if (cg.defs[d].ack) acks.push_back(d);
  }
  std::sort(acks.begin(), acks.end(), [&cg](std::size_t a, std::size_t b) {
    return cg.defs[a].name != cg.defs[b].name
               ? cg.defs[a].name < cg.defs[b].name
               : cg.defs[a].path < cg.defs[b].path;
  });
  for (const std::size_t root : acks) {
    std::map<std::size_t, std::size_t> parent;
    std::vector<std::size_t> queue{root};
    std::set<std::size_t> visited{root};
    std::size_t barrier = cg.defs.size();
    for (std::size_t qi = 0; qi < queue.size() && barrier == cg.defs.size();
         ++qi) {
      const std::size_t d = queue[qi];
      if (cg.defs[d].blocking && reaches_fsync[d]) {
        barrier = d;
        break;
      }
      for (const CallSite& call : cg.defs[d].calls) {
        ForEachCallee(cg, cg.defs[d], call, [&](std::size_t target) {
          if (visited.insert(target).second) {
            parent[target] = d;
            queue.push_back(target);
          }
        });
      }
    }
    const FunctionDef& ack_def = cg.defs[root];
    if (barrier == cg.defs.size()) {
      emit(ack_def.path, ack_def.line, "ack-before-durable",
           "ack point `" + ack_def.name +
               "` reaches no durability barrier: no CFSF_BLOCKING callee "
               "on its call graph reaches fsync/fdatasync — the ack must "
               "be dominated by the WAL append",
           {ChainEntry(ack_def)});
    }
  }
}

void AnalyzeCallGraph(const RepoIndex& repo, const RuleFilter* filter,
                      const std::function<void(
                          const std::string&, std::size_t, const std::string&,
                          const std::string&,
                          const std::vector<std::string>&)>& emit) {
  const bool hot = RuleActive(filter, "blocking-call-on-hot-path");
  const bool locks = RuleActive(filter, "lock-order-inversion");
  const bool ack = RuleActive(filter, "ack-before-durable");
  if (!hot && !locks && !ack) return;
  const CallGraph cg = BuildCallGraph(repo);
  if (hot) CheckHotPaths(cg, emit);
  if (locks) CheckLockOrder(cg, emit);
  if (ack) CheckAckDurability(cg, emit);
}

void AnalyzeRepo(const RepoIndex& repo, const LayerSpec* spec,
                 std::vector<Violation>& out,
                 const RuleFilter* filter = nullptr) {
  // Original lines of every indexed file, for inline allow markers.
  std::map<std::string, std::vector<std::string>> lines;
  for (const auto& [path, content] : repo.code) {
    lines.emplace(path, SplitLines(content));
  }
  for (const auto& [path, content] : repo.cmake) {
    lines.emplace(path, SplitLines(content));
  }
  lines.emplace(kRobustnessDocPath, SplitLines(repo.robustness_doc));

  const auto emit_chain = [&lines, &out](const std::string& path,
                                         std::size_t line_no,
                                         const std::string& rule,
                                         const std::string& message,
                                         const std::vector<std::string>& chain) {
    const auto it = lines.find(path);
    if (it != lines.end() && line_no >= 1 && line_no <= it->second.size() &&
        InlineAllowed(it->second[line_no - 1], rule)) {
      return;
    }
    out.push_back({path, line_no, rule, message, chain});
  };
  const auto emit = [&emit_chain](const std::string& path, std::size_t line_no,
                                  const char* rule,
                                  const std::string& message) {
    emit_chain(path, line_no, rule, message, {});
  };

  // ---- include graph (shared by layering and include-cycle) ---------------
  std::map<std::string, std::vector<IncludeEdge>> graph;
  for (const auto& [path, content] : repo.code) {
    std::vector<IncludeEdge> edges = ExtractIncludes(content);
    for (auto& edge : edges) {
      edge.resolved = ResolveInclude(path, edge.target, repo.code);
    }
    graph.emplace(path, std::move(edges));
  }

  // ---- layering -----------------------------------------------------------
  if (spec != nullptr && RuleActive(filter, "layering")) {
    std::set<std::string> reported_unknown;  // one report per unknown module
    for (const auto& [path, edges] : graph) {
      const std::string from = ModuleOf(path);
      if (from.empty() || spec->open_dirs.count(from) != 0) continue;
      const auto from_rung = spec->rung_of.find(from);
      for (const auto& edge : edges) {
        if (edge.resolved.empty()) continue;
        const std::string to = ModuleOf(edge.resolved);
        if (to.empty() || to == from) continue;
        if (from_rung == spec->rung_of.end()) {
          if (reported_unknown.insert(from).second) {
            emit(path, edge.line, "layering",
                 "module `" + from + "` is not declared in " +
                     kLayersSpecPath + " — add it to a `layer` line");
          }
          continue;
        }
        if (spec->open_dirs.count(to) != 0) {
          emit(path, edge.line, "layering",
               "`" + path + "` includes `" + edge.resolved +
                   "`: nothing may depend on the open tree `" + to + "`");
          continue;
        }
        const auto to_rung = spec->rung_of.find(to);
        if (to_rung == spec->rung_of.end()) {
          if (reported_unknown.insert(to).second) {
            emit(path, edge.line, "layering",
                 "module `" + to + "` is not declared in " + kLayersSpecPath +
                     " — add it to a `layer` line");
          }
          continue;
        }
        if (to_rung->second > from_rung->second) {
          emit(path, edge.line, "layering",
               "`" + path + "` includes `" + edge.resolved + "`: layer `" +
                   from + "` (rung " + std::to_string(from_rung->second) +
                   ") may not depend on `" + to + "` (rung " +
                   std::to_string(to_rung->second) + ")");
        }
      }
    }
  }

  // ---- include-cycle ------------------------------------------------------
  if (RuleActive(filter, "include-cycle")) {
    // Tarjan SCCs over the resolved include graph; every component with
    // more than one file (or a self-include) is a cycle.  Iterative so
    // deep include chains cannot blow the stack.
    std::map<std::string, std::size_t> id;
    for (const auto& [path, edges] : graph) id.emplace(path, id.size());
    const std::size_t n = id.size();
    std::vector<std::string> order(n);
    for (const auto& [path, node] : id) order[node] = path;
    std::vector<std::vector<std::size_t>> adj(n);
    for (const auto& [path, edges] : graph) {
      for (const auto& edge : edges) {
        if (edge.resolved.empty()) continue;
        adj[id.at(path)].push_back(id.at(edge.resolved));
      }
    }

    std::vector<std::size_t> index(n, 0), low(n, 0), stack;
    std::vector<bool> visited(n, false), on_stack(n, false);
    std::vector<std::vector<std::size_t>> sccs;
    std::size_t counter = 0;
    struct Frame {
      std::size_t v;
      std::size_t edge = 0;
    };
    for (std::size_t root = 0; root < n; ++root) {
      if (visited[root]) continue;
      std::vector<Frame> frames{{root, 0}};
      while (!frames.empty()) {
        Frame& f = frames.back();
        const std::size_t v = f.v;
        if (f.edge == 0 && !visited[v]) {
          visited[v] = true;
          index[v] = low[v] = counter++;
          stack.push_back(v);
          on_stack[v] = true;
        }
        if (f.edge < adj[v].size()) {
          const std::size_t w = adj[v][f.edge++];
          if (!visited[w]) {
            frames.push_back({w, 0});
          } else if (on_stack[w]) {
            low[v] = std::min(low[v], index[w]);
          }
        } else {
          if (low[v] == index[v]) {
            std::vector<std::size_t> scc;
            while (true) {
              const std::size_t w = stack.back();
              stack.pop_back();
              on_stack[w] = false;
              scc.push_back(w);
              if (w == v) break;
            }
            sccs.push_back(std::move(scc));
          }
          frames.pop_back();
          if (!frames.empty()) {
            low[frames.back().v] = std::min(low[frames.back().v], low[v]);
          }
        }
      }
    }

    for (const auto& scc : sccs) {
      const std::set<std::size_t> members(scc.begin(), scc.end());
      if (scc.size() == 1) {
        bool self_loop = false;
        for (const std::size_t w : adj[scc[0]]) self_loop |= (w == scc[0]);
        if (!self_loop) continue;
      }
      // Deterministic anchor: the lexicographically smallest member, and
      // the shortest cycle through it (BFS within the component).
      std::size_t start = scc[0];
      for (const std::size_t v : scc) {
        if (order[v] < order[start]) start = v;
      }
      std::size_t pred_of_start = n;
      std::map<std::size_t, std::size_t> parent;
      std::vector<std::size_t> queue{start};
      std::set<std::size_t> seen{start};
      for (std::size_t qi = 0; qi < queue.size() && pred_of_start == n;
           ++qi) {
        const std::size_t u = queue[qi];
        for (const std::size_t w : adj[u]) {
          if (w == start) {
            pred_of_start = u;
            break;
          }
          if (members.count(w) == 0 || !seen.insert(w).second) continue;
          parent[w] = u;
          queue.push_back(w);
        }
      }
      if (pred_of_start == n) continue;  // unreachable for a real SCC
      std::vector<std::string> hops;    // start -> ... (excluding start)
      for (std::size_t v = pred_of_start; v != start; v = parent.at(v)) {
        hops.push_back(order[v]);
      }
      std::reverse(hops.begin(), hops.end());
      std::string pretty = order[start];
      for (const auto& hop : hops) pretty += " -> " + hop;
      pretty += " -> " + order[start];
      const std::string& first_hop = hops.empty() ? order[start] : hops.front();
      std::size_t anchor_line = 1;
      for (const auto& edge : graph.at(order[start])) {
        if (edge.resolved == first_hop) {
          anchor_line = edge.line;
          break;
        }
      }
      emit(order[start], anchor_line, "include-cycle",
           "include cycle: " + pretty);
    }
  }

  // ---- stray-metric-literal -----------------------------------------------
  for (const auto& [path, content] : repo.code) {
    if (!RuleActive(filter, "stray-metric-literal")) break;
    if (!path.starts_with("src/") && !path.starts_with("bench/")) continue;
    const std::vector<Token> tokens = TokenizeWithStrings(content);
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (tokens[i].is_string) continue;
      if (tokens[i].text != "GetCounter" && tokens[i].text != "GetGauge" &&
          tokens[i].text != "GetHistogram") {
        continue;
      }
      if (tokens[i + 1].is_string || tokens[i + 1].text != "(" ||
          !tokens[i + 2].is_string) {
        continue;
      }
      emit(path, tokens[i + 2].line, "stray-metric-literal",
           "metric name \"" + tokens[i + 2].text +
               "\" must be a constant from src/obs/names.hpp "
               "(obs::names::k...), not a string literal — the name is a "
               "contract with docs, dashboards and BENCH_*.json");
    }
  }

  // ---- undocumented-failpoint ---------------------------------------------
  if (RuleActive(filter, "undocumented-failpoint")) {
    // (a) inventory rows in src/obs/names.hpp between the
    //     failpoint-inventory markers: first string literal of each `{...}`.
    std::map<std::string, std::size_t> inventory;  // name -> names.hpp line
    const auto names_it = repo.code.find(kNamesHeaderPath);
    if (names_it != repo.code.end()) {
      std::size_t begin_line = 0, end_line = 0;
      const auto& names_lines = lines.at(kNamesHeaderPath);
      for (std::size_t ln = 0; ln < names_lines.size(); ++ln) {
        if (names_lines[ln].find("cfsf-lint: failpoint-inventory-begin") !=
            std::string::npos) {
          begin_line = ln + 1;
        } else if (names_lines[ln].find("cfsf-lint: failpoint-inventory-end") !=
                   std::string::npos) {
          end_line = ln + 1;
        }
      }
      if (begin_line != 0 && end_line > begin_line) {
        const std::vector<Token> tokens = TokenizeWithStrings(names_it->second);
        for (std::size_t i = 0; i < tokens.size(); ++i) {
          if (tokens[i].line <= begin_line || tokens[i].line >= end_line) {
            continue;
          }
          if (tokens[i].is_string || tokens[i].text != "{") continue;
          for (std::size_t j = i + 1; j < tokens.size(); ++j) {
            if (!tokens[j].is_string && tokens[j].text == "}") break;
            if (tokens[j].is_string) {
              inventory.emplace(tokens[j].text, tokens[j].line);
              break;
            }
          }
        }
      }
    }

    // (b) names mentioned in docs/ROBUSTNESS.md (anything in backticks).
    // Matches must not span lines: ``` code fences leave odd backtick
    // counts that would otherwise scramble the pairing for the rest of
    // the document.
    std::set<std::string> documented;
    {
      static const std::regex backtick("`([^`\n]+)`");
      for (auto it = std::sregex_iterator(repo.robustness_doc.begin(),
                                          repo.robustness_doc.end(), backtick);
           it != std::sregex_iterator(); ++it) {
        documented.insert((*it)[1].str());
      }
    }

    // (b') the rows of the "Instrumented sites" table: the block that
    //      `cfsf_cli list-failpoints --markdown` emits, from its header
    //      line to the first line that is not a table row.
    std::vector<std::pair<std::string, std::size_t>> table_rows;
    {
      static const std::regex row(R"(^\|\s*`([^`]+)`\s*\|)");
      const std::vector<std::string>& doc_lines = lines.at(kRobustnessDocPath);
      bool in_table = false;
      for (std::size_t ln = 0; ln < doc_lines.size(); ++ln) {
        const std::string& text = doc_lines[ln];
        if (text.rfind("| name | location | fires as |", 0) == 0) {
          in_table = true;
          continue;
        }
        in_table = in_table && !text.empty() && text[0] == '|';
        std::smatch match;
        if (in_table && std::regex_search(text, match, row)) {
          table_rows.emplace_back(match[1].str(), ln + 1);
        }
      }
    }

    // (c) every string literal in a fault-labelled test
    //     (`cfsf_test(<name> LABEL fault)` -> <cmake dir>/<name>.cpp).
    std::set<std::string> fault_armed;
    static const std::regex fault_test(
        R"(cfsf_test\(\s*(\w+)\s+LABEL\s+fault\s*\))");
    for (const auto& [cpath, ccontent] : repo.cmake) {
      for (auto it =
               std::sregex_iterator(ccontent.begin(), ccontent.end(),
                                    fault_test);
           it != std::sregex_iterator(); ++it) {
        const std::string test_path =
            (fs::path(cpath).parent_path() / ((*it)[1].str() + ".cpp"))
                .lexically_normal()
                .generic_string();
        const auto tit = repo.code.find(test_path);
        if (tit == repo.code.end()) continue;
        for (const Token& tok : TokenizeWithStrings(tit->second)) {
          if (tok.is_string) fault_armed.insert(tok.text);
        }
      }
    }

    // (d) the CFSF_FAILPOINT sites themselves, then cross-check all four.
    std::map<std::string, std::vector<std::pair<std::string, std::size_t>>>
        sites;
    for (const auto& [path, content] : repo.code) {
      if (!path.starts_with("src/")) continue;
      const std::vector<Token> tokens = TokenizeWithStrings(content);
      for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
        if (tokens[i].is_string || tokens[i].text != "CFSF_FAILPOINT") {
          continue;
        }
        if (tokens[i + 1].is_string || tokens[i + 1].text != "(" ||
            !tokens[i + 2].is_string) {
          continue;
        }
        sites[tokens[i + 2].text].push_back({path, tokens[i + 2].line});
      }
    }
    for (const auto& [name, site_list] : sites) {
      for (const auto& [path, line_no] : site_list) {
        if (inventory.count(name) == 0) {
          emit(path, line_no, "undocumented-failpoint",
               "CFSF_FAILPOINT site `" + name +
                   "` has no row in the kFailPoints inventory "
                   "(src/obs/names.hpp)");
        }
        if (documented.count(name) == 0) {
          emit(path, line_no, "undocumented-failpoint",
               "CFSF_FAILPOINT site `" + name +
                   "` is not documented in docs/ROBUSTNESS.md (regenerate "
                   "the table with `cfsf_cli list-failpoints --markdown`)");
        }
        if (fault_armed.count(name) == 0) {
          emit(path, line_no, "undocumented-failpoint",
               "CFSF_FAILPOINT site `" + name +
                   "` is not armed by any fault-labelled test "
                   "(cfsf_test(... LABEL fault))");
        }
      }
    }
    for (const auto& [name, line_no] : inventory) {
      if (sites.count(name) == 0) {
        emit(kNamesHeaderPath, line_no, "undocumented-failpoint",
             "inventory row `" + name +
                 "` has no CFSF_FAILPOINT site in src/ — stale entry, "
                 "remove it");
      }
    }
    for (const auto& [name, line_no] : table_rows) {
      if (inventory.count(name) == 0) {
        emit(kRobustnessDocPath, line_no, "undocumented-failpoint",
             "docs/ROBUSTNESS.md row `" + name +
                 "` has no kFailPoints entry (src/obs/names.hpp) — stale "
                 "row; regenerate the table with `cfsf_cli list-failpoints "
                 "--markdown`");
      }
    }
  }

  // ---- unknown-ctest-label ------------------------------------------------
  if (RuleActive(filter, "unknown-ctest-label")) {
    static const std::set<std::string> known = {"unit", "integration",
                                               "stress", "lint", "fault"};
    static const std::regex labels_kw(R"(\bLABELS?\b)");
    for (const auto& [path, content] : repo.cmake) {
      const std::vector<std::string>& clines = lines.at(path);
      for (std::size_t ln = 0; ln < clines.size(); ++ln) {
        std::string cline = clines[ln];
        const std::size_t hash = cline.find('#');
        if (hash != std::string::npos) cline.erase(hash);
        std::smatch match;
        if (!std::regex_search(cline, match, labels_kw)) continue;
        const std::string rest =
            cline.substr(match.position(0) + match.length(0));
        std::istringstream fields(rest);
        std::string raw;
        while (fields >> raw) {
          const bool closes_list = raw.find(')') != std::string::npos;
          std::string cleaned;
          for (const char c : raw) {
            if (c == ')') break;
            if (c != '"') cleaned.push_back(c);
          }
          // An ALL-CAPS token is the next cmake keyword, not a label.
          const bool keyword =
              !cleaned.empty() &&
              std::all_of(cleaned.begin(), cleaned.end(), [](char c) {
                return std::isupper(static_cast<unsigned char>(c)) || c == '_';
              });
          if (keyword) break;
          std::istringstream pieces(cleaned);
          std::string piece;
          while (std::getline(pieces, piece, ';')) {
            if (piece.empty() || piece.find("${") != std::string::npos) {
              continue;  // variable reference — resolved at configure time
            }
            if (known.count(piece) == 0) {
              emit(path, ln + 1, "unknown-ctest-label",
                   "unknown ctest label `" + piece +
                       "` — labels must be one of unit/integration/stress/"
                       "lint/fault (docs/TOOLING.md)");
            }
          }
          if (closes_list) break;
        }
      }
    }
  }

  // ---- v4 call-graph rules ------------------------------------------------
  AnalyzeCallGraph(repo, filter, emit_chain);
}

bool HasLintableExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

// True for directories the scanner must not descend into: build trees,
// hidden dirs, and the fixture corpus (deliberate violations).
bool SkipDirectory(const std::string& name) {
  return name == "build" || name == "lint_fixtures" ||
         (!name.empty() && name[0] == '.');
}

// Load every file the cross-file rules care about under `root` into a
// RepoIndex, keyed by root-relative path.
void LoadRepoIndex(const fs::path& root, RepoIndex* repo) {
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory()) {
      if (SkipDirectory(it->path().filename().string())) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (!it->is_regular_file()) continue;
    const std::string rel = fs::relative(it->path(), root).generic_string();
    const bool lintable = HasLintableExtension(it->path());
    const bool cmake = it->path().filename() == "CMakeLists.txt";
    if (!lintable && !cmake && rel != kRobustnessDocPath &&
        rel != kLayersSpecPath) {
      continue;
    }
    std::ifstream in(it->path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (rel == kLayersSpecPath) {
      repo->layers_text = buffer.str();
      repo->has_layers = true;
    } else if (rel == kRobustnessDocPath) {
      repo->robustness_doc = buffer.str();
    } else if (cmake) {
      repo->cmake.emplace(rel, buffer.str());
    } else {
      repo->code.emplace(rel, buffer.str());
    }
  }
}

// Parse the index's layer spec (if any) and run every cross-file rule.
// Returns false on a malformed spec (message to stderr).
bool AnalyzeRepoWithSpec(const RepoIndex& repo, std::vector<Violation>& out,
                         const RuleFilter* filter = nullptr) {
  LayerSpec spec;
  const LayerSpec* spec_ptr = nullptr;
  if (repo.has_layers) {
    std::string error;
    if (!ParseLayerSpec(repo.layers_text, &spec, &error)) {
      std::cerr << "cfsf_lint: " << kLayersSpecPath << ": " << error << "\n";
      return false;
    }
    spec_ptr = &spec;
  }
  AnalyzeRepo(repo, spec_ptr, out, filter);
  return true;
}

// ---------------------------------------------------------------------------
// Self-test: every rule must fire on its seeded violation, stay quiet on
// the clean twin, and be silenced by its inline allow marker (checked
// automatically for every firing case below).
// ---------------------------------------------------------------------------
struct SelfTestCase {
  std::string name;
  std::string path;  // governs path-scoped rules
  std::string code;
  std::string expect_rule;  // empty = expect no violations
};

const std::vector<SelfTestCase>& SelfTestCases() {
  static const std::vector<SelfTestCase> cases = {
      {"std-rand fires", "src/x.cpp", "int r = std::rand();\n", "no-std-rand"},
      {"srand fires", "src/x.cpp", "srand(42);\n", "no-std-rand"},
      {"util::Rng clean", "src/x.cpp", "cfsf::util::Rng rng(7);\n", ""},
      {"rand in comment clean", "src/x.cpp", "// std::rand() is banned\n", ""},
      {"rand in string clean", "src/x.cpp",
       "const char* s = \"std::rand()\";\n", ""},
      {"unseeded mt19937 declaration fires", "src/x.cpp",
       "std::mt19937 gen;\n", "unseeded-mt19937"},
      {"default-constructed mt19937 temporary fires", "src/x.cpp",
       "auto v = f(std::mt19937());\n", "unseeded-mt19937"},
      {"seeded mt19937 clean", "src/x.cpp", "std::mt19937 gen(seed);\n", ""},
      {"float accumulator fires", "src/x.cpp",
       "float sum = 0.0F;\n", "float-accumulator"},
      {"float dot accumulator fires", "src/x.cpp",
       "float dot_product = 0;\n", "float-accumulator"},
      {"double accumulator clean", "src/x.cpp", "double sum = 0.0;\n", ""},
      {"float result storage clean", "src/x.cpp",
       "float similarity = 0.0F;\n", ""},
      {"missing pragma once fires", "src/x.hpp",
       "struct S {};\n", "missing-pragma-once"},
      {"pragma once clean", "src/x.hpp", "#pragma once\nstruct S {};\n", ""},
      {"naked new fires", "src/x.cpp", "auto* p = new int(3);\n", "naked-new"},
      {"naked delete fires", "src/x.cpp", "delete p;\n", "naked-new"},
      {"deleted copy ctor clean", "src/x.cpp",
       "S(const S&) = delete;\n", ""},
      {"make_unique clean", "src/x.cpp",
       "auto p = std::make_unique<int>(3);\n", ""},
      {"cout in library fires", "src/x.cpp",
       "std::cout << \"hi\";\n", "iostream-in-library"},
      {"fprintf in library fires", "src/x.cpp",
       "fprintf(stderr, \"x\");\n", "iostream-in-library"},
      {"cout in example clean", "examples/x.cpp",
       "std::cout << \"hi\";\n", ""},
      {"stopwatch in library fires", "src/x.cpp",
       "util::Stopwatch watch;\n", "stopwatch-in-library"},
      {"stopwatch in bench clean", "bench/x.cpp",
       "util::Stopwatch watch;\n", ""},
      {"stopwatch in obs clean", "src/obs/timer.hpp",
       "#pragma once\nutil::Stopwatch watch;\n", ""},
      {"std::abort in library fires", "src/x.cpp",
       "std::abort();\n", "naked-system-exit"},
      {"bare exit in library fires", "src/x.cpp",
       "exit(1);\n", "naked-system-exit"},
      {"std::terminate in library fires", "src/x.cpp",
       "std::terminate();\n", "naked-system-exit"},
      {"abort in check.hpp clean", "src/util/check.hpp",
       "#pragma once\nstd::abort();\n", ""},
      {"exit in tools clean", "tools/x.cpp", "std::exit(2);\n", ""},
      {"abort in comment clean", "src/x.cpp", "// calls std::abort()\n", ""},
      {"raw sleep_for in library fires", "src/x.cpp",
       "std::this_thread::sleep_for(std::chrono::milliseconds(5));\n",
       "naked-sleep-in-library"},
      {"usleep in library fires", "src/x.cpp",
       "usleep(100);\n", "naked-sleep-in-library"},
      {"CondVar::WaitUntil clean", "src/x.cpp",
       "while (!stop_ && cv_.WaitUntil(lock, deadline)) {\n}\n", ""},
      {"raw sleep in tests clean", "tests/x.cpp",
       "std::this_thread::sleep_for(std::chrono::milliseconds(5));\n", ""},
      {"sleep in a util helper fires", "src/util/backoff.cpp",
       "std::this_thread::sleep_for(duration);\n", "naked-sleep-in-library"},
      {"raw fsync in library fires", "src/x.cpp",
       "if (::fsync(fd) != 0) fail();\n", "raw-durable-io-in-library"},
      {"bare rename in library fires", "src/x.cpp",
       "rename(tmp.c_str(), path.c_str());\n", "raw-durable-io-in-library"},
      {"fs::remove in library fires", "src/x.cpp",
       "fs::remove(path, ec);\n", "raw-durable-io-in-library"},
      {"std::filesystem::create_directories in library fires", "src/x.cpp",
       "std::filesystem::create_directories(dir);\n",
       "raw-durable-io-in-library"},
      {"durable-file module clean", "src/util/durable_file.cpp",
       "::fsync(fd);\n::rename(tmp, path);\n::unlink(tmp);\n", ""},
      {"raw durable io in tests clean", "tests/x.cpp",
       "::fsync(fd);\nfs::remove_all(dir);\n", ""},
      {"std::remove algorithm and member rename clean", "src/x.cpp",
       "v.erase(std::remove(v.begin(), v.end(), 0), v.end());\n"
       "table.rename(column);\n",
       ""},
      {"durable-file calls clean", "src/x.cpp",
       "util::RemoveFileDurably(dir, name);\n", ""},

      // --- raw-mutex-in-library ------------------------------------------
      {"std::mutex in library fires", "src/x.cpp",
       "std::mutex m;\n", "raw-mutex-in-library"},
      {"std::lock_guard in library fires", "src/x.cpp",
       "std::lock_guard<std::mutex> l(m);\n", "raw-mutex-in-library"},
      {"std::condition_variable in library fires", "src/x.cpp",
       "std::condition_variable cv;\n", "raw-mutex-in-library"},
      {"cross-line std::mutex fires", "src/x.cpp",
       "std::\n    mutex m;\n", "raw-mutex-in-library"},
      {"annotated wrappers clean", "src/x.cpp",
       "util::Mutex m;\nutil::MutexLock lock(&m);\n", ""},
      {"std::mutex in tests clean", "tests/x.cpp", "std::mutex m;\n", ""},
      {"std::mutex in wrapper home clean", "src/util/mutex.hpp",
       "#pragma once\nstd::mutex m;\n", ""},
      {"mutex in comment clean", "src/x.cpp",
       "// std::mutex is banned here\n", ""},

      // --- lock-scope-leak -----------------------------------------------
      {"manual lock/unlock pair fires", "src/x.cpp",
       "m.lock();\nwork();\nm.unlock();\n", "lock-scope-leak"},
      {"cross-line .lock() fires", "src/x.cpp",
       "mutex_\n    .lock();\n", "lock-scope-leak"},
      {"pointer ->try_lock() fires", "src/x.cpp",
       "if (mu->try_lock()) {}\n", "lock-scope-leak"},
      {"RAII MutexLock clean", "src/x.cpp",
       "util::MutexLock lock(&mutex_);\n", ""},
      {"lock identifier clean", "src/x.cpp",
       "int lock = 0; f(lock);\n", ""},
      {"manual lock in tests clean", "tests/x.cpp",
       "m.lock();\nm.unlock();\n", ""},

      // --- atomic-rmw-discipline -----------------------------------------
      {"bare atomic ++ fires", "src/x.cpp",
       "std::atomic<int> n{0};\nn++;\n", "atomic-rmw-discipline"},
      {"bare atomic prefix ++ fires", "src/x.cpp",
       "std::atomic<int> n{0};\n++n;\n", "atomic-rmw-discipline"},
      {"bare atomic += fires", "src/x.cpp",
       "std::atomic<int> n{0};\nn += 2;\n", "atomic-rmw-discipline"},
      {"orderless fetch_add fires", "src/x.cpp",
       "std::atomic<int> n{0};\nn.fetch_add(1);\n", "atomic-rmw-discipline"},
      {"orderless load fires", "src/x.cpp",
       "std::atomic<int> n{0};\nint v = n.load();\n",
       "atomic-rmw-discipline"},
      {"orderless store on atomic_bool fires", "src/x.cpp",
       "std::atomic_bool stop{false};\nstop.store(true);\n",
       "atomic-rmw-discipline"},
      {"explicit relaxed fetch_add clean", "src/x.cpp",
       "std::atomic<int> n{0};\nn.fetch_add(1, std::memory_order_relaxed);\n",
       ""},
      {"multi-line CAS with orders clean", "src/x.cpp",
       "std::atomic<double> s{0.0};\ndouble c = 0.0;\n"
       "s.compare_exchange_weak(c, c + 1.0,\n"
       "                        std::memory_order_relaxed,\n"
       "                        std::memory_order_relaxed);\n",
       ""},
      {"non-atomic increment clean", "src/x.cpp",
       "int i = 0;\ni++;\n", ""},
      {"orderless atomic in tests clean", "tests/x.cpp",
       "std::atomic<int> n{0};\nn++;\nn.fetch_add(1);\n", ""},
  };
  return cases;
}

// ---------------------------------------------------------------------------
// Cross-file self-test: each case is a miniature in-memory repo.
// ---------------------------------------------------------------------------
struct CrossTestCase {
  std::string name;
  std::vector<std::pair<std::string, std::string>> files;  // rel path, content
  std::string expect_rule;  // empty = expect no cross-file violations
};

// The declared DAG in miniature, for the layering cases.
constexpr const char kTestLayers[] =
    "layer util\n"
    "layer matrix data obs parallel\n"
    "layer core\n"
    "layer robust\n"
    "layer serve\n"
    "open tests bench tools examples\n";

// names.hpp stand-ins for the fail-point contract cases.
constexpr const char kNamesWithBoom[] =
    "#pragma once\n"
    "// cfsf-lint: failpoint-inventory-begin\n"
    "inline constexpr FailPointInfo kFailPoints[] = {\n"
    "    {\"core.boom\", \"site\", \"effect\"},\n"
    "};\n"
    "// cfsf-lint: failpoint-inventory-end\n";
constexpr const char kNamesEmptyInventory[] =
    "#pragma once\n"
    "// cfsf-lint: failpoint-inventory-begin\n"
    "inline constexpr FailPointInfo kFailPoints[] = {};\n"
    "// cfsf-lint: failpoint-inventory-end\n";

const std::vector<CrossTestCase>& CrossTestCases() {
  static const std::vector<CrossTestCase> cases = {
      // --- layering --------------------------------------------------------
      {"inverted include util->serve fires",
       {{kLayersSpecPath, kTestLayers},
        {"src/util/strings.hpp", "#pragma once\n#include \"serve/api.hpp\"\n"},
        {"src/serve/api.hpp", "#pragma once\n"}},
       "layering"},
      {"downward include clean",
       {{kLayersSpecPath, kTestLayers},
        {"src/serve/api.hpp", "#pragma once\n#include \"util/strings.hpp\"\n"},
        {"src/util/strings.hpp", "#pragma once\n"}},
       ""},
      {"same-rung include clean",
       {{kLayersSpecPath, kTestLayers},
        {"src/data/loader.hpp",
         "#pragma once\n#include \"matrix/types.hpp\"\n"},
        {"src/matrix/types.hpp", "#pragma once\n"}},
       ""},
      {"test may include serve clean",
       {{kLayersSpecPath, kTestLayers},
        {"tests/serve_test.cpp", "#include \"serve/api.hpp\"\n"},
        {"src/serve/api.hpp", "#pragma once\n"}},
       ""},
      {"library include of the tests tree fires",
       {{kLayersSpecPath, kTestLayers},
        {"src/util/strings.cpp", "#include \"../../tests/helper.hpp\"\n"},
        {"tests/helper.hpp", "#pragma once\n"}},
       "layering"},
      {"undeclared module fires",
       {{kLayersSpecPath, kTestLayers},
        {"src/newmod/thing.cpp", "#include \"util/strings.hpp\"\n"},
        {"src/util/strings.hpp", "#pragma once\n"}},
       "layering"},
      // --- include-cycle ---------------------------------------------------
      {"include cycle fires",
       {{kLayersSpecPath, kTestLayers},
        {"src/matrix/a.hpp", "#pragma once\n#include \"matrix/b.hpp\"\n"},
        {"src/matrix/b.hpp", "#pragma once\n#include \"matrix/a.hpp\"\n"}},
       "include-cycle"},
      {"acyclic chain clean",
       {{kLayersSpecPath, kTestLayers},
        {"src/matrix/a.hpp", "#pragma once\n#include \"matrix/b.hpp\"\n"},
        {"src/matrix/b.hpp", "#pragma once\n"}},
       ""},
      // --- stray-metric-literal --------------------------------------------
      {"stray metric literal fires",
       {{"src/serve/stack.cpp",
         "void F() { R().GetCounter(\"serve.requests\").Increment(); }\n"}},
       "stray-metric-literal"},
      {"metric constant clean",
       {{"src/serve/stack.cpp",
         "void F() { R().GetCounter(obs::names::kServeRequests); }\n"}},
       ""},
      {"metric literal in tests clean",
       {{"tests/obs_test.cpp",
         "void F() { R().GetCounter(\"anything.goes\"); }\n"}},
       ""},
      // --- undocumented-failpoint ------------------------------------------
      {"failpoint missing from every artifact fires",
       {{kNamesHeaderPath, kNamesEmptyInventory},
        {"src/core/model.cpp",
         "void F() { CFSF_FAILPOINT(\"core.boom\"); }\n"}},
       "undocumented-failpoint"},
      {"failpoint fully wired clean",
       {{kNamesHeaderPath, kNamesWithBoom},
        {kRobustnessDocPath, "| `core.boom` | site | effect |\n"},
        {"tests/CMakeLists.txt", "cfsf_test(boom_test LABEL fault)\n"},
        {"tests/boom_test.cpp", "void T() { Arm(\"core.boom\"); }\n"},
        {"src/core/model.cpp",
         "void F() { CFSF_FAILPOINT(\"core.boom\"); }\n"}},
       ""},
      {"stale inventory row fires",
       {{kNamesHeaderPath, kNamesWithBoom}},
       "undocumented-failpoint"},
      {"stale robustness table row fires",
       {{kNamesHeaderPath, kNamesWithBoom},
        {kRobustnessDocPath,
         "| name | location | fires as |\n"
         "|------|----------|----------|\n"
         "| `core.boom` | site | effect |\n"
         "| `serve.swap.load` | site | effect |\n"},
        {"tests/CMakeLists.txt", "cfsf_test(boom_test LABEL fault)\n"},
        {"tests/boom_test.cpp", "void T() { Arm(\"core.boom\"); }\n"},
        {"src/core/model.cpp",
         "void F() { CFSF_FAILPOINT(\"core.boom\"); }\n"}},
       "undocumented-failpoint"},
      // --- unknown-ctest-label ---------------------------------------------
      {"unknown ctest label fires",
       {{"tests/CMakeLists.txt",
         "set_tests_properties(t PROPERTIES LABELS nightly)\n"}},
       "unknown-ctest-label"},
      {"known labels clean",
       {{"tests/CMakeLists.txt",
         "cfsf_test(a_test LABEL fault)\n"
         "set_tests_properties(t PROPERTIES LABELS stress)\n"}},
       ""},
      {"variable label reference clean",
       {{"tests/CMakeLists.txt", "set(_props LABELS ${CFSF_TEST_LABEL})\n"}},
       ""},
      // --- call-graph construction edge cases --------------------------------
      // Virtual dispatch through a base pointer: the receiver name gives no
      // hint, so resolution widens to every definition of the terminal name
      // (conservative fallback) and still reaches the derived override's
      // fsync.
      {"virtual dispatch widens to derived override fires",
       {{"src/serve/host.cpp",
         "class Sink {\n"
         " public:\n"
         "  virtual int Emit(int fd) = 0;\n"
         "};\n"
         "class DiskSink : public Sink {\n"
         " public:\n"
         "  int Emit(int fd) override { return ::fsync(fd); }\n"
         "};\n"
         "int Pump(Sink* out, int fd) CFSF_HOT_PATH {\n"
         "  return out->Emit(fd);\n"
         "}\n"}},
       "blocking-call-on-hot-path"},
      // Self-recursion must terminate (BFS visited set) and stay clean when
      // nothing on the cycle blocks.
      {"recursive hot path terminates clean",
       {{"src/core/walker.cpp",
         "int Depth(int n) CFSF_HOT_PATH {\n"
         "  if (n <= 0) return 0;\n"
         "  return 1 + Depth(n - 1);\n"
         "}\n"}},
       ""},
      // A function pointer taken as `&Class::Method` adds a conservative
      // call edge even though the call site never names the method with
      // `(...)` directly.
      {"function pointer member reference adds conservative edge fires",
       {{"src/serve/queue.cpp",
         "class Job {\n"
         " public:\n"
         "  int Run(int fd) { return ::fsync(fd); }\n"
         "};\n"
         "int Invoke(int (Job::*method)(int), int fd);\n"
         "int Drain(int fd) CFSF_HOT_PATH {\n"
         "  return Invoke(&Job::Run, fd);\n"
         "}\n"}},
       "blocking-call-on-hot-path"},
  };
  return cases;
}

RepoIndex BuildIndex(
    const std::vector<std::pair<std::string, std::string>>& files) {
  RepoIndex repo;
  for (const auto& [path, content] : files) {
    if (path == kLayersSpecPath) {
      repo.layers_text = content;
      repo.has_layers = true;
    } else if (path == kRobustnessDocPath) {
      repo.robustness_doc = content;
    } else if (fs::path(path).filename() == "CMakeLists.txt") {
      repo.cmake.emplace(path, content);
    } else {
      repo.code.emplace(path, content);
    }
  }
  return repo;
}

// On-disk fixture corpus: each directory under `dir` is a miniature
// repo-root named `<rule>__bad` (the rule must fire), `<rule>__good`
// (must stay clean) or `<rule>__allowed` (violating code carrying inline
// allow markers — must stay clean).  The rule name may itself contain
// `__`-separated qualifiers (e.g. `layering__net-edge__bad`); only the
// segment after the LAST `__` is the kind.
int RunFixtureCorpus(const fs::path& dir, std::size_t* checks) {
  int failures = 0;
  std::vector<fs::path> case_dirs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_directory()) case_dirs.push_back(entry.path());
  }
  std::sort(case_dirs.begin(), case_dirs.end());
  for (const auto& case_dir : case_dirs) {
    const std::string name = case_dir.filename().string();
    ++*checks;
    const std::size_t first = name.find("__");
    const std::size_t last = name.rfind("__");
    const std::string rule = name.substr(0, first);
    const std::string kind =
        last == std::string::npos ? "" : name.substr(last + 2);
    if (kind != "bad" && kind != "good" && kind != "allowed") {
      ++failures;
      std::cout << "FAIL: fixture `" << name
                << "`: directory must be named "
                   "<rule>[__<qualifier>]__{bad,good,allowed}\n";
      continue;
    }
    RepoIndex repo;
    LoadRepoIndex(case_dir, &repo);
    std::vector<Violation> violations;
    if (!AnalyzeRepoWithSpec(repo, violations)) {
      ++failures;
      std::cout << "FAIL: fixture `" << name << "`: malformed layer spec\n";
      continue;
    }
    const bool fired =
        std::any_of(violations.begin(), violations.end(),
                    [&rule](const Violation& v) { return v.rule == rule; });
    const bool expect_fire = kind == "bad";
    if (fired != expect_fire) {
      ++failures;
      std::cout << "FAIL: fixture `" << name << "` (expected "
                << (expect_fire ? "a `" + rule + "` violation" : "clean")
                << ", got " << violations.size() << " violation(s)";
      for (const auto& v : violations) std::cout << " [" << v.rule << "]";
      std::cout << ")\n";
    }
  }
  return failures;
}

int RunSelfTest(const std::string& fixtures_dir) {
  int failures = 0;
  std::size_t checks = 0;

  const auto fires = [](const std::vector<Violation>& violations,
                        const std::string& rule) {
    return std::any_of(
        violations.begin(), violations.end(),
        [&rule](const Violation& v) { return v.rule == rule; });
  };

  for (const auto& test : SelfTestCases()) {
    std::vector<Violation> violations;
    LintFile(test.path, test.code, violations);
    ++checks;
    bool ok = false;
    if (test.expect_rule.empty()) {
      ok = violations.empty();
    } else {
      ok = fires(violations, test.expect_rule);
    }
    if (!ok) {
      ++failures;
      std::cout << "FAIL: " << test.name << " (expected "
                << (test.expect_rule.empty() ? "no violation"
                                             : test.expect_rule)
                << ", got " << violations.size() << " violation(s)";
      for (const auto& v : violations) std::cout << " [" << v.rule << "]";
      std::cout << ")\n";
    }

    // Inline-suppression twin: every firing snippet must go quiet when
    // each line carries its `// cfsf-lint: allow(rule)` marker.
    if (test.expect_rule.empty()) continue;
    std::string suppressed;
    std::istringstream lines(test.code);
    std::string line;
    while (std::getline(lines, line)) {
      suppressed +=
          line + "  // cfsf-lint: allow(" + test.expect_rule + ")\n";
    }
    std::vector<Violation> suppressed_violations;
    LintFile(test.path, suppressed, suppressed_violations);
    ++checks;
    if (fires(suppressed_violations, test.expect_rule)) {
      ++failures;
      std::cout << "FAIL: " << test.name
                << " [inline allow(" << test.expect_rule
                << ") did not suppress]\n";
    }
  }

  // Cross-file cases: run the whole-repo analysis over each in-memory
  // mini repo, then over a marker-suppressed twin of every firing case.
  const auto with_markers = [](const std::string& content,
                               const std::string& rule,
                               const std::string& comment_lead,
                               const std::string& comment_tail = "") {
    std::string marked;
    std::istringstream stream(content);
    std::string line;
    while (std::getline(stream, line)) {
      marked += line + "  " + comment_lead + " cfsf-lint: allow(" + rule +
                ")" + comment_tail + "\n";
    }
    return marked;
  };
  for (const auto& test : CrossTestCases()) {
    std::vector<Violation> violations;
    const bool analyzed =
        AnalyzeRepoWithSpec(BuildIndex(test.files), violations);
    ++checks;
    bool ok = analyzed;
    if (ok) {
      ok = test.expect_rule.empty() ? violations.empty()
                                    : fires(violations, test.expect_rule);
    }
    if (!ok) {
      ++failures;
      std::cout << "FAIL: " << test.name << " (expected "
                << (test.expect_rule.empty() ? "no violation"
                                             : test.expect_rule)
                << ", got " << violations.size() << " violation(s)";
      for (const auto& v : violations) std::cout << " [" << v.rule << "]";
      std::cout << ")\n";
    }

    if (test.expect_rule.empty()) continue;
    std::vector<std::pair<std::string, std::string>> suppressed_files;
    for (const auto& [path, content] : test.files) {
      if (path == kLayersSpecPath) {
        suppressed_files.emplace_back(path, content);
      } else if (path == kRobustnessDocPath) {
        suppressed_files.emplace_back(
            path, with_markers(content, test.expect_rule, "<!--", " -->"));
      } else if (fs::path(path).filename() == "CMakeLists.txt") {
        suppressed_files.emplace_back(
            path, with_markers(content, test.expect_rule, "#"));
      } else {
        suppressed_files.emplace_back(
            path, with_markers(content, test.expect_rule, "//"));
      }
    }
    std::vector<Violation> suppressed_violations;
    ++checks;
    if (!AnalyzeRepoWithSpec(BuildIndex(suppressed_files),
                             suppressed_violations) ||
        fires(suppressed_violations, test.expect_rule)) {
      ++failures;
      std::cout << "FAIL: " << test.name << " [inline allow("
                << test.expect_rule << ") did not suppress]\n";
    }
  }

  // On-disk fixture corpus (positive + negative + allowed per rule).
  std::string corpus = fixtures_dir;
  if (corpus.empty() && fs::is_directory("tools/lint_fixtures")) {
    corpus = "tools/lint_fixtures";
  }
  if (corpus.empty()) {
    std::cout << "cfsf_lint self-test: fixture corpus not found "
                 "(pass --fixtures DIR); skipping corpus replay\n";
  } else if (!fs::is_directory(corpus)) {
    ++checks;
    ++failures;
    std::cout << "FAIL: --fixtures " << corpus << " is not a directory\n";
  } else {
    failures += RunFixtureCorpus(corpus, &checks);
  }

  std::cout << "cfsf_lint self-test: " << (checks - failures) << "/" << checks
            << " checks passed\n";
  return failures == 0 ? 0 : 1;
}

// Every rule id the tool knows, for --rules validation and --list-rules.
std::vector<std::string> AllRuleIds() {
  std::vector<std::string> ids = {"missing-pragma-once"};
  for (const auto& rule : LineRules()) ids.push_back(rule.id);
  for (const auto& rule : TokenRules()) ids.push_back(rule.id);
  for (const auto& id : CrossFileRuleIds()) ids.push_back(id);
  for (const auto& id : CallGraphRuleIds()) ids.push_back(id);
  return ids;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string allowlist_path;
  std::string repo_root;
  std::string fixtures_dir;
  std::string rules_arg;
  bool self_test = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (arg == "--json") {
      json = true;
      continue;
    }
    if (arg == "--list-rules") {
      for (const auto& id : AllRuleIds()) std::cout << id << "\n";
      return 0;
    }
    const auto need_value = [&argc, &argv, &i](const char* flag) {
      if (i + 1 >= argc) {
        std::cerr << "cfsf_lint: " << flag << " requires an argument\n";
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (arg == "--allowlist") {
      allowlist_path = need_value("--allowlist");
    } else if (arg == "--repo-root") {
      repo_root = need_value("--repo-root");
    } else if (arg == "--fixtures") {
      fixtures_dir = need_value("--fixtures");
    } else if (arg == "--rules") {
      rules_arg = need_value("--rules");
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "cfsf_lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (self_test) return RunSelfTest(fixtures_dir);
  if (roots.empty() && repo_root.empty()) {
    std::cerr << "usage: cfsf_lint [--allowlist FILE] [--repo-root DIR] "
                 "[--self-test] [--fixtures DIR] [--list-rules] [--json] "
                 "[--rules ID[,ID...]] DIR...\n";
    return 2;
  }

  // --rules: validate every id against the full rule list up front so a
  // typo fails loudly instead of silently running nothing.
  RuleFilter filter_storage;
  const RuleFilter* filter = nullptr;
  if (!rules_arg.empty()) {
    const std::vector<std::string> known_vec = AllRuleIds();
    const std::set<std::string> known(known_vec.begin(), known_vec.end());
    std::istringstream pieces(rules_arg);
    std::string piece;
    while (std::getline(pieces, piece, ',')) {
      if (piece.empty()) continue;
      if (known.count(piece) == 0) {
        std::cerr << "cfsf_lint: --rules: unknown rule id `" << piece
                  << "` (see --list-rules)\n";
        return 2;
      }
      filter_storage.insert(piece);
    }
    if (filter_storage.empty()) {
      std::cerr << "cfsf_lint: --rules: no rule ids given\n";
      return 2;
    }
    filter = &filter_storage;
  }

  std::vector<AllowEntry> allow;
  if (!allowlist_path.empty()) allow = LoadAllowlist(allowlist_path);
  // Per-entry suppression counters, for the v4 staleness check.
  std::vector<std::size_t> allow_hits(allow.size(), 0);
  const auto allowlisted = [&allow, &allow_hits](const Violation& v) {
    bool hit = false;
    for (std::size_t e = 0; e < allow.size(); ++e) {
      if ((allow[e].rule == "*" || allow[e].rule == v.rule) &&
          v.path.find(allow[e].path_substring) != std::string::npos) {
        ++allow_hits[e];
        hit = true;
      }
    }
    return hit;
  };

  std::vector<Violation> violations;
  std::vector<std::string> scanned_paths;
  for (const auto& root : roots) {
    if (!fs::exists(root)) {
      std::cerr << "cfsf_lint: no such path: " << root << "\n";
      return 2;
    }
    for (auto it = fs::recursive_directory_iterator(root);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory()) {
        if (SkipDirectory(it->path().filename().string())) {
          it.disable_recursion_pending();
        }
        continue;
      }
      if (!it->is_regular_file() || !HasLintableExtension(it->path())) {
        continue;
      }
      std::ifstream in(it->path(), std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string display = it->path().generic_string();
      std::vector<Violation> file_violations;
      LintFile(display, buffer.str(), file_violations, filter);
      scanned_paths.push_back(display);
      for (auto& v : file_violations) {
        if (!allowlisted(v)) violations.push_back(std::move(v));
      }
    }
  }

  // Whole-repo cross-file analysis (v3) and call-graph analysis (v4).
  // Violations carry repo-root-relative paths, so allowlist path
  // substrings match either form.
  if (!repo_root.empty()) {
    if (!fs::is_directory(repo_root)) {
      std::cerr << "cfsf_lint: --repo-root " << repo_root
                << " is not a directory\n";
      return 2;
    }
    RepoIndex repo;
    LoadRepoIndex(repo_root, &repo);
    if (!repo.has_layers) {
      std::cerr << "cfsf_lint: --repo-root given but " << kLayersSpecPath
                << " not found under " << repo_root << "\n";
      return 2;
    }
    std::vector<Violation> cross;
    if (!AnalyzeRepoWithSpec(repo, cross, filter)) return 2;
    for (const auto& [path, content] : repo.code) {
      scanned_paths.push_back(path);
    }
    for (const auto& [path, content] : repo.cmake) {
      scanned_paths.push_back(path);
    }
    for (auto& v : cross) {
      if (!allowlisted(v)) violations.push_back(std::move(v));
    }
  }

  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return a.path != b.path ? a.path < b.path : a.line < b.line;
            });

  // Staleness (both checks report to stderr so --json stdout stays pure
  // JSON).  (1) An entry that matches no scanned file is rot: the code
  // it excused is gone or renamed.  (2, v4) An entry for a call-graph
  // rule that ran and suppressed nothing is rot too: the violation it
  // excused was fixed, and the tree's target is zero call-graph entries.
  bool stale = false;
  const std::set<std::string> call_graph_ids(CallGraphRuleIds().begin(),
                                             CallGraphRuleIds().end());
  for (std::size_t e = 0; e < allow.size(); ++e) {
    const AllowEntry& entry = allow[e];
    const bool matches_any = std::any_of(
        scanned_paths.begin(), scanned_paths.end(),
        [&entry](const std::string& path) {
          return path.find(entry.path_substring) != std::string::npos;
        });
    if (!matches_any) {
      std::cerr << "cfsf_lint: stale allowlist entry `" << entry.rule << " "
                << entry.path_substring
                << "`: matches no scanned file — remove it from the "
                   "allowlist\n";
      stale = true;
      continue;
    }
    if (call_graph_ids.count(entry.rule) != 0 && !repo_root.empty() &&
        RuleActive(filter, entry.rule) && allow_hits[e] == 0) {
      std::cerr << "cfsf_lint: stale allowlist entry `" << entry.rule << " "
                << entry.path_substring
                << "`: its rule ran and the entry suppressed nothing — the "
                   "violation it excused was fixed; remove it\n";
      stale = true;
    }
  }

  if (json) {
    // Machine-readable report (validated in CI with `cfsf_cli
    // json-check`).  Exit codes are identical to the human mode.
    std::map<std::string, std::size_t> per_rule;
    for (const auto& id : AllRuleIds()) {
      if (RuleActive(filter, id)) per_rule.emplace(id, 0);
    }
    for (const auto& v : violations) ++per_rule[v.rule];
    std::cout << "{\n  \"tool\": \"cfsf_lint\",\n  \"version\": 4,\n"
              << "  \"files_scanned\": " << scanned_paths.size() << ",\n"
              << "  \"violations\": " << violations.size() << ",\n"
              << "  \"stale_allowlist_entries\": " << (stale ? "true" : "false")
              << ",\n  \"rules\": {";
    bool first = true;
    for (const auto& [id, count] : per_rule) {
      std::cout << (first ? "" : ",") << "\n    \"" << JsonEscape(id)
                << "\": " << count;
      first = false;
    }
    std::cout << "\n  },\n  \"findings\": [";
    first = true;
    for (const auto& v : violations) {
      std::cout << (first ? "" : ",")
                << "\n    {\n      \"rule\": \"" << JsonEscape(v.rule)
                << "\",\n      \"path\": \"" << JsonEscape(v.path)
                << "\",\n      \"line\": " << v.line
                << ",\n      \"message\": \"" << JsonEscape(v.message)
                << "\",\n      \"chain\": [";
      for (std::size_t h = 0; h < v.chain.size(); ++h) {
        std::cout << (h == 0 ? "" : ", ") << "\"" << JsonEscape(v.chain[h])
                  << "\"";
      }
      std::cout << "]\n    }";
      first = false;
    }
    std::cout << "\n  ]\n}\n";
  } else {
    for (const auto& v : violations) {
      std::cout << v.path << ":" << v.line << ": [" << v.rule << "] "
                << v.message << "\n";
      for (std::size_t h = 0; h < v.chain.size(); ++h) {
        std::cout << "    " << (h == 0 ? "" : "-> ") << v.chain[h] << "\n";
      }
    }
    std::cout << "cfsf_lint: " << scanned_paths.size() << " files scanned, "
              << violations.size() << " violation(s)\n";
  }
  if (stale) return 3;
  return violations.empty() ? 0 : 1;
}
