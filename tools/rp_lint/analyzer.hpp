// rp-lint analyzer — the shared model both rule phases run on.
//
// Phase 1 (rules_token.cpp, R1–R9) pattern-matches the token stream of one
// file at a time. Phase 2 (rules_semantic.cpp, R10–R11) runs on a whole-tree
// model built here: the `#include` graph over src/ and a scope/capture parse
// of every lambda handed to parallel_for/run_shards. Everything stays
// libclang-free: the model is grown from the same comment- and string-aware
// tokenizer the token rules always used.
//
// Suppression model: `// rp-lint: allow(Rn) reason` on a code line covers
// that line; on its own line it covers the *entire following statement*
// (multi-line call chains, broken lambda headers), whose extent is computed
// from the token stream (Suppression::end_line).

#pragma once

#include <cstddef>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rplint {

// ---------------------------------------------------------------------------
// Tokens

enum class Tok { Ident, Number, Punct };

struct Token {
  Tok kind;
  std::string text;
  int line;
};

struct Suppression {
  int line;       // line the comment starts on
  bool own_line;  // comment is the only thing on its line
  int end_line;   // own-line: last line of the following statement; else == line
  std::set<std::string> rules;
};

struct IncludeEdge {
  std::string target;  // verbatim payload of a #include "..." directive
  int line;
};

/// Per-file model: tokens plus everything phase 2 needs from this file.
struct FileModel {
  std::string path;  // repo-relative, forward slashes
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  std::vector<IncludeEdge> includes;
};

struct Finding {
  std::string path;
  int line;
  std::string rule;
  std::string message;
  bool suppressed = false;  // kept (and tagged) only under --show-suppressed
};

// ---------------------------------------------------------------------------
// Model construction (analyzer.cpp)

FileModel build_file_model(std::string rel_path, const std::string& src);

/// Token index of the bracket matching the opener at `open` ('(', '[', '{'),
/// or t.size() when unterminated. All three bracket kinds nest together.
std::size_t match_bracket(const std::vector<Token>& t, std::size_t open);

/// Splits a call's top-level arguments. `name_idx` points at the callee
/// identifier, `name_idx + 1` must be '('. Returns [first, last] token index
/// pairs per argument (empty when unterminated).
std::vector<std::pair<std::size_t, std::size_t>> split_call_args(const std::vector<Token>& t,
                                                                 std::size_t name_idx);

// ---------------------------------------------------------------------------
// Rule phases

/// Phase 1: per-file token rules R1–R9 (rules_token.cpp).
void run_token_rules(const FileModel& fm, bool force_all, std::vector<Finding>* out);

/// Phase 2, per-file part: R10 (capture race) (rules_semantic.cpp).
void run_file_semantic_rules(const FileModel& fm, bool force_all, std::vector<Finding>* out);

/// Phase 2, tree part: R11 layering + include-cycle check over src/ files.
/// Findings are appended to (*per_file)[i] for the file they belong to, so
/// per-file suppressions still apply.
void run_layering_rule(const std::vector<FileModel>& files,
                       std::vector<std::vector<Finding>>* per_file);

/// The committed layer order and allowed downward edges R11 enforces.
/// DESIGN.md §7's layer table must match this list exactly (asserted by the
/// fixture self-test in spirit: the table below is the single source).
const std::map<std::string, std::set<std::string>>& layer_allowed_edges();

/// Drops (or, with keep_suppressed, tags) findings covered by an allow().
void apply_suppressions(const FileModel& fm, bool keep_suppressed, std::vector<Finding>* findings);

// ---------------------------------------------------------------------------
// Shared helpers

bool is_keyword(const std::string& s);
bool is_int_type_token(const std::string& s);

/// True when `path` (relative, forward slashes) starts with `prefix`.
bool under(const std::string& path, const std::string& prefix);
bool is_any(const std::string& path, std::initializer_list<const char*> names);

}  // namespace rplint
