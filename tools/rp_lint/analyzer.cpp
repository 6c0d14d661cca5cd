// rp-lint analyzer implementation: tokenizer and per-file model
// (suppressions with statement extents, includes). See analyzer.hpp for the
// model contract.

#include "analyzer.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace rplint {

namespace {

/// Parses "rp-lint: allow(R1,R3) ..." out of a comment body, if present.
bool parse_allow(const std::string& comment, std::set<std::string>* rules) {
  const std::string key = "rp-lint: allow(";
  const auto pos = comment.find(key);
  if (pos == std::string::npos) return false;
  const auto close = comment.find(')', pos + key.size());
  if (close == std::string::npos) return false;
  std::string list = comment.substr(pos + key.size(), close - pos - key.size());
  std::string id;
  std::stringstream ss(list);
  while (std::getline(ss, id, ',')) {
    id.erase(std::remove_if(id.begin(), id.end(), [](char c) { return c == ' '; }), id.end());
    if (!id.empty()) rules->insert(id);
  }
  return !rules->empty();
}

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Tokenizes `src` into fm: comments feed suppressions,
/// `#include "..."` string payloads are captured for the include graph, and
/// every other string/char literal is skipped (its content can never trip a
/// rule or fake a suppression — raw strings included).
void tokenize(const std::string& src, FileModel* fm) {
  int line = 1;
  bool line_has_code = false;  // non-ws, non-comment content seen on this line
  std::size_t i = 0;
  const std::size_t n = src.size();

  // end_line: the line the comment closes on (== start_line for `//`). An
  // own-line suppression's statement extent anchors there, so a multi-line
  // block comment still covers the statement right after it. build_file_model
  // patches end_line into the final extent.
  auto note_comment = [&](const std::string& body, int start_line, int end_line, bool had_code) {
    std::set<std::string> rules;
    if (parse_allow(body, &rules)) {
      fm->suppressions.push_back({start_line, !had_code, end_line, std::move(rules)});
    }
  };

  // True when the two most recent tokens are `#` `include` — the next string
  // literal is an include payload worth recording.
  auto at_include = [&] {
    const auto& t = fm->tokens;
    return t.size() >= 2 && t[t.size() - 1].text == "include" && t[t.size() - 2].text == "#";
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      line_has_code = false;
      ++i;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i;
      while (i < n && src[i] != '\n') ++i;
      note_comment(src.substr(start, i - start), line, line, line_has_code);
    } else if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t start = i;
      const int start_line = line;
      const bool had_code = line_has_code;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
      note_comment(src.substr(start, i - start), start_line, line, had_code);
    } else if (c == '"' || c == '\'') {
      line_has_code = true;
      const bool include_payload = c == '"' && at_include();
      const char quote = c;
      const std::size_t body = i + 1;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') ++line;  // unterminated literal; keep line count sane
        ++i;
      }
      if (include_payload) {
        fm->includes.push_back({src.substr(body, i - body), line});
      }
      ++i;
    } else if (c == 'R' && i + 1 < n && src[i + 1] == '"' && !(i > 0 && ident_char(src[i - 1]))) {
      // Raw string: skipped wholesale, so an allow() or rule keyword inside
      // one is data, not a suppression or a violation.
      line_has_code = true;
      std::size_t j = i + 2;
      while (j < n && src[j] != '(') ++j;
      std::string close;
      close.push_back(')');
      close.append(src, i + 2, j - i - 2);
      close.push_back('"');
      const std::size_t end = src.find(close, j);
      const std::size_t stop = end == std::string::npos ? n : end + close.size();
      line += static_cast<int>(
          std::count(src.begin() + static_cast<long>(i), src.begin() + static_cast<long>(stop), '\n'));
      i = stop;
    } else if (ident_start(c)) {
      line_has_code = true;
      const std::size_t start = i;
      while (i < n && ident_char(src[i])) ++i;
      fm->tokens.push_back({Tok::Ident, src.substr(start, i - start), line});
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      line_has_code = true;
      const std::size_t start = i;
      while (i < n && (ident_char(src[i]) || src[i] == '.' || src[i] == '\'')) ++i;
      fm->tokens.push_back({Tok::Number, src.substr(start, i - start), line});
    } else {
      line_has_code = true;
      if (c == ':' && i + 1 < n && src[i + 1] == ':') {
        fm->tokens.push_back({Tok::Punct, "::", line});
        i += 2;
      } else if (c == '-' && i + 1 < n && src[i + 1] == '>') {
        fm->tokens.push_back({Tok::Punct, "->", line});
        i += 2;
      } else {
        fm->tokens.push_back({Tok::Punct, std::string(1, c), line});
        ++i;
      }
    }
  }
}

/// Last line of the statement that starts on `after_line + 1`: walks tokens
/// to the terminating ';' (or a scope brace) at bracket depth zero. Used to
/// give own-line suppressions statement extent instead of one physical line.
int statement_end_line(const std::vector<Token>& t, int after_line) {
  std::size_t i = 0;
  while (i < t.size() && t[i].line <= after_line) ++i;
  if (i == t.size() || t[i].line != after_line + 1) return after_line + 1;
  if (t[i].text == "#") return after_line + 1;  // one-line preprocessor directive
  const int cap = after_line + 200;             // safety bound for unterminated statements
  int depth = 0;
  int last = t[i].line;
  for (; i < t.size() && t[i].line <= cap; ++i) {
    const std::string& s = t[i].text;
    last = t[i].line;
    if (s == "(" || s == "[") {
      ++depth;
    } else if (s == ")" || s == "]") {
      --depth;
    } else if (s == "{") {
      if (depth <= 0) return t[i].line;  // compound-statement head: cover through '{'
      ++depth;
    } else if (s == "}") {
      if (depth <= 0) return last;  // never leak past the enclosing scope
      --depth;
    } else if (s == ";" && depth <= 0) {
      return t[i].line;
    }
  }
  return last;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public model construction

FileModel build_file_model(std::string rel_path, const std::string& src) {
  FileModel fm;
  fm.path = std::move(rel_path);
  tokenize(src, &fm);
  for (Suppression& sup : fm.suppressions) {
    if (sup.own_line) {
      // `/* allow */ code;` — no code before the comment, but code after it
      // on the same line: that's an inline suppression of this line.
      for (const Token& t : fm.tokens) {
        if (t.line == sup.line) {
          sup.own_line = false;
          break;
        }
        if (t.line > sup.line) break;
      }
    }
    // Own-line extents anchor at the line the comment *closes* on
    // (end_line holds that during tokenize), so a multi-line block comment
    // still covers the statement that follows it.
    sup.end_line = sup.own_line ? statement_end_line(fm.tokens, sup.end_line) : sup.line;
  }
  return fm;
}

std::size_t match_bracket(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < t.size(); ++j) {
    const std::string& s = t[j].text;
    if (s == "(" || s == "[" || s == "{") ++depth;
    if (s == ")" || s == "]" || s == "}") {
      --depth;
      if (depth == 0) return j;
    }
  }
  return t.size();
}

std::vector<std::pair<std::size_t, std::size_t>> split_call_args(const std::vector<Token>& t,
                                                                 std::size_t name_idx) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  if (name_idx + 1 >= t.size() || t[name_idx + 1].text != "(") return args;
  const std::size_t close = match_bracket(t, name_idx + 1);
  if (close >= t.size()) return args;
  std::size_t arg_start = name_idx + 2;
  int depth = 0;
  for (std::size_t j = name_idx + 2; j < close; ++j) {
    const std::string& s = t[j].text;
    if (s == "(" || s == "[" || s == "{") ++depth;
    if (s == ")" || s == "]" || s == "}") --depth;
    if (s == "," && depth == 0) {
      if (arg_start <= j - 1) args.emplace_back(arg_start, j - 1);
      arg_start = j + 1;
    }
  }
  if (arg_start <= close - 1 && close >= 1) args.emplace_back(arg_start, close - 1);
  return args;
}

void apply_suppressions(const FileModel& fm, bool keep_suppressed, std::vector<Finding>* findings) {
  std::vector<Finding> kept;
  for (Finding& f : *findings) {
    bool suppressed = false;
    for (const Suppression& sup : fm.suppressions) {
      const int lo = sup.own_line ? sup.line + 1 : sup.line;
      const int hi = sup.own_line ? sup.end_line : sup.line;
      if (f.line >= lo && f.line <= hi &&
          (sup.rules.count(f.rule) || sup.rules.count("all"))) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) {
      kept.push_back(std::move(f));
    } else if (keep_suppressed) {
      f.suppressed = true;
      kept.push_back(std::move(f));
    }
  }
  *findings = std::move(kept);
}

// ---------------------------------------------------------------------------
// Shared helpers

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "return", "if",        "while",    "for",      "do",    "else",  "switch",
      "case",   "co_return", "co_yield", "co_await", "throw", "new",   "delete",
      "not",    "and",       "or",       "goto",     "default"};
  return kKeywords.count(s) > 0;
}

bool is_int_type_token(const std::string& s) {
  static const std::set<std::string> kInts = {
      "int",      "long",     "short",     "signed",  "unsigned", "size_t",
      "int8_t",   "int16_t",  "int32_t",   "int64_t", "uint8_t",  "uint16_t",
      "uint32_t", "uint64_t", "ptrdiff_t", "ssize_t", "char"};
  return kInts.count(s) > 0;
}

bool under(const std::string& path, const std::string& prefix) {
  return path.rfind(prefix, 0) == 0;
}

bool is_any(const std::string& path, std::initializer_list<const char*> names) {
  for (const char* n : names) {
    if (path == n) return true;
  }
  return false;
}

}  // namespace rplint
