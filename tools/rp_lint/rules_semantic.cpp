// rp-lint phase 2: semantic rules on the whole-tree model.
//
//   R10 capture-race    — a lambda handed to parallel_for/run_shards that
//                         captures by reference and writes a captured
//                         non-local outside the documented disjoint-index
//                         idioms (indexed out[i], per-shard slot, local
//                         accumulator folded after the join).
//   R11 layering        — #include edges between src/ layers must follow the
//                         committed layer DAG (layer_allowed_edges()), and
//                         the file-level include graph must stay acyclic.
//   R12 hot-path alloc  — Tensor construction, operator new, and growing-
//                         container calls in functions reachable from
//                         `// rp-lint: hot` entry points (name-merged call
//                         graph): the arena-refactor inventory.

#include "analyzer.hpp"

#include <algorithm>

namespace rplint {

namespace {

// ---------------------------------------------------------------------------
// R10: capture-race analysis

struct LambdaInfo {
  bool valid = false;
  bool default_ref = false;   // [&] default capture
  bool captures_this = false; // [this] / [&] in a member function
  std::set<std::string> by_ref;
  std::set<std::string> by_value;
  std::set<std::string> locals;  // params + body declarations
  std::size_t body_begin = 0, body_end = 0;
};

/// True when no assignment precedes the declarator at `j` within its
/// statement (scanning back to the enclosing ';', '{', '}' or open paren):
/// `const int a = 0, b = 1;` opens with a declaration, while a comma
/// expression such as `x = a * b, c = 1;` does not.
bool opens_declaration(const std::vector<Token>& t, std::size_t begin, std::size_t j) {
  int depth = 0;
  for (std::size_t k = j; k > begin; --k) {
    const std::string& s = t[k - 1].text;
    if (s == ")" || s == "]") {
      ++depth;
    } else if (s == "(" || s == "[") {
      if (depth == 0) return true;
      --depth;
    } else if (depth == 0 && (s == ";" || s == "{" || s == "}")) {
      return true;
    } else if (depth == 0 && s == "=") {
      return false;
    }
  }
  return true;
}

/// Adds the declarators that follow the one at `first` in its declaration
/// statement: each name after a top-level ',' (past any '*' / '&') that is
/// followed by an initializer or terminator, as in `float m, v;`.
void add_trailing_declarators(const std::vector<Token>& t, std::size_t first, std::size_t end,
                              std::set<std::string>& locals) {
  int depth = 0;
  for (std::size_t k = first + 1; k < end; ++k) {
    const std::string& s = t[k].text;
    if (s == "(" || s == "[" || s == "{") {
      ++depth;
    } else if (s == ")" || s == "]" || s == "}") {
      if (--depth < 0) return;
    } else if (depth == 0 && s == ";") {
      return;
    } else if (depth == 0 && s == ",") {
      std::size_t d = k + 1;
      while (d < end && (t[d].text == "*" || t[d].text == "&")) ++d;
      if (d + 1 >= end || t[d].kind != Tok::Ident || is_keyword(t[d].text)) continue;
      const std::string& next = t[d + 1].text;
      if (next == "=" || next == ";" || next == "," || next == "(" || next == "{" ||
          next == "[") {
        locals.insert(t[d].text);
      }
    }
  }
}

/// Parses the lambda whose introducer '[' sits at `lb`: capture list,
/// parameters, body token range, and the set of body-local names.
LambdaInfo parse_lambda(const std::vector<Token>& t, std::size_t lb) {
  LambdaInfo lam;
  if (lb >= t.size() || t[lb].text != "[") return lam;
  const std::size_t rb = match_bracket(t, lb);
  if (rb >= t.size()) return lam;

  // Capture list: split at top-level commas; classify each piece.
  std::size_t piece = lb + 1;
  int depth = 0;
  auto classify = [&](std::size_t a, std::size_t b) {  // [a, b) token range
    if (a >= b) return;
    if (t[a].text == "&") {
      if (a + 1 >= b) {
        lam.default_ref = true;
      } else if (t[a + 1].kind == Tok::Ident) {
        lam.by_ref.insert(t[a + 1].text);  // &name and &name = init alike
      }
    } else if (t[a].text == "this" || (t[a].text == "*" && a + 1 < b && t[a + 1].text == "this")) {
      lam.captures_this = true;
    } else if (t[a].kind == Tok::Ident) {
      lam.by_value.insert(t[a].text);  // name, name = init
    }
  };
  for (std::size_t j = lb + 1; j <= rb; ++j) {
    const std::string& s = t[j].text;
    if (s == "(" || s == "[" || s == "{") ++depth;
    if (s == ")" || s == "]" || s == "}") --depth;
    if ((s == "," && depth == 0) || j == rb) {
      classify(piece, j);
      piece = j + 1;
    }
  }

  // Parameters: the last identifier of each top-level comma piece.
  std::size_t after = rb + 1;
  if (after < t.size() && t[after].text == "(") {
    const std::size_t close = match_bracket(t, after);
    if (close >= t.size()) return lam;
    std::size_t a = after + 1;
    depth = 0;
    auto take_param = [&](std::size_t from, std::size_t to) {  // [from, to)
      for (std::size_t k = to; k > from; --k) {
        if (t[k - 1].kind == Tok::Ident && !is_keyword(t[k - 1].text)) {
          lam.locals.insert(t[k - 1].text);
          return;
        }
      }
    };
    for (std::size_t j = after + 1; j <= close; ++j) {
      const std::string& s = t[j].text;
      if (s == "(" || s == "[" || s == "{" || s == "<") ++depth;
      if (s == ")" || s == "]" || s == "}" || s == ">") --depth;
      if ((s == "," && depth == 0) || j == close) {
        take_param(a, j);
        a = j + 1;
      }
    }
    after = close + 1;
  }

  // Body: first '{' after the parameter list (skips mutable/noexcept/-> ret).
  while (after < t.size() && t[after].text != "{" && t[after].text != ";") ++after;
  if (after >= t.size() || t[after].text != "{") return lam;
  const std::size_t body_close = match_bracket(t, after);
  if (body_close >= t.size()) return lam;
  lam.body_begin = after + 1;
  lam.body_end = body_close;

  // Body-local declarations. Heuristic: identifier X is a declaration when
  // the previous token reads like the tail of a type (identifier, &, *, >)
  // and the next token starts an initializer/terminator; the later
  // declarators of the same statement (`const int a = 0, b = 1;`) follow.
  // Over-approximating locals only costs missed findings, never false ones.
  for (std::size_t j = lam.body_begin; j < lam.body_end; ++j) {
    if (t[j].text == "auto" && j + 1 < lam.body_end && t[j + 1].text == "[") {
      for (std::size_t k = j + 2; k < lam.body_end && t[k].text != "]"; ++k) {
        if (t[k].kind == Tok::Ident) lam.locals.insert(t[k].text);  // structured binding
      }
      continue;
    }
    if (t[j].kind != Tok::Ident || is_keyword(t[j].text) || j == lam.body_begin) continue;
    const std::string& prev = t[j - 1].text;
    const bool type_tail = (t[j - 1].kind == Tok::Ident && !is_keyword(prev)) || prev == "&" ||
                           prev == "*" || prev == ">";
    if (!type_tail || j + 1 >= lam.body_end) continue;
    const std::string& next = t[j + 1].text;
    if (next == "=" || next == ";" || next == "(" || next == "{" || next == ":" || next == "," ||
        next == "[") {
      lam.locals.insert(t[j].text);
      if (opens_declaration(t, lam.body_begin, j)) {
        add_trailing_declarators(t, j, lam.body_end, lam.locals);
      }
    }
  }
  lam.valid = true;
  return lam;
}

/// Left-hand side of a write ending at token index `end` (inclusive): the
/// base identifier of the `base[.member][\[idx\]]...` chain plus whether any
/// subscript/call on the chain indexes with a lambda-local or parameter —
/// the documented disjoint-index idiom.
struct Lhs {
  bool valid = false;
  std::string base;
  int line = 0;
  bool idiom_index = false;
};

Lhs parse_lhs(const std::vector<Token>& t, const LambdaInfo& lam, std::size_t body_begin,
              std::size_t end) {
  Lhs lhs;
  std::size_t k = end + 1;  // exclusive cursor
  while (k > body_begin) {
    const std::string& s = t[k - 1].text;
    if (s == "]" || s == ")") {
      // Scan back to the matching opener; an index naming a local/param is
      // the disjoint-index idiom (static_cast wrappers included).
      int depth = 0;
      std::size_t j = k;
      while (j > body_begin) {
        --j;
        const std::string& u = t[j].text;
        if (u == "]" || u == ")") ++depth;
        if (u == "[" || u == "(") {
          --depth;
          if (depth == 0) break;
        }
        // Any local/param naming the index qualifies, at any nesting depth —
        // static_cast<size_t>(i) and i * stride + c wrappers included.
        if (depth >= 1 && t[j].kind == Tok::Ident && lam.locals.count(u)) lhs.idiom_index = true;
      }
      if (depth != 0) return lhs;
      k = j;
      continue;
    }
    if (t[k - 1].kind == Tok::Ident) {
      if (k - 1 > body_begin) {
        const std::string& prev = t[k - 2].text;
        if (prev == "." || prev == "->" || prev == "::") {
          k -= 2;  // member/qualifier chain: keep walking to the true base
          continue;
        }
      }
      lhs.base = t[k - 1].text;
      lhs.line = t[k - 1].line;
      lhs.valid = true;
      return lhs;
    }
    if (s == "*") {  // prefix deref: *ptr = ... writes through the pointer
      --k;
      continue;
    }
    return lhs;  // unrecognized shape — stay silent rather than guess
  }
  return lhs;
}

/// Container-growing member calls R10/R12 treat as writes/allocations.
bool is_grow_call(const std::string& s) {
  static const std::set<std::string> kGrow = {"push_back", "emplace_back", "resize",
                                              "reserve",   "insert",       "emplace"};
  return kGrow.count(s) > 0;
}

class SemanticRules {
 public:
  SemanticRules(const FileModel& fm, const TreeModel& tm, bool force_all,
                std::vector<Finding>* out)
      : fm_(fm), tm_(tm), force_all_(force_all), out_(out) {}

  void run() {
    rule_r10();
    rule_r12();
  }

 private:
  const std::vector<Token>& toks() const { return fm_.tokens; }

  void add(int line, const char* rule, std::string msg) {
    out_->push_back({fm_.path, line, rule, std::move(msg), false});
  }

  /// True when writes to `base` inside `lam` can race: captured by
  /// reference (explicitly, by [&] default, or a member through this).
  static bool captured_by_ref(const LambdaInfo& lam, const std::string& base) {
    if (lam.by_value.count(base)) return false;
    return lam.default_ref || lam.by_ref.count(base) || lam.captures_this || base == "this";
  }

  void check_lambda_body(const LambdaInfo& lam) {
    const auto& t = toks();
    auto flag = [&](const Lhs& lhs, const char* what) {
      add(lhs.line, "R10",
          std::string("parallel lambda ") + what + " captured '" + lhs.base +
              "' outside the disjoint-index idioms (indexed out[i], per-shard slot, local "
              "accumulator folded after the join); restructure or allow(R10) with the "
              "safety argument");
    };
    auto check_write = [&](std::size_t lhs_end, const char* what) {
      const Lhs lhs = parse_lhs(t, lam, lam.body_begin, lhs_end);
      if (!lhs.valid) return;
      if (lam.locals.count(lhs.base)) return;          // lambda-local or parameter
      if (!captured_by_ref(lam, lhs.base)) return;     // by-value copy: harmless
      if (lhs.idiom_index) return;                     // disjoint-index / per-shard slot
      flag(lhs, what);
    };

    for (std::size_t j = lam.body_begin; j < lam.body_end; ++j) {
      const std::string& s = t[j].text;
      if (s == "=") {
        const std::string& prev = j > lam.body_begin ? t[j - 1].text : std::string();
        const std::string& next = j + 1 < lam.body_end ? t[j + 1].text : std::string();
        if (next == "=" || prev == "=" || prev == "!" || prev == "<" || prev == ">") continue;
        const bool compound = prev == "+" || prev == "-" || prev == "*" || prev == "/" ||
                              prev == "%" || prev == "&" || prev == "|" || prev == "^";
        if (compound && j < lam.body_begin + 2) continue;
        if (!compound && j < lam.body_begin + 1) continue;
        check_write(compound ? j - 2 : j - 1, compound ? "accumulates into" : "assigns");
        continue;
      }
      if ((s == "+" || s == "-") && j + 1 < lam.body_end && t[j + 1].text == s) {
        if (j + 2 < lam.body_end && t[j + 2].kind == Tok::Ident) {
          // Pre-increment: ++x. The target is a bare identifier.
          const std::string& base = t[j + 2].text;
          if (!lam.locals.count(base) && captured_by_ref(lam, base)) {
            Lhs lhs{true, base, t[j + 2].line, false};
            flag(lhs, "increments");
          }
        } else if (j > lam.body_begin &&
                   (t[j - 1].kind == Tok::Ident || t[j - 1].text == "]" || t[j - 1].text == ")")) {
          check_write(j - 1, "increments");
        }
        ++j;  // consume the second op char
        continue;
      }
      if (t[j].kind == Tok::Ident && is_grow_call(s) && j + 1 < lam.body_end &&
          t[j + 1].text == "(" && j > lam.body_begin &&
          (t[j - 1].text == "." || t[j - 1].text == "->")) {
        const Lhs lhs = parse_lhs(t, lam, lam.body_begin, j - 2);
        if (lhs.valid && !lam.locals.count(lhs.base) && captured_by_ref(lam, lhs.base) &&
            !lhs.idiom_index) {
          add(t[j].line, "R10",
              "parallel lambda grows captured container '" + lhs.base + "' via " + s +
                  "(); growth relocates storage under other lanes — use a preallocated "
                  "per-index slot or allow(R10) with the safety argument");
        }
      }
    }
  }

  /// R10: every lambda handed to parallel_for/run_shards — inline at the
  /// call, or a named `auto body = [...]` passed by name — is scope-parsed
  /// and its writes to by-reference captures checked against the idioms.
  void rule_r10() {
    const auto& t = toks();
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != Tok::Ident) continue;
      if (t[i].text != "parallel_for" && t[i].text != "run_shards") continue;
      if (t[i + 1].text != "(") continue;
      const auto args = split_call_args(t, i);
      if (args.empty()) continue;
      const auto [lo, hi] = args.back();
      LambdaInfo lam;
      if (t[lo].text == "[") {
        lam = parse_lambda(t, lo);
      } else if (lo == hi && t[lo].kind == Tok::Ident) {
        // Named body: find the nearest preceding `name = [` definition.
        for (std::size_t j = i; j > 2; --j) {
          if (t[j - 1].text == "[" && t[j - 2].text == "=" && t[j - 3].text == t[lo].text) {
            lam = parse_lambda(t, j - 1);
            break;
          }
        }
      }
      if (!lam.valid) continue;
      if (!lam.default_ref && lam.by_ref.empty() && !lam.captures_this) continue;
      check_lambda_body(lam);
    }
  }

  /// R12: allocation discipline in hot paths. Functions reachable from the
  /// `// rp-lint: hot` entry points may not construct Tensors, call operator
  /// new, or grow containers without a triaged allow(R12). The sanctioned
  /// alternative is Tensor::scratch()/scratch_copy() — qualified calls never
  /// match the Tensor-construction pattern, and the factory bodies (which by
  /// definition construct the tensor) are exempted here: they are the
  /// arena/pool engine, not a hot-path escapee.
  void rule_r12() {
    if (!force_all_ && !under(fm_.path, "src/")) return;
    const auto& t = toks();
    std::set<std::pair<int, std::string>> seen;  // dedup (line, kind)
    auto add_once = [&](int line, const std::string& kind, const std::string& msg) {
      if (seen.emplace(line, kind).second) add(line, "R12", msg);
    };
    for (const FunctionInfo& fi : fm_.functions) {
      if (fm_.path == "src/tensor/tensor.hpp" &&
          (fi.name == "scratch" || fi.name == "scratch_copy")) {
        continue;  // the sanctioned construction path itself
      }
      const auto reach = tm_.hot_reach.find(fi.name);
      if (reach == tm_.hot_reach.end()) continue;
      const std::string ctx = " in hot path '" + fi.name + "' (reachable from hot entry '" +
                              reach->second + "'); pool/arena/hoist it or allow(R12) with a reason";
      for (std::size_t j = fi.body_begin; j < fi.body_end; ++j) {
        const std::string& s = t[j].text;
        if (t[j].kind != Tok::Ident) continue;
        if (s == "new") {
          add_once(t[j].line, "new", "operator new" + ctx);
          continue;
        }
        if (s == "Tensor") {
          if (j > fi.body_begin &&
              (t[j - 1].text == "class" || t[j - 1].text == "struct" || t[j - 1].text == "::")) {
            continue;
          }
          if (j + 1 >= fi.body_end) continue;
          const std::string& next = t[j + 1].text;
          const bool temp = next == "(" || next == "{";
          const bool decl = t[j + 1].kind == Tok::Ident && j + 2 < fi.body_end &&
                            (t[j + 2].text == "(" || t[j + 2].text == "{" ||
                             t[j + 2].text == "=" || t[j + 2].text == ";");
          if (temp || decl) {
            // A declaration whose initializer routes through the sanctioned
            // factories (`Tensor d = Tensor::scratch_copy(...)`) is the fix,
            // not the violation: scan the rest of the statement for a
            // qualified scratch/scratch_copy call before flagging the decl
            // pattern. A plain identifier named `scratch` does not qualify.
            bool sanctioned = false;
            for (std::size_t k = j + 1; k + 1 < fi.body_end && t[k].text != ";"; ++k) {
              if (t[k].kind == Tok::Ident &&
                  (t[k].text == "scratch" || t[k].text == "scratch_copy") &&
                  t[k + 1].text == "(" &&
                  (t[k - 1].text == "::" || t[k - 1].text == ".")) {
                sanctioned = true;
                break;
              }
            }
            if (!sanctioned) {
              add_once(t[j].line, "tensor", "Tensor construction of '" +
                                                (decl ? t[j + 1].text : std::string("<temporary>")) +
                                                "'" + ctx);
            }
          }
          continue;
        }
        if (is_grow_call(s) && j + 1 < fi.body_end && t[j + 1].text == "(" &&
            j > fi.body_begin && (t[j - 1].text == "." || t[j - 1].text == "->")) {
          add_once(t[j].line, s, "growing-container call '" + s + "'" + ctx);
        }
      }
    }
  }

  const FileModel& fm_;
  const TreeModel& tm_;
  bool force_all_;
  std::vector<Finding>* out_;
};

}  // namespace

// ---------------------------------------------------------------------------
// R11: include-graph layering

const std::map<std::string, std::set<std::string>>& layer_allowed_edges() {
  // The committed layer DAG, lowest first: obs (result-neutral substrate) →
  // fault → tensor → data → corrupt → nn → core → sched → exp → serve. A layer
  // may include itself and exactly the layers listed here. DESIGN.md §7's
  // layer table is generated from this map and must match it row for row.
  static const std::map<std::string, std::set<std::string>> kEdges = {
      {"obs", {}},
      {"fault", {"obs"}},
      {"tensor", {"obs", "fault"}},
      {"data", {"obs", "tensor"}},
      {"corrupt", {"obs", "tensor", "data"}},
      {"nn", {"obs", "tensor", "data"}},
      {"core", {"obs", "tensor", "data", "corrupt", "nn"}},
      {"sched", {"obs", "fault", "tensor"}},
      {"exp", {"obs", "fault", "tensor", "data", "corrupt", "nn", "core", "sched"}},
      {"serve", {"obs", "fault", "tensor", "data", "corrupt", "nn", "core", "exp"}},
  };
  return kEdges;
}

namespace {

/// Layer of a src file ("src/tensor/x.hpp" -> "tensor"), or "" outside src/.
std::string layer_of(const std::string& path) {
  if (!under(path, "src/")) return "";
  const auto slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

}  // namespace

void run_layering_rule(const std::vector<FileModel>& files, const TreeModel& tm,
                       std::vector<std::vector<Finding>>* per_file) {
  const auto& allowed = layer_allowed_edges();

  // Edge check: every #include "..." between two src/ layers must follow the
  // committed DAG (same layer always allowed).
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string from = layer_of(files[i].path);
    if (from.empty() || !allowed.count(from)) continue;
    for (const IncludeEdge& inc : files[i].includes) {
      const std::string target = "src/" + inc.target;
      const std::string to = layer_of(target);
      if (to.empty() || to == from || !allowed.count(to)) continue;
      if (!allowed.at(from).count(to)) {
        (*per_file)[i].push_back(
            {files[i].path, inc.line, "R11",
             "#include \"" + inc.target + "\" crosses the layer DAG upward (" + from + " -> " +
                 to + "); allowed below " + from + ": {" +
                 [&] {
                   std::string s;
                   for (const std::string& l : allowed.at(from)) s += (s.empty() ? "" : ", ") + l;
                   return s;
                 }() +
                 "} — see DESIGN.md §7 layer table",
             false});
      }
    }
  }

  // Cycle check: DFS over the file-level include graph of src/, visiting in
  // sorted path order so the reported back edge is deterministic.
  enum class Color { White, Gray, Black };
  std::map<std::size_t, Color> color;
  struct Frame {
    std::size_t file;
    std::size_t next_inc;
  };
  std::vector<std::string> chain;  // gray paths, for the cycle message
  for (std::size_t start = 0; start < files.size(); ++start) {
    if (!under(files[start].path, "src/")) continue;
    if (color.count(start) && color[start] != Color::White) continue;
    std::vector<Frame> stack{{start, 0}};
    color[start] = Color::Gray;
    chain = {files[start].path};
    while (!stack.empty()) {
      Frame& fr = stack.back();
      const FileModel& fm = files[fr.file];
      if (fr.next_inc >= fm.includes.size()) {
        color[fr.file] = Color::Black;
        stack.pop_back();
        chain.pop_back();
        continue;
      }
      const IncludeEdge& inc = fm.includes[fr.next_inc++];
      const auto it = tm.path_index.find("src/" + inc.target);
      if (it == tm.path_index.end()) continue;
      const std::size_t to = it->second;
      const Color c = color.count(to) ? color[to] : Color::White;
      if (c == Color::Gray) {
        // Back edge: report the include that closes the cycle, with the path.
        std::string cyc;
        bool in_cycle = false;
        for (const std::string& p : chain) {
          if (p == files[to].path) in_cycle = true;
          if (in_cycle) cyc += p + " -> ";
        }
        cyc += files[to].path;
        (*per_file)[fr.file].push_back({fm.path, inc.line, "R11",
                                        "include cycle: " + cyc +
                                            "; break the cycle with a forward declaration or an "
                                            "interface header",
                                        false});
      } else if (c == Color::White) {
        color[to] = Color::Gray;
        chain.push_back(files[to].path);
        stack.push_back({to, 0});
      }
    }
  }
}

void run_file_semantic_rules(const FileModel& fm, const TreeModel& tm, bool force_all,
                             std::vector<Finding>* out) {
  SemanticRules(fm, tm, force_all, out).run();
}

}  // namespace rplint
