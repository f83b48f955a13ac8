#include "std_regex.hpp"  // first: see the header
#include "model.hpp"

#include <algorithm>
#include <cstring>

namespace pfm::lint {

namespace {

// ---------------------------------------------------------------------------
// Header classification helpers
// ---------------------------------------------------------------------------

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kWords = {
      "if",     "for",    "while",  "switch",   "catch",  "return",
      "sizeof", "alignof", "decltype", "noexcept", "throw", "new",
      "delete", "co_return", "co_await", "co_yield", "static_assert"};
  return kWords;
}

// Scans `text` and records, per position, the '(' nesting depth and an
// angle-bracket depth robust enough for declaration headers: `<<`, `>>`
// at depth 0, `->`, and comparison-with-'=' forms are not treated as
// angle brackets.
struct DepthScan {
  std::vector<int> paren;  // depth BEFORE consuming text[i]
  std::vector<int> angle;
};

DepthScan scan_depths(const std::string& text) {
  DepthScan out;
  out.paren.resize(text.size(), 0);
  out.angle.resize(text.size(), 0);
  int paren = 0;
  int angle = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    out.paren[i] = paren;
    out.angle[i] = angle;
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    const char prev = i > 0 ? text[i - 1] : '\0';
    if (c == '(') ++paren;
    else if (c == ')') paren = paren > 0 ? paren - 1 : 0;
    else if (c == '<') {
      if (next == '<' || next == '=' || prev == '<') continue;
      ++angle;
    } else if (c == '>') {
      if (prev == '-' || next == '=') continue;  // "->", ">="
      if (angle > 0) --angle;
    }
  }
  return out;
}

// Finds a whole-word token at paren depth 0 and angle depth 0.
bool header_has_token(const std::string& header, const DepthScan& d,
                      const char* token) {
  for (std::size_t pos = header.find(token); pos != std::string::npos;
       pos = header.find(token, pos + 1)) {
    if (!token_at(header, pos, token)) continue;
    if (d.paren[pos] == 0 && d.angle[pos] == 0) return true;
  }
  return false;
}

std::string last_nonspace_suffix(const std::string& s) {
  const auto last = s.find_last_not_of(" \t");
  if (last == std::string::npos) return "";
  return s.substr(last, 1);
}

// Reads the identifier ending at (exclusive) position `end`; returns
// empty when none. `begin_out` receives its start.
std::string ident_ending_at(const std::string& s, std::size_t end,
                            std::size_t* begin_out = nullptr) {
  std::size_t begin = end;
  while (begin > 0 && is_ident(s[begin - 1])) --begin;
  if (begin_out) *begin_out = begin;
  if (begin == end) return "";
  return s.substr(begin, end - begin);
}

// Skips spaces backwards from (exclusive) `pos`.
std::size_t skip_spaces_back(const std::string& s, std::size_t pos) {
  while (pos > 0 && (s[pos - 1] == ' ' || s[pos - 1] == '\t')) --pos;
  return pos;
}

// Extracts the declarator name of a function-shaped header: the
// identifier immediately before the first '(' at paren/angle depth 0,
// plus the last `Class::` qualifier component if present. Returns false
// when the header is not function-shaped.
bool parse_function_name(const std::string& header, const DepthScan& d,
                         std::string* name, std::string* qualifier) {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] != '(' || d.paren[i] != 0 || d.angle[i] != 0) continue;
    std::size_t end = skip_spaces_back(header, i);
    std::size_t begin = 0;
    std::string id = ident_ending_at(header, end, &begin);
    if (id.empty()) return false;
    if (control_keywords().count(id)) return false;
    *name = id;
    qualifier->clear();
    // Walk back over a `A::B::name` chain; the last component before
    // the name is the class (or namespace) qualifier.
    std::size_t pos = begin;
    if (pos >= 2 && header.compare(pos - 2, 2, "::") == 0) {
      std::string q = ident_ending_at(header, pos - 2);
      if (q.empty() && pos >= 3 && header[pos - 3] == '~') {
        // "~Class::..." cannot occur; handled below via name.
      }
      *qualifier = q;
    }
    // Destructor: `~Class()` — keep the '~' as part of the name so
    // ctor/dtor detection can see it.
    if (begin > 0 && header[begin - 1] == '~') *name = "~" + id;
    return true;
  }
  return false;
}

// The scope kinds the parser distinguishes. Anything brace-shaped that
// is not a namespace, class or function body (initializer lists,
// control-flow blocks, enums, lambdas) is a Block: it only needs to
// balance braces.
enum class ScopeKind { Namespace, Class, Function, Block };

struct Scope {
  ScopeKind kind = ScopeKind::Block;
  std::string name;            // class name for Class scopes
  std::size_t function = static_cast<std::size_t>(-1);  // FunctionDef index
};

// Attributes found on a declaration (PFM_* macros live on the hpp
// declaration while the body lives in the cpp); merged into the
// definition by (class, name).
struct DeclAttrs {
  bool hot = false;
  bool cold = false;
  bool lock_exempt = false;
  std::set<std::string> required_caps;
};

std::set<std::string> parse_macro_args(const std::string& header,
                                       const char* macro) {
  std::set<std::string> out;
  for (std::size_t pos = header.find(macro); pos != std::string::npos;
       pos = header.find(macro, pos + 1)) {
    if (!token_at(header, pos, macro)) continue;
    const std::size_t open = header.find('(', pos);
    if (open == std::string::npos) continue;
    const std::size_t close = header.find(')', open);
    if (close == std::string::npos) continue;
    std::string args = header.substr(open + 1, close - open - 1);
    std::size_t start = 0;
    while (start <= args.size()) {
      std::size_t comma = args.find(',', start);
      std::string arg = args.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      const auto first = arg.find_first_not_of(" \t");
      if (first != std::string::npos) {
        const auto last = arg.find_last_not_of(" \t");
        out.insert(arg.substr(first, last - first + 1));
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-file parse
// ---------------------------------------------------------------------------

struct FileParse {
  std::vector<FunctionDef> functions;
  std::map<std::string, std::map<std::string, std::string>> guarded;
  std::map<std::pair<std::string, std::string>, DeclAttrs> decl_attrs;
};

class Parser {
 public:
  explicit Parser(const std::shared_ptr<const SourceFile>& file)
      : file_(file) {}

  FileParse parse() {
    const auto& code = file_->code;
    bool in_preprocessor = false;
    for (std::size_t l = 0; l < code.size(); ++l) {
      const std::string& line = code[l];
      // Preprocessor lines never contribute to declaration headers (an
      // #include <...> would otherwise leak an unbalanced '<' into the
      // next header). Backslash continuations extend the directive.
      if (!in_preprocessor) {
        const auto first = line.find_first_not_of(" \t");
        if (first != std::string::npos && line[first] == '#') {
          in_preprocessor = true;
        }
      }
      if (in_preprocessor) {
        const std::string& raw = file_->raw[l];
        const auto last = raw.find_last_not_of(" \t\r");
        if (last == std::string::npos || raw[last] != '\\') {
          in_preprocessor = false;
        }
        continue;
      }
      // Headers spanning physical lines need a separator so identifiers
      // do not fuse across the break.
      if (!header_.empty()) header_ += ' ';
      parse_line(l + 1, line);
    }
    // Close any function left open by unbalanced input.
    for (auto& fn : out_.functions) {
      if (fn.body_close_line == 0) {
        fn.body_close_line = code.size();
        fn.body_close_col = code.empty() ? 0 : code.back().size();
      }
    }
    return std::move(out_);
  }

 private:
  void parse_line(std::size_t line_no, const std::string& line) {
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (c == '{') {
        open_brace(line_no, i);
      } else if (c == '}') {
        close_brace(line_no, i);
      } else if (c == ';' && !inside_function()) {
        finish_declaration(line_no);
      } else {
        if (inside_function()) continue;  // bodies are scanned by rules
        if (header_.empty()) {
          if (c == ' ' || c == '\t' || c == '\r') continue;
          header_line_ = line_no;
        }
        header_ += c;
      }
    }
  }

  bool inside_function() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == ScopeKind::Function) return true;
      if (it->kind == ScopeKind::Namespace || it->kind == ScopeKind::Class) {
        return false;
      }
    }
    return false;
  }

  std::string enclosing_class() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == ScopeKind::Class) return it->name;
      if (it->kind == ScopeKind::Namespace) return "";
    }
    return "";
  }

  void open_brace(std::size_t line_no, std::size_t col) {
    Scope scope;
    if (inside_function()) {
      scope.kind = ScopeKind::Block;
      stack_.push_back(scope);
      return;
    }
    const std::string header = header_;
    const std::size_t header_line = header_line_ ? header_line_ : line_no;
    header_.clear();
    header_line_ = 0;

    const DepthScan d = scan_depths(header);
    if (header_has_token(header, d, "namespace")) {
      scope.kind = ScopeKind::Namespace;
      stack_.push_back(scope);
      return;
    }
    if (header_has_token(header, d, "enum")) {
      scope.kind = ScopeKind::Block;
      stack_.push_back(scope);
      return;
    }
    // `alignas(...)` parens in a class head must not make it look
    // function-shaped.
    std::string head_no_alignas = header;
    for (std::size_t pos = head_no_alignas.find("alignas");
         pos != std::string::npos;
         pos = head_no_alignas.find("alignas", pos + 1)) {
      if (!token_at(head_no_alignas, pos, "alignas")) continue;
      const std::size_t open = head_no_alignas.find('(', pos);
      if (open == std::string::npos) break;
      const std::size_t close = head_no_alignas.find(')', open);
      if (close == std::string::npos) break;
      head_no_alignas.erase(pos, close - pos + 1);
      pos = 0;
    }
    if ((header_has_token(header, d, "class") ||
         header_has_token(header, d, "struct") ||
         header_has_token(header, d, "union")) &&
        head_no_alignas.find('(') == std::string::npos) {
      scope.kind = ScopeKind::Class;
      scope.name = class_name_of(header, d);
      stack_.push_back(scope);
      return;
    }
    // `= { ... }` initializers (but operator= definitions are functions).
    const std::string tail = last_nonspace_suffix(header);
    const bool has_operator = header.find("operator") != std::string::npos;
    if (!has_operator && !header.empty()) {
      for (std::size_t i = 0; i < header.size(); ++i) {
        if (header[i] != '=' || d.paren[i] != 0 || d.angle[i] != 0) continue;
        const char prev = i > 0 ? header[i - 1] : '\0';
        const char next = i + 1 < header.size() ? header[i + 1] : '\0';
        if (prev == '=' || prev == '!' || prev == '<' || prev == '>' ||
            next == '=') {
          continue;
        }
        scope.kind = ScopeKind::Block;
        stack_.push_back(scope);
        return;
      }
    }
    (void)tail;

    std::string name;
    std::string qualifier;
    if (!parse_function_name(header, d, &name, &qualifier)) {
      scope.kind = ScopeKind::Block;
      stack_.push_back(scope);
      return;
    }

    FunctionDef def;
    def.file = file_.get();
    def.name = name;
    def.class_name = !qualifier.empty() ? qualifier : enclosing_class();
    def.display =
        def.class_name.empty() ? def.name : def.class_name + "::" + def.name;
    def.header_line = header_line;
    def.body_open_line = line_no;
    def.body_open_col = col + 1;
    const std::string bare =
        def.name.size() > 1 && def.name[0] == '~' ? def.name.substr(1)
                                                  : def.name;
    def.is_ctor_dtor = !def.class_name.empty() && bare == def.class_name;
    def.hot = file_->marked(header_line - 1, line_no, SourceFile::kHot);
    def.cold = file_->marked(header_line - 1, line_no, SourceFile::kCold);
    def.lock_exempt =
        header.find("PFM_NO_THREAD_SAFETY_ANALYSIS") != std::string::npos ||
        header.find("PFM_ACQUIRE") != std::string::npos ||
        header.find("PFM_RELEASE") != std::string::npos;
    def.required_caps = parse_macro_args(header, "PFM_REQUIRES");

    scope.kind = ScopeKind::Function;
    scope.function = out_.functions.size();
    out_.functions.push_back(std::move(def));
    stack_.push_back(scope);
  }

  void close_brace(std::size_t line_no, std::size_t col) {
    header_.clear();
    header_line_ = 0;
    if (stack_.empty()) return;
    const Scope scope = stack_.back();
    stack_.pop_back();
    if (scope.kind == ScopeKind::Function) {
      FunctionDef& def = out_.functions[scope.function];
      def.body_close_line = line_no;
      def.body_close_col = col;
    }
  }

  // A ';' at namespace/class scope ends the pending declaration: the
  // place PFM_GUARDED_BY fields and annotated method declarations are
  // recorded.
  void finish_declaration(std::size_t line_no) {
    const std::string header = header_;
    const std::size_t header_line = header_line_ ? header_line_ : line_no;
    header_.clear();
    header_line_ = 0;
    if (header.empty()) return;

    const std::string cls = enclosing_class();

    // Guarded fields: `Type name_ PFM_GUARDED_BY(cap) [= init]`.
    if (!cls.empty()) {
      for (std::size_t pos = header.find("PFM_GUARDED_BY");
           pos != std::string::npos;
           pos = header.find("PFM_GUARDED_BY", pos + 1)) {
        if (!token_at(header, pos, "PFM_GUARDED_BY")) continue;
        const std::size_t name_end = skip_spaces_back(header, pos);
        const std::string field = ident_ending_at(header, name_end);
        const auto caps = parse_macro_args(
            header.substr(pos), "PFM_GUARDED_BY");
        if (!field.empty() && !caps.empty()) {
          out_.guarded[cls][field] = *caps.begin();
        }
      }
    }

    // Annotated declarations (annotations on the hpp prototype apply to
    // the out-of-line definition).
    const bool exempt =
        header.find("PFM_NO_THREAD_SAFETY_ANALYSIS") != std::string::npos ||
        header.find("PFM_ACQUIRE") != std::string::npos ||
        header.find("PFM_RELEASE") != std::string::npos;
    auto caps = parse_macro_args(header, "PFM_REQUIRES");
    const bool hot = file_->marked(header_line - 1, line_no, SourceFile::kHot);
    const bool cold =
        file_->marked(header_line - 1, line_no, SourceFile::kCold);
    if (!exempt && caps.empty() && !hot && !cold) return;

    const DepthScan d = scan_depths(header);
    std::string name;
    std::string qualifier;
    if (!parse_function_name(header, d, &name, &qualifier)) return;
    const std::string owner = !qualifier.empty() ? qualifier : cls;
    DeclAttrs& attrs = out_.decl_attrs[{owner, name}];
    attrs.hot = attrs.hot || hot;
    attrs.cold = attrs.cold || cold;
    attrs.lock_exempt = attrs.lock_exempt || exempt;
    attrs.required_caps.insert(caps.begin(), caps.end());
  }

  static std::string class_name_of(const std::string& header,
                                   const DepthScan& d) {
    // The identifier after the last top-level `class`/`struct` token,
    // skipping attributes and the base-clause.
    std::size_t kw = std::string::npos;
    for (const char* token : {"class", "struct", "union"}) {
      for (std::size_t pos = header.find(token); pos != std::string::npos;
           pos = header.find(token, pos + 1)) {
        if (!token_at(header, pos, token)) continue;
        if (d.paren[pos] != 0 || d.angle[pos] != 0) continue;
        if (kw == std::string::npos || pos > kw) {
          kw = pos + std::strlen(token);
        }
      }
    }
    if (kw == std::string::npos) return "";
    std::size_t i = kw;
    while (i < header.size() && (header[i] == ' ' || header[i] == '\t')) ++i;
    // Skip alignas(...)/[[...]] attribute-ish tokens conservatively.
    std::size_t end = i;
    while (end < header.size() && is_ident(header[end])) ++end;
    std::string name = header.substr(i, end - i);
    if (name == "alignas" || name == "final") return "";
    return name;
  }

  std::shared_ptr<const SourceFile> file_;
  std::vector<Scope> stack_;
  std::string header_;
  std::size_t header_line_ = 0;
  FileParse out_;
};

// ---------------------------------------------------------------------------
// Call extraction
// ---------------------------------------------------------------------------

// Collects receiver-less call sites in one body segment: identifier
// (optionally `A::B::`-qualified or `this->`-prefixed) followed by '('.
struct CallSite {
  std::string name;
  std::string qualifier;  // last component before ::, "" when none
  bool std_qualified = false;
};

void collect_calls(const std::string& seg, std::vector<CallSite>* out) {
  for (std::size_t i = 0; i < seg.size(); ++i) {
    if (!is_ident(seg[i])) continue;
    std::size_t end = i;
    while (end < seg.size() && is_ident(seg[end])) ++end;
    const std::string id = seg.substr(i, end - i);
    std::size_t after = end;
    while (after < seg.size() && seg[after] == ' ') ++after;
    const std::size_t next_i = end;  // resume after this identifier
    if (after < seg.size() && seg[after] == '(' &&
        !control_keywords().count(id)) {
      // Walk the qualifier chain backwards.
      std::size_t begin = i;
      std::string qualifier;
      bool std_qualified = false;
      bool receiver = false;
      std::size_t pos = skip_spaces_back(seg, begin);
      bool first_component = true;
      while (true) {
        if (pos >= 2 && seg.compare(pos - 2, 2, "::") == 0) {
          std::size_t qbegin = 0;
          const std::string q = ident_ending_at(seg, pos - 2, &qbegin);
          if (q.empty()) break;
          if (first_component) qualifier = q;
          first_component = false;
          if (q == "std") std_qualified = true;
          pos = skip_spaces_back(seg, qbegin);
          continue;
        }
        if (pos >= 2 && seg.compare(pos - 2, 2, "->") == 0) {
          const std::string recv = ident_ending_at(seg, pos - 2);
          receiver = recv != "this";
        } else if (pos >= 1 && seg[pos - 1] == '.') {
          receiver = true;
        }
        break;
      }
      if (!receiver && !std_qualified) {
        out->push_back({id, qualifier, std_qualified});
      }
    }
    i = next_i;
  }
}

}  // namespace

void for_each_body_line(
    const FunctionDef& def,
    const std::function<void(std::size_t, const std::string&)>& fn) {
  const auto& code = def.file->code;
  if (def.body_open_line == 0 || def.body_open_line > code.size()) return;
  const std::size_t last = std::min(def.body_close_line, code.size());
  for (std::size_t line = def.body_open_line; line <= last; ++line) {
    std::string seg = code[line - 1];
    if (line == def.body_close_line && def.body_close_col <= seg.size()) {
      seg.resize(def.body_close_col);
    }
    if (line == def.body_open_line) {
      const std::size_t from = std::min(def.body_open_col, seg.size());
      seg = std::string(from, ' ') + seg.substr(from);
    }
    fn(line, seg);
  }
}

ProjectModel build_model(std::vector<std::shared_ptr<const SourceFile>> files) {
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) {
              return a->rel_path < b->rel_path;
            });

  ProjectModel model;
  model.files = std::move(files);

  std::map<std::pair<std::string, std::string>, DeclAttrs> decl_attrs;
  std::set<std::string> known_classes;

  for (const auto& file : model.files) {
    FileParse parsed = Parser(file).parse();
    for (auto& fn : parsed.functions) {
      model.functions.push_back(std::move(fn));
    }
    for (auto& [cls, fields] : parsed.guarded) {
      known_classes.insert(cls);
      for (auto& [field, cap] : fields) model.guarded[cls][field] = cap;
    }
    for (auto& [key, attrs] : parsed.decl_attrs) {
      DeclAttrs& merged = decl_attrs[key];
      merged.hot = merged.hot || attrs.hot;
      merged.cold = merged.cold || attrs.cold;
      merged.lock_exempt = merged.lock_exempt || attrs.lock_exempt;
      merged.required_caps.insert(attrs.required_caps.begin(),
                                  attrs.required_caps.end());
    }

    // Wall-clock type aliases, for the taint rule.
    static const std::regex kAlias(
        R"(using\s+([A-Za-z_]\w*)\s*=\s*std::chrono::(steady_clock|high_resolution_clock))");
    for (const auto& line : file->code) {
      std::smatch m;
      std::string rest = line;
      while (std::regex_search(rest, m, kAlias)) {
        model.wall_aliases[file->rel_path].insert(m[1].str());
        rest = m.suffix().str();
      }
    }

    // Metric-instrument registrations: `<lhs> = &<registry expr>.counter(
    // ...)` (or ->gauge/->histogram), possibly spanning lines. The clock
    // defaults mirror obs/metrics.hpp: counters and gauges register
    // against sim time, histograms against wall time, and an explicit
    // Clock::kSim / Clock::kWall argument overrides either.
    static const std::regex kRegistration(
        R"(([A-Za-z_]\w*)\s*=\s*&?\s*[A-Za-z_][\w.()\->]*(?:\.|->)\s*(counter|gauge|histogram)\s*\()");
    for (std::size_t l = 0; l < file->code.size(); ++l) {
      std::smatch m;
      if (!std::regex_search(file->code[l], m, kRegistration)) continue;
      std::string window = file->code[l];
      for (std::size_t j = 1; j <= 4 && l + j < file->code.size(); ++j) {
        if (window.find(';') != std::string::npos) break;
        window += " " + file->code[l + j];
      }
      InstrumentClock info;
      info.line = l + 1;
      info.file = file->rel_path;
      const std::string kind = m[2].str();
      if (window.find("kSim") != std::string::npos) {
        info.sim = true;
      } else if (window.find("kWall") != std::string::npos) {
        info.sim = false;
      } else {
        info.sim = kind != "histogram";
      }
      // "sim wins" on duplicate names: if any registration of this name
      // is sim-clocked, treat sinks into it as sim-time exports.
      auto it = model.instruments.find(m[1].str());
      if (it == model.instruments.end() || info.sim) {
        model.instruments[m[1].str()] = info;
      }
    }
  }

  // Merge declaration attributes and index by name.
  for (std::size_t i = 0; i < model.functions.size(); ++i) {
    FunctionDef& fn = model.functions[i];
    const auto it = decl_attrs.find({fn.class_name, fn.name});
    if (it != decl_attrs.end()) {
      fn.hot = fn.hot || it->second.hot;
      fn.cold = fn.cold || it->second.cold;
      fn.lock_exempt = fn.lock_exempt || it->second.lock_exempt;
      fn.required_caps.insert(it->second.required_caps.begin(),
                              it->second.required_caps.end());
    }
    model.by_name[fn.name].push_back(i);
  }

  // Call edges.
  for (std::size_t i = 0; i < model.functions.size(); ++i) {
    FunctionDef& fn = model.functions[i];
    std::vector<CallSite> sites;
    for_each_body_line(fn, [&](std::size_t, const std::string& seg) {
      collect_calls(seg, &sites);
    });
    std::set<std::size_t> targets;
    for (const auto& site : sites) {
      const auto by = model.by_name.find(site.name);
      if (by == model.by_name.end()) continue;
      if (!site.qualifier.empty()) {
        // `Class::f(...)`: prefer definitions in that class; a
        // qualifier that names no known class is a namespace (or a
        // type alias) — fall back to every definition of the name.
        std::vector<std::size_t> in_class;
        for (std::size_t t : by->second) {
          if (model.functions[t].class_name == site.qualifier) {
            in_class.push_back(t);
          }
        }
        if (!in_class.empty()) {
          targets.insert(in_class.begin(), in_class.end());
          continue;
        }
      }
      // Unqualified (or namespace-qualified) calls cannot land on another
      // class's method without a receiver: candidates are free functions,
      // plus this class's own methods for the unqualified `f(...)` form.
      for (std::size_t t : by->second) {
        const FunctionDef& cand = model.functions[t];
        if (cand.class_name.empty() ||
            (site.qualifier.empty() && !fn.class_name.empty() &&
             cand.class_name == fn.class_name)) {
          targets.insert(t);
        }
      }
    }
    targets.erase(i);  // self-recursion adds nothing to a closure
    fn.calls.assign(targets.begin(), targets.end());
  }

  (void)known_classes;
  return model;
}

}  // namespace pfm::lint
