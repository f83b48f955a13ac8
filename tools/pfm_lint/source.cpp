#include "std_regex.hpp"  // first: see the header
#include "source.hpp"

#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace pfm::lint {

namespace {

// Parses "pfm-lint: allow(rule, rule)" / "pfm-lint: allow-file(rule)"
// out of one comment's text.
void parse_directive(const std::string& comment,
                     std::set<std::string>* line_rules,
                     std::set<std::string>* file_rules) {
  static const std::regex kDirective(
      R"(pfm-lint:\s*(allow|allow-file)\s*\(([^)]*)\))");
  auto begin = std::sregex_iterator(comment.begin(), comment.end(), kDirective);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::set<std::string>* target =
        (*it)[1].str() == "allow" ? line_rules : file_rules;
    std::stringstream names((*it)[2].str());
    std::string name;
    while (std::getline(names, name, ',')) {
      const auto first = name.find_first_not_of(" \t");
      if (first == std::string::npos) continue;
      const auto last = name.find_last_not_of(" \t");
      target->insert(name.substr(first, last - first + 1));
    }
  }
}

// Whole-word search in comment text ('-' is part of the marker words,
// so is_ident boundaries on both sides are what we want).
bool comment_word(const std::string& comment, const char* word) {
  const std::size_t n = std::strlen(word);
  for (std::size_t pos = comment.find(word); pos != std::string::npos;
       pos = comment.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || (!is_ident(comment[pos - 1]) &&
                                      comment[pos - 1] != '-');
    const std::size_t end = pos + n;
    const bool right_ok = end >= comment.size() ||
                          (!is_ident(comment[end]) && comment[end] != '-');
    if (left_ok && right_ok) return true;
  }
  return false;
}

// True when the tail of `code_line` permits `R"` at the next position to
// open a raw string: either the previous character is a non-identifier,
// or the identifier tail is exactly one of the encoding prefixes
// (u8R, uR, UR, LR — the 'R' has not been appended yet).
bool raw_string_prefix_ok(const std::string& code_line) {
  const std::size_t n = code_line.size();
  if (n == 0 || !is_ident(code_line[n - 1])) return true;
  for (const char* prefix : {"u8", "u", "U", "L"}) {
    const std::size_t len = std::strlen(prefix);
    if (n >= len && code_line.compare(n - len, len, prefix) == 0 &&
        (n == len || !is_ident(code_line[n - len - 1]))) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool token_at(const std::string& code, std::size_t pos,
              const std::string& token) {
  if (code.compare(pos, token.size(), token) != 0) return false;
  if (pos > 0 && is_ident(code[pos - 1])) return false;
  const std::size_t end = pos + token.size();
  return end >= code.size() || !is_ident(code[end]);
}

std::string first_template_arg(const std::string& code, std::size_t open) {
  int depth = 0;
  std::size_t start = open + 1;
  for (std::size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      --depth;
      if (depth == 0) {
        std::string arg = code.substr(start, i - start);
        const auto first = arg.find_first_not_of(" \t");
        if (first == std::string::npos) return "";
        const auto last = arg.find_last_not_of(" \t");
        return arg.substr(first, last - first + 1);
      }
    } else if (c == ',' && depth == 1) {
      std::string arg = code.substr(start, i - start);
      const auto first = arg.find_first_not_of(" \t");
      if (first == std::string::npos) return "";
      const auto last = arg.find_last_not_of(" \t");
      return arg.substr(first, last - first + 1);
    }
  }
  return "";
}

std::size_t past_angle_list(const std::string& code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '<') ++depth;
    if (code[i] == '>' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

void emit(std::vector<Finding>* findings, const SourceFile& file,
          std::size_t line, const std::string& rule, const std::string& check,
          std::string message) {
  if (file.suppressed(line, rule)) return;
  findings->push_back({rule, check, file.rel_path, line, std::move(message)});
}

// Lexes the raw text: comments and string/char literals become spaces in
// the code view; comment text is scanned for suppression directives and
// hot-path markers. Handles //, /* */, "...", '...', raw strings with
// encoding prefixes ((u8|u|U|L)?R"delim(...)delim"), and backslash line
// splices inside line comments (translation phase 2: the comment
// continues onto the next physical line). A directive or marker on a
// line whose code view is blank also covers the following line.
SourceFile load_source(const std::filesystem::path& path,
                       std::string rel_path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("pfm-analyze: cannot read " + rel_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  SourceFile out;
  out.rel_path = std::move(rel_path);

  enum class State { Code, LineComment, BlockComment, String, Char, RawString };
  State state = State::Code;
  std::string code_line;
  std::string comment_line;  // comment text seen on the current line
  std::string raw_delim;     // for R"delim( ... )delim"
  bool comment_spliced = false;  // line comment ended in backslash-newline

  std::string raw_line;
  auto flush_line = [&] {
    std::set<std::string> line_rules;
    parse_directive(comment_line, &line_rules, &out.allow_file);
    unsigned char mark = 0;
    if (comment_word(comment_line, "pfm-hot")) mark |= SourceFile::kHot;
    if (comment_word(comment_line, "pfm-cold")) mark |= SourceFile::kCold;
    out.code.push_back(code_line);
    out.raw.push_back(raw_line);
    out.allow.push_back(std::move(line_rules));
    out.marks.push_back(mark);
    code_line.clear();
    raw_line.clear();
    comment_line.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::LineComment && !comment_spliced) state = State::Code;
      comment_spliced = false;
      flush_line();
      continue;
    }
    raw_line += c;
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::LineComment;
          comment_spliced = false;
          code_line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::BlockComment;
          code_line += "  ";
          ++i;
        } else if (c == 'R' && next == '"' && raw_string_prefix_ok(code_line)) {
          // Raw string literal: find the delimiter up to the '('. The
          // opener cannot contain a newline — if it would, the literal
          // is malformed and we fall back to plain code so line
          // bookkeeping stays intact.
          const std::size_t paren = text.find('(', i + 2);
          const std::size_t newline = text.find('\n', i);
          if (paren == std::string::npos || newline < paren) {
            code_line += c;
          } else {
            raw_delim = ")" + text.substr(i + 2, paren - (i + 2)) + "\"";
            state = State::RawString;
            code_line += std::string(paren - i + 1, ' ');
            i = paren;  // consumed through '('
          }
        } else if (c == '"') {
          state = State::String;
          code_line += ' ';
        } else if (c == '\'') {
          state = State::Char;
          code_line += ' ';
        } else {
          code_line += c;
        }
        break;
      case State::LineComment:
        comment_line += c;
        code_line += ' ';
        // Backslash-newline splices the next physical line into this
        // comment; without this the spliced text would lex as code.
        if (c == '\\') {
          std::size_t peek = i + 1;
          while (peek < text.size() &&
                 (text[peek] == ' ' || text[peek] == '\t' ||
                  text[peek] == '\r')) {
            ++peek;
          }
          if (peek >= text.size() || text[peek] == '\n') {
            comment_spliced = true;
          }
        }
        break;
      case State::BlockComment:
        comment_line += c;
        code_line += ' ';
        if (c == '*' && next == '/') {
          state = State::Code;
          code_line += ' ';
          comment_line.pop_back();
          ++i;
        }
        break;
      case State::String:
        code_line += ' ';
        if (c == '\\' && next != '\0' && next != '\n') {
          code_line += ' ';
          ++i;
        } else if (c == '"') {
          state = State::Code;
        }
        break;
      case State::Char:
        code_line += ' ';
        if (c == '\\' && next != '\0') {
          code_line += ' ';
          ++i;
        } else if (c == '\'') {
          state = State::Code;
        }
        break;
      case State::RawString:
        code_line += ' ';
        if (c == ')' && text.compare(i, raw_delim.size(), raw_delim) == 0) {
          code_line += std::string(raw_delim.size() - 1, ' ');
          i += raw_delim.size() - 1;
          state = State::Code;
        }
        break;
    }
  }
  flush_line();  // last line (also handles files without trailing \n)

  // A directive or marker on an otherwise-blank line covers the next
  // line too.
  for (std::size_t l = 0; l + 1 < out.allow.size(); ++l) {
    const bool blank =
        out.code[l].find_first_not_of(" \t\r") == std::string::npos;
    if (!blank) continue;
    if (!out.allow[l].empty()) {
      out.allow[l + 1].insert(out.allow[l].begin(), out.allow[l].end());
    }
    out.marks[l + 1] = static_cast<unsigned char>(out.marks[l + 1] |
                                                  out.marks[l]);
  }
  return out;
}

std::shared_ptr<const SourceFile> load_source_cached(
    const std::filesystem::path& path, std::string rel_path) {
  struct Entry {
    std::filesystem::file_time_type mtime;
    std::uintmax_t size = 0;
    std::string rel_path;
    std::shared_ptr<const SourceFile> file;
  };
  static std::mutex cache_mu;
  static std::map<std::string, Entry> cache;

  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  const auto size = std::filesystem::file_size(path, ec);

  const std::string key = path.lexically_normal().string();
  if (!ec) {
    std::lock_guard<std::mutex> lock(cache_mu);
    const auto it = cache.find(key);
    if (it != cache.end() && it->second.mtime == mtime &&
        it->second.size == size && it->second.rel_path == rel_path) {
      return it->second.file;
    }
  }

  auto loaded = std::make_shared<const SourceFile>(
      load_source(path, rel_path));
  if (!ec) {
    std::lock_guard<std::mutex> lock(cache_mu);
    cache[key] = Entry{mtime, size, std::move(rel_path), loaded};
  }
  return loaded;
}

}  // namespace pfm::lint
