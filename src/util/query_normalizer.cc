#include "util/query_normalizer.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace watchman {

namespace {

constexpr char kSep = '\x1f';

// Tokenizes lower-cased SQL-ish text. Parentheses become their own
// tokens so IN-lists can be re-bracketed; other delimiter runs separate
// tokens.
std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&]() {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (char raw : text) {
    const char c = AsciiToLower(raw);
    switch (c) {
      case ' ':
      case '\t':
      case '\n':
      case '\r':
      case ',':
      case ';':
        flush();
        break;
      case '(':
      case ')':
        flush();
        tokens.push_back(std::string(1, c));
        break;
      default:
        current.push_back(c);
    }
  }
  flush();
  return tokens;
}

// Keywords that terminate a WHERE clause at nesting depth 0.
bool EndsWhere(const std::string& token) {
  return token == "group" || token == "order" || token == "having" ||
         token == "limit" || token == "union" || token == "intersect" ||
         token == "except";
}

// Renders a token sequence with kSep separators. Unlike
// CompressQueryId, parentheses survive as tokens: the canonical form is
// its own namespace and only needs to be deterministic.
std::string Render(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) {
    if (!out.empty()) out.push_back(kSep);
    out += t;
  }
  return out;
}

// Sorts the members of "in ( a b c )" sequences inside `tokens`.
void SortInLists(std::vector<std::string>* tokens) {
  for (size_t i = 0; i + 1 < tokens->size(); ++i) {
    if ((*tokens)[i] != "in" || (*tokens)[i + 1] != "(") continue;
    size_t depth = 1;
    size_t j = i + 2;
    while (j < tokens->size() && depth > 0) {
      if ((*tokens)[j] == "(") ++depth;
      if ((*tokens)[j] == ")") --depth;
      ++j;
    }
    if (depth != 0) return;  // unbalanced: leave untouched
    // Members are the tokens in (i+2, j-1); only sort flat lists.
    bool flat = true;
    for (size_t m = i + 2; m + 1 < j; ++m) {
      if ((*tokens)[m] == "(" || (*tokens)[m] == ")") flat = false;
    }
    if (flat) {
      std::sort(tokens->begin() + static_cast<ptrdiff_t>(i + 2),
                tokens->begin() + static_cast<ptrdiff_t>(j - 1));
    }
    i = j - 1;
  }
}

// Splits the token range [begin, end) into top-level AND conjuncts
// (depth-0 "and" tokens), sorts the conjuncts by their rendered form
// and re-emits them joined with "and".
std::vector<std::string> SortConjuncts(
    const std::vector<std::string>& tokens, size_t begin, size_t end) {
  std::vector<std::vector<std::string>> conjuncts(1);
  size_t depth = 0;
  for (size_t i = begin; i < end; ++i) {
    const std::string& t = tokens[i];
    if (t == "(") ++depth;
    if (t == ")" && depth > 0) --depth;
    if (depth == 0 && t == "and") {
      conjuncts.emplace_back();
      continue;
    }
    conjuncts.back().push_back(t);
  }
  // A top-level OR makes reordering unsound unless it is confined to a
  // single conjunct (parenthesized); conjuncts containing a depth-0
  // "or" keep their position by sorting on their original index.
  std::vector<std::pair<std::string, size_t>> keyed;
  keyed.reserve(conjuncts.size());
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    keyed.emplace_back(Render(conjuncts[i]), i);
  }
  bool any_toplevel_or = false;
  for (const auto& c : conjuncts) {
    size_t d = 0;
    for (const std::string& t : c) {
      if (t == "(") ++d;
      if (t == ")" && d > 0) --d;
      if (d == 0 && t == "or") any_toplevel_or = true;
    }
  }
  if (!any_toplevel_or) {
    std::sort(keyed.begin(), keyed.end());
  }
  std::vector<std::string> out;
  for (size_t i = 0; i < keyed.size(); ++i) {
    if (i > 0) out.push_back("and");
    const auto& c = conjuncts[keyed[i].second];
    out.insert(out.end(), c.begin(), c.end());
  }
  return out;
}

}  // namespace

std::string NormalizeQuery(std::string_view query_text) {
  std::vector<std::string> tokens = Tokenize(query_text);
  SortInLists(&tokens);

  std::vector<std::string> out;
  out.reserve(tokens.size());
  size_t i = 0;
  while (i < tokens.size()) {
    if (tokens[i] != "where") {
      out.push_back(tokens[i]);
      ++i;
      continue;
    }
    // Find the end of this WHERE clause at depth 0.
    out.push_back(tokens[i]);
    ++i;
    size_t depth = 0;
    size_t end = i;
    while (end < tokens.size()) {
      const std::string& t = tokens[end];
      if (t == "(") ++depth;
      if (t == ")" && depth > 0) --depth;
      if (depth == 0 && EndsWhere(t)) break;
      ++end;
    }
    const std::vector<std::string> sorted = SortConjuncts(tokens, i, end);
    out.insert(out.end(), sorted.begin(), sorted.end());
    i = end;
  }
  return Render(out);
}

}  // namespace watchman
