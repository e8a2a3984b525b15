#include "grok/datatype.h"

namespace loglens {

std::string_view datatype_name(Datatype t) {
  switch (t) {
    case Datatype::kWord: return "WORD";
    case Datatype::kNumber: return "NUMBER";
    case Datatype::kIp: return "IP";
    case Datatype::kNotSpace: return "NOTSPACE";
    case Datatype::kDateTime: return "DATETIME";
    case Datatype::kAnyData: return "ANYDATA";
  }
  return "NOTSPACE";
}

bool datatype_from_name(std::string_view name, Datatype& out) {
  if (name == "WORD") out = Datatype::kWord;
  else if (name == "NUMBER") out = Datatype::kNumber;
  else if (name == "IP") out = Datatype::kIp;
  else if (name == "NOTSPACE") out = Datatype::kNotSpace;
  else if (name == "DATETIME") out = Datatype::kDateTime;
  else if (name == "ANYDATA") out = Datatype::kAnyData;
  else return false;
  return true;
}

bool is_covered(Datatype a, Datatype b) {
  if (a == b) return true;
  if (b == Datatype::kAnyData) return true;
  if (b == Datatype::kNotSpace) {
    return a == Datatype::kWord || a == Datatype::kNumber ||
           a == Datatype::kIp;
  }
  return false;
}

int generality(Datatype t) {
  switch (t) {
    case Datatype::kWord:
    case Datatype::kNumber:
    case Datatype::kIp:
    case Datatype::kDateTime:
      return 1;
    case Datatype::kNotSpace:
      return 2;
    case Datatype::kAnyData:
      return 3;
  }
  return 3;
}

namespace {

// Hand-rolled scanners for the three Table I token regexes. classify() runs
// once per token of every log line — the single hottest call in the
// pipeline — and each of these patterns is regular enough that a direct
// scan beats the regex VM by an order of magnitude while matching the exact
// same language. The Table I regexes are the executable spec:
// tests/datatype_test.cpp checks the scanners against regexlite on seeded
// random tokens.

inline bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
inline bool is_digit(char c) { return c >= '0' && c <= '9'; }

// [a-zA-Z]+
bool scan_word(std::string_view t) {
  if (t.empty()) return false;
  for (char c : t) {
    if (!is_alpha(c)) return false;
  }
  return true;
}

// -?[0-9]+(\.[0-9]+)?
bool scan_number(std::string_view t) {
  size_t i = 0;
  if (i < t.size() && t[i] == '-') ++i;
  const size_t int_start = i;
  while (i < t.size() && is_digit(t[i])) ++i;
  if (i == int_start) return false;
  if (i == t.size()) return true;
  if (t[i] != '.') return false;
  const size_t frac_start = ++i;
  while (i < t.size() && is_digit(t[i])) ++i;
  return i > frac_start && i == t.size();
}

// [0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}
bool scan_ip(std::string_view t) {
  size_t i = 0;
  for (int group = 0; group < 4; ++group) {
    const size_t start = i;
    while (i < t.size() && i - start < 3 && is_digit(t[i])) ++i;
    if (i == start) return false;
    if (group < 3) {
      if (i >= t.size() || t[i] != '.') return false;
      ++i;
    }
  }
  return i == t.size();
}

}  // namespace

Datatype DatatypeClassifier::classify(std::string_view token) const {
  // First-byte dispatch: a token can only be WORD if it starts with a
  // letter, and only NUMBER/IP if it starts with a digit or '-'.
  if (token.empty()) return Datatype::kNotSpace;
  const char c0 = token.front();
  if (is_alpha(c0)) {
    return scan_word(token) ? Datatype::kWord : Datatype::kNotSpace;
  }
  if (is_digit(c0) || c0 == '-') {
    if (scan_number(token)) return Datatype::kNumber;
    if (scan_ip(token)) return Datatype::kIp;
  }
  return Datatype::kNotSpace;
}

bool DatatypeClassifier::matches(std::string_view token, Datatype type) const {
  switch (type) {
    case Datatype::kWord: return scan_word(token);
    case Datatype::kNumber: return scan_number(token);
    case Datatype::kIp: return scan_ip(token);
    case Datatype::kNotSpace:
      return !token.empty() &&
             token.find_first_of(" \t\r\n") == std::string_view::npos;
    case Datatype::kDateTime:
      // Canonical form only; recognition of raw formats happens in the
      // timestamp module before classification.
      return token.size() == 23 && token[4] == '/' && token[7] == '/';
    case Datatype::kAnyData:
      return true;
  }
  return false;
}

}  // namespace loglens
