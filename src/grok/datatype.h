// Datatypes of paper Table I and the coverage lattice between them.
//
// Every token in a log and every field in a GROK pattern has a datatype.
// Signatures (Section III-B) are sequences of datatype names, and candidate
// pattern ordering sorts by datatype *generality*: a pattern made of specific
// datatypes is tried before one made of general datatypes so the most precise
// parse wins.
#pragma once

#include <string>
#include <string_view>

namespace loglens {

enum class Datatype {
  kWord,      // [a-zA-Z]+
  kNumber,    // -?[0-9]+(.[0-9]+)?
  kIp,        // dotted quad
  kNotSpace,  // \S+
  kDateTime,  // unified "yyyy/MM/dd HH:mm:ss.SSS" (assigned by the
              // timestamp recognizer; never by single-token classification)
  kAnyData,   // ".*" wildcard spanning zero or more tokens
};

inline constexpr int kDatatypeCount = 6;

// Upper-case name as it appears inside %{NAME:field} GROK expressions.
std::string_view datatype_name(Datatype t);

// Inverse of datatype_name; returns false if `name` is unknown.
bool datatype_from_name(std::string_view name, Datatype& out);

// The paper's isCovered(a, b): true when every string matched by `a`'s RegEx
// definition is also matched by `b`'s. The lattice is
//   WORD, NUMBER, IP  <  NOTSPACE  <  ANYDATA,   DATETIME < ANYDATA
// (DATETIME contains a space, so it is *not* under NOTSPACE).
bool is_covered(Datatype a, Datatype b);

// Generality rank used to order candidate-pattern-groups: lower is more
// specific. WORD/NUMBER/IP/DATETIME=1, NOTSPACE=2, ANYDATA=3.
int generality(Datatype t);

// Classifies a single token by the Table I RegEx rules, most specific type
// first. Never returns kDateTime or kAnyData (those are multi-token
// concepts); every non-empty whitespace-free token is at least NOTSPACE.
class DatatypeClassifier {
 public:
  Datatype classify(std::string_view token) const;

  // True iff `token` matches the RegEx definition of `type`.
  bool matches(std::string_view token, Datatype type) const;
};

}  // namespace loglens
