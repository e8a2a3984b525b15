#include "baseline/logstash_parser.h"

#include <cstdio>

#include "common/strings.h"

namespace loglens {

namespace {

// Escapes a literal token for inclusion in a regex.
void append_escaped(std::string& out, std::string_view literal) {
  for (char c : literal) {
    switch (c) {
      case '\\': case '.': case '[': case ']': case '(': case ')':
      case '{': case '}': case '*': case '+': case '?': case '|':
      case '^': case '$':
        out.push_back('\\');
        [[fallthrough]];
      default:
        out.push_back(c);
    }
  }
}

std::string_view datatype_regex(Datatype t) {
  switch (t) {
    case Datatype::kWord: return "[a-zA-Z]+";
    case Datatype::kNumber: return "-?[0-9]+(?:\\.[0-9]+)?";
    case Datatype::kIp:
      return "[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}";
    case Datatype::kNotSpace: return "\\S+";
    case Datatype::kDateTime:
      return "[0-9]{4}/[0-9]{2}/[0-9]{2} "
             "[0-9]{2}:[0-9]{2}:[0-9]{2}\\.[0-9]{3}";
    case Datatype::kAnyData: return ".*";
  }
  return "\\S+";
}

}  // namespace

std::string LogstashParser::pattern_to_regex(const GrokPattern& pattern) {
  std::string out;
  bool first = true;
  bool prev_wild = false;
  for (const auto& t : pattern.tokens()) {
    const bool wild = t.is_field && t.field.type == Datatype::kAnyData;
    // ANYDATA may span zero tokens, so it absorbs its surrounding spaces
    // (\s*(.*?)\s*) instead of being joined with a mandatory ' '.
    if (!first && !wild && !prev_wild) out.push_back(' ');
    first = false;
    prev_wild = wild;
    if (wild) {
      out.append("\\s*(.*?)\\s*");
    } else if (t.is_field) {
      out.push_back('(');
      out.append(datatype_regex(t.field.type));
      out.push_back(')');
    } else {
      append_escaped(out, t.literal);
    }
  }
  return out;
}

LogstashParser::LogstashParser(const std::vector<GrokPattern>& model) {
  compiled_.reserve(model.size());
  for (const auto& p : model) {
    Compiled c;
    c.pattern_id = p.id();
    std::string source = pattern_to_regex(p);
    auto re = Regex::compile(source);
    if (!re.ok()) {
      // A drop silently shrinks the baseline and skews Table IV; make it
      // loud and countable instead of invisible.
      std::fprintf(stderr,
                   "loglens: logstash baseline dropped pattern %d "
                   "(regex %s): %s\n",
                   p.id(), source.c_str(), re.status().message().c_str());
      ++stats_.patterns_dropped;
      continue;
    }
    c.regex = std::move(re.value());
    for (const auto& t : p.tokens()) {
      if (t.is_field) c.field_names.push_back(t.field.name);
    }
    compiled_.push_back(std::move(c));
  }
}

ParseOutcome LogstashParser::parse(const TokenizedLog& log) {
  ++stats_.logs;
  // Rejoin the normalized tokens; both engines see the same text.
  std::vector<std::string_view> views;
  views.reserve(log.tokens.size());
  for (const Token& t : log.tokens) views.push_back(log.text_of(t));
  std::string line = join(views, " ");

  for (auto& c : compiled_) {
    ++stats_.regex_attempts;
    RegexMatch m;
    if (!c.regex.full_match(line, m)) continue;
    ParsedLog parsed;
    parsed.pattern_id = c.pattern_id;
    parsed.timestamp_ms = log.timestamp_ms;
    parsed.raw = log.raw();
    for (size_t g = 0; g < c.field_names.size() && g < m.groups.size(); ++g) {
      parsed.fields.emplace_back(c.field_names[g],
                                 Json(m.group_text(line, g)));
    }
    return ParseOutcome{std::move(parsed)};
  }
  ++stats_.unparsed;
  return {};
}

size_t LogstashParser::resident_bytes() const {
  size_t total = sizeof(*this);
  for (const auto& c : compiled_) {
    total += sizeof(c) + c.regex.compiled_bytes();
    for (const auto& f : c.field_names) total += f.capacity();
  }
  return total;
}

}  // namespace loglens
