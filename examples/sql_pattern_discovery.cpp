// Pattern discovery + human-in-the-loop editing on complex SQL application
// logs (the paper's Section VII-A case study and Section III-A4 editing
// operations).
//
// The app's logs are deep, GUID-ridden SQL statements (Table VI). Writing
// parsing rules by hand took the paper's users a week; discovery does it in
// seconds. Discovered patterns carry generic field ids (P7F2, ...), so this
// example also shows the domain-knowledge edits: renaming a field,
// specializing a field to a constant, and generalizing a constant into a
// field.
//
// Build & run:  ./build/examples/sql_pattern_discovery
#include <cstdio>

#include "datagen/datasets.h"
#include "grok/edit.h"
#include "service/model_ops.h"

int main() {
  using namespace loglens;

  Dataset sql = make_sql(/*scale=*/0.02);
  std::printf("custom application corpus: %zu logs\n", sql.training.size());
  std::printf("sample line:\n  %.160s...\n\n", sql.training.front().c_str());

  BuildOptions options;
  options.discovery = recommended_discovery("SQL");
  ModelBuilder builder(options);
  BuildResult result = builder.build(sql.training);
  std::printf("discovered %zu patterns in %.2f s (paper: 367 in 50 s; "
              "manual effort: ~1 week)\n",
              result.model.patterns.size(), result.discover_s);

  // --- Domain-knowledge editing -------------------------------------------
  GrokPattern& p = result.model.patterns.front();
  std::printf("\nbefore editing:\n  %.160s...\n", p.to_string().c_str());

  // Rename the first generic field to something meaningful.
  for (const auto& t : p.tokens()) {
    if (t.is_field && pattern_edit::is_generic_name(t.field.name)) {
      std::string old_name = t.field.name;
      if (pattern_edit::rename_field(p, old_name, "objectId").ok()) {
        std::printf("renamed %s -> objectId\n", old_name.c_str());
      }
      break;
    }
  }

  // Generalize a literal token (the SQL verb) into a WORD field, so the
  // same pattern also parses statements with other verbs.
  for (size_t i = 0; i < p.size(); ++i) {
    const GrokToken& t = p.tokens()[i];
    if (!t.is_field && (t.literal == "SELECT" || t.literal == "UPDATE" ||
                        t.literal == "DELETE" || t.literal == "COUNT")) {
      if (pattern_edit::generalize(p, i, Datatype::kWord, "verb").ok()) {
        std::printf("generalized literal '%s' -> %%{WORD:verb}\n",
                    t.literal.c_str());
      }
      break;
    }
  }

  std::printf("after editing:\n  %.160s...\n", p.to_string().c_str());

  // Edits round-trip through the model store like any other model version.
  Json blob = result.model.to_json();
  auto restored = CompositeModel::from_json(blob);
  std::printf("\nmodel serialization round-trip: %s (%zu KB as JSON)\n",
              restored.ok() ? "ok" : "FAILED", blob.dump().size() / 1024);
  return 0;
}
