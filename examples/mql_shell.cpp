// An interactive MQL shell over one MAD database. Statements end with ';'
// and may span lines; meta-commands start with '\':
//
//   \schema          print the MAD diagram
//   \spec            print the formal database specification (Fig. 4 style)
//   \save <file>     write the database's binary checkpoint image
//   \load <file>     replace the database from a checkpoint image
//   \q               quit
//
// Usage:  ./build/examples/example_mql_shell            (interactive)
//         ./build/examples/example_mql_shell < script   (batch)

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "mql/session.h"
#include "storage/binary_codec.h"
#include "storage/recovery.h"
#include "text/printer.h"
#include "util/string_util.h"

namespace {

void PrintResult(const mad::Database& db, const mad::mql::QueryResult& result,
                 const std::string& source) {
  using Kind = mad::mql::QueryResult::Kind;
  // Analyzer warnings (and, for CHECK, the full report) come first, with
  // carets over the statement text.
  if (!result.diagnostics.empty()) {
    std::cout << mad::mql::RenderDiagnostics(result.diagnostics, source);
  }
  switch (result.kind) {
    case Kind::kMolecules: {
      // Molecules print at the view the SELECT read at.
      std::string text;
      mad::text::AppendMoleculeType(db, *result.molecules, 8, result.view,
                                    &text);
      std::cout << text;
      break;
    }
    case Kind::kRecursive: {
      std::cout << result.recursive.size() << " recursive molecule(s)\n";
      const mad::text::AtomReader reader(
          db, result.recursive_description.atom_type, result.view);
      std::string text;
      for (size_t i = 0; i < result.recursive.size(); ++i) {
        if (i == 8) {
          text += "...\n";
          break;
        }
        mad::text::AppendRecursiveMolecule(
            reader, result.recursive_description, result.recursive[i], &text);
      }
      std::cout << text;
      break;
    }
    case Kind::kCommand:
      std::cout << result.message << "\n";
      break;
  }
  if (result.derivation.has_value()) {
    std::cout << mad::text::FormatDerivationStats(*result.derivation) << "\n";
  }
  if (result.durability.has_value()) {
    std::cout << mad::text::FormatDurabilityStats(*result.durability) << "\n";
  }
  // EXPLAIN ANALYZE embeds the profile in its message; only SET TRACE ON
  // results carry a trace that still needs printing here.
  if (result.trace != nullptr && result.kind != Kind::kCommand) {
    std::cout << mad::text::FormatQueryTrace(*result.trace);
  }
}

bool HandleMetaCommand(const std::string& line,
                       std::unique_ptr<mad::Database>& db,
                       std::unique_ptr<mad::mql::Session>& session,
                       bool* quit) {
  if (line.empty() || line[0] != '\\') return false;
  std::vector<std::string> words;
  for (const std::string& w : mad::Split(line, ' ')) {
    if (!w.empty()) words.push_back(w);
  }
  // After OPEN the session runs against its durable database, not the
  // in-memory one the shell started with.
  mad::Database& current = session->database();
  const std::string& cmd = words[0];
  if (cmd == "\\q" || cmd == "\\quit") {
    *quit = true;
  } else if (cmd == "\\schema") {
    std::cout << mad::text::FormatMadDiagram(current);
  } else if (cmd == "\\spec") {
    std::cout << mad::text::FormatDatabaseSpec(current);
  } else if (cmd == "\\save" && words.size() == 2) {
    // Build the image before opening the file: a refused image must leave
    // the file as it was.
    auto image = mad::SerializeDatabaseBinary(current);
    if (!image.ok()) {
      std::cout << image.status() << "\n";
    } else if (!std::ofstream(words[1], std::ios::binary)
                    .write(image->data(),
                           static_cast<std::streamsize>(image->size()))
                    .flush()) {
      std::cout << "cannot write " << words[1] << "\n";
    } else {
      std::cout << "saved " << words[1] << "\n";
    }
  } else if (cmd == "\\load" && words.size() == 2) {
    auto image = mad::ReadFileToString(words[1]);
    if (!image.ok()) {
      std::cout << image.status() << "\n";
    } else {
      auto loaded = mad::DeserializeDatabaseBinary(*image);
      if (loaded.ok()) {
        db = std::move(loaded).value();
        session = std::make_unique<mad::mql::Session>(db.get());
        std::cout << "loaded " << words[1] << " (" << db->total_atom_count()
                  << " atoms, " << db->total_link_count() << " links)\n";
      } else {
        std::cout << loaded.status() << "\n";
      }
    }
  } else {
    std::cout << "unknown meta command: " << line << "\n";
  }
  return true;
}

}  // namespace

int main() {
  auto db = std::make_unique<mad::Database>("shell");
  auto session = std::make_unique<mad::mql::Session>(db.get());
  bool interactive = static_cast<bool>(isatty(0));

  if (interactive) {
    std::cout << "madlib MQL shell — statements end with ';', \\q quits\n";
  }

  std::string buffer;
  std::string line;
  bool quit = false;
  while (!quit) {
    if (interactive) std::cout << (buffer.empty() ? "mql> " : "...> ") << std::flush;
    if (!std::getline(std::cin, line)) break;

    std::string_view stripped = mad::StripWhitespace(line);
    if (buffer.empty() && !stripped.empty() && stripped[0] == '\\') {
      if (HandleMetaCommand(std::string(stripped), db, session, &quit)) {
        continue;
      }
    }
    buffer += line;
    buffer += '\n';
    // Execute once the buffer holds a ';' terminator.
    if (stripped.empty() || stripped.back() != ';') continue;

    std::string script = std::move(buffer);
    buffer.clear();
    auto results = session->ExecuteScript(script);
    if (!results.ok()) {
      std::cout << results.status() << "\n";
      continue;
    }
    for (const mad::mql::QueryResult& result : *results) {
      PrintResult(session->database(), result, script);
    }
  }
  return 0;
}
