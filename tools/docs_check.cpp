// docs_check: keep the documentation honest.
//
// Scans README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md for
//   (a) intra-repo markdown links `[text](target)` — every non-external
//       target must exist on disk, resolved relative to the linking file
//       (anchors are stripped; http(s)/mailto/pure-anchor links are
//       skipped),
//   (b) references to executable artifacts — every `bench/<name>`,
//       `examples/<name>`, or `tools/<name>` mentioned in prose or code
//       blocks must exist as a binary in the build tree, so the manual
//       can never name a driver that was renamed or dropped,
//   (c) coverage of the tuning surface — every field of coll::Options
//       (src/core/types.hpp) and every `--flag` the tpio_sim / tpio_sweep
//       CLIs accept must be mentioned in at least one document, so a knob
//       can never be grown without a sentence saying what it does,
//   (c') the reverse — every `Options::<field>` a document names must be a
//       field of coll::Options, and every `--flag` on a tpio_sim /
//       tpio_sweep command line in a document must be accepted by one of
//       the CLIs, so a deleted knob cannot live on in the docs, and
//   (d) experiment coverage — every `bench/fig_*` driver registered in
//       bench/CMakeLists.txt must have a section in EXPERIMENTS.md, and
//   (e) source paths — every inline code span naming a `src/...` or
//       `tests/...` path must match something on disk, relative to the
//       repository root, after expanding `{a,b}` alternatives and `*`
//       wildcards (a `:line` suffix is ignored), so a deleted or renamed
//       source file cannot live on in the docs.
//
// Usage: docs_check <repo-root> <build-dir>
// Exit code 0 = clean; 1 = at least one broken reference (each printed).

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool is_external(const std::string& target) {
  return target.rfind("http://", 0) == 0 || target.rfind("https://", 0) == 0 ||
         target.rfind("mailto:", 0) == 0 || target.rfind("chrome://", 0) == 0 ||
         (!target.empty() && target[0] == '#');
}

// Markdown links: [text](target). Images and reference-style links are not
// used in this repository's docs; nested parentheses in targets are not
// either, so a non-greedy scan to the first ')' is exact.
std::vector<std::string> markdown_link_targets(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] != ']' || text[i + 1] != '(') continue;
    std::size_t close = text.find(')', i + 2);
    if (close == std::string::npos) continue;
    out.push_back(text.substr(i + 2, close - (i + 2)));
  }
  return out;
}

bool name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Occurrences of `<kind>/<name>` where <name> is a plain identifier —
// matches both prose ("run `bench/table1_overlap_wins`") and shell lines
// ("build/bench/fig_hier_shuffle"). Paths with a file extension (.cpp,
// .md, ...) are source/doc references, not binaries, and are skipped.
std::set<std::string> binary_refs(const std::string& text,
                                  const std::string& kind) {
  std::set<std::string> out;
  const std::string needle = kind + "/";
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    // Require a non-name character before `kind` so e.g. "microbench/x"
    // does not register as a bench reference ("build/bench/x" still does).
    if (pos > 0 && (name_char(text[pos - 1]) || text[pos - 1] == '.'))
      continue;
    std::size_t start = pos + needle.size();
    std::size_t end = start;
    while (end < text.size() && name_char(text[end])) ++end;
    if (end == start) continue;
    if (end < text.size() && text[end] == '.') continue;  // source file
    if (end < text.size() && text[end] == '/') continue;  // deeper path
    if (end < text.size() && text[end] == '*') continue;  // glob ("bench/micro_*")
    out.insert(text.substr(start, end - start));
  }
  return out;
}

// Member names of `struct <name> { ... };` in `text`: for every top-level
// `;`-terminated declaration, the identifier before the first `=` (or the
// `;` when there is no initializer). Method declarations do not occur in
// the structs this is pointed at (plain aggregates of knobs).
std::vector<std::string> struct_fields(const std::string& text,
                                       const std::string& name) {
  std::vector<std::string> out;
  std::size_t pos = text.find("struct " + name + " {");
  if (pos == std::string::npos) return out;
  pos = text.find('{', pos);
  int depth = 0;
  std::string stmt;
  for (std::size_t i = pos; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '{') {
      ++depth;
      continue;
    }
    if (c == '}') {
      if (--depth == 0) break;
      continue;
    }
    if (depth != 1) continue;
    // Strip // comments to end of line.
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      i = text.find('\n', i);
      if (i == std::string::npos) break;
      continue;
    }
    if (c == ';') {
      const std::size_t eq = stmt.find('=');
      std::string head = eq == std::string::npos ? stmt : stmt.substr(0, eq);
      std::size_t end = head.size();
      while (end > 0 && !name_char(head[end - 1])) --end;
      std::size_t start = end;
      while (start > 0 && name_char(head[start - 1])) --start;
      if (end > start) out.push_back(head.substr(start, end - start));
      stmt.clear();
    } else {
      stmt += c;
    }
  }
  return out;
}

// Every `--flag` spelled inside a string literal of `text` (CLI parse
// branches and usage strings alike).
std::set<std::string> cli_flags(const std::string& text) {
  std::set<std::string> out;
  for (std::size_t pos = text.find("--"); pos != std::string::npos;
       pos = text.find("--", pos + 2)) {
    if (pos == 0 || (text[pos - 1] != '"' && text[pos - 1] != ' ')) continue;
    std::size_t end = pos + 2;
    while (end < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[end])) ||
            text[end] == '-')) {
      ++end;
    }
    if (end > pos + 2) out.insert(text.substr(pos, end - pos));
  }
  return out;
}

// Identifiers written as `Options::<name>` (also `coll::Options::<name>`,
// but not `ExecOptions::<name>` and other structs ending in "Options").
std::set<std::string> options_refs(const std::string& text) {
  std::set<std::string> out;
  const std::string needle = "Options::";
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    if (pos > 0 && name_char(text[pos - 1])) continue;
    std::size_t start = pos + needle.size();
    std::size_t end = start;
    while (end < text.size() && name_char(text[end])) ++end;
    if (end > start) out.insert(text.substr(start, end - start));
  }
  return out;
}

// `--flag` tokens on tpio_sim / tpio_sweep command lines: from the tool
// name to the end of the command — the end of the line (a trailing
// backslash continues it), a pipe, `;`, `&`, a redirection or a closing
// backtick.
std::set<std::string> command_line_flags(const std::string& text) {
  std::set<std::string> out;
  for (const std::string tool : {"tpio_sim", "tpio_sweep"}) {
    for (std::size_t pos = text.find(tool); pos != std::string::npos;
         pos = text.find(tool, pos + 1)) {
      std::size_t i = pos + tool.size();
      if (i < text.size() && (name_char(text[i]) || text[i] == '.')) continue;
      for (; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '\\' && i + 1 < text.size() && text[i + 1] == '\n') {
          ++i;
          continue;
        }
        if (c == '\n' || c == '|' || c == ';' || c == '&' || c == '>' ||
            c == '<' || c == '`') {
          break;
        }
        if (c != '-' || text[i - 1] != ' ' || i + 1 >= text.size() ||
            text[i + 1] != '-') {
          continue;
        }
        std::size_t end = i + 2;
        while (end < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[end])) ||
                text[end] == '-')) {
          ++end;
        }
        if (end > i + 2) out.insert(text.substr(i, end - i));
        i = end - 1;
      }
    }
  }
  return out;
}

// Inline code spans starting with `src/` or `tests/`, cut at the first
// blank or `:` (line suffixes). Fenced code blocks are skipped; spans may
// wrap across lines like in rendered markdown.
std::vector<std::string> source_path_refs(const std::string& text) {
  std::string prose;
  bool fenced = false;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const std::size_t first = line.find_first_not_of(' ');
    if (first != std::string::npos && line.compare(first, 3, "```") == 0) {
      fenced = !fenced;
    } else if (!fenced) {
      prose += line + "\n";
    }
  }
  std::vector<std::string> out;
  for (std::size_t open = prose.find('`'); open != std::string::npos;) {
    const std::size_t close = prose.find('`', open + 1);
    if (close == std::string::npos) break;
    std::string span = prose.substr(open + 1, close - open - 1);
    span = span.substr(0, span.find_first_of(" \n:"));
    if (span.rfind("src/", 0) == 0 || span.rfind("tests/", 0) == 0) {
      out.push_back(span);
    }
    open = prose.find('`', close + 1);
  }
  return out;
}

// `a{b,c}d{e,f}` -> abde, abdf, acde, acdf.
std::vector<std::string> expand_braces(const std::string& p) {
  const std::size_t open = p.find('{');
  const std::size_t close = p.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return {p};
  std::vector<std::string> out;
  const std::string body = p.substr(open + 1, close - open - 1);
  const std::vector<std::string> rests = expand_braces(p.substr(close + 1));
  for (std::size_t b = 0, e = 0; e != std::string::npos; b = e + 1) {
    e = body.find(',', b);
    const std::string alt = body.substr(b, e == std::string::npos ? e : e - b);
    for (const std::string& rest : rests) {
      out.push_back(p.substr(0, open) + alt + rest);
    }
  }
  return out;
}

// `*` matches any run of characters within one path component.
bool glob_match(const char* pat, const char* s) {
  if (*pat == '\0') return *s == '\0';
  if (*pat == '*') {
    return glob_match(pat + 1, s) || (*s != '\0' && glob_match(pat, s + 1));
  }
  return *s == *pat && glob_match(pat + 1, s + 1);
}

// Whether `pattern` (relative to `root`, `*` wildcards allowed in any
// component) matches at least one existing path.
bool pattern_exists(const fs::path& root, const std::string& pattern) {
  std::vector<fs::path> cur = {root};
  for (const fs::path& part : fs::path(pattern)) {
    const std::string c = part.string();
    std::vector<fs::path> next;
    for (const fs::path& dir : cur) {
      if (c.find('*') == std::string::npos) {
        if (fs::exists(dir / c)) next.push_back(dir / c);
      } else if (fs::is_directory(dir)) {
        for (const auto& e : fs::directory_iterator(dir)) {
          if (glob_match(c.c_str(), e.path().filename().string().c_str())) {
            next.push_back(e.path());
          }
        }
      }
    }
    cur = std::move(next);
  }
  return !cur.empty();
}

// Names registered via `tpio_add_bench(<name> ...)`.
std::vector<std::string> bench_targets(const std::string& cmake_text) {
  std::vector<std::string> out;
  const std::string needle = "tpio_add_bench(";
  for (std::size_t pos = cmake_text.find(needle); pos != std::string::npos;
       pos = cmake_text.find(needle, pos + 1)) {
    std::size_t start = pos + needle.size();
    std::size_t end = start;
    while (end < cmake_text.size() && name_char(cmake_text[end])) ++end;
    if (end > start) out.push_back(cmake_text.substr(start, end - start));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: docs_check <repo-root> <build-dir>\n";
    return 2;
  }
  const fs::path repo = argv[1];
  const fs::path build = argv[2];

  std::vector<fs::path> docs;
  for (const char* root_doc : {"README.md", "DESIGN.md", "EXPERIMENTS.md"})
    if (fs::exists(repo / root_doc)) docs.push_back(repo / root_doc);
  if (fs::is_directory(repo / "docs"))
    for (const auto& e : fs::directory_iterator(repo / "docs"))
      if (e.path().extension() == ".md") docs.push_back(e.path());
  std::sort(docs.begin(), docs.end());

  int broken = 0;
  int links = 0, bins = 0;
  for (const fs::path& doc : docs) {
    const std::string text = slurp(doc);
    const fs::path base = doc.parent_path();

    for (const std::string& raw : markdown_link_targets(text)) {
      if (is_external(raw)) continue;
      std::string target = raw.substr(0, raw.find('#'));  // strip anchor
      if (target.empty()) continue;
      ++links;
      if (!fs::exists(base / target)) {
        std::cerr << doc.lexically_relative(repo).string()
                  << ": broken link -> " << raw << "\n";
        ++broken;
      }
    }

    for (const char* kind : {"bench", "examples", "tools"}) {
      for (const std::string& name : binary_refs(text, kind)) {
        ++bins;
        if (!fs::exists(build / kind / name)) {
          std::cerr << doc.lexically_relative(repo).string() << ": " << kind
                    << " binary not in build tree -> " << kind << "/" << name
                    << "\n";
          ++broken;
        }
      }
    }
  }

  // (c) Tuning-surface coverage: concatenate the whole doc corpus once;
  // every Options knob and CLI flag must occur somewhere in it.
  std::string corpus;
  for (const fs::path& doc : docs) corpus += slurp(doc);

  int knobs = 0;
  const std::vector<std::string> fields =
      struct_fields(slurp(repo / "src/core/types.hpp"), "Options");
  for (const std::string& field : fields) {
    ++knobs;
    if (corpus.find(field) == std::string::npos) {
      std::cerr << "coll::Options::" << field
                << " is documented nowhere (README/DESIGN/EXPERIMENTS/docs)\n";
      ++broken;
    }
  }
  std::set<std::string> flags;
  for (const char* src : {"src/harness/cli.cpp", "tools/tpio_sim.cpp",
                          "tools/tpio_sweep.cpp"}) {
    for (const std::string& f : cli_flags(slurp(repo / src))) flags.insert(f);
  }
  for (const std::string& flag : flags) {
    ++knobs;
    if (corpus.find(flag) == std::string::npos) {
      std::cerr << "CLI flag " << flag
                << " is documented nowhere (README/DESIGN/EXPERIMENTS/docs)\n";
      ++broken;
    }
  }

  // (c') Reverse coverage: what the docs name must still exist.
  int paths = 0;
  for (const fs::path& doc : docs) {
    const std::string text = slurp(doc);
    const std::string where = doc.lexically_relative(repo).string();
    for (const std::string& name : options_refs(text)) {
      if (std::find(fields.begin(), fields.end(), name) == fields.end()) {
        std::cerr << where << ": Options::" << name
                  << " is not a field of coll::Options\n";
        ++broken;
      }
    }
    for (const std::string& flag : command_line_flags(text)) {
      if (flags.count(flag) == 0) {
        std::cerr << where << ": " << flag
                  << " is accepted by neither tpio_sim nor tpio_sweep\n";
        ++broken;
      }
    }
    // (e) Source paths named in code spans must exist.
    for (const std::string& ref : source_path_refs(text)) {
      for (const std::string& path : expand_braces(ref)) {
        ++paths;
        if (pattern_exists(repo, path)) continue;
        std::cerr << where << ": `" << ref << "` names no file (" << path
                  << ")\n";
        ++broken;
      }
    }
  }

  // (d) Every fig_* bench driver needs an EXPERIMENTS.md section.
  const std::string experiments = slurp(repo / "EXPERIMENTS.md");
  int figs = 0;
  for (const std::string& name :
       bench_targets(slurp(repo / "bench/CMakeLists.txt"))) {
    if (name.rfind("fig", 0) != 0) continue;
    ++figs;
    if (experiments.find("bench/" + name) == std::string::npos) {
      std::cerr << "bench/" << name << " has no EXPERIMENTS.md section\n";
      ++broken;
    }
  }

  std::cout << "docs_check: " << docs.size() << " documents, " << links
            << " intra-repo links, " << bins << " binary references, "
            << knobs << " knobs/flags, " << figs << " fig drivers, " << paths
            << " source paths, " << broken
            << " broken\n";
  return broken == 0 ? 0 : 1;
}
