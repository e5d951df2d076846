#include "config.hpp"

#include <cctype>
#include <sstream>

namespace pythia::lint {

namespace {

[[nodiscard]] std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// Strips a trailing # comment that is not inside a quoted string.
[[nodiscard]] std::string strip_comment(const std::string& line) {
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '"') in_string = !in_string;
    if (line[i] == '#' && !in_string) return line.substr(0, i);
  }
  return line;
}

// Parses `"a"` → a. Returns false on anything unquoted.
[[nodiscard]] bool parse_string(const std::string& v, std::string& out) {
  const std::string t = trim(v);
  if (t.size() < 2 || t.front() != '"' || t.back() != '"') return false;
  out = t.substr(1, t.size() - 2);
  return true;
}

// Parses `["a", "b"]` → {a, b}. Empty arrays allowed.
[[nodiscard]] bool parse_array(const std::string& v,
                               std::vector<std::string>& out) {
  const std::string t = trim(v);
  if (t.size() < 2 || t.front() != '[' || t.back() != ']') return false;
  out.clear();
  const std::string body = trim(t.substr(1, t.size() - 2));
  if (body.empty()) return true;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.size();
    bool in_string = false;
    for (std::size_t i = pos; i < body.size(); ++i) {
      if (body[i] == '"') in_string = !in_string;
      if (body[i] == ',' && !in_string) {
        comma = i;
        break;
      }
    }
    std::string item;
    if (!parse_string(body.substr(pos, comma - pos), item)) return false;
    out.push_back(item);
    pos = comma + 1;
  }
  return true;
}

}  // namespace

std::optional<Config> parse_config(const std::string& text,
                                   std::string& error) {
  Config cfg;
  std::istringstream in(text);
  std::string raw;
  std::string section;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = trim(strip_comment(raw));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        error = "line " + std::to_string(lineno) + ": unterminated section";
        return std::nullopt;
      }
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      error = "line " + std::to_string(lineno) + ": expected key = value";
      return std::nullopt;
    }
    const std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    // Multi-line arrays: keep consuming lines until the bracket closes.
    while (!value.empty() && value.front() == '[' && value.back() != ']') {
      std::string more;
      if (!std::getline(in, more)) {
        error = "line " + std::to_string(lineno) + ": unterminated array";
        return std::nullopt;
      }
      ++lineno;
      value += ' ';
      value += trim(strip_comment(more));
    }
    const std::string qualified = section.empty() ? key : section + "." + key;

    std::vector<std::string>* target = nullptr;
    if (qualified == "scopes.scan") {
      target = &cfg.scan_roots;
    } else if (qualified == "scopes.deterministic") {
      target = &cfg.deterministic_scopes;
    } else if (qualified == "scopes.skip") {
      target = &cfg.skip_paths;
    } else if (qualified == "scopes.snapshot") {
      target = &cfg.snapshot_scopes;
    } else if (qualified == "rule.wall-clock.allow") {
      target = &cfg.wall_clock_allow;
    } else if (qualified == "rule.fingerprint.roots") {
      target = &cfg.fingerprint_roots;
    } else if (qualified == "rule.fingerprint.functions") {
      target = &cfg.fingerprint_functions;
    } else if (qualified == "headers.roots") {
      target = &cfg.header_roots;
    } else {
      error = "line " + std::to_string(lineno) + ": unknown key '" +
              qualified + "'";
      return std::nullopt;
    }
    if (!parse_array(value, *target)) {
      error = "line " + std::to_string(lineno) + ": expected [\"...\"] for '" +
              qualified + "'";
      return std::nullopt;
    }
  }
  return cfg;
}

bool path_in(const std::string& path,
             const std::vector<std::string>& prefixes) {
  for (const std::string& p : prefixes) {
    if (p.empty() || path.size() < p.size()) continue;
    if (path.compare(0, p.size(), p) != 0) continue;
    if (path.size() == p.size()) return true;
    const char next = path[p.size()];
    // Component boundary ("src/net" + '/') or file stem ("...thread_pool"
    // + '.'): both count; "src/net" must not match "src/netflow.cpp".
    if (next == '/' || next == '.') return true;
  }
  return false;
}

}  // namespace pythia::lint
