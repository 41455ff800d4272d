/**
 * @file lint.h
 * rago_lint: repo-specific determinism/concurrency static analysis.
 *
 * Every layer of this codebase rests on one contract: fixed seed =>
 * bit-identical digests for any thread count. The linter makes the
 * invariants behind that contract machine-checked instead of
 * review-checked. It tokenizes each translation unit (comments and
 * string-literal contents stripped, raw-string aware, line numbers
 * preserved) and enforces:
 *
 *  - `wallclock`      no `::now()` / C wall-clock reads outside the
 *                     approved perf/bench measurement files;
 *                     simulation and serving logic must use the
 *                     virtual clock.
 *  - `raw-rng`        no `rand()`, `std::random_device`, or direct
 *                     `std::mt19937`-family engines; all randomness
 *                     flows through common/rng.h (`Rng::DeriveSeed`).
 *  - `unordered-iter` no range-iteration over `std::unordered_map` /
 *                     `std::unordered_set` in digest/JSON/telemetry
 *                     export paths (iteration order is
 *                     implementation-defined => nondeterministic
 *                     output). Scoped to the `export-path` prefixes
 *                     from the config.
 *  - `raw-thread`     no raw `std::thread` construction, `std::async`,
 *                     or `.detach()` outside common/thread_pool.*;
 *                     parallelism goes through ThreadPool/ParallelFor
 *                     so the determinism contract holds.
 *  - `raw-throw`      no `throw std::...`; library errors go through
 *                     RAGO_CHECK / RAGO_REQUIRE or the rago error
 *                     types so callers can classify them.
 *  - `assert`         no C `assert(` (compiled out in release builds);
 *                     invariants use RAGO_CHECK / RAGO_REQUIRE.
 *  - `bare-io`        no bare `std::cout` / `printf` in library code;
 *                     libraries return data, binaries print.
 *  - `include-guard`  headers carry the path-derived `RAGO_..._H`
 *                     guard (no `#pragma once`); derived names make
 *                     guard collisions structurally impossible.
 *
 * Suppression: a trailing `// rago-lint: allow(<rule>[,<rule>...])`
 * comment disables the named rule(s) for the line(s) the comment
 * touches. File-level policy lives in a config (see ParseConfig):
 * `allow <rule> <path-prefix>` exempts a file or directory subtree,
 * `export-path <path-prefix>` scopes `unordered-iter`.
 */
#ifndef RAGO_TOOLS_LINT_LINT_H
#define RAGO_TOOLS_LINT_LINT_H

#include <map>
#include <set>
#include <string>
#include <vector>

namespace rago {
namespace lint {

/// One rule violation at a source line (1-based).
struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Names of all rules, in reporting order.
const std::vector<std::string>& RuleNames();

/// True if `rule` is a known rule name.
bool IsKnownRule(const std::string& rule);

/// File-level lint policy.
struct LintConfig {
  /// rule name -> path prefixes (normalized, '/'-separated) exempt
  /// from that rule. A prefix matches the exact path or any path
  /// under it when the prefix names a directory (trailing '/').
  std::map<std::string, std::vector<std::string>> allow;

  /// Path prefixes whose files are digest/JSON/telemetry export paths;
  /// `unordered-iter` fires only inside these. Empty => rule inert.
  std::vector<std::string> export_paths;
};

/**
 * Parses a config document. Line-oriented: `#` comments and blank
 * lines skipped; directives are `allow <rule> <path-prefix>` and
 * `export-path <path-prefix>`. Throws rago::ConfigError on unknown
 * directives or rule names.
 */
LintConfig ParseConfig(const std::string& text);

/// Source text after comment/string stripping, plus per-line
/// suppressions harvested from `rago-lint: allow(...)` comments.
struct StrippedSource {
  /// Same line structure as the input; comment bodies and
  /// string/char-literal contents replaced with spaces (delimiters
  /// kept), raw strings handled, newlines preserved.
  std::string code;
  /// 1-based line -> rules suppressed on that line.
  std::map<int, std::set<std::string>> suppressions;
};

/// Strips comments and literal contents from a C++ source buffer.
StrippedSource StripSource(const std::string& content);

/**
 * Lints one in-memory source buffer. `path` is the repo-relative,
 * '/'-separated path used for config matching and reporting; it does
 * not need to exist on disk. Violations come back sorted by line.
 */
std::vector<Violation> LintSource(const std::string& path,
                                  const std::string& content,
                                  const LintConfig& config);

}  // namespace lint
}  // namespace rago

#endif  // RAGO_TOOLS_LINT_LINT_H
