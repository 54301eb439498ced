#pragma once
/// \file lint_core.hpp
/// locmps-lint: project-specific determinism and hygiene checks.
///
/// A lightweight, libclang-free static checker (docs/static_analysis.md).
/// It tokenizes one translation unit at a time (strings, comments and
/// preprocessor directives handled, no macro expansion) and runs lexical
/// rules that encode the project's determinism contract: LoC-MPS must
/// plan bit for bit identically on every run and on both sides of the
/// incremental oracle, and fault scripts must replay exactly
/// (docs/incremental.md, docs/fault_tolerance.md). The
/// rules are deliberately simple and conservative — anything subtler
/// belongs in clang-tidy or the Clang thread-safety analysis.
///
/// Suppression: a `// LINT-ALLOW(rule)` or `// LINT-ALLOW(rule1,rule2)`
/// comment suppresses those rules on its own line and on the next line,
/// so the pragma can sit above the offending statement. Whole-file
/// grandfathering lives in the committed baseline (tools/lint/
/// lint_baseline.txt), handled by the driver, not here.

#include <string>
#include <string_view>
#include <vector>

namespace locmps::lint {

/// One rule violation.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Which rules apply to a file; derived from its path by options_for().
struct Options {
  bool check_unordered_iter = true;  ///< off outside src/
  bool check_nondet = true;          ///< off in tests/
  bool check_float_eq = true;        ///< off in tests/
  bool check_float_sort = true;
  bool check_include_hygiene = true;
  bool check_raw_sync = true;        ///< off in util/annotations.hpp
  bool check_digest_taint = true;    ///< off outside src/
};

/// Rule applicability by repo-relative path (see docs/static_analysis.md):
///  * tests/ may compare floats exactly and call wall clocks;
///  * only src/ counts as scheduler/sim decision paths for the
///    unordered-iteration rule;
///  * src/util/annotations.hpp is the one place allowed to name the raw
///    std synchronization primitives, for the annotated wrapper that the
///    first locking user adds there.
Options options_for(std::string_view path);

/// True for paths the driver should skip entirely (the deliberately bad
/// lint fixtures and anything under a build directory).
bool skip_path(std::string_view path);

/// Lints one file's contents. \p path is used for reporting and for the
/// header/source distinction; rule selection comes from \p opt.
std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view text, const Options& opt);

/// All rule names, for --list-rules and fixture tests.
std::vector<std::string> rule_names();

/// Formats a finding as "file:line: [rule] message".
std::string format(const Finding& f);

}  // namespace locmps::lint
