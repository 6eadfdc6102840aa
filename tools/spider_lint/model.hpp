// Phase 1 of the taint pass (rules R11-R15): a lightweight per-TU model
// extracted from the token stream — function definitions and declarations
// (with owner class, parameter names/types and body token ranges), member
// fields with their declared types, type definitions, and the
// `// spider-taint:` annotations that mark sources and declassification
// points.  No compiler, no preprocessor: the extractor walks the same
// tokens the R1-R10 rules see and applies C++-shaped heuristics that are
// documented where they bite (see DESIGN.md "Invariants" for the limits).
//
// Annotation grammar (same line-coverage contract as spider-lint
// suppressions — a trailing comment covers its own line, a standalone
// comment covers itself and the next line):
//
//   // spider-taint: secret
//       On a type definition line: every value of that type is secret.
//       On a field/param declaration line: that name is secret.
//       On a function declaration line: its return value is secret (for a
//       void function, its non-const pointer/reference params are secret
//       outputs instead).
//
//   // spider-taint: declassify(rationale text)
//       The flow crossing this line is an approved disclosure.  The
//       rationale is mandatory; an empty one is itself an R12 finding.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint.hpp"

namespace spider::lint::taint {

/// Per-line `// spider-taint:` annotations for one source file.
struct Annotations {
  std::set<int> secret;                   // lines annotated `secret`
  std::map<int, std::string> declassify;  // line -> rationale ("" = missing)
};

Annotations collect_annotations(std::string_view source);

struct ParamModel {
  std::string name;  // "" for unnamed declaration parameters
  std::string type;  // last type-ish identifier ("" when none found)
  int line = 0;
  bool annotated_secret = false;  // the parameter's line carries `secret`
  bool out_param = false;         // non-const pointer or lvalue reference
};

struct FunctionModel {
  std::string name;         // unqualified
  std::string owner;        // enclosing class or out-of-line `T::` qualifier
  std::string return_type;  // last type-ish identifier before the name
  int line = 0;             // line of the function name token
  std::vector<ParamModel> params;
  bool has_body = false;
  std::size_t body_begin = 0;  // token index of the '{' (valid iff has_body)
  std::size_t body_end = 0;    // token index one past the matching '}'
  bool annotated_secret = false;
};

struct FieldModel {
  std::string owner;  // enclosing class ("" for namespace-scope variables)
  std::string name;
  std::string type;
  int line = 0;
  bool annotated_secret = false;
};

struct TypeModel {
  std::string name;
  int line = 0;
  bool annotated_secret = false;
};

/// Everything the taint phase needs from one translation unit.
struct TuModel {
  std::string path;
  FileClass cls;
  std::vector<Token> tokens;
  Annotations notes;
  std::map<int, std::set<std::string>> suppressions;
  std::vector<FunctionModel> functions;
  std::vector<FieldModel> fields;
  std::vector<TypeModel> types;
};

TuModel build_tu_model(std::string_view path, std::string_view source, const FileClass& cls);

/// Convenience overload: classify(path) first.
TuModel build_tu_model(std::string_view path, std::string_view source);

}  // namespace spider::lint::taint
