// spider_lint: an invariant-enforcing static-analysis pass over this
// repository's C++ sources.
//
// The protocol's guarantees rest on code-level invariants that the type
// system cannot express: wire decoders must treat input as adversarial
// (PR 1 fixed 30+ hand-found violations), the simulator must stay
// deterministic, and crypto must never touch non-CSPRNG randomness.
// spider_lint encodes each invariant as a named rule over a token stream —
// no compiler, no dependencies, fast enough to run on every build — and
// exits non-zero with file:line diagnostics so regressions die in CI
// instead of in a future fuzz run.
//
// Rules (see DESIGN.md "Invariants" for the full rationale):
//   R1  reserve()/resize() sized from a ByteReader read must be guarded by
//       ByteReader::check_count in the same decode function.
//   R2  no rand(), std::random_device, std::mt19937 & friends outside
//       src/crypto/random.* — all randomness flows through the CSPRNG.
//   R3  no wall-clock reads (time(), system_clock, steady_clock, ...) in
//       src/netsim or src/core — simulated time only, or determinism dies.
//   R4  every `static T decode(...)`/`deserialize(...)` entry point must be
//       referenced by the fuzz corpus registry (tests/fuzz/targets.cpp).
//   R5  decode paths throw DecodeError only; any other type turns a
//       malformed message into a crash instead of a protocol fault.
//   R6  obs instrumentation macros only — no direct Counter/Histogram/
//       Gauge construction or registry lookup outside src/obs.
//   R7  banned functions: strcpy/strcat/sprintf/vsprintf/gets everywhere;
//       memcmp and operator== / operator!= on digest material — use
//       crypto::constant_time_equal.
//   R8  every spider_chaos catalog entry (src/chaos/catalog.*) must declare
//       the core::FaultKind the checker is expected to emit, and not
//       kNone — a misbehavior the matrix cannot assert on is untestable.
//   R9  (rules.cpp) no reading an Mtt root after apply() without an
//       intervening compute_labels() — see the R9 banner in rules.cpp.
//   R10 no direct socket syscalls (socket(), epoll_ctl(), ::send(), ...)
//       outside src/transport — protocol code talks through
//       transport::Endpoint so the same object runs under netsim and TCP.
//   R11 (taint.cpp) secret data reaches a logging/obs/error-string sink
//       — printf family, std::cout/cerr/clog, SPIDER_OBS_* arguments,
//       thrown exception messages.
//   R12 (taint.cpp) secret data reaches a ByteWriter wire-encode call
//       outside a `// spider-taint: declassify(rationale)` line; a
//       declassify without a rationale is also R12.
//   R13 (taint.cpp) secret data compared via ==/!=/memcmp — the dataflow
//       generalization of R7; use crypto::constant_time_equal.
//   R14 (taint.cpp) secret-dependent branch or array index inside the
//       src/crypto limb/Montgomery/CRT kernels (timing discipline).
//   R15 (taint.cpp) secret data reaches ProofPathCache storage
//       (insert_path/has_path) — cache keys/values must be
//       commitment-derived digests, never seed or PRF randomness.
//       Unlike R12 there is no declassify escape.
//
// R11-R15 are interprocedural: phase 1 (model.cpp) extracts a per-TU
// model and phase 2 (taint.cpp) propagates `// spider-taint: secret`
// sources through a cross-file call graph with per-function summaries;
// findings carry the full file:line flow trace in their message.
//
// Suppression: a finding is dropped when its line — or the line above,
// when the comment stands alone — carries `// spider-lint: allow(RN)`
// (several rules: `allow(R2,R3)`).
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace spider::lint {

struct Token {
  enum class Kind {
    kIdent,      // identifiers and keywords
    kNumber,     // integer / float literals (incl. digit separators)
    kString,     // "..." including raw strings
    kChar,       // '...'
    kPunct,      // operators and punctuation, multi-char ops as one token
    kDirective,  // a whole preprocessor line (#include <ctime>, ...)
  };
  Kind kind;
  std::string text;
  int line;
};

/// Tokenizes C++ source.  Comments and whitespace are dropped (use
/// collect_suppressions for the former); the lexer never fails — unknown
/// bytes become single-char punct tokens.
std::vector<Token> lex(std::string_view source);

/// Maps line -> rule ids allowed on that line, parsed from
/// `// spider-lint: allow(R1)` comments.  A comment that shares its line
/// with code covers that line; a comment alone on a line covers the next
/// line as well.
std::map<int, std::set<std::string>> collect_suppressions(std::string_view source);

struct Finding {
  std::string rule;     // "R1" .. "R10"
  std::string path;     // as supplied by the caller
  int line;
  std::string message;

  bool operator<(const Finding& other) const {
    if (path != other.path) return path < other.path;
    if (line != other.line) return line < other.line;
    return rule < other.rule;
  }
};

/// How a path participates in path-scoped rules.  Derived from the
/// repo-relative path by classify(); tests construct it directly to pin a
/// fixture to a scope.
struct FileClass {
  bool crypto_random_impl = false;  // src/crypto/random.* — exempt from R2
  bool deterministic = false;       // src/netsim or src/core — R3 applies
  bool obs_impl = false;            // src/obs — exempt from R6
  bool chaos_catalog = false;       // src/chaos/catalog.* — R8 applies
  bool transport_impl = false;      // src/transport — exempt from R10
  bool crypto_kernel = false;       // src/crypto limb/mont/rsa — R14 applies
  bool decode_impl = true;          // R1/R5 candidate (always on; rules
                                    // self-limit to decode function bodies)
};

/// Derives the rule scopes from a repo-relative path (forward slashes).
FileClass classify(std::string_view path);

/// Runs the single-file rules (all but the cross-file R4) over one source.
/// Findings on suppressed lines are dropped.
std::vector<Finding> lint_source(std::string_view path, std::string_view source,
                                 const FileClass& cls);

/// Convenience overload: classify(path) first.
std::vector<Finding> lint_source(std::string_view path, std::string_view source);

// --------------------------------------------------------------- rule R4

/// A `static T decode(...)` / `static T deserialize(...)` declaration
/// found in a header.
struct DecoderDecl {
  std::string type;  // T
  std::string path;
  int line;
};

/// Scans one header for static decode/deserialize entry points.
std::vector<DecoderDecl> find_decoder_decls(std::string_view path, std::string_view source);

/// R4: every declared decoder type must appear as an identifier in the
/// fuzz registry source (tests/fuzz/targets.cpp).  Suppressions on the
/// declaration line (in the header) are honored by the caller via
/// `suppressed` — pass the header's collect_suppressions result.
std::vector<Finding> lint_decoder_registry(
    const std::vector<DecoderDecl>& decls, std::string_view registry_source,
    const std::map<std::string, std::map<int, std::set<std::string>>>& suppressions_by_path);

}  // namespace spider::lint
