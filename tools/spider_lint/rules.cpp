// Rule matchers R1–R10 over the token stream produced by lexer.cpp.
//
// Matchers are deliberately syntactic: they know nothing about types or
// overload resolution, only token shapes.  Each rule is tuned so the
// current tree is clean and each fixture in tests/lint_fixtures/ fires —
// precision over recall, because a lint gate that cries wolf gets
// suppressed into uselessness.
#include <algorithm>
#include <array>
#include <cstddef>

#include "lint.hpp"

namespace spider::lint {

namespace {

using Tokens = std::vector<Token>;

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

/// Index of the punct matching the opener at `open` (which must point at
/// "(", "[" or "{"), or tokens.size() when unbalanced.
std::size_t matching_close(const Tokens& toks, std::size_t open) {
  const std::string_view opener = toks[open].text;
  const std::string_view closer = opener == "(" ? ")" : opener == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], opener)) ++depth;
    else if (is_punct(toks[i], closer) && --depth == 0) return i;
  }
  return toks.size();
}

/// A function body [l_brace, r_brace] belonging to a decode-path function
/// (named decode or deserialize).
struct Body {
  std::size_t begin;  // index of '{'
  std::size_t end;    // index of matching '}'
};

/// Finds bodies of functions *named* decode/deserialize: the pattern
/// `decode ( ... ) [qualifiers] {`.  Declarations (ending in ';') and
/// calls (`T::decode(data)` as an expression) don't match because a call
/// is never followed by '{'.
std::vector<Body> decode_bodies(const Tokens& toks) {
  std::vector<Body> bodies;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!(is_ident(toks[i], "decode") || is_ident(toks[i], "deserialize"))) continue;
    if (!is_punct(toks[i + 1], "(")) continue;
    std::size_t close = matching_close(toks, i + 1);
    if (close >= toks.size()) continue;
    // Skip trailing qualifiers (const, noexcept, ->, type names) up to the
    // first '{' or ';' or '='.
    std::size_t j = close + 1;
    while (j < toks.size() && !is_punct(toks[j], "{") && !is_punct(toks[j], ";") &&
           !is_punct(toks[j], "=") && !is_punct(toks[j], ",") && !is_punct(toks[j], ")")) {
      ++j;
    }
    if (j >= toks.size() || !is_punct(toks[j], "{")) continue;
    std::size_t end = matching_close(toks, j);
    if (end >= toks.size()) continue;
    bodies.push_back({j, end});
  }
  return bodies;
}

/// True when [begin, end) contains the token shape of a ByteReader integer
/// read: `. u8 (` / `. u16 (` / ... / `. i64 (`.
constexpr std::string_view kReaderReads[] = {"u8", "u16", "u32", "u64", "i64"};

bool contains_reader_read(const Tokens& toks, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i + 2 < end; ++i) {
    if (!is_punct(toks[i], ".")) continue;
    for (std::string_view m : kReaderReads) {
      if (is_ident(toks[i + 1], m) && is_punct(toks[i + 2], "(")) return true;
    }
  }
  return false;
}

bool contains_ident_from(const Tokens& toks, std::size_t begin, std::size_t end,
                         const std::set<std::string>& names) {
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind == Token::Kind::kIdent && names.count(toks[i].text) != 0) return true;
  }
  return false;
}

bool contains_ident(const Tokens& toks, std::size_t begin, std::size_t end,
                    std::string_view name) {
  for (std::size_t i = begin; i < end; ++i) {
    if (is_ident(toks[i], name)) return true;
  }
  return false;
}

// ------------------------------------------------------------------- R1

/// reserve()/resize() fed from a wire read without a check_count guard.
void rule_r1(const Tokens& toks, std::string_view path, std::vector<Finding>& out) {
  for (const Body& body : decode_bodies(toks)) {
    std::set<std::string> tainted;   // idents assigned from reader reads
    std::set<std::string> guarded;   // idents that went through check_count
    for (std::size_t i = body.begin + 1; i < body.end; ++i) {
      // check_count(args...): every identifier in the argument list is
      // validated (the common shape is r.check_count(n, k, "what")).
      if (is_ident(toks[i], "check_count") && i + 1 < body.end && is_punct(toks[i + 1], "(")) {
        std::size_t close = matching_close(toks, i + 1);
        for (std::size_t k = i + 2; k < close; ++k) {
          if (toks[k].kind == Token::Kind::kIdent) guarded.insert(toks[k].text);
        }
        continue;
      }
      // Assignment / initialization: IDENT = <expr> ;
      if (toks[i].kind == Token::Kind::kIdent && i + 1 < body.end && is_punct(toks[i + 1], "=")) {
        std::size_t stop = i + 2;
        int depth = 0;
        while (stop < body.end) {
          if (is_punct(toks[stop], "(") || is_punct(toks[stop], "{") ||
              is_punct(toks[stop], "[")) {
            ++depth;
          } else if (is_punct(toks[stop], ")") || is_punct(toks[stop], "}") ||
                     is_punct(toks[stop], "]")) {
            --depth;
          } else if (is_punct(toks[stop], ";") && depth == 0) {
            break;
          }
          ++stop;
        }
        if (contains_ident(toks, i + 2, stop, "check_count")) {
          guarded.insert(toks[i].text);
        } else if (contains_reader_read(toks, i + 2, stop) ||
                   contains_ident_from(toks, i + 2, stop, tainted)) {
          tainted.insert(toks[i].text);
        }
        i = stop;
        continue;
      }
      // The sinks: .reserve(expr) / .resize(expr).
      if ((is_ident(toks[i], "reserve") || is_ident(toks[i], "resize")) && i > body.begin &&
          is_punct(toks[i - 1], ".") && i + 1 < body.end && is_punct(toks[i + 1], "(")) {
        std::size_t close = matching_close(toks, i + 1);
        bool has_guard = contains_ident(toks, i + 2, close, "check_count") ||
                         contains_ident_from(toks, i + 2, close, guarded);
        bool from_wire = contains_reader_read(toks, i + 2, close) ||
                         contains_ident_from(toks, i + 2, close, tainted);
        if (from_wire && !has_guard) {
          out.push_back({"R1", std::string(path), toks[i].line,
                         toks[i].text + "() sized from a ByteReader read without a "
                         "check_count guard — a few header bytes could drive an "
                         "attacker-chosen allocation"});
        }
        i = close;
      }
    }
  }
}

// ------------------------------------------------------------------- R2

constexpr std::string_view kBannedRandom[] = {
    "rand", "srand", "rand_r", "random", "srandom", "drand48", "lrand48",
    "random_device", "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "ranlux24", "ranlux48", "knuth_b", "default_random_engine",
};

void rule_r2(const Tokens& toks, std::string_view path, const FileClass& cls,
             std::vector<Finding>& out) {
  if (cls.crypto_random_impl) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    for (std::string_view banned : kBannedRandom) {
      if (toks[i].text != banned) continue;
      // Plain function names only count when called; type names always
      // count (declaring an engine is already a violation).
      bool is_type = banned.find('_') != std::string_view::npos || banned == "mt19937" ||
                     banned == "mt19937_64" || banned == "ranlux24" || banned == "ranlux48" ||
                     banned == "knuth_b";
      if (!is_type && !(i + 1 < toks.size() && is_punct(toks[i + 1], "("))) continue;
      out.push_back({"R2", std::string(path), toks[i].line,
                     "non-CSPRNG randomness (" + toks[i].text +
                     ") outside src/crypto/random.* — route through CommitmentPrf "
                     "or crypto::random_bytes"});
      break;
    }
  }
}

// ------------------------------------------------------------------- R3

constexpr std::string_view kWallClockTypes[] = {
    "system_clock", "steady_clock", "high_resolution_clock",
};
constexpr std::string_view kWallClockCalls[] = {
    "time", "clock", "clock_gettime", "gettimeofday", "localtime", "gmtime", "ftime",
};

void rule_r3(const Tokens& toks, std::string_view path, const FileClass& cls,
             std::vector<Finding>& out) {
  if (!cls.deterministic) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    bool hit = false;
    for (std::string_view t : kWallClockTypes) {
      if (toks[i].text == t) hit = true;
    }
    if (!hit) {
      for (std::string_view c : kWallClockCalls) {
        if (toks[i].text == c && i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
            // `x.time(...)`/`x::time(...)` is a member/namespace, not libc.
            (i == 0 || (!is_punct(toks[i - 1], ".") && !is_punct(toks[i - 1], "::") &&
                        !is_punct(toks[i - 1], "->")))) {
          hit = true;
        }
      }
    }
    if (hit) {
      out.push_back({"R3", std::string(path), toks[i].line,
                     "wall-clock read (" + toks[i].text +
                     ") in deterministic code (src/netsim, src/core) — use simulated "
                     "time (Simulator::now) so runs stay reproducible"});
    }
  }
}

// ------------------------------------------------------------------- R5

void rule_r5(const Tokens& toks, std::string_view path, std::vector<Finding>& out) {
  for (const Body& body : decode_bodies(toks)) {
    for (std::size_t i = body.begin + 1; i < body.end; ++i) {
      if (!is_ident(toks[i], "throw")) continue;
      // Collect the thrown expression up to ';' at depth 0.
      std::size_t stop = i + 1;
      int depth = 0;
      while (stop < body.end) {
        if (is_punct(toks[stop], "(")) ++depth;
        else if (is_punct(toks[stop], ")")) --depth;
        else if (is_punct(toks[stop], ";") && depth == 0) break;
        ++stop;
      }
      if (stop == i + 1) continue;  // bare `throw;` rethrow is fine
      if (!contains_ident(toks, i + 1, stop, "DecodeError")) {
        out.push_back({"R5", std::string(path), toks[i].line,
                       "decode path throws a non-DecodeError type — callers translate "
                       "DecodeError into a protocol fault; anything else is a crash"});
      }
      i = stop;
    }
  }
}

// ------------------------------------------------------------------- R6

void rule_r6(const Tokens& toks, std::string_view path, const FileClass& cls,
             std::vector<Finding>& out) {
  if (cls.obs_impl) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Qualified type use: obs :: Counter / Histogram / Gauge.
    if (is_ident(toks[i], "obs") && i + 2 < toks.size() && is_punct(toks[i + 1], "::") &&
        (is_ident(toks[i + 2], "Counter") || is_ident(toks[i + 2], "Histogram") ||
         is_ident(toks[i + 2], "Gauge"))) {
      out.push_back({"R6", std::string(path), toks[i].line,
                     "direct obs::" + toks[i + 2].text +
                     " use outside src/obs — instrument through the SPIDER_OBS_* "
                     "macros so SPIDER_OBS_DISABLED builds compile it away"});
      continue;
    }
    // Registry lookups: .counter( / .histogram( / .gauge(.
    if (is_punct(toks[i], ".") && i + 2 < toks.size() &&
        (is_ident(toks[i + 1], "counter") || is_ident(toks[i + 1], "histogram") ||
         is_ident(toks[i + 1], "gauge")) &&
        is_punct(toks[i + 2], "(")) {
      out.push_back({"R6", std::string(path), toks[i + 1].line,
                     "direct MetricsRegistry::" + toks[i + 1].text +
                     "() lookup outside src/obs — instrument through the "
                     "SPIDER_OBS_* macros"});
    }
  }
}

// ------------------------------------------------------------------- R7

constexpr std::string_view kBannedFunctions[] = {
    "strcpy", "strcat", "sprintf", "vsprintf", "gets", "strncpy", "strncat",
};

bool digest_like(std::string_view ident) {
  if (ident == "authenticator") return true;
  // contains "digest" (message_digest, underlying_digest, digest20, ...)
  return ident.find("digest") != std::string_view::npos ||
         ident.find("Digest") != std::string_view::npos;
}

/// The identifier naming the value adjacent to a comparison operator: for
/// `a.b.c ==` that is `c`; for `f(x) ==` the callee `f`; skips one closing
/// paren back to its callee.
std::string_view comparand_ident_left(const Tokens& toks, std::size_t op) {
  if (op == 0) return {};
  std::size_t i = op - 1;
  if (is_punct(toks[i], ")")) {
    // Walk back to the matching open paren, then the callee name before it.
    int depth = 0;
    while (true) {
      if (is_punct(toks[i], ")")) ++depth;
      else if (is_punct(toks[i], "(") && --depth == 0) break;
      if (i == 0) return {};
      --i;
    }
    if (i == 0) return {};
    --i;
  }
  return toks[i].kind == Token::Kind::kIdent ? std::string_view(toks[i].text)
                                             : std::string_view();
}

std::string_view comparand_ident_right(const Tokens& toks, std::size_t op) {
  // The *last* identifier of the member chain that follows: a.b.c -> c.
  std::string_view last;
  for (std::size_t i = op + 1; i < toks.size(); ++i) {
    if (toks[i].kind == Token::Kind::kIdent) {
      last = toks[i].text;
    } else if (!is_punct(toks[i], ".") && !is_punct(toks[i], "::") &&
               !is_punct(toks[i], "->")) {
      break;
    }
  }
  return last;
}

void rule_r7(const Tokens& toks, std::string_view path, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == Token::Kind::kIdent && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(")) {
      for (std::string_view banned : kBannedFunctions) {
        if (toks[i].text == banned) {
          out.push_back({"R7", std::string(path), toks[i].line,
                         "banned function " + toks[i].text +
                         "() — unbounded/implicit-length byte handling"});
        }
      }
      if (toks[i].text == "memcmp") {
        out.push_back({"R7", std::string(path), toks[i].line,
                       "memcmp() — for digest material use crypto::constant_time_equal; "
                       "for anything else use std::equal/operator== on a sized type"});
      }
    }
    // Digest compared with ==/!= leaks the matching prefix through timing.
    if ((is_punct(toks[i], "==") || is_punct(toks[i], "!=")) && i > 0) {
      std::string_view lhs = comparand_ident_left(toks, i);
      std::string_view rhs = comparand_ident_right(toks, i);
      if (digest_like(lhs) || digest_like(rhs)) {
        out.push_back({"R7", std::string(path), toks[i].line,
                       "digest compared with operator" + toks[i].text +
                       " — use crypto::constant_time_equal (early-exit comparison "
                       "leaks the matching prefix through timing)"});
      }
    }
  }
}

// ------------------------------------------------------------------- R8

/// A spider_chaos catalog entry is a brace initializer opening with its
/// `Misbehavior :: kTag`.  Each must, inside the same braces, name the
/// core::FaultKind the checker is required to emit — and not kNone, since
/// the detection matrix asserts on that class (an entry without one is a
/// misbehavior nothing can test for).
void rule_r8(const Tokens& toks, std::string_view path, const FileClass& cls,
             std::vector<Finding>& out) {
  if (!cls.chaos_catalog) return;
  for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks[i], "Misbehavior") || !is_punct(toks[i + 1], "::")) continue;
    if (!is_punct(toks[i - 1], "{")) continue;  // field decls, enum uses
    std::size_t close = matching_close(toks, i - 1);
    bool declared = false, none = false;
    for (std::size_t j = i + 2; j + 2 < close; ++j) {
      if (is_ident(toks[j], "FaultKind") && is_punct(toks[j + 1], "::")) {
        declared = true;
        if (is_ident(toks[j + 2], "kNone")) none = true;
      }
    }
    if (!declared) {
      out.push_back({"R8", std::string(path), toks[i].line,
                     "catalog entry does not declare the core::FaultKind the checker "
                     "must emit — the detection matrix cannot assert on it"});
    } else if (none) {
      out.push_back({"R8", std::string(path), toks[i].line,
                     "catalog entry declares FaultKind::kNone — a misbehavior whose "
                     "expected detection is 'nothing' is untestable"});
    }
    i = close;
  }
}

// ------------------------------------------------------------------- R9

/// Mtt::apply(updates) changes only the tree's structure and invalidates
/// its labels; reading `.root_label()` before an intervening
/// `.compute_labels(...)` would serve a stale or throwing root.  The tree
/// guards this at runtime, but at a commit site the exception only fires
/// in production; the lint catches the shape at review time.
void rule_r9(const Tokens& toks, std::string_view path, std::vector<Finding>& out) {
  int pending_line = 0;  // line of an apply awaiting a relabel
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_punct(toks[i], ".") && !is_punct(toks[i], "->")) continue;
    if (!is_punct(toks[i + 2], "(")) continue;
    if (is_ident(toks[i + 1], "apply")) {
      pending_line = toks[i + 1].line;
    } else if (is_ident(toks[i + 1], "compute_labels")) {
      pending_line = 0;
    } else if (pending_line != 0 && is_ident(toks[i + 1], "root_label")) {
      out.push_back({"R9", std::string(path), toks[i + 1].line,
                     "root_label() read after the structure-only apply() at line " +
                     std::to_string(pending_line) +
                     " without an intervening relabel — call compute_labels() first"});
      pending_line = 0;  // one finding per stale window
    }
  }
}

// ------------------------------------------------------------------ R10

/// Socket-plane syscalls belong in src/transport: protocol code talks
/// through transport::Endpoint so the identical object runs under the
/// deterministic netsim and over TCP.  A raw socket call anywhere else is
/// a second transport plane growing outside the abstraction.
///
/// Unmistakable names fire bare; names that collide with ordinary method
/// vocabulary (Simulator::send, Recorder-level connect helpers, std::bind)
/// fire only when globally qualified (`::send(...)`), which is exactly how
/// code reaches libc past a same-named member.
constexpr std::string_view kSocketCallsUnambiguous[] = {
    "socket",      "accept4",       "sendto",     "recvfrom",   "sendmsg",
    "recvmsg",     "writev",        "readv",      "epoll_create1",
    "epoll_ctl",   "epoll_wait",    "setsockopt", "getsockopt",
    "getsockname", "getaddrinfo",
};
constexpr std::string_view kSocketCallsQualifiedOnly[] = {
    "send", "recv", "connect", "bind", "listen", "accept", "shutdown",
};

void rule_r10(const Tokens& toks, std::string_view path, const FileClass& cls,
              std::vector<Finding>& out) {
  if (cls.transport_impl) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    if (!(i + 1 < toks.size() && is_punct(toks[i + 1], "("))) continue;
    // `x.send(...)` / `x->send(...)` is a member call; `ns::socket(...)`
    // with a preceding identifier is some other namespace's function.
    const bool member = i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
    if (member) continue;
    const bool colon_qualified = i > 0 && is_punct(toks[i - 1], "::");
    const bool global_qualified =
        colon_qualified && (i == 1 || toks[i - 2].kind != Token::Kind::kIdent);
    bool hit = false;
    if (!colon_qualified || global_qualified) {
      for (std::string_view name : kSocketCallsUnambiguous) {
        if (toks[i].text == name) hit = true;
      }
    }
    if (global_qualified) {
      for (std::string_view name : kSocketCallsQualifiedOnly) {
        if (toks[i].text == name) hit = true;
      }
    }
    if (hit) {
      out.push_back({"R10", std::string(path), toks[i].line,
                     "direct socket syscall " + toks[i].text +
                     "() outside src/transport — go through transport::Endpoint "
                     "(TcpTransport / NetsimTransport) so protocol code stays "
                     "backend-agnostic"});
    }
  }
}

}  // namespace

// ------------------------------------------------------------ public API

FileClass classify(std::string_view path) {
  FileClass cls;
  auto has = [&](std::string_view needle) { return path.find(needle) != std::string_view::npos; };
  cls.crypto_random_impl = has("src/crypto/random.");
  cls.deterministic = has("src/netsim/") || has("src/core/");
  cls.obs_impl = has("src/obs/");
  cls.chaos_catalog = has("src/chaos/catalog");
  cls.transport_impl = has("src/transport/");
  cls.crypto_kernel =
      has("src/crypto/") && (has("limb.") || has("mont.") || has("rsa."));
  return cls;
}

std::vector<Finding> lint_source(std::string_view path, std::string_view source,
                                 const FileClass& cls) {
  Tokens toks = lex(source);
  std::vector<Finding> findings;
  rule_r1(toks, path, findings);
  rule_r2(toks, path, cls, findings);
  rule_r3(toks, path, cls, findings);
  rule_r5(toks, path, findings);
  rule_r6(toks, path, cls, findings);
  rule_r7(toks, path, findings);
  rule_r8(toks, path, cls, findings);
  rule_r9(toks, path, findings);
  rule_r10(toks, path, cls, findings);

  auto suppressed = collect_suppressions(source);
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    auto it = suppressed.find(f.line);
    if (it != suppressed.end() &&
        (it->second.count(f.rule) != 0 || it->second.count("all") != 0)) {
      continue;
    }
    kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

std::vector<Finding> lint_source(std::string_view path, std::string_view source) {
  return lint_source(path, source, classify(path));
}

std::vector<DecoderDecl> find_decoder_decls(std::string_view path, std::string_view source) {
  Tokens toks = lex(source);
  std::vector<DecoderDecl> decls;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks[i], "static")) continue;
    // static <type tokens> decode ( — find decode/deserialize within the
    // next few tokens (return types are one or two idents plus ::).
    for (std::size_t j = i + 1; j < std::min(toks.size() - 1, i + 8); ++j) {
      if ((is_ident(toks[j], "decode") || is_ident(toks[j], "deserialize")) &&
          is_punct(toks[j + 1], "(")) {
        // The decoded type is the last identifier before the entry point.
        for (std::size_t k = j; k-- > i;) {
          if (toks[k].kind == Token::Kind::kIdent) {
            decls.push_back({toks[k].text, std::string(path), toks[j].line});
            break;
          }
        }
        break;
      }
      if (is_punct(toks[j], ";") || is_punct(toks[j], "{")) break;
    }
  }
  return decls;
}

std::vector<Finding> lint_decoder_registry(
    const std::vector<DecoderDecl>& decls, std::string_view registry_source,
    const std::map<std::string, std::map<int, std::set<std::string>>>& suppressions_by_path) {
  std::set<std::string> registered;
  for (const Token& t : lex(registry_source)) {
    if (t.kind == Token::Kind::kIdent) registered.insert(t.text);
  }
  std::vector<Finding> out;
  for (const DecoderDecl& d : decls) {
    if (registered.count(d.type) != 0) continue;
    auto by_path = suppressions_by_path.find(d.path);
    if (by_path != suppressions_by_path.end()) {
      auto it = by_path->second.find(d.line);
      if (it != by_path->second.end() &&
          (it->second.count("R4") != 0 || it->second.count("all") != 0)) {
        continue;
      }
    }
    out.push_back({"R4", d.path, d.line,
                   "decoder " + d.type + "::decode is not referenced by the fuzz corpus "
                   "registry (tests/fuzz/targets.cpp) — every wire decoder ships fuzzed"});
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace spider::lint
