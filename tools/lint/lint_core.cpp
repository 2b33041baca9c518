#include "lint_core.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "lexer.hpp"
#include "symbols.hpp"

namespace locmps::lint {

namespace {

// ---------------------------------------------------------------------------
// Shared helpers over the token stream
// ---------------------------------------------------------------------------

/// Names of variables declared float/double (including simple declarator
/// lists and `auto x = <float literal>`), and of std::vector<float/double>
/// variables. Lexical best effort: function names declared with a floating
/// return type are also collected, which is harmless for the rules using
/// this set.
struct FloatDecls {
  std::set<std::string> scalars;
  std::set<std::string> vectors;
};

FloatDecls collect_float_decls(const std::vector<Token>& t) {
  FloatDecls out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Kind::Ident) continue;
    // std::vector<double> name
    if (t[i].text == "vector" && i + 1 < t.size() && is(t[i + 1], "<")) {
      const std::size_t inner = i + 2;
      if (inner < t.size() && (is(t[inner], "double") ||
                               is(t[inner], "float"))) {
        std::size_t j = skip_template_args(t, i + 1);
        while (j < t.size() &&
               (is(t[j], "&") || is(t[j], "*") || is(t[j], "const")))
          ++j;
        if (j < t.size() && t[j].kind == Kind::Ident)
          out.vectors.insert(t[j].text);
      }
      continue;
    }
    const bool floating = t[i].text == "double" || t[i].text == "float";
    if (floating) {
      // Declarator list: double a = ..., b = ...;
      std::size_t j = i + 1;
      for (;;) {
        // A '*' declares a pointer to float, whose own comparisons are
        // pointer comparisons — stop, do not record the name.
        if (j < t.size() && is(t[j], "*")) break;
        while (j < t.size() && (is(t[j], "&") || is(t[j], "const"))) ++j;
        if (j >= t.size() || t[j].kind != Kind::Ident) break;
        // Only a plain declarator counts: `double time(...)` declares a
        // function, and in a parameter list the declarator after a comma
        // may open an unrelated type (`double x, const Foo& y`).
        if (j + 1 >= t.size() ||
            (!is(t[j + 1], "=") && !is(t[j + 1], ",") &&
             !is(t[j + 1], ";") && !is(t[j + 1], ")") &&
             !is(t[j + 1], "{") && !is(t[j + 1], "[") &&
             !is(t[j + 1], ":")))
          break;
        out.scalars.insert(t[j].text);
        ++j;
        // Skip an initializer (or parameter default) to the next ',' or
        // an end-of-declaration token, at top nesting level.
        int par = 0, brk = 0, brc = 0;
        bool more = false;
        for (; j < t.size(); ++j) {
          const std::string& x = t[j].text;
          if (x == "(") ++par;
          else if (x == ")") { if (par == 0) break; --par; }
          else if (x == "[") ++brk;
          else if (x == "]") --brk;
          else if (x == "{") { if (brc == 0 && par == 0) break; ++brc; }
          else if (x == "}") --brc;
          else if (x == ";" && par == 0 && brk == 0 && brc == 0) break;
          else if (x == "," && par == 0 && brk == 0 && brc == 0) {
            more = true;
            ++j;
            break;
          }
        }
        if (!more) break;
      }
      continue;
    }
    // auto x = 0.5;
    if (t[i].text == "auto" && i + 3 < t.size() &&
        t[i + 1].kind == Kind::Ident && is(t[i + 2], "=") &&
        t[i + 3].kind == Kind::FloatLit)
      out.scalars.insert(t[i + 1].text);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

class Linter {
 public:
  Linter(std::string_view path, const Lexed& lx, const Options& opt)
      : path_(path), lx_(lx), opt_(opt) {}

  std::vector<Finding> run() {
    if (opt_.check_unordered_iter || opt_.check_digest_taint)
      symbols_ = collect_symbols(lx_.tokens);
    if (opt_.check_include_hygiene) include_hygiene();
    if (opt_.check_nondet) nondet_source();
    if (opt_.check_unordered_iter) unordered_iteration();
    if (opt_.check_digest_taint) digest_taint();
    if (opt_.check_float_sort) float_sort();
    if (opt_.check_float_eq) float_eq();
    if (opt_.check_raw_sync) raw_sync();
    return std::move(findings_);
  }

 private:
  void add(int line, std::string_view rule, std::string message) {
    // A LINT-ALLOW pragma suppresses its own line and the following line.
    for (int l = line - 1; l <= line; ++l) {
      const auto it = lx_.allows.find(l);
      if (it != lx_.allows.end() && it->second.count(std::string(rule)))
        return;
    }
    findings_.push_back(
        {std::string(path_), line, std::string(rule), std::move(message)});
  }

  // include-hygiene: headers start with #pragma once (before any
  // #include); no "../" includes; no .cpp includes.
  void include_hygiene() {
    const bool header = path_.size() > 4 &&
                        path_.substr(path_.size() - 4) == ".hpp";
    bool saw_pragma_once = false;
    bool include_before_pragma = false;
    for (const Directive& d : lx_.directives) {
      const std::string& s = d.text;
      if (s.find("pragma") != std::string::npos &&
          s.find("once") != std::string::npos)
        saw_pragma_once = true;
      const std::size_t inc = s.find("include");
      if (inc == std::string::npos) continue;
      if (!saw_pragma_once) include_before_pragma = true;
      const std::size_t q1 = s.find_first_of("\"<", inc);
      if (q1 == std::string::npos) continue;
      const std::size_t q2 = s.find_first_of("\">", q1 + 1);
      if (q2 == std::string::npos) continue;
      const std::string inc_path = s.substr(q1 + 1, q2 - q1 - 1);
      if (inc_path.rfind("../", 0) == 0)
        add(d.line, "include-hygiene",
            "parent-relative include \"" + inc_path +
                "\"; include project headers by their src/-relative path");
      if (inc_path.size() > 4 &&
          inc_path.substr(inc_path.size() - 4) == ".cpp")
        add(d.line, "include-hygiene",
            "#include of a .cpp file (" + inc_path + ")");
    }
    if (header && (!saw_pragma_once || include_before_pragma))
      add(1, "include-hygiene",
          saw_pragma_once
              ? "#pragma once must precede every #include"
              : "header is missing #pragma once");
  }

  // nondet-source: wall clocks and unseeded randomness are banned in
  // deterministic code — a schedule decision or replay that reads them
  // cannot reproduce bit for bit (docs/static_analysis.md).
  void nondet_source() {
    const auto& t = lx_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Kind::Ident) continue;
      const std::string& x = t[i].text;
      if (x == "random_device")
        add(t[i].line, "nondet-source",
            "std::random_device is unseeded; use util/rng (Rng) so runs "
            "replay from a seed");
      else if (x == "system_clock" || x == "high_resolution_clock")
        add(t[i].line, "nondet-source",
            "std::chrono::" + x +
                " is wall-clock; telemetry must use util/stopwatch "
                "(steady_clock) and decisions must not read clocks");
      else if (x == "rand" || x == "srand" || x == "time" || x == "clock") {
        const Token* nx = next_tok(t, i);
        if (nx == nullptr || !is(*nx, "(")) continue;
        const Token* pv = prev_tok(t, i);
        if (pv != nullptr && (is(*pv, ".") || is(*pv, "->"))) continue;
        if (pv != nullptr && is(*pv, "::") && !std_qualified(t, i))
          continue;  // Foo::time(...) — not the libc call
        // `double time(...)` / `virtual time(...)`: a declaration of a
        // member named time, not a call into libc.
        if (pv != nullptr && (pv->kind == Kind::Ident || is(*pv, ">") ||
                              is(*pv, "&") || is(*pv, "*")))
          continue;
        // Unqualified time()/clock(): only the libc calling shapes count
        // (no argument, a null/zero argument, or an out-pointer). A member
        // call like time(p) computes an execution time, not wall time.
        if ((x == "time" || x == "clock") && !std_qualified(t, i)) {
          const Token* arg = next_tok(t, i + 1);
          const bool libc_shape =
              arg != nullptr &&
              (is(*arg, ")") || is(*arg, "nullptr") || is(*arg, "NULL") ||
               is(*arg, "0") || is(*arg, "&"));
          if (!libc_shape) continue;
        }
        add(t[i].line, "nondet-source",
            x == "rand" || x == "srand"
                ? "rand()/srand() is process-global and unseeded per run; "
                  "use util/rng (Rng)"
                : x + "() reads the wall clock; schedules must replay "
                      "independent of real time");
      }
    }
  }

  // unordered-iteration: iterating a hash container feeds its
  // implementation-defined order into whatever consumes the loop — a
  // tie-break seeded from it destroys the run-to-run replay guarantee. Membership tests are fine; iteration is not.
  // The symbol table sees through `using`/`typedef` aliases, member
  // fields and `auto` rebindings (tools/lint/symbols.hpp).
  void unordered_iteration() {
    const auto& t = lx_.tokens;
    const std::set<std::string>& vars = symbols_.unordered_vars;
    if (vars.empty()) return;
    for (std::size_t i = 0; i < t.size(); ++i) {
      // for (... : var)
      if (t[i].kind == Kind::Ident && is(t[i], "for") && i + 1 < t.size() &&
          is(t[i + 1], "(")) {
        const std::size_t end = match_forward(t, i + 1, "(", ")");
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t j = i + 1; j < end; ++j) {
          if (is(t[j], "(")) ++depth;
          else if (is(t[j], ")")) --depth;
          else if (is(t[j], ":") && depth == 1) {
            colon = j;
            break;
          }
        }
        for (std::size_t j = colon; colon != 0 && j < end; ++j)
          if (t[j].kind == Kind::Ident && vars.count(t[j].text)) {
            add(t[j].line, "unordered-iteration",
                "range-for over unordered container '" + t[j].text +
                    "'; iteration order is implementation-defined — use an "
                    "ordered container or sort the keys first");
            break;
          }
      }
      // var.begin() / var.cbegin() — iterator loops and algorithms.
      if (t[i].kind == Kind::Ident && vars.count(t[i].text) &&
          i + 2 < t.size() && is(t[i + 1], ".") &&
          (is(t[i + 2], "begin") || is(t[i + 2], "cbegin") ||
           is(t[i + 2], "rbegin")))
        add(t[i].line, "unordered-iteration",
            "iterator over unordered container '" + t[i].text +
                "'; iteration order is implementation-defined");
    }
  }

  // digest-taint: a value obtained by iterating an unordered container
  // must not flow into an observability sink or a sort key. The obs
  // digests (event traces, metric counters) are part of the bit-exact
  // replay contract — repeated runs must emit byte-identical records — and a
  // sort keyed on hash-order-derived data is nondeterministic even when
  // the sorted range itself is not. Flow tracking is statement/local-init
  // only (tools/lint/symbols.hpp); collecting keys and sorting them is
  // the sanctioned fix and does not trip this rule.
  void digest_taint() {
    const auto& t = lx_.tokens;
    const auto& taint = symbols_.taint;
    if (taint.empty()) return;
    auto first_tainted = [&](std::size_t from,
                             std::size_t to) -> const Token* {
      for (std::size_t j = from; j < to && j < t.size(); ++j)
        if (t[j].kind == Kind::Ident && taint.count(t[j].text) != 0)
          return &t[j];
      return nullptr;
    };
    auto origin_of = [&](const Token& tok) {
      return taint.at(tok.text);
    };
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Kind::Ident) continue;
      const std::string& x = t[i].text;
      // sink.emit(...) / sink->emit(...): any emit call is an obs sink.
      const Token* pv = prev_tok(t, i);
      const bool member_call =
          pv != nullptr && (is(*pv, ".") || is(*pv, "->"));
      const bool on_sink_var =
          i >= 2 && member_call && t[i - 2].kind == Kind::Ident &&
          symbols_.sink_vars.count(t[i - 2].text) != 0;
      const bool sink_method =
          (x == "emit" && member_call) ||
          ((x == "add" || x == "set" || x == "sample") && on_sink_var);
      if (sink_method && i + 1 < t.size() && is(t[i + 1], "(")) {
        const std::size_t end = match_forward(t, i + 1, "(", ")");
        if (const Token* bad = first_tainted(i + 2, end - 1))
          add(bad->line, "digest-taint",
              "'" + bad->text + "' derives from iterating unordered "
              "container '" + origin_of(*bad) + "' and flows into obs "
              "sink " + x + "(); the emitted digest would depend on hash "
              "order — iterate a sorted copy instead");
        continue;
      }
      // obs::Event("...")...field(...): the fluent event builder. Scan
      // the whole statement — the chain's fields all land in the record.
      if (x == "Event" && !member_call && i + 1 < t.size() &&
          is(t[i + 1], "(")) {
        std::size_t end = i;
        int par = 0;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
          if (is(t[j], "(")) ++par;
          else if (is(t[j], ")")) {
            if (--par == 0 && (j + 1 >= t.size() || !is(t[j + 1], "."))) {
              end = j;
              break;
            }
          } else if (is(t[j], ";") && par == 0) {
            end = j;
            break;
          }
        }
        if (const Token* bad = first_tainted(i + 2, end))
          add(bad->line, "digest-taint",
              "'" + bad->text + "' derives from iterating unordered "
              "container '" + origin_of(*bad) + "' and flows into an obs "
              "Event record; the trace digest would depend on hash order");
        continue;
      }
      // std::sort / stable_sort with a tainted argument (typically a
      // comparator capturing hash-order-derived keys).
      if ((x == "sort" || x == "stable_sort") && !member_call &&
          i + 1 < t.size() && is(t[i + 1], "(") &&
          (pv == nullptr || !is(*pv, "::") || std_qualified(t, i))) {
        const std::size_t end = match_forward(t, i + 1, "(", ")");
        if (const Token* bad = first_tainted(i + 2, end - 1))
          add(bad->line, "digest-taint",
              "std::" + x + " keyed on '" + bad->text + "', which derives "
              "from iterating unordered container '" + origin_of(*bad) +
              "'; the resulting order depends on hash order");
      }
    }
  }

  // float-sort: std::sort on floating keys without a comparator. The
  // default operator< is not a strict weak order in the presence of NaN,
  // so the result (and everything downstream) is unspecified.
  void float_sort() {
    const auto& t = lx_.tokens;
    const FloatDecls decls = collect_float_decls(t);
    if (decls.vectors.empty()) return;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Kind::Ident ||
          (t[i].text != "sort" && t[i].text != "stable_sort"))
        continue;
      const Token* pv = prev_tok(t, i);
      if (pv != nullptr && (is(*pv, ".") || is(*pv, "->"))) continue;
      if (pv != nullptr && is(*pv, "::") && !std_qualified(t, i)) continue;
      if (i + 1 >= t.size() || !is(t[i + 1], "(")) continue;
      const std::size_t end = match_forward(t, i + 1, "(", ")");
      int depth = 0, commas = 0;
      bool float_range = false;
      for (std::size_t j = i + 1; j < end; ++j) {
        if (is(t[j], "(")) ++depth;
        else if (is(t[j], ")")) --depth;
        else if (is(t[j], ",") && depth == 1) ++commas;
        else if (t[j].kind == Kind::Ident && decls.vectors.count(t[j].text))
          float_range = true;
      }
      if (commas == 1 && float_range)
        add(t[i].line, "float-sort",
            "std::" + t[i].text +
                " on a float/double range without a comparator; NaN breaks "
                "strict weak ordering — pass an explicit total-order "
                "comparator");
    }
  }

  // float-eq: exact ==/!= on floating values. Outside tests this is
  // almost always a rounding bug; where exact comparison is the point
  // (tie-breaks, replay invariants) say so with LINT-ALLOW(float-eq).
  void float_eq() {
    const auto& t = lx_.tokens;
    const FloatDecls decls = collect_float_decls(t);
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Kind::Punct || (!is(t[i], "==") && !is(t[i], "!=")))
        continue;
      const Token* pv = prev_tok(t, i);
      const Token* nx = next_tok(t, i);
      auto floating = [&](const Token* tok) {
        if (tok == nullptr) return false;
        if (tok->kind == Kind::FloatLit) return true;
        return tok->kind == Kind::Ident && decls.scalars.count(tok->text) > 0;
      };
      // An identifier right of the operator that is itself member-accessed,
      // called, or qualified (`x != v.begin()`) is not the operand — the
      // access result is, and its type is unknown here.
      bool nx_is_value = floating(nx);
      if (nx_is_value && nx->kind == Kind::Ident) {
        const Token* after = next_tok(t, i + 1);
        if (after != nullptr && (is(*after, ".") || is(*after, "->") ||
                                 is(*after, "(") || is(*after, "::")))
          nx_is_value = false;
      }
      if (floating(pv) || nx_is_value)
        add(t[i].line, "float-eq",
            "exact " + t[i].text +
                " on floating-point values; compare with a tolerance, or "
                "mark a deliberate exact tie-break with LINT-ALLOW(float-eq)");
    }
  }

  // raw-mutex: naked std synchronization primitives carry no Clang
  // thread-safety annotations, so lock/unlock discipline on them is
  // invisible to -Wthread-safety. Wrap them in util/annotations.hpp.
  void raw_sync() {
    static const std::set<std::string> kBanned = {
        "mutex", "recursive_mutex", "shared_mutex", "timed_mutex",
        "condition_variable", "condition_variable_any", "lock_guard",
        "unique_lock", "scoped_lock", "shared_lock"};
    const auto& t = lx_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Kind::Ident || kBanned.count(t[i].text) == 0)
        continue;
      if (!std_qualified(t, i)) continue;
      add(t[i].line, "raw-mutex",
          "std::" + t[i].text +
              " is invisible to Clang thread-safety analysis; wrap it in "
              "an annotated capability class in util/annotations.hpp");
    }
  }

  std::string_view path_;
  const Lexed& lx_;
  const Options& opt_;
  SymbolTable symbols_;
  std::vector<Finding> findings_;
};

bool path_contains(std::string_view path, std::string_view part) {
  return path.find(part) != std::string_view::npos;
}

}  // namespace

Options options_for(std::string_view path) {
  Options o;
  const bool in_tests = path_contains(path, "tests/");
  const bool in_src = path_contains(path, "src/");
  o.check_float_eq = !in_tests;
  o.check_nondet = !in_tests;
  o.check_unordered_iter = in_src;
  o.check_digest_taint = in_src;
  o.check_raw_sync = !path_contains(path, "util/annotations.hpp");
  return o;
}

bool skip_path(std::string_view path) {
  return path_contains(path, "lint_fixtures") ||
         path_contains(path, "build") || path_contains(path, ".git/");
}

std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view text, const Options& opt) {
  const Lexed lx = lex(text);
  Linter linter(path, lx, opt);
  std::vector<Finding> out = linter.run();
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::vector<std::string> rule_names() {
  return {"unordered-iteration", "nondet-source",   "float-sort",
          "float-eq",            "include-hygiene", "raw-mutex",
          "digest-taint",        "layer-violation", "include-cycle"};
}

std::string format(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace locmps::lint
