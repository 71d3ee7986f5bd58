#include "lint/rules.hh"

#include <algorithm>
#include <set>
#include <string>

namespace bh::lint
{

namespace
{

using Kind = Token::Kind;

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size()
        && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** True when `path` is inside top-level directory `dir` ("src", ...).
 *  Fixture files mimic the tree (lint_fixtures/src/...), so a substring
 *  match keeps rule scoping identical for them. */
bool
inDir(const std::string &path, const std::string &dir)
{
    if (path.compare(0, dir.size() + 1, dir + "/") == 0)
        return true;
    return path.find("/" + dir + "/") != std::string::npos;
}

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == Kind::kIdent && t.text == text;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == Kind::kPunct && t.text == text;
}

/**
 * Skip a balanced template argument list. `i` indexes the opening `<`;
 * returns the index just past the matching `>`, or npos when the `<`
 * turns out not to open a template list (statement punctuation hit).
 * `overshot`, when non-null, is set when a `>>` token also closed an
 * enclosing template list — i.e. this list was nested inside another
 * template (vector<unordered_map<...>>).
 */
std::size_t
skipTemplateArgs(const std::vector<Token> &toks, std::size_t i,
                 bool *overshot = nullptr)
{
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
        const Token &t = toks[j];
        if (t.kind != Kind::kPunct)
            continue;
        if (t.text == "<") {
            ++depth;
        } else if (t.text == ">") {
            if (--depth == 0)
                return j + 1;
        } else if (t.text == ">>") {
            depth -= 2;
            if (depth <= 0) {
                if (overshot)
                    *overshot = depth < 0;
                return j + 1;
            }
        } else if (t.text == ";" || t.text == "{" || t.text == "}") {
            return std::string::npos;
        }
    }
    return std::string::npos;
}

/** Index of the `)` matching the `(` at `i` (npos when unbalanced). */
std::size_t
matchParen(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
        if (isPunct(toks[j], "("))
            ++depth;
        else if (isPunct(toks[j], ")") && --depth == 0)
            return j;
    }
    return std::string::npos;
}

void
add(std::vector<Finding> &out, const LexedFile &f, const char *rule,
    int line, std::string message)
{
    Finding finding;
    finding.rule = rule;
    finding.path = f.path;
    finding.line = line;
    finding.message = std::move(message);
    out.push_back(std::move(finding));
}

// --------------------------------------------------------------------
// R1 nondet: banned nondeterminism sources in simulation code.
// --------------------------------------------------------------------

const std::set<std::string> kBannedCalls = {
    "rand", "srand", "random", "rand_r", "drand48", "lrand48", "mrand48",
    "erand48", "nrand48", "jrand48", "srand48", "time", "clock",
    "gettimeofday", "clock_gettime", "timespec_get", "localtime", "gmtime",
    "mktime", "ftime",
};

const std::set<std::string> kOrderedContainers = {
    "map", "set", "multimap", "multiset",
    "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset",
};

void
ruleNondet(const LexedFile &f, std::vector<Finding> &out)
{
    // Timing sidecars measure wall clock by design.
    if (endsWith(f.path, "report/perf.cc") || endsWith(f.path, "bench/main.cc"))
        return;
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != Kind::kIdent)
            continue;

        // Banned libc call: `name(` not reached through a member or a
        // non-std namespace (std::time( is still banned).
        if (kBannedCalls.count(t.text) && i + 1 < toks.size()
            && isPunct(toks[i + 1], "(")) {
            bool member = i > 0
                && (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->"));
            bool otherNs = i >= 2 && isPunct(toks[i - 1], "::")
                && !isIdent(toks[i - 2], "std");
            if (!member && !otherNs) {
                add(out, f, "nondet", t.line,
                    "call to '" + t.text
                    + "' — nondeterministic; simulation code must derive "
                      "all values from the seeded Rng and simulated time");
            }
            continue;
        }

        // Wall-clock reads: `*_clock::now(`.
        if (endsWith(t.text, "_clock") && i + 2 < toks.size()
            && isPunct(toks[i + 1], "::") && isIdent(toks[i + 2], "now")) {
            add(out, f, "nondet", t.line,
                "wall-clock read '" + t.text
                + "::now' — simulation code must use simulated cycles");
            continue;
        }

        // Pointer-valued ordering/hash keys: std::map<T *, ...> etc.
        // Pointer values vary run to run (ASLR), so any container
        // ordered or hashed by them iterates nondeterministically.
        if (kOrderedContainers.count(t.text) && i >= 2
            && isPunct(toks[i - 1], "::") && isIdent(toks[i - 2], "std")
            && i + 1 < toks.size() && isPunct(toks[i + 1], "<")) {
            int depth = 0;
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                const Token &u = toks[j];
                if (u.kind != Kind::kPunct) {
                    continue;
                } else if (u.text == "<") {
                    ++depth;
                } else if (u.text == ">" || u.text == ">>") {
                    depth -= u.text == ">>" ? 2 : 1;
                    if (depth <= 0)
                        break;
                } else if (u.text == "," && depth == 1) {
                    break;      // end of the key type argument
                } else if (u.text == "*" && depth >= 1) {
                    add(out, f, "nondet", t.line,
                        "pointer-valued key in std::" + t.text
                        + " — pointer order/hashes vary per run; key on a "
                          "stable id instead");
                    break;
                } else if (u.text == ";" || u.text == "{") {
                    break;
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// R2 unordered-iter: no iteration over unordered containers.
// --------------------------------------------------------------------

const std::set<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset",
};

/**
 * Names of variables/members declared (in this token stream) with an
 * unordered container type, plus alias type names. Heuristic but
 * deliberate: this linter knows the repo, not the language.
 */
void
collectUnorderedNames(const std::vector<Token> &toks,
                      std::set<std::string> &typeNames,
                      std::set<std::string> &varNames,
                      std::set<std::string> *containerVarNames)
{
    // Pass 1: using NAME = std::unordered_map<...>; / typedef ... NAME;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (isIdent(toks[i], "using") && toks[i + 1].kind == Kind::kIdent
            && isPunct(toks[i + 2], "=")) {
            for (std::size_t j = i + 3;
                 j < toks.size() && !isPunct(toks[j], ";"); ++j) {
                if (toks[j].kind == Kind::kIdent
                    && kUnorderedTypes.count(toks[j].text)) {
                    typeNames.insert(toks[i + 1].text);
                    break;
                }
            }
        }
    }

    // Pass 2: declarations `unordered_map<...> name`. When the skip
    // overshoots (a `>>` closed an enclosing list too), the container is
    // nested inside an outer template — vector<unordered_map<...>> — so
    // iterating the declarator itself is order-safe, but its *elements*
    // are unordered: record it separately so range-for loop variables
    // over it get tainted.
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != Kind::kIdent)
            continue;
        std::size_t after = std::string::npos;
        bool nested = false;
        if (kUnorderedTypes.count(t.text) && i + 1 < toks.size()
            && isPunct(toks[i + 1], "<")) {
            after = skipTemplateArgs(toks, i + 1, &nested);
        } else if (typeNames.count(t.text)) {
            after = i + 1;
        }
        if (after == std::string::npos || after >= toks.size())
            continue;
        // Optional declarator decorations.
        while (after < toks.size()
               && (isPunct(toks[after], "&") || isPunct(toks[after], "*")
                   || isIdent(toks[after], "const")))
            ++after;
        if (after + 1 >= toks.size() || toks[after].kind != Kind::kIdent)
            continue;
        const Token &name = toks[after];
        const Token &next = toks[after + 1];
        if (isPunct(next, ";") || isPunct(next, "=") || isPunct(next, "{")
            || isPunct(next, ",") || isPunct(next, ")")
            || isPunct(next, "[")) {
            if (!nested)
                varNames.insert(name.text);
            else if (containerVarNames)
                containerVarNames->insert(name.text);
        }
    }
}

void
ruleUnorderedIter(const LexedFile &f, std::vector<Finding> &out,
                  const UnorderedNames &extra)
{
    if (!inDir(f.path, "src") && !inDir(f.path, "bench"))
        return;
    const auto &toks = f.tokens;
    std::set<std::string> typeNames, varNames(extra.direct),
        containerVars(extra.containers);
    collectUnorderedNames(toks, typeNames, varNames, &containerVars);

    auto isUnorderedExpr = [&](std::size_t b, std::size_t e) {
        bool sorted = false, unordered = false;
        for (std::size_t j = b; j < e; ++j) {
            if (toks[j].kind != Kind::kIdent)
                continue;
            if (toks[j].text == "sortedItems" || toks[j].text == "sortedKeys"
                || toks[j].text == "sortedMapKeys")
                sorted = true;
            if (varNames.count(toks[j].text)
                || kUnorderedTypes.count(toks[j].text)
                || typeNames.count(toks[j].text))
                unordered = true;
        }
        return unordered && !sorted;
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        // Range-for over an unordered container.
        if (isIdent(toks[i], "for") && i + 1 < toks.size()
            && isPunct(toks[i + 1], "(")) {
            std::size_t close = matchParen(toks, i + 1);
            if (close == std::string::npos)
                continue;
            // The range-for `:` sits at paren depth 1 (`::` is its own
            // token, so plain `:` is unambiguous).
            std::size_t colon = std::string::npos;
            int depth = 0;
            for (std::size_t j = i + 1; j < close; ++j) {
                if (isPunct(toks[j], "("))
                    ++depth;
                else if (isPunct(toks[j], ")"))
                    --depth;
                else if (isPunct(toks[j], ":") && depth == 1) {
                    colon = j;
                    break;
                }
            }
            if (colon != std::string::npos) {
                if (isUnorderedExpr(colon + 1, close)) {
                    add(out, f, "unordered-iter", toks[i].line,
                        "range-for over an unordered container — "
                        "iteration order is stdlib-specific; use "
                        "sortedItems()/sortedKeys() from "
                        "common/ordered.hh");
                } else {
                    // Range-for over an ordered container *of* unordered
                    // containers (vector<unordered_map<...>>): the walk
                    // itself is fine, but the loop variable now names an
                    // unordered container — taint it.
                    bool overContainer = false;
                    for (std::size_t j = colon + 1; j < close; ++j)
                        if (toks[j].kind == Kind::kIdent
                            && containerVars.count(toks[j].text))
                            overContainer = true;
                    if (overContainer && colon >= 1
                        && toks[colon - 1].kind == Kind::kIdent)
                        varNames.insert(toks[colon - 1].text);
                }
            }
            continue;
        }
        // Explicit iterator walk: name.begin() / name->cbegin() ...
        if (toks[i].kind == Kind::kIdent
            && (toks[i].text == "begin" || toks[i].text == "cbegin"
                || toks[i].text == "rbegin")
            && i >= 2 && i + 1 < toks.size() && isPunct(toks[i + 1], "(")
            && (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->"))
            && toks[i - 2].kind == Kind::kIdent
            && varNames.count(toks[i - 2].text)) {
            add(out, f, "unordered-iter", toks[i].line,
                "iterator walk over unordered container '"
                + toks[i - 2].text
                + "' — iteration order is stdlib-specific; use "
                  "sortedItems()/sortedKeys() from common/ordered.hh");
        }
    }
}

// --------------------------------------------------------------------
// R3a trace-gate: TraceSink emit calls lexically gated on on().
// --------------------------------------------------------------------

void
ruleTraceGate(const LexedFile &f, std::vector<Finding> &out)
{
    if (!inDir(f.path, "src") && !inDir(f.path, "bench"))
        return;
    // The sink's own implementation necessarily "emits" ungated.
    if (endsWith(f.path, "common/trace_sink.cc"))
        return;
    const auto &toks = f.tokens;

    int braceDepth = 0;
    std::vector<int> gateDepths;    // depths of gated `{` scopes
    bool pendingBraceGate = false;  // gate condition just closed, `{` next
    bool stmtGate = false;          // braceless gated single statement

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (isPunct(t, "{")) {
            ++braceDepth;
            if (pendingBraceGate) {
                gateDepths.push_back(braceDepth);
                pendingBraceGate = false;
                stmtGate = false;
            }
            continue;
        }
        if (isPunct(t, "}")) {
            --braceDepth;
            while (!gateDepths.empty() && gateDepths.back() > braceDepth)
                gateDepths.pop_back();
            continue;
        }
        if (isPunct(t, ";")) {
            stmtGate = false;
            pendingBraceGate = false;
            continue;
        }
        if (isIdent(t, "if") && i + 1 < toks.size()
            && isPunct(toks[i + 1], "(")) {
            std::size_t close = matchParen(toks, i + 1);
            if (close == std::string::npos)
                continue;
            bool gated = false;
            for (std::size_t j = i + 2; j + 2 < close; ++j) {
                if (isIdent(toks[j], "TraceSink")
                    && isPunct(toks[j + 1], "::")
                    && isIdent(toks[j + 2], "on")
                    && !(j > 0 && isPunct(toks[j - 1], "!"))) {
                    gated = true;
                    break;
                }
            }
            if (gated) {
                if (close + 1 < toks.size()
                    && isPunct(toks[close + 1], "{")) {
                    pendingBraceGate = true;
                } else {
                    stmtGate = true;
                }
                i = close;
            }
            continue;
        }
        if (isIdent(t, "TraceSink") && i + 2 < toks.size()
            && isPunct(toks[i + 1], "::")
            && (isIdent(toks[i + 2], "instant")
                || isIdent(toks[i + 2], "complete")
                || isIdent(toks[i + 2], "counter"))
            && i + 3 < toks.size() && isPunct(toks[i + 3], "(")) {
            if (gateDepths.empty() && !stmtGate) {
                add(out, f, "trace-gate", t.line,
                    "TraceSink::" + toks[i + 2].text
                    + " not lexically gated on TraceSink::on() — the "
                      "observation-only contract requires the single-"
                      "branch gate at every emit site");
            }
        }
    }
}

// --------------------------------------------------------------------
// R3b observer-const: observer hook headers take only const state.
// --------------------------------------------------------------------

void
ruleObserverConst(const LexedFile &f, std::vector<Finding> &out)
{
    if (!endsWith(f.path, "analysis/rowhammer_observer.hh"))
        return;
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        // Parameter lists: ident directly followed by `(`.
        if (toks[i].kind != Kind::kIdent || i + 1 >= toks.size()
            || !isPunct(toks[i + 1], "("))
            continue;
        std::size_t close = matchParen(toks, i + 1);
        if (close == std::string::npos)
            continue;
        std::size_t paramStart = i + 2;
        int depth = 0;
        for (std::size_t j = i + 1; j <= close; ++j) {
            bool paramEnd = false;
            if (isPunct(toks[j], "(")) {
                ++depth;
            } else if (isPunct(toks[j], ")")) {
                paramEnd = --depth == 0;
            } else if (isPunct(toks[j], ",") && depth == 1) {
                paramEnd = true;
            }
            if (!paramEnd)
                continue;
            bool hasConst = false, hasRefPtr = false;
            for (std::size_t k = paramStart; k < j; ++k) {
                if (isIdent(toks[k], "const"))
                    hasConst = true;
                if (isPunct(toks[k], "&") || isPunct(toks[k], "*"))
                    hasRefPtr = true;
            }
            if (hasRefPtr && !hasConst) {
                add(out, f, "observer-const", toks[paramStart].line,
                    "observer hook parameter of '" + toks[i].text
                    + "' is a mutable reference/pointer — observers must "
                      "take only const simulation state");
            }
            paramStart = j + 1;
        }
        i = close;
    }
}

// --------------------------------------------------------------------
// R4 rng-discipline: all randomness flows through a seeded bh::Rng.
// --------------------------------------------------------------------

const std::set<std::string> kStdEngines = {
    "random_device", "mt19937", "mt19937_64", "minstd_rand",
    "minstd_rand0", "default_random_engine", "ranlux24", "ranlux48",
    "knuth_b",
};

void
ruleRngDiscipline(const LexedFile &f, std::vector<Finding> &out)
{
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind == Kind::kPreproc) {
            if (t.text.find("include") != std::string::npos
                && t.text.find("<random>") != std::string::npos) {
                add(out, f, "rng-discipline", t.line,
                    "#include <random> — all randomness must flow "
                    "through bh::Rng (common/rng.hh) so streams are "
                    "explicitly seeded and forkable");
            }
            continue;
        }
        if (t.kind == Kind::kIdent && kStdEngines.count(t.text)) {
            add(out, f, "rng-discipline", t.line,
                "std::" + t.text
                + " — use the explicitly seeded bh::Rng instead");
            continue;
        }
        // Rng constructed from a nondeterministic or address-derived
        // expression: the seed must be a pure value.
        if (isIdent(t, "Rng") && i + 1 < toks.size()
            && isPunct(toks[i + 1], "(")) {
            std::size_t close = matchParen(toks, i + 1);
            if (close == std::string::npos)
                continue;
            for (std::size_t j = i + 2; j < close; ++j) {
                const Token &u = toks[j];
                bool bad = (u.kind == Kind::kIdent
                            && (kBannedCalls.count(u.text)
                                || kStdEngines.count(u.text)
                                || endsWith(u.text, "_clock")
                                || u.text == "uintptr_t"))
                    || isIdent(u, "this");
                if (bad) {
                    add(out, f, "rng-discipline", t.line,
                        "Rng seeded from '" + u.text
                        + "' — seeds must be pure values derived from "
                          "the experiment's master seed");
                    break;
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// R5 member-init: POD data members carry in-class initializers.
// --------------------------------------------------------------------

const std::set<std::string> kPodBase = {
    "bool", "char", "short", "int", "long", "float", "double",
    "unsigned", "signed",
    "wchar_t", "char16_t", "char32_t", "size_t", "ptrdiff_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "intptr_t", "uintptr_t",
    // Repo-local integral aliases (common/types.hh).
    "Cycle", "RowId", "Addr", "ThreadId",
};

const std::set<std::string> kTypeModifiers = {
    "std", "const", "volatile", "unsigned", "signed", "mutable", "long",
    "short",
};

/** Skip to the `}` matching the `{` at `i`; returns index past it. */
std::size_t
skipBraces(const std::vector<Token> &toks, std::size_t i)
{
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
        if (isPunct(toks[j], "{"))
            ++depth;
        else if (isPunct(toks[j], "}") && --depth == 0)
            return j + 1;
    }
    return toks.size();
}

/** One declarator group of a member statement. */
void
checkMemberGroup(const LexedFile &f, const std::vector<Token> &type,
                 const std::vector<Token> &decl, std::vector<Finding> &out)
{
    if (decl.empty())
        return;
    // Initialized (`= ...` or `{...}` marked by lint as `=`)?
    for (const auto &t : decl)
        if (isPunct(t, "=") || isPunct(t, "{"))
            return;
    // Declarator name: first ident in the group (the rest is [] or :).
    const Token *name = nullptr;
    std::size_t nameIdx = 0;
    for (std::size_t i = 0; i < decl.size(); ++i) {
        if (decl[i].kind == Kind::kIdent
            && !isIdent(decl[i], "const") && !isIdent(decl[i], "mutable")) {
            name = &decl[i];
            nameIdx = i;
            break;
        }
    }
    if (!name)
        return;
    // Bitfields cannot take default member initializers before C++20.
    if (nameIdx + 1 < decl.size() && isPunct(decl[nameIdx + 1], ":"))
        return;

    bool pointer = false, reference = false, podName = false, other = false;
    auto classify = [&](const std::vector<Token> &ts, std::size_t from,
                        std::size_t to) {
        for (std::size_t i = from; i < to; ++i) {
            const Token &t = ts[i];
            if (isPunct(t, "*")) {
                pointer = true;
            } else if (isPunct(t, "&") || isPunct(t, "&&")) {
                reference = true;
            } else if (t.kind == Kind::kIdent) {
                if (kPodBase.count(t.text))
                    podName = true;
                else if (!kTypeModifiers.count(t.text))
                    other = true;
            }
        }
    };
    classify(type, 0, type.size());
    classify(decl, 0, nameIdx);     // group-local decorations (*, &)
    if (reference || other)
        return;
    if (!pointer && !podName)
        return;
    add(out, f, "member-init", name->line,
        std::string(pointer ? "pointer" : "POD") + " member '" + name->text
        + "' has no in-class initializer — uninitialized members read "
          "indeterminate values and silently break run-to-run "
          "determinism; default it here");
}

void
checkMemberStatement(const LexedFile &f, const std::vector<Token> &stmt,
                     std::vector<Finding> &out)
{
    if (stmt.empty())
        return;
    static const std::set<std::string> kSkipLead = {
        "using", "typedef", "friend", "static", "template", "operator",
        "public", "private", "protected", "enum", "struct", "class",
        "union", "virtual", "explicit", "inline", "constexpr", "extern",
        "namespace",
    };
    if (stmt[0].kind == Kind::kIdent && kSkipLead.count(stmt[0].text))
        return;
    for (const auto &t : stmt) {
        if (isPunct(t, "("))
            return;     // function declaration / pointer-to-function
        if (t.kind == Kind::kPreproc)
            return;
        if (t.kind == Kind::kIdent && kSkipLead.count(t.text)
            && t.text != "struct" && t.text != "class")
            return;
    }
    // Split into type + comma-separated declarator groups, tracking
    // template depth so `map<K, V>` commas don't split.
    int angle = 0;
    std::vector<std::vector<Token>> groups(1);
    for (const auto &t : stmt) {
        if (isPunct(t, "<"))
            ++angle;
        else if (isPunct(t, ">"))
            angle = std::max(0, angle - 1);
        else if (isPunct(t, ">>"))
            angle = std::max(0, angle - 2);
        if (isPunct(t, ",") && angle == 0) {
            groups.emplace_back();
            continue;
        }
        groups.back().push_back(t);
    }
    // The first group carries the type: everything before the last
    // ident that starts the declarator. Find the declarator of group 0:
    // the last ident whose successor is not `::`/ident (i.e. the name).
    auto &first = groups[0];
    std::size_t split = first.size();
    for (std::size_t i = first.size(); i > 0; --i) {
        const Token &t = first[i - 1];
        if (t.kind == Kind::kIdent && !kTypeModifiers.count(t.text)) {
            bool qualified = i >= 2 && isPunct(first[i - 2], "::");
            if (!qualified) {
                split = i - 1;
                break;
            }
            i -= 1;     // skip the qualifier chain
        }
        if (isPunct(t, "=") || isPunct(t, "{"))
            return;     // initialized — nothing to check
    }
    if (split == first.size() || split == 0)
        return;     // no separable type/declarator (e.g. lone ident)
    std::vector<Token> type(first.begin(), first.begin() + split);
    std::vector<Token> decl0(first.begin() + split, first.end());
    checkMemberGroup(f, type, decl0, out);
    for (std::size_t g = 1; g < groups.size(); ++g)
        checkMemberGroup(f, type, groups[g], out);
}

void
ruleMemberInit(const LexedFile &f, std::vector<Finding> &out)
{
    if (!inDir(f.path, "src"))
        return;
    const auto &toks = f.tokens;

    // Scope stack: what each open `{` is.
    enum class Scope { kClass, kOther };
    std::vector<Scope> scopes;
    std::vector<Token> stmt;    // current statement at class level

    auto atClassLevel = [&]() {
        return !scopes.empty() && scopes.back() == Scope::kClass;
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind == Kind::kPreproc)
            continue;

        if (isPunct(t, "{")) {
            // Classify this scope from the statement head before it.
            std::size_t b = i;
            bool sawParen = false;
            std::vector<const Token *> head;
            while (b > 0) {
                const Token &p = toks[b - 1];
                if (isPunct(p, ";") || isPunct(p, "{") || isPunct(p, "}"))
                    break;
                if (isPunct(p, ")"))
                    sawParen = true;
                head.push_back(&p);
                --b;
            }
            std::reverse(head.begin(), head.end());
            bool classHead = false, enumHead = false, aggInit = false;
            for (const auto *h : head) {
                if (isIdent(*h, "enum")) {
                    enumHead = true;
                    break;
                }
                if (isIdent(*h, "union")) {
                    enumHead = true;    // opaque, like enums
                    break;
                }
                if ((isIdent(*h, "struct") || isIdent(*h, "class"))
                    && !sawParen) {
                    classHead = true;
                }
                if (isPunct(*h, "="))
                    aggInit = true;
            }
            // `= { ... }` initializer at class level: mark the current
            // statement initialized and consume the braces inline.
            if (atClassLevel() && (aggInit || (!head.empty()
                    && isPunct(*head.back(), "=")))) {
                stmt.push_back(t);      // records `{` => initialized
                i = skipBraces(toks, i) - 1;
                continue;
            }
            if (enumHead) {
                i = skipBraces(toks, i) - 1;
                if (atClassLevel()) {
                    // `enum X { ... };` inside a class: swallow through
                    // the trailing `;` by clearing the statement.
                    stmt.clear();
                }
                continue;
            }
            if (atClassLevel() && !classHead) {
                // Inline function body (or similar) inside the class:
                // opaque; the statement before it was a function head.
                stmt.clear();
                i = skipBraces(toks, i) - 1;
                continue;
            }
            scopes.push_back(classHead ? Scope::kClass : Scope::kOther);
            stmt.clear();
            continue;
        }
        if (isPunct(t, "}")) {
            if (!scopes.empty())
                scopes.pop_back();
            stmt.clear();
            continue;
        }
        if (!atClassLevel())
            continue;
        if (isPunct(t, ";")) {
            checkMemberStatement(f, stmt, out);
            stmt.clear();
            continue;
        }
        // Access specifiers end with `:` — treat as separators. A plain
        // `:` directly after public/private/protected only.
        if (isPunct(t, ":") && !stmt.empty()
            && stmt.size() == 1 && stmt[0].kind == Kind::kIdent
            && (stmt[0].text == "public" || stmt[0].text == "private"
                || stmt[0].text == "protected")) {
            stmt.clear();
            continue;
        }
        stmt.push_back(t);
    }
}

} // namespace

std::vector<std::string>
ruleIds()
{
    return {"nondet", "unordered-iter", "trace-gate", "observer-const",
            "rng-discipline", "member-init"};
}

std::string
ruleDescription(const std::string &rule)
{
    if (rule == "nondet")
        return "banned nondeterminism source in simulation code (R1)";
    if (rule == "unordered-iter")
        return "iteration over an unordered container (R2)";
    if (rule == "trace-gate")
        return "TraceSink emit not gated on TraceSink::on() (R3)";
    if (rule == "observer-const")
        return "observer hook takes mutable simulation state (R3)";
    if (rule == "rng-discipline")
        return "randomness outside the seeded bh::Rng discipline (R4)";
    if (rule == "member-init")
        return "POD member without in-class initializer (R5)";
    if (rule == "bad-suppression")
        return "malformed bh-lint: allow(...) annotation";
    return "";
}

UnorderedNames
unorderedNames(const LexedFile &file)
{
    UnorderedNames names;
    std::set<std::string> typeNames;
    collectUnorderedNames(file.tokens, typeNames, names.direct,
                          &names.containers);
    return names;
}

std::vector<Finding>
runRules(const LexedFile &file, const UnorderedNames &extra)
{
    std::vector<Finding> out;
    if (!inDir(file.path, "src") && !inDir(file.path, "bench")
        && !inDir(file.path, "tests"))
        return out;
    ruleNondet(file, out);
    ruleUnorderedIter(file, out, extra);
    ruleTraceGate(file, out);
    ruleObserverConst(file, out);
    ruleRngDiscipline(file, out);
    ruleMemberInit(file, out);
    return out;
}

} // namespace bh::lint
