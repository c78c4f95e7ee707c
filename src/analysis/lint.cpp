#include "analysis/lint.h"

#include <algorithm>
#include <cctype>
#include <cstddef>

#include "core/scheme.h"

namespace pra::analysis {

namespace {

// NOTE: the forbidden-pattern spellings below are assembled from split
// string literals so this file does not itself trip the entropy rule
// when scanned.

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const auto nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            lines.push_back(text.substr(pos));
            break;
        }
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

/**
 * Blank out // and block comments (newlines preserved, so line numbers
 * survive). String and char literal contents are kept: the entropy rule
 * must still see device-path literals.
 */
std::string
stripComments(const std::string &text)
{
    std::string out = text;
    enum class S { Code, Line, Block, Str, Chr } s = S::Code;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const char c = out[i];
        const char n = i + 1 < out.size() ? out[i + 1] : '\0';
        switch (s) {
          case S::Code:
            if (c == '/' && n == '/') {
                s = S::Line;
                out[i] = ' ';
            } else if (c == '/' && n == '*') {
                s = S::Block;
                out[i] = ' ';
            } else if (c == '"') {
                s = S::Str;
            } else if (c == '\'' && !(i > 0 && identChar(out[i - 1]))) {
                // A quote straight after an identifier char is a digit
                // separator (120'000), not a char literal.
                s = S::Chr;
            }
            break;
          case S::Line:
            if (c == '\n')
                s = S::Code;
            else
                out[i] = ' ';
            break;
          case S::Block:
            if (c == '*' && n == '/') {
                out[i] = ' ';
                out[i + 1] = ' ';
                ++i;
                s = S::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case S::Str:
            if (c == '\\')
                ++i;
            else if (c == '"')
                s = S::Code;
            break;
          case S::Chr:
            if (c == '\\')
                ++i;
            else if (c == '\'')
                s = S::Code;
            break;
        }
    }
    return out;
}

bool
wordBoundedAt(const std::string &text, std::size_t pos, std::size_t len)
{
    if (pos > 0 && identChar(text[pos - 1]))
        return false;
    const std::size_t end = pos + len;
    return end >= text.size() || !identChar(text[end]);
}

std::size_t
findIdentifier(const std::string &text, const std::string &ident,
               std::size_t from = 0)
{
    for (std::size_t pos = text.find(ident, from); pos != std::string::npos;
         pos = text.find(ident, pos + 1)) {
        if (wordBoundedAt(text, pos, ident.size()))
            return pos;
    }
    return std::string::npos;
}

/** One data-member declaration with its 1-based source line. */
struct FieldDecl
{
    std::string name;
    unsigned line = 0;
};

bool
startsWithKeyword(const std::string &stmt)
{
    static const char *const kSkip[] = {
        "public", "private", "protected", "using",  "typedef",
        "static", "friend",  "enum",      "struct", "class",
        "template",
    };
    for (const char *kw : kSkip) {
        const std::size_t n = std::string(kw).size();
        if (stmt.compare(0, n, kw) == 0 &&
            (stmt.size() == n || !identChar(stmt[n])))
            return true;
    }
    return false;
}

/** Last whitespace-separated token of @p stmt, stripped of ref/ptr. */
std::string
lastToken(const std::string &stmt)
{
    std::size_t end = stmt.find_last_not_of(" \t");
    if (end == std::string::npos)
        return {};
    std::size_t begin = end;
    while (begin > 0 && !std::isspace(static_cast<unsigned char>(
                            stmt[begin - 1])))
        --begin;
    std::string tok = stmt.substr(begin, end - begin + 1);
    while (!tok.empty() && (tok.front() == '&' || tok.front() == '*'))
        tok.erase(tok.begin());
    return tok;
}

bool
validIdentifier(const std::string &tok)
{
    if (tok.empty() || std::isdigit(static_cast<unsigned char>(tok[0])))
        return false;
    return std::all_of(tok.begin(), tok.end(), identChar);
}

std::vector<FieldDecl>
structFieldDecls(const std::string &text, const std::string &struct_name)
{
    const std::string stripped = stripComments(text);
    std::vector<FieldDecl> fields;

    // Locate `struct Name ... {` (skipping forward declarations).
    std::size_t open = std::string::npos;
    for (std::size_t pos = findIdentifier(stripped, struct_name);
         pos != std::string::npos;
         pos = findIdentifier(stripped, struct_name, pos + 1)) {
        const auto stop = stripped.find_first_of(";{", pos);
        if (stop != std::string::npos && stripped[stop] == '{') {
            open = stop;
            break;
        }
    }
    if (open == std::string::npos)
        return fields;

    unsigned line = 1 + static_cast<unsigned>(
                        std::count(stripped.begin(),
                                   stripped.begin() +
                                       static_cast<std::ptrdiff_t>(open),
                                   '\n'));
    // Accumulate depth-1 statements; `{...}` groups are elided (they are
    // either member-function bodies — discarded, the statement had a '('
    // — or brace initializers, which the name precedes anyway).
    std::string stmt;
    unsigned stmtLine = 0;
    auto flush = [&]() {
        if (!stmt.empty() && stmt.find('(') == std::string::npos &&
            !startsWithKeyword(stmt)) {
            const auto cut = stmt.find_first_of("=[");
            std::string decl =
                cut == std::string::npos ? stmt : stmt.substr(0, cut);
            const std::string name = lastToken(decl);
            if (validIdentifier(name))
                fields.push_back({name, stmtLine});
        }
        stmt.clear();
        stmtLine = 0;
    };
    int depth = 1;
    bool pendingBody = false;   // Elided a brace group for this statement.
    for (std::size_t i = open + 1; i < stripped.size() && depth > 0; ++i) {
        const char c = stripped[i];
        if (c == '\n')
            ++line;
        if (depth > 1) {
            if (c == '{')
                ++depth;
            else if (c == '}')
                --depth;
            continue;
        }
        switch (c) {
          case '{':
            ++depth;
            pendingBody = true;
            break;
          case '}':
            depth = 0;   // Struct closed.
            break;
          case ';':
            flush();
            pendingBody = false;
            break;
          default:
            if (pendingBody && !std::isspace(static_cast<unsigned char>(c))) {
                // Text after a brace group without an intervening ';'
                // means the group was a function body; the statement so
                // far was its signature.
                stmt.clear();
                stmtLine = 0;
                pendingBody = false;
            }
            if (!std::isspace(static_cast<unsigned char>(c)) &&
                stmtLine == 0)
                stmtLine = line;
            if (!pendingBody)
                stmt += c;
            break;
        }
    }
    return fields;
}

/** Enumerator declarations of `enum [class] Name` with source lines. */
std::vector<FieldDecl>
enumMemberDecls(const std::string &text, const std::string &enum_name)
{
    const std::string stripped = stripComments(text);
    std::vector<FieldDecl> members;

    // Locate the definition: the name, preceded by the `enum` keyword
    // (directly or through `class`/`struct`), followed by `{` (possibly
    // through an underlying-type clause). Forward declarations end in
    // ';' and are skipped.
    std::size_t open = std::string::npos;
    for (std::size_t pos = findIdentifier(stripped, enum_name);
         pos != std::string::npos;
         pos = findIdentifier(stripped, enum_name, pos + 1)) {
        const std::size_t window = pos > 24 ? pos - 24 : 0;
        const std::string before = stripped.substr(window, pos - window);
        if (findIdentifier(before, "enum") == std::string::npos)
            continue;
        const auto stop = stripped.find_first_of(";{", pos);
        if (stop != std::string::npos && stripped[stop] == '{') {
            open = stop;
            break;
        }
    }
    if (open == std::string::npos)
        return members;

    unsigned line = 1 + static_cast<unsigned>(
                        std::count(stripped.begin(),
                                   stripped.begin() +
                                       static_cast<std::ptrdiff_t>(open),
                                   '\n'));
    bool expectName = true;
    for (std::size_t i = open + 1; i < stripped.size(); ++i) {
        const char c = stripped[i];
        if (c == '\n') {
            ++line;
            continue;
        }
        if (c == '}')
            break;
        if (c == ',') {
            expectName = true;
            continue;
        }
        if (expectName && identChar(c)) {
            std::string name;
            while (i < stripped.size() && identChar(stripped[i]))
                name += stripped[i++];
            --i;
            if (validIdentifier(name))
                members.push_back({name, line});
            // Anything until the next ',' (an `= expr` initializer)
            // belongs to this enumerator.
            expectName = false;
        }
    }
    return members;
}

// --- Rule: entropy ------------------------------------------------------

const std::string kCallPatterns[] = {
    // Split literals: see NOTE at the top of this namespace.
    "ra" "nd",    "sra" "nd",        "rand" "_r",
    "rand" "om",  "drand" "48",      "ti" "me",
    "gettime" "ofday",  "clock_get" "time",  "clo" "ck",
};

const std::string kBareIdentifiers[] = {
    "random" "_device",
    "system" "_clock",
    "steady" "_clock",
    "high_resolution" "_clock",
    "get" "entropy",
};

const std::string kLiteralNeedles[] = {
    "/dev/u" "random",
    "/dev/" "random",
};

void
lintEntropy(const SourceFile &f, const std::vector<std::string> &lines,
            std::vector<LintIssue> &issues)
{
    // Scoped to src/: tests/ files enter the scan only as the
    // fault-coverage reference corpus and legitimately spell forbidden
    // patterns inside drill inputs.
    if (f.path.find("src/") == std::string::npos)
        return;
    if (f.path.size() >= 12 &&
        f.path.compare(f.path.size() - 12, 12, "common/rng.h") == 0)
        return;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string &line = lines[li];
        auto report = [&](const std::string &what) {
            issues.push_back({f.path, static_cast<unsigned>(li + 1),
                              "entropy",
                              what + " — all randomness must flow through "
                                     "common/rng.h and all time must be "
                                     "simulated Cycle time"});
        };
        for (const std::string &name : kCallPatterns) {
            for (std::size_t pos = line.find(name); pos != std::string::npos;
                 pos = line.find(name, pos + 1)) {
                if (!wordBoundedAt(line, pos, name.size()))
                    continue;
                if (pos > 0 && line[pos - 1] == '.')
                    continue;   // Member call on an unrelated object.
                std::size_t after = pos + name.size();
                while (after < line.size() &&
                       std::isspace(static_cast<unsigned char>(line[after])))
                    ++after;
                if (after < line.size() && line[after] == '(') {
                    report("call to " + name + "()");
                    break;
                }
            }
        }
        for (const std::string &name : kBareIdentifiers) {
            if (findIdentifier(line, name) != std::string::npos)
                report("use of " + name);
        }
        for (const std::string &needle : kLiteralNeedles) {
            if (line.find(needle) != std::string::npos) {
                report("use of " + needle);
                break;   // The urandom needle contains no random match,
                         // but report each line once.
            }
        }
    }
}

// --- Rule: unordered-iteration ------------------------------------------

bool
resultAffectingPath(const std::string &path)
{
    for (const char *dir : {"src/dram", "src/sim", "src/cache"}) {
        if (path.find(dir) != std::string::npos)
            return true;
    }
    return false;
}

/** Names of variables/members declared as unordered_{map,set} in @p text. */
std::vector<std::string>
unorderedNames(const std::string &text)
{
    std::vector<std::string> names;
    for (const char *kind : {"unordered_map", "unordered_set"}) {
        const std::string key = std::string(kind) + "<";
        for (std::size_t pos = text.find(key); pos != std::string::npos;
             pos = text.find(key, pos + key.size())) {
            // Match the template argument brackets.
            std::size_t i = pos + key.size();
            int depth = 1;
            while (i < text.size() && depth > 0) {
                if (text[i] == '<')
                    ++depth;
                else if (text[i] == '>')
                    --depth;
                ++i;
            }
            // Skip whitespace and ref/ptr to the declared name.
            while (i < text.size() &&
                   (std::isspace(static_cast<unsigned char>(text[i])) ||
                    text[i] == '&' || text[i] == '*'))
                ++i;
            std::string name;
            while (i < text.size() && identChar(text[i]))
                name += text[i++];
            if (validIdentifier(name) &&
                std::find(names.begin(), names.end(), name) == names.end())
                names.push_back(name);
        }
    }
    return names;
}

bool
suppressed(const std::vector<std::string> &raw, std::size_t li,
           const char *marker)
{
    for (std::size_t back = 0; back <= 1 && back <= li; ++back) {
        if (raw[li - back].find(marker) != std::string::npos)
            return true;
    }
    return false;
}

void
lintUnorderedIteration(const SourceFile &f,
                       const std::vector<std::string> &raw,
                       const std::vector<std::string> &stripped,
                       const std::vector<std::string> &names,
                       std::vector<LintIssue> &issues)
{
    if (!resultAffectingPath(f.path) || names.empty())
        return;

    for (std::size_t li = 0; li < stripped.size(); ++li) {
        const std::string &line = stripped[li];
        for (const std::string &n : names) {
            bool flagged = false;
            // Range-for over the container.
            for (std::size_t pos = findIdentifier(line, n);
                 pos != std::string::npos && !flagged;
                 pos = findIdentifier(line, n, pos + 1)) {
                std::size_t before = pos;
                while (before > 0 && line[before - 1] == ' ')
                    --before;
                if (before == 0 || line[before - 1] != ':' ||
                    (before >= 2 && line[before - 2] == ':'))
                    continue;   // Not `: name` (or it is `::name`).
                if (line.find("for") == std::string::npos)
                    continue;
                const std::size_t after = pos + n.size();
                if (after < line.size() &&
                    (line[after] == '.' || line[after] == '['))
                    continue;   // Element access: the range iterated is
                                // the mapped value, not the container.
                flagged = true;
            }
            // Explicit iterator walk.
            if (!flagged) {
                for (const char *m : {".begin", ".cbegin", ".rbegin"}) {
                    if (line.find(n + m) != std::string::npos) {
                        flagged = true;
                        break;
                    }
                }
            }
            if (flagged && !suppressed(raw, li, "pra-lint: unordered-ok")) {
                issues.push_back(
                    {f.path, static_cast<unsigned>(li + 1),
                     "unordered-iteration",
                     "iteration over unordered container '" + n +
                         "' in result-affecting code — hash order is not "
                         "deterministic across library versions; sort "
                         "keys first and annotate the loop with "
                         "`pra-lint: unordered-ok`, or use an ordered "
                         "container"});
            }
        }
    }
}

// --- Rule: timing-locality ----------------------------------------------

/**
 * True when @p path names an issue-path translation unit covered by the
 * timing-locality rule: the controller, the bank/rank FSM layers, the
 * bus arbiter, the maintenance engine, the wake-up heap, and every
 * scheduler policy. timing_tables.* (the table builder — the one place
 * allowed to read raw Timing fields) and checker.* (the independent
 * oracle, deliberately a second derivation) fall outside the scope by
 * construction: their stems are not in the list and they do not live
 * under src/dram/sched/.
 */
bool
timingLocalityScoped(const std::string &path)
{
    if (path.find("src/dram/") == std::string::npos)
        return false;
    const std::size_t slash = path.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    if (dot == std::string::npos)
        return false;
    const std::string ext = base.substr(dot + 1);
    if (ext != "h" && ext != "cpp")
        return false;
    if (path.find("src/dram/sched/") != std::string::npos)
        return true;
    const std::string stem = base.substr(0, dot);
    for (const char *s : {"controller", "bank", "bank_engine",
                          "bus_arbiter", "rank", "maintenance_engine",
                          "wakeup_heap"}) {
        if (stem == s)
            return true;
    }
    return false;
}

void
lintTimingLocality(const SourceFile &f, const std::vector<std::string> &raw,
                   const std::vector<std::string> &stripped,
                   std::vector<LintIssue> &issues)
{
    if (!timingLocalityScoped(f.path))
        return;
    for (std::size_t li = 0; li < stripped.size(); ++li) {
        const std::string &line = stripped[li];
        const bool hit =
            findIdentifier(line, "timing") != std::string::npos ||
            findIdentifier(line, "Timing") != std::string::npos;
        if (hit && !suppressed(raw, li, "pra-lint: timing-ok")) {
            issues.push_back(
                {f.path, static_cast<unsigned>(li + 1), "timing-locality",
                 "raw timing-parameter access in issue-path code — "
                 "hot-path legality must flow through the precomputed "
                 "command-pair gap tables (src/dram/timing_tables.h); add "
                 "the derived gap to the table builder instead, or "
                 "annotate a vetted cold-path site with "
                 "`pra-lint: timing-ok`"});
        }
    }
}

// --- Rule: scheme-locality ----------------------------------------------

/**
 * Scheme behaviour is owned by the SchemeModel plugins; only the
 * registry TU (src/core/scheme.{h,cpp}) may enumerate the scheme
 * world. Everything else under src/ is in scope.
 */
bool
schemeLocalityScoped(const std::string &path)
{
    if (path.find("src/") == std::string::npos)
        return false;
    return path.find("core/scheme.h") == std::string::npos &&
           path.find("core/scheme.cpp") == std::string::npos;
}

std::string
lowercased(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** Registered scheme names/spellings, lowercased (computed once). */
const std::vector<std::string> &
registeredSchemeSpellings()
{
    static const std::vector<std::string> spellings = [] {
        std::vector<std::string> out;
        auto add = [&](const std::string &s) {
            const std::string low = lowercased(s);
            if (std::find(out.begin(), out.end(), low) == out.end())
                out.push_back(low);
        };
        for (const SchemeModel *s : pra::allSchemes()) {
            add(s->name());
            add(s->displayName());
            for (const std::string &a : s->aliases())
                add(a);
        }
        return out;
    }();
    return spellings;
}

/**
 * True when the string literal spanning [q1, q2] (quote positions) in
 * @p line sits beside an ==/!= comparison operator.
 */
bool
literalComparedAt(const std::string &line, std::size_t q1, std::size_t q2)
{
    std::size_t before = q1;
    while (before > 0 && line[before - 1] == ' ')
        --before;
    if (before >= 2 && line[before - 1] == '=' &&
        (line[before - 2] == '=' || line[before - 2] == '!'))
        return true;
    std::size_t after = q2 + 1;
    while (after < line.size() && line[after] == ' ')
        ++after;
    return after + 1 < line.size() &&
           (line[after] == '=' || line[after] == '!') &&
           line[after + 1] == '=';
}

void
lintSchemeLocality(const SourceFile &f, const std::vector<std::string> &raw,
                   const std::vector<std::string> &stripped,
                   std::vector<LintIssue> &issues)
{
    if (!schemeLocalityScoped(f.path))
        return;
    for (std::size_t li = 0; li < stripped.size(); ++li) {
        const std::string &line = stripped[li];
        auto report = [&](const std::string &what) {
            issues.push_back(
                {f.path, static_cast<unsigned>(li + 1), "scheme-locality",
                 what + " — scheme behaviour belongs to the SchemeModel "
                        "plugins (src/core/scheme.h); dispatch through "
                        "the interface (or select via findScheme/"
                        "schemeByName), or annotate a vetted site with "
                        "`pra-lint: scheme-ok`"});
        };
        if (suppressed(raw, li, "pra-lint: scheme-ok"))
            continue;
        // The legacy closed-enum idioms.
        for (std::size_t pos = findIdentifier(line, "Scheme");
             pos != std::string::npos;
             pos = findIdentifier(line, "Scheme", pos + 1)) {
            if (line.compare(pos + 6, 2, "::") == 0) {
                report("legacy `Scheme::` enum dispatch"); // pra-lint: scheme-ok
                break;
            }
        }
        if (findIdentifier(line, "SchemeTraits") != // pra-lint: scheme-ok
            std::string::npos)
            report("use of the retired SchemeTraits struct"); // pra-lint: scheme-ok
        // A registered scheme-name literal beside ==/!= is a by-name
        // switch on the closed scheme world.
        for (std::size_t q1 = line.find('"'); q1 != std::string::npos;
             q1 = line.find('"', q1 + 1)) {
            const std::size_t q2 = line.find('"', q1 + 1);
            if (q2 == std::string::npos)
                break;
            const std::string content =
                lowercased(line.substr(q1 + 1, q2 - q1 - 1));
            const auto &names = registeredSchemeSpellings();
            if (std::find(names.begin(), names.end(), content) !=
                    names.end() &&
                literalComparedAt(line, q1, q2)) {
                report("comparison against scheme-name literal \"" +
                       content + "\"");
            }
            q1 = q2;
        }
    }
}

// --- Rules: config-coverage / energy-coverage ---------------------------

const SourceFile *
findFile(const std::vector<SourceFile> &files, const std::string &suffix)
{
    for (const SourceFile &f : files) {
        if (f.path.size() >= suffix.size() &&
            f.path.compare(f.path.size() - suffix.size(), suffix.size(),
                           suffix) == 0)
            return &f;
    }
    return nullptr;
}

bool
fieldAnnotated(const std::vector<std::string> &raw, unsigned line,
               const char *marker)
{
    if (line == 0)
        return false;
    return suppressed(raw, line - 1, marker);   // Same line or one above.
}

void
lintConfigCoverage(const std::vector<SourceFile> &files,
                   std::vector<LintIssue> &issues)
{
    const SourceFile *io = findFile(files, "sim/config_io.cpp");
    if (!io)
        return;
    const std::string ioStripped = stripComments(io->text);
    const std::string canonical = functionBody(io->text, "canonicalConfig");
    // The handler region is everything outside canonicalConfig and
    // dumpConfig — those two mention every field themselves and would
    // mask a missing parse handler.
    std::string handlers = ioStripped;
    for (const char *fn : {"canonicalConfig", "dumpConfig"}) {
        const std::string body = functionBody(io->text, fn);
        if (body.empty())
            continue;
        const auto at = handlers.find(body);
        if (at != std::string::npos)
            handlers.replace(at, body.size(), std::string(body.size(), ' '));
    }

    struct Target
    {
        const char *suffix;
        const char *structName;
    };
    for (const Target &t : {Target{"dram/config.h", "DramConfig"},
                            Target{"sim/system.h", "SystemConfig"}}) {
        const SourceFile *hdr = findFile(files, t.suffix);
        if (!hdr)
            continue;
        const std::vector<std::string> raw = splitLines(hdr->text);
        for (const FieldDecl &fd : structFieldDecls(hdr->text,
                                                    t.structName)) {
            const bool observational =
                fieldAnnotated(raw, fd.line, "pra-lint: observational");
            if (!observational &&
                findIdentifier(canonical, fd.name) == std::string::npos) {
                issues.push_back(
                    {hdr->path, fd.line, "config-coverage",
                     std::string(t.structName) + "::" + fd.name +
                         " is missing from canonicalConfig() — two "
                         "configs differing only in this field would "
                         "share a sweep result-cache entry; add it to "
                         "the canonical key (or annotate the field "
                         "`pra-lint: observational` if it cannot affect "
                         "results)"});
            }
            // A process-level switch that System sets from the
            // environment (forceRounds) opts out of the parse handler
            // with `pra-lint: no-config-key`.
            if (!fieldAnnotated(raw, fd.line, "pra-lint: no-config-key") &&
                findIdentifier(handlers, fd.name) == std::string::npos) {
                issues.push_back(
                    {hdr->path, fd.line, "config-coverage",
                     std::string(t.structName) + "::" + fd.name +
                         " has no applyConfigLine() handler — the field "
                         "cannot be set from a config file"});
            }
        }
    }
}

void
lintEnergyCoverage(const std::vector<SourceFile> &files,
                   std::vector<LintIssue> &issues)
{
    const SourceFile *hdr = findFile(files, "power/power_model.h");
    const SourceFile *model = findFile(files, "power/power_model.cpp");
    const SourceFile *auditor = findFile(files, "verify/auditor.cpp");
    if (!hdr || !model || !auditor)
        return;
    const std::string modelText = stripComments(model->text);
    const std::string auditorText = stripComments(auditor->text);
    for (const FieldDecl &fd : structFieldDecls(hdr->text, "EnergyCounts")) {
        if (findIdentifier(modelText, fd.name) == std::string::npos) {
            issues.push_back(
                {hdr->path, fd.line, "energy-coverage",
                 "EnergyCounts::" + fd.name +
                     " is not consumed by the PowerModel aggregation "
                     "(power_model.cpp) — its energy is silently dropped"});
        }
        if (findIdentifier(auditorText, fd.name) == std::string::npos) {
            issues.push_back(
                {hdr->path, fd.line, "energy-coverage",
                 "EnergyCounts::" + fd.name +
                     " is not covered by the auditor energy-conservation "
                     "check (auditor.cpp)"});
        }
    }
}

// --- Rule: fault-coverage -----------------------------------------------

/**
 * Every deliberate fault hook — analysis::Fault enum members and the
 * auditFault-/fault-prefixed DramConfig fields they arm — must be
 * referenced
 * from at least one file under tests/: an undrilled hook is a
 * model-checker property nothing proves can fire. The rule runs only
 * when the input actually contains tests/ files (a src-only scan has
 * no corpus to check against, not a coverage hole).
 */
void
lintFaultCoverage(const std::vector<SourceFile> &files,
                  std::vector<LintIssue> &issues)
{
    std::string corpus;
    for (const SourceFile &f : files) {
        if (f.path.find("tests/") == std::string::npos)
            continue;
        corpus += stripComments(f.text);
        corpus += '\n';
    }
    if (corpus.empty())
        return;

    auto require = [&](const SourceFile *hdr, const FieldDecl &fd,
                       const std::string &qualified) {
        if (findIdentifier(corpus, fd.name) != std::string::npos)
            return;
        issues.push_back(
            {hdr->path, fd.line, "fault-coverage",
             qualified + " is not referenced by any file under tests/ — "
                         "an undrilled fault hook is a model-checker "
                         "property nothing proves can fire; drill it in "
                         "tests/test_modelcheck_regressions.cpp"});
    };

    if (const SourceFile *mc = findFile(files, "analysis/model_checker.h")) {
        for (const FieldDecl &fd : enumMemberDecls(mc->text, "Fault"))
            require(mc, fd, "analysis::Fault::" + fd.name);
    }
    if (const SourceFile *cfg = findFile(files, "dram/config.h")) {
        for (const FieldDecl &fd : structFieldDecls(cfg->text,
                                                    "DramConfig")) {
            if (fd.name.rfind("auditFault", 0) == 0 ||
                fd.name.rfind("fault", 0) == 0)
                require(cfg, fd, "DramConfig::" + fd.name);
        }
    }
}

// --- Rule: maintop-coverage ---------------------------------------------

/**
 * Every named MaintenanceOp registered under src/ must be drilled from
 * tests/ and named in canonicalConfig() (it changes which commands
 * issue when); an unnamed registerOp() under src/ has no handle either
 * requirement could key on. Call sites are recognised by the member
 * access that precedes them (`x.registerOp(` / `x->registerOp(`), so
 * the seam's own declarations in maintenance_engine.h do not trip the
 * rule. The tests/ requirement is corpus-gated like fault-coverage.
 */
void
lintMaintopCoverage(const std::vector<SourceFile> &files,
                    std::vector<LintIssue> &issues)
{
    std::string corpus;
    for (const SourceFile &f : files) {
        if (f.path.find("tests/") == std::string::npos)
            continue;
        corpus += stripComments(f.text);
        corpus += '\n';
    }
    const SourceFile *io = findFile(files, "sim/config_io.cpp");
    const std::string canonical =
        io ? functionBody(io->text, "canonicalConfig") : std::string();

    for (const SourceFile &f : files) {
        if (f.path.rfind("src/", 0) != 0)
            continue;
        const std::string stripped = stripComments(f.text);
        const std::vector<std::string> raw = splitLines(f.text);
        for (std::size_t pos = findIdentifier(stripped, "registerOp");
             pos != std::string::npos;
             pos = findIdentifier(stripped, "registerOp", pos + 1)) {
            // A call site, not a declaration: the identifier follows a
            // member access.
            std::size_t before = pos;
            while (before > 0 && std::isspace(static_cast<unsigned char>(
                                     stripped[before - 1])))
                --before;
            if (before == 0 ||
                (stripped[before - 1] != '.' && stripped[before - 1] != '>'))
                continue;
            std::size_t i = pos + std::string("registerOp").size();
            while (i < stripped.size() &&
                   std::isspace(static_cast<unsigned char>(stripped[i])))
                ++i;
            if (i >= stripped.size() || stripped[i] != '(')
                continue;
            ++i;
            while (i < stripped.size() &&
                   std::isspace(static_cast<unsigned char>(stripped[i])))
                ++i;

            const unsigned line = static_cast<unsigned>(
                std::count(stripped.begin(),
                           stripped.begin() +
                               static_cast<std::ptrdiff_t>(pos),
                           '\n') +
                1);
            const bool observational =
                suppressed(raw, line - 1, "pra-lint: observational");

            if (i >= stripped.size() || stripped[i] != '"') {
                issues.push_back(
                    {f.path, line, "maintop-coverage",
                     "unnamed MaintenanceOp registration — an anonymous "
                     "op cannot be referenced from tests/ or the "
                     "canonical config key; use the named registerOp() "
                     "overload"});
                continue;
            }
            const std::size_t close = stripped.find('"', i + 1);
            if (close == std::string::npos)
                continue;
            const std::string name = stripped.substr(i + 1, close - i - 1);

            if (!corpus.empty() &&
                findIdentifier(corpus, name) == std::string::npos) {
                issues.push_back(
                    {f.path, line, "maintop-coverage",
                     "maintenance op \"" + name +
                         "\" is not referenced by any file under tests/ "
                         "— an undrilled op is scheduling behaviour "
                         "nothing exercises"});
            }
            if (!observational && io &&
                findIdentifier(canonical, name) == std::string::npos) {
                issues.push_back(
                    {f.path, line, "maintop-coverage",
                     "maintenance op \"" + name +
                         "\" does not appear in canonicalConfig() — two "
                         "configs differing only in this op's presence "
                         "would share a sweep result-cache entry; name "
                         "it in the canonical key (or annotate the "
                         "registration `pra-lint: observational` if it "
                         "cannot affect results)"});
            }
        }
    }
}

} // namespace

std::string
LintIssue::format() const
{
    std::string out = file;
    if (line > 0) {
        out += ':';
        out += std::to_string(line);
    }
    out += ": [";
    out += rule;
    out += "] ";
    out += message;
    return out;
}

std::vector<std::string>
structFields(const std::string &text, const std::string &struct_name)
{
    std::vector<std::string> names;
    for (const FieldDecl &fd : structFieldDecls(text, struct_name))
        names.push_back(fd.name);
    return names;
}

std::string
functionBody(const std::string &text, const std::string &function_name)
{
    const std::string stripped = stripComments(text);
    for (std::size_t pos = findIdentifier(stripped, function_name);
         pos != std::string::npos;
         pos = findIdentifier(stripped, function_name, pos + 1)) {
        std::size_t i = pos + function_name.size();
        while (i < stripped.size() &&
               std::isspace(static_cast<unsigned char>(stripped[i])))
            ++i;
        if (i >= stripped.size() || stripped[i] != '(')
            continue;
        int parens = 1;
        ++i;
        while (i < stripped.size() && parens > 0) {
            if (stripped[i] == '(')
                ++parens;
            else if (stripped[i] == ')')
                --parens;
            ++i;
        }
        const auto stop = stripped.find_first_of(";{", i);
        if (stop == std::string::npos || stripped[stop] == ';')
            continue;   // Declaration, not a definition.
        int depth = 1;
        std::size_t j = stop + 1;
        while (j < stripped.size() && depth > 0) {
            if (stripped[j] == '{')
                ++depth;
            else if (stripped[j] == '}')
                --depth;
            ++j;
        }
        return stripped.substr(stop + 1, j - stop - 2);
    }
    return {};
}

bool
containsIdentifier(const std::string &text, const std::string &identifier)
{
    return findIdentifier(text, identifier) != std::string::npos;
}

std::vector<LintIssue>
lintSources(const std::vector<SourceFile> &files)
{
    std::vector<LintIssue> issues;
    // Unordered-container names are pooled across the result-affecting
    // files: members are typically declared in a header and iterated in
    // the matching .cpp.
    std::vector<std::string> unordered;
    for (const SourceFile &f : files) {
        if (!resultAffectingPath(f.path))
            continue;
        for (const std::string &n : unorderedNames(stripComments(f.text))) {
            if (std::find(unordered.begin(), unordered.end(), n) ==
                unordered.end())
                unordered.push_back(n);
        }
    }
    for (const SourceFile &f : files) {
        const std::vector<std::string> raw = splitLines(f.text);
        const std::vector<std::string> stripped =
            splitLines(stripComments(f.text));
        lintEntropy(f, stripped, issues);
        lintUnorderedIteration(f, raw, stripped, unordered, issues);
        lintTimingLocality(f, raw, stripped, issues);
        lintSchemeLocality(f, raw, stripped, issues);
    }
    lintConfigCoverage(files, issues);
    lintEnergyCoverage(files, issues);
    lintFaultCoverage(files, issues);
    lintMaintopCoverage(files, issues);
    return issues;
}

std::vector<std::string>
enumMembers(const std::string &text, const std::string &enum_name)
{
    std::vector<std::string> names;
    for (const FieldDecl &fd : enumMemberDecls(text, enum_name))
        names.push_back(fd.name);
    return names;
}

} // namespace pra::analysis
