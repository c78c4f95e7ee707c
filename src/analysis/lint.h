/**
 * @file
 * Repo-specific determinism and configuration lint (DESIGN.md §10).
 *
 * Eight rules, each encoding an invariant this repository depends on
 * but a generic linter cannot know:
 *
 *  - entropy: no ambient randomness or wall-clock access in src/
 *    outside common/rng.h — the simulator must be bit-reproducible, so
 *    all randomness flows through the seeded PRNG and all time is
 *    simulated Cycle time. Files under tests/ are scanned only
 *    as the fault-coverage reference corpus, never for entropy (test
 *    drills legitimately spell forbidden patterns);
 *  - unordered-iteration: no iteration over std::unordered_map/
 *    unordered_set in result-affecting code (src/dram, src/sim,
 *    src/cache) — hash-order iteration silently varies across library
 *    versions, defeating determinism. Suppress a vetted site (e.g. keys
 *    sorted before use) with `// pra-lint: unordered-ok`;
 *  - timing-locality: no raw timing-parameter access (word-bounded
 *    `timing`/`Timing`) in issue-path code — the controller, bank/rank
 *    FSMs, bus arbiter, maintenance engine, wake-up heap, and scheduler
 *    policies must derive legality from the precomputed command-pair
 *    gap tables (src/dram/timing_tables.h), keeping the hot path free
 *    of scattered tRCD-style arithmetic that the event engine's wake-up
 *    bounds could silently miss. timing_tables.cpp (the builder) and
 *    checker.* (the independent oracle) are outside the scope; a vetted
 *    cold-path site suppresses with `// pra-lint: timing-ok`;
 *  - config-coverage: every DramConfig and SystemConfig field must
 *    appear in canonicalConfig() (the result-cache key — a field
 *    missing there lets two behaviourally different configs share a
 *    cache entry) and in the applyConfigLine() handler region (so
 *    config files can set it). Fields that cannot affect simulated
 *    results opt out of the canonical key with
 *    `// pra-lint: observational`; a switch System sets from the
 *    environment opts out of the handler with
 *    `// pra-lint: no-config-key`;
 *  - energy-coverage: every power::EnergyCounts member must be
 *    consumed by the PowerModel aggregation and the auditor's energy
 *    conservation check — an unconsumed counter means silently dropped
 *    energy;
 *  - scheme-locality: no scheme dispatch outside the registry TU —
 *    scheme behaviour lives in the SchemeModel plugins
 *    (src/core/scheme.{h,cpp}); any other file under src/ spelling the
 *    legacy `Scheme::` enum idiom, the retired `SchemeTraits` struct,
 *    or comparing (==/!=) against a registered scheme-name string
 *    literal is reintroducing a closed-world switch that new plugins
 *    would silently miss. Selection by name (findScheme/schemeByName)
 *    is fine — the literal sits in a call, not beside a comparison.
 *    Suppress a vetted site (e.g. a serialization-compat default)
 *    with `// pra-lint: scheme-ok`;
 *  - fault-coverage: every analysis::Fault enum member
 *    (analysis/model_checker.h) and every DramConfig deliberate fault
 *    hook (auditFault-/fault-prefixed fields in dram/config.h) must be
 *    referenced from at least one file under tests/ — an undrilled
 *    fault hook is a model-checker property nothing proves can fire.
 *    Active only when the scanned input includes tests/ files, so
 *    src-only scans stay meaningful;
 *  - maintop-coverage: every named MaintenanceOp registered under src/
 *    (a `registerOp("name", ...)` call site) must be referenced from at
 *    least one file under tests/ (same corpus gating as fault-coverage)
 *    and must appear in canonicalConfig() — a registered op changes
 *    which commands issue when, so two configs differing only in the
 *    op's presence must not share a result-cache entry. An op vetted as
 *    result-neutral opts out of the canonical-key requirement with
 *    `// pra-lint: observational` on the registration line; an
 *    *unnamed* registerOp() call under src/ is always flagged — an
 *    anonymous op has no handle either requirement could key on.
 *
 * The engine operates on in-memory sources so tests can drill it with
 * synthetic inputs (tests/test_pra_lint.cpp); tools/pra_lint.cpp feeds
 * it the real tree.
 */
#ifndef PRA_ANALYSIS_LINT_H
#define PRA_ANALYSIS_LINT_H

#include <string>
#include <vector>

namespace pra::analysis {

/** One source file handed to the linter. */
struct SourceFile
{
    std::string path;  //!< Repo-relative path (rule scoping keys on it).
    std::string text;
};

/** One lint finding. */
struct LintIssue
{
    std::string file;
    unsigned line = 0;   //!< 1-based; 0 for whole-file findings.
    std::string rule;    //!< entropy, unordered-iteration, ...
    std::string message;

    std::string format() const;
};

/** Run every rule over @p files; empty result == clean. */
std::vector<LintIssue> lintSources(const std::vector<SourceFile> &files);

// --- Parsing helpers (exposed for the lint's own tests) -----------------

/**
 * Names of the data members of struct/class @p struct_name declared in
 * @p text (brace-depth-1 declarations only; member functions and
 * comments are skipped).
 */
std::vector<std::string> structFields(const std::string &text,
                                      const std::string &struct_name);

/**
 * Body (between the outermost braces) of the function named
 * @p function_name in @p text; empty when not found.
 */
std::string functionBody(const std::string &text,
                         const std::string &function_name);

/** True when @p identifier occurs word-bounded in @p text. */
bool containsIdentifier(const std::string &text,
                        const std::string &identifier);

/**
 * Enumerator names of `enum [class] EnumName` declared in @p text, in
 * declaration order; initializer expressions and comments are skipped.
 */
std::vector<std::string> enumMembers(const std::string &text,
                                     const std::string &enum_name);

} // namespace pra::analysis

#endif // PRA_ANALYSIS_LINT_H
