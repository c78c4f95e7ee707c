/**
 * @file
 * CLI front end of the bounded protocol model checker (DESIGN.md §10).
 *
 * Modes:
 *  - explore (default): run the bounded exhaustive exploration for the
 *    selected fault hook(s) and scheduler(s). Exit 0 when exploration is
 *    clean, 1 when a violation was found (printed as a replayable
 *    command script), 2 on usage errors.
 *  - --expect-violation: invert the verdict — CI uses this to pin that
 *    each deliberate fault hook IS caught within the default budget.
 *  - --emit-test FILE: additionally serialize the counterexample (or,
 *    on a clean run, the deepest violation-free path) to FILE for
 *    distillation into tests/test_modelcheck_regressions.cpp.
 *  - --replay FILE: re-validate a previously emitted command script
 *    against the independent TimingChecker + PRA mask shadow.
 *
 * Environment: PRA_MC_DEPTH and PRA_MC_SEED_FAULT override the depth
 * budget and default fault selection (see EXPERIMENTS.md).
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/command_script.h"
#include "analysis/model_checker.h"
#include "core/scheme.h"
#include "dram/sched/scheduler_policy.h"

namespace {

using pra::analysis::CommandScript;
using pra::analysis::Fault;
using pra::analysis::ModelChecker;
using pra::analysis::ModelCheckResult;

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --depth N            exploration depth in cycles (default %u;\n"
        "                       env PRA_MC_DEPTH)\n"
        "  --max-states N       visited-state budget (default %llu)\n"
        "  --scheduler NAME     frfcfs | fcfs | frfcfs_wage | all\n"
        "                       (default: all)\n"
        "  --fault NAME         none | widen_act | ignore_tccd_l |\n"
        "                       ignore_twtr | suppress_wake | starve_aged\n"
        "                       | drop_count | late_rfm | all\n"
        "                       (default: none; env PRA_MC_SEED_FAULT)\n"
        "  --scheme NAME        registered scheme to explore under\n"
        "                       (default: pra; see 'scheme =' in configs)\n"
        "  --liveness-bound N   bounded-progress horizon in cycles\n"
        "                       (default %llu; 0 disables liveness and\n"
        "                       work-conserving exploration)\n"
        "  --refresh-slack N    allowed refresh overrun past tREFI\n"
        "                       (default %llu)\n"
        "  --disturbance-threshold N\n"
        "                       arm the PRAC model (counters, ABO, RFM)\n"
        "                       with this activation threshold and check\n"
        "                       the disturbance-safety properties; also\n"
        "                       applies to --replay (default: off unless\n"
        "                       the fault is a PRAC drill)\n"
        "  --reduction on|off   idle time-leap + symmetry + sleep sets\n"
        "                       (default: on)\n"
        "  --strict-budget      exit 3 when any run exhausts the state\n"
        "                       budget before completing\n"
        "  --expect-violation   exit 0 iff every run finds a violation\n"
        "  --emit-test FILE     write counterexample (shrunk to a\n"
        "                       minimal reproducer) or deepest clean\n"
        "                       path as a replayable command script\n"
        "  --replay FILE        re-validate an emitted command script\n"
        "  --quiet              suppress per-run statistics\n",
        argv0,
        static_cast<unsigned>(ModelChecker::kDefaultDepth),
        static_cast<unsigned long long>(ModelChecker::kDefaultMaxStates),
        static_cast<unsigned long long>(
            ModelChecker::kDefaultLivenessBound),
        static_cast<unsigned long long>(
            ModelChecker::kDefaultRefreshSlack));
    return 2;
}

bool
parseSchedulerName(const std::string &name, pra::dram::SchedulerKind &out)
{
    for (pra::dram::SchedulerKind k : pra::dram::kAllSchedulerKinds) {
        if (name == pra::dram::schedulerKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

int
replay(const std::string &path, unsigned disturbanceThreshold)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "pra_modelcheck: cannot open %s\n",
                     path.c_str());
        return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();

    CommandScript script;
    std::string error;
    if (!CommandScript::parse(ss.str(), script, error)) {
        std::fprintf(stderr, "pra_modelcheck: %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
    }
    Fault fault = Fault::None;
    if (!script.fault.empty() &&
        !pra::analysis::parseFault(script.fault, fault)) {
        std::fprintf(stderr, "pra_modelcheck: %s: unknown fault '%s'\n",
                     path.c_str(), script.fault.c_str());
        return 2;
    }
    const pra::SchemeModel *scheme = pra::findScheme(script.scheme);
    if (!scheme) {
        std::fprintf(stderr, "pra_modelcheck: %s: unknown scheme '%s'\n",
                     path.c_str(), script.scheme.c_str());
        return 2;
    }
    // Scripts carrying RFM lines were explored under a PRAC model: arm
    // the same knobs for replay (the checker rejects RFM with PRAC off)
    // unless the script's own fault already does.
    unsigned thr = disturbanceThreshold;
    if (thr == 0) {
        for (const pra::analysis::ScriptCommand &c : script.commands) {
            if (c.kind == pra::dram::CheckedCommand::Kind::Rfm) {
                thr = ModelChecker::kDefaultDisturbanceThreshold;
                break;
            }
        }
    }
    pra::dram::DramConfig cfg = ModelChecker::modelConfig(fault, thr);
    cfg.scheme = scheme;
    const auto violations = pra::analysis::replayScript(script, cfg);
    std::printf("replayed %zu commands (scheduler=%s fault=%s scheme=%s): "
                "%zu violation(s)\n",
                script.commands.size(), script.scheduler.c_str(),
                script.fault.c_str(), scheme->name(), violations.size());
    for (const std::string &v : violations)
        std::printf("  %s\n", v.c_str());
    return violations.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    ModelChecker::Options opts;
    bool allSchedulers = true;
    bool expectViolation = false;
    bool strictBudget = false;
    bool quiet = false;
    std::string emitPath;
    std::string replayPath;
    std::vector<Fault> faults{Fault::None};

    if (const char *env = std::getenv("PRA_MC_DEPTH"))
        opts.depth = static_cast<pra::Cycle>(std::strtoull(env, nullptr, 10));
    if (const char *env = std::getenv("PRA_MC_SEED_FAULT")) {
        Fault f = Fault::None;
        if (!pra::analysis::parseFault(env, f)) {
            std::fprintf(stderr,
                         "pra_modelcheck: bad PRA_MC_SEED_FAULT '%s'\n", env);
            return 2;
        }
        faults = {f};
    }

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--depth") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opts.depth = static_cast<pra::Cycle>(
                std::strtoull(v, nullptr, 10));
        } else if (arg == "--max-states") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opts.maxStates = std::strtoull(v, nullptr, 10);
        } else if (arg == "--scheduler") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            if (std::strcmp(v, "all") == 0) {
                allSchedulers = true;
            } else if (parseSchedulerName(v, opts.scheduler)) {
                allSchedulers = false;
            } else {
                std::fprintf(stderr,
                             "pra_modelcheck: unknown scheduler '%s'\n", v);
                return 2;
            }
        } else if (arg == "--fault") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            if (std::strcmp(v, "all") == 0) {
                faults.clear();
                for (const Fault f : pra::analysis::kAllFaults) {
                    if (f != Fault::None)
                        faults.push_back(f);
                }
            } else {
                Fault f = Fault::None;
                if (!pra::analysis::parseFault(v, f)) {
                    std::fprintf(stderr,
                                 "pra_modelcheck: unknown fault '%s'\n", v);
                    return 2;
                }
                faults = {f};
            }
        } else if (arg == "--scheme") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            const pra::SchemeModel *s = pra::findScheme(v);
            if (!s) {
                std::fprintf(stderr,
                             "pra_modelcheck: unknown scheme '%s' "
                             "(registered: %s)\n",
                             v, pra::registeredSchemeNames().c_str());
                return 2;
            }
            opts.scheme = s->name();
        } else if (arg == "--liveness-bound") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opts.livenessBound = static_cast<pra::Cycle>(
                std::strtoull(v, nullptr, 10));
        } else if (arg == "--refresh-slack") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opts.refreshSlack = static_cast<pra::Cycle>(
                std::strtoull(v, nullptr, 10));
        } else if (arg == "--disturbance-threshold") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opts.disturbanceThreshold =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (arg == "--reduction") {
            const char *v = value();
            if (!v || (std::strcmp(v, "on") != 0 &&
                       std::strcmp(v, "off") != 0)) {
                return usage(argv[0]);
            }
            opts.reduction = std::strcmp(v, "on") == 0;
        } else if (arg == "--strict-budget") {
            strictBudget = true;
        } else if (arg == "--expect-violation") {
            expectViolation = true;
        } else if (arg == "--emit-test") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            emitPath = v;
        } else if (arg == "--replay") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            replayPath = v;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }

    // Replay runs after the whole command line is parsed so a
    // --disturbance-threshold anywhere on it applies.
    if (!replayPath.empty())
        return replay(replayPath, opts.disturbanceThreshold);

    std::vector<pra::dram::SchedulerKind> schedulers;
    if (allSchedulers) {
        schedulers.assign(std::begin(pra::dram::kAllSchedulerKinds),
                          std::end(pra::dram::kAllSchedulerKinds));
    } else {
        schedulers.push_back(opts.scheduler);
    }

    bool anyClean = false;
    bool anyViolation = false;
    bool anyExhausted = false;
    bool emitted = false;
    CommandScript deepest;
    for (Fault fault : faults) {
        for (pra::dram::SchedulerKind sched : schedulers) {
            ModelChecker::Options run = opts;
            run.fault = fault;
            run.scheduler = sched;
            const ModelCheckResult res = ModelChecker(run).run();
            anyExhausted = anyExhausted || res.budgetExhausted;
            if (!quiet) {
                // The explored-vs-budget ratio is printed on every run
                // so a budget-exhausted "clean" cannot silently pass
                // for a completed exploration.
                std::printf(
                    "fault=%-13s scheduler=%-12s scheme=%-12s depth=%-3llu "
                    "states=%llu/%llu deduped=%llu commands=%llu "
                    "leaps=%llu pruned=%llu%s: %s\n",
                    pra::analysis::faultName(fault),
                    pra::dram::schedulerKindName(sched),
                    run.scheme.empty() ? "pra" : run.scheme.c_str(),
                    static_cast<unsigned long long>(run.depth),
                    static_cast<unsigned long long>(res.statesExplored),
                    static_cast<unsigned long long>(run.maxStates),
                    static_cast<unsigned long long>(res.statesDeduped),
                    static_cast<unsigned long long>(res.commandsIssued),
                    static_cast<unsigned long long>(res.idleLeaps),
                    static_cast<unsigned long long>(
                        res.interleavingsPruned),
                    res.budgetExhausted ? " (budget exhausted)" : "",
                    res.violationFound ? "VIOLATION" : "clean");
                if (run.livenessBound > 0) {
                    std::printf(
                        "  liveness headroom: max request wait %llu "
                        "(bound %llu), max refresh overrun %llu "
                        "(slack %llu)\n",
                        static_cast<unsigned long long>(
                            res.maxRequestWait),
                        static_cast<unsigned long long>(
                            run.livenessBound),
                        static_cast<unsigned long long>(
                            res.maxRefreshOverrun),
                        static_cast<unsigned long long>(
                            run.refreshSlack));
                }
                if (run.disturbanceThreshold > 0 ||
                    fault == Fault::DropCount ||
                    fault == Fault::LateRfm) {
                    std::printf(
                        "  disturbance headroom: max recovery wait "
                        "%llu\n",
                        static_cast<unsigned long long>(
                            res.maxRecoveryWait));
                }
            }
            if (res.violationFound) {
                anyViolation = true;
                std::printf("violation (fault=%s scheduler=%s): %s\n",
                            pra::analysis::faultName(fault),
                            pra::dram::schedulerKindName(sched),
                            res.violation.c_str());
                std::printf("%s", res.counterexample.serialize().c_str());
                if (!emitPath.empty() && !emitted) {
                    // Delta-debug the counterexample first: the emitted
                    // reproducer keeps only the commands needed to
                    // reproduce the original violation under replay.
                    pra::dram::DramConfig shrink_cfg =
                        ModelChecker::modelConfig(
                            fault, run.disturbanceThreshold);
                    if (!run.scheme.empty())
                        shrink_cfg.scheme =
                            &pra::schemeByName(run.scheme);
                    const CommandScript shrunk = pra::analysis::shrinkScript(
                        res.counterexample, shrink_cfg);
                    std::ofstream out(emitPath);
                    out << shrunk.serialize();
                    emitted = true;
                    std::printf(
                        "counterexample written to %s "
                        "(%zu of %zu commands after shrinking)\n",
                        emitPath.c_str(), shrunk.commands.size(),
                        res.counterexample.commands.size());
                }
            } else {
                anyClean = true;
                if (res.deepestPath.commands.size() >
                    deepest.commands.size())
                    deepest = res.deepestPath;
            }
        }
    }

    if (!emitPath.empty() && !emitted && !deepest.commands.empty()) {
        // Clean run: emit the deepest explored path as a regression seed.
        std::ofstream out(emitPath);
        out << deepest.serialize();
        std::printf("deepest clean path (%zu commands) written to %s\n",
                    deepest.commands.size(), emitPath.c_str());
    }

    // A drained state budget means the exploration is incomplete: a
    // "clean" verdict proves nothing about the unexplored remainder.
    // Under --strict-budget that is its own failure mode (exit 3),
    // distinct from a violation (1) and a usage error (2).
    if (strictBudget && anyExhausted) {
        std::fprintf(stderr,
                     "pra_modelcheck: state budget exhausted before "
                     "exploration completed (--strict-budget)\n");
        return 3;
    }
    if (expectViolation)
        return anyClean ? 1 : 0;   // Every run must have been caught.
    return anyViolation ? 1 : 0;
}
