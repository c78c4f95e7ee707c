/**
 * @file
 * perfbench: one benchmark invocation on one workload.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans-out <file>]
 *
 * Prints notes (build, cell, warmup, run counts, sim_fingerprint) and,
 * as the last line, the JSON result. Exits 2 on bad arguments or when
 * the build or environment would measure something other than the
 * intended program, 1 on any other error.
 */
#include <cstdio>
#include <exception>
#include <string>

#include "measure.h"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--spans-out <file>]\n"
                 "workloads:",
                 why);
    for (const perfbench::Cell &cell : perfbench::cells())
        std::fprintf(stderr, " %s", cell.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to measure a build without "
                         "NDEBUG (debug builds replay every fast-forward)\n");
    return 2;
#endif
    if (const char *env = perfbench::refusedEnvironment()) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure with %s set; unset it\n",
                     env);
        return 2;
    }

    perfbench::Options opts;
    int trace = -1;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const std::string value = argv[i + 1];
            if (flag == "--workload")
                opts.cell = perfbench::findCell(value);
            else if (flag == "--seed")
                opts.seed = std::stoull(value);
            else if (flag == "--seconds")
                opts.seconds = std::stod(value);
            else if (flag == "--trace")
                trace = std::stoi(value);
            else if (flag == "--spans-out")
                opts.spansOut = value;
            else
                return usage(("unknown flag " + flag).c_str());
        }
    } catch (const std::exception &) {
        return usage("malformed number");
    }
    if (argc % 2 == 0)
        return usage("every flag takes one value");
    if (opts.cell == nullptr)
        return usage("missing or unknown --workload");
    if (!(opts.seconds > 0.0))
        return usage("--seconds must be positive");
    if (trace != 0 && trace != 1)
        return usage("--trace must be 0 or 1");

    try {
        const perfbench::Report report =
            trace == 1 ? perfbench::measurePerLayer(opts)
                       : perfbench::measureEndToEnd(opts);
        const std::string result = perfbench::resultJson(report);
        for (const std::string &note : report.notes)
            std::printf("%s\n", note.c_str());
        std::printf("%s\n", result.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
