/**
 * @file
 * Key=value configuration parsing for SystemConfig, so benches,
 * examples, and downstream tools can reconfigure the platform without
 * recompiling:
 *
 *     # comments with '#'
 *     scheme = pra          # baseline|fga|halfdram|pra|halfdram+pra
 *     policy = relaxed      # relaxed|restricted
 *     dbi = true
 *     channels = 2
 *     ranks = 2
 *     read_queue = 64
 *     write_queue = 64
 *     write_high_watermark = 48
 *     write_low_watermark = 16
 *     row_hit_cap = 4
 *     power_down = true
 *     checker = false
 *     target_instructions = 1200000
 *     warmup_ops = 120000
 *     l2_kb = 4096
 *     trcd = 11
 *
 * The accepted keys are the rows of SystemConfig's field table
 * (sim/system.h) flagged kFieldSettable; the same table, in the same
 * order, renders canonicalConfig().
 */
#ifndef PRA_SIM_CONFIG_IO_H
#define PRA_SIM_CONFIG_IO_H

#include <iosfwd>
#include <string>

#include "sim/system.h"

namespace pra::sim {

/**
 * Apply one "key = value" assignment to @p cfg.
 * @throws std::runtime_error on unknown keys or unparsable values.
 * @return false when the line is blank or a comment.
 */
bool applyConfigLine(const std::string &line, SystemConfig &cfg);

/** Apply a whole stream of assignments (e.g. an opened config file). */
void loadConfig(std::istream &in, SystemConfig &cfg);

/** Render the interesting fields of @p cfg as key=value text. */
std::string dumpConfig(const SystemConfig &cfg);

/**
 * Render *every* behaviour-affecting field of @p cfg as canonical
 * key=value text: one line per row of SystemConfig's field table that
 * is not flagged kFieldObservational — organization, controller policy,
 * ablation knobs, scheme, the full timing set, the power parameters
 * (doubles as bit-exact hex), the cache/core geometry, and the run
 * lengths. Two configs with equal canonical text simulate identically;
 * any field change alters the text. This is the config half of the
 * content-addressed result-cache key (sim::resultCacheKey).
 */
std::string canonicalConfig(const SystemConfig &cfg);

} // namespace pra::sim

#endif // PRA_SIM_CONFIG_IO_H
