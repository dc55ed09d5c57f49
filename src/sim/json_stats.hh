/**
 * @file
 * JSON export of simulation results, for downstream tooling (plots,
 * regression tracking). No external dependencies: the emitted subset
 * of JSON is numbers, strings of counter names, objects and arrays.
 */

#ifndef VRC_SIM_JSON_STATS_HH
#define VRC_SIM_JSON_STATS_HH

#include <string>

#include "sim/experiment.hh"

namespace vrc
{

/** Serialize one experiment summary as a JSON object. */
std::string toJson(const SimSummary &summary);

/**
 * Serialize a full simulator: machine-level results plus every per-CPU
 * counter group, as one JSON object.
 */
std::string toJson(const MpSimulator &sim);

/**
 * Escape @p s for the inside of a JSON string, as the failure and
 * service manifests do: quote, backslash, newline and tab are escaped,
 * any other control character becomes a space.
 */
std::string jsonEscapeText(const std::string &s);

} // namespace vrc

#endif // VRC_SIM_JSON_STATS_HH
