/**
 * @file
 * CPU reference results for a cross-section of the Table I
 * workloads, computed here from each workload's input image and
 * compared with the simulator's final global memory. They cover the
 * same workloads as the repository's workload-reference tests and
 * mirror the layouts of the factories in src/workloads.
 */

#ifndef SIMBENCH_REFS_HH
#define SIMBENCH_REFS_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace simbench
{

/** True when `abbr` has a CPU reference here. */
bool hasReference(const std::string &abbr);

/**
 * Check `output` (final global memory) against the reference
 * computed from `input` (initial global memory). Returns "" when it
 * matches, else the first mismatch.
 */
std::string checkReference(const std::string &abbr,
                           const std::vector<wir::u32> &input,
                           const std::vector<wir::u32> &output);

} // namespace simbench

#endif // SIMBENCH_REFS_HH
