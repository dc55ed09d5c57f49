/**
 * @file
 * Workload profiles for synthetic trace generation.
 *
 * The paper evaluated three ATUM VAX multiprocessor traces (pops, thor,
 * abaqus) that are not publicly available. We substitute deterministic
 * synthetic workloads whose *structure* matches what the paper reports
 * and exploits:
 *
 *  - reference mix and context-switch counts per Table 5;
 *  - procedure calls generating bursts of ~6-12 consecutive stack writes
 *    (Table 1) and hence clustered inter-write intervals (Table 2);
 *  - nested working sets so hit ratios vary smoothly across the paper's
 *    cache sizes (0.5K..16K level 1, 64K..256K level 2);
 *  - cross-CPU shared data (coherence traffic) and shared segments mapped
 *    at different virtual addresses (synonyms);
 *  - per-process address spaces with a shared text segment, so context
 *    switches hurt a virtually-addressed cache but not a physical one.
 *
 * All knobs live in WorkloadProfile; see profiles.cc for the tuned
 * pops/thor/abaqus instances.
 */

#ifndef VRC_TRACE_WORKLOAD_HH
#define VRC_TRACE_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/histogram.hh"
#include "base/types.hh"

namespace vrc
{

/** One nested working-set level: a region prefix size and its weight. */
struct WorkingSetLevel
{
    std::uint32_t bytes;  ///< region prefix size in bytes
    double weight;        ///< relative probability of touching this level
};

/** All parameters of a synthetic multiprocessor workload. */
struct WorkloadProfile
{
    std::string name = "custom";

    // --- Shape (Table 5 targets) ---
    std::uint32_t numCpus = 4;
    std::uint64_t totalRefs = 1'000'000;  ///< across all CPUs, approximate
    double instrFrac = 0.47;              ///< fraction instruction fetches
    double readFrac = 0.42;               ///< fraction data reads
    double writeFrac = 0.11;              ///< fraction data writes
    std::uint32_t contextSwitches = 0;    ///< total, spread across CPUs
    std::uint32_t processesPerCpu = 2;    ///< round-robin on each switch

    std::uint32_t pageSize = 4096;

    // --- Code behaviour ---
    std::uint32_t procCount = 96;      ///< procedures in the program text
    std::uint32_t procStride = 512;    ///< bytes between procedure entries
    double procZipfTheta = 0.8;        ///< skew of procedure popularity
    double callProb = 0.010;           ///< per-instruction call probability
    double returnProb = 0.010;         ///< per-instruction return prob.
    double loopBackProb = 0.10;        ///< per-instruction loop-back prob.
    std::uint32_t loopSpanBytes = 96;  ///< how far back a loop jumps
    std::uint32_t maxCallDepth = 24;

    // --- Procedure-call write bursts (Table 1) ---
    std::uint32_t callWritesMin = 6;
    std::uint32_t callWritesMax = 12;

    // --- Private data behaviour ---
    std::vector<WorkingSetLevel> dataLevels = {
        {1 << 10, 0.35}, {4 << 10, 0.25}, {16 << 10, 0.18},
        {64 << 10, 0.12}, {256 << 10, 0.07}, {1 << 20, 0.03}};
    std::uint32_t dataBlockBytes = 16;  ///< granularity of data reuse

    double stackReadFrac = 0.20;  ///< data reads aimed near the stack top
    double repeatFrac = 0.25;     ///< data refs re-touching the previous
                                  ///< data address (register-pressure
                                  ///< style temporal locality)
    double seqFrac = 0.25;        ///< data refs continuing a sequential
                                  ///< walk from the previous address
                                  ///< (array streaming spatial locality)

    // --- Sharing and synonyms ---
    std::uint32_t sharedPages = 32;   ///< size of the shared segment
    double sharedFrac = 0.05;         ///< data refs hitting the segment
    double sharedWriteFrac = 0.25;    ///< of those, fraction that write
    double aliasFrac = 0.10;          ///< shared refs via the per-process
                                      ///< alias mapping (synonyms)
    double sharedRepeatFrac = 0.70;   ///< shared refs re-touching the
                                      ///< process's current shared block
                                      ///< (bursty sharing keeps copies
                                      ///< level-1 resident, so coherence
                                      ///< actually percolates there)
    double hotspotFrac = 0.010;       ///< data refs polling the few-block
                                      ///< hotspot (locks, scheduler state:
                                      ///< resident in every level-1 cache,
                                      ///< so every write percolates)
    std::uint32_t hotspotBlocks = 4;  ///< size of the hotspot set

    std::uint64_t seed = 1;

    /** Fraction of data references among all references. */
    double
    dataFrac() const
    {
        return readFrac + writeFrac;
    }
};

/**
 * Statistics gathered while generating (ground truth the generator knows
 * that cannot be recovered from the trace records alone, e.g. which
 * writes belong to procedure calls -- the paper's authors knew this from
 * VAX CALLS semantics in the ATUM traces).
 */
struct GenStats
{
    GenStats() : callWrites(16) {}

    Histogram callWrites;              ///< writes per procedure call
    std::uint64_t totalCalls = 0;
    std::uint64_t callWriteCount = 0;  ///< writes attributable to calls
    std::uint64_t totalWrites = 0;
    std::uint64_t totalReads = 0;
    std::uint64_t totalInstr = 0;
    std::uint64_t contextSwitches = 0;
};

/** Tuned profile reproducing the pops trace shape (Table 5 row 2). */
WorkloadProfile popsProfile();

/** Tuned profile reproducing the thor trace shape (Table 5 row 1). */
WorkloadProfile thorProfile();

/** Tuned profile reproducing the abaqus trace shape (Table 5 row 3). */
WorkloadProfile abaqusProfile();

/** Look up a named profile ("pops", "thor", "abaqus"). fatal() if unknown. */
WorkloadProfile profileByName(const std::string &name);

/** True when profileByName() knows @p name. */
bool isBuiltinProfile(const std::string &name);

/** All three paper profiles, in Table 5 order. */
std::vector<WorkloadProfile> paperProfiles();

/**
 * Scale a profile's length (references and context switches) by @p factor,
 * keeping rates unchanged. Used for quick test/CI runs.
 */
WorkloadProfile scaled(WorkloadProfile p, double factor);

} // namespace vrc

#endif // VRC_TRACE_WORKLOAD_HH
