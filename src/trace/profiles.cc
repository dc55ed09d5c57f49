/**
 * @file
 * Tuned workload profiles for the three paper traces.
 *
 * Targets, from Table 5 of the paper:
 *
 *   trace   cpus  total   instr  read   write  switches
 *   thor    4     3283k   1517k  1390k  376k   21
 *   pops    4     3286k   1718k  1285k  283k   7
 *   abaqus  2     1196k   514k   600k   82k    292
 *
 * pops is the procedure-call-heavy benchmark the paper dissects in
 * Tables 1-3 (30% of its writes come from calls of ~6+ writes each).
 * abaqus context-switches more than an order of magnitude more often
 * per reference than the other two, which is what drives the V-R vs R-R
 * differences in Table 6 / Figure 6.
 */

#include "trace/workload.hh"

#include "base/log.hh"

namespace vrc
{

WorkloadProfile
thorProfile()
{
    WorkloadProfile p;
    p.name = "thor";
    p.numCpus = 4;
    p.totalRefs = 3'283'000;
    p.instrFrac = 0.462;  // 1517/3283
    p.readFrac = 0.423;   // 1390/3283
    p.writeFrac = 0.115;  // 376/3283
    p.contextSwitches = 21;
    p.processesPerCpu = 2;

    p.procCount = 112;
    p.procZipfTheta = 1.45;
    p.callProb = 0.008;
    p.returnProb = 0.008;
    p.loopBackProb = 0.22;
    p.loopSpanBytes = 128;
    p.callWritesMin = 6;
    p.callWritesMax = 11;

    p.stackReadFrac = 0.28;
    p.repeatFrac = 0.32;
    p.seqFrac = 0.30;
    p.dataLevels = {{1 << 10, 0.68}, {4 << 10, 0.14}, {16 << 10, 0.09},
                    {64 << 10, 0.038}, {256 << 10, 0.027}, {1 << 20, 0.025}};
    p.sharedPages = 24;
    p.sharedFrac = 0.095;
    p.sharedWriteFrac = 0.50;
    p.hotspotFrac = 0.045;
    p.aliasFrac = 0.10;
    p.seed = 0x7407;
    return p;
}

WorkloadProfile
popsProfile()
{
    WorkloadProfile p;
    p.name = "pops";
    p.numCpus = 4;
    p.totalRefs = 3'286'000;
    p.instrFrac = 0.523;  // 1718/3286
    p.readFrac = 0.391;   // 1285/3286
    p.writeFrac = 0.086;  // 283/3286
    p.contextSwitches = 7;
    p.processesPerCpu = 2;

    // pops: ~30% of writes come from procedure calls averaging ~8 writes.
    p.procCount = 128;
    p.procZipfTheta = 1.40;
    p.callProb = 0.0062;
    p.returnProb = 0.0062;
    p.loopBackProb = 0.21;
    p.loopSpanBytes = 128;
    p.callWritesMin = 6;
    p.callWritesMax = 12;

    p.stackReadFrac = 0.26;
    p.repeatFrac = 0.30;
    p.seqFrac = 0.28;
    p.dataLevels = {{1 << 10, 0.62}, {4 << 10, 0.17}, {16 << 10, 0.11},
                    {64 << 10, 0.045}, {256 << 10, 0.030}, {1 << 20, 0.025}};
    p.sharedPages = 32;
    p.sharedFrac = 0.100;
    p.sharedWriteFrac = 0.50;
    p.hotspotFrac = 0.045;
    p.aliasFrac = 0.10;
    p.seed = 0x9095;
    return p;
}

WorkloadProfile
abaqusProfile()
{
    WorkloadProfile p;
    p.name = "abaqus";
    p.numCpus = 2;
    p.totalRefs = 1'196'000;
    p.instrFrac = 0.430;  // 514/1196
    p.readFrac = 0.502;   // 600/1196
    p.writeFrac = 0.068;  // 82/1196
    p.contextSwitches = 292;
    p.processesPerCpu = 2;

    p.procCount = 80;
    p.procZipfTheta = 1.35;
    p.callProb = 0.005;
    p.returnProb = 0.005;
    p.loopBackProb = 0.20;
    p.loopSpanBytes = 128;
    p.callWritesMin = 6;
    p.callWritesMax = 10;

    // Engineering code: larger, flatter data working sets (lower h1).
    p.stackReadFrac = 0.20;
    p.repeatFrac = 0.26;
    p.seqFrac = 0.42; // engineering code streams through arrays
    p.dataLevels = {{1 << 10, 0.52}, {8 << 10, 0.25}, {32 << 10, 0.11},
                    {128 << 10, 0.06}, {512 << 10, 0.035}, {2 << 20, 0.025}};
    p.sharedPages = 48;
    p.sharedFrac = 0.120;
    p.sharedWriteFrac = 0.45;
    p.hotspotFrac = 0.032;
    p.aliasFrac = 0.12;
    p.seed = 0xABA9;
    return p;
}

WorkloadProfile
profileByName(const std::string &name)
{
    if (name == "pops")
        return popsProfile();
    if (name == "thor")
        return thorProfile();
    if (name == "abaqus")
        return abaqusProfile();
    fatal("unknown workload profile: ", name,
          " (expected pops, thor or abaqus)");
}

bool
isBuiltinProfile(const std::string &name)
{
    return name == "pops" || name == "thor" || name == "abaqus";
}

std::vector<WorkloadProfile>
paperProfiles()
{
    return {thorProfile(), popsProfile(), abaqusProfile()};
}

WorkloadProfile
scaled(WorkloadProfile p, double factor)
{
    panicIfNot(factor > 0.0, "scale factor must be positive");
    p.totalRefs = static_cast<std::uint64_t>(
        static_cast<double>(p.totalRefs) * factor);
    if (p.totalRefs < 1000)
        p.totalRefs = 1000;
    p.contextSwitches = static_cast<std::uint32_t>(
        static_cast<double>(p.contextSwitches) * factor + 0.5);
    return p;
}

} // namespace vrc
