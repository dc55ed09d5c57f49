#include "sim/experiment.hh"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "base/fault.hh"
#include "sim/parallel_runner.hh"

namespace vrc
{

MachineConfig
makeMachineConfig(HierarchyKind kind, std::uint32_t l1_size,
                  std::uint32_t l2_size, std::uint32_t page_size,
                  bool split)
{
    MachineConfig mc;
    mc.kind = kind;
    mc.hierarchy.pageSize = page_size;
    mc.hierarchy.l1.sizeBytes = l1_size;
    mc.hierarchy.l2.sizeBytes = l2_size;
    mc.hierarchy.splitL1 = split;
    return mc;
}

SimSummary
summarizeSimulation(const MpSimulator &sim, const SimJob &job)
{
    SimSummary s;
    s.kind = job.kind;
    s.l1Size = job.l1Size;
    s.l2Size = job.l2Size;
    s.split = job.split;
    s.h1 = sim.h1();
    s.h2 = sim.h2();
    s.h1Instr = sim.h1ForType(RefType::Instr);
    s.h1Read = sim.h1ForType(RefType::Read);
    s.h1Write = sim.h1ForType(RefType::Write);
    for (CpuId c = 0; c < sim.cpuCount(); ++c) {
        s.l1MsgsPerCpu.push_back(
            sim.hierarchy(c).stats().value("l1_coherence_msgs"));
    }
    s.inclusionInvalidations =
        sim.totalCounter("inclusion_invalidations");
    s.synonymHits = sim.totalCounter("synonym_hits");
    s.synonymMoves = sim.totalCounter("synonym_moves");
    s.writebackCancels = sim.totalCounter("writeback_cancels");
    s.swappedWritebacks = sim.totalCounter("swapped_writebacks");
    s.busTransactions = sim.bus().transactions();
    s.memoryWrites = sim.totalCounter("memory_writes");
    s.refs = sim.refsProcessed();
    s.timingMode = sim.timingMode();
    s.avgAccessTime = sim.measuredAccessTime();
    s.avgAccessCycles = sim.avgAccessCycles();
    s.busUtilization = sim.busUtilization();
    s.avgBusWait = sim.avgBusWait();
    return s;
}

SimSummary
runSimulation(const TraceBundle &bundle, HierarchyKind kind,
              std::uint32_t l1_size, std::uint32_t l2_size, bool split,
              std::uint64_t invariant_period, TimingMode timing_mode)
{
    return runSimulationJob(bundle, SimJob{kind, l1_size, l2_size, split,
                                           invariant_period,
                                           timing_mode});
}

SimSummary
replaySimulation(const WorkloadProfile &profile, const SimJob &job,
                 const TraceRecord *records, std::size_t n,
                 const ReplayPoll &poll)
{
    MachineConfig mc = makeMachineConfig(job.kind, job.l1Size, job.l2Size,
                                         profile.pageSize, job.split);
    mc.invariantPeriod = job.invariantPeriod;
    mc.timingMode = job.timingMode;
    MpSimulator sim(mc, profile);
    for (std::size_t done = 0;; done += kReplayChunk) {
        if (poll)
            poll(std::min(done, n));
        if (done >= n)
            break;
        sim.runBatch(records + done, std::min(kReplayChunk, n - done));
    }
    return summarizeSimulation(sim, job);
}

SimSummary
runSimulationJob(const TraceBundle &bundle, const SimJob &job)
{
    return replaySimulation(bundle.profile, job, bundle.records.data(),
                            bundle.records.size(), nullptr);
}

SimSummary
runSimulationCancellable(const TraceBundle &bundle, const SimJob &job,
                         const CancelToken &token)
{
    const std::size_t n = bundle.records.size();
    return replaySimulation(
        bundle.profile, job, bundle.records.data(), n,
        [&token, n](std::size_t done) {
            if (token.cancelled())
                throw ErrorException(makeError(
                    ErrorKind::Cancelled, "simulation cancelled after ",
                    done, " of ", n, " records"));
        });
}

std::vector<SimSummary>
runSimulations(const TraceBundle &bundle, const std::vector<SimJob> &jobs,
               unsigned threads)
{
    ParallelRunner pool(threads);
    return pool.map(jobs.size(), [&](std::size_t i) {
        return runSimulationJob(bundle, jobs[i]);
    });
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
paperSizePairs()
{
    return {{4 * 1024, 64 * 1024},
            {8 * 1024, 128 * 1024},
            {16 * 1024, 256 * 1024}};
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
smallSizePairs()
{
    return {{512, 64 * 1024}, {1024, 128 * 1024}, {2048, 256 * 1024}};
}

double
benchScaleFromArgs(int argc, char **argv, double quick)
{
    double scale = 0.0;
    for (int i = 1; i < argc; ++i) {
        char *end = nullptr;
        if (std::strcmp(argv[i], "--quick") == 0) {
            scale = quick;
        } else if (std::strncmp(argv[i], "--scale=", 8) == 0) {
            const char *text = argv[i] + 8;
            scale = std::strtod(text, &end);
            if (end == text || *end != '\0' || !std::isfinite(scale) ||
                scale <= 0.0)
                fatal("--scale needs a positive number, got '", text,
                      "'");
        } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            const char *text = argv[i] + 7;
            unsigned long jobs = std::strtoul(text, &end, 10);
            if (!std::isdigit(static_cast<unsigned char>(*text)) ||
                *end != '\0' || jobs > UINT_MAX)
                fatal("--jobs needs a whole number, got '", text, "'");
            ParallelRunner::setDefaultJobs(static_cast<unsigned>(jobs));
        } else if (std::strncmp(argv[i], "--inject-faults=", 16) == 0) {
            Status armed = configureFaultInjection(argv[i] + 16);
            if (!armed)
                fatal(armed.error().describe());
        }
    }
    if (scale != 0.0)
        return scale;
    if (const char *env = std::getenv("VRC_QUICK");
        env && env[0] == '1')
        return quick;
    return 1.0;
}

} // namespace vrc
