#include "sim/parallel_runner.hh"

#include <cstdlib>

#include "base/threads.hh"

namespace vrc
{

namespace
{

std::atomic<unsigned> jobOverride{0};

} // namespace

unsigned
ParallelRunner::defaultJobs()
{
    if (unsigned forced = jobOverride.load(std::memory_order_relaxed))
        return forced;
    if (const char *env = std::getenv("VRC_JOBS")) {
        long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    return hardwareThreads();
}

void
ParallelRunner::setDefaultJobs(unsigned jobs)
{
    jobOverride.store(jobs, std::memory_order_relaxed);
}

} // namespace vrc
