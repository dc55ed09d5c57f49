/**
 * @file
 * The host's hardware thread count, shared by every thread pool.
 *
 * ParallelRunner sizes its default pool with it and TraceStream caps
 * its generator threads with it, so both read the host the same way.
 */

#ifndef VRC_BASE_THREADS_HH
#define VRC_BASE_THREADS_HH

#include <thread>

namespace vrc
{

/** Hardware threads on this host; 1 when the count is unknown. */
inline unsigned
hardwareThreads()
{
    unsigned hc = std::thread::hardware_concurrency();
    return hc ? hc : 1;
}

} // namespace vrc

#endif // VRC_BASE_THREADS_HH
