/**
 * @file
 * Incremental (streaming) trace generation.
 *
 * TraceStream produces the exact record sequence generateTrace() would
 * materialize, one record at a time, so a simulator can replay a
 * multi-million-reference workload without ever holding the trace in
 * memory. generateTrace() itself is implemented by draining a stream,
 * which guarantees the two paths can never diverge.
 *
 * Each CPU's records are generated on a generator thread, ahead of the
 * pull, into a bounded per-CPU ring; the pull merges the rings in the
 * serial round-robin order, so the bytes do not depend on the thread
 * count (DESIGN.md, "Streaming generation").
 */

#ifndef VRC_TRACE_TRACE_STREAM_HH
#define VRC_TRACE_TRACE_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "trace/record.hh"
#include "trace/workload.hh"

namespace vrc
{

/**
 * Generator threads a stream over a @p num_cpus profile starts: one
 * per CPU, at most @p hardware, and at most @p cap when @p cap is
 * nonzero. Never fewer than 1. Pure: starts nothing.
 */
unsigned generatorThreads(std::uint32_t num_cpus, unsigned hardware,
                          unsigned cap);

/** Pull-based generator of one profile's interleaved trace; pull from
 *  one thread at a time. */
class TraceStream
{
  public:
    /**
     * A stream of @p profile's trace, generated on @p threads threads
     * (at most one per CPU; 0 = generatorThreads(numCpus,
     * hardwareThreads(), 0)). The threads start on the first pull; the
     * destructor stops and joins them, also when the stream is
     * abandoned part-way.
     */
    explicit TraceStream(const WorkloadProfile &profile,
                         unsigned threads = 0);
    ~TraceStream();

    TraceStream(TraceStream &&) noexcept;
    TraceStream &operator=(TraceStream &&) noexcept;

    /**
     * Produce the next record into @p out.
     *
     * @return false when the trace is exhausted (@p out untouched).
     */
    bool next(TraceRecord &out);

    /**
     * Decode up to @p cap records into @p out, in exactly the order
     * repeated next() calls would produce them. Batched decoding lets a
     * replay loop amortize the stream's indirection over thousands of
     * records instead of paying it per reference.
     *
     * @return the number of records produced; 0 means exhausted.
     */
    std::size_t nextBatch(TraceRecord *out, std::size_t cap);

    /** Records produced so far. */
    std::uint64_t produced() const;

    /**
     * Exact total record count the stream produces (references +
     * context switches), known before the first record is drawn.
     */
    std::uint64_t expectedTotal() const;

    /** The profile driving the stream. */
    const WorkloadProfile &profile() const;

    /**
     * Generation-time ground truth: the sum over the CPUs, filled in
     * when next() first returns false and empty before.
     */
    const GenStats &stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

} // namespace vrc

#endif // VRC_TRACE_TRACE_STREAM_HH
