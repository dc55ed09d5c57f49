#include "trace/generator.hh"

#include "trace/trace_stream.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>

#include "base/bitops.hh"
#include "base/log.hh"
#include "base/threads.hh"
#include "vm/addr_space.hh"

namespace vrc
{

// ---------------------------------------------------------------------
// NestedWorkingSetSampler
// ---------------------------------------------------------------------

NestedWorkingSetSampler::NestedWorkingSetSampler(
    std::vector<WorkingSetLevel> levels, std::uint32_t block_bytes,
    std::uint32_t region_base)
    : _levels(std::move(levels)), _blockBytes(block_bytes),
      _regionBase(region_base)
{
    panicIfNot(!_levels.empty(), "sampler needs at least one level");
    std::sort(_levels.begin(), _levels.end(),
              [](const auto &a, const auto &b) { return a.bytes < b.bytes; });
    for (const auto &l : _levels)
        _weights.push_back(l.weight);
    _weightTotal = std::accumulate(_weights.begin(), _weights.end(), 0.0);
}

std::uint32_t
NestedWorkingSetSampler::sample(Rng &rng) const
{
    std::size_t li = rng.weighted(_weights, _weightTotal);
    std::uint32_t blocks = std::max<std::uint32_t>(
        1, _levels[li].bytes / _blockBytes);
    std::uint32_t block = static_cast<std::uint32_t>(rng.below(blocks));
    std::uint32_t offset = static_cast<std::uint32_t>(
        rng.below(_blockBytes)) & ~3u;
    return _regionBase + block * _blockBytes + offset;
}

// ---------------------------------------------------------------------
// Address-space setup shared by generator and simulator
// ---------------------------------------------------------------------

namespace
{

std::uint32_t
textPages(const WorkloadProfile &p)
{
    std::uint64_t text_bytes =
        std::uint64_t{p.procCount} * p.procStride;
    return static_cast<std::uint32_t>(
        (text_bytes + p.pageSize - 1) / p.pageSize);
}

} // namespace

std::uint32_t
processCount(const WorkloadProfile &profile)
{
    return profile.numCpus * profile.processesPerCpu;
}

void
setupAddressSpaces(const WorkloadProfile &profile,
                   AddressSpaceManager &spaces)
{
    const std::uint32_t page = spaces.pageSize();
    panicIfNot(page == profile.pageSize,
               "profile/page-size mismatch between trace and simulator");

    SegmentId text = spaces.createSegment(
        textPages(profile), VirtualLayout::textBase / page);
    SegmentId shared = spaces.createSegment(
        profile.sharedPages, VirtualLayout::sharedBase / page);

    const std::uint32_t nproc = processCount(profile);
    for (ProcessId pid = 0; pid < nproc; ++pid) {
        spaces.attachSegment(pid, text, VirtualLayout::textBase / page);
        spaces.attachSegment(pid, shared,
                             VirtualLayout::sharedBase / page);
        spaces.attachSegment(
            pid, shared,
            VirtualLayout::aliasBase(pid, profile.sharedPages, page) /
                page);
    }
}

// ---------------------------------------------------------------------
// Generator internals
// ---------------------------------------------------------------------

namespace
{

/** Zipf-weighted procedure popularity. */
std::vector<double>
procWeights(std::uint32_t count, double theta)
{
    std::vector<double> w(count);
    for (std::uint32_t i = 0; i < count; ++i)
        w[i] = 1.0 / std::pow(static_cast<double>(i + 1), theta);
    return w;
}

/** Execution state of one simulated process. */
struct ProcessState
{
    ProcessId pid = 0;
    std::uint32_t pc = VirtualLayout::textBase;
    std::uint32_t procEntry = VirtualLayout::textBase;
    std::uint32_t sp = VirtualLayout::stackBase + 0x8000;
    /** Last private data address touched (temporal-reuse source). */
    std::uint32_t lastData = VirtualLayout::privateDataBase;
    /** Current shared block being worked on (0 = none yet). */
    std::uint32_t lastShared = 0;
    /** Return address + frame size for each live call. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> callStack;
};

/** Per-CPU generation engine: emits one TraceRecord per step. */
class CpuEngine
{
  public:
    CpuEngine(const WorkloadProfile &p, CpuId cpu, Rng rng,
              GenStats &stats)
        : _p(p), _cpu(cpu), _rng(std::move(rng)), _stats(stats),
          _procWeights(procWeights(p.procCount, p.procZipfTheta)),
          _procWeightTotal(std::accumulate(_procWeights.begin(),
                                           _procWeights.end(), 0.0)),
          _dataSampler(p.dataLevels, p.dataBlockBytes,
                       VirtualLayout::privateDataBase),
          _sharedSampler(
              // A small, hot, actively contended region (locks,
              // frequently updated shared state) in front of the full
              // segment: this is what keeps shared blocks resident in
              // several level-1 caches at once, producing genuine
              // coherence percolation (Tables 11-13).
              {{8 * p.dataBlockBytes, 0.60},
               {std::max<std::uint32_t>(p.sharedPages * p.pageSize / 16,
                                        64 * p.dataBlockBytes),
                0.22},
               {p.sharedPages * p.pageSize, 0.18}},
              p.dataBlockBytes, 0)
    {
        _readsPerInstr = p.instrFrac > 0 ? p.readFrac / p.instrFrac : 0;
        double writes_per_instr =
            p.instrFrac > 0 ? p.writeFrac / p.instrFrac : 0;
        double burst_mean = (p.callWritesMin + p.callWritesMax) / 2.0;
        _bgWritesPerInstr =
            std::max(0.0, writes_per_instr - p.callProb * burst_mean);

        for (std::uint32_t k = 0; k < p.processesPerCpu; ++k) {
            ProcessState ps;
            ps.pid = cpu * p.processesPerCpu + k;
            // Desynchronize processes so CPUs don't run in lockstep.
            ps.procEntry = procEntryAddr(
                static_cast<std::uint32_t>(_rng.below(p.procCount)));
            ps.pc = ps.procEntry;
            _procs.push_back(ps);
        }
    }

    ProcessId activePid() const { return _procs[_active].pid; }

    /** Rotate to the next process; returns the new pid. */
    ProcessId
    contextSwitch()
    {
        _active = (_active + 1) % _procs.size();
        _stats.contextSwitches += 1;
        return activePid();
    }

    /** Produce the next memory reference for the active process. */
    TraceRecord
    next()
    {
        if (_pendingHead < _pending.size()) {
            TraceRecord r = _pending[_pendingHead++];
            if (_pendingHead == _pending.size()) {
                _pending.clear();
                _pendingHead = 0;
            }
            note(r);
            return r;
        }
        ProcessState &ps = _procs[_active];
        TraceRecord instr =
            makeRef(_cpu, RefType::Instr, ps.pid, VirtAddr(ps.pc));
        stepControlFlow(ps);
        scheduleDataRefs(ps);
        note(instr);
        return instr;
    }

  private:
    std::uint32_t
    procEntryAddr(std::uint32_t proc_index) const
    {
        return VirtualLayout::textBase + proc_index * _p.procStride;
    }

    void
    note(const TraceRecord &r)
    {
        switch (r.type) {
          case RefType::Instr:
            _stats.totalInstr += 1;
            break;
          case RefType::Read:
            _stats.totalReads += 1;
            break;
          case RefType::Write:
            _stats.totalWrites += 1;
            break;
          default:
            break;
        }
    }

    /** Advance the PC: sequential fetch, loops, calls and returns. */
    void
    stepControlFlow(ProcessState &ps)
    {
        ps.pc += 4;
        bool past_end = ps.pc >= ps.procEntry + _p.procStride;

        if (!past_end && _rng.chance(_p.loopBackProb)) {
            std::uint32_t span = static_cast<std::uint32_t>(
                _rng.range(8, std::max<std::uint32_t>(8, _p.loopSpanBytes)));
            span &= ~3u;
            ps.pc = std::max(ps.procEntry, ps.pc - span);
            return;
        }

        if (!past_end && ps.callStack.size() < _p.maxCallDepth &&
            _rng.chance(_p.callProb)) {
            doCall(ps);
            return;
        }

        if (past_end || (!ps.callStack.empty() &&
                         _rng.chance(_p.returnProb))) {
            doReturn(ps);
            return;
        }
    }

    void
    doCall(ProcessState &ps)
    {
        std::uint32_t writes = static_cast<std::uint32_t>(
            _rng.range(_p.callWritesMin, _p.callWritesMax));
        // The paper's Table 1 shows a small residue of 1..5-write calls.
        if (_rng.chance(0.002))
            writes = static_cast<std::uint32_t>(_rng.range(1, 5));

        std::uint32_t frame = writes * 4;
        if (ps.sp < VirtualLayout::stackBase + frame + 256)
            ps.sp = VirtualLayout::stackBase + 0x8000; // stack reset guard
        for (std::uint32_t i = 0; i < writes; ++i) {
            ps.sp -= 4;
            _pending.push_back(
                makeRef(_cpu, RefType::Write, ps.pid, VirtAddr(ps.sp)));
        }
        _stats.totalCalls += 1;
        _stats.callWrites.record(writes);
        _stats.callWriteCount += writes;

        ps.callStack.emplace_back(ps.pc, frame);
        std::uint32_t callee = static_cast<std::uint32_t>(
            _rng.weighted(_procWeights, _procWeightTotal));
        ps.procEntry = procEntryAddr(callee);
        ps.pc = ps.procEntry;
    }

    void
    doReturn(ProcessState &ps)
    {
        if (ps.callStack.empty()) {
            // Main loop wrapped around: restart a fresh top procedure.
            std::uint32_t callee = static_cast<std::uint32_t>(
                _rng.weighted(_procWeights, _procWeightTotal));
            ps.procEntry = procEntryAddr(callee);
            ps.pc = ps.procEntry;
            return;
        }
        auto [ret_pc, frame] = ps.callStack.back();
        ps.callStack.pop_back();
        ps.sp += frame;
        ps.pc = ret_pc;
        // Recover the enclosing procedure entry from the return address.
        std::uint32_t idx =
            (ret_pc - VirtualLayout::textBase) / _p.procStride;
        ps.procEntry = procEntryAddr(idx);
    }

    /** Queue the data references associated with one instruction. */
    void
    scheduleDataRefs(ProcessState &ps)
    {
        for (double x = _readsPerInstr; x >= 1.0 || _rng.chance(x);
             x -= 1.0) {
            _pending.push_back(makeRef(_cpu, RefType::Read, ps.pid,
                                       VirtAddr(readAddr(ps))));
            if (x < 1.0)
                break;
        }
        for (double x = _bgWritesPerInstr; x >= 1.0 || _rng.chance(x);
             x -= 1.0) {
            _pending.push_back(makeRef(_cpu, RefType::Write, ps.pid,
                                       VirtAddr(writeAddr(ps))));
            if (x < 1.0)
                break;
        }
    }

    /** One block of the globally hot, constantly polled set. */
    std::uint32_t
    hotspotAddr()
    {
        // The hotspot lives at the tail of the shared segment, away
        // from the contended-region levels at its head.
        std::uint32_t limit = _p.sharedPages * _p.pageSize;
        std::uint32_t block = static_cast<std::uint32_t>(
            _rng.below(std::max<std::uint32_t>(1, _p.hotspotBlocks)));
        return VirtualLayout::sharedBase + limit -
            (block + 1) * _p.dataBlockBytes;
    }

    std::uint32_t
    sharedAddr(ProcessState &ps)
    {
        // Bursty sharing: keep working on the current shared block for
        // a while before moving on, as real producer/consumer and
        // shared-structure code does.
        if (ps.lastShared != 0 && _rng.chance(_p.sharedRepeatFrac))
            return ps.lastShared;
        std::uint32_t offset = _sharedSampler.sample(_rng);
        std::uint32_t limit = _p.sharedPages * _p.pageSize;
        offset %= limit;
        if (_rng.chance(_p.aliasFrac)) {
            ps.lastShared = VirtualLayout::aliasBase(
                                ps.pid, _p.sharedPages, _p.pageSize) +
                offset;
        } else {
            ps.lastShared = VirtualLayout::sharedBase + offset;
        }
        return ps.lastShared;
    }

    std::uint32_t
    readAddr(ProcessState &ps)
    {
        if (_rng.chance(_p.hotspotFrac))
            return hotspotAddr();
        if (_rng.chance(_p.repeatFrac))
            return ps.lastData;
        if (_rng.chance(_p.seqFrac)) {
            ps.lastData += 4;  // array walk continues
            return ps.lastData;
        }
        if (_rng.chance(_p.stackReadFrac))
            return ps.sp + static_cast<std::uint32_t>(_rng.below(16)) * 4;
        if (_rng.chance(_p.sharedFrac))
            return sharedAddr(ps);
        ps.lastData = _dataSampler.sample(_rng);
        return ps.lastData;
    }

    std::uint32_t
    writeAddr(ProcessState &ps)
    {
        if (_rng.chance(_p.hotspotFrac))
            return hotspotAddr();
        if (_rng.chance(_p.repeatFrac))
            return ps.lastData;
        if (_rng.chance(_p.seqFrac)) {
            ps.lastData += 4;
            return ps.lastData;
        }
        if (_rng.chance(_p.sharedFrac) && _rng.chance(_p.sharedWriteFrac))
            return sharedAddr(ps);
        ps.lastData = _dataSampler.sample(_rng);
        return ps.lastData;
    }

    const WorkloadProfile &_p;
    CpuId _cpu;
    Rng _rng;
    GenStats &_stats;
    std::vector<double> _procWeights;
    double _procWeightTotal;
    NestedWorkingSetSampler _dataSampler;
    NestedWorkingSetSampler _sharedSampler;
    double _readsPerInstr = 0;
    double _bgWritesPerInstr = 0;
    std::vector<ProcessState> _procs;
    std::size_t _active = 0;
    /** References queued behind the last instruction, FIFO from
     *  _pendingHead; refilled only once drained. */
    std::vector<TraceRecord> _pending;
    std::size_t _pendingHead = 0;
};

} // namespace

// ---------------------------------------------------------------------
// TraceStream: incremental generation
// ---------------------------------------------------------------------

namespace
{

/** @p p, after panicking if it fails validateProfile(). */
const WorkloadProfile &
checkedProfile(const WorkloadProfile &p)
{
    if (Status valid = validateProfile(p); !valid)
        panic("invalid workload profile: ", valid.error().message);
    return p;
}

/** Context switches assigned to @p cpu: remainder to low CPUs. */
std::uint32_t
switchesFor(const WorkloadProfile &p, CpuId cpu)
{
    return p.contextSwitches / p.numCpus +
        (cpu < p.contextSwitches % p.numCpus ? 1 : 0);
}

/** Records per ring slot, and slots per lane (128 KiB a lane). */
constexpr std::size_t kLaneBatch = 4096;
constexpr std::size_t kLaneSlots = 4;

/**
 * One CPU's share of the trace: its engine, its own ground truth, its
 * context-switch schedule and a bounded ring of record batches the
 * engine fills ahead of the merge. A due switch marker goes into the
 * ring directly before the engine record of the same merge visit, so
 * the ring holds exactly this CPU's subsequence of the merged trace.
 */
struct Lane
{
    Lane(const WorkloadProfile &p, CpuId cpu, Rng rng,
         std::uint64_t per_cpu)
        : engine(p, cpu, std::move(rng), stats), cpu(cpu),
          perCpu(per_cpu), switchesLeft(switchesFor(p, cpu)),
          slots(kLaneSlots * kLaneBatch)
    {
        switchInterval = switchesLeft > 0 ? perCpu / (switchesLeft + 1)
                                          : 0;
        nextSwitch = switchInterval;
    }

    /** Generate the next batch into @p out; returns its length. */
    std::size_t
    fillBatch(TraceRecord *out)
    {
        std::size_t n = 0;
        while (n < kLaneBatch && generated < perCpu) {
            if (switchesLeft > 0 && generated >= nextSwitch) {
                // A marker never ends a batch without its record.
                if (n + 2 > kLaneBatch)
                    break;
                out[n++] = makeContextSwitch(cpu, engine.contextSwitch());
                switchesLeft -= 1;
                nextSwitch += switchInterval;
            }
            out[n++] = engine.next();
            generated += 1;
        }
        return n;
    }

    bool finished() const { return generated >= perCpu; }

    // Producer-only: touched by the owning generator thread alone.
    GenStats stats;
    CpuEngine engine;
    CpuId cpu;
    std::uint64_t perCpu;
    std::uint64_t generated = 0; ///< engine records generated
    std::uint32_t switchesLeft;
    std::uint64_t switchInterval;
    std::uint64_t nextSwitch;

    // The ring. A slot's records are written by the producer before it
    // publishes the slot and read by the merge until it releases it;
    // the two counters are guarded by the owning crew's mutex.
    std::vector<TraceRecord> slots;
    std::array<std::size_t, kLaneSlots> slotLength{}; ///< records per slot
    std::uint64_t published = 0; ///< slots filled so far
    std::uint64_t released = 0;  ///< slots the merge finished reading
};

/** One generator thread and the lock its lanes' rings share. */
struct Crew
{
    std::mutex mu;
    std::condition_variable space; ///< a slot was released, or stop
    std::condition_variable data;  ///< a slot was published
    std::thread thread;
};

/** The merge's read position in one lane's current slot. */
struct LaneCursor
{
    const TraceRecord *pos = nullptr;
    const TraceRecord *end = nullptr;
    bool holding = false;       ///< a slot is taken and not released
    std::uint64_t emitted = 0;  ///< engine records merged so far
};

} // namespace

std::uint64_t
traceRecordCount(const WorkloadProfile &profile)
{
    const WorkloadProfile &p = checkedProfile(profile);
    const std::uint64_t per_cpu = p.totalRefs / p.numCpus;
    std::uint64_t total = 0;
    for (CpuId c = 0; c < p.numCpus; ++c) {
        // Each switch is paired with one of the CPU's engine records,
        // so a CPU with fewer records than switches emits only as
        // many switches as records.
        total += per_cpu +
            std::min<std::uint64_t>(switchesFor(p, c), per_cpu);
    }
    return total;
}

unsigned
generatorThreads(std::uint32_t num_cpus, unsigned hardware, unsigned cap)
{
    unsigned t = std::min<unsigned>(num_cpus, std::max(hardware, 1u));
    if (cap > 0)
        t = std::min(t, cap);
    return std::max(t, 1u);
}

/**
 * Streaming state: one lane per CPU, generated ahead on T threads
 * (generatorThreads() by default), and the round-robin merge over the
 * lanes. The emission order is identical to the historical serial
 * loop: CPUs are visited round-robin; a visit first emits a due
 * context-switch marker, then one engine record. Each lane holds its
 * CPU's records in exactly that order, so the merge reads the same
 * bytes a single thread would have generated, for any thread count.
 *
 * Thread t owns lanes t, t+T, ... and fills whichever of them has a
 * free slot, blocking only when all of them are full. The merge waits
 * only on a lane with no published slot, whose owner therefore has a
 * free slot to fill and is not blocked: the wait always ends.
 */
struct TraceStream::Impl
{
    Impl(const WorkloadProfile &p, unsigned threads)
        : profile(checkedProfile(p)), perCpu(p.totalRefs / p.numCpus),
          total(traceRecordCount(p)),
          threadCount(threads > 0
                          ? std::min(threads, p.numCpus)
                          : generatorThreads(p.numCpus, hardwareThreads(),
                                             0)),
          cursors(p.numCpus)
    {
        Rng root(profile.seed);
        lanes.reserve(profile.numCpus);
        for (CpuId c = 0; c < profile.numCpus; ++c)
            lanes.push_back(
                std::make_unique<Lane>(profile, c, root.fork(), perCpu));
    }

    ~Impl() { stopCrews(); }

    Impl(const Impl &) = delete;
    Impl &operator=(const Impl &) = delete;

    /** Start the generator threads; called on the first pull. */
    void
    startCrews()
    {
        started = true;
        if (perCpu == 0)
            return;
        crews.reserve(threadCount);
        for (unsigned t = 0; t < threadCount; ++t)
            crews.push_back(std::make_unique<Crew>());
        for (unsigned t = 0; t < threadCount; ++t)
            crews[t]->thread = std::thread([this, t] { produce(t); });
    }

    /** Stop and join every generator thread, done or not. */
    void
    stopCrews()
    {
        stopping.store(true, std::memory_order_relaxed);
        for (auto &crew : crews) {
            // Taking the lock orders the flag before a producer's
            // next check, so its wait cannot miss the notify.
            { std::lock_guard<std::mutex> g(crew->mu); }
            crew->space.notify_all();
        }
        for (auto &crew : crews)
            if (crew->thread.joinable())
                crew->thread.join();
    }

    /** Generator thread @p t: keep its lanes' rings full. */
    void
    produce(unsigned t)
    {
        Crew &crew = *crews[t];
        const std::size_t stride = crews.size();
        std::unique_lock<std::mutex> lk(crew.mu);
        while (!stopping.load(std::memory_order_relaxed)) {
            // Fill the unfinished lane with the fewest batches ahead
            // of the merge: the one the merge reaches soonest.
            Lane *pick = nullptr;
            bool unfinished = false;
            for (std::size_t c = t; c < lanes.size(); c += stride) {
                Lane &l = *lanes[c];
                if (l.finished())
                    continue;
                unfinished = true;
                std::uint64_t ahead = l.published - l.released;
                if (ahead < kLaneSlots &&
                    (!pick || ahead < pick->published - pick->released))
                    pick = &l;
            }
            if (!unfinished)
                return;
            if (!pick) {
                crew.space.wait(lk);
                continue;
            }
            std::size_t slot = pick->published % kLaneSlots;
            lk.unlock();
            pick->slotLength[slot] =
                pick->fillBatch(&pick->slots[slot * kLaneBatch]);
            lk.lock();
            pick->published += 1;
            crew.data.notify_one();
        }
    }

    /** Point lane @p c's cursor at its next published slot. */
    void
    refill(CpuId c)
    {
        Lane &l = *lanes[c];
        LaneCursor &cur = cursors[c];
        Crew &crew = *crews[c % crews.size()];
        std::unique_lock<std::mutex> lk(crew.mu);
        if (cur.holding) {
            l.released += 1;
            crew.space.notify_one();
        }
        crew.data.wait(lk, [&l] { return l.published > l.released; });
        std::size_t slot = l.released % kLaneSlots;
        cur.pos = &l.slots[slot * kLaneBatch];
        cur.end = cur.pos + l.slotLength[slot];
        cur.holding = true;
    }

    /** The next record of lane @p c's subsequence. */
    TraceRecord
    take(CpuId c)
    {
        LaneCursor &cur = cursors[c];
        if (cur.pos == cur.end)
            refill(c);
        return *cur.pos++;
    }

    bool
    next(TraceRecord &out)
    {
        if (!started)
            startCrews();
        if (owedEngineRecord) {
            // The context-switch marker for this CPU just went out; the
            // engine record of the same visit follows.
            owedEngineRecord = false;
            out = take(cursor);
            cursors[cursor].emitted += 1;
            advance();
            produced += 1;
            return true;
        }
        for (std::uint32_t scanned = 0; scanned < profile.numCpus;
             ++scanned) {
            CpuId c = cursor;
            if (cursors[c].emitted >= perCpu) {
                advance();
                continue;
            }
            out = take(c);
            if (out.type == RefType::ContextSwitch) {
                owedEngineRecord = true;
            } else {
                cursors[c].emitted += 1;
                advance();
            }
            produced += 1;
            return true;
        }
        if (!finished)
            finish();
        return false;
    }

    /** Every lane is drained: join the threads, sum the ground truth. */
    void
    finish()
    {
        finished = true;
        stopCrews();
        for (const auto &l : lanes) {
            const GenStats &s = l->stats;
            genStats.callWrites.merge(s.callWrites);
            genStats.totalCalls += s.totalCalls;
            genStats.callWriteCount += s.callWriteCount;
            genStats.totalWrites += s.totalWrites;
            genStats.totalReads += s.totalReads;
            genStats.totalInstr += s.totalInstr;
            genStats.contextSwitches += s.contextSwitches;
        }
    }

    void
    advance()
    {
        if (++cursor == profile.numCpus)
            cursor = 0;
    }

    WorkloadProfile profile;
    std::uint64_t perCpu;
    std::uint64_t total;
    unsigned threadCount;
    std::vector<std::unique_ptr<Lane>> lanes;
    std::vector<std::unique_ptr<Crew>> crews;
    std::atomic<bool> stopping{false};

    // Merge state: touched by the pulling thread alone.
    std::vector<LaneCursor> cursors;
    CpuId cursor = 0;
    bool owedEngineRecord = false;
    bool started = false;
    bool finished = false;
    std::uint64_t produced = 0;
    GenStats genStats; ///< the lanes' sum, once finished
};

TraceStream::TraceStream(const WorkloadProfile &profile,
                         unsigned threads)
    : _impl(std::make_unique<Impl>(profile, threads))
{
}

TraceStream::~TraceStream() = default;
TraceStream::TraceStream(TraceStream &&) noexcept = default;
TraceStream &TraceStream::operator=(TraceStream &&) noexcept = default;

bool
TraceStream::next(TraceRecord &out)
{
    return _impl->next(out);
}

std::size_t
TraceStream::nextBatch(TraceRecord *out, std::size_t cap)
{
    Impl &impl = *_impl;
    std::size_t n = 0;
    while (n < cap && impl.next(out[n]))
        ++n;
    return n;
}

std::uint64_t
TraceStream::produced() const
{
    return _impl->produced;
}

std::uint64_t
TraceStream::expectedTotal() const
{
    return _impl->total;
}

const WorkloadProfile &
TraceStream::profile() const
{
    return _impl->profile;
}

const GenStats &
TraceStream::stats() const
{
    return _impl->genStats;
}

TraceBundle
generateTrace(const WorkloadProfile &profile, unsigned threads)
{
    TraceStream stream(profile, threads);
    TraceBundle bundle;
    bundle.profile = profile;
    bundle.records.reserve(stream.expectedTotal());

    TraceRecord r;
    while (stream.next(r))
        bundle.records.push_back(r);
    bundle.stats = stream.stats();
    return bundle;
}

} // namespace vrc
