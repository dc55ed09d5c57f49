/**
 * @file
 * Tests for streaming trace generation: TraceStream must emit exactly
 * the sequence generateTrace() materializes, and a simulator fed from
 * the stream must be indistinguishable from one fed the vector.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hh"
#include "sim/json_stats.hh"
#include "trace/generator.hh"
#include "trace/trace_stream.hh"

namespace vrc
{
namespace
{

/** Names of every built-in paper profile, in Table 5 order. */
std::vector<std::string>
paperProfileNames()
{
    std::vector<std::string> names;
    for (const auto &p : paperProfiles())
        names.push_back(p.name);
    return names;
}

class TraceStreamEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceStreamEquivalence, MatchesMaterializedTrace)
{
    WorkloadProfile p = scaled(profileByName(GetParam()), 0.01);
    TraceBundle bundle = generateTrace(p);

    TraceStream stream(p);
    TraceRecord r;
    std::size_t i = 0;
    while (stream.next(r)) {
        ASSERT_LT(i, bundle.records.size());
        ASSERT_EQ(r, bundle.records[i]) << "record " << i << " differs";
        ++i;
    }
    EXPECT_EQ(i, bundle.records.size());
    EXPECT_EQ(stream.produced(), bundle.records.size());
    // Exhausted streams stay exhausted.
    EXPECT_FALSE(stream.next(r));

    // Generation ground truth must match too (same engines, same order).
    EXPECT_EQ(stream.stats().totalWrites, bundle.stats.totalWrites);
    EXPECT_EQ(stream.stats().totalReads, bundle.stats.totalReads);
    EXPECT_EQ(stream.stats().totalInstr, bundle.stats.totalInstr);
    EXPECT_EQ(stream.stats().totalCalls, bundle.stats.totalCalls);
    EXPECT_EQ(stream.stats().contextSwitches,
              bundle.stats.contextSwitches);
    EXPECT_EQ(stream.stats().callWriteCount,
              bundle.stats.callWriteCount);
}

TEST_P(TraceStreamEquivalence, SimulatorStatsMatchMaterializedRun)
{
    WorkloadProfile p = scaled(profileByName(GetParam()), 0.01);
    TraceBundle bundle = generateTrace(p);
    MachineConfig mc = makeMachineConfig(HierarchyKind::VirtualReal,
                                         8 * 1024, 64 * 1024,
                                         p.pageSize);

    MpSimulator from_vector(mc, p);
    from_vector.run(bundle.records);

    MpSimulator from_stream(mc, p);
    TraceStream stream(p);
    from_stream.run(stream);

    EXPECT_EQ(toJson(from_vector), toJson(from_stream));
}

// Every built-in profile: a new profile added to paperProfiles() is
// automatically held to the stream/vector bit-equivalence contract.
INSTANTIATE_TEST_SUITE_P(
    Profiles, TraceStreamEquivalence,
    ::testing::ValuesIn(paperProfileNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(TraceStreamTest, ExpectedTotalCoversProducedRecords)
{
    WorkloadProfile p = scaled(popsProfile(), 0.005);
    TraceStream stream(p);
    TraceRecord r;
    while (stream.next(r)) {
    }
    EXPECT_LE(stream.produced(), stream.expectedTotal());
    EXPECT_GT(stream.produced(), 0u);
}

TEST(TraceStreamTest, ExpectedTotalIsExact)
{
    // Odd scales leave totalRefs indivisible by the CPU count; the
    // last profile has more switches than any CPU has records.
    std::vector<WorkloadProfile> profiles;
    for (const auto &p : paperProfiles()) {
        profiles.push_back(scaled(p, 0.01));
        profiles.push_back(scaled(p, 0.0037));
    }
    WorkloadProfile dense = scaled(popsProfile(), 0.0001);
    dense.totalRefs = 1003;
    dense.contextSwitches = 5000;
    profiles.push_back(dense);

    for (const WorkloadProfile &p : profiles) {
        TraceStream stream(p);
        std::uint64_t expected = stream.expectedTotal();
        TraceRecord r;
        while (stream.next(r)) {
        }
        EXPECT_EQ(stream.produced(), expected)
            << p.name << " refs=" << p.totalRefs
            << " switches=" << p.contextSwitches;
    }
}

/** FNV-1a over each record's fields, little-endian, in stream order. */
std::uint64_t
contentHash(TraceStream &stream, std::uint64_t &records)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    records = 0;
    TraceRecord r;
    while (stream.next(r)) {
        mix(r.vaddr, 4);
        mix(r.pid, 2);
        mix(r.cpu, 1);
        mix(static_cast<std::uint8_t>(r.type), 1);
        ++records;
    }
    return h;
}

// The generator's exact output, recorded when it still drew through
// <random>. Every golden and equivalence check downstream depends on
// these bytes, so a drift fails here first, under one clear name.
TEST(TraceStreamTest, PinnedContentHash)
{
    struct Pin
    {
        const char *profile;
        std::uint64_t hash, records, instr, reads, writes, calls,
            callWrites, switches;
    };
    const Pin pins[] = {
        {"pops", 0x85abea2f0ee7e12cull, 65720, 34618, 25884, 5218, 154,
         1392, 0},
        {"thor", 0xf6f3b02687fa243eull, 65660, 30646, 28045, 6969, 168,
         1434, 0},
        {"abaqus", 0xcf32ef17387f246bull, 23926, 10293, 12045, 1582, 44,
         362, 6},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.profile);
        TraceStream stream(scaled(profileByName(pin.profile), 0.02));
        std::uint64_t records = 0;
        std::uint64_t hash = contentHash(stream, records);
        EXPECT_EQ(hash, pin.hash)
            << "the trace generator's output changed: every golden and "
               "recorded result built from this profile changes with it";
        EXPECT_EQ(records, pin.records);
        const GenStats &g = stream.stats();
        EXPECT_EQ(g.totalInstr, pin.instr);
        EXPECT_EQ(g.totalReads, pin.reads);
        EXPECT_EQ(g.totalWrites, pin.writes);
        EXPECT_EQ(g.totalCalls, pin.calls);
        EXPECT_EQ(g.callWriteCount, pin.callWrites);
        EXPECT_EQ(g.contextSwitches, pin.switches);
    }
}

/** The FNV-1a hash and ground truth PinnedContentHash holds, per
 *  profile at scale 0.02. */
struct Pin
{
    const char *profile;
    std::uint64_t hash, records, instr, reads, writes, calls, callWrites,
        switches;
};
const Pin kPins[] = {
    {"pops", 0x85abea2f0ee7e12cull, 65720, 34618, 25884, 5218, 154, 1392,
     0},
    {"thor", 0xf6f3b02687fa243eull, 65660, 30646, 28045, 6969, 168, 1434,
     0},
    {"abaqus", 0xcf32ef17387f246bull, 23926, 10293, 12045, 1582, 44, 362,
     6},
};

// Each CPU's records come from their own lane whatever thread owns it:
// the merged bytes and the summed ground truth cannot depend on how
// many threads generate them, including a count that does not divide
// the CPUs (3 over 4 lanes: one thread owns two).
TEST(TraceStreamTest, SameBytesForAnyThreadCount)
{
    for (const Pin &pin : kPins) {
        WorkloadProfile p = scaled(profileByName(pin.profile), 0.02);
        for (unsigned threads = 1; threads <= p.numCpus; ++threads) {
            SCOPED_TRACE(std::string(pin.profile) + " threads=" +
                         std::to_string(threads));
            TraceStream stream(p, threads);
            std::uint64_t records = 0;
            EXPECT_EQ(contentHash(stream, records), pin.hash);
            EXPECT_EQ(records, pin.records);
            const GenStats &g = stream.stats();
            EXPECT_EQ(g.totalInstr, pin.instr);
            EXPECT_EQ(g.totalReads, pin.reads);
            EXPECT_EQ(g.totalWrites, pin.writes);
            EXPECT_EQ(g.totalCalls, pin.calls);
            EXPECT_EQ(g.callWriteCount, pin.callWrites);
            EXPECT_EQ(g.contextSwitches, pin.switches);
            EXPECT_EQ(g.callWrites.samples(), pin.calls);
            EXPECT_EQ(g.callWrites.sum(), pin.callWrites);
        }
    }
}

// Abandoning a stream part-way -- a --warmup cut, a machine check, a
// cancelled cell -- must stop and join its generator threads, whether
// they are blocked on full rings or still generating.
TEST(TraceStreamTest, DestroyMidStream)
{
    // Each of thor's lanes holds ~41k records, far more than its ring,
    // so its producers fill the ring and block.
    WorkloadProfile p = scaled(thorProfile(), 0.05);
    std::vector<TraceRecord> buf(4096);
    for (unsigned threads : {1u, 3u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        {
            TraceStream stream(p, threads);
            for (int i = 0; i < 3; ++i)
                ASSERT_EQ(stream.nextBatch(buf.data(), buf.size()),
                          buf.size());
            // Let the producers run into their full rings.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        {
            // Destroyed while its producers are still generating.
            TraceStream stream(p, threads);
            TraceRecord r;
            ASSERT_TRUE(stream.next(r));
        }
        {
            // Never pulled: no thread was started.
            TraceStream stream(p, threads);
        }
        {
            // Move-assigning over a running stream destroys it.
            TraceStream a(p, threads);
            TraceRecord r;
            ASSERT_TRUE(a.next(r));
            TraceStream b(scaled(popsProfile(), 0.002), threads);
            ASSERT_TRUE(b.next(r));
            a = std::move(b);
            EXPECT_EQ(a.produced(), 1u);
        }
    }
}

TEST(TraceStreamTest, ThreadBound)
{
    // A 64-CPU profile file on a 4-thread host starts 4 threads, and
    // --jobs=1 one.
    EXPECT_EQ(generatorThreads(64, 4, 0), 4u);
    EXPECT_EQ(generatorThreads(64, 4, 1), 1u);
    EXPECT_EQ(generatorThreads(64, 4, 8), 4u);
    // Never more threads than CPUs, and never none.
    EXPECT_EQ(generatorThreads(2, 16, 0), 2u);
    EXPECT_EQ(generatorThreads(4, 16, 3), 3u);
    EXPECT_EQ(generatorThreads(1, 0, 0), 1u);
}

TEST(TraceStreamTest, MoveTransfersState)
{
    WorkloadProfile p = scaled(popsProfile(), 0.005);
    TraceStream a(p);
    TraceRecord r;
    ASSERT_TRUE(a.next(r));
    TraceStream b(std::move(a));
    EXPECT_EQ(b.produced(), 1u);
    EXPECT_TRUE(b.next(r));
}

} // namespace
} // namespace vrc
