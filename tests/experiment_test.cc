/**
 * @file
 * Integration tests reproducing the paper's qualitative claims on
 * scaled-down traces: V-R vs R-R hit ratios, coherence shielding, and
 * the effect of context-switch frequency.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/experiment.hh"

namespace vrc
{
namespace
{

const TraceBundle &
bundleFor(const char *name, double scale)
{
    // Cache generated traces across tests in this binary.
    static std::map<std::string, TraceBundle> cache;
    std::string key = std::string(name) + "@" + std::to_string(scale);
    auto it = cache.find(key);
    if (it == cache.end()) {
        it = cache
                 .emplace(key,
                          generateTrace(scaled(profileByName(name),
                                               scale)))
                 .first;
    }
    return it->second;
}

TEST(ExperimentTest, SummaryFieldsPopulated)
{
    const auto &b = bundleFor("pops", 0.01);
    SimSummary s = runSimulation(b, HierarchyKind::VirtualReal, 8 * 1024,
                                 128 * 1024);
    EXPECT_GT(s.h1, 0.5);
    EXPECT_LT(s.h1, 1.0);
    EXPECT_GT(s.h2, 0.0);
    EXPECT_EQ(s.l1MsgsPerCpu.size(), 4u);
    EXPECT_GT(s.refs, 30'000u);
}

TEST(ExperimentTest, InvariantsHoldUnderAllOrganizations)
{
    const auto &b = bundleFor("abaqus", 0.02);
    for (auto kind : kAllHierarchyKinds) {
        SCOPED_TRACE(hierarchyKindName(kind));
        SimSummary s = runSimulation(b, kind, 4 * 1024, 64 * 1024,
                                     false, 2'000);
        EXPECT_GT(s.h1, 0.3);
    }
}

TEST(ExperimentTest, H1GrowsWithCacheSize)
{
    const auto &b = bundleFor("thor", 0.02);
    double prev = 0.0;
    for (auto [l1, l2] : paperSizePairs()) {
        SimSummary s =
            runSimulation(b, HierarchyKind::VirtualReal, l1, l2);
        EXPECT_GT(s.h1, prev) << sizeLabel(l1, l2);
        prev = s.h1;
    }
}

TEST(ExperimentTest, VrMatchesRrWhenSwitchesAreRare)
{
    // Table 6, thor/pops: with rare context switches the V-R and R-R
    // level-1 hit ratios are nearly identical.
    const auto &b = bundleFor("pops", 0.02);
    SimSummary vr = runSimulation(b, HierarchyKind::VirtualReal,
                                  8 * 1024, 128 * 1024);
    SimSummary rr = runSimulation(b, HierarchyKind::RealRealIncl,
                                  8 * 1024, 128 * 1024);
    EXPECT_NEAR(vr.h1, rr.h1, 0.015);
}

TEST(ExperimentTest, FrequentSwitchesFavorRr)
{
    // Table 6, abaqus: the R-R hierarchy keeps a measurably better h1
    // because nothing flushes on a context switch.
    const auto &b = bundleFor("abaqus", 0.10);
    SimSummary vr = runSimulation(b, HierarchyKind::VirtualReal,
                                  16 * 1024, 256 * 1024);
    SimSummary rr = runSimulation(b, HierarchyKind::RealRealIncl,
                                  16 * 1024, 256 * 1024);
    EXPECT_GT(rr.h1, vr.h1);
}

TEST(ExperimentTest, ShieldingCutsL1CoherenceMessages)
{
    // Tables 11-13: RR without inclusion sees far more coherence
    // messages at level 1 than VR or RR with inclusion.
    const auto &b = bundleFor("pops", 0.02);
    SimSummary vr = runSimulation(b, HierarchyKind::VirtualReal,
                                  4 * 1024, 64 * 1024);
    SimSummary ni = runSimulation(b, HierarchyKind::RealRealNoIncl,
                                  4 * 1024, 64 * 1024);
    std::uint64_t vr_total = 0, ni_total = 0;
    for (auto v : vr.l1MsgsPerCpu)
        vr_total += v;
    for (auto v : ni.l1MsgsPerCpu)
        ni_total += v;
    EXPECT_GT(ni_total, 2 * vr_total)
        << "no-inclusion L1 disturbed several times more often";
}

TEST(ExperimentTest, InclusionInvalidationsAreRare)
{
    // Section 2's claim: with the relaxed replacement rule and a 2-way
    // V/R configuration (the paper's quoted setup: 16K 2-way V, 256K
    // R, 21 invalidations over 3.3M refs), forced inclusion
    // invalidations are rare -- both lines of an R set having level-1
    // children at once almost never happens when L2 >> L1.
    const auto &b = bundleFor("pops", 0.05);
    MachineConfig mc = makeMachineConfig(HierarchyKind::VirtualReal,
                                         16 * 1024, 256 * 1024,
                                         b.profile.pageSize);
    mc.hierarchy.l1.assoc = 2;
    mc.hierarchy.l2.assoc = 2;
    MpSimulator sim(mc, b.profile);
    sim.run(b.records);
    EXPECT_LT(sim.totalCounter("inclusion_invalidations"),
              sim.refsProcessed() / 2000);
}

TEST(ExperimentTest, SwappedWritebacksOnlyWithSwitches)
{
    const auto &pops = bundleFor("pops", 0.02);
    const auto &abaqus = bundleFor("abaqus", 0.05);
    SimSummary sp = runSimulation(pops, HierarchyKind::VirtualReal,
                                  16 * 1024, 256 * 1024);
    SimSummary sa = runSimulation(abaqus, HierarchyKind::VirtualReal,
                                  16 * 1024, 256 * 1024);
    // abaqus context-switches far more often per reference.
    double rp = static_cast<double>(sp.swappedWritebacks) /
        static_cast<double>(sp.refs);
    double ra = static_cast<double>(sa.swappedWritebacks) /
        static_cast<double>(sa.refs);
    EXPECT_GT(ra, rp);
}

TEST(ExperimentTest, SplitRatiosCloseToUnified)
{
    // Tables 8-10: split I/D hit ratios are close to unified.
    const auto &b = bundleFor("thor", 0.02);
    SimSummary uni = runSimulation(b, HierarchyKind::VirtualReal,
                                   8 * 1024, 128 * 1024, false);
    SimSummary split = runSimulation(b, HierarchyKind::VirtualReal,
                                     8 * 1024, 128 * 1024, true);
    EXPECT_NEAR(split.h1, uni.h1, 0.05);
}

TEST(ExperimentTest, SizePairHelpers)
{
    EXPECT_EQ(paperSizePairs().size(), 3u);
    EXPECT_EQ(smallSizePairs().size(), 3u);
    EXPECT_EQ(sizeLabel(16 * 1024, 256 * 1024), "16K/256K");
    EXPECT_EQ(sizeLabel(512, 64 * 1024), ".5K/64K");
}

// ---- the one replay loop ------------------------------------------

// The campaign and shard paths replay through runSimulationCancellable,
// batch vrc-sim through runSimulationJob: both must give the same bytes.
TEST(ReplayLoopTest, CancellableMatchesJobByteForByte)
{
    WorkloadProfile p = scaled(profileByName("thor"), 0.01);
    p.seed = 20251017;
    const TraceBundle b = generateTrace(p);
    ASSERT_GT(b.records.size(), 2 * kReplayChunk); // crosses chunks
    CancelToken live;
    for (auto kind : kAllHierarchyKinds) {
        for (TimingMode mode : {TimingMode::Analytic, TimingMode::Cycle}) {
            SCOPED_TRACE(std::string(hierarchyKindName(kind)) + "/" +
                         timingModeName(mode));
            SimJob job{kind, 16 * 1024, 256 * 1024, false, 0, mode};
            EXPECT_EQ(
                encodeSummaryLine(0, runSimulationCancellable(b, job, live)),
                encodeSummaryLine(0, runSimulationJob(b, job)));
        }
    }
}

TEST(ReplayLoopTest, PollsOnlyAtChunkBoundaries)
{
    const auto &b = bundleFor("pops", 0.01);
    const std::size_t n = b.records.size();
    std::vector<std::size_t> polls;
    SimJob job{HierarchyKind::VirtualReal, 8 * 1024, 128 * 1024};
    SimSummary s = replaySimulation(
        b.profile, job, b.records.data(), n,
        [&polls](std::size_t done) { polls.push_back(done); });
    EXPECT_EQ(s.refs, runSimulationJob(b, job).refs);
    ASSERT_EQ(polls.size(), (n + kReplayChunk - 1) / kReplayChunk + 1);
    for (std::size_t i = 0; i + 1 < polls.size(); ++i)
        EXPECT_EQ(polls[i], i * kReplayChunk);
    EXPECT_EQ(polls.back(), n);
}

TEST(ReplayLoopTest, CancelledTokenStopsBeforeAnyRecord)
{
    const auto &b = bundleFor("pops", 0.01);
    CancelToken token;
    token.cancel();
    SimJob job{HierarchyKind::VirtualReal, 8 * 1024, 128 * 1024};
    try {
        runSimulationCancellable(b, job, token);
        FAIL() << "a cancelled token must stop the replay";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.err().kind, ErrorKind::Cancelled);
        EXPECT_NE(e.err().message.find("cancelled after 0 of"),
                  std::string::npos)
            << e.err().message;
    }
}

} // namespace
} // namespace vrc
