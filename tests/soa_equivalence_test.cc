/**
 * @file
 * Differential test: legacy (array-of-structures) reference tag store
 * versus the production SoA fast path.
 *
 * Randomized machine configurations -- geometry, associativity,
 * replacement policy, organization, coherence protocol, split level-1,
 * timing engine, soft-error arming -- are replayed twice over the same
 * trace, once per model, and every architectural observable must be
 * bit-identical: the full per-CPU counter groups, the bus counters,
 * the complete event streams, and the derived hit ratios / timing
 * figures down to the last mantissa bit.
 *
 * The legacy model only exists behind the VRC_REFERENCE_MODEL build
 * option; without it the whole suite SKIPs (the golden-stats corpus
 * still guards absolute behaviour in such builds).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "base/fault.hh"
#include "cache/reference_mode.hh"
#include "core/events.hh"
#include "sim/experiment.hh"
#include "trace/generator.hh"

namespace vrc
{
namespace
{

/** One randomized machine configuration. */
struct EquivConfig
{
    std::string trace;
    HierarchyKind kind = HierarchyKind::VirtualReal;
    std::uint32_t l1Size = 16 * 1024;
    std::uint32_t l2Size = 256 * 1024;
    std::uint32_t l1Assoc = 1;
    std::uint32_t l2Assoc = 1;
    ReplPolicy policy = ReplPolicy::LRU;
    bool split = false;
    CoherencePolicy protocol = CoherencePolicy::WriteInvalidate;
    TimingMode timingMode = TimingMode::Analytic;
    std::uint64_t softErrorSeed = 0; ///< 0 = disarmed

    std::string
    describe() const
    {
        return trace + " kind=" +
               std::to_string(static_cast<int>(kind)) + " l1=" +
               std::to_string(l1Size) + "/" + std::to_string(l1Assoc) +
               " l2=" + std::to_string(l2Size) + "/" +
               std::to_string(l2Assoc) + " policy=" +
               std::to_string(static_cast<int>(policy)) +
               (split ? " split" : "") + " proto=" +
               std::to_string(static_cast<int>(protocol)) + " timing=" +
               std::to_string(static_cast<int>(timingMode)) +
               " soft=" + std::to_string(softErrorSeed);
    }
};

/** Everything one run exposes architecturally. */
struct RunResult
{
    std::map<std::string, std::uint64_t> counters;
    std::vector<std::vector<HierarchyEvent>> events; ///< per CPU
    std::uint64_t h1Bits = 0, h2Bits = 0;
    std::uint64_t accessTimeBits = 0, accessCyclesBits = 0;
    std::uint64_t refs = 0;

    /** Machine-check message when the run aborted (soft errors). */
    std::string machineCheck;
};

std::uint64_t
bits(double v)
{
    std::uint64_t out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

const TraceBundle &
equivTrace(const std::string &name)
{
    static std::map<std::string, TraceBundle> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        WorkloadProfile p = scaled(profileByName(name), 0.004);
        it = cache.emplace(name, generateTrace(p)).first;
    }
    return it->second;
}

/** Arm/disarm the process-wide soft-error model around one run. */
class SoftErrorArm
{
  public:
    explicit SoftErrorArm(std::uint64_t seed)
    {
        if (seed != 0) {
            auto st = configureSoftErrors("seed=" +
                                          std::to_string(seed));
            armed = st.ok();
        }
    }
    ~SoftErrorArm() { disarmSoftErrors(); }
    bool armed = false;
};

RunResult
runOnce(const EquivConfig &cfg, bool reference)
{
    ReferenceModeScope scope(reference);
    SoftErrorArm soft(cfg.softErrorSeed);

    const TraceBundle &bundle = equivTrace(cfg.trace);
    MachineConfig mc =
        makeMachineConfig(cfg.kind, cfg.l1Size, cfg.l2Size,
                          bundle.profile.pageSize, cfg.split);
    mc.hierarchy.l1.assoc = cfg.l1Assoc;
    mc.hierarchy.l2.assoc = cfg.l2Assoc;
    mc.hierarchy.l1.policy = cfg.policy;
    mc.hierarchy.l2.policy = cfg.policy;
    mc.hierarchy.protocol = cfg.protocol;
    mc.timingMode = cfg.timingMode;
    mc.invariantPeriod = 4096;

    MpSimulator sim(mc, bundle.profile);
    std::vector<RecordingObserver> observers(sim.cpuCount());
    for (CpuId c = 0; c < sim.cpuCount(); ++c)
        sim.hierarchy(c).setObserver(&observers[c]);

    RunResult r;
    // An armed soft-error model may legitimately machine-check
    // mid-replay (uncorrectable strike on dirty data). That abort is
    // itself an architectural observable: both models must fail at
    // the same point with the same message, and the counters and
    // events accumulated up to the abort must still match.
    try {
        sim.run(bundle.records);
        sim.checkInvariants();
    } catch (const std::exception &e) {
        r.machineCheck = e.what();
    }
    for (CpuId c = 0; c < sim.cpuCount(); ++c) {
        std::string prefix = "cpu" + std::to_string(c) + ".";
        for (const auto &[key, ctr] :
             sim.hierarchy(c).stats().all()) {
            r.counters[prefix + key] = ctr.value();
        }
        r.events.push_back(observers[c].events());
    }
    for (const auto &[key, ctr] : sim.bus().stats().all())
        r.counters["bus." + key] = ctr.value();
    r.h1Bits = bits(sim.h1());
    r.h2Bits = bits(sim.h2());
    r.accessTimeBits = bits(sim.measuredAccessTime());
    r.accessCyclesBits = bits(sim.avgAccessCycles());
    r.refs = sim.refsProcessed();
    return r;
}

void
expectIdentical(const RunResult &ref, const RunResult &soa,
                const std::string &what)
{
    EXPECT_EQ(ref.machineCheck, soa.machineCheck)
        << what << ": machine-check behaviour drifted";
    EXPECT_EQ(ref.refs, soa.refs) << what;
    EXPECT_EQ(ref.h1Bits, soa.h1Bits) << what << ": h1 drifted";
    EXPECT_EQ(ref.h2Bits, soa.h2Bits) << what << ": h2 drifted";
    EXPECT_EQ(ref.accessTimeBits, soa.accessTimeBits)
        << what << ": measured access time drifted";
    EXPECT_EQ(ref.accessCyclesBits, soa.accessCyclesBits)
        << what << ": cycle-engine latency drifted";

    ASSERT_EQ(ref.counters.size(), soa.counters.size()) << what;
    for (const auto &[key, value] : ref.counters) {
        auto it = soa.counters.find(key);
        ASSERT_NE(it, soa.counters.end())
            << what << ": counter " << key << " missing in SoA run";
        EXPECT_EQ(value, it->second)
            << what << ": counter " << key << " drifted";
    }

    ASSERT_EQ(ref.events.size(), soa.events.size()) << what;
    for (std::size_t c = 0; c < ref.events.size(); ++c) {
        const auto &re = ref.events[c];
        const auto &se = soa.events[c];
        ASSERT_EQ(re.size(), se.size())
            << what << ": cpu " << c << " event count drifted";
        for (std::size_t i = 0; i < re.size(); ++i) {
            bool same = re[i].kind == se[i].kind &&
                        re[i].cpu == se[i].cpu &&
                        re[i].refIndex == se[i].refIndex &&
                        re[i].vaddr == se[i].vaddr &&
                        re[i].paddr == se[i].paddr;
            ASSERT_TRUE(same)
                << what << ": cpu " << c << " event " << i
                << " drifted (" << eventKindName(re[i].kind) << " vs "
                << eventKindName(se[i].kind) << " at ref "
                << re[i].refIndex << ")";
        }
    }
}

void
runDifferential(const EquivConfig &cfg)
{
    if (!referenceModelBuilt()) {
        GTEST_SKIP()
            << "legacy reference model not built "
               "(reconfigure with -DVRC_REFERENCE_MODEL=ON)";
    }
    SCOPED_TRACE(cfg.describe());
    RunResult ref = runOnce(cfg, /*reference=*/true);
    RunResult soa = runOnce(cfg, /*reference=*/false);
    expectIdentical(ref, soa, cfg.describe());
}

/** Deterministic random configuration stream. */
std::vector<EquivConfig>
randomConfigs(std::size_t n)
{
    std::mt19937_64 rng(0xC0FFEE5EEDull);
    const char *traces[] = {"thor", "pops", "abaqus"};
    const HierarchyKind kinds[] = {HierarchyKind::VirtualReal,
                                   HierarchyKind::RealRealIncl,
                                   HierarchyKind::RealRealNoIncl};
    const std::uint32_t l1s[] = {2048, 4096, 8192, 16384};
    const std::uint32_t ratios[] = {8, 16, 32};
    std::vector<EquivConfig> out;
    for (std::size_t i = 0; i < n; ++i) {
        EquivConfig c;
        c.trace = traces[rng() % 3];
        c.kind = kinds[rng() % 3];
        c.l1Size = l1s[rng() % 4];
        c.l2Size = c.l1Size * ratios[rng() % 3];
        if (c.l2Size < 65536)
            c.l2Size = 65536; // keep the R-pointer span nonempty
        c.l1Assoc = 1u << (rng() % 3);
        c.l2Assoc = 1u << (rng() % 2);
        c.policy = rng() % 4 == 0 ? ReplPolicy::Random : ReplPolicy::LRU;
        c.split = c.kind == HierarchyKind::VirtualReal && rng() % 2 == 0;
        c.protocol = rng() % 2 == 0 ? CoherencePolicy::WriteInvalidate
                                    : CoherencePolicy::WriteUpdate;
        c.timingMode =
            rng() % 3 == 0 ? TimingMode::Cycle : TimingMode::Analytic;
        if (rng() % 3 == 0)
            c.softErrorSeed = rng() % 100000 + 1;
        out.push_back(c);
    }
    return out;
}

TEST(SoaEquivalence, RandomizedConfigs)
{
    for (const EquivConfig &cfg : randomConfigs(12))
        runDifferential(cfg);
}

/** The paper's canonical configuration, all three organizations. */
TEST(SoaEquivalence, PaperConfigs)
{
    for (auto kind :
         {HierarchyKind::VirtualReal, HierarchyKind::RealRealIncl,
          HierarchyKind::RealRealNoIncl}) {
        EquivConfig c;
        c.trace = "pops";
        c.kind = kind;
        c.l1Size = 16 * 1024;
        c.l2Size = 256 * 1024;
        runDifferential(c);
    }
}

/** Cycle timing engine with a split V-cache (the layered-cost path). */
TEST(SoaEquivalence, CycleSplit)
{
    EquivConfig c;
    c.trace = "abaqus";
    c.kind = HierarchyKind::VirtualReal;
    c.l1Size = 8 * 1024;
    c.l2Size = 128 * 1024;
    c.split = true;
    c.timingMode = TimingMode::Cycle;
    runDifferential(c);
}

} // namespace
} // namespace vrc
