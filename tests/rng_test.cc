/**
 * @file
 * Unit tests for the deterministic RNG: its API contracts, values
 * pinned when the generator still drew through <random>, and (under
 * libstdc++) draw-for-draw equality with std::mt19937_64 and the
 * standard distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "base/rng.hh"

namespace vrc
{
namespace
{

TEST(RngTest, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.below(1000), b.below(1000));
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.below(1u << 30) == b.below(1u << 30) ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(RngTest, BelowRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(RngTest, BelowOneAlwaysZero)
{
    Rng r(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.below(1), 0u);
}

TEST(RngTest, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(RngTest, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(RngTest, ChanceRoughlyCalibrated)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, WeightedRespectsWeights)
{
    Rng r(19);
    std::vector<double> w{0.0, 10.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.weighted(w, 10.0), 1u);
}

TEST(RngTest, WeightedProportions)
{
    Rng r(23);
    std::vector<double> w{1.0, 3.0};
    int c1 = 0;
    for (int i = 0; i < 10000; ++i)
        c1 += r.weighted(w, 4.0) == 1 ? 1 : 0;
    EXPECT_NEAR(c1 / 10000.0, 0.75, 0.03);
}

TEST(RngTest, GeometricBounded)
{
    Rng r(29);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.geometric(0.5, 8);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 8u);
    }
}

TEST(RngTest, ForkIndependence)
{
    Rng parent(31);
    Rng c1 = parent.fork();
    Rng c2 = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += c1.below(1u << 30) == c2.below(1u << 30) ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(RngTest, ForkDeterministic)
{
    Rng p1(37), p2(37);
    Rng c1 = p1.fork();
    Rng c2 = p2.fork();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(c1.below(1000), c2.below(1000));
}

// Recorded from the <random>-backed Rng; these hold on any standard
// library, so a drift in the engine or a distribution names itself.
TEST(RngTest, PinnedValues)
{
    {
        Rng r(1);
        for (std::uint64_t v : {133, 136, 451, 21, 350, 911, 470, 74})
            EXPECT_EQ(r.below(1000), v);
    }
    {
        Rng r(42);
        for (std::uint64_t v : {3243368318ull, 2744618938ull, 3230439039ull,
                                585286719ull})
            EXPECT_EQ(r.below((1ull << 32) + 1), v);
    }
    {
        Rng r(7);
        for (std::uint64_t v : {8, 9, 3, 9, 3, 3, 8, 9})
            EXPECT_EQ(r.range(3, 9), v);
    }
    {
        Rng r(7);
        for (std::uint64_t v : {0xc11f6531eb66d9a7ull, 0xf30567547a34c162ull,
                                0x1e0edcc1206967ceull})
            EXPECT_EQ(r.range(0, UINT64_MAX), v);
    }
    {
        Rng r(11);
        for (double v : {0x1.536165793c6e2p-3, 0x1.8bfe794c1ea1p-1,
                         0x1.831909afac7cap-2, 0x1.65b2949f22d3cp-1})
            EXPECT_EQ(r.uniform(), v);
    }
    {
        Rng r(19);
        std::vector<double> w{1.0, 2.0, 3.0, 4.0};
        for (std::size_t v : {3, 2, 1, 0, 1, 3, 2, 3, 3, 2, 3, 3})
            EXPECT_EQ(r.weighted(w, 10.0), v);
    }
    {
        Rng r(31);
        Rng c = r.fork();
        Rng d = r.fork();
        EXPECT_EQ(c.below(1000000), 876985u);
        EXPECT_EQ(d.below(1000000), 112074u);
        EXPECT_EQ(r.below(1000000), 471130u);
    }
    {
        // Past the first state refill.
        Rng r(5);
        for (int i = 0; i < 1000; ++i)
            r.below(10);
        for (std::uint64_t v : {283215, 401148, 388007, 466223})
            EXPECT_EQ(r.below(1u << 20), v);
    }
}

TEST(RngTest, CanonicalClampsBelowOne)
{
    EXPECT_EQ(Rng::canonical(0), 0.0);
    EXPECT_EQ(Rng::canonical(1ull << 63), 0.5);
    EXPECT_EQ(Rng::canonical(UINT64_MAX), std::nextafter(1.0, 0.0));
    EXPECT_EQ(Rng::canonical(UINT64_MAX - 1024), std::nextafter(1.0, 0.0));
    EXPECT_LT(Rng::canonical(UINT64_MAX - 1024 - 1024), 1.0);
}

#if defined(_GLIBCXX_RELEASE) && _GLIBCXX_RELEASE >= 11
constexpr bool libstdcxxDistributions = true;
#else
constexpr bool libstdcxxDistributions = false;
#endif

// The golden corpus was recorded with libstdc++'s distributions over
// std::mt19937_64; Rng must reproduce every one of their draws.
TEST(RngTest, MatchesLibstdcxxDistributions)
{
    if (!libstdcxxDistributions)
        GTEST_SKIP() << "reference distributions are libstdc++ >= 11";
    const std::uint64_t bounds[] = {1,
                                    2,
                                    3,
                                    17,
                                    (1ull << 32) + 1,
                                    1ull << 63,
                                    (1ull << 63) + 1};
    for (std::uint64_t seed : {1ull, 0xABA9ull, 0x9e3779b97f4a7c15ull}) {
        Rng r(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 1'000'000; ++i) {
            switch (i % 10) {
              case 7:
                ASSERT_EQ(r.range(0, UINT64_MAX),
                          std::uniform_int_distribution<std::uint64_t>(
                              0, UINT64_MAX)(ref))
                    << "seed " << seed << " draw " << i;
                break;
              case 8:
                ASSERT_EQ(r.range(5, 11),
                          std::uniform_int_distribution<std::uint64_t>(
                              5, 11)(ref))
                    << "seed " << seed << " draw " << i;
                break;
              case 9:
                ASSERT_EQ(r.uniform(),
                          std::uniform_real_distribution<double>(0.0,
                                                                 1.0)(ref))
                    << "seed " << seed << " draw " << i;
                break;
              default: {
                std::uint64_t b = bounds[i % 10];
                ASSERT_EQ(r.below(b),
                          std::uniform_int_distribution<std::uint64_t>(
                              0, b - 1)(ref))
                    << "seed " << seed << " draw " << i << " bound " << b;
              }
            }
        }
    }
}

/** A generator that always returns one value, to drive the reference
 *  canonical map at chosen inputs. */
struct FixedBits
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return UINT64_MAX; }
    result_type operator()() { return value; }
    result_type value;
};

TEST(RngTest, CanonicalMatchesGenerateCanonical)
{
    if (!libstdcxxDistributions)
        GTEST_SKIP() << "reference distributions are libstdc++ >= 11";
    const std::uint64_t inputs[] = {0,
                                    1,
                                    (1ull << 63) - 1,
                                    1ull << 63,
                                    UINT64_MAX - 1024,
                                    UINT64_MAX - 1023,
                                    UINT64_MAX};
    for (std::uint64_t u : inputs) {
        FixedBits g{u};
        EXPECT_EQ(Rng::canonical(u),
                  (std::generate_canonical<double, 53>(g)))
            << "u = " << u;
        EXPECT_EQ(Rng::canonical(u),
                  std::uniform_real_distribution<double>(0.0, 1.0)(g))
            << "u = " << u;
    }
}

} // namespace
} // namespace vrc
