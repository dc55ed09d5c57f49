/**
 * @file
 * Unit tests for the overflow-bucket histogram.
 */

#include <gtest/gtest.h>

#include "base/histogram.hh"

namespace vrc
{
namespace
{

TEST(HistogramTest, EmptyHistogram)
{
    Histogram h(10);
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    for (std::uint64_t v = 1; v <= 10; ++v)
        EXPECT_EQ(h.count(v), 0u);
}

TEST(HistogramTest, BasicBuckets)
{
    Histogram h(10);
    h.record(1);
    h.record(1);
    h.record(5);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(5), 1u);
    EXPECT_EQ(h.count(2), 0u);
    EXPECT_EQ(h.samples(), 3u);
}

TEST(HistogramTest, OverflowBucketAbsorbsLargeValues)
{
    Histogram h(10);
    h.record(10);
    h.record(11);
    h.record(1000);
    EXPECT_EQ(h.overflowCount(), 3u);
    EXPECT_EQ(h.count(10), 3u);
    EXPECT_EQ(h.count(9), 0u);
}

TEST(HistogramTest, SumKeepsExactValues)
{
    Histogram h(4);
    h.record(100);
    h.record(2);
    EXPECT_EQ(h.sum(), 102u);
    EXPECT_DOUBLE_EQ(h.mean(), 51.0);
}

TEST(HistogramTest, ZeroClampsToOne)
{
    Histogram h(4);
    h.record(0);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.sum(), 1u);
}

TEST(HistogramTest, Clear)
{
    Histogram h(4);
    h.record(2);
    h.record(9);
    h.clear();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.count(2), 0u);
    EXPECT_EQ(h.overflowCount(), 0u);
}

TEST(HistogramTest, SingleBucketEverythingOverflows)
{
    Histogram h(1);
    h.record(1);
    h.record(7);
    EXPECT_EQ(h.overflowCount(), 2u);
}

TEST(HistogramTest, MergeEqualsRecordingEverySampleInOne)
{
    const std::uint64_t left[] = {1, 3, 3, 4, 9, 0};
    const std::uint64_t right[] = {2, 3, 4, 5, 17, 100};
    Histogram a(4), b(4), all(4);
    for (std::uint64_t v : left) {
        a.record(v);
        all.record(v);
    }
    for (std::uint64_t v : right) {
        b.record(v);
        all.record(v);
    }
    a.merge(b);
    for (std::uint64_t v = 1; v <= 4; ++v)
        EXPECT_EQ(a.count(v), all.count(v)) << "bucket " << v;
    EXPECT_EQ(a.samples(), 12u);
    // Overflow bucket: 4, 9 | 4, 5, 17, 100 -- counts add and the
    // exact overflow values add into the sum.
    EXPECT_EQ(a.overflowCount(), 6u);
    EXPECT_EQ(a.sum(), all.sum());
    EXPECT_EQ(a.sum(), 1u + 3 + 3 + 4 + 9 + 1 + 2 + 3 + 4 + 5 + 17 + 100);

    // Merging an empty histogram changes nothing.
    a.merge(Histogram(4));
    EXPECT_EQ(a.samples(), 12u);
    EXPECT_EQ(a.sum(), all.sum());
}

} // namespace
} // namespace vrc
