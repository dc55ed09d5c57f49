/**
 * @file
 * Tests for workload profile file I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "trace/generator.hh"
#include "trace/profile_io.hh"
#include "trace/trace_stream.hh"

namespace vrc
{
namespace
{

TEST(ProfileIoTest, RoundTripReproducesEveryField)
{
    WorkloadProfile p = abaqusProfile();
    std::stringstream ss;
    writeProfile(ss, p);
    WorkloadProfile q = readProfile(ss);

    EXPECT_EQ(q.name, p.name);
    EXPECT_EQ(q.numCpus, p.numCpus);
    EXPECT_EQ(q.totalRefs, p.totalRefs);
    EXPECT_DOUBLE_EQ(q.instrFrac, p.instrFrac);
    EXPECT_DOUBLE_EQ(q.readFrac, p.readFrac);
    EXPECT_DOUBLE_EQ(q.writeFrac, p.writeFrac);
    EXPECT_EQ(q.contextSwitches, p.contextSwitches);
    EXPECT_EQ(q.processesPerCpu, p.processesPerCpu);
    EXPECT_EQ(q.procCount, p.procCount);
    EXPECT_DOUBLE_EQ(q.procZipfTheta, p.procZipfTheta);
    EXPECT_DOUBLE_EQ(q.callProb, p.callProb);
    EXPECT_DOUBLE_EQ(q.seqFrac, p.seqFrac);
    EXPECT_DOUBLE_EQ(q.hotspotFrac, p.hotspotFrac);
    EXPECT_EQ(q.seed, p.seed);
    ASSERT_EQ(q.dataLevels.size(), p.dataLevels.size());
    for (std::size_t i = 0; i < p.dataLevels.size(); ++i) {
        EXPECT_EQ(q.dataLevels[i].bytes, p.dataLevels[i].bytes);
        EXPECT_DOUBLE_EQ(q.dataLevels[i].weight,
                         p.dataLevels[i].weight);
    }
}

TEST(ProfileIoTest, RoundTrippedProfileGeneratesIdenticalTrace)
{
    WorkloadProfile p = scaled(popsProfile(), 0.003);
    std::stringstream ss;
    writeProfile(ss, p);
    WorkloadProfile q = readProfile(ss);
    EXPECT_EQ(generateTrace(p).records, generateTrace(q).records);
}

TEST(ProfileIoTest, PartialFileKeepsDefaults)
{
    std::stringstream ss;
    ss << "# my profile\n"
       << "name = tiny\n"
       << "num_cpus = 2\n"
       << "total_refs = 5000\n";
    WorkloadProfile p = readProfile(ss);
    EXPECT_EQ(p.name, "tiny");
    EXPECT_EQ(p.numCpus, 2u);
    EXPECT_EQ(p.totalRefs, 5000u);
    WorkloadProfile defaults;
    EXPECT_DOUBLE_EQ(p.instrFrac, defaults.instrFrac);
    EXPECT_EQ(p.pageSize, defaults.pageSize);
}

TEST(ProfileIoTest, DataLevelsParsing)
{
    std::stringstream ss;
    ss << "data_levels = 1024:0.5, 8192:0.3,262144:0.2\n";
    WorkloadProfile p = readProfile(ss);
    ASSERT_EQ(p.dataLevels.size(), 3u);
    EXPECT_EQ(p.dataLevels[1].bytes, 8192u);
    EXPECT_DOUBLE_EQ(p.dataLevels[1].weight, 0.3);
}

TEST(ProfileIoDeathTest, UnknownKeyRejected)
{
    std::stringstream ss;
    ss << "num_cpuz = 4\n";
    EXPECT_EXIT(readProfile(ss), ::testing::ExitedWithCode(1),
                "unknown profile key");
}

TEST(ProfileIoDeathTest, MissingEqualsRejected)
{
    std::stringstream ss;
    ss << "just some words\n";
    EXPECT_EXIT(readProfile(ss), ::testing::ExitedWithCode(1),
                "no '='");
}

TEST(ProfileIoDeathTest, BadLevelSyntaxRejected)
{
    std::stringstream ss;
    ss << "data_levels = 1024-0.5\n";
    EXPECT_EXIT(readProfile(ss), ::testing::ExitedWithCode(1),
                "bad data_levels");
}

/** One invalid profile-file line and the key its error must name. */
struct InvalidLine
{
    const char *name;
    const char *line;
    const char *key;
};

// Keeps the pointer bytes out of the test names ctest lists.
void
PrintTo(const InvalidLine &l, std::ostream *os)
{
    *os << l.name;
}

class ProfileIoInvalidValue : public ::testing::TestWithParam<InvalidLine>
{
};

// Each of these used to hang or crash generation (a wrapped range(),
// a division by zero, an empty segment); the reader must now refuse
// them with the key and the constraint.
TEST_P(ProfileIoInvalidValue, RejectedWithKeyAndConstraint)
{
    std::stringstream ss;
    ss << "name = broken\n" << GetParam().line << "\n";
    Result<WorkloadProfile> r = tryReadProfile(ss, "broken.prof");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, ErrorKind::Parse);
    EXPECT_EQ(r.error().context, "broken.prof");
    EXPECT_NE(r.error().message.find(GetParam().key), std::string::npos)
        << r.error().describe();
    EXPECT_NE(r.error().message.find("must"), std::string::npos)
        << r.error().describe();
}

INSTANTIATE_TEST_SUITE_P(
    Rows, ProfileIoInvalidValue,
    ::testing::Values(
        InvalidLine{"CallWritesMinAboveMax",
                    "call_writes_min = 20\ncall_writes_max = 11",
                    "call_writes_min"},
        InvalidLine{"ZeroDataBlockBytes", "data_block_bytes = 0",
                    "data_block_bytes"},
        InvalidLine{"ZeroCpus", "num_cpus = 0", "num_cpus"},
        InvalidLine{"ZeroProcessesPerCpu", "processes_per_cpu = 0",
                    "processes_per_cpu"},
        InvalidLine{"ZeroProcStride", "proc_stride = 0", "proc_stride"},
        InvalidLine{"ZeroProcCount", "proc_count = 0", "proc_count"}),
    [](const ::testing::TestParamInfo<InvalidLine> &info) {
        return std::string(info.param.name);
    });

TEST(ProfileIoDeathTest, TraceStreamRejectsInvalidProfile)
{
    WorkloadProfile p = scaled(popsProfile(), 0.001);
    p.numCpus = 0;
    EXPECT_DEATH(TraceStream stream(p), "invalid workload profile");
}

TEST(ProfileIoTest, FileRoundTrip)
{
    std::string path = ::testing::TempDir() + "/vrc_profile_test.prof";
    WorkloadProfile p = thorProfile();
    saveProfile(path, p);
    WorkloadProfile q = loadProfile(path);
    EXPECT_EQ(q.name, "thor");
    EXPECT_EQ(q.seed, p.seed);
    std::remove(path.c_str());
}

} // namespace
} // namespace vrc
