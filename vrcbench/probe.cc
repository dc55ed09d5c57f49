/**
 * @file
 * vrcbench-probe: the in-process half of the vrc benchmark.
 *
 * run.py times the vrc-sim binary end to end; this helper links the
 * library directly and does the jobs a driver written in Python
 * cannot: it writes the seeded profiles, computes reference results
 * through the library's batch path, cuts and encodes the served
 * segments, prints a build fingerprint, and performs the traced pass
 * that times each layer's public calls and records spans.
 *
 *   vrcbench-probe fingerprint
 *   vrcbench-probe profiles  <dir> <seed>
 *   vrcbench-probe reference <dir> <jobs>
 *   vrcbench-probe segments  <dir>
 *   vrcbench-probe loadgen   <dir> <sock> <pid> <rate> <open_s> <sat_s>
 *                            <window>
 *   vrcbench-probe traced    <dir> <jobs> <rate> <served> <per_client>
 *
 * Every file lives in <dir>; the profiles written by `profiles` are
 * the inputs of all the other subcommands.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "core/config.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/json_stats.hh"
#include "sim/mp_sim.hh"
#include "sim/shard.hh"
#include "trace/generator.hh"
#include "trace/profile_io.hh"
#include "trace/trace_io.hh"
#include "vm/addr_space.hh"
#include "vm/tlb.hh"

using namespace vrc;

namespace
{

using Clock = std::chrono::steady_clock;

const char *const kProfiles[] = {"pops", "thor", "abaqus"};
constexpr std::uint32_t kL1 = 16 * 1024;
constexpr std::uint32_t kL2 = 256 * 1024;
constexpr std::size_t kChunk = 8192; // the server's replay chunk
constexpr std::size_t kSegmentsPerTrace = 8; // vrc-loadgen --segments

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::string
profilePath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name + ".profile";
}

WorkloadProfile
seededProfile(const std::string &dir, const std::string &name)
{
    Result<WorkloadProfile> p = tryLoadProfile(profilePath(dir, name));
    if (!p)
        fatal(p.error().describe());
    return p.take();
}

/** The paper's grid, in vrc-sim --sweep order. */
std::vector<SimJob>
sweepJobs()
{
    std::vector<SimJob> jobs;
    for (HierarchyKind kind : kAllHierarchyKinds)
        for (auto [l1, l2] : paperSizePairs())
            jobs.push_back({kind, l1, l2, false, 0, TimingMode::Analytic});
    return jobs;
}

SimJob
cellJob(HierarchyKind kind, TimingMode mode = TimingMode::Analytic)
{
    return {kind, kL1, kL2, false, 0, mode};
}

std::unique_ptr<MpSimulator>
construct(const WorkloadProfile &profile, const SimJob &job)
{
    MachineConfig mc = makeMachineConfig(job.kind, job.l1Size, job.l2Size,
                                         profile.pageSize, job.split);
    mc.timingMode = job.timingMode;
    return std::make_unique<MpSimulator>(mc, profile);
}

void
replay(MpSimulator &sim, const std::vector<TraceRecord> &records)
{
    const TraceRecord *p = records.data();
    std::size_t left = records.size();
    while (left > 0) {
        std::size_t n = std::min(left, kChunk);
        sim.runBatch(p, n);
        p += n;
        left -= n;
    }
}

// ---- fingerprint ----------------------------------------------------

#ifndef VRCBENCH_BUILD_TYPE
#define VRCBENCH_BUILD_TYPE "unknown"
#endif
#ifndef VRCBENCH_CXX_FLAGS
#define VRCBENCH_CXX_FLAGS ""
#endif
#ifndef VRCBENCH_VRC_OPTIONS
#define VRCBENCH_VRC_OPTIONS ""
#endif

std::string
stdlibIdentity()
{
    std::ostringstream os;
#if defined(__GLIBCXX__)
    os << "libstdc++ " << _GLIBCXX_RELEASE << " (" << __GLIBCXX__ << ")";
#elif defined(_LIBCPP_VERSION)
    os << "libc++ " << _LIBCPP_VERSION;
#else
    os << "unknown";
#endif
    return os.str();
}

int
cmdFingerprint()
{
    std::cout << "{\"compiler\":\"" << __VERSION__ << "\""
              << ",\"stdlib\":\"" << stdlibIdentity() << "\""
              << ",\"build_type\":\"" << VRCBENCH_BUILD_TYPE << "\""
              << ",\"cxx_flags\":\"" << VRCBENCH_CXX_FLAGS << "\""
              << ",\"vrc_options\":\"" << VRCBENCH_VRC_OPTIONS << "\""
              << "}\n";
    return 0;
}

// ---- profiles / reference / segments --------------------------------

/**
 * Seed 0 keeps the built-in profiles (the repo's tables); any other
 * seed derives a new generator seed per profile from it.
 */
int
cmdProfiles(const std::string &dir, std::uint64_t seed)
{
    for (const char *name : kProfiles) {
        WorkloadProfile p = profileByName(name);
        if (seed != 0)
            p.seed = splitmix64(p.seed ^ splitmix64(seed));
        saveProfile(profilePath(dir, name), p);
    }
    return 0;
}

/** One rerun cell: "<profile> <org> <refs> <summary line>". */
std::string
rerunLine(const std::string &profile, const SimJob &job,
          const SimSummary &s)
{
    return profile + " " + hierarchyKindArg(job.kind) + " " +
        std::to_string(s.refs) + " " + encodeSummaryLine(0, s);
}

std::string
sweepJson(const TraceBundle &thor, unsigned jobs)
{
    CampaignOptions opt;
    opt.jobs = jobs;
    Result<CampaignResult> r = runSimulationCampaign(thor, sweepJobs(), opt);
    if (!r)
        fatal(r.error().describe());
    return campaignResultToJson(r.value()) + "\n";
}

int
cmdReference(const std::string &dir, unsigned jobs)
{
    std::ofstream rerun(dir + "/rerun.txt");
    for (const char *name : kProfiles) {
        TraceBundle bundle = generateTrace(seededProfile(dir, name));
        std::vector<SimJob> cells;
        for (HierarchyKind kind : kAllHierarchyKinds)
            cells.push_back(cellJob(kind));
        std::vector<SimSummary> sums =
            runSimulations(bundle, cells, jobs);
        for (std::size_t i = 0; i < cells.size(); ++i)
            rerun << rerunLine(name, cells[i], sums[i]) << "\n";
        if (std::string(name) == "thor") {
            std::ofstream sweep(dir + "/sweep.json");
            sweep << sweepJson(bundle, jobs);
        }
    }
    return 0;
}

/** One served segment: where it came from and what it asks for. */
struct Segment
{
    std::size_t profile = 0;
    SimJob job;
    std::vector<TraceRecord> records;
};

/**
 * The served segments: each seeded trace split the way vrc-loadgen
 * splits a trace by default (--segments=8: contiguous, equal parts,
 * the last one taking the remainder). Part c of every trace replays
 * on organization c % 4 under the analytic engine for c < 4 and the
 * cycle engine after, so each trace meets all 8 geometries once.
 * Segments alternate traces: segment i is part i / 3 of trace i % 3.
 */
std::vector<Segment>
cutSegments(const std::vector<TraceBundle> &bundles)
{
    std::vector<Segment> segs;
    for (std::size_t c = 0; c < kSegmentsPerTrace; ++c) {
        for (std::size_t p = 0; p < bundles.size(); ++p) {
            const std::vector<TraceRecord> &all = bundles[p].records;
            std::size_t per = all.size() / kSegmentsPerTrace;
            std::size_t lo = c * per;
            std::size_t hi =
                c + 1 == kSegmentsPerTrace ? all.size() : lo + per;
            Segment s;
            s.profile = p;
            s.job = cellJob(kAllHierarchyKinds[c % 4],
                            c < 4 ? TimingMode::Analytic
                                  : TimingMode::Cycle);
            s.records.assign(all.begin() + lo, all.begin() + hi);
            segs.push_back(std::move(s));
        }
    }
    return segs;
}

SubmitRequest
submitFor(const Segment &s, std::uint64_t id)
{
    SubmitRequest req;
    req.segmentId = id;
    req.job = s.job;
    req.profileName = kProfiles[s.profile];
    req.scale = 1.0;
    req.records = s.records;
    return req;
}

/** The batch path the service must match byte for byte. */
std::string
batchLine(const Segment &s)
{
    TraceBundle seg;
    seg.profile = profileByName(kProfiles[s.profile]);
    seg.records = s.records;
    return encodeSummaryLine(0, runSimulationJob(seg, s.job));
}

std::vector<TraceBundle>
seededBundles(const std::string &dir)
{
    std::vector<TraceBundle> out;
    for (const char *name : kProfiles)
        out.push_back(generateTrace(seededProfile(dir, name)));
    return out;
}

int
cmdSegments(const std::string &dir)
{
    std::vector<Segment> segs = cutSegments(seededBundles(dir));
    std::ofstream frames(dir + "/segments.bin", std::ios::binary);
    std::ofstream lines(dir + "/serve.txt");
    for (std::size_t i = 0; i < segs.size(); ++i) {
        frames << encodeSubmit(submitFor(segs[i], i));
        lines << i << " " << segs[i].records.size() << " "
              << batchLine(segs[i]) << "\n";
    }
    return 0;
}

// ---- traced pass ----------------------------------------------------

/** One recorded interval; parent 0 = a root span. */
struct Span
{
    std::string name;
    std::uint64_t id = 0, parent = 0, op = 0;
    Clock::time_point start, end;
};

/**
 * In-memory span store. With recording off a Scope still measures
 * its duration (the traced pass needs it) but stores nothing, which is
 * what the untraced comparison pass runs with.
 */
class Spans
{
  public:
    void
    setRecording(bool on)
    {
        std::lock_guard<std::mutex> g(_mu);
        _recording = on;
    }

    std::uint64_t reserve() { return ++_next; }

    /** Store @p s (id already reserved) when recording is on. */
    void
    add(Span s)
    {
        std::lock_guard<std::mutex> g(_mu);
        if (_recording)
            _spans.push_back(std::move(s));
    }

    void
    write(const std::string &path, Clock::time_point epoch) const
    {
        std::ofstream os(path);
        os << std::setprecision(17);
        for (const Span &s : _spans) {
            os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
               << ",\"parent\":" << s.parent << ",\"op\":" << s.op
               << ",\"start_s\":" << secondsBetween(epoch, s.start)
               << ",\"end_s\":" << secondsBetween(epoch, s.end) << "}\n";
        }
    }

    std::size_t size() const { return _spans.size(); }

    /** Drop the spans stored after the store held @p n. */
    void
    truncate(std::size_t n)
    {
        std::lock_guard<std::mutex> g(_mu);
        _spans.resize(std::min(n, _spans.size()));
    }

  private:
    std::mutex _mu;
    bool _recording = false;
    std::atomic<std::uint64_t> _next{0};
    std::vector<Span> _spans;
};

/** RAII span; seconds() is valid after close(). */
class Scope
{
  public:
    Scope(Spans &spans, std::string name, std::uint64_t parent,
          std::uint64_t op)
        : _spans(spans), _id(spans.reserve())
    {
        _span.name = std::move(name);
        _span.id = _id;
        _span.parent = parent;
        _span.op = op;
        _span.start = Clock::now();
    }

    ~Scope() { close(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void
    close()
    {
        if (_closed)
            return;
        _closed = true;
        _span.end = Clock::now();
        _seconds = secondsBetween(_span.start, _span.end);
        _spans.add(_span);
    }

    std::uint64_t id() const { return _id; }
    double seconds() const { return _seconds; }

  private:
    Spans &_spans;
    std::uint64_t _id;
    Span _span;
    bool _closed = false;
    double _seconds = 0.0;
};

/** Correctness ledger: operations checked, failures, first reasons. */
struct Checks
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (errors.size() < 8)
                errors.push_back(what);
        }
    }
};

std::map<std::string, std::string>
loadRerunExpected(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string profile, org, refs;
        is >> profile >> org >> refs;
        out[profile + " " + org] = line;
    }
    return out;
}

/** The expected RESULT lines; @p refs, when given, gets each size. */
std::vector<std::string>
loadServeExpected(const std::string &path,
                  std::vector<std::size_t> *refs = nullptr)
{
    std::vector<std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string idx, refs_field;
        is >> idx >> refs_field;
        std::string rest;
        std::getline(is, rest);
        out.push_back(rest.substr(1));
        if (refs)
            refs->push_back(std::stoull(refs_field));
    }
    return out;
}

/** Per-layer metrics by name. */
using Metrics = std::map<std::string, double>;

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
        1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * (v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

// ---- load generation ------------------------------------------------

/** Pre-encoded SUBMIT frames, their sizes, and the RESULT lines. */
struct ServeInputs
{
    std::vector<std::string> frames;
    std::vector<std::string> expected;
    std::vector<std::size_t> refs;
};

/** One sent segment: when it was due, began to go out, was answered. */
struct Outcome
{
    Clock::time_point due, sent, done;
    bool ok = false;
};

/** The frame of segment @p id: distinct frame id % n, id patched in. */
std::string
frameFor(const ServeInputs &in, std::uint64_t id)
{
    std::string f = in.frames[id % in.frames.size()];
    for (int b = 0; b < 8; ++b)
        f[wireHeaderBytes + b] = static_cast<char>(id >> (8 * b));
    return f;
}

/**
 * Read one reply; true when it is the RESULT the segment must get.
 * @p id is set to the replied segment, or ~0 when the read failed.
 */
bool
readReply(ServeClient &c, const ServeInputs &in, std::uint64_t &id)
{
    id = ~std::uint64_t{0};
    Result<Frame> f = c.readFrame(10.0);
    if (!f)
        return false;
    if (f.value().type == FrameType::Result) {
        Result<ResultReply> r = decodeResult(f.value().payload);
        if (!r)
            return false;
        id = r.value().segmentId;
        return r.value().summaryLine ==
            in.expected[id % in.expected.size()];
    }
    Result<ErrorReply> e = decodeErrorReply(f.value().payload);
    if (e)
        id = e.value().segmentId;
    return false;
}

bool
attach(ServeClient &c, const std::string &sock, const std::string &name)
{
    Status s = c.connectUnix(sock);
    if (s)
        s = c.hello(name);
    if (!s)
        std::cerr << "vrcbench-probe: " << s.error().describe() << "\n";
    return bool(s);
}

/**
 * Open loop: segment k is due at t0 + k/rate and goes out on
 * connection k % 2 whatever the replies are doing; one receiver
 * thread per connection timestamps the replies.
 */
std::vector<Outcome>
openLoop(const std::string &sock, const ServeInputs &in, double rate,
         std::size_t n, Checks &checks)
{
    std::vector<Outcome> out(n);
    ServeClient clients[2];
    if (!attach(clients[0], sock, "vrcbench-0") ||
        !attach(clients[1], sock, "vrcbench-1")) {
        checks.expect(false, "serve: cannot connect");
        return out;
    }
    Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
    for (std::size_t k = 0; k < n; ++k)
        out[k].due = t0 + std::chrono::nanoseconds(
                              static_cast<std::int64_t>(1e9 * k / rate));
    auto receiver = [&](int c) {
        std::size_t want = n / 2 + (c == 0 ? n % 2 : 0);
        for (std::size_t got = 0; got < want; ++got) {
            std::uint64_t id;
            bool ok = readReply(clients[c], in, id);
            if (id >= n)
                return; // read failed: the rest stay unanswered
            out[id].done = Clock::now();
            out[id].ok = ok;
        }
    };
    std::thread r0(receiver, 0), r1(receiver, 1);
    for (std::size_t k = 0; k < n; ++k) {
        std::this_thread::sleep_until(out[k].due);
        out[k].sent = Clock::now();
        clients[k % 2].send(frameFor(in, k)).ok();
    }
    r0.join();
    r1.join();
    for (std::size_t k = 0; k < n; ++k)
        checks.expect(out[k].ok, "serve: segment " + std::to_string(k) +
                                     " refused, lost or differs from "
                                     "batch");
    return out;
}

/**
 * Closed loop: each connection keeps @p window segments in flight for
 * @p seconds. Returns the replies that arrived inside the window.
 */
std::size_t
closedLoop(const std::string &sock, const ServeInputs &in,
           std::size_t window, double seconds, std::uint64_t first_id,
           Checks &checks)
{
    Clock::time_point end = Clock::now() +
        std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 * seconds));
    std::atomic<std::size_t> inside{0};
    std::mutex mu;
    auto client = [&](int c) {
        Checks local;
        ServeClient cl;
        if (!attach(cl, sock, "vrcbench-sat-" + std::to_string(c))) {
            local.expect(false, "serve: cannot connect");
        } else {
            std::uint64_t next = first_id + c;
            std::size_t inflight = 0;
            for (; inflight < window; ++inflight, next += 2)
                cl.send(frameFor(in, next)).ok();
            while (inflight > 0) {
                std::uint64_t id;
                bool ok = readReply(cl, in, id);
                local.expect(ok, "serve: saturation segment refused, "
                                 "lost or differs from batch");
                if (id == ~std::uint64_t{0})
                    break;
                --inflight;
                if (Clock::now() < end) {
                    ++inside;
                    cl.send(frameFor(in, next)).ok();
                    next += 2;
                    ++inflight;
                }
            }
        }
        std::lock_guard<std::mutex> g(mu);
        checks.attempted += local.attempted;
        checks.failed += local.failed;
        for (std::string &e : local.errors)
            if (checks.errors.size() < 8)
                checks.errors.push_back(std::move(e));
    };
    std::thread t0(client, 0), t1(client, 1);
    t0.join();
    t1.join();
    return inside;
}

/** User+sys CPU seconds of process @p pid so far. */
double
procCpuSeconds(long pid)
{
    std::string stat = slurp("/proc/" + std::to_string(pid) + "/stat");
    std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos)
        return 0.0;
    std::istringstream is(stat.substr(paren + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && (is >> field); ++i) {
        if (i == 14)
            utime = std::stoull(field);
        if (i == 15)
            stime = std::stoull(field);
    }
    return double(utime + stime) / double(sysconf(_SC_CLK_TCK));
}

ServeInputs
loadServeInputs(const std::string &dir)
{
    ServeInputs in;
    std::string blob = slurp(dir + "/segments.bin");
    for (std::size_t off = 0; off + wireHeaderBytes <= blob.size();) {
        std::uint32_t len = 0;
        std::memcpy(&len, blob.data() + off + 5, sizeof(len));
        in.frames.push_back(blob.substr(off, wireHeaderBytes + len));
        off += wireHeaderBytes + len;
    }
    in.expected = loadServeExpected(dir + "/serve.txt", &in.refs);
    if (in.frames.empty() || in.frames.size() != in.expected.size())
        fatal("segments.bin and serve.txt disagree");
    return in;
}

/**
 * The serve workload's load: an open-loop phase at @p rate, then a
 * closed-loop saturation phase. Server CPU is read from /proc for
 * each phase.
 */
int
cmdLoadgen(const std::string &dir, const std::string &sock, long pid,
           double rate, double open_s, double sat_s, std::size_t window)
{
    ServeInputs in = loadServeInputs(dir);
    Checks checks;
    std::size_t n = static_cast<std::size_t>(rate * open_s);
    double cpu0 = procCpuSeconds(pid);
    std::vector<Outcome> out = openLoop(sock, in, rate, n, checks);
    double cpu1 = procCpuSeconds(pid);
    std::size_t done = closedLoop(sock, in, window, sat_s, n, checks);
    double cpu2 = procCpuSeconds(pid);

    // Open-loop references per second of latency: what the users, one
    // segment each, get simulated per second they wait.
    std::vector<double> lat, late;
    double open_refs = 0, open_wait_s = 0;
    for (std::size_t k = 0; k < out.size(); ++k) {
        const Outcome &o = out[k];
        late.push_back(1e3 * secondsBetween(o.due, o.sent));
        if (o.ok) {
            lat.push_back(1e3 * secondsBetween(o.due, o.done));
            open_refs += in.refs[k % in.refs.size()];
            open_wait_s += secondsBetween(o.due, o.done);
        }
    }
    std::cout << std::setprecision(17) << "{\"attempted\":"
              << checks.attempted << ",\"failed\":" << checks.failed
              << ",\"errors\":[";
    for (std::size_t i = 0; i < checks.errors.size(); ++i)
        std::cout << (i ? "," : "") << "\"" << checks.errors[i] << "\"";
    std::cout << "],\"open_n\":" << lat.size()
              << ",\"p50_ms\":" << percentile(lat, 0.50)
              << ",\"p99_ms\":" << percentile(lat, 0.99)
              << ",\"late_p99_ms\":" << percentile(late, 0.99)
              << ",\"open_cpu_s\":" << cpu1 - cpu0
              << ",\"open_refs_per_s\":"
              << (open_wait_s > 0 ? open_refs / open_wait_s : 0.0)
              << ",\"sat_completed\":" << done
              << ",\"sat_cpus\":" << (cpu2 - cpu1) / sat_s << "}\n";
    return 0;
}

/**
 * The rerun workload's cells in-process: generate, encode/decode,
 * TLB, then per organization construct + replay + summarize. Returns
 * the pass's wall time.
 */
double
rerunPass(Spans &spans, const std::string &dir,
          const std::map<std::string, std::string> &expected,
          std::vector<TraceBundle> &bundles, Metrics &m, Checks &checks)
{
    Clock::time_point t0 = Clock::now();
    bundles.clear();
    double gen_s = 0, enc_s = 0, dec_s = 0, tlb_s = 0, sum_s = 0;
    double vr_run_s = 0, construct_s = 0;
    std::size_t gen_refs = 0, translations = 0, constructs = 0;
    std::uint64_t tlb_hits = 0, tlb_misses = 0;
    std::map<std::string, double> replay_s, replay_refs;
    std::uint64_t op = 0;
    for (const char *name : kProfiles) {
        ++op;
        Scope root(spans, "rerun.profile", 0, op);
        WorkloadProfile profile = seededProfile(dir, name);

        Scope gen(spans, "trace.generate", root.id(), op);
        TraceBundle bundle = generateTrace(profile);
        gen.close();
        gen_s += gen.seconds();
        gen_refs += bundle.records.size();

        std::ostringstream encoded;
        Scope enc(spans, "trace.encode", root.id(), op);
        writeTraceBinary(encoded, bundle.records);
        enc.close();
        enc_s += enc.seconds();

        std::istringstream in(encoded.str());
        Scope dec(spans, "trace.decode", root.id(), op);
        Result<std::vector<TraceRecord>> back = tryReadTraceBinary(in);
        dec.close();
        dec_s += dec.seconds();
        checks.expect(back && back.value().size() == bundle.records.size(),
                      std::string(name) + ": trace decode round trip");

        {
            MachineConfig mc = makeMachineConfig(
                HierarchyKind::VirtualReal, kL1, kL2, profile.pageSize);
            AddressSpaceManager spaces(profile.pageSize, mc.physPages);
            setupAddressSpaces(profile, spaces);
            std::vector<Tlb> tlbs;
            for (std::uint32_t c = 0; c < profile.numCpus; ++c)
                tlbs.emplace_back(mc.hierarchy.tlbEntries,
                                  mc.hierarchy.tlbAssoc);
            std::uint32_t shift = 0;
            while ((1u << shift) < profile.pageSize)
                ++shift;
            Scope tlb(spans, "vm.tlb", root.id(), op);
            for (const TraceRecord &r : bundle.records) {
                if (!r.isMemRef())
                    continue;
                tlbs[r.cpu].translate(r.pid, r.vaddr >> shift, spaces);
                ++translations;
            }
            tlb.close();
            tlb_s += tlb.seconds();
            for (const Tlb &t : tlbs) {
                tlb_hits += t.hits();
                tlb_misses += t.misses();
            }
        }

        for (HierarchyKind kind : kAllHierarchyKinds) {
            SimJob job = cellJob(kind);
            std::string org = hierarchyKindArg(kind);
            Scope con(spans, "core.construct", root.id(), op);
            std::unique_ptr<MpSimulator> sim = construct(profile, job);
            con.close();
            construct_s += con.seconds();
            ++constructs;

            Scope rep(spans, "core.replay." + org, root.id(), op);
            replay(*sim, bundle.records);
            rep.close();
            replay_s[org] += rep.seconds();
            replay_refs[org] += bundle.records.size();

            Scope sum(spans, "sim.summarize", root.id(), op);
            SimSummary s = summarizeSimulation(*sim, job);
            std::string line = rerunLine(name, job, s);
            std::string json = toJson(*sim);
            sum.close();
            sum_s += sum.seconds();
            if (kind == HierarchyKind::VirtualReal)
                vr_run_s += gen.seconds() + con.seconds() +
                    rep.seconds() + sum.seconds();

            auto it = expected.find(std::string(name) + " " + org);
            checks.expect(it != expected.end() && it->second == line,
                          std::string(name) + " " + org +
                              ": summary differs from the reference");
            if (std::string(name) == "thor") {
                m["model.h1." + org] = s.h1;
                m["model.h2." + org] = s.h2;
                m["model.synonym_hits." + org] = s.synonymHits;
                m["model.inclusion_invals." + org] = s.inclusionInvalidations;
                m["model.bus_tx." + org] = s.busTransactions;
                m["model.wb_stalls." + org] = s.writeBufferStalls;
            }
        }
        bundles.push_back(std::move(bundle));
    }
    double wall = secondsBetween(t0, Clock::now());
    m["trace.gen_ns_per_ref"] = 1e9 * gen_s / gen_refs;
    m["trace.gen_share"] = gen_s / vr_run_s;
    m["trace.encode_ns_per_ref"] = 1e9 * enc_s / gen_refs;
    m["trace.decode_ns_per_ref"] = 1e9 * dec_s / gen_refs;
    m["vm.tlb_ns_per_translate"] = 1e9 * tlb_s / translations;
    m["vm.tlb_hit_ratio"] = double(tlb_hits) / double(tlb_hits + tlb_misses);
    for (auto &[org, s] : replay_s)
        m["core.replay_ns_per_ref." + org] = 1e9 * s / replay_refs[org];
    m["core.construct_us"] = 1e6 * construct_s / constructs;
    m["sim.summarize_us"] = 1e6 * sum_s / constructs;
    return wall;
}

/**
 * The sweep grid through a CampaignRunner whose cell function records
 * one span per cell (parent: the campaign span). Returns the wall.
 */
double
timedCampaign(Spans &spans, const TraceBundle &bundle, unsigned jobs,
              std::uint64_t op, std::vector<SimSummary> &out,
              double &cpu_s)
{
    std::vector<SimJob> grid = sweepJobs();
    out.assign(grid.size(), SimSummary{});
    CampaignOptions opt;
    opt.jobs = jobs;
    CampaignRunner runner(opt);
    double cpu0 = processCpuSeconds();
    Scope camp(spans, "sim.runner", 0, op);
    std::uint64_t parent = camp.id();
    Result<CampaignResult> r = runner.run(
        grid.size(), campaignKey(bundle, grid),
        [&](std::size_t i, const CancelToken &token) {
            Scope cell(spans, "core.cell", parent, op);
            return runSimulationCancellable(bundle, grid[i], token);
        });
    camp.close();
    cpu_s = processCpuSeconds() - cpu0;
    if (r)
        out = r.value().summaries;
    return camp.seconds();
}

void
sweepPass(Spans &spans, const TraceBundle &thor, unsigned jobs,
          const std::string &expected_json, Metrics &m, Checks &checks,
          double &untraced_wall, double &traced_wall)
{
    std::vector<SimJob> grid = sweepJobs();
    std::uint64_t op = 100;

    Scope plain(spans, "sim.run_simulations", 0, op);
    runSimulations(thor, grid, jobs);
    plain.close();

    std::string ckpt = "traced-sweep.ckpt";
    std::remove(ckpt.c_str());
    CampaignOptions copt;
    copt.jobs = jobs;
    copt.checkpoint = ckpt;
    Scope camp(spans, "sim.campaign", 0, op);
    Result<CampaignResult> r = runSimulationCampaign(thor, grid, copt);
    camp.close();
    std::remove(ckpt.c_str());
    checks.expect(r && campaignResultToJson(r.value()) + "\n" ==
                      expected_json,
                  "sweep: campaign JSON differs from the reference");
    m["sim.campaign.overhead_s"] = camp.seconds() - plain.seconds();

    // Untraced and traced campaigns in the order U T T U, so a steady
    // drift of the host cancels; the runs above were the warm-up. The
    // spans of the first traced campaign are dropped.
    std::vector<SimSummary> sums;
    double cpu_s = 0, wall = 0;
    untraced_wall = traced_wall = 0;
    spans.setRecording(false);
    untraced_wall += timedCampaign(spans, thor, jobs, op, sums, cpu_s);
    spans.setRecording(true);
    std::size_t kept = spans.size();
    traced_wall += timedCampaign(spans, thor, jobs, op, sums, cpu_s);
    spans.truncate(kept);
    wall = timedCampaign(spans, thor, jobs, op, sums, cpu_s);
    traced_wall += wall;
    m["sim.runner.parallelism"] = cpu_s / wall;
    m["sim.runner.efficiency"] = cpu_s / wall / jobs;
    spans.setRecording(false);
    untraced_wall += timedCampaign(spans, thor, jobs, op, sums, cpu_s);
    spans.setRecording(true);
    untraced_wall /= 2;
    traced_wall /= 2;
}

void
cyclePass(Spans &spans, const TraceBundle &pops, Metrics &m)
{
    SimJob job = cellJob(HierarchyKind::VirtualReal, TimingMode::Cycle);
    std::unique_ptr<MpSimulator> sim = construct(pops.profile, job);
    Scope rep(spans, "core.cycle.vr", 0, 200);
    replay(*sim, pops.records);
    rep.close();
    m["core.cycle_ns_per_ref.vr"] = 1e9 * rep.seconds() / pops.records.size();
}

/**
 * Segments served by an in-process ServeServer on the same open-loop
 * schedule the serve workload uses; queue+I/O time is the latency
 * minus a cold in-process replay of the same segment.
 */
void
servePass(Spans &spans, const std::vector<TraceBundle> &bundles,
          double rate, std::size_t served, std::size_t per_client,
          const std::vector<std::string> &expected, Metrics &m,
          Checks &checks)
{
    std::vector<Segment> segs = cutSegments(bundles);
    std::uint64_t op = 300;

    ServeInputs in;
    in.expected = expected;
    double enc_s = 0, dec_s = 0, cold_s = 0;
    std::vector<double> cold(segs.size());
    for (std::size_t i = 0; i < segs.size(); ++i) {
        SubmitRequest req = submitFor(segs[i], i);
        Scope enc(spans, "serve.wire_encode", 0, op);
        in.frames.push_back(encodeSubmit(req));
        enc.close();
        enc_s += enc.seconds();

        std::string payload = in.frames.back().substr(wireHeaderBytes);
        Scope dec(spans, "serve.wire_decode", 0, op);
        Result<SubmitRequest> back = decodeSubmit(payload);
        dec.close();
        dec_s += dec.seconds();
        checks.expect(back && back.value().records.size() ==
                                  segs[i].records.size(),
                      "serve: SUBMIT decode round trip");

        WorkloadProfile profile = profileByName(kProfiles[segs[i].profile]);
        Scope seg(spans, "core.cold_segment", 0, op);
        std::unique_ptr<MpSimulator> sim = construct(profile, segs[i].job);
        replay(*sim, segs[i].records);
        std::string line =
            encodeSummaryLine(0, summarizeSimulation(*sim, segs[i].job));
        seg.close();
        cold[i] = seg.seconds();
        cold_s += seg.seconds();
        checks.expect(i < expected.size() && expected[i] == line,
                      "serve: in-process segment differs from the "
                      "batch reference");
    }
    m["serve.wire_encode_us"] = 1e6 * enc_s / segs.size();
    m["serve.wire_decode_us"] = 1e6 * dec_s / segs.size();
    m["core.cold_segment_us"] = 1e6 * cold_s / segs.size();

    const std::string sock = "traced-serve.sock";
    std::remove(sock.c_str());
    ServeOptions opt;
    opt.unixPath = sock;
    opt.workers = 2;
    opt.perClientCap = per_client;
    ServeServer server(opt);
    Status started = server.start();
    if (!started)
        fatal(started.error().describe());
    std::vector<Outcome> out = openLoop(sock, in, rate, served, checks);
    server.requestDrain();
    server.waitUntilDrained();
    std::remove(sock.c_str());

    std::vector<double> queue_io;
    for (std::size_t k = 0; k < out.size(); ++k) {
        if (!out[k].ok)
            continue;
        Span s;
        s.name = "serve.segment";
        s.id = spans.reserve();
        s.op = op + 1 + k;
        s.start = out[k].due;
        s.end = out[k].done;
        spans.add(s);
        queue_io.push_back(1e3 * (secondsBetween(out[k].due, out[k].done) -
                                  cold[k % segs.size()]));
    }
    ServiceStats st = server.stats();
    m["serve.queue_io_ms.p50"] = percentile(queue_io, 0.50);
    m["serve.queue_io_ms.p99"] = percentile(queue_io, 0.99);
    m["serve.shed"] = st.segmentsShed;
    std::uint64_t pool = st.poolHits + st.poolMisses;
    m["serve.pool_hit_ratio"] =
        pool ? double(st.poolHits) / double(pool) : 0.0;
}

/**
 * A 2-worker coordinated sweep of the built-in thor trace, in-process
 * over a unix socket; the overhead is its wall minus a 2-thread
 * runSimulations of the same grid.
 */
void
shardPass(Spans &spans, const std::string &expected_json, Metrics &m,
          Checks &checks)
{
    std::uint64_t op = 400;
    TraceBundle thor = generateTrace(profileByName("thor"));
    std::vector<SimJob> grid = sweepJobs();

    Scope plain(spans, "sim.run_simulations", 0, op);
    runSimulations(thor, grid, 2);
    plain.close();

    const std::string sock = "traced-shard.sock";
    std::remove(sock.c_str());
    ShardCoordinatorOptions opt;
    opt.listenUnix = sock;
    opt.profileScale = 1.0;
    ShardCoordinator coordinator(opt);
    Status bound = coordinator.bind();
    if (!bound)
        fatal(bound.error().describe());

    Scope coord(spans, "shard.coordinate", 0, op);
    std::uint64_t parent = coord.id();
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
        workers.emplace_back([&, w] {
            Scope span(spans, "shard.worker", parent, op);
            ShardWorkerOptions wo;
            wo.connectUnix = sock;
            wo.name = "vrcbench-w" + std::to_string(w);
            Result<ShardWorkerStats> st = runShardWorker(wo);
            if (!st)
                std::cerr << "vrcbench-probe: worker: "
                          << st.error().describe() << "\n";
        });
    }
    Result<CampaignResult> r = coordinator.run(thor, grid);
    coord.close();
    for (std::thread &t : workers)
        t.join();
    std::remove(sock.c_str());

    checks.expect(r && campaignResultToJson(r.value()) + "\n" ==
                      expected_json,
                  "shard: coordinated JSON differs from the sweep "
                  "reference");
    ShardStats st = coordinator.stats();
    m["shard.overhead_s"] = coord.seconds() - plain.seconds();
    std::uint64_t results = st.cellResults + st.duplicateResults;
    m["shard.useful_ratio"] =
        results ? double(st.cellResults) / double(results) : 0.0;
    m["shard.speculative"] = st.speculativeDispatches;
    m["shard.workers_lost"] = st.workersLost;
}

int
cmdTraced(const std::string &dir, unsigned jobs, double rate,
          std::size_t served, std::size_t per_client)
{
    Clock::time_point epoch = Clock::now();
    Spans spans;
    Metrics m;
    Checks checks;
    std::map<std::string, std::string> rerun =
        loadRerunExpected(dir + "/rerun.txt");
    std::string sweep_json = slurp(dir + "/sweep.json");
    std::string shard_json = slurp(dir + "/shard.json");
    std::vector<std::string> serve = loadServeExpected(dir + "/serve.txt");
    std::vector<TraceBundle> bundles;

    // Tracing overhead: a warm-up pass takes the first-touch and
    // allocator costs, then untraced (U) and traced (T) passes run in
    // the order U T T U so a steady drift of the host cancels. The
    // spans of the first traced pass are dropped.
    Checks ignored;
    Metrics scratch;
    auto untraced = [&] {
        spans.setRecording(false);
        double wall = rerunPass(spans, dir, rerun, bundles, scratch,
                                ignored);
        spans.setRecording(true);
        return wall;
    };
    untraced();
    double rerun_plain = untraced();
    std::size_t kept = spans.size();
    double rerun_traced = rerunPass(spans, dir, rerun, bundles, scratch,
                                    ignored);
    spans.truncate(kept);
    rerun_traced += rerunPass(spans, dir, rerun, bundles, m, checks);
    rerun_plain += untraced();
    m["tracing.overhead_s.rerun"] = (rerun_traced - rerun_plain) / 2;

    double sweep_plain = 0, sweep_traced = 0;
    sweepPass(spans, bundles[1], jobs, sweep_json, m, checks, sweep_plain,
              sweep_traced);
    m["tracing.overhead_s.sweep"] = sweep_traced - sweep_plain;

    cyclePass(spans, bundles[0], m);
    servePass(spans, bundles, rate, served, per_client, serve, m, checks);
    shardPass(spans, shard_json, m, checks);

    spans.write(dir + "/spans.jsonl", epoch);
    std::cout << std::setprecision(17) << "{\"attempted\":"
              << checks.attempted << ",\"failed\":" << checks.failed
              << ",\"spans\":" << spans.size() << ",\"errors\":[";
    for (std::size_t i = 0; i < checks.errors.size(); ++i)
        std::cout << (i ? "," : "") << "\"" << checks.errors[i] << "\"";
    std::cout << "],\"metrics\":{";
    bool first = true;
    for (const auto &[k, v] : m) {
        std::cout << (first ? "" : ",") << "\"" << k << "\":" << v;
        first = false;
    }
    std::cout << "}}\n";
    return 0;
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: vrcbench-probe fingerprint\n"
                 "       vrcbench-probe profiles <dir> <seed>\n"
                 "       vrcbench-probe reference <dir> <jobs>\n"
                 "       vrcbench-probe segments <dir>\n"
                 "       vrcbench-probe loadgen <dir> <sock> <pid> <rate> "
                 "<open_s> <sat_s> <window>\n"
                 "       vrcbench-probe traced <dir> <jobs> <rate> "
                 "<served> <per_client>\n";
    std::exit(2);
}

unsigned long long
num(const char *s)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (!end || *end != '\0')
        usage();
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string cmd = argv[1];
    if (cmd == "fingerprint" && argc == 2)
        return cmdFingerprint();
    if (cmd == "profiles" && argc == 4)
        return cmdProfiles(argv[2], num(argv[3]));
    if (cmd == "reference" && argc == 4)
        return cmdReference(argv[2], num(argv[3]));
    if (cmd == "segments" && argc == 3)
        return cmdSegments(argv[2]);
    if (cmd == "loadgen" && argc == 9)
        return cmdLoadgen(argv[2], argv[3], std::atol(argv[4]),
                          std::atof(argv[5]), std::atof(argv[6]),
                          std::atof(argv[7]), num(argv[8]));
    if (cmd == "traced" && argc == 7)
        return cmdTraced(argv[2], num(argv[3]), std::atof(argv[4]),
                         num(argv[5]), num(argv[6]));
    usage();
}
