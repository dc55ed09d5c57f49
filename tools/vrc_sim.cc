/**
 * @file
 * Simulation CLI.
 *
 * Runs one of the built-in workloads (or a saved binary trace) through
 * a configurable machine and prints the full statistics: hit ratios by
 * type and level, synonym/coherence/write-buffer activity, and the
 * Section-4 access-time model.
 *
 * Usage:
 *   vrc_sim --profile=pops [--trace=file.vrct] [--org=vr|rr|rr-noincl]
 *           [--l1=16384] [--l2=262144] [--assoc1=1] [--assoc2=1]
 *           [--block1=16] [--block2=16] [--split] [--scale=1.0]
 *           [--timing=analytic|cycle] [--check] [--per-cpu]
 *
 * Campaign mode (`--sweep`) runs the 4-organization x 3-size
 * grid as a fault-tolerant campaign: checkpointed to a journal,
 * resumable after a kill, watchdogged, with failing cells retried and
 * then quarantined instead of aborting the sweep.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "base/atomic_file.hh"
#include "base/fault.hh"
#include "base/log.hh"
#include "base/shutdown.hh"
#include "base/table.hh"
#include "serve/server.hh"
#include "cache/protection.hh"
#include "core/clock.hh"
#include "core/timing.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/shard.hh"
#include "sim/json_stats.hh"
#include "core/events.hh"
#include "trace/profile_io.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stream.hh"

using namespace vrc;

namespace
{

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: vrc_sim --profile=<pops|thor|abaqus> [options]\n"
        "  --profile-file=<path>  load a custom profile file instead\n"
        "  --trace=<path>   replay a saved binary trace (the profile is\n"
        "                   still required for the address-space layout)\n"
        "  --org=<vr|rr|rr-noincl|vr-rlt>  organization (default vr)\n"
        "  --list-orgs      print the known organizations and exit\n"
        "  --l1=<bytes> --l2=<bytes> cache sizes (default 16K/256K)\n"
        "  --assoc1/--assoc2, --block1/--block2   geometry\n"
        "  --split          split level 1 into I and D halves\n"
        "  --scale=<f>      rescale the generated trace\n"
        "  --timing=<analytic|cycle>  access-time engine: the paper's\n"
        "                   closed form, or the cycle-approximate bus-\n"
        "                   contention model (default analytic; the\n"
        "                   architectural counters are identical)\n"
        "  --stream         generate records on the fly instead of\n"
        "                   materializing the trace (lower peak RSS)\n"
        "  --check          verify invariants during the run\n"
        "  --per-cpu        per-CPU statistics table\n"
        "  --json           machine-readable JSON output only\n"
        "  --summary        print only the exact hexfloat summary line\n"
        "                   (the service's RESULT payload; byte-\n"
        "                   comparable against --serve replies)\n"
        "  --events=<n>     print the first n hierarchy events\n"
        "  --warmup=<f>     reset statistics after fraction f of the\n"
        "                   trace (steady-state measurement)\n"
        "campaign mode:\n"
        "  --sweep          run the 4-org x 3-size grid as a campaign\n"
        "  --checkpoint=<path>  journal completed cells; with --resume,\n"
        "                   a killed sweep restarts where it stopped\n"
        "  --resume         load the checkpoint journal before running\n"
        "  --deadline=<s>   per-cell watchdog deadline (wall-clock)\n"
        "  --max-retries=<n>  retries before a cell is quarantined\n"
        "  --manifest=<path>  write the failure manifest JSON here\n"
        "  --out=<path>     write the campaign result JSON here\n"
        "  --jobs=<n>       worker threads for the sweep\n"
        "  --inject-faults=<spec>  arm deterministic fault injection\n"
        "                   (seed=N[,corrupt=P][,truncate=P][,throw=P]\n"
        "                   [,stall=P][,stall_ms=M])\n"
        "soft errors:\n"
        "  --soft-errors=<spec>  arm the in-hierarchy soft-error model\n"
        "                   (seed=N[,tag=P][,state=P][,ptr=P][,bus=P]\n"
        "                   [,retry=N]; a bare number is seed=N with\n"
        "                   default rates)\n"
        "  --protect=<none|parity|secded>  tag-array protection policy\n"
        "                   (default secded)\n"
        "distributed sweep mode:\n"
        "  --coordinate     run the sweep grid through remote shard\n"
        "                   workers instead of local threads; reuses\n"
        "                   --listen-unix/--listen-tcp, --checkpoint,\n"
        "                   --resume, --deadline (straggler watchdog),\n"
        "                   --max-retries, --manifest and --out\n"
        "  --shard-cells=<n>  cells per dispatched shard (default\n"
        "                   grid/4)\n"
        "  --shard-worker   run one shard worker process\n"
        "  --connect-unix=<path> / --connect-tcp=<port>  coordinator\n"
        "                   address for --shard-worker\n"
        "  --worker-name=<s>  stable worker identity (quarantine key)\n"
        "  --heartbeat=<s>  worker heartbeat period (default 0.2)\n"
        "                   (merge partial journals with vrc-merge)\n"
        "service mode:\n"
        "  --serve          run the long-lived segment service\n"
        "  --listen-unix=<path>   unix-domain listening socket\n"
        "  --listen-tcp=<port>    localhost TCP (0 = kernel-assigned;\n"
        "                   the bound port is printed on stdout)\n"
        "  --workers=<n>    segment worker threads (default 2)\n"
        "  --queue=<n>      global admission queue bound (default 64)\n"
        "  --per-client=<n> per-session in-flight bound (default 4)\n"
        "  --read-timeout=<s>  kill sessions whose frame stalls\n"
        "  --quarantine-threshold=<n>  poisoned sessions per client\n"
        "                   name before HELLO is refused (default 3)\n"
        "                   (--deadline, --max-retries and --manifest\n"
        "                   apply per segment / to the service)\n"
        "exit codes:\n"
        "  0 success        2 usage or configuration error\n"
        "  3 cells quarantined (sweep)   4 machine check\n"
        "  5 interrupted by SIGINT/SIGTERM (graceful drain; a second\n"
        "    signal hard-exits with 128+signal)\n"
        "  6 conflicting cell summaries (distributed sweep / merge)\n";
    std::exit(2);
}

/**
 * Fail fast when an output path cannot be opened for writing, instead
 * of discovering it only after a long campaign has already run.
 * Append mode leaves any existing content untouched.
 */
void
probeWritable(const char *what, const std::string &path)
{
    if (path.empty())
        return;
    std::ofstream probe(path, std::ios::app);
    if (!probe)
        fatal("cannot open ", what, " for writing: ", path);
}

bool
argValue(const char *arg, const char *name, std::string &out)
{
    std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
        out = arg + n + 1;
        return true;
    }
    return false;
}

HierarchyKind
parseOrg(const std::string &s)
{
    if (auto kind = hierarchyKindFromArg(s))
        return *kind;
    fatal("unknown organization: ", s, " (try --list-orgs)");
}

/** --list-orgs: one line per organization, argument first. */
[[noreturn]] void
listOrgs()
{
    for (HierarchyKind kind : kAllHierarchyKinds) {
        std::cout << hierarchyKindArg(kind) << "  "
                  << hierarchyKindName(kind) << ": "
                  << hierarchyKindDescription(kind) << "\n";
    }
    std::exit(0);
}

/** The paper's grid: every organization at every large size pair. */
std::vector<SimJob>
sweepJobs(TimingMode timing_mode)
{
    std::vector<SimJob> jobs;
    for (HierarchyKind kind : kAllHierarchyKinds) {
        for (auto [l1, l2] : paperSizePairs())
            jobs.push_back({kind, l1, l2, false, 0, timing_mode});
    }
    return jobs;
}

/** Shared result reporting for --sweep and --coordinate. */
int
reportCampaign(const std::vector<SimJob> &jobs,
               const CampaignResult &res, bool json,
               const std::string &out_path)
{
    std::string result_json = campaignResultToJson(res);
    if (!out_path.empty()) {
        Status wrote = writeFileAtomic(out_path, result_json + "\n");
        if (!wrote)
            fatal("cannot write campaign result: ",
                  wrote.error().message);
    }
    if (json) {
        std::cout << result_json << "\n";
    } else {
        TextTable t;
        t.row()
            .cell("org")
            .cell("l1/l2")
            .cell("h1")
            .cell("h2")
            .cell("bus txns")
            .cell("status");
        t.separator();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            auto &row = t.row()
                .cell(hierarchyKindName(jobs[i].kind))
                .cell(sizeLabel(jobs[i].l1Size, jobs[i].l2Size));
            if (res.completed[i]) {
                row.cell(res.summaries[i].h1, 4)
                    .cell(res.summaries[i].h2, 4)
                    .cell(res.summaries[i].busTransactions)
                    .cell("ok");
            } else {
                row.cell("-").cell("-").cell("-").cell("quarantined");
            }
        }
        std::cout << t;
        std::cout << "\ncompleted " << res.completedCells() << "/"
                  << jobs.size() << " cells";
        if (res.restored > 0)
            std::cout << " (" << res.restored
                      << " restored from checkpoint)";
        std::cout << "\n";
        for (const CellFailure &f : res.quarantined)
            std::cout << "quarantined cell " << f.index << " after "
                      << f.attempts << " attempt"
                      << (f.attempts == 1 ? "" : "s") << ": "
                      << f.error << "\n";
    }
    if (res.interrupted) {
        std::cerr << "vrc_sim: sweep interrupted by signal "
                  << shutdownSignal() << "; journal flushed, "
                  << res.completedCells() << "/" << jobs.size()
                  << " cells done (resume with --resume)\n";
        return kExitInterrupted;
    }
    return res.allOk() ? 0 : 3;
}

/** Print @p e and return the exit code @p code. */
int
reportError(const Error &e, int code)
{
    std::cerr << "vrc_sim: " << e.describe() << "\n";
    return code;
}

/** Print the bound addresses for scripts waiting on a server. */
void
announceListeners(const std::string &unixPath, int tcpPort)
{
    if (!unixPath.empty())
        std::cout << "listening unix " << unixPath << "\n";
    if (tcpPort >= 0)
        std::cout << "listening tcp 127.0.0.1:" << tcpPort << "\n";
    std::cout << std::flush;
}

int
runSweep(const TraceBundle &bundle, const CampaignOptions &opt,
         bool json, const std::string &out_path, TimingMode timing_mode)
{
    std::vector<SimJob> jobs = sweepJobs(timing_mode);
    installShutdownHandlers();
    Result<CampaignResult> run =
        runSimulationCampaign(bundle, jobs, opt);
    if (!run)
        return reportError(run.error(), 2);
    return reportCampaign(jobs, run.take(), json, out_path);
}

int
runCoordinate(const TraceBundle &bundle,
              const ShardCoordinatorOptions &opt, bool json,
              const std::string &out_path, TimingMode timing_mode)
{
    std::vector<SimJob> jobs = sweepJobs(timing_mode);
    installShutdownHandlers();
    ShardCoordinator coordinator(opt);
    Status bound = coordinator.bind();
    if (!bound)
        return reportError(bound.error(), 2);
    announceListeners(opt.listenUnix, coordinator.tcpPort());

    Result<CampaignResult> run = coordinator.run(bundle, jobs);
    ShardStats st = coordinator.stats();
    std::cerr << "vrc_sim: coordinated " << st.cellResults
              << " cell results over " << st.workersSeen
              << " workers (" << st.assignmentsDispatched
              << " assignments, " << st.speculativeDispatches
              << " speculative, " << st.duplicateResults
              << " duplicates discarded, " << st.workersLost
              << " workers lost, " << st.workersQuarantined
              << " quarantined)\n";
    if (!run)
        return reportError(run.error(),
                           coordinator.conflictDetected() ? 6 : 2);
    return reportCampaign(jobs, run.take(), json, out_path);
}

int
runWorker(const ShardWorkerOptions &opt)
{
    Result<ShardWorkerStats> run = runShardWorker(opt);
    if (!run)
        return reportError(run.error(), 1);
    ShardWorkerStats st = run.take();
    std::cerr << "vrc_sim: worker '" << opt.name << "' done; "
              << st.assignments << " assignments, " << st.cellsRun
              << " cells run, " << st.cellsFailed << " failed\n";
    return 0;
}

int
runServe(const ServeOptions &so)
{
    ServeServer server(so);
    Status started = server.start();
    if (!started)
        return reportError(started.error(), 2);
    announceListeners(so.unixPath, server.tcpPort());
    int code = server.waitUntilDrained();
    ServiceStats st = server.stats();
    std::cerr << "vrc_sim: drained; " << st.segmentsCompleted
              << " segments completed, " << st.segmentsFailed
              << " failed, " << st.sessionsPoisoned
              << " sessions poisoned, "
              << st.quarantinedClients.size()
              << " clients quarantined\n";
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string profile_name, profile_file, trace_path, value;
    HierarchyKind kind = HierarchyKind::VirtualReal;
    std::uint32_t l1 = 16 * 1024, l2 = 256 * 1024;
    std::uint32_t assoc1 = 1, assoc2 = 1, block1 = 16, block2 = 16;
    bool split = false, check = false, per_cpu = false;
    bool json = false, stream = false, summary_only = false;
    bool sweep = false, serve = false;
    bool coordinate = false, shard_worker = false;
    ShardWorkerOptions worker_opt;
    std::size_t shard_cells = 0;
    ServeOptions serve_opt;
    TimingMode timing_mode = TimingMode::Analytic;
    CampaignOptions campaign;
    ArrayProtection protect = ArrayProtection::Secded;
    std::string out_path;
    std::uint64_t events = 0;
    double warmup = 0.0;
    double scale = 1.0;

    for (int i = 1; i < argc; ++i) {
        if (argValue(argv[i], "--profile-file", value))
            profile_file = value;
        else if (argValue(argv[i], "--profile", value))
            profile_name = value;
        else if (argValue(argv[i], "--trace", value))
            trace_path = value;
        else if (argValue(argv[i], "--org", value))
            kind = parseOrg(value);
        else if (std::strcmp(argv[i], "--list-orgs") == 0)
            listOrgs();
        else if (argValue(argv[i], "--l1", value))
            l1 = std::strtoul(value.c_str(), nullptr, 0);
        else if (argValue(argv[i], "--l2", value))
            l2 = std::strtoul(value.c_str(), nullptr, 0);
        else if (argValue(argv[i], "--assoc1", value))
            assoc1 = std::strtoul(value.c_str(), nullptr, 0);
        else if (argValue(argv[i], "--assoc2", value))
            assoc2 = std::strtoul(value.c_str(), nullptr, 0);
        else if (argValue(argv[i], "--block1", value))
            block1 = std::strtoul(value.c_str(), nullptr, 0);
        else if (argValue(argv[i], "--block2", value))
            block2 = std::strtoul(value.c_str(), nullptr, 0);
        else if (argValue(argv[i], "--scale", value))
            scale = std::atof(value.c_str());
        else if (argValue(argv[i], "--timing", value)) {
            std::optional<TimingMode> m = parseTimingMode(value);
            if (!m)
                fatal("unknown timing mode: ", value);
            timing_mode = *m;
        } else if (std::strcmp(argv[i], "--split") == 0)
            split = true;
        else if (std::strcmp(argv[i], "--stream") == 0)
            stream = true;
        else if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--per-cpu") == 0)
            per_cpu = true;
        else if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else if (std::strcmp(argv[i], "--summary") == 0)
            summary_only = true;
        else if (std::strcmp(argv[i], "--serve") == 0)
            serve = true;
        else if (std::strcmp(argv[i], "--coordinate") == 0)
            coordinate = true;
        else if (std::strcmp(argv[i], "--shard-worker") == 0)
            shard_worker = true;
        else if (argValue(argv[i], "--connect-unix", value))
            worker_opt.connectUnix = value;
        else if (argValue(argv[i], "--connect-tcp", value))
            worker_opt.connectTcp = static_cast<int>(
                std::strtol(value.c_str(), nullptr, 0));
        else if (argValue(argv[i], "--worker-name", value))
            worker_opt.name = value;
        else if (argValue(argv[i], "--heartbeat", value))
            worker_opt.heartbeatSeconds = std::atof(value.c_str());
        else if (argValue(argv[i], "--shard-cells", value))
            shard_cells = std::strtoul(value.c_str(), nullptr, 0);
        else if (argValue(argv[i], "--listen-unix", value))
            serve_opt.unixPath = value;
        else if (argValue(argv[i], "--listen-tcp", value))
            serve_opt.tcpPort = static_cast<int>(
                std::strtol(value.c_str(), nullptr, 0));
        else if (argValue(argv[i], "--workers", value))
            serve_opt.workers = static_cast<unsigned>(
                std::strtoul(value.c_str(), nullptr, 0));
        else if (argValue(argv[i], "--queue", value))
            serve_opt.queueCap =
                std::strtoul(value.c_str(), nullptr, 0);
        else if (argValue(argv[i], "--per-client", value))
            serve_opt.perClientCap =
                std::strtoul(value.c_str(), nullptr, 0);
        else if (argValue(argv[i], "--read-timeout", value))
            serve_opt.readTimeoutSeconds = std::atof(value.c_str());
        else if (argValue(argv[i], "--quarantine-threshold", value))
            serve_opt.quarantineThreshold = static_cast<unsigned>(
                std::strtoul(value.c_str(), nullptr, 0));
        else if (argValue(argv[i], "--events", value))
            events = std::strtoull(value.c_str(), nullptr, 0);
        else if (argValue(argv[i], "--warmup", value))
            warmup = std::atof(value.c_str());
        else if (std::strcmp(argv[i], "--sweep") == 0)
            sweep = true;
        else if (argValue(argv[i], "--checkpoint", value))
            campaign.checkpoint = value;
        else if (std::strcmp(argv[i], "--resume") == 0)
            campaign.resume = true;
        else if (argValue(argv[i], "--deadline", value))
            campaign.deadlineSeconds = std::atof(value.c_str());
        else if (argValue(argv[i], "--max-retries", value))
            campaign.maxRetries = static_cast<unsigned>(
                std::strtoul(value.c_str(), nullptr, 0));
        else if (argValue(argv[i], "--manifest", value))
            campaign.manifest = value;
        else if (argValue(argv[i], "--out", value))
            out_path = value;
        else if (argValue(argv[i], "--jobs", value))
            campaign.jobs = static_cast<unsigned>(
                std::strtoul(value.c_str(), nullptr, 0));
        else if (argValue(argv[i], "--inject-faults", value)) {
            Status armed = configureFaultInjection(value);
            if (!armed)
                fatal(armed.error().describe());
        } else if (argValue(argv[i], "--soft-errors", value)) {
            Status armed = configureSoftErrors(value);
            if (!armed)
                fatal(armed.error().describe());
        } else if (argValue(argv[i], "--protect", value)) {
            std::optional<ArrayProtection> p = parseArrayProtection(value);
            if (!p)
                fatal("unknown protection policy: ", value);
            protect = *p;
        } else
            usage();
    }
    if (shard_worker)
        return runWorker(worker_opt);
    if (serve) {
        serve_opt.segmentDeadline = campaign.deadlineSeconds;
        serve_opt.maxRetries = campaign.maxRetries;
        serve_opt.manifest = campaign.manifest;
        probeWritable("service manifest (--manifest)",
                      serve_opt.manifest);
        return runServe(serve_opt);
    }
    if (profile_name.empty() && profile_file.empty())
        usage();

    WorkloadProfile profile = profile_file.empty()
        ? profileByName(profile_name)
        : loadProfile(profile_file);
    profile = scaled(profile, scale);
    if (stream && (!trace_path.empty() || warmup > 0.0))
        fatal("--stream cannot be combined with --trace or --warmup");
    if (coordinate) {
        if (stream || sweep)
            fatal("--coordinate cannot be combined with --stream "
                  "or --sweep");
        if (!trace_path.empty() || !profile_file.empty())
            fatal("--coordinate needs a built-in --profile: workers "
                  "regenerate the trace from its name");
        probeWritable("campaign result (--out)", out_path);
        probeWritable("failure manifest (--manifest)",
                      campaign.manifest);
        ShardCoordinatorOptions co;
        static_cast<ResilienceOptions &>(co) = campaign;
        co.listenUnix = serve_opt.unixPath;
        co.listenTcp = serve_opt.tcpPort;
        co.profileScale = scale;
        co.cellsPerShard = shard_cells;
        return runCoordinate(generateTrace(profile), co, json,
                             out_path, timing_mode);
    }
    if (sweep) {
        if (stream)
            fatal("--sweep cannot be combined with --stream");
        probeWritable("campaign result (--out)", out_path);
        probeWritable("failure manifest (--manifest)", campaign.manifest);
        TraceBundle bundle;
        if (!trace_path.empty()) {
            Result<std::vector<TraceRecord>> loaded =
                tryLoadTrace(trace_path);
            if (!loaded)
                return reportError(loaded.error(), 2);
            bundle.profile = profile;
            bundle.records = loaded.take();
        } else {
            bundle = generateTrace(profile);
        }
        return runSweep(bundle, campaign, json, out_path, timing_mode);
    }

    std::vector<TraceRecord> records;
    if (!trace_path.empty()) {
        records = loadTrace(trace_path);
    } else if (!stream) {
        records = generateTrace(profile).records;
    }

    MachineConfig mc =
        makeMachineConfig(kind, l1, l2, profile.pageSize, split);
    mc.hierarchy.l1.assoc = assoc1;
    mc.hierarchy.l2.assoc = assoc2;
    mc.hierarchy.l1.blockBytes = block1;
    mc.hierarchy.l2.blockBytes = block2;
    mc.hierarchy.l1.protection = protect;
    mc.hierarchy.l2.protection = protect;
    mc.timingMode = timing_mode;
    if (check)
        mc.invariantPeriod = 10'000;

    MpSimulator sim(mc, profile);

    std::uint64_t printed = 0;
    CallbackObserver printer([&](const HierarchyEvent &ev) {
        if (printed++ >= events)
            return;
        std::cout << "[cpu" << ev.cpu << " @" << ev.refIndex << "] "
                  << eventKindName(ev.kind) << " va=0x" << std::hex
                  << ev.vaddr << " pa=0x" << ev.paddr << std::dec
                  << "\n";
    });
    if (events > 0) {
        for (CpuId c = 0; c < sim.cpuCount(); ++c)
            sim.hierarchy(c).setObserver(&printer);
    }

    try {
        if (stream) {
            TraceStream src(profile);
            sim.run(src);
        } else if (warmup > 0.0 && warmup < 1.0) {
            std::size_t cut = static_cast<std::size_t>(
                records.size() * warmup);
            for (std::size_t i = 0; i < cut; ++i)
                sim.step(records[i]);
            sim.resetStats();
            for (std::size_t i = cut; i < records.size(); ++i)
                sim.step(records[i]);
        } else {
            sim.run(records);
        }
    } catch (const FaultUnrecoverable &mc_fault) {
        std::cerr << "vrc_sim: machine check after "
                  << sim.refsProcessed()
                  << " references: " << mc_fault.what() << "\n";
        return 4;
    }
    if (check)
        sim.checkInvariants();

    if (summary_only) {
        SimJob job{kind, l1, l2, split,
                   check ? std::uint64_t{10'000} : 0, timing_mode};
        std::cout << encodeSummaryLine(0,
                                       summarizeSimulation(sim, job))
                  << "\n";
        return 0;
    }

    if (json) {
        std::cout << toJson(sim) << "\n";
        return 0;
    }

    TextTable t;
    t.row().cell("metric").cell("value");
    t.separator();
    t.row().cell("organization").cell(hierarchyKindName(kind));
    t.row().cell("geometry").cell(
        sizeLabel(l1, l2) + (split ? " split" : " unified"));
    t.row().cell("references").cell(sim.refsProcessed());
    t.row().cell("h1").cell(sim.h1(), 4);
    t.row().cell("h2 (local)").cell(sim.h2(), 4);
    t.row().cell("h1 instr").cell(sim.h1ForType(RefType::Instr), 4);
    t.row().cell("h1 read").cell(sim.h1ForType(RefType::Read), 4);
    t.row().cell("h1 write").cell(sim.h1ForType(RefType::Write), 4);
    t.row().cell("synonym hits").cell(sim.totalCounter("synonym_hits"));
    t.row().cell("synonym moves").cell(
        sim.totalCounter("synonym_moves"));
    t.row().cell("write-back cancels").cell(
        sim.totalCounter("writeback_cancels"));
    t.row().cell("swapped write-backs").cell(
        sim.totalCounter("swapped_writebacks"));
    t.row().cell("inclusion invalidations").cell(
        sim.totalCounter("inclusion_invalidations"));
    t.row().cell("L1 coherence messages").cell(
        sim.totalCounter("l1_coherence_msgs"));
    t.row().cell("bus transactions").cell(sim.bus().transactions());
    t.row().cell("memory writes").cell(
        sim.totalCounter("memory_writes"));
    t.row().cell("write-buffer stalls").cell(
        sim.totalCounter("wb_stalls"));
    t.separator();
    t.row().cell("timing mode").cell(timingModeName(sim.timingMode()));
    t.row().cell("avg access time").cell(sim.measuredAccessTime(), 4);
    if (sim.timingMode() == TimingMode::Cycle) {
        t.row().cell("avg access cycles").cell(sim.avgAccessCycles(), 4);
        t.row().cell("bus utilization").cell(sim.busUtilization(), 4);
        t.row().cell("avg bus wait/ref").cell(sim.avgBusWait(), 4);
        t.row().cell("bus busy ticks").cell(sim.busBusyTime(), 1);
        t.row().cell("bus wait ticks").cell(sim.busWaitTime(), 1);
    }
    if (softErrorsArmed()) {
        t.separator();
        t.row().cell("protection").cell(arrayProtectionName(protect));
        t.row().cell("soft faults tag").cell(
            sim.totalCounter("soft_faults_tag"));
        t.row().cell("soft faults state").cell(
            sim.totalCounter("soft_faults_state"));
        t.row().cell("soft faults ptr").cell(
            sim.totalCounter("soft_faults_ptr"));
        t.row().cell("soft masked").cell(sim.totalCounter("soft_masked"));
        t.row().cell("soft silent").cell(sim.totalCounter("soft_silent"));
        t.row().cell("soft corrected").cell(
            sim.totalCounter("soft_corrected"));
        t.row().cell("soft detected").cell(
            sim.totalCounter("soft_detected"));
        t.row().cell("soft recovered").cell(
            sim.totalCounter("soft_recovered"));
        t.row().cell("soft refetches (L2)").cell(
            sim.totalCounter("soft_refetches_l2"));
        t.row().cell("soft refetches (bus)").cell(
            sim.totalCounter("soft_refetches_bus"));
        t.row().cell("presence scrubs").cell(
            sim.totalCounter("presence_scrubs"));
        t.row().cell("machine checks").cell(
            sim.totalCounter("machine_checks"));
        t.row().cell("bus timeouts").cell(
            sim.bus().stats().value("soft_timeouts"));
        t.row().cell("bus retries").cell(
            sim.bus().stats().value("soft_retries"));
    }
    std::cout << t;

    TimingParams tp;
    std::cout << "\ntwo-term average access time (t2 = 4*t1): "
              << avgAccessTimeTwoTerm(sim.h1(), sim.h2(), tp) << "\n";

    if (per_cpu) {
        TextTable pc;
        bool cycle = sim.timingMode() == TimingMode::Cycle;
        auto &hdr = pc.row()
            .cell("cpu")
            .cell("refs")
            .cell("h1")
            .cell("h2")
            .cell("l1 msgs")
            .cell("writebacks");
        if (cycle)
            hdr.cell("clock").cell("bus wait");
        pc.separator();
        for (CpuId c = 0; c < sim.cpuCount(); ++c) {
            const auto &h = sim.hierarchy(c);
            auto &row = pc.row()
                .cell(c)
                .cell(h.stats().value("refs"))
                .cell(h.h1(), 4)
                .cell(h.h2(), 4)
                .cell(h.stats().value("l1_coherence_msgs"))
                .cell(h.stats().value("writebacks"));
            if (cycle) {
                row.cell(sim.cpuClock(c), 1)
                    .cell(sim.clock(c).busWaitTicks(), 1);
            }
        }
        std::cout << "\n" << pc;
    }
    return 0;
}
