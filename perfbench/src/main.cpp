/**
 * Benchmark driver entry point.
 *
 *   perfbench_driver --workload <live-v1|uplink-burst|fleet-failover>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *                    [--trace-out <file.json>]
 *
 * Prints the run record, the per-seed deterministic values and, as
 * the last line, the result object (see perfbench/README.md).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "edgepcc/platform/simd.h"

namespace {

struct WorkloadEntry {
    const char *name;
    perfbench::WorkloadFn run;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"live-v1", perfbench::runLiveV1},
    {"uplink-burst", perfbench::runUplinkBurst},
    {"fleet-failover", perfbench::runFleetFailover},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n",
                 why);
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            options.workload = value;
        else if (key == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            options.trace = value == "1";
        else if (key == "--trace-out")
            options.trace_out = value;
        else
            return usage(("unknown option " + key).c_str());
    }
    if (argc % 2 == 0)
        return usage("options come in pairs");
    if (options.seconds <= 0.0)
        return usage("--seconds must be positive");

    perfbench::WorkloadFn run = nullptr;
    for (const WorkloadEntry &entry : kWorkloads) {
        if (options.workload == entry.name)
            run = entry.run;
    }
    if (run == nullptr)
        return usage(("unknown workload '" + options.workload + "'")
                         .c_str());

    perfbench::Report report;
    report.record("workload", options.workload);
    report.record("seed", std::to_string(options.seed));
    report.record("seconds", std::to_string(options.seconds));
    report.record("trace", options.trace ? "1" : "0");
    report.record("nproc",
                  std::to_string(std::thread::hardware_concurrency()));
    report.record("simd", edgepcc::simdLevelName(
                              edgepcc::activeSimdLevel()));
    report.record("build_type", PERFBENCH_BUILD_TYPE);

    perfbench::SpanLog spans;
    run(options, report, options.trace ? &spans : nullptr);

    if (options.trace && !options.trace_out.empty() &&
        !spans.writeChromeTrace(options.trace_out))
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     options.trace_out.c_str());
    report.print();
    return 0;
}
