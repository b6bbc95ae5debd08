// The benchmark binary: runs one workload and prints its result.
//
//   poc_perfbench --workload <fig2-paper|daemon-steady|flow-continental>
//                 --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// Normally started by perfbench/run.py, which builds it first.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
    std::cerr << "usage: poc_perfbench --workload <fig2-paper|daemon-steady|flow-continental> "
                 "--seed <n> --seconds <s> --trace <0|1> --out <dir>\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    pb::Args args;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            args.workload = val;
        } else if (key == "--seed") {
            args.seed = std::strtoull(val.c_str(), nullptr, 10);
            have_seed = true;
        } else if (key == "--seconds") {
            args.seconds = std::strtod(val.c_str(), nullptr);
        } else if (key == "--trace") {
            args.trace = val == "1";
        } else if (key == "--out") {
            args.out_dir = val;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || !have_seed || args.out_dir.empty() || !(args.seconds > 0.0)) {
        return usage();
    }
    pb::Result (*run)(const pb::Args&) = nullptr;
    if (args.workload == "fig2-paper") run = pb::run_fig2;
    if (args.workload == "daemon-steady") run = pb::run_daemon;
    if (args.workload == "flow-continental") run = pb::run_flow;
    if (run == nullptr) return usage();
    std::filesystem::create_directories(args.out_dir);

    pb::Result result;
    if (args.trace) {
        pb::Tracer& tracer = pb::Tracer::instance();
        tracer.enable(args.seed);
        const double span_ns = tracer.calibrate_span_ns();
        const auto t0 = pb::Clock::now();
        result = run(args);
        const double wall_ms = pb::ms_since(t0);
        const std::size_t spans = pb::finish_trace(args, result);
        // Tracing adds one span record per traced call; its cost is
        // measured, so the overhead is that cost over the traced wall.
        result.set("bench.trace_overhead_pct",
                   100.0 * static_cast<double>(spans) * span_ns / (wall_ms * 1e6), "%");
    } else {
        result = run(args);
    }
    pb::emit(args, result);
    return 0;
}
