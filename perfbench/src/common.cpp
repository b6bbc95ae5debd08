#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#ifndef POC_BENCH_BUILD_TYPE
#define POC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef POC_BENCH_CXX_FLAGS
#define POC_BENCH_CXX_FLAGS "unknown"
#endif

namespace pb {

namespace {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/// One thread's spans plus its stack of open span indices. Buffers are
/// owned by the registry so they outlive the threads that filled them.
struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::size_t> open;
};

struct Registry {
    std::mutex mutex;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    std::atomic<std::uint64_t> next_id{1};
};

Registry& registry() {
    static Registry r;
    return r;
}

ThreadBuffer& thread_buffer() {
    thread_local ThreadBuffer* buf = nullptr;
    if (buf == nullptr) {
        Registry& r = registry();
        const std::lock_guard<std::mutex> lock(r.mutex);
        r.buffers.push_back(std::make_unique<ThreadBuffer>());
        buf = r.buffers.back().get();
        buf->thread = static_cast<std::uint32_t>(r.buffers.size());
    }
    return *buf;
}

std::string layer_of(const std::string& name) {
    const auto dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

Tracer& Tracer::instance() {
    static Tracer t;
    return t;
}

void Tracer::enable(std::uint64_t run_id) {
    enabled_ = true;
    run_id_ = run_id;
}

std::uint64_t Tracer::begin(const char* name) {
    if (!enabled_) return 0;
    ThreadBuffer& buf = thread_buffer();
    SpanRecord rec;
    rec.name = name;
    rec.id = registry().next_id.fetch_add(1, std::memory_order_relaxed);
    rec.parent = buf.open.empty() ? 0 : buf.spans[buf.open.back()].id;
    rec.thread = buf.thread;
    rec.start_ns = now_ns();
    buf.open.push_back(buf.spans.size());
    buf.spans.push_back(std::move(rec));
    return buf.spans.back().id;
}

void Tracer::end(std::uint64_t id) {
    if (id == 0) return;
    ThreadBuffer& buf = thread_buffer();
    if (buf.open.empty() || buf.spans[buf.open.back()].id != id) return;
    buf.spans[buf.open.back()].end_ns = now_ns();
    buf.open.pop_back();
}

double Tracer::calibrate_span_ns() {
    constexpr int kSpans = 20000;
    ThreadBuffer& buf = thread_buffer();
    const std::size_t before = buf.spans.size();
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i) end(begin("bench.calibrate"));
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    buf.spans.resize(before);
    return ns / kSpans;
}

std::vector<SpanRecord> Tracer::collect() const {
    std::vector<SpanRecord> all;
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto& buf : r.buffers) {
        for (const SpanRecord& s : buf->spans) {
            if (s.end_ns != 0) all.push_back(s);
        }
    }
    std::sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
        return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
    });
    return all;
}

std::map<std::string, double> layer_self_ms(const std::vector<SpanRecord>& spans) {
    // Children run on their parent's thread, nested inside it, so a
    // span's self time is its duration minus its children's durations.
    std::unordered_map<std::uint64_t, std::int64_t> child_ns;
    for (const SpanRecord& s : spans) {
        if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> self;
    for (const SpanRecord& s : spans) {
        const auto it = child_ns.find(s.id);
        const std::int64_t ns = (s.end_ns - s.start_ns) - (it == child_ns.end() ? 0 : it->second);
        self[layer_of(s.name)] += static_cast<double>(ns) / 1e6;
    }
    return self;
}

void write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans) {
    std::ofstream out(path);
    if (!out) return;
    const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        out << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
            << json_escape(layer_of(s.name)) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
            << ",\"ts\":" << json_number(static_cast<double>(s.start_ns - origin) / 1e3)
            << ",\"dur\":" << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"run\":" << Tracer::instance().run_id() << "}}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double tail_percentile(std::size_t n) {
    if (n < 40) return 50.0;
    return std::min(95.0, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

bool Result::check(bool ok, const std::string& what) {
    if (!ok) {
        correct = false;
        notes.push_back("CHECK FAILED: " + what);
    }
    return ok;
}

namespace {

double clock_seconds(clockid_t id) {
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double thread_cpu_ms() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID) * 1e3; }

double process_cpu_s() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::size_t finish_trace(const Args& args, Result& result) {
    const std::vector<SpanRecord> spans = Tracer::instance().collect();
    const std::string path =
        args.out_dir + "/trace-" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
    write_chrome_trace(path, spans);
    const auto self = layer_self_ms(spans);
    double total = 0.0;
    for (const auto& [layer, ms] : self) total += ms;
    std::ostringstream table;
    table << "per-layer self time (" << spans.size() << " spans, trace " << path << ")\n";
    table << "  layer       self_ms      share\n";
    for (const auto& [layer, ms] : self) {
        result.set(layer + ".self_ms", ms, "ms");
        table << "  " << std::left << std::setw(10) << layer << std::right << std::setw(10)
              << std::fixed << std::setprecision(2) << ms << std::setw(10)
              << std::setprecision(1) << (total > 0.0 ? 100.0 * ms / total : 0.0) << "%\n";
    }
    result.notes.push_back(table.str());
    return spans.size();
}

void emit(const Args& args, const Result& result) {
    for (const std::string& n : result.notes) std::cout << n << (n.ends_with('\n') ? "" : "\n");
    std::cout << "build: {\"compiler\":\"" << json_escape(__VERSION__) << "\",\"build_type\":\""
              << POC_BENCH_BUILD_TYPE << "\",\"cxx_flags\":\"" << json_escape(POC_BENCH_CXX_FLAGS)
              << "\",\"hardware_threads\":" << std::thread::hardware_concurrency()
              << ",\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
              << ",\"trace\":" << (args.trace ? 1 : 0) << "}\n";
    std::ostringstream line;
    line << "{\"correct\":" << (result.correct ? "true" : "false")
         << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
         << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : result.metrics) {
        line << (first ? "" : ",") << "\"" << json_escape(name) << "\":{\"value\":"
             << json_number(m.value) << ",\"unit\":\"" << json_escape(m.unit) << "\"}";
        first = false;
    }
    line << "}}";
    std::cout << line.str() << std::endl;
}

}  // namespace pb
