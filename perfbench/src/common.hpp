// Shared pieces of the repository benchmark: argument parsing, timing,
// the span recorder behind the traced run, percentile helpers and the
// result line every workload prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double s_since(Clock::time_point t0) { return ms_since(t0) / 1000.0; }

// CPU time, which unlike wall time does not count the time a shared
// machine's hypervisor or scheduler takes the CPU away.

/// CPU time the calling thread has used, in ms.
double thread_cpu_ms();
/// CPU time the whole process has used, over all threads, in s.
double process_cpu_s();

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /// Scratch directory for journals and the trace file.
    std::string out_dir;
};

// --- Span recorder --------------------------------------------------------
//
// Spans are recorded only in the traced run, from the benchmark's own
// code around calls into the library. Each span carries a name whose
// first dotted component is its layer (`market.select_links` belongs
// to `market`), its start and end, its parent (the span open on the
// same thread when it began) and the run id. Spans stay in per-thread
// buffers until the run ends.

struct SpanRecord {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint32_t thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

class Tracer {
public:
    static Tracer& instance();

    void enable(std::uint64_t run_id);
    std::uint64_t run_id() const noexcept { return run_id_; }

    /// Open a span on the calling thread; returns 0 when tracing is off.
    std::uint64_t begin(const char* name);
    void end(std::uint64_t id);

    /// Mean cost of recording one span on this thread, in ns. Records
    /// and then drops a batch of spans; call before other threads trace.
    double calibrate_span_ns();

    /// Every span recorded so far, in start order. Call after every
    /// recording thread has been joined.
    std::vector<SpanRecord> collect() const;

private:
    bool enabled_ = false;
    std::uint64_t run_id_ = 0;
};

/// RAII span. Costs one branch when tracing is off.
class Span {
public:
    explicit Span(const char* name) : id_(Tracer::instance().begin(name)) {}
    ~Span() {
        if (id_ != 0) Tracer::instance().end(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    std::uint64_t id_;
};

/// Self time per layer (span time minus the time of its child spans),
/// in milliseconds.
std::map<std::string, double> layer_self_ms(const std::vector<SpanRecord>& spans);

/// Write spans as Chrome trace-event JSON (load in chrome://tracing or
/// Perfetto).
void write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans);

// --- Statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest percentile with at least ten of `n` samples beyond it,
/// capped at 95 (deeper percentiles on a shared 4-vCPU machine swung
/// by a fifth between runs); the median when n < 40.
double tail_percentile(std::size_t n);

// --- Result ---------------------------------------------------------------

struct Metric {
    double value = 0.0;
    std::string unit;
};

struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /// Human-readable lines printed before the result line.
    std::vector<std::string> notes;

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = Metric{value, unit};
    }
    /// Record a correctness check; a failed one makes the run report
    /// correct=false and adds `what` to the notes. Returns `ok`.
    bool check(bool ok, const std::string& what);
};

double peak_rss_mb();

/// Print the notes, the machine/build record and the JSON result line
/// (always last).
void emit(const Args& args, const Result& result);

/// Write the trace file and add the per-layer self-time table to the
/// notes. Returns the number of spans.
std::size_t finish_trace(const Args& args, Result& result);

}  // namespace pb
