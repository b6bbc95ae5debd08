// Serving-plane baseline for the always-on market daemon (DESIGN.md
// §8): query throughput and tail latency versus reader threads x
// rollover rate x admission control.
//
// Setup: one journaled 8-epoch run over a moderate random instance,
// with a ServeEngine attached, gives the daemon real epochs to serve.
// Each sweep config then pins `readers` threads on a query mix (price
// quote / path lookup / SLA status, round-robin) against the engine
// while a writer thread replays the run's committed epochs every
// `rollover_period_ms` (0 = no rollovers) under a synthetic,
// monotonically advancing completed-epochs counter (the hub's epoch
// guard rejects anything older, so a rotating counter would publish
// nothing) — the RCU swap the readers must never observe torn.
// Latency is sampled per query; the JSON reports q/s and
// p50/p99/p999/max microseconds, plus the rollover count and swap
// cost.
//
// A second sweep benches the replicated read tier (DESIGN.md §8.6):
// a follower bootstraps from the newest snapshot and tails the
// journal while the leader is still writing, across snapshot interval
// x epoch pacing. Reported per config: catch-up latency (cold start
// to fully caught up), mean/max observed lag in epochs, polls, and
// re-bootstraps (snapshot interval 0 = no snapshots, the follower
// replays the whole journal).
//
// Admission modes per config:
//   off      - metering without rejection (observe-only);
//   generous - admission on, quota far above the storm (0 rejects
//              expected: the control plane costs but never trips);
//   tight    - admission on, per-account quota sized to trip mid-run:
//              the reject fraction demonstrates over-quota accounts
//              being refused with structured errors while other
//              accounts keep being served.
//
// Usage: micro_serve [--smoke] [OUT.json]
//   --smoke: 1 config tier, 100 ms per config — the CI smoke mode.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine.hpp"
#include "serve/follower.hpp"
#include "sim/runtime.hpp"
#include "util/rng.hpp"

using namespace poc;

namespace {

struct Instance {
    net::Graph g;
    net::TrafficMatrix tm;
    std::vector<market::BpBid> bids;
    market::VirtualLinkContract contract;

    market::OfferPool pool() const { return market::OfferPool(bids, contract, g); }
};

/// Random connected multigraph (chain + extras) with every link
/// offered across 4 BPs — same family as micro_delta's instances.
Instance make_instance(std::size_t n, std::size_t demands, std::uint64_t seed) {
    util::Rng rng(seed);
    Instance inst;
    net::GraphBuilder g;
    g.add_nodes(n);
    for (std::size_t b = 0; b < 4; ++b) {
        inst.bids.emplace_back(market::BpId{b}, "BP" + std::to_string(b + 1));
    }
    const auto offer = [&](net::LinkId l) {
        const auto owner = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{4}));
        inst.bids[owner].offer(l, util::Money::from_dollars(rng.uniform(50.0, 500.0)));
    };
    for (std::size_t i = 0; i + 1 < n; ++i) {
        offer(g.add_link(net::NodeId{i}, net::NodeId{i + 1}, rng.uniform(50.0, 400.0),
                         rng.uniform(100.0, 2000.0)));
    }
    for (std::size_t e = 0; e < 2 * n; ++e) {
        const auto a = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto b = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (a == b) b = (b + 1) % n;
        offer(g.add_link(net::NodeId{a}, net::NodeId{b}, rng.uniform(50.0, 400.0),
                         rng.uniform(100.0, 2000.0)));
    }
    inst.g = std::move(g).build();
    for (std::size_t d = 0; d < demands; ++d) {
        const auto s = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto t = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (s == t) t = (t + 1) % n;
        inst.tm.push_back({net::NodeId{s}, net::NodeId{t}, rng.uniform(0.05, 0.3)});
    }
    return inst;
}

struct Row {
    std::size_t readers = 0;
    double rollover_period_ms = 0.0;
    std::string admission;
    double duration_ms = 0.0;
    std::uint64_t queries = 0;
    double qps = 0.0;
    std::uint64_t rejects = 0;
    double reject_fraction = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double p999_us = 0.0;
    double max_us = 0.0;
    std::uint64_t rollovers = 0;
    double mean_swap_ms = 0.0;
    double max_swap_ms = 0.0;
};

double percentile(std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

serve::MeterOptions meter_for(const std::string& admission) {
    serve::MeterOptions meter;
    meter.half_life_epochs = 8.0;
    if (admission == "off") {
        meter.admission_enabled = false;
        meter.quota_units = 1.0;  // irrelevant when disabled
    } else if (admission == "generous") {
        meter.quota_units = 1e12;
    } else {  // tight: trips after ~2000 units of recent usage
        meter.quota_units = 2000.0;
    }
    return meter;
}

Row run_config(const market::OfferPool& pool, const net::TrafficMatrix& tm,
               const sim::RuntimeOptions& ropt, const sim::RuntimeOutcome& out,
               std::size_t readers, double rollover_period_ms, const std::string& admission,
               double duration_ms) {
    Row row;
    row.readers = readers;
    row.rollover_period_ms = rollover_period_ms;
    row.admission = admission;
    row.duration_ms = duration_ms;

    serve::ServeOptions sopt;
    sopt.workers = 1;  // queries run on the bench's reader threads
    sopt.meter = meter_for(admission);
    serve::ServeEngine engine(pool, tm, ropt, sopt);

    // Seed the hub with the run's final epoch, as a live daemon would
    // hold after its last commit.
    const auto commit_at = [&](std::size_t e) {
        return sim::EpochCommit{out.epochs[e].epoch, e + 1, false, out.epochs[e],
                                out.auctions[e], out.ledger};
    };
    engine.publish(commit_at(out.epochs.size() - 1));

    std::atomic<bool> stop{false};
    std::vector<double> swap_ms;
    std::thread writer;
    if (rollover_period_ms > 0.0) {
        writer = std::thread([&] {
            // Replay the run's epochs under a synthetic advancing
            // counter: the hub's monotonic epoch guard would reject a
            // rotating completed_epochs as stale.
            std::size_t e = 0;
            std::size_t seq = out.epochs.size();
            while (!stop.load(std::memory_order_acquire)) {
                ++seq;
                const sim::EpochCommit commit{seq - 1, seq, false, out.epochs[e],
                                              out.auctions[e], out.ledger};
                const auto t0 = std::chrono::steady_clock::now();
                engine.publish(commit);
                swap_ms.push_back(std::chrono::duration<double, std::milli>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count());
                e = (e + 1) % out.epochs.size();
                std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
                    rollover_period_ms));
            }
        });
    }

    const std::size_t node_count = pool.graph().node_count();
    std::vector<std::vector<double>> lat_us(readers);
    std::vector<std::uint64_t> ok_counts(readers, 0);
    std::vector<std::thread> threads;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double, std::milli>(duration_ms);
    for (std::size_t t = 0; t < readers; ++t) {
        threads.emplace_back([&, t] {
            const std::string account = "reader-" + std::to_string(t);
            util::Rng rng(1000 + t);
            std::vector<double>& lat = lat_us[t];
            lat.reserve(1 << 16);
            std::uint64_t i = 0;
            while (std::chrono::steady_clock::now() < deadline) {
                const auto src = net::NodeId{static_cast<std::size_t>(
                    rng.uniform_int(static_cast<std::uint64_t>(node_count)))};
                const auto dst = net::NodeId{static_cast<std::size_t>(
                    rng.uniform_int(static_cast<std::uint64_t>(node_count)))};
                const auto q0 = std::chrono::steady_clock::now();
                serve::ServeError code = serve::ServeError::kOk;
                switch (i % 3) {
                    case 0: code = engine.quote(account, "BP1").code; break;
                    case 1: code = engine.path(account, src, dst).code; break;
                    default: code = engine.sla(account).code; break;
                }
                lat.push_back(std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - q0)
                                  .count());
                if (code != serve::ServeError::kOverQuota &&
                    code != serve::ServeError::kBillingRefused) {
                    ++ok_counts[t];
                }
                ++i;
            }
        });
    }
    for (std::thread& th : threads) th.join();
    stop.store(true, std::memory_order_release);
    if (writer.joinable()) writer.join();

    std::vector<double> all;
    for (const auto& lat : lat_us) all.insert(all.end(), lat.begin(), lat.end());
    std::sort(all.begin(), all.end());
    row.queries = all.size();
    row.qps = duration_ms > 0.0 ? static_cast<double>(all.size()) / (duration_ms / 1000.0)
                                : 0.0;
    row.rejects = engine.meter().rejected();
    row.reject_fraction =
        row.queries > 0 ? static_cast<double>(row.rejects) / static_cast<double>(row.queries)
                        : 0.0;
    row.p50_us = percentile(all, 0.50);
    row.p99_us = percentile(all, 0.99);
    row.p999_us = percentile(all, 0.999);
    row.max_us = all.empty() ? 0.0 : all.back();
    row.rollovers = engine.rollovers();
    for (const double s : swap_ms) {
        row.mean_swap_ms += s;
        row.max_swap_ms = std::max(row.max_swap_ms, s);
    }
    if (!swap_ms.empty()) row.mean_swap_ms /= static_cast<double>(swap_ms.size());
    return row;
}

struct FollowerRow {
    std::size_t snapshot_interval = 0;
    double epoch_period_ms = 0.0;
    std::size_t epochs = 0;
    double writer_ms = 0.0;
    double catchup_ms = 0.0;
    double mean_lag_epochs = 0.0;
    std::uint64_t max_lag_epochs = 0;
    std::uint64_t polls = 0;
    std::uint64_t rebootstraps = 0;
    std::uint64_t records_applied = 0;
};

/// One live-tail config: the leader runs `epochs` epochs (paced at
/// `epoch_period_ms` per epoch via its commit hook; 0 = flat out)
/// while a follower started at the same instant bootstraps and tails
/// to convergence. Lag is sampled after every poll.
FollowerRow run_follower_config(const market::OfferPool& pool, const net::TrafficMatrix& tm,
                                std::size_t epochs, std::size_t snapshot_interval,
                                double epoch_period_ms, const std::filesystem::path& dir) {
    FollowerRow row;
    row.snapshot_interval = snapshot_interval;
    row.epoch_period_ms = epoch_period_ms;
    row.epochs = epochs;

    const auto sub = dir / ("follower-" + std::to_string(snapshot_interval) + "-" +
                            std::to_string(static_cast<int>(epoch_period_ms * 1000)));
    std::filesystem::remove_all(sub);
    std::filesystem::create_directories(sub);

    sim::RuntimeOptions ropt;
    ropt.epochs = epochs;
    ropt.seed = 11;
    ropt.demand_jitter = 0.05;
    ropt.journal_path = (sub / "leader.wal").string();
    ropt.snapshot_interval = snapshot_interval;
    sim::RuntimeOptions leader_opt = ropt;  // the hook stays leader-side
    if (epoch_period_ms > 0.0) {
        leader_opt.on_epoch_commit = [epoch_period_ms](const sim::EpochCommit&) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(epoch_period_ms));
        };
    }

    std::atomic<double> writer_ms{0.0};
    std::thread writer([&] {
        const auto w0 = std::chrono::steady_clock::now();
        sim::EpochRuntime(pool, tm, leader_opt).run();
        writer_ms.store(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - w0)
                            .count());
    });

    serve::FollowerOptions fopt;
    fopt.runtime = ropt;
    serve::Follower follower(pool, tm, fopt);
    std::uint64_t lag_sum = 0;
    std::uint64_t lag_samples = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (follower.applied_epochs() < epochs) {
        const serve::FollowerPoll p = follower.poll();
        const std::uint64_t lag = follower.lag_epochs();
        lag_sum += lag;
        row.max_lag_epochs = std::max(row.max_lag_epochs, lag);
        ++lag_samples;
        if (!p.progressed) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }
    row.catchup_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    writer.join();
    row.writer_ms = writer_ms.load();
    row.mean_lag_epochs =
        lag_samples > 0 ? static_cast<double>(lag_sum) / static_cast<double>(lag_samples)
                        : 0.0;
    const serve::FollowerStats stats = follower.stats();
    row.polls = stats.polls;
    row.rebootstraps = stats.rebootstraps;
    row.records_applied = stats.records_applied;
    return row;
}

void print_follower_row(const FollowerRow& r) {
    std::cout << "follower: snapshot_interval=" << r.snapshot_interval << "  epoch_period="
              << r.epoch_period_ms << "ms  epochs=" << r.epochs << "  catchup="
              << r.catchup_ms << "ms  mean_lag=" << r.mean_lag_epochs << "  max_lag="
              << r.max_lag_epochs << "  polls=" << r.polls << "  rebootstraps="
              << r.rebootstraps << "\n";
}

void print_row(const Row& r) {
    std::cout << "readers=" << r.readers << "  rollover=" << r.rollover_period_ms
              << "ms  admission=" << r.admission << "  qps=" << r.qps
              << "  p50=" << r.p50_us << "us  p99=" << r.p99_us << "us  p999=" << r.p999_us
              << "us  rejects=" << r.rejects << " (" << r.reject_fraction * 100.0
              << "%)  rollovers=" << r.rollovers << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path = "BENCH_serve.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            out_path = argv[i];
        }
    }
    const double duration_ms = smoke ? 100.0 : 500.0;

    const Instance inst = make_instance(smoke ? 20 : 40, smoke ? 60 : 200, 9401);
    const market::OfferPool pool = inst.pool();

    const auto dir = std::filesystem::temp_directory_path() / "poc_micro_serve";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    sim::RuntimeOptions ropt;
    ropt.epochs = 8;
    ropt.seed = 11;
    ropt.demand_jitter = 0.05;
    ropt.journal_path = (dir / "serve.wal").string();
    const sim::RuntimeOutcome out = sim::EpochRuntime(pool, inst.tm, ropt).run();
    if (out.epochs.size() != ropt.epochs) {
        std::cerr << "runtime produced " << out.epochs.size() << " epochs, want "
                  << ropt.epochs << "\n";
        return 1;
    }

    const std::vector<std::size_t> reader_counts =
        smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 4, 8};
    const std::vector<double> rollover_periods =
        smoke ? std::vector<double>{2.0} : std::vector<double>{0.0, 10.0, 2.0};
    const std::vector<std::string> admissions = {"off", "generous", "tight"};

    std::vector<Row> rows;
    for (const std::size_t readers : reader_counts) {
        for (const double period : rollover_periods) {
            for (const std::string& admission : admissions) {
                rows.push_back(run_config(pool, inst.tm, ropt, out, readers, period,
                                          admission, duration_ms));
                print_row(rows.back());
            }
        }
    }
    // Replicated read tier: catch-up and lag across snapshot interval
    // x leader pacing, each against a genuinely live writer.
    const std::vector<std::size_t> snapshot_intervals =
        smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{0, 2, 4};
    const std::vector<double> epoch_periods =
        smoke ? std::vector<double>{1.0} : std::vector<double>{0.0, 2.0};
    const std::size_t follower_epochs = smoke ? 8 : 16;
    std::vector<FollowerRow> follower_rows;
    for (const std::size_t interval : snapshot_intervals) {
        for (const double period : epoch_periods) {
            follower_rows.push_back(run_follower_config(pool, inst.tm, follower_epochs,
                                                        interval, period, dir));
            print_follower_row(follower_rows.back());
        }
    }
    std::filesystem::remove_all(dir);

    // The tight tier must demonstrate admission actually rejecting,
    // and the others must stay reject-free: both are correctness
    // claims, not just timings.
    bool tight_rejected = false;
    bool clean_elsewhere = true;
    for (const Row& r : rows) {
        if (r.admission == "tight" && r.rejects > 0) tight_rejected = true;
        if (r.admission != "tight" && r.rejects > 0) clean_elsewhere = false;
    }
    if (!tight_rejected || !clean_elsewhere) {
        std::cerr << "admission sweep inconsistent: tight_rejected=" << tight_rejected
                  << " clean_elsewhere=" << clean_elsewhere << "\n";
        return 1;
    }

    std::ofstream json(out_path);
    json << "{\n  \"bench\": \"micro_serve\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"epochs_served\": " << out.epochs.size() << ",\n"
         << "  \"note\": \"reader threads on a quote/path/sla query mix against the RCU "
            "epoch hub while a writer republishes epochs every rollover_period_ms (0 = "
            "static); latency sampled per query; admission off = metering only, generous = "
            "quota never trips, tight = per-account quota trips mid-run (rejects are "
            "structured kOverQuota refusals, other accounts unaffected)\",\n"
         << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        json << "    {\"readers\": " << r.readers << ", \"rollover_period_ms\": "
             << r.rollover_period_ms << ", \"admission\": \"" << r.admission
             << "\", \"duration_ms\": " << r.duration_ms << ", \"queries\": " << r.queries
             << ", \"qps\": " << r.qps << ", \"rejects\": " << r.rejects
             << ", \"reject_fraction\": " << r.reject_fraction << ", \"p50_us\": " << r.p50_us
             << ", \"p99_us\": " << r.p99_us << ", \"p999_us\": " << r.p999_us
             << ", \"max_us\": " << r.max_us << ", \"rollovers\": " << r.rollovers
             << ", \"mean_swap_ms\": " << r.mean_swap_ms << ", \"max_swap_ms\": "
             << r.max_swap_ms << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"follower_note\": \"a read-only follower bootstraps from the newest "
            "snapshot and tails the live leader's journal to convergence; catchup_ms is "
            "cold start to fully caught up, lag sampled per poll in epochs "
            "(snapshot_interval 0 = no snapshots: full-journal replay)\",\n"
         << "  \"follower_rows\": [\n";
    for (std::size_t i = 0; i < follower_rows.size(); ++i) {
        const FollowerRow& r = follower_rows[i];
        json << "    {\"snapshot_interval\": " << r.snapshot_interval
             << ", \"epoch_period_ms\": " << r.epoch_period_ms << ", \"epochs\": " << r.epochs
             << ", \"writer_ms\": " << r.writer_ms << ", \"catchup_ms\": " << r.catchup_ms
             << ", \"mean_lag_epochs\": " << r.mean_lag_epochs << ", \"max_lag_epochs\": "
             << r.max_lag_epochs << ", \"polls\": " << r.polls << ", \"rebootstraps\": "
             << r.rebootstraps << ", \"records_applied\": " << r.records_applied << "}"
             << (i + 1 < follower_rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
