// Workload daemon-steady: the market daemon in steady leasing periods.
//
// One writer thread runs durable epochs back to back through
// sim::EpochRuntime on the reduced Fig. 2 instance (constraint #2,
// kFast oracle, kPrimary flow routing, demand jitter 0), with a
// serve::ServeEngine attached. Two closed-loop reader threads query
// the daemon while the epochs run. Afterwards the journal is restarted
// from scratch and tailed by a fresh follower. Every reply and every
// epoch is checked against the live run's own outcome.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "serve/follower.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

// Snapshot every kInterval epochs; the epoch count is kInterval * k +
// kInterval / 2 so that the restart replays a journal suffix.
constexpr std::size_t kInterval = 16;
constexpr std::size_t kEpochs = kInterval * 25 + kInterval / 2;
constexpr std::size_t kAccounts = 64;

enum QueryClass : std::size_t { kQuote = 0, kPath = 1, kSla = 2, kHistory = 3, kClasses = 4 };
constexpr const char* kClassName[kClasses] = {"quote", "path", "sla", "history"};
constexpr double kUnits[kClasses] = {1.0, 2.0, 1.0, 8.0};  // serve::ServeOptions defaults
// Per reader and lifetime, a uniform sample of this many query latencies
// and replies of each class (and of all queries together) is kept for
// the report and the checks. Every class fills its sample in every
// lifetime, so memory does not follow the query rate.
constexpr std::size_t kSamples = 256;
constexpr std::uint64_t kBatch = 1024;  // queries per traced span

struct QuoteSample {
    std::size_t epoch;
    std::size_t bp;
    util::Money payment;
    util::Money bid_cost;
};
struct PathSample {
    std::size_t epoch;
    net::NodeId src;
    net::NodeId dst;
    std::vector<net::LinkId> links;
    double length_km;
};
struct SlaSample {
    std::size_t epoch;
    double delivered;
};
struct HistorySample {
    std::uint64_t target;
    std::size_t completed;
    sim::EpochRecord record;
};

/// Reservoir sampling: a uniform sample of at most `cap` items of a
/// stream of unknown length.
template <typename T>
struct Reservoir {
    std::size_t cap = 0;
    std::uint64_t seen = 0;
    std::vector<T> items;

    /// The slot the next stream item goes to, or nullptr to drop it.
    T* slot(util::Rng& rng) {
        ++seen;
        if (items.size() < cap) return &items.emplace_back();
        const std::uint64_t j = rng.uniform_int(seen);
        return j < cap ? &items[j] : nullptr;
    }
};

struct Reader {
    std::uint64_t count[kClasses] = {};
    std::uint64_t admitted[kClasses] = {};
    std::uint64_t failed[kClasses] = {};
    Reservoir<float> latency_us[kClasses] = {
        {kSamples, 0, {}}, {kSamples, 0, {}}, {kSamples, 0, {}}, {kSamples, 0, {}}};
    Reservoir<float> all_latency_us{4 * kSamples, 0, {}};
    Reservoir<QuoteSample> quotes{kSamples, 0, {}};
    Reservoir<PathSample> paths{kSamples, 0, {}};
    Reservoir<SlaSample> slas{kSamples, 0, {}};
    Reservoir<HistorySample> history{kSamples, 0, {}};
    double active_s = 0.0;
};

struct StageTimes {
    std::vector<double> compute_ms[6];  // kBefore -> kMid, by stage
    std::vector<double> append_ms[4];   // kMid -> kAfter, pipeline stages
    std::vector<double> whole_ms[6];    // kBefore -> kAfter
};

sim::RuntimeOptions runtime_options(const std::string& dir, std::uint64_t seed) {
    sim::RuntimeOptions opt;
    opt.epochs = kEpochs;
    opt.request.constraint = market::ConstraintKind::kSingleFailure;
    opt.request.oracle.fidelity = market::OracleFidelity::kFast;
    opt.demand_jitter = 0.0;
    opt.seed = seed;
    opt.journal_path = dir + "/market.wal";
    opt.flow_routing = core::FlowRouting::kPrimary;
    opt.snapshot_interval = kInterval;
    // Keep every snapshot generation so that each snapshot epoch stays
    // provable for point-in-time queries for the whole run.
    opt.snapshot_keep = kEpochs / kInterval + 2;
    opt.compact_after_snapshot = true;
    // Journal fsync is off: on a shared virtual disk it made the steady
    // phase of a run vary by 50% from run to run (10-15 s against 3 s
    // without). Snapshots are still written with fsync by the library.
    opt.fsync_journal = false;
    return opt;
}

std::string auction_bytes(market::AuctionResult r, bool scrub) {
    if (scrub) {
        r.oracle_queries = 0;
        r.oracle_cache_hits = 0;
        r.solve_cache_hits = 0;
    }
    util::BinaryWriter w;
    market::write_auction_result(w, r);
    return w.bytes();
}

/// Per-epoch ledger conservation: the transfers each epoch appended
/// sum to its payments, contracts and cost recovery; the POC nets zero.
std::string check_ledger(const core::Ledger& ledger, const std::vector<std::size_t>& end_size,
                         const std::vector<std::optional<market::AuctionResult>>& auctions) {
    if (end_size.size() != auctions.size()) return "one ledger mark per epoch expected";
    const auto& t = ledger.transfers();
    if (end_size.empty() || end_size.back() != t.size()) return "ledger has unaccounted transfers";
    std::size_t begin = 0;
    for (std::size_t e = 0; e < auctions.size(); ++e) {
        if (end_size[e] < begin || end_size[e] > t.size()) return "ledger shrank";
        util::Money lease, isp, access;
        for (std::size_t i = begin; i < end_size[e]; ++i) {
            if (t[i].kind == core::TransferKind::kLinkLease) lease += t[i].amount;
            if (t[i].kind == core::TransferKind::kIspContract) isp += t[i].amount;
            if (t[i].kind == core::TransferKind::kPocAccess) access += t[i].amount;
        }
        util::Money paid;
        if (auctions[e]) {
            for (const auto& o : auctions[e]->outcomes) paid += o.payment;
        }
        const std::string at = "epoch " + std::to_string(e) + ": ";
        if (lease != paid) return at + "lease transfers do not sum to the payments";
        if (auctions[e] && isp != auctions[e]->virtual_cost) return at + "ISP contracts differ";
        if (auctions[e] && access != auctions[e]->total_outlay) return at + "cost recovery differs";
        begin = end_size[e];
    }
    util::Money poc;
    const core::Party p{core::PartyKind::kPoc, 0};
    for (const auto& tr : t) {
        if (tr.to == p) poc += tr.amount;
        if (tr.from == p) poc -= tr.amount;
    }
    if (!poc.is_zero()) return "the POC's net balance is not zero";
    return {};
}

std::uint64_t file_size(const std::string& path) {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

std::uint64_t newest_snapshot_bytes(const std::string& dir) {
    std::string newest;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.find(".snap-") != std::string::npos && !name.ends_with(".tmp") &&
            name > newest) {
            newest = name;
        }
    }
    return newest.empty() ? 0 : file_size(dir + "/" + newest);
}

/// Figures gathered over every daemon lifetime of a run.
struct Totals {
    std::vector<double> setup_s;
    std::vector<double> first_epoch_ms;
    std::vector<double> epoch_ms;     // commit to commit
    std::vector<double> pipeline_cpu_ms;  // writer CPU, clearing through publish
    std::vector<double> publish_ms;
    std::vector<double> restart_ms;
    std::vector<double> replay_ms;
    std::vector<double> catchup_ms;
    std::vector<double> bootstrap_ms;
    StageTimes stages;
    std::vector<float> latency_us[kClasses];
    std::vector<float> all_latency_us;
    std::uint64_t queries = 0;
    std::uint64_t admitted[kClasses] = {};
    std::vector<double> steady_s;    // per lifetime, first commit to last
    std::vector<double> writer_cpu_s;  // per lifetime, writer CPU first commit to last
    double reader_s = 0.0;
    double warm_queries = 0.0;
    double warm_oracle_hits = 0.0;
    double warm_solve_hits = 0.0;
    std::size_t warm_epochs = 0;
    std::uint64_t journal_bytes = 0;
    std::uint64_t snapshot_bytes = 0;
    std::size_t snapshots_written = 0;
    std::size_t compactions = 0;
    std::size_t replayed_records = 0;
    serve::FollowerStats follower;
};

/// One daemon lifetime: set-up and the first cold epoch, kEpochs
/// durable epochs under two closed-loop readers, a restart over the
/// finished journal and a follower catching up to it; then every check.
void daemon_round(const Args& args, std::size_t round, const std::string& cold_auction,
                  std::unique_ptr<MarketInstance>& inst, Totals& tot, Result& res) {
    const std::string dir = args.out_dir + "/daemon/round-" + std::to_string(round);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Tracer& tracer = Tracer::instance();

    const auto t_setup = Clock::now();
    inst = build_market(MarketScale::reduced(), 42, 7);
    const market::OfferPool& pool = *inst->pool;
    const net::Graph& g = pool.graph();
    sim::RuntimeOptions opt = runtime_options(dir, args.seed);
    serve::ServeOptions sopt;
    sopt.workers = 1;  // queries run on the reader threads, not the engine's pool
    sopt.meter.quota_units = 1e15;
    serve::ServeEngine engine(pool, inst->tm, opt, sopt);

    // Writer-side bookkeeping, touched only on the writer thread.
    std::vector<double> commit_end;  // seconds since t_setup, after publish
    std::vector<std::size_t> ledger_end;
    double stage_t[6][3] = {};
    std::uint64_t stage_span[6] = {};
    double pipeline_cpu0 = 0.0;  // writer CPU ms when the epoch's clearing began
    double writer_cpu_first = 0.0;
    double writer_cpu_last = 0.0;
    std::atomic<bool> serving{false};
    std::atomic<bool> stop{false};

    opt.on_epoch_commit = [&](const sim::EpochCommit& c) {
        const auto tp = Clock::now();
        {
            const Span span("serve.publish");
            engine.publish(c);
        }
        const auto now = Clock::now();
        writer_cpu_last = thread_cpu_ms();
        if (c.epoch > 0) {
            tot.publish_ms.push_back(std::chrono::duration<double, std::milli>(now - tp).count());
            tot.pipeline_cpu_ms.push_back(writer_cpu_last - pipeline_cpu0);
        } else {
            writer_cpu_first = writer_cpu_last;
        }
        commit_end.push_back(std::chrono::duration<double>(now - t_setup).count());
        ledger_end.push_back(c.ledger.transfers().size());
        if (c.epoch == 0) {
            serving.store(true, std::memory_order_release);
            serving.notify_all();
        }
    };
    const auto t_first = Clock::now();
    opt.stage_hook = [&](std::size_t epoch, sim::Stage stage, sim::HookPoint point) {
        static constexpr const char* kCompute[6] = {"market.clear_epoch", "sim.provisioning",
                                                    "core.flow",          "core.settlement",
                                                    "sim.snapshot",       "sim.compaction"};
        const auto s = static_cast<std::size_t>(stage);
        stage_t[s][static_cast<std::size_t>(point)] =
            std::chrono::duration<double, std::milli>(Clock::now() - t_first).count();
        const bool steady = epoch > 0 || s >= 4;
        if (stage == sim::Stage::kAuction && point == sim::HookPoint::kBefore) {
            pipeline_cpu0 = thread_cpu_ms();
        }
        if (point == sim::HookPoint::kBefore) {
            stage_span[s] = tracer.begin(kCompute[s]);
        } else if (point == sim::HookPoint::kMid) {
            if (s < 4) {
                tracer.end(stage_span[s]);
                stage_span[s] = tracer.begin("util.journal_append");
            }
            if (steady) tot.stages.compute_ms[s].push_back(stage_t[s][1] - stage_t[s][0]);
        } else {
            tracer.end(stage_span[s]);
            if (steady) {
                if (s < 4) tot.stages.append_ms[s].push_back(stage_t[s][2] - stage_t[s][1]);
                tot.stages.whole_ms[s].push_back(stage_t[s][2] - stage_t[s][0]);
            }
        }
    };

    // --- Readers ---------------------------------------------------------------
    std::vector<std::string> accounts;
    for (std::size_t a = 0; a < kAccounts; ++a) accounts.push_back("acct-" + std::to_string(a));
    std::vector<std::string> bp_names;
    for (const auto& bid : pool.bids()) bp_names.push_back(bid.name());
    const net::TrafficMatrix& tm = inst->tm;

    Reader readers[2];
    auto reader_main = [&](std::size_t id) {
        Reader& rd = readers[id];
        util::Rng rng((args.seed * 1000003ULL + round) * 4 + id + 1);
        util::Rng sampler(rng.next());  // sampling draws leave the query stream alone
        serving.wait(false, std::memory_order_acquire);
        if (stop.load(std::memory_order_relaxed)) return;
        const auto t0 = Clock::now();
        std::uint64_t n = 0;
        std::uint64_t batch_span = 0;
        const auto lap = [](Clock::time_point tq) {
            return static_cast<float>(std::chrono::duration<double, std::micro>(Clock::now() - tq).count());
        };
        while (!stop.load(std::memory_order_relaxed)) {
            if (n++ % kBatch == 0) {
                tracer.end(batch_span);
                batch_span = tracer.begin("serve.queries");
            }
            const std::string& account = accounts[rng.uniform_int(kAccounts)];
            const std::uint64_t roll = rng.uniform_int(std::uint64_t{100});
            std::size_t cls = roll < 45 ? kQuote : roll < 90 ? kPath : roll < 99 ? kSla : kHistory;
            std::uint64_t target = 0;
            if (cls == kHistory) {
                // The previous snapshot boundary: its snapshot is on disk
                // whatever the writer is doing now.
                const std::size_t done = engine.current()->completed_epochs;
                if (done >= 2 * kInterval) {
                    target = (done / kInterval - 1) * kInterval;
                } else {
                    cls = kSla;
                }
            }
            ++rd.count[cls];
            bool ok = false;
            float us = 0.0F;
            const auto tq = Clock::now();
            switch (cls) {
                case kQuote: {
                    const std::size_t bp = rng.uniform_int(bp_names.size());
                    const auto r = engine.quote(account, bp_names[bp]);
                    us = lap(tq);
                    ok = r.code == serve::ServeError::kOk;
                    if (QuoteSample* q = ok ? rd.quotes.slot(sampler) : nullptr) {
                        *q = {r.epoch, bp, r.quote.payment, r.quote.bid_cost};
                    }
                    break;
                }
                case kPath: {
                    const net::Demand& d = tm[rng.uniform_int(tm.size())];
                    const auto r = engine.path(account, d.src, d.dst);
                    us = lap(tq);
                    ok = r.code == serve::ServeError::kOk;
                    if (PathSample* p = ok ? rd.paths.slot(sampler) : nullptr) {
                        *p = {r.epoch, d.src, d.dst, r.links, r.length_km};
                    }
                    break;
                }
                case kSla: {
                    const auto r = engine.sla(account);
                    us = lap(tq);
                    ok = r.code == serve::ServeError::kOk;
                    if (SlaSample* q = ok ? rd.slas.slot(sampler) : nullptr) {
                        *q = {r.epoch, r.delivered_fraction};
                    }
                    break;
                }
                default: {
                    const auto r = engine.at_epoch(account, target);
                    us = lap(tq);
                    ok = r.code == serve::ServeError::kOk;
                    if (HistorySample* h = ok ? rd.history.slot(sampler) : nullptr) {
                        *h = {target, r.view->completed_epochs, r.view->record};
                    }
                    break;
                }
            }
            if (float* l = rd.latency_us[cls].slot(sampler)) *l = us;
            if (float* l = rd.all_latency_us.slot(sampler)) *l = us;
            (ok ? rd.admitted : rd.failed)[cls] += 1;
        }
        tracer.end(batch_span);
        rd.active_s = s_since(t0);
    };
    std::thread r0(reader_main, 0);
    std::thread r1(reader_main, 1);

    // Wakes readers still waiting for the first publish, stops and joins them.
    const auto halt_readers = [&] {
        stop.store(true);
        serving.store(true, std::memory_order_release);
        serving.notify_all();
        r0.join();
        r1.join();
    };
    sim::RuntimeOutcome live;
    try {
        const Span span("sim.run");
        live = sim::EpochRuntime(pool, tm, opt).run();
    } catch (...) {
        halt_readers();
        throw;
    }
    halt_readers();

    // --- Restart and replica catch-up ------------------------------------------
    sim::RuntimeOptions plain = opt;
    plain.on_epoch_commit = {};
    plain.stage_hook = {};
    tot.journal_bytes = file_size(opt.journal_path);
    tot.snapshot_bytes = newest_snapshot_bytes(dir);
    auto t0 = Clock::now();
    sim::RuntimeOutcome restarted;
    {
        const Span span("sim.restart");
        restarted = sim::EpochRuntime(pool, tm, plain).run();
    }
    tot.restart_ms.push_back(ms_since(t0));
    tot.replay_ms.push_back(restarted.replay_ms);
    tot.replayed_records = restarted.replayed_records;

    serve::FollowerOptions fopt;
    fopt.runtime = plain;
    std::shared_ptr<const serve::EpochView> replica;
    t0 = Clock::now();
    {
        const Span span("serve.follower");
        serve::Follower follower(pool, tm, fopt);
        follower.poll();
        tot.bootstrap_ms.push_back(ms_since(t0));
        follower.tail_until(kEpochs);
        replica = follower.current();
        const serve::FollowerStats& fs = follower.stats();
        tot.follower.polls += fs.polls;
        tot.follower.records_applied += fs.records_applied;
        tot.follower.rebootstraps += fs.rebootstraps;
    }
    tot.catchup_ms.push_back(ms_since(t0));

    // --- Tallies -----------------------------------------------------------------
    tot.setup_s.push_back(commit_end.empty() ? 0.0 : commit_end.front());
    tot.first_epoch_ms.push_back(
        commit_end.empty()
            ? 0.0
            : commit_end.front() * 1e3 -
                  std::chrono::duration<double, std::milli>(t_first - t_setup).count());
    for (std::size_t e = 1; e < commit_end.size(); ++e) {
        tot.epoch_ms.push_back((commit_end[e] - commit_end[e - 1]) * 1e3);
    }
    if (!commit_end.empty()) tot.steady_s.push_back(commit_end.back() - commit_end.front());
    tot.writer_cpu_s.push_back((writer_cpu_last - writer_cpu_first) / 1e3);
    std::uint64_t admitted[kClasses] = {};
    for (const Reader& rd : readers) {
        for (std::size_t c = 0; c < kClasses; ++c) {
            tot.queries += rd.count[c];
            admitted[c] += rd.admitted[c];
            tot.admitted[c] += rd.admitted[c];
            res.failed += rd.failed[c];
            tot.latency_us[c].insert(tot.latency_us[c].end(), rd.latency_us[c].items.begin(),
                                     rd.latency_us[c].items.end());
            res.attempted += rd.count[c];
        }
        tot.all_latency_us.insert(tot.all_latency_us.end(), rd.all_latency_us.items.begin(),
                                  rd.all_latency_us.items.end());
    }
    tot.reader_s += std::max(readers[0].active_s, readers[1].active_s);
    res.attempted += kEpochs + 2;  // epochs, restart, catch-up
    if (live.epochs.size() != kEpochs) ++res.failed;
    if (!replica || replica->completed_epochs != kEpochs) ++res.failed;
    for (std::size_t e = 1; e < live.auctions.size(); ++e) {
        if (!live.auctions[e]) continue;
        tot.warm_queries += static_cast<double>(live.auctions[e]->oracle_queries);
        tot.warm_oracle_hits += static_cast<double>(live.auctions[e]->oracle_cache_hits);
        tot.warm_solve_hits += static_cast<double>(live.auctions[e]->solve_cache_hits);
        ++tot.warm_epochs;
    }
    tot.snapshots_written += live.snapshots_written;
    tot.compactions += live.compactions;

    // --- Checks ------------------------------------------------------------------
    const std::string tag = "daemon round " + std::to_string(round) + ": ";
    {
        const std::string why = check_ledger(live.ledger, ledger_end, live.auctions);
        res.check(why.empty(), tag + why);
        // Self-test: a dropped transfer must be caught.
        const auto& t = live.ledger.transfers();
        const std::size_t drop = t.size() / 2;
        core::Ledger dropped;
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (i != drop) dropped.record(t[i].from, t[i].to, t[i].kind, t[i].amount, t[i].memo);
        }
        std::vector<std::size_t> dropped_end = ledger_end;
        for (std::size_t& e : dropped_end) {
            if (e > drop) --e;
        }
        res.check(!check_ledger(dropped, dropped_end, live.auctions).empty(),
                  tag + "self-test: a dropped ledger transfer passed the ledger check");
    }
    {
        bool same = !cold_auction.empty();
        for (std::size_t e = 0; e < live.auctions.size() && same; ++e) {
            same = live.auctions[e] && auction_bytes(*live.auctions[e], true) == cold_auction;
        }
        res.check(same, tag + "an epoch's auction differs from a cold uncached clearing");
    }
    {
        std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> dist;  // (epoch, src)
        std::size_t bad = 0;
        std::size_t checked = 0;
        for (const Reader& rd : readers) {
            for (const QuoteSample& q : rd.quotes.items) {
                ++checked;
                const auto& a = live.auctions.at(q.epoch);
                if (!a || a->outcomes.at(q.bp).payment != q.payment ||
                    a->outcomes.at(q.bp).bid_cost != q.bid_cost) {
                    ++bad;
                }
            }
            for (const PathSample& p : rd.paths.items) {
                ++checked;
                const auto& a = live.auctions.at(p.epoch);
                if (!a) {
                    ++bad;
                    continue;
                }
                std::vector<char> on(g.link_count(), 0);
                for (const net::LinkId l : a->selection.links) on[l.index()] = 1;
                auto& d = dist[{p.epoch, p.src.index()}];
                if (d.empty()) d = dijkstra_km(g, on, p.src);
                const double want = d[p.dst.index()];
                if (!is_shortest_path(g, on, p.src, p.dst, p.links, want) ||
                    !close(p.length_km, want, 1e-9)) {
                    ++bad;
                }
            }
            for (const SlaSample& s : rd.slas.items) {
                ++checked;
                if (live.epochs.at(s.epoch).delivered_fraction != s.delivered) ++bad;
            }
            for (const HistorySample& h : rd.history.items) {
                ++checked;
                if (h.completed != h.target || !(live.epochs.at(h.target - 1) == h.record)) ++bad;
            }
        }
        res.check(bad == 0, tag + std::to_string(bad) + " of " + std::to_string(checked) +
                                " sampled replies disagree with the epoch they name");
        res.check(checked > 0, tag + "no replies were sampled");
    }
    {
        std::int64_t units = 0;
        for (std::size_t c = 0; c < kClasses; ++c) {
            units += static_cast<std::int64_t>(kUnits[c]) * static_cast<std::int64_t>(admitted[c]);
        }
        const util::Money want =
            util::Money::from_micros(sopt.meter.price_per_unit.micros() * units);
        res.check(engine.meter().total_billed() == want,
                  tag + "billed total is not unit price x admitted units");
    }
    {
        bool same = restarted.epochs == live.epochs && restarted.final_rng == live.final_rng &&
                    restarted.ledger.transfers() == live.ledger.transfers() &&
                    restarted.auctions.size() == live.auctions.size();
        for (std::size_t e = 0; same && e < live.auctions.size(); ++e) {
            same = live.auctions[e].has_value() == restarted.auctions[e].has_value() &&
                   (!live.auctions[e] || auction_bytes(*live.auctions[e], false) ==
                                             auction_bytes(*restarted.auctions[e], false));
        }
        res.check(same, tag + "the restart outcome differs from the live run");
    }
    if (replica) {
        const std::string leader = serve::encode_epoch_view(*engine.current());
        const std::string follower = serve::encode_epoch_view(*replica);
        res.check(leader == follower, tag + "the follower's final view differs from the leader's");
        std::string flipped = follower;
        flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
        res.check(leader != flipped, tag + "self-test: a flipped view byte passed the replica check");
    }
    std::filesystem::remove_all(dir);
}

}  // namespace

Result run_daemon(const Args& args) {
    Result res;
    // One lifetime per second of run: each writes ~5.7 MB of snapshots
    // with 25 fsyncs, and more disk traffic made the runs less steady.
    const std::size_t rounds = std::max<std::size_t>(4, static_cast<std::size_t>(args.seconds));

    // The reference: a cold, uncached clearing of the same pool and
    // matrix, which every epoch's auction must equal.
    std::string cold_auction;
    {
        const auto ref = build_market(MarketScale::reduced(), 42, 7);
        const sim::RuntimeOptions opt = runtime_options(args.out_dir, args.seed);
        const market::AcceptabilityOracle oracle(ref->pool->graph(), ref->tm,
                                                 opt.request.constraint, opt.request.oracle);
        if (const auto cold = market::run_auction(*ref->pool, oracle)) {
            cold_auction = auction_bytes(*cold, true);
        }
    }

    Totals tot;
    std::unique_ptr<MarketInstance> inst;
    for (std::size_t r = 0; r < rounds; ++r) daemon_round(args, r, cold_auction, inst, tot, res);

    // The unit operation is a durable epoch's pipeline, clearing through
    // journal appends to publish, in writer CPU time; the job is the
    // writer's CPU time over one lifetime's steady epochs, snapshot and
    // compaction work included (median over lifetimes). Wall-clock epoch
    // figures are reported per layer: the fsyncs of the snapshots made
    // them swing 3x between runs on a shared virtual disk (p99 epoch 5 ms
    // in one run, 17 ms in the next).
    const double tail_p = tail_percentile(tot.pipeline_cpu_ms.size());
    const double epoch_tail_p = tail_percentile(tot.epoch_ms.size());
    res.set("setup_s", median(tot.setup_s), "s");
    res.set("job_cpu_s", median(tot.writer_cpu_s), "s");
    res.set("op_ms", median(tot.pipeline_cpu_ms), "ms");
    res.set("op_tail_ms", quantile(tot.pipeline_cpu_ms, tail_p / 100.0), "ms");
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    const double qps = static_cast<double>(tot.queries) / tot.reader_s;
    res.notes.push_back("daemon-steady: " + std::to_string(rounds) + " lifetimes x " +
                        std::to_string(kEpochs) + " epochs, " + std::to_string(tot.queries) +
                        " queries (" + std::to_string(qps) + " q/s); pipeline tail p" +
                        std::to_string(tail_p) + "; epoch median " +
                        std::to_string(median(tot.epoch_ms)) + " ms, epoch tail " +
                        std::to_string(quantile(tot.epoch_ms, epoch_tail_p / 100.0)) + " ms");
    if (!args.trace) return res;

    const MarketInstance& last = *inst;
    res.set("sim.epoch_ms", median(tot.epoch_ms), "ms");
    res.set("sim.epoch_tail_ms", quantile(tot.epoch_ms, epoch_tail_p / 100.0), "ms");
    res.set("bench.job_wall_s", median(tot.steady_s), "s");
    res.set("sim.first_epoch_ms", median(tot.first_epoch_ms), "ms");
    res.set("topo.bp_networks_ms", last.bp_networks_ms, "ms");
    res.set("topo.poc_topology_ms", last.poc_topology_ms, "ms");
    res.set("topo.gravity_ms", last.gravity_ms, "ms");
    res.set("market.pool_ms", last.pool_ms, "ms");
    const double warm = static_cast<double>(std::max<std::size_t>(1, tot.warm_epochs));
    res.set("market.warm.oracle_queries", tot.warm_queries / warm, "count");
    res.set("market.warm.oracle_cache_hits", tot.warm_oracle_hits / warm, "count");
    res.set("market.warm.solve_cache_hits", tot.warm_solve_hits / warm, "count");
    res.set("sim.auction_ms", median(tot.stages.compute_ms[0]), "ms");
    res.set("sim.provisioning_ms", median(tot.stages.compute_ms[1]), "ms");
    res.set("core.flow_ms", median(tot.stages.compute_ms[2]), "ms");
    res.set("core.settlement_ms", median(tot.stages.compute_ms[3]), "ms");
    std::vector<double> append;
    for (std::size_t i = 0; i < tot.stages.append_ms[0].size(); ++i) {
        double sum = 0.0;
        for (std::size_t s = 0; s < 4; ++s) {
            if (i < tot.stages.append_ms[s].size()) sum += tot.stages.append_ms[s][i];
        }
        append.push_back(sum);
    }
    res.set("util.journal_append_ms", median(append), "ms");
    res.set("sim.snapshot_ms", median(tot.stages.whole_ms[4]), "ms");
    res.set("sim.compaction_ms", median(tot.stages.whole_ms[5]), "ms");
    res.set("serve.publish_ms", median(tot.publish_ms), "ms");
    for (std::size_t c = 0; c < kClasses; ++c) {
        const std::vector<double> lat(tot.latency_us[c].begin(), tot.latency_us[c].end());
        res.set(std::string("serve.") + kClassName[c] + "_p50_us", median(lat), "us");
        res.set(std::string("serve.") + kClassName[c] + "_p99_us", quantile(lat, 0.99), "us");
    }
    const std::vector<double> all(tot.all_latency_us.begin(), tot.all_latency_us.end());
    double admitted = 0.0;
    for (const std::uint64_t a : tot.admitted) admitted += static_cast<double>(a);
    res.set("serve.meter.admitted", admitted, "count");
    res.set("serve.qps", qps, "1/s");
    res.set("serve.p50_us", median(all), "us");
    res.set("serve.p99_us", quantile(all, 0.99), "us");
    res.set("util.journal_bytes", static_cast<double>(tot.journal_bytes), "bytes");
    res.set("util.snapshot_bytes", static_cast<double>(tot.snapshot_bytes), "bytes");
    res.set("sim.snapshots_written", static_cast<double>(tot.snapshots_written), "count");
    res.set("sim.compactions", static_cast<double>(tot.compactions), "count");
    res.set("sim.restart_ms", median(tot.restart_ms), "ms");
    res.set("sim.replay_ms", median(tot.replay_ms), "ms");
    res.set("sim.replayed_records", static_cast<double>(tot.replayed_records), "count");
    res.set("serve.follower.catchup_ms", median(tot.catchup_ms), "ms");
    res.set("serve.follower.bootstrap_ms", median(tot.bootstrap_ms), "ms");
    res.set("serve.follower.polls", static_cast<double>(tot.follower.polls), "count");
    res.set("serve.follower.records_applied", static_cast<double>(tot.follower.records_applied),
            "count");
    res.set("serve.follower.rebootstraps", static_cast<double>(tot.follower.rebootstraps), "count");
    return res;
}

}  // namespace pb
