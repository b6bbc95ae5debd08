#include "sim/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <utility>

#include "core/flow_sim.hpp"
#include "market/delta_reclear.hpp"
#include "obs/trace.hpp"
#include "sim/replay.hpp"
#include "util/fault_injection.hpp"
#include "util/journal.hpp"

namespace poc::sim {

const char* stage_name(Stage stage) {
    switch (stage) {
        case Stage::kAuction: return "auction";
        case Stage::kProvisioning: return "provisioning";
        case Stage::kFlowSim: return "flow-sim";
        case Stage::kSettlement: return "settlement";
        case Stage::kSnapshotWrite: return "snapshot";
        case Stage::kCompaction: return "compaction";
    }
    return "?";
}

CrashInjected::CrashInjected(std::size_t epoch, Stage stage, HookPoint point)
    : std::runtime_error("crash injected at epoch " + std::to_string(epoch) + ", stage " +
                         stage_name(stage)),
      epoch_(epoch),
      stage_(stage),
      point_(point) {}

namespace {

/// Version tag leading every snapshot payload (on-disk format).
constexpr std::uint64_t kStateVersion = 1;

/// Restores the fallible oracle's deadline pointer on every exit path
/// of a clearing attempt (including TransientError unwinds), so a
/// dead Deadline is never left dangling into the next attempt.
class DeadlineScope {
public:
    DeadlineScope(market::FallibleOracle& oracle, const util::Deadline& deadline) noexcept
        : oracle_(oracle) {
        oracle_.set_deadline(&deadline);
    }
    ~DeadlineScope() { oracle_.set_deadline(nullptr); }
    DeadlineScope(const DeadlineScope&) = delete;
    DeadlineScope& operator=(const DeadlineScope&) = delete;

private:
    market::FallibleOracle& oracle_;
};

}  // namespace

std::string encode_runtime_state(const RuntimeState& state) {
    POC_EXPECTS(state.epochs.size() == state.auctions.size());
    util::BinaryWriter w;
    w.u64(kStateVersion);
    w.u64(state.epochs.size());
    for (const EpochRecord& rec : state.epochs) write_epoch_record(w, rec);
    for (const std::optional<market::AuctionResult>& a : state.auctions) {
        w.boolean(a.has_value());
        if (a) market::write_auction_result(w, *a);
    }
    state.ledger.serialize(w);
    write_rng_state(w, state.rng);
    w.u64(state.breaker_open_epochs);
    return w.bytes();
}

RuntimeState decode_runtime_state(std::string_view bytes) {
    util::BinaryReader r(bytes);
    if (r.u64() != kStateVersion) {
        throw util::JournalError("unknown runtime-state version");
    }
    RuntimeState state;
    const std::uint64_t n = r.u64();
    state.epochs.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) state.epochs.push_back(read_epoch_record(r));
    state.auctions.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        if (r.boolean()) {
            state.auctions.emplace_back(market::read_auction_result(r));
        } else {
            state.auctions.emplace_back(std::nullopt);
        }
    }
    state.ledger = core::Ledger::deserialize(r);
    state.rng = read_rng_state(r);
    state.breaker_open_epochs = r.u64();
    if (!r.exhausted()) {
        throw util::JournalError("trailing bytes after runtime state");
    }
    return state;
}

struct EpochRuntime::Impl {
    const market::OfferPool& pool;
    const net::TrafficMatrix& tm;
    RuntimeOptions opt;

    util::Rng rng;
    util::Retrier retrier;
    util::Journal journal;
    RuntimeOutcome outcome;
    PendingEpoch pending;
    bool has_pending = false;
    /// Shared across every epoch's oracle queries and flow sims (see
    /// RuntimeOptions::use_path_cache); epoch-invalidated in run_epoch.
    net::PathCache path_cache;
    /// Cross-epoch auction warm start (RuntimeOptions::use_delta_reclear).
    /// Process-local like the breaker: a restarted process starts cold,
    /// which is safe because warm and cold clears are bit-identical.
    market::DeltaReclearState delta_state;
    /// Last full payload per record type in the journal file — the
    /// delta-encoding bases for future appends. Rebuilt from the file
    /// on recovery, reset by compaction.
    std::map<std::uint16_t, std::string> delta_base;
    /// Snapshot files next to the journal. Always consulted on
    /// recovery (the emitting process may have had snapshots on even
    /// if this one does not — engine knobs may flip across restarts).
    util::SnapshotStore store;
    std::optional<util::FileSnapshotSink> file_sink;
    util::SnapshotSink* sink = nullptr;

    Impl(const market::OfferPool& pool_, const net::TrafficMatrix& tm_, RuntimeOptions opt_)
        : pool(pool_),
          tm(tm_),
          opt(std::move(opt_)),
          rng(opt.seed),
          retrier(opt.retry, opt.breaker),
          path_cache(1, opt.path_cache_repair_budget) {
        POC_EXPECTS(opt.epochs >= 1);
        POC_EXPECTS(opt.demand_jitter >= 0.0 && opt.demand_jitter < 1.0);
        POC_EXPECTS(opt.snapshot_keep >= 1);
        if (!opt.journal_path.empty()) {
            store = util::SnapshotStore(opt.journal_path, opt.snapshot_keep);
        }
        if (opt.snapshot_sink != nullptr) {
            sink = opt.snapshot_sink;
        } else if (store.enabled() && opt.snapshot_interval > 0) {
            file_sink.emplace(store);
            sink = &*file_sink;
        }
    }

    /// Configuration fingerprint stored in the journal header (see
    /// runtime_meta_fingerprint): engine knobs that cannot change
    /// results are excluded on purpose, so a run may resume under a
    /// different engine config and still be bit-identical.
    std::string meta_fingerprint() const {
        return runtime_meta_fingerprint(pool, tm, opt);
    }

    void hook(std::size_t epoch, Stage stage, HookPoint point) {
        if (opt.stage_hook) opt.stage_hook(epoch, stage, point);
    }

    /// Append one record, delta-encoding against the last payload of
    /// the same type when that is smaller. The base map always tracks
    /// the full payload so a later record can delta against this one.
    void append(std::uint16_t type, const util::BinaryWriter& w) {
        const std::string& bytes = w.bytes();
        if (!journal.attached()) {
            journal.append(type, bytes);  // durability off: no-op write
            return;
        }
        if (opt.delta_encoding) {
            const auto it = delta_base.find(type);
            if (it != delta_base.end()) {
                std::string delta = util::xor_delta_encode(it->second, bytes);
                if (delta.size() < bytes.size()) {
                    it->second = bytes;
                    journal.append(static_cast<std::uint16_t>(type | kRecDeltaFlag), delta);
                    POC_OBS_COUNT("sim.runtime.delta_bytes_saved",
                                  bytes.size() - delta.size());
                    return;
                }
            }
        }
        delta_base[type] = bytes;
        journal.append(type, bytes);
    }

    net::TrafficMatrix scaled_tm(double factor) const {
        net::TrafficMatrix scaled = tm;
        for (net::Demand& d : scaled) d.gbps *= factor;
        return scaled;
    }

    /// Install a finished replay cursor as this runtime's state: the
    /// recovered epochs/ledger/RNG plus any in-flight epoch run_epoch()
    /// will resume from its first incomplete stage.
    void install_cursor(ReplayCursor&& c) {
        outcome.epochs = std::move(c.state.epochs);
        outcome.auctions = std::move(c.state.auctions);
        outcome.ledger = std::move(c.state.ledger);
        rng.set_state(c.state.rng);
        outcome.breaker_open_epochs = static_cast<std::size_t>(c.state.breaker_open_epochs);
        outcome.replayed_epochs = c.replayed_epochs;
        pending = std::move(c.pending);
        has_pending = c.has_pending;
    }

    /// Atomically rewrite the journal to header + `kept` (full
    /// payloads, re-encoded so the first record per type is full and
    /// delta chains stay self-contained). Resets the appender's base
    /// map to match the new file.
    void rewrite_journal(const std::string& meta, const std::vector<DecodedRecord>& kept) {
        std::vector<util::JournalRecord> frames;
        frames.reserve(kept.size());
        std::map<std::uint16_t, std::string> bases;
        for (const DecodedRecord& d : kept) {
            const auto it = bases.find(d.type);
            if (it != bases.end() && opt.delta_encoding) {
                std::string delta = util::xor_delta_encode(it->second, d.payload);
                if (delta.size() < d.payload.size()) {
                    it->second = d.payload;
                    frames.push_back({static_cast<std::uint16_t>(d.type | kRecDeltaFlag),
                                      std::move(delta)});
                    continue;
                }
            }
            bases[d.type] = d.payload;
            frames.push_back({d.type, d.payload});
        }
        util::Journal::RewriteStats stats;
        journal = util::Journal::rewrite(opt.journal_path, meta, frames, &stats,
                                         opt.fsync_journal);
        delta_base = std::move(bases);
        if (stats.bytes_before > stats.bytes_after) {
            POC_OBS_COUNT("sim.runtime.journal_bytes_reclaimed",
                          stats.bytes_before - stats.bytes_after);
        }
    }

    /// Recovery lattice: sweep stale temps, ground on the newest valid
    /// snapshot, then replay only the journal suffix that extends it.
    /// Defensive end to end — a corrupt snapshot falls back to an
    /// older one (or the journal alone), and a journal whose content
    /// cannot extend the grounded state is rewritten to its last good
    /// prefix with the rest recomputed deterministically. Never
    /// installs corrupt state; only a *foreign* journal (different
    /// configuration fingerprint) throws.
    void recover() {
        const std::string meta = meta_fingerprint();
        if (store.enabled()) {
            const std::size_t swept = store.sweep_stale_temps();
            if (swept > 0) POC_OBS_COUNT("sim.runtime.stale_temps_swept", swept);
        }
        {
            // A compaction rewrite that died before its rename leaves
            // `<journal>.tmp` behind; the original journal is intact.
            std::error_code ec;
            std::filesystem::remove(opt.journal_path + ".tmp", ec);
        }

        util::Journal::ScanResult scan;
        bool opened = false;
        try {
            journal = util::Journal::open(opt.journal_path, scan, opt.fsync_journal);
            opened = true;
        } catch (const util::JournalError&) {
            // Missing or header-corrupt journal: start a fresh log. A
            // corrupt *record* never lands here (open() truncates
            // those). Snapshot grounding below still applies — the
            // journal is the suffix, not the source of truth.
        }
        if (opened && scan.meta != meta) {
            throw util::JournalError(
                "journal at " + opt.journal_path +
                " was written by a different run configuration; refusing to replay");
        }

        // Ground on the newest snapshot that validates end to end
        // (CRC, fingerprint) *and* decodes; anything less is skipped.
        // The cursor starts at the fresh-seed state so a run with no
        // usable history installs exactly what the constructor built.
        ReplayCursor cursor;
        cursor.state.rng = rng.state();
        std::uint64_t grounded = 0;
        if (store.enabled()) {
            if (const auto snap = store.load_newest_valid(meta)) {
                try {
                    RuntimeState st = decode_runtime_state(snap->payload);
                    POC_EXPECTS(st.epochs.size() == snap->completed_epochs);
                    cursor.state = std::move(st);
                    grounded = snap->completed_epochs;
                    outcome.resumed_from_snapshot = true;
                    outcome.snapshot_epochs = grounded;
                    POC_OBS_INC("sim.runtime.snapshot_resumes");
                } catch (const util::ContractViolation&) {
                    POC_OBS_INC("sim.runtime.snapshots_undecodable");
                } catch (const util::JournalError&) {
                    POC_OBS_INC("sim.runtime.snapshots_undecodable");
                }
            }
        }

        if (!opened) {
            install_cursor(std::move(cursor));
            journal = util::Journal::create(opt.journal_path, meta, opt.fsync_journal);
            return;
        }
        outcome.tail_truncated = scan.tail_truncated;

        const auto start = std::chrono::steady_clock::now();
        std::vector<DecodedRecord> decoded;
        std::map<std::uint16_t, std::string> bases;
        decode_records(scan.records, decoded, bases);
        bool bad_tail = decoded.size() < scan.records.size();

        // Apply: skip records the grounding snapshot already covers,
        // then defensively replay the suffix. The first record that
        // cannot extend the current state (gap, duplicated frame,
        // semantic garbage) ends the good prefix; everything past it
        // is dropped and recomputed.
        std::size_t applied_begin = 0;
        bool any_applied = false;
        std::size_t good = decoded.size();
        std::size_t skipped = 0;
        for (std::size_t i = 0; i < decoded.size(); ++i) {
            if (!any_applied && decoded[i].epoch < grounded) {
                ++skipped;
                continue;
            }
            try {
                cursor.apply(decoded[i]);
            } catch (const util::ContractViolation&) {
                good = i;
                bad_tail = true;
                break;
            } catch (const util::JournalError&) {
                good = i;
                bad_tail = true;
                break;
            }
            if (!any_applied) {
                any_applied = true;
                applied_begin = i;
            }
            ++outcome.replayed_records;
        }
        if (!any_applied) applied_begin = good;
        install_cursor(std::move(cursor));

        if (bad_tail || skipped > 0) {
            const std::vector<DecodedRecord> kept(
                decoded.begin() + static_cast<std::ptrdiff_t>(applied_begin),
                decoded.begin() + static_cast<std::ptrdiff_t>(good));
            rewrite_journal(meta, kept);
            if (bad_tail) {
                outcome.journal_repaired = true;
                POC_OBS_INC("sim.runtime.journal_repairs");
            }
            if (skipped > 0) {
                // The crash-between-snapshot-and-compaction path: the
                // rewrite above doubles as the compaction that crash
                // skipped.
                ++outcome.compactions;
                POC_OBS_INC("sim.runtime.compactions");
            }
        } else {
            delta_base = std::move(bases);
        }

        const auto dur = std::chrono::steady_clock::now() - start;
        outcome.replay_ms =
            std::chrono::duration<double, std::milli>(dur).count();
        POC_OBS_HISTOGRAM("sim.runtime.replay_ms", 0.0, 1000.0, 50, outcome.replay_ms);
        POC_OBS_COUNT("sim.runtime.replayed_records", outcome.replayed_records);
    }

    /// Emit a snapshot when a snapshot boundary was just crossed, then
    /// compact the journal down to what the snapshot does not cover.
    void maybe_snapshot() {
        if (opt.snapshot_interval == 0 || sink == nullptr) return;
        const std::uint64_t completed = outcome.epochs.size();
        if (completed == 0 || completed % opt.snapshot_interval != 0) return;
        POC_OBS_SPAN("sim.runtime.snapshot");
        const auto epoch = static_cast<std::size_t>(completed);
        hook(epoch, Stage::kSnapshotWrite, HookPoint::kBefore);
        RuntimeState st{outcome.epochs, outcome.auctions, outcome.ledger, rng.state(),
                        outcome.breaker_open_epochs};
        const std::string payload = encode_runtime_state(st);
        // kMid models the worst case: state serialized, install not
        // yet durable. The atomic temp+rename install makes a crash
        // here invisible to recovery.
        hook(epoch, Stage::kSnapshotWrite, HookPoint::kMid);
        sink->emit(completed, meta_fingerprint(), payload);
        ++outcome.snapshots_written;
        POC_OBS_INC("sim.runtime.snapshots");
        hook(epoch, Stage::kSnapshotWrite, HookPoint::kAfter);

        if (!opt.compact_after_snapshot || !journal.attached()) return;
        hook(epoch, Stage::kCompaction, HookPoint::kBefore);
        // At a snapshot boundary no epoch is in flight, so the
        // snapshot covers every record: the kept suffix is empty.
        hook(epoch, Stage::kCompaction, HookPoint::kMid);
        rewrite_journal(meta_fingerprint(), {});
        ++outcome.compactions;
        POC_OBS_INC("sim.runtime.compactions");
        hook(epoch, Stage::kCompaction, HookPoint::kAfter);
    }

    /// The auction stage's computation: clear under the retry/breaker
    /// budget; degrade to the relaxed constraint when the primary path
    /// is exhausted or fast-failed.
    void clear_epoch(std::size_t epoch, const net::TrafficMatrix& epoch_tm) {
        pending.breaker_open = retrier.breaker_state() == util::BreakerState::kOpen;
        const std::uint64_t attempts_before = retrier.stats().attempts;

        market::OracleOptions oracle_opt = opt.request.oracle;
        if (opt.use_path_cache) oracle_opt.path_cache = &path_cache;
        market::AuctionOptions auction_opt = opt.request.auction;
        if (opt.use_delta_reclear && auction_opt.delta == nullptr) {
            auction_opt.delta = &delta_state;
        }
        const market::AcceptabilityOracle base(pool.graph(), epoch_tm, opt.request.constraint,
                                               oracle_opt);
        market::FallibleOracle::FaultHook fault;
        if (opt.oracle_fault) {
            fault = [this, epoch] { opt.oracle_fault(epoch); };
        }
        market::FallibleOracle guarded(base, std::move(fault));

        bool primary_failed = false;
        try {
            pending.auction = retrier.call([&](const util::Deadline& deadline) {
                const DeadlineScope scope(guarded, deadline);
                return market::run_auction(pool, guarded, auction_opt);
            });
        } catch (const util::BreakerOpen&) {
            primary_failed = true;
        } catch (const util::RetryExhausted&) {
            primary_failed = true;
        }

        if (primary_failed && opt.allow_constraint_relaxation) {
            // Graceful degradation (same contract as chaos recovery):
            // re-clear under plain load feasibility with a fresh,
            // healthy oracle — the sick dependency is bypassed, not
            // hammered.
            const market::AcceptabilityOracle relaxed(pool.graph(), epoch_tm,
                                                      market::ConstraintKind::kLoad,
                                                      oracle_opt);
            pending.auction = market::run_auction(pool, relaxed, auction_opt);
            pending.degraded = pending.auction.has_value();
            if (pending.degraded) POC_OBS_INC("sim.runtime.degraded_epochs");
        }
        pending.attempts = retrier.stats().attempts - attempts_before;
        POC_OBS_COUNT("sim.runtime.retry_attempts", pending.attempts);
        if (pending.breaker_open) {
            ++outcome.breaker_open_epochs;
            POC_OBS_INC("sim.runtime.breaker_open_epochs");
        }
    }

    /// The settlement stage's computation: record this epoch's money
    /// flows (section 3.2's structure, break-even by construction) and
    /// return them for journaling.
    std::vector<core::Transfer> settle_epoch(std::size_t epoch) {
        const std::size_t before = outcome.ledger.transfers().size();
        if (pending.auction) {
            const market::AuctionResult& a = *pending.auction;
            const core::Party poc{core::PartyKind::kPoc, 0};
            const std::string tag = "epoch " + std::to_string(epoch);
            for (const market::BpOutcome& o : a.outcomes) {
                outcome.ledger.record(poc, {core::PartyKind::kBandwidthProvider, o.bp.value()},
                                      core::TransferKind::kLinkLease, o.payment,
                                      tag + " lease: " + o.name);
            }
            outcome.ledger.record(poc, {core::PartyKind::kExternalIsp, 0},
                                  core::TransferKind::kIspContract, a.virtual_cost,
                                  tag + " virtual-link contracts");
            // Cost recovery: the access side covers the outlay exactly
            // (the nonprofit's zero-margin target).
            outcome.ledger.record({core::PartyKind::kLmp, 0}, poc,
                                  core::TransferKind::kPocAccess, a.total_outlay,
                                  tag + " access cost recovery");
        }
        return {outcome.ledger.transfers().begin() +
                    static_cast<std::ptrdiff_t>(before),
                outcome.ledger.transfers().end()};
    }

    void run_epoch(std::size_t epoch) {
        POC_OBS_SPAN("sim.runtime.epoch");
        path_cache.advance_epoch();
        if (!has_pending) {
            pending = PendingEpoch{};
            pending.epoch = epoch;
            has_pending = true;
        }
        POC_EXPECTS(pending.epoch == epoch);

        if (!pending.have_begin) {
            // Always consume one uniform draw, even with zero jitter:
            // the RNG stream position is part of the durable state and
            // every epoch must advance (and journal) it.
            pending.demand_factor =
                rng.uniform(1.0 - opt.demand_jitter, 1.0 + opt.demand_jitter);
            util::BinaryWriter w;
            w.u64(epoch);
            w.f64(pending.demand_factor);
            write_rng_state(w, rng.state());
            append(kRecEpochBegin, w);
            pending.have_begin = true;
        }
        const net::TrafficMatrix epoch_tm = scaled_tm(pending.demand_factor);

        if (!pending.have_auction) {
            hook(epoch, Stage::kAuction, HookPoint::kBefore);
            clear_epoch(epoch, epoch_tm);
            hook(epoch, Stage::kAuction, HookPoint::kMid);
            util::BinaryWriter w;
            w.u64(epoch);
            w.boolean(pending.auction.has_value());
            if (pending.auction) market::write_auction_result(w, *pending.auction);
            w.boolean(pending.degraded);
            w.boolean(pending.breaker_open);
            w.u64(pending.attempts);
            append(kRecAuction, w);
            pending.have_auction = true;
            hook(epoch, Stage::kAuction, HookPoint::kAfter);
        }

        if (!pending.have_provision) {
            hook(epoch, Stage::kProvisioning, HookPoint::kBefore);
            pending.selected =
                pending.auction ? pending.auction->selection.links : std::vector<net::LinkId>{};
            hook(epoch, Stage::kProvisioning, HookPoint::kMid);
            util::BinaryWriter w;
            w.u64(epoch);
            write_links(w, pending.selected);
            append(kRecProvision, w);
            pending.have_provision = true;
            hook(epoch, Stage::kProvisioning, HookPoint::kAfter);
        }

        if (!pending.have_flows) {
            hook(epoch, Stage::kFlowSim, HookPoint::kBefore);
            if (pending.auction) {
                std::vector<bool> is_virtual(pool.graph().link_count(), false);
                for (const net::LinkId l : pool.virtual_links().links()) {
                    is_virtual[l.index()] = true;
                }
                const net::Subgraph backbone(pool.graph(), pending.selected);
                core::FlowSimOptions flow_opt;
                if (opt.use_path_cache) flow_opt.path_cache = &path_cache;
                flow_opt.routing = opt.flow_routing;
                flow_opt.flow_shards = opt.flow_shards;
                flow_opt.flow_threads = opt.flow_threads;
                const core::FlowReport flows =
                    core::simulate_flows(backbone, epoch_tm, is_virtual, flow_opt);
                pending.offered_gbps = flows.total_offered_gbps;
                pending.routed_gbps = flows.total_routed_gbps;
                pending.max_utilization = flows.max_utilization;
                pending.stretch = flows.stretch;
            } else {
                pending.offered_gbps = net::total_demand(epoch_tm);
            }
            hook(epoch, Stage::kFlowSim, HookPoint::kMid);
            util::BinaryWriter w;
            w.u64(epoch);
            w.f64(pending.offered_gbps);
            w.f64(pending.routed_gbps);
            w.f64(pending.max_utilization);
            w.f64(pending.stretch);
            append(kRecFlows, w);
            pending.have_flows = true;
            hook(epoch, Stage::kFlowSim, HookPoint::kAfter);
        }

        if (!pending.have_settlement) {
            hook(epoch, Stage::kSettlement, HookPoint::kBefore);
            const std::vector<core::Transfer> transfers = settle_epoch(epoch);
            hook(epoch, Stage::kSettlement, HookPoint::kMid);
            util::BinaryWriter w;
            w.u64(epoch);
            w.u64(transfers.size());
            for (const core::Transfer& t : transfers) core::write_transfer(w, t);
            append(kRecSettlement, w);
            pending.have_settlement = true;
            hook(epoch, Stage::kSettlement, HookPoint::kAfter);
        }

        EpochRecord rec;
        rec.epoch = epoch;
        rec.provisioned = pending.auction.has_value();
        rec.degraded_mode = pending.degraded;
        rec.breaker_open = pending.breaker_open;
        rec.demand_factor = pending.demand_factor;
        rec.demand_gbps = pending.offered_gbps;
        rec.delivered_fraction =
            pending.offered_gbps > 0.0
                ? std::min(pending.routed_gbps, pending.offered_gbps) / pending.offered_gbps
                : 0.0;
        rec.max_utilization = pending.max_utilization;
        rec.stretch = pending.stretch;
        rec.outlay = pending.auction ? pending.auction->total_outlay : util::Money{};
        rec.retry_attempts = pending.attempts;

        util::BinaryWriter w;
        write_epoch_record(w, rec);
        write_rng_state(w, rng.state());
        append(kRecEpochEnd, w);

        outcome.epochs.push_back(rec);
        outcome.auctions.push_back(std::move(pending.auction));
        has_pending = false;
        POC_OBS_INC("sim.runtime.epochs");
        commit_hook(false);
    }

    /// Publish the just-committed epoch to the serving layer. Fires
    /// after the epoch-end record is durable, so a subscriber never
    /// observes state the journal could lose.
    void commit_hook(bool replayed) {
        if (!opt.on_epoch_commit) return;
        const EpochCommit commit{outcome.epochs.back().epoch,
                                 outcome.epochs.size(),
                                 replayed,
                                 outcome.epochs.back(),
                                 outcome.auctions.back(),
                                 outcome.ledger};
        opt.on_epoch_commit(commit);
    }

    RuntimeOutcome run() {
        POC_OBS_SPAN("sim.runtime.run");
        if (!opt.journal_path.empty()) recover();
        // Replayed history publishes once, as the newest recovered
        // epoch: subscribers resynchronize without a re-run.
        if (!outcome.epochs.empty()) commit_hook(true);
        // After replay, any in-flight epoch is exactly the next one:
        // run_epoch() resumes it from its first incomplete stage.
        while (outcome.epochs.size() < opt.epochs) {
            run_epoch(outcome.epochs.size());
            maybe_snapshot();
        }
        outcome.final_rng = rng.state();
        outcome.retry = retrier.stats();
        return std::move(outcome);
    }
};

EpochRuntime::EpochRuntime(const market::OfferPool& pool, const net::TrafficMatrix& tm,
                           RuntimeOptions opt)
    : impl_(std::make_unique<Impl>(pool, tm, std::move(opt))) {}

EpochRuntime::~EpochRuntime() = default;

RuntimeOutcome EpochRuntime::run() { return impl_->run(); }

RuntimeOutcome run_with_recovery(const market::OfferPool& pool, const net::TrafficMatrix& tm,
                                 const RuntimeOptions& opt, const std::vector<Fault>& trace) {
    POC_EXPECTS(!opt.journal_path.empty());

    struct CrashPoint {
        std::size_t epoch;
        Stage stage;
        FaultKind kind;
        bool fired = false;
        bool damage_done = false;
    };
    auto crashes = std::make_shared<std::vector<CrashPoint>>();
    struct Window {
        std::size_t start;
        std::size_t end;
    };
    std::vector<Window> degraded_windows;
    for (const Fault& f : trace) {
        if (f.kind == FaultKind::kCrash || f.kind == FaultKind::kSnapshotCorrupt ||
            f.kind == FaultKind::kTornWrite) {
            POC_EXPECTS(f.crash_stage <= kCrashStageCompaction);
            crashes->push_back({f.start_epoch, static_cast<Stage>(f.crash_stage), f.kind});
        } else if (f.kind == FaultKind::kOracleDegraded) {
            degraded_windows.push_back({f.start_epoch, f.start_epoch + f.repair_epochs});
        }
    }

    RuntimeOptions supervised = opt;
    supervised.stage_hook = [user = opt.stage_hook, crashes](std::size_t epoch, Stage stage,
                                                             HookPoint point) {
        if (user) user(epoch, stage, point);
        if (point != HookPoint::kMid) return;
        for (CrashPoint& c : *crashes) {
            if (!c.fired && c.epoch == epoch && c.stage == stage) {
                // Each scheduled crash kills the process exactly once;
                // the restarted process survives the same point.
                c.fired = true;
                throw CrashInjected(epoch, stage, point);
            }
        }
    };
    supervised.oracle_fault = [user = opt.oracle_fault,
                               windows = std::move(degraded_windows)](std::size_t epoch) {
        if (user) user(epoch);
        for (const Window& w : windows) {
            if (epoch >= w.start && epoch < w.end) {
                throw util::TransientError("oracle degraded by chaos fault (epoch " +
                                           std::to_string(epoch) + ")");
            }
        }
    };

    // Post-kill disk damage: kSnapshotCorrupt flips a bit in the
    // newest snapshot, kTornWrite tears the journal's tail — the
    // crash *causing* the corruption recovery must then survive.
    const auto apply_damage = [&supervised] (std::vector<CrashPoint>& points) {
        for (CrashPoint& c : points) {
            if (!c.fired || c.damage_done) continue;
            c.damage_done = true;
            if (c.kind == FaultKind::kTornWrite) {
                const std::uint64_t size = util::FaultyFile::size(supervised.journal_path);
                if (size > 0) {
                    util::FaultyFile::tear_at(supervised.journal_path,
                                              size - std::min<std::uint64_t>(size, 3));
                    POC_OBS_INC("sim.runtime.torn_writes_injected");
                }
            } else if (c.kind == FaultKind::kSnapshotCorrupt) {
                const util::SnapshotStore store(supervised.journal_path,
                                                supervised.snapshot_keep);
                const auto snaps = store.list();
                if (!snaps.empty()) {
                    const std::string& path = snaps.back().path;
                    util::FaultyFile::flip_bit(path, util::FaultyFile::size(path) / 2, 3);
                    POC_OBS_INC("sim.runtime.snapshot_corruptions_injected");
                }
            }
        }
    };

    const auto journal_size = [&supervised] {
        std::error_code ec;
        const auto n = std::filesystem::file_size(supervised.journal_path, ec);
        return ec ? std::uintmax_t{0} : n;
    };

    // Restart loop under a per-progress-window budget: each crash that
    // leaves the journal unchanged burns one attempt (with the restart
    // policy's jittered backoff in between); any journal change resets
    // the window. A deterministic crash point therefore exhausts the
    // budget instead of looping forever.
    struct ProgressMade {};
    std::size_t restarts = 0;
    std::uintmax_t last_size = journal_size();
    util::RetryPolicy restart_policy = supervised.restart;
    restart_policy.deadline_ms = std::numeric_limits<double>::infinity();
    for (;;) {
        util::Retrier restarter(restart_policy);
        try {
            return restarter.call([&](const util::Deadline&) -> RuntimeOutcome {
                try {
                    RuntimeOutcome out = EpochRuntime(pool, tm, supervised).run();
                    out.restarts = restarts;
                    return out;
                } catch (const CrashInjected& c) {
                    ++restarts;
                    POC_OBS_INC("sim.runtime.crashes");
                    apply_damage(*crashes);
                    // "Restart the process": recover from the journal
                    // (and snapshots) with a fresh runtime — fresh
                    // breaker, fresh RNG object, all durable state
                    // from disk.
                    const std::uintmax_t size_now = journal_size();
                    if (size_now != last_size) {
                        last_size = size_now;
                        throw ProgressMade{};
                    }
                    throw util::TransientError(c.what());
                }
            });
        } catch (const ProgressMade&) {
            continue;  // fresh budget window
        } catch (const util::RetryExhausted& e) {
            POC_OBS_INC("sim.runtime.recovery_exhausted");
            throw RecoveryExhausted(restarts, e.what());
        }
    }
}

std::optional<RuntimeState> materialize_state_at(const market::OfferPool& pool,
                                                 const net::TrafficMatrix& tm,
                                                 const RuntimeOptions& opt,
                                                 std::uint64_t target_epochs) {
    if (opt.journal_path.empty()) return std::nullopt;
    POC_OBS_SPAN("sim.runtime.materialize");
    const std::string meta = runtime_meta_fingerprint(pool, tm, opt);
    const util::HistoryReader reader(opt.journal_path, opt.snapshot_keep);

    // Ground exactly like recover(): fresh-seed state, upgraded to the
    // newest decodable snapshot at or below the target.
    ReplayCursor cursor;
    cursor.state.rng = util::Rng(opt.seed).state();
    std::uint64_t grounded = 0;
    if (const auto snap = reader.snapshot_at(target_epochs, meta)) {
        try {
            RuntimeState st = decode_runtime_state(snap->payload);
            POC_EXPECTS(st.epochs.size() == snap->completed_epochs);
            cursor.state = std::move(st);
            grounded = snap->completed_epochs;
        } catch (const util::ContractViolation&) {
            POC_OBS_INC("sim.runtime.snapshots_undecodable");
        } catch (const util::JournalError&) {
            POC_OBS_INC("sim.runtime.snapshots_undecodable");
        }
    }
    if (cursor.state.epochs.size() == target_epochs) return std::move(cursor.state);

    // Read-only scan: never truncates, never takes an append handle,
    // so this is safe while a live runtime owns the journal.
    util::Journal::ScanResult scan;
    try {
        reader.scan_journal(scan);
    } catch (const util::JournalError&) {
        return std::nullopt;  // journal missing or header-corrupt
    }
    if (scan.meta != meta) return std::nullopt;  // foreign journal

    std::vector<DecodedRecord> decoded;
    std::map<std::uint16_t, std::string> bases;
    decode_records(scan.records, decoded, bases);

    bool any_applied = false;
    for (const DecodedRecord& d : decoded) {
        if (cursor.state.epochs.size() == target_epochs) break;
        if (!any_applied && d.epoch < grounded) continue;
        try {
            cursor.apply(d);
        } catch (const util::ContractViolation&) {
            break;  // good prefix ends here; history cannot prove more
        } catch (const util::JournalError&) {
            break;
        }
        any_applied = true;
    }
    if (cursor.state.epochs.size() != target_epochs) return std::nullopt;
    return std::move(cursor.state);
}

}  // namespace poc::sim
