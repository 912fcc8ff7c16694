#include "sprint/checkpoint.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "archsim/machine.hh"
#include "archsim/opstream.hh"
#include "workloads/workload.hh"

namespace csprint {

namespace {

[[noreturn]] void
unsupported(const std::string &what)
{
    throw CheckpointError(CheckpointError::Kind::Unsupported, what);
}

[[noreturn]] void
invariant(const std::string &what)
{
    throw CheckpointError(CheckpointError::Kind::Invariant, what);
}

} // namespace

/**
 * The single friend of every serializable type. Each record's byte
 * layout is listed once, in a static io() template over the direction
 * (Enc or Dec, common/blob.hh): encode appends the fields, decode
 * overwrites private state field for field in the same order. Decodes
 * operate on objects already constructed from the ScenarioConfig (so
 * geometry and derived caches come from the config, not the blob) and
 * validate every index and mask that could otherwise be walked into
 * undefined behaviour. Op streams are the one explicit write/read
 * pair: encode dispatches on the stream's type, decode rebuilds the
 * stream from the phase's factory and checks the type it gets.
 */
struct CheckpointIO
{
    // ----- common/ ---------------------------------------------------

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, Rng> rng)
    {
        for (auto &word : rng.s)
            a.u64(word);
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, TimeSeries> ts)
    {
        a.vecF64(ts.times);
        a.vecF64(ts.values);
        a.check(ts.times.size() == ts.values.size(),
                "time series with mismatched time/value lengths");
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, DecimatingTrace> dt)
    {
        io(a, dt.ts);
        a.u64(dt.cap);
        a.u64(dt.stride_);
        a.u64(dt.next_store_);
        a.u64(dt.offered_);
        a.check(dt.cap >= 2 && dt.stride_ != 0,
                "decimating trace with degenerate capacity/stride");
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, MeltCycleCounter> mc)
    {
        a.f64(mc.rise_);
        a.f64(mc.fall_);
        a.boolean(mc.molten_);
        a.i64(mc.cycles_);
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, ScenarioTraceSink> sink)
    {
        a.enumeration(sink.mode_, TraceMode::Off, "unknown trace-sink mode");
        io(a, sink.junction_);
        io(a, sink.power_);
        io(a, sink.melt_);
        io(a, sink.junction_ring_);
        io(a, sink.power_ring_);
        io(a, sink.melt_ring_);
    }

    // ----- thermal / arrivals ---------------------------------------

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, ThermalNetworkState> st)
    {
        a.vecF64(st.temps);
        a.vecF64(st.melt_fractions);
        a.vecF64(st.injected);
        a.check(st.melt_fractions.size() == st.temps.size() &&
                    st.injected.size() == st.temps.size(),
                "thermal snapshot with mismatched node counts");
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, ArrivalCursor> cur)
    {
        io(a, cur.rng);
        a.f64(cur.poisson_clock);
        a.u64(cur.index);
    }

    // ----- surrogate fidelity tier ----------------------------------

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, SurrogateClassModel> m)
    {
        a.u64(m.n);
        a.f64(m.service_mean);
        a.f64(m.service_m2);
        a.f64(m.energy_mean);
        a.f64(m.energy_m2);
        a.f64(m.ewma_service);
        a.f64(m.ewma_energy);
        a.f64(m.ewma_sprint_time);
        a.f64(m.ewma_sprint_energy);
        a.f64(m.ewma_heat_time);
        a.f64(m.ewma_heat_energy);
        a.f64(m.exhausted_ewma);
        a.f64(m.throttled_ewma);
        ioP2Quantile(a, m.service_p95);
        a.u64(m.surrogate_runs);
        a.u64(m.audits);
        a.boolean(m.demoted);
        a.f64(m.worst_audit_error);
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, TaskSurrogate> s)
    {
        io(a, s.audit_rng_);
        a.u64(s.surrogate_tasks_);
        a.u64(s.audit_tasks_);
        a.i64(s.demotions_);
        std::size_t count = s.classes_.size();
        a.u64(count);
        // (key, model) pairs: encode walks the map in key order,
        // decode rebuilds it.
        if constexpr (Ar::kDecode)
            s.classes_.clear();
        auto entry = s.classes_.begin();
        for (std::size_t i = 0; i < count; ++i, ++entry) {
            std::uint32_t key = 0;
            if constexpr (!Ar::kDecode)
                key = entry->first;
            a.u32(key);
            if constexpr (Ar::kDecode) {
                // classKey packs (kernel << 8) | (size << 1) | sprinted.
                if ((key >> 8) > static_cast<std::uint32_t>(
                                     KernelId::Segment) ||
                    ((key >> 1) & 0x7fu) >
                        static_cast<std::uint32_t>(InputSize::D))
                    corrupt("surrogate class key out of range");
                if (s.classes_.count(key))
                    corrupt("duplicate surrogate class key");
                entry = s.classes_.emplace(key, SurrogateClassModel()).first;
            }
            io(a, entry->second);
        }
    }

    // ----- caches / memory / energy ---------------------------------

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, CacheStats> st)
    {
        a.u64(st.hits);
        a.u64(st.misses);
        a.u64(st.evictions);
        a.u64(st.dirty_evictions);
        a.u64(st.invalidations);
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, Cache> c)
    {
        const char *geometry = "cache geometry differs from the configuration";
        a.expect(c.sets, geometry);
        a.expect(static_cast<std::uint64_t>(c.ways), geometry);
        a.vecU64(c.tags);
        a.check(c.tags.size() == c.sets * static_cast<std::size_t>(c.ways),
                "cache tag array size mismatch");
        std::size_t nmeta = c.meta.size();
        a.sz(nmeta);
        a.check(nmeta == c.sets, "cache metadata size mismatch");
        const std::uint16_t way_mask = static_cast<std::uint16_t>(
            c.ways >= 16 ? 0xFFFFu : ((1u << c.ways) - 1u));
        for (std::size_t s = 0; s < nmeta; ++s) {
            auto &m = c.meta[s];
            a.u64(m.order);
            a.u16(m.valid);
            a.u16(m.dirty);
            if constexpr (Ar::kDecode) {
                m.pad = 0;
                if ((m.valid & ~way_mask) != 0 ||
                    (m.dirty & ~m.valid) != 0)
                    corrupt("cache set " + std::to_string(s) +
                            " has invalid way masks");
                // The recency word must hold each way id exactly once
                // (touch() relies on it to terminate its nibble scan).
                unsigned seen = 0;
                for (int p = 0; p < 16; ++p)
                    seen |= 1u << ((m.order >> (4 * p)) & 0xF);
                if (seen != 0xFFFFu)
                    corrupt("cache set " + std::to_string(s) +
                            " has a non-permutation recency word");
            }
        }
        io(a, c.counters);
        if constexpr (Ar::kDecode) {
            // The MRU shortcut is a pure hint; start it cold.
            c.hint_set = 0;
            c.hint_way = 0;
            c.hint_line = ~std::uint64_t(0);
        }
    }

    /** Capacity, count, then the members in ascending order. */
    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, CoreSet> s, int capacity)
    {
        a.expect(static_cast<std::uint64_t>(capacity),
                 "core-set capacity differs from the configuration");
        std::int64_t n = s.count();
        a.i64(n);
        a.check(n >= 0 && n <= capacity,
                "core-set member count out of range");
        if constexpr (Ar::kDecode) {
            s.resize(capacity);
            std::int64_t prev = -1;
            for (std::int64_t i = 0; i < n; ++i) {
                std::int64_t c = 0;
                a.i64(c);
                if (c <= prev || c >= capacity)
                    corrupt("core-set members not strictly ascending in "
                            "range");
                s.add(static_cast<int>(c));
                prev = c;
            }
        } else {
            s.forEach([&a](int c) { a.i64(c); });
        }
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, L2Stats> st)
    {
        a.u64(st.hits);
        a.u64(st.misses);
        a.u64(st.invalidations_sent);
        a.u64(st.downgrades_sent);
        a.u64(st.inclusion_recalls);
        a.u64(st.writebacks_received);
        a.u64(st.directory_spills);
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, SharedL2> l2)
    {
        io(a, l2.tags);
        std::size_t nd = l2.dir.size();
        a.sz(nd);
        a.check(nd == l2.dir.size(),
                "directory size differs from the tag store");
        for (auto &e : l2.dir) {
            for (auto &p : e.ptr)
                a.i16(p);
            a.i16(e.dirty_owner);
            a.u8(e.nptr);
            a.boolean(e.overflow);
            a.boolean(e.l2_dirty);
            a.u32(e.ovf);
            a.check(e.nptr <= SharedL2::kInlineSharers,
                    "directory entry with too many inline sharers");
            a.check(e.dirty_owner >= -1 && e.dirty_owner < l2.num_cores,
                    "directory dirty owner out of range");
            if constexpr (Ar::kDecode) {
                for (int i = 0; i < e.nptr && !e.overflow; ++i)
                    if (e.ptr[i] < 0 || e.ptr[i] >= l2.num_cores)
                        corrupt("inline sharer id out of range");
            }
        }
        a.vecU64(l2.pool);
        const std::size_t wpb = l2.words_per_block;
        a.check(wpb == 0 ? l2.pool.empty() : l2.pool.size() % wpb == 0,
                "overflow pool size not a whole number of blocks");
        const std::size_t blocks = wpb ? l2.pool.size() / wpb : 0;
        if constexpr (Ar::kDecode)
            checkOverflowBlocks(l2, blocks);
        a.vec(l2.pool_free, 4, [blocks](auto &a2, auto &b) {
            a2.u32(b);
            a2.check(b < blocks,
                     "recycled overflow block index out of range");
        });
        io(a, l2.l1_mutations, l2.num_cores);
        io(a, l2.counters);
    }

    /**
     * Every overflowed directory entry must key a pool block, and no
     * sharer bit may sit at or beyond the core count: either would
     * index past the pool or the L1 array during coherence actions.
     */
    static void
    checkOverflowBlocks(const SharedL2 &l2, std::size_t blocks)
    {
        const std::size_t wpb = l2.words_per_block;
        for (const SharedL2::DirEntry &e : l2.dir) {
            if (!e.overflow)
                continue;
            if (e.ovf >= blocks)
                corrupt("overflow block index out of range");
            const std::uint64_t *words =
                &l2.pool[static_cast<std::size_t>(e.ovf) * wpb];
            for (std::size_t wd = 0; wd < wpb; ++wd) {
                const std::size_t base = wd * 64;
                std::uint64_t mask = 0;
                if (static_cast<std::size_t>(l2.num_cores) >= base + 64)
                    mask = ~std::uint64_t(0);
                else if (static_cast<std::size_t>(l2.num_cores) > base)
                    mask = (std::uint64_t(1)
                            << (l2.num_cores - base)) -
                           1;
                if ((words[wd] & ~mask) != 0)
                    corrupt("overflow sharer bit beyond the core count");
            }
        }
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, MemorySystem> mem)
    {
        a.f64(mem.mult);
        a.check(mem.mult > 0.0 && std::isfinite(mem.mult),
                "memory frequency multiplier not positive");
        a.vecF64(mem.next_free);
        a.check(mem.next_free.size() ==
                    static_cast<std::size_t>(mem.cfg.channels),
                "memory channel count differs from the configuration");
        a.u64(mem.counters.reads);
        a.u64(mem.counters.writebacks);
        a.u64(mem.counters.queued_cycles);
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, InstructionEnergyModel> em)
    {
        a.i64(em.params.node_nm);
        a.f64(em.params.vdd);
        a.f64(em.params.clock);
        a.f64(em.params.cap_scale);
        for (auto &e : em.op_energy)
            a.f64(e);
        a.f64(em.l2_energy);
        a.f64(em.dram_energy);
        a.f64(em.idle_energy);
        a.f64(em.nominal_cycle);
    }

    // ----- machine ---------------------------------------------------

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, MachineStats> st)
    {
        a.u64(st.cycles);
        a.f64(st.seconds);
        a.u64(st.ops_retired);
        for (auto &n : st.ops_by_kind)
            a.u64(n);
        a.u64(st.l1_hits);
        a.u64(st.l1_misses);
        a.u64(st.idle_cycles);
        a.u64(st.sleep_cycles);
        a.u64(st.barrier_arrivals);
        a.f64(st.dynamic_energy);
    }

    static void
    writeStream(Enc &e, const OpStream &s)
    {
        if (const auto *v = dynamic_cast<const VectorOpStream *>(&s)) {
            e.u8(0);
            e.sz(v->pos);
            return;
        }
        if (const auto *c = dynamic_cast<const ChunkedOpStream *>(&s)) {
            if (c->pos < c->buffer.size())
                unsupported("chunked op stream holds an undrained "
                            "buffer (machine not at a bulk-refill "
                            "boundary)");
            e.u8(1);
            e.sz(c->next_chunk);
            return;
        }
        unsupported("custom OpStream type cannot be checkpointed");
    }

    static std::unique_ptr<OpStream>
    readStream(Dec &d, const Phase &phase, std::size_t task)
    {
        if (phase.make_task == nullptr || task >= phase.num_tasks)
            corrupt("stream task index out of range for the phase");
        std::unique_ptr<OpStream> s = phase.make_task(task);
        const std::uint8_t type = d.r.u8();
        if (type == 0) {
            auto *v = dynamic_cast<VectorOpStream *>(s.get());
            if (!v)
                corrupt("blob says vector stream; factory built "
                        "another type");
            const std::size_t pos = static_cast<std::size_t>(d.r.u64());
            if (pos > v->ops.size())
                corrupt("vector stream cursor past the end");
            v->pos = pos;
        } else if (type == 1) {
            auto *c = dynamic_cast<ChunkedOpStream *>(s.get());
            if (!c)
                corrupt("blob says chunked stream; factory built "
                        "another type");
            const std::size_t next = static_cast<std::size_t>(d.r.u64());
            if (next > c->num_chunks)
                corrupt("chunked stream cursor past the last chunk");
            // Replay the consumed chunks in order so stateful
            // generator closures reach the state they held at the
            // snapshot; the machine's pending ops live in the
            // thread's buffered window, not here.
            for (std::size_t i = 0; i < next; ++i)
                c->fn(i, c->buffer);
            c->buffer.clear();
            c->pos = 0;
            c->next_chunk = next;
        } else {
            corrupt("unknown op-stream type tag");
        }
        return s;
    }

    static void
    requireSuspendedBoundary(const Machine &m)
    {
        if (!m.was_suspended || m.aborted)
            unsupported("machine must be suspended at a sample "
                        "boundary to serialize");
        bool clear = m.tally.idle_ticks == 0 &&
                     m.tally.l2_accesses == 0 &&
                     m.tally.dram_accesses == 0;
        for (std::uint64_t v : m.tally.ops)
            clear = clear && v == 0;
        if (!clear)
            unsupported("machine holds unpriced energy tallies");
    }

    /** The cache chain and memory channels: all warmStartFrom() reads. */
    template <class Ar>
    static void
    ioMemorySide(Ar &a, Ref<Ar, Machine> m, const char *l1_count_what)
    {
        a.expect(m.l1s.size(), l1_count_what);
        for (auto &c : m.l1s)
            io(a, c);
        io(a, *m.l2);
        io(a, *m.memory);
    }

    /**
     * A machine suspended at a sample boundary. Decode overwrites a
     * machine freshly built for the same program and configuration.
     */
    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, Machine> m)
    {
        if constexpr (!Ar::kDecode)
            requireSuspendedBoundary(m);
        const std::size_t nthreads = m.threads.size();
        a.u64(m.cycle);
        a.f64(m.freq_mult);
        a.check(m.freq_mult > 0.0 && std::isfinite(m.freq_mult),
                "machine frequency multiplier not positive");
        a.f64(m.time_base);
        a.u64(m.cycle_base);
        a.u64(m.phase_idx);
        a.check(m.phase_idx <= m.program.phases().size(),
                "phase index out of range");
        a.u64(m.serial_next_task);
        a.u64(m.dynamic_next_task);
        a.u64(m.dequeue_free_at);
        a.u64(m.barrier_count);
        std::int64_t active = m.active_cores;
        a.i64(active);
        a.check(active >= 0 &&
                    active <= static_cast<std::int64_t>(m.cores.size()),
                "active core count out of range");
        if constexpr (Ar::kDecode)
            m.active_cores = static_cast<int>(active);
        a.boolean(m.mem_batch_ok);
        io(a, m.cfg.energy);
        io(a, m.totals);
        a.vec(m.locks, 8, [nthreads](auto &a2, auto &l) {
            a2.i64(l.holder);
            a2.check(l.holder >= -1 &&
                         l.holder < static_cast<int>(nthreads),
                     "lock holder out of range");
        });
        a.expect(nthreads, "thread count differs from the configuration");
        for (auto &t : m.threads) {
            // A thread parked at a barrier may still hold the stream
            // of its last task; enterPhase resets it before it is
            // ever read again, so canonicalize it away.
            bool has_stream = t.stream != nullptr && !t.at_barrier;
            a.boolean(has_stream);
            if (has_stream) {
                a.u64(t.current_task);
                if constexpr (Ar::kDecode) {
                    if (m.phase_idx >= m.program.phases().size())
                        corrupt("live stream in a finished machine");
                    t.stream = readStream(
                        a, m.program.phases()[m.phase_idx],
                        t.current_task);
                } else {
                    writeStream(a, *t.stream);
                }
            } else if constexpr (Ar::kDecode) {
                t.stream.reset();
                t.current_task = 0;
            }
            a.boolean(t.at_barrier);
            a.u64(t.sleep_until);
            a.i64(t.spin_failures);
            a.u64(t.next_task);
            a.u64(t.task_end);
            // Only the pending window of the bulk op buffer matters.
            std::size_t window = t.buf_len - t.buf_pos;
            a.u64(window);
            if constexpr (Ar::kDecode) {
                // The window can exceed kOpBufferCap: a chunked
                // stream's fillInto swaps whole chunks into the thread
                // buffer. Bound it by the bytes present (8 per op).
                if (window > a.r.remaining() / 8)
                    corrupt("op window larger than the remaining bytes");
                if (t.buf.size() < window)
                    t.buf.resize(window);
                t.buf_pos = 0;
                t.buf_len = window;
            }
            // Each word must be an op the machine can execute: a known
            // kind, a lock id within the machine's sanity bound, and a
            // release only of a lock the thread holds by then — held in
            // the decoded lock table and not released since, or
            // acquired earlier in the window.
            std::vector<std::uint64_t> acquired, released;
            for (std::size_t i = t.buf_pos; i < t.buf_len; ++i) {
                const MicroOp &op = t.buf[i];
                a.u64(t.buf[i].bits);
                a.check((op.bits >> 56) < kNumOpKinds,
                        "op window word with an unknown op kind");
                a.check((op.kind() != OpKind::LockAcquire &&
                         op.kind() != OpKind::LockRelease) ||
                            op.addr() < Machine::kMaxLockId,
                        "op window lock id out of range");
                if constexpr (Ar::kDecode) {
                    const std::uint64_t id = op.addr();
                    if (op.kind() == OpKind::LockAcquire) {
                        acquired.push_back(id);
                    } else if (op.kind() == OpKind::LockRelease) {
                        const auto own =
                            std::find(acquired.begin(), acquired.end(), id);
                        if (own != acquired.end()) {
                            acquired.erase(own);
                        } else if (id < m.locks.size() &&
                                   m.locks[id].holder ==
                                       static_cast<int>(t.id) &&
                                   std::find(released.begin(),
                                             released.end(),
                                             id) == released.end()) {
                            released.push_back(id);
                        } else {
                            corrupt("op window releases a lock its "
                                    "thread does not hold");
                        }
                    }
                }
            }
        }
        a.expect(m.cores.size(), "core count differs from the configuration");
        for (auto &c : m.cores) {
            a.boolean(c.active);
            a.vec(c.run_queue, 8, [nthreads](auto &a2, auto &v) {
                a2.u64(v);
                a2.check(v < nthreads, "run-queue thread id out of range");
            });
            a.u64(c.rr);
            a.check(c.run_queue.empty() || c.rr < c.run_queue.size(),
                    "round-robin cursor out of range");
            std::int64_t cur = c.current;
            a.i64(cur);
            a.check(cur >= -1 && cur < static_cast<std::int64_t>(nthreads),
                    "current thread id out of range");
            if constexpr (Ar::kDecode)
                c.current = static_cast<int>(cur);
            a.u64(c.busy_until);
            a.u64(c.quantum_end);
            a.boolean(c.idle_repeat);
            a.u64(c.idle_from);
        }
        a.expect(m.next_event.size(), "next-event array size mismatch");
        for (auto &ev : m.next_event)
            a.u64(ev);
        ioMemorySide(a, m, "L1 count differs from the configuration");

        if constexpr (Ar::kDecode) {
            // Derived and transient state: stride probes are pure
            // lookahead (outcome-invariant), so they restart cold; the
            // scan cache re-derives from next_event with probes zeroed.
            for (std::size_t c = 0; c < m.cores.size(); ++c) {
                m.resetProbe(m.cores[c]);
                m.refreshScanCache(c);
            }
            m.events_dirty = false;
            m.aborted = false;
            m.suspend_pending = false;
            m.was_suspended = true;
            m.tally = Machine::EnergyTally();
            m.energy_at_last_sample = m.totals.dynamic_energy;
        }
    }

    // ----- scenario value records -----------------------------------

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, ScenarioTask> t)
    {
        a.f64(t.arrival);
        a.enumeration(t.kernel, KernelId::Segment, "unknown kernel id");
        a.enumeration(t.size, InputSize::D, "unknown input size");
        a.u64(t.seed);
        a.i64(t.priority);
        a.f64(t.deadline);
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, RunResult> rr)
    {
        a.str(rr.program_name);
        a.i64(rr.sprint_cores);
        a.i64(rr.num_threads);
        a.f64(rr.dvfs_boost);
        a.f64(rr.task_time);
        a.f64(rr.dynamic_energy);
        a.f64(rr.peak_junction);
        a.f64(rr.final_melt_fraction);
        a.boolean(rr.sprint_exhausted);
        a.boolean(rr.hardware_throttled);
        a.f64(rr.sprint_duration);
        a.f64(rr.sprint_energy);
        a.f64(rr.cooldown_estimate);
        a.f64(rr.avg_power);
        a.f64(rr.sampled_time);
        a.f64(rr.sampled_energy);
        io(a, rr.junction_trace);
        io(a, rr.power_trace);
        io(a, rr.melt_trace);
        io(a, rr.machine);
    }

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, ScenarioTaskResult> t)
    {
        a.f64(t.arrival);
        a.f64(t.start);
        a.f64(t.finish);
        a.f64(t.response);
        a.boolean(t.sprint_granted);
        a.f64(t.melt_at_start);
        a.f64(t.melt_at_end);
        a.i64(t.priority);
        a.f64(t.deadline);
        a.boolean(t.deadline_met);
        a.i64(t.preemptions);
        io(a, t.run);
    }

    /**
     * A lower bound on a serialized ScenarioTaskResult: its fixed-width
     * fields alone take 308 bytes plus 8 per op kind. Bounds a
     * task-list length before anything is reserved for it.
     */
    static constexpr std::size_t kTaskResultBytes = 300;

    template <class Ar>
    static void
    io(Ar &a, Ref<Ar, PumpState> p)
    {
        a.f64(p.elapsed);
        a.f64(p.ramp_time);
        a.f64(p.above_tdp_time);
        a.f64(p.above_tdp_energy);
        a.f64(p.sampled_time);
        a.f64(p.sampled_energy);
        a.f64(p.peak_junction);
        a.boolean(p.sprint_exhausted);
        a.boolean(p.hardware_throttled);
        a.boolean(p.policy_throttled);
        io(a, p.junction_trace);
        io(a, p.power_trace);
        io(a, p.melt_trace);
    }

    /**
     * A ready-queue execution. A suspended one carries its machine:
     * decode rebuilds the program and machine from the config's
     * factories (the same three lines the engine's dispatch path runs),
     * then overwrites the machine's architectural state from the blob.
     */
    template <class Ar>
    static void
    io(Ar &a, const ScenarioConfig &cfg, Ref<Ar, ScenarioTaskExecution> ex)
    {
        io(a, ex.task);
        a.boolean(ex.started);
        a.boolean(ex.sprint_granted);
        a.i64(ex.preemptions);
        a.f64(ex.first_start);
        a.f64(ex.melt_at_start);
        io(a, ex.pump);
        bool has_machine = ex.machine != nullptr;
        a.boolean(has_machine);
        if (!has_machine)
            return;
        if constexpr (Ar::kDecode) {
            ex.run_cfg = ex.sprint_granted
                             ? cfg.platform
                             : consolidatedPlatform(cfg.platform);
            ex.program = std::make_unique<ParallelProgram>(
                cfg.program_factory
                    ? cfg.program_factory(ex.task)
                    : buildKernelProgram(ex.task.kernel, ex.task.size,
                                         ex.task.seed));
            ex.machine = prepareMachine(*ex.program, ex.run_cfg);
        }
        io(a, *ex.machine);
    }

    /**
     * The warm machine only ever feeds warmStartFrom(), which reads the
     * cache geometry, L1/L2/directory contents, the memory channel
     * residuals, and the cycle count — so the husk record skips
     * thread/core scheduler state entirely and decode rebuilds the
     * machine against an empty program.
     */
    template <class Ar>
    static void
    ioWarmHusk(Ar &a, const ScenarioConfig &cfg,
               Ref<Ar, ScenarioCheckpoint> ck)
    {
        bool granted = false;
        if constexpr (!Ar::kDecode)
            granted = ck.warm_machine->cfg.num_cores ==
                      cfg.platform.machineConfig().num_cores;
        a.boolean(granted);
        if constexpr (Ar::kDecode) {
            ck.warm_program = std::make_unique<ParallelProgram>("warm-husk");
            ck.warm_machine = prepareMachine(
                *ck.warm_program,
                granted ? cfg.platform : consolidatedPlatform(cfg.platform));
        }
        a.u64(ck.warm_machine->cycle);
        ioMemorySide(a, *ck.warm_machine,
                     "warm husk L1 count differs from the configuration");
    }

    /** The whole checkpoint payload. */
    template <class Ar>
    static void
    io(Ar &a, const ScenarioConfig &cfg, Ref<Ar, ScenarioCheckpoint> ck)
    {
        a.boolean(ck.done);
        io(a, ck.arrivals);
        io(a, ck.thermal);
        a.vecF64(ck.policy_state);
        a.f64(ck.now);
        a.f64(ck.busy);
        a.u64(ck.tasks_completed);
        a.i64(ck.sprints_granted);
        a.i64(ck.sprints_denied);
        a.i64(ck.sprints_exhausted);
        a.i64(ck.hardware_throttles);
        a.i64(ck.preemptions);
        a.i64(ck.tasks_dropped);
        a.i64(ck.deadlines_met);
        a.i64(ck.deadlines_missed);
        a.f64(ck.peak_junction);
        a.f64(ck.total_energy);
        a.f64(ck.total_sprint_time);
        a.f64(ck.total_sprint_energy);
        a.f64(ck.peak_melt);
        ioP2Quantile(a, ck.p50);
        ioP2Quantile(a, ck.p95);
        io(a, ck.melt_cycles);
        io(a, ck.traces);
        io(a, ck.surrogate);
        a.vec(ck.tasks, kTaskResultBytes,
              [](auto &a2, auto &t) { io(a2, t); });
        a.boolean(ck.have_peek);
        if (ck.have_peek)
            io(a, ck.peek);
        std::size_t nready = ck.ready.size();
        a.sz(nready);
        if constexpr (Ar::kDecode)
            ck.ready.reserve(nready);
        for (std::size_t i = 0; i < nready; ++i) {
            if constexpr (Ar::kDecode)
                ck.ready.push_back(std::make_unique<ScenarioTaskExecution>());
            else if (ck.ready[i] == nullptr)
                unsupported("null execution in the ready queue");
            io(a, cfg, *ck.ready[i]);
        }
        bool has_warm = ck.warm_machine != nullptr;
        a.boolean(has_warm);
        if (has_warm)
            ioWarmHusk(a, cfg, ck);
    }

    // ----- paranoia validation --------------------------------------

    static void
    validateMachineCoherence(const Machine &m, const std::string &who)
    {
        const SharedL2 &l2 = *m.l2;
        const Cache &tags = l2.tags;
        for (std::size_t slot = 0; slot < tags.numSlots(); ++slot) {
            if (!tags.validAt(slot))
                continue;
            const std::uint64_t line = tags.lineAt(slot);
            const SharedL2::DirEntry &e = l2.dir[slot];
            // Sharer bits are a conservative superset (clean L1
            // evictions are silent), so only their range is checked;
            // the dirty owner is kept precise by writebackFromL1 and
            // the downgrade path, so it must really hold the line
            // dirty.
            l2.forEachSharer(e, [&](int c) {
                if (c < 0 || c >= static_cast<int>(m.l1s.size()))
                    invariant(who + ": directory sharer id " +
                              std::to_string(c) + " out of range");
            });
            if (e.dirty_owner >= 0) {
                if (!l2.hasSharer(e, e.dirty_owner))
                    invariant(who + ": dirty owner " +
                              std::to_string(e.dirty_owner) +
                              " of line " + std::to_string(line) +
                              " is not a sharer");
                if (!m.l1s[static_cast<std::size_t>(e.dirty_owner)]
                         .isDirty(line))
                    invariant(who + ": dirty owner " +
                              std::to_string(e.dirty_owner) +
                              "'s L1 copy of line " +
                              std::to_string(line) + " is not dirty");
            }
        }
        for (std::size_t c = 0; c < m.l1s.size(); ++c) {
            const Cache &l1 = m.l1s[c];
            for (std::size_t slot = 0; slot < l1.numSlots(); ++slot) {
                if (!l1.validAt(slot))
                    continue;
                const std::uint64_t line = l1.lineAt(slot);
                const std::size_t l2slot = tags.findSlot(line);
                if (l2slot == Cache::kNoSlot)
                    invariant(who + ": core " + std::to_string(c) +
                              " holds line " + std::to_string(line) +
                              " absent from the L2 (inclusion "
                              "violated)");
                if (!l2.hasSharer(l2.dir[l2slot],
                                  static_cast<int>(c)))
                    invariant(who + ": core " + std::to_string(c) +
                              " holds line " + std::to_string(line) +
                              " but the directory does not list it as "
                              "a sharer");
            }
        }
    }

    static void
    validate(const ScenarioConfig &cfg, const ScenarioCheckpoint &ck)
    {
        const MobilePackageParams &pkg = cfg.platform.package;
        const double t_lo = pkg.ambient - 1.0;
        const double t_hi = pkg.t_junction_max + 50.0;
        for (std::size_t i = 0; i < ck.thermal.temps.size(); ++i) {
            const double t = ck.thermal.temps[i];
            if (!std::isfinite(t) || t < t_lo || t > t_hi)
                invariant("thermal node " + std::to_string(i) +
                          " temperature " + std::to_string(t) +
                          " outside [" + std::to_string(t_lo) + ", " +
                          std::to_string(t_hi) + "]");
        }
        for (std::size_t i = 0; i < ck.thermal.melt_fractions.size();
             ++i) {
            const double f = ck.thermal.melt_fractions[i];
            if (!std::isfinite(f) || f < 0.0 || f > 1.0)
                invariant("thermal node " + std::to_string(i) +
                          " melt fraction " + std::to_string(f) +
                          " outside [0, 1]");
        }
        for (std::size_t i = 0; i < ck.thermal.injected.size(); ++i) {
            if (!std::isfinite(ck.thermal.injected[i]))
                invariant("thermal node " + std::to_string(i) +
                          " injected power is not finite");
        }
        if (!std::isfinite(ck.now) || ck.now < 0.0)
            invariant("timeline clock " + std::to_string(ck.now) +
                      " is negative or non-finite");
        const double time_eps = 1e-9 * (1.0 + ck.now);
        if (!std::isfinite(ck.busy) || ck.busy < 0.0 ||
            ck.busy > ck.now + time_eps)
            invariant("busy time " + std::to_string(ck.busy) +
                      " exceeds the timeline clock " +
                      std::to_string(ck.now));
        if (!std::isfinite(ck.total_energy) || ck.total_energy < 0.0)
            invariant("total energy " +
                      std::to_string(ck.total_energy) +
                      " is negative or non-finite");
        const double energy_eps = 1e-9 * (1.0 + ck.total_energy);
        if (!std::isfinite(ck.total_sprint_energy) ||
            ck.total_sprint_energy < 0.0 ||
            ck.total_sprint_energy > ck.total_energy + energy_eps)
            invariant("sprint energy " +
                      std::to_string(ck.total_sprint_energy) +
                      " exceeds total energy " +
                      std::to_string(ck.total_energy));
        if (!std::isfinite(ck.total_sprint_time) ||
            ck.total_sprint_time < 0.0 ||
            ck.total_sprint_time > ck.now + time_eps)
            invariant("sprint time " +
                      std::to_string(ck.total_sprint_time) +
                      " exceeds the timeline clock");
        if (!std::isfinite(ck.peak_melt) || ck.peak_melt < 0.0 ||
            ck.peak_melt > 1.0)
            invariant("peak melt fraction " +
                      std::to_string(ck.peak_melt) +
                      " outside [0, 1]");
        if (!std::isfinite(ck.peak_junction) ||
            (ck.peak_junction != 0.0 && ck.peak_junction > t_hi))
            invariant("peak junction temperature " +
                      std::to_string(ck.peak_junction) +
                      " outside physical bounds");
        if (ck.sprints_granted < 0 || ck.sprints_denied < 0 ||
            ck.sprints_exhausted < 0 || ck.hardware_throttles < 0 ||
            ck.preemptions < 0 || ck.tasks_dropped < 0 ||
            ck.deadlines_met < 0 || ck.deadlines_missed < 0)
            invariant("negative event counter in the checkpoint");
        if (cfg.keep_task_results &&
            ck.tasks.size() >
                ck.tasks_completed +
                    static_cast<std::uint64_t>(ck.tasks_dropped))
            invariant("retained task results (" +
                      std::to_string(ck.tasks.size()) +
                      ") exceed tasks completed plus dropped");
        for (std::size_t i = 0; i < ck.ready.size(); ++i) {
            const ScenarioTaskExecution *ex = ck.ready[i].get();
            if (ex == nullptr)
                invariant("null execution in the ready queue");
            if (ex->machine)
                validateMachineCoherence(
                    *ex->machine, "ready[" + std::to_string(i) + "]");
        }
        if (ck.warm_machine)
            validateMachineCoherence(*ck.warm_machine, "warm machine");
    }

    // ----- config digest --------------------------------------------

    static void
    digestGovernor(BlobWriter &d, const GovernorConfig &g)
    {
        d.f64(g.margin);
        d.boolean(g.use_activity_estimate);
        d.f64(g.temp_guard);
        d.f64(g.software_grace);
    }

    static void
    digestPlatform(BlobWriter &d, const SprintConfig &p)
    {
        d.i64(p.sprint_cores);
        d.i64(p.num_threads);
        d.f64(p.dvfs_boost);
        d.f64(p.activation_ramp);
        const MobilePackageParams &pk = p.package;
        d.f64(pk.ambient);
        d.f64(pk.t_junction_max);
        d.f64(pk.c_junction);
        d.f64(pk.pcm_mass);
        d.f64(pk.pcm_latent_per_gram);
        d.f64(pk.pcm_sensible_per_gram);
        d.f64(pk.pcm_melt_temp);
        d.f64(pk.r_junction_to_pcm);
        d.f64(pk.r_pcm_to_case);
        d.f64(pk.r_case_to_ambient);
        d.f64(pk.c_case);
        digestGovernor(d, p.governor);
        d.boolean(p.software_migration_fails);
        const MachineConfig &m = p.machine;
        d.i64(m.num_cores);
        d.i64(m.num_threads);
        d.f64(m.nominal_clock);
        d.f64(m.freq_mult);
        d.sz(m.l1_bytes);
        d.i64(m.l1_assoc);
        d.sz(m.line_bytes);
        d.sz(m.l2.size_bytes);
        d.i64(m.l2.assoc);
        d.sz(m.l2.line_bytes);
        d.u64(m.l2.hit_latency);
        d.u64(m.l2.coherence_penalty);
        d.i64(static_cast<int>(m.l2.directory));
        d.i64(m.memory.channels);
        d.f64(m.memory.channel_bytes_per_sec);
        d.f64(m.memory.round_trip);
        d.sz(m.memory.line_bytes);
        d.u64(m.pause_sleep_cycles);
        d.u64(m.context_switch_cycles);
        d.u64(m.thread_quantum);
        d.u64(m.task_dequeue_cycles);
        d.u64(m.migration_cycles);
        d.i64(m.spin_tries_before_pause);
        d.i64(static_cast<int>(m.loop));
        const TechParams &tech = m.energy.tech();
        d.i64(tech.node_nm);
        d.f64(tech.vdd);
        d.f64(tech.clock);
        d.f64(tech.cap_scale);
    }

    static std::uint32_t
    digest(const ScenarioConfig &cfg)
    {
        BlobWriter d;
        digestPlatform(d, cfg.platform);
        d.i64(static_cast<int>(cfg.policy.kind));
        digestGovernor(d, cfg.policy.governor);
        d.f64(cfg.policy.pacing_period);
        d.f64(cfg.policy.resume_fraction);
        d.f64(cfg.policy.qos_slack);
        d.f64(cfg.policy.service_prior);
        d.i64(static_cast<int>(cfg.pattern));
        d.i64(cfg.num_tasks);
        d.f64(cfg.period);
        d.i64(cfg.burst_size);
        d.f64(cfg.burst_spacing);
        d.i64(static_cast<int>(cfg.kernel));
        d.i64(static_cast<int>(cfg.size));
        d.u64(cfg.seed);
        // Callbacks contribute presence only: the engine requires
        // them to be pure functions of their inputs.
        d.boolean(cfg.program_factory != nullptr);
        d.boolean(cfg.task_tuner != nullptr);
        d.boolean(cfg.policy_factory != nullptr);
        d.boolean(cfg.warm_caches);
        d.f64(cfg.hi_priority_fraction);
        d.f64(cfg.deadline_hi);
        d.f64(cfg.deadline_lo);
        d.f64(cfg.tail_rest);
        d.i64(cfg.idle_trace_samples);
        d.i64(static_cast<int>(cfg.trace_mode));
        d.sz(cfg.trace_capacity);
        d.boolean(cfg.keep_task_results);
        d.i64(static_cast<int>(cfg.idle_model));
        d.f64(cfg.idle_tolerance);
        d.boolean(cfg.generic_dispatch);
        d.i64(static_cast<int>(cfg.surrogate.tier));
        d.i64(cfg.surrogate.min_calibration);
        d.f64(cfg.surrogate.audit_period);
        d.f64(cfg.surrogate.tolerance);
        d.i64(cfg.surrogate.profile_samples);
        // validate_checkpoints is excluded: paranoia does not alter
        // the trajectory.
        return crc32(d.buffer().data(), d.size());
    }
};

std::uint32_t
scenarioConfigDigest(const ScenarioConfig &cfg)
{
    return CheckpointIO::digest(cfg);
}

std::vector<std::uint8_t>
serializeCheckpoint(const ScenarioConfig &cfg,
                    const ScenarioCheckpoint &ck)
{
    Enc e;
    CheckpointIO::io(e, cfg, ck);
    return BlobContainer::seal(scenarioConfigDigest(cfg), e.w.take());
}

ScenarioCheckpoint
deserializeCheckpoint(const ScenarioConfig &cfg,
                      const std::vector<std::uint8_t> &blob)
{
    Dec d{BlobContainer::open(blob, scenarioConfigDigest(cfg))};
    ScenarioCheckpoint ck;
    CheckpointIO::io(d, cfg, ck);
    d.r.expectEnd();
    // Restore the policy state once into the config's policy, as the
    // engine will on resume, so a malformed state fails here.
    if (!ck.policy_state.empty()) {
        const std::unique_ptr<SprintPolicy> policy =
            cfg.policy_factory ? cfg.policy_factory()
                               : makeSprintPolicy(cfg.policy);
        policy->restoreState(ck.policy_state);
    }
    return ck;
}

void
validateCheckpoint(const ScenarioConfig &cfg,
                   const ScenarioCheckpoint &ck)
{
    CheckpointIO::validate(cfg, ck);
}

// ----- CheckpointStore --------------------------------------------------

namespace {

namespace fs = std::filesystem;

[[noreturn]] void
ioError(const std::string &what)
{
    throw CheckpointError(CheckpointError::Kind::Io, what);
}

} // namespace

bool
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(0, std::ios::end);
    const std::streamoff len = in.tellg();
    if (len < 0)
        return false;
    in.seekg(0, std::ios::beg);
    out.resize(static_cast<std::size_t>(len));
    if (len > 0)
        in.read(reinterpret_cast<char *>(out.data()), len);
    return static_cast<bool>(in);
}

void
writeFileAtomic(const std::string &path, const void *data,
                std::size_t n)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            ioError("cannot open " + tmp + " for writing");
        out.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(n));
        out.flush();
        if (!out)
            ioError("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        ioError("cannot rename " + tmp + " to " + path);
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir))
{
}

CheckpointStore::~CheckpointStore()
{
    for (const auto &lock : writer_locks_)
        ::close(lock.second); // closing the fd releases the flock
}

std::string
CheckpointStore::lockPath(int shard) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard%04d.lock", shard);
    return dir_ + "/" + name;
}

void
CheckpointStore::lockShardWriter(int shard)
{
    for (const auto &lock : writer_locks_) {
        if (lock.first == shard)
            return; // already ours for this store's lifetime
    }
    const std::string path = lockPath(shard);
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                          0644);
    if (fd < 0)
        ioError("cannot open writer lock " + path);
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        ::close(fd);
        ioError("another live writer holds shard " +
                std::to_string(shard) + "'s checkpoint lock (" + path +
                "); refusing to publish or prune its files");
    }
    writer_locks_.emplace_back(shard, fd);
}

std::string
CheckpointStore::checkpointPath(int shard, std::uint64_t seq) const
{
    char name[64];
    std::snprintf(name, sizeof(name), "shard%04d-%012llu.ck", shard,
                  static_cast<unsigned long long>(seq));
    return dir_ + "/" + name;
}

std::vector<std::pair<std::uint64_t, std::string>>
CheckpointStore::shardFiles(int shard) const
{
    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "shard%04d-", shard);
    const std::size_t plen = std::strlen(prefix);
    std::vector<std::pair<std::uint64_t, std::string>> files;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        const std::string fname = entry.path().filename().string();
        unsigned long long seq = 0;
        if (fname.rfind(prefix, 0) != 0 || fname.size() <= plen + 3 ||
            fname.compare(fname.size() - 3, 3, ".ck") != 0 ||
            std::sscanf(fname.c_str() + plen, "%llu", &seq) != 1)
            continue;
        files.emplace_back(static_cast<std::uint64_t>(seq),
                           entry.path().string());
    }
    std::sort(files.begin(), files.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    return files;
}

void
CheckpointStore::save(int shard, std::uint64_t seq,
                      const std::vector<std::uint8_t> &blob)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        ioError("cannot create checkpoint directory " + dir_ + ": " +
                ec.message());

    // Single-writer enforcement: hold this shard's advisory lock
    // before publishing or pruning anything (see the class comment).
    lockShardWriter(shard);

    // Write-temp-then-rename: a crash at any instant leaves either the
    // previous complete state or the new one, never a torn file.
    writeFileAtomic(checkpointPath(shard, seq), blob.data(), blob.size());

    // Keep this checkpoint and its predecessor. Every other file of the
    // shard goes, newer ones included: a restarted chain supersedes
    // what an earlier run of the shard left behind.
    for (const auto &file : shardFiles(shard)) {
        if (file.first != seq && file.first + 1 != seq)
            fs::remove(file.second, ec); // best effort
    }
}

std::vector<CheckpointStore::Candidate>
CheckpointStore::loadCandidates(int shard) const
{
    std::vector<Candidate> out;
    for (const auto &file : shardFiles(shard)) {
        Candidate c;
        c.seq = file.first;
        if (readFileBytes(file.second, c.blob))
            out.push_back(std::move(c));
    }
    return out;
}

} // namespace csprint
