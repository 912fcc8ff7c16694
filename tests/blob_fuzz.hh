/**
 * @file
 * Seeded mutational fuzz of a sealed-blob decoder (common/blob.hh
 * frames). A bit flip or a truncated prefix of a sealed blob stops at
 * the container's CRC and length checks, so it never reaches a field
 * validator. This loop opens the payload instead, mutates it (bit
 * flip, byte set, u64 length inflation, truncation, splice with
 * another seed), and re-seals it with BlobContainer::seal under the
 * seed's own digest, so every mutated input passes the frame and
 * meets the decoder's field checks.
 *
 * The oracle: a decode either succeeds or throws CheckpointError
 * (std::invalid_argument too, where the caller allows it). Anything
 * else escaping is a test failure; crashes and UB are left to the
 * ASan/UBSan CI job. The corpus is a pure function of the seed, which
 * is CSPRINT_DIFF_SEED when set (logged), so a CI failure replays.
 */

#ifndef CSPRINT_TESTS_BLOB_FUZZ_HH
#define CSPRINT_TESTS_BLOB_FUZZ_HH

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/blob.hh"
#include "common/rng.hh"

namespace csprint {
namespace fuzz {

/** Frame bytes around the payload: magic, version, digest, length. */
constexpr std::size_t kHeaderBytes = 20;
/** The CRC32 trailer. */
constexpr std::size_t kTrailerBytes = 4;

/** CSPRINT_DIFF_SEED when set, else @p fallback; logged once per call. */
inline std::uint64_t
corpusSeed(std::uint64_t fallback)
{
    std::uint64_t s = fallback;
    if (const char *env = std::getenv("CSPRINT_DIFF_SEED")) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(env, &end, 10);
        if (end != env)
            s = v;
    }
    std::cout << "[ fuzz-seed ] CSPRINT_DIFF_SEED=" << s << "\n";
    return s;
}

inline std::vector<std::uint8_t>
payloadOf(const std::vector<std::uint8_t> &blob)
{
    return {blob.begin() + kHeaderBytes, blob.end() - kTrailerBytes};
}

/** The digest slot of a sealed blob's header. */
inline std::uint32_t
digestOf(const std::vector<std::uint8_t> &blob)
{
    return static_cast<std::uint32_t>(blob[8]) |
           static_cast<std::uint32_t>(blob[9]) << 8 |
           static_cast<std::uint32_t>(blob[10]) << 16 |
           static_cast<std::uint32_t>(blob[11]) << 24;
}

/**
 * An offset into @p n bytes, log-uniform in scale: small records at
 * the front of a payload are hit as often as the megabytes of cache
 * arrays behind them.
 */
inline std::size_t
offsetIn(Rng &rng, std::size_t n)
{
    if (n == 0)
        return 0;
    int bits = 0;
    while ((std::size_t(1) << bits) < n)
        ++bits;
    const std::uint64_t span = std::uint64_t(1)
                               << rng.uniformInt(static_cast<std::uint64_t>(
                                      bits + 1));
    return static_cast<std::size_t>(rng.uniformInt(span)) % n;
}

inline std::uint64_t
loadU64(const std::vector<std::uint8_t> &p, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[at + i]) << (8 * i);
    return v;
}

inline void
storeU64(std::vector<std::uint8_t> &p, std::size_t at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Apply one random mutation to @p p; returns its name for the log. */
inline const char *
mutateOnce(std::vector<std::uint8_t> &p,
           const std::vector<std::vector<std::uint8_t>> &donors, Rng &rng)
{
    switch (rng.uniformInt(5)) {
    case 0:
        if (p.empty())
            return "bitflip(empty)";
        p[offsetIn(rng, p.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniformInt(8));
        return "bitflip";
    case 1: {
        if (p.empty())
            return "byteset(empty)";
        static const std::uint8_t kValues[] = {0x00, 0x01, 0x02, 0x7f,
                                               0x80, 0xfe, 0xff};
        const std::uint64_t k = rng.uniformInt(sizeof(kValues) + 1);
        p[offsetIn(rng, p.size())] =
            k < sizeof(kValues) ? kValues[k]
                                : static_cast<std::uint8_t>(rng.next());
        return "byteset";
    }
    case 2: {
        // Inflate a u64 that reads like a length or count: the first
        // of a few sampled offsets whose value is small and nonzero.
        if (p.size() < 8)
            return "inflate(short)";
        std::size_t at = offsetIn(rng, p.size() - 7);
        for (int tries = 0; tries < 32; ++tries) {
            const std::size_t cand = offsetIn(rng, p.size() - 7);
            const std::uint64_t v = loadU64(p, cand);
            if (v > 0 && v <= p.size()) {
                at = cand;
                break;
            }
        }
        const std::uint64_t v = loadU64(p, at);
        const std::uint64_t deltas[] = {
            1, 8, v, p.size(), std::uint64_t(1) << 32, ~v};
        storeU64(p, at, v + deltas[rng.uniformInt(6)]);
        return "inflate";
    }
    case 3:
        p.resize(offsetIn(rng, p.size()));
        return "truncate";
    default: {
        // Splice: this payload's head onto a donor's tail.
        const std::vector<std::uint8_t> &d =
            donors[rng.uniformInt(donors.size())];
        const std::size_t head = offsetIn(rng, p.size() + 1);
        const std::size_t from = offsetIn(rng, d.size() + 1);
        p.resize(head);
        p.insert(p.end(), d.begin() + static_cast<long>(from), d.end());
        return "splice";
    }
    }
}

/** @p what with every digit run folded to '#', for counting kinds. */
inline std::string
messageShape(const std::string &what)
{
    std::string out;
    for (char c : what) {
        if (std::isdigit(static_cast<unsigned char>(c))) {
            if (out.empty() || out.back() != '#')
                out += '#';
        } else {
            out += c;
        }
    }
    return out;
}

struct Report
{
    int accepted = 0;
    int rejected = 0;
    std::set<std::string> messages; ///< distinct rejection shapes
};

/**
 * Run @p iterations mutated decodes over the sealed @p seeds. Each
 * case picks a seed, applies one to three mutations, re-seals the
 * payload under the seed's digest and calls decode(seedIndex, blob).
 * @p invalid_argument_ok admits std::invalid_argument as a rejection
 * (the fleet spec decoder ends in validateFleetSpec).
 */
template <typename Decode>
Report
run(const char *name, const std::vector<std::vector<std::uint8_t>> &seeds,
    int iterations, std::uint64_t seed, bool invalid_argument_ok,
    Decode &&decode)
{
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const auto &b : seeds)
        payloads.push_back(payloadOf(b));
    Rng rng(seed);
    Report rep;
    for (int it = 0; it < iterations; ++it) {
        const std::size_t which =
            static_cast<std::size_t>(rng.uniformInt(seeds.size()));
        std::vector<std::uint8_t> p = payloads[which];
        std::string how;
        const int n = 1 + static_cast<int>(rng.uniformInt(3));
        for (int k = 0; k < n; ++k)
            how += std::string(k ? "+" : "") +
                   mutateOnce(p, payloads, rng);
        const std::vector<std::uint8_t> blob =
            BlobContainer::seal(digestOf(seeds[which]), std::move(p));
        try {
            decode(which, blob);
            ++rep.accepted;
        } catch (const CheckpointError &e) {
            ++rep.rejected;
            rep.messages.insert(messageShape(e.what()));
        } catch (const std::invalid_argument &e) {
            if (!invalid_argument_ok)
                ADD_FAILURE() << name << " iteration " << it << " (seed "
                              << which << ", " << how
                              << "): std::invalid_argument escaped: "
                              << e.what();
            ++rep.rejected;
            rep.messages.insert(messageShape(e.what()));
        } catch (const std::exception &e) {
            ADD_FAILURE() << name << " iteration " << it << " (seed "
                          << which << ", " << how
                          << "): untyped exception escaped: " << e.what();
        }
    }
    std::cout << "[ fuzz ] " << name << ": " << iterations
              << " cases, " << rep.accepted << " accepted, "
              << rep.rejected << " rejected, " << rep.messages.size()
              << " distinct rejection messages\n";
    for (const std::string &m : rep.messages)
        std::cout << "[ fuzz ]   " << m << "\n";
    return rep;
}

} // namespace fuzz
} // namespace csprint

#endif // CSPRINT_TESTS_BLOB_FUZZ_HH
