/**
 * @file
 * Portable binary serialization for checkpoints: a little-endian,
 * versioned, CRC32-checksummed byte format with a typed error on
 * every malformed input. BlobWriter appends primitives and vectors to
 * a byte buffer; BlobReader consumes the same sequence, throwing
 * CheckpointError (never invoking UB) on truncation or corruption.
 *
 * Container layout (all little-endian):
 *
 *   u32 magic  ("CSCK")
 *   u32 format version
 *   u32 config digest (CRC32 over a canonical config dump)
 *   u64 payload length
 *   ...payload bytes...
 *   u32 CRC32 over the payload
 *
 * Doubles are bit-preserved via their IEEE-754 u64 image, so a
 * round-trip is byte-exact, NaN payloads and signed zeros included.
 *
 * Enc and Dec wrap the writer and the reader behind one set of calls,
 * so a record's field list is written once and serves both directions.
 */

#ifndef CSPRINT_COMMON_BLOB_HH
#define CSPRINT_COMMON_BLOB_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace csprint {

/** Typed failure raised by checkpoint load/validation paths. */
class CheckpointError : public std::runtime_error
{
  public:
    enum class Kind
    {
        BadMagic,    ///< not a checkpoint blob at all
        BadVersion,  ///< format version this build cannot read
        BadDigest,   ///< checkpoint from a different configuration
        Truncated,   ///< ran out of bytes mid-record
        BadChecksum, ///< payload CRC mismatch (bit rot / torn write)
        Corrupt,     ///< structurally invalid contents
        Unsupported, ///< state the serializer cannot capture
        Io,          ///< filesystem-level failure
        Invariant,   ///< paranoia-mode validation failure
    };

    CheckpointError(Kind kind, const std::string &what)
        : std::runtime_error(what), kind_(kind)
    {
    }

    Kind kind() const { return kind_; }

    /** Stable name for the kind ("truncated", "bad_checksum", ...). */
    static const char *kindName(Kind kind);

  private:
    Kind kind_;
};

/** CRC32 (IEEE 802.3 polynomial, reflected) over @p n bytes. */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t seed = 0);

/** Append-only little-endian byte sink. */
class BlobWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { putLe(v, 2); }
    void u32(std::uint32_t v) { putLe(v, 4); }
    void u64(std::uint64_t v) { putLe(v, 8); }
    void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void sz(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }

    void f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void str(const std::string &s)
    {
        sz(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    void putLe(std::uint64_t v, int nbytes)
    {
        for (int i = 0; i < nbytes; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked little-endian byte source. Every read throws
 * CheckpointError::Truncated rather than walking off the buffer, and
 * vector lengths are validated against the bytes remaining before any
 * allocation so a fuzzed length field cannot trigger OOM.
 */
class BlobReader
{
  public:
    BlobReader(const std::uint8_t *data, std::size_t n)
        : data_(data), size_(n)
    {
    }

    explicit BlobReader(const std::vector<std::uint8_t> &buf)
        : BlobReader(buf.data(), buf.size())
    {
    }

    std::uint8_t u8() { return static_cast<std::uint8_t>(getLe(1)); }
    std::uint16_t u16() { return static_cast<std::uint16_t>(getLe(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(getLe(4)); }
    std::uint64_t u64() { return getLe(8); }
    std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool boolean() { return u8() != 0; }

    std::size_t sz()
    {
        const std::uint64_t v = u64();
        if (v > size_ - pos_)
            fail("size field exceeds remaining bytes");
        return static_cast<std::size_t>(v);
    }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str()
    {
        const std::size_t n = sz();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    void bytes(void *out, std::size_t n)
    {
        need(n);
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    /**
     * Read the length prefix of a sequence whose elements each take at
     * least @p elemBytes serialized bytes, rejecting a length larger
     * than the remaining input before anything is reserved for it.
     */
    std::size_t count(std::size_t elemBytes)
    {
        const std::size_t n = sz();
        if (elemBytes > 0 && n > (size_ - pos_) / elemBytes)
            fail("vector length exceeds remaining bytes");
        return n;
    }

    std::size_t remaining() const { return size_ - pos_; }
    std::size_t position() const { return pos_; }

    /** Throw Corrupt unless the whole buffer was consumed. */
    void expectEnd() const
    {
        if (pos_ != size_)
            throw CheckpointError(
                CheckpointError::Kind::Corrupt,
                "checkpoint payload has " +
                    std::to_string(size_ - pos_) +
                    " trailing bytes past the last record");
    }

  private:
    void need(std::size_t n) const
    {
        if (n > size_ - pos_)
            throw CheckpointError(
                CheckpointError::Kind::Truncated,
                "checkpoint truncated: need " + std::to_string(n) +
                    " bytes at offset " + std::to_string(pos_) +
                    ", have " + std::to_string(size_ - pos_));
    }

    [[noreturn]] void fail(const char *msg) const
    {
        throw CheckpointError(CheckpointError::Kind::Truncated,
                              std::string(msg) + " at offset " +
                                  std::to_string(pos_));
    }

    std::uint64_t getLe(int nbytes)
    {
        need(static_cast<std::size_t>(nbytes));
        std::uint64_t v = 0;
        for (int i = 0; i < nbytes; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += static_cast<std::size_t>(nbytes);
        return v;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Container framing shared by every checkpoint blob. */
struct BlobContainer
{
    static constexpr std::uint32_t kMagic = 0x4b435343u; // "CSCK"
    /**
     * Format version; bumped whenever the payload layout changes or a
     * knob leaves the config digest.
     */
    static constexpr std::uint32_t kVersion = 3;

    /** Wrap @p payload in the magic/version/digest/CRC frame. */
    static std::vector<std::uint8_t>
    seal(std::uint32_t configDigest, std::vector<std::uint8_t> payload);

    /**
     * Validate the frame of @p blob and return a reader positioned at
     * the payload. Throws CheckpointError on a bad magic, unreadable
     * version, digest mismatch, truncation, trailing garbage, or CRC
     * mismatch.
     */
    static BlobReader open(const std::vector<std::uint8_t> &blob,
                           std::uint32_t expectConfigDigest);
};

// ----- One field list per record -----------------------------------------
//
// A record's byte layout is written once, as a function template over
// the direction:
//
//   template <class Ar> void io(Ar &a, Ref<Ar, T> x)
//   {
//       a.u64(x.count);
//       a.f64(x.mean);
//       a.check(x.mean >= 0.0, "negative mean");
//   }
//
// instantiated with Enc (append each field to a BlobWriter) and Dec
// (overwrite each field from a BlobReader). Both expose the same calls,
// so the two directions cannot drift apart, and each call inlines to
// the BlobWriter/BlobReader call a hand-written pair would make. Ref
// makes the record const on encode, so an encode can never modify the
// state it saves. Decode-only work (a check whose message is built from
// the data, objects rebuilt from the configuration, fix-ups after the
// fields) sits in `if constexpr (Ar::kDecode)` blocks.

/** The record type an archive works on: const when encoding. */
template <class Ar, class T>
using Ref = std::conditional_t<Ar::kDecode, T &, const T &>;

/** Throw CheckpointError::Corrupt with @p what. */
[[noreturn]] inline void
corrupt(const std::string &what)
{
    throw CheckpointError(CheckpointError::Kind::Corrupt, what);
}

/** The encode direction: every call appends one field. */
struct Enc
{
    static constexpr bool kDecode = false;

    BlobWriter w;

    void u8(std::uint8_t v) { w.u8(v); }
    void u16(std::uint16_t v) { w.u16(v); }
    void u32(std::uint32_t v) { w.u32(v); }
    void u64(std::uint64_t v) { w.u64(v); }
    void i16(std::int16_t v) { w.i16(v); }
    void i64(std::int64_t v) { w.i64(v); }
    void f64(double v) { w.f64(v); }
    void boolean(bool v) { w.boolean(v); }
    /** A length that decode bounds by the bytes remaining. */
    void sz(std::size_t v) { w.sz(v); }
    void str(const std::string &s) { w.str(s); }

    /** An enum stored as a u8; decode rejects a value past @p last. */
    template <class E>
    void enumeration(E v, E, const char *)
    {
        w.u8(static_cast<std::uint8_t>(v));
    }

    /** A u64 the configuration fixes; decode rejects any other value. */
    void expect(std::uint64_t v, const char *) { w.u64(v); }

    /** A decoded-value check; nothing to check on encode. */
    void check(bool, const char *) {}

    /**
     * A length-prefixed sequence; @p one(archive, element) lists one
     * element's fields. @p elemBytes is the least an element occupies.
     */
    template <class T, class Fn>
    void vec(const std::vector<T> &v, std::size_t, Fn &&one)
    {
        w.sz(v.size());
        for (const T &x : v)
            one(*this, x);
    }

    void vecU64(const std::vector<std::uint64_t> &v)
    {
        w.sz(v.size());
        for (std::uint64_t x : v)
            w.u64(x);
    }

    void vecF64(const std::vector<double> &v)
    {
        w.sz(v.size());
        for (double x : v)
            w.f64(x);
    }
};

/** The decode direction: every call overwrites one field, validated. */
struct Dec
{
    static constexpr bool kDecode = true;

    BlobReader r;

    template <class T> void u8(T &v) { v = static_cast<T>(r.u8()); }
    template <class T> void u16(T &v) { v = static_cast<T>(r.u16()); }
    template <class T> void u32(T &v) { v = static_cast<T>(r.u32()); }
    template <class T> void u64(T &v) { v = static_cast<T>(r.u64()); }
    template <class T> void i16(T &v) { v = static_cast<T>(r.i16()); }
    template <class T> void i64(T &v) { v = static_cast<T>(r.i64()); }
    void f64(double &v) { v = r.f64(); }
    void boolean(bool &v) { v = r.boolean(); }
    void sz(std::size_t &v) { v = r.sz(); }
    void str(std::string &s) { s = r.str(); }

    template <class E>
    void enumeration(E &v, E last, const char *what)
    {
        const std::uint8_t x = r.u8();
        if (x > static_cast<std::uint8_t>(last))
            corrupt(what);
        v = static_cast<E>(x);
    }

    void expect(std::uint64_t v, const char *what)
    {
        if (r.u64() != v)
            corrupt(what);
    }

    void check(bool ok, const char *what)
    {
        if (!ok)
            corrupt(what);
    }

    template <class T, class Fn>
    void vec(std::vector<T> &v, std::size_t elemBytes, Fn &&one)
    {
        const std::size_t n = r.count(elemBytes);
        v.clear();
        v.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            v.emplace_back();
            one(*this, v.back());
        }
    }

    void vecU64(std::vector<std::uint64_t> &v)
    {
        vec(v, 8, [](Dec &d, std::uint64_t &x) { x = d.r.u64(); });
    }

    void vecF64(std::vector<double> &v)
    {
        vec(v, 8, [](Dec &d, double &x) { x = d.r.f64(); });
    }
};

} // namespace csprint

#endif // CSPRINT_COMMON_BLOB_HH
