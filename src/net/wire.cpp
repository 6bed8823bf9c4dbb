#include "net/wire.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

namespace swh::net::wire {

namespace {

template <class... Ts>
struct Overload : Ts... {
    using Ts::operator()...;
};
template <class... Ts>
Overload(Ts...) -> Overload<Ts...>;

// ---- Writer -------------------------------------------------------------

/// Appends LE fields to a byte vector. encode() reserves the frame's
/// length slot up front and patches it once the body is known.
class Writer {
public:
    explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

    void u8(std::uint8_t v) { out_.push_back(v); }

    void u32(std::uint32_t v) {
        out_.push_back(static_cast<std::uint8_t>(v));
        out_.push_back(static_cast<std::uint8_t>(v >> 8));
        out_.push_back(static_cast<std::uint8_t>(v >> 16));
        out_.push_back(static_cast<std::uint8_t>(v >> 24));
    }

    void u64(std::uint64_t v) {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    /// Encode-side mirror of the decode bound: a string is never put on
    /// the wire longer than kMaxStringBytes, marker included, so both
    /// directions agree on the worst case.
    void str(const std::string& s) {
        if (s.size() <= kMaxStringBytes) {
            u32(static_cast<std::uint32_t>(s.size()));
            out_.insert(out_.end(), s.begin(), s.end());
            return;
        }
        const std::string marker = kTruncationMarker;
        const std::size_t keep = kMaxStringBytes - marker.size();
        u32(static_cast<std::uint32_t>(kMaxStringBytes));
        out_.insert(out_.end(), s.begin(),
                    s.begin() + static_cast<std::ptrdiff_t>(keep));
        out_.insert(out_.end(), marker.begin(), marker.end());
    }

private:
    std::vector<std::uint8_t>& out_;
};

/// Opens a frame (length placeholder + version + tag); patch_len() must
/// be called exactly once after the payload is written.
std::size_t begin_frame(std::vector<std::uint8_t>& out, Tag tag) {
    const std::size_t len_at = out.size();
    Writer w(out);
    w.u32(0);  // patched below
    w.u8(kWireVersion);
    w.u8(static_cast<std::uint8_t>(tag));
    return len_at;
}

void patch_len(std::vector<std::uint8_t>& out, std::size_t len_at) {
    const std::size_t body = out.size() - len_at - 4;
    out[len_at] = static_cast<std::uint8_t>(body);
    out[len_at + 1] = static_cast<std::uint8_t>(body >> 8);
    out[len_at + 2] = static_cast<std::uint8_t>(body >> 16);
    out[len_at + 3] = static_cast<std::uint8_t>(body >> 24);
}

// ---- Reader -------------------------------------------------------------

/// Strict bounds-checked cursor over one frame body. Every getter
/// returns false (and latches a reason) instead of reading past the
/// end; finish() additionally rejects trailing bytes, so a frame must
/// be consumed exactly.
class Reader {
public:
    Reader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}

    bool u8(std::uint8_t& v) {
        if (remaining() < 1) return fail("truncated payload");
        v = *p_++;
        return true;
    }

    bool u32(std::uint32_t& v) {
        if (remaining() < 4) return fail("truncated payload");
        v = static_cast<std::uint32_t>(p_[0]) |
            static_cast<std::uint32_t>(p_[1]) << 8 |
            static_cast<std::uint32_t>(p_[2]) << 16 |
            static_cast<std::uint32_t>(p_[3]) << 24;
        p_ += 4;
        return true;
    }

    bool u64(std::uint64_t& v) {
        std::uint32_t lo = 0;
        std::uint32_t hi = 0;
        if (!u32(lo) || !u32(hi)) return false;
        v = static_cast<std::uint64_t>(hi) << 32 | lo;
        return true;
    }

    /// Doubles must be finite on the wire: a forged NaN/Inf rate would
    /// poison the PSS weight estimates downstream.
    bool f64(double& v) {
        std::uint64_t bits = 0;
        if (!u64(bits)) return false;
        v = std::bit_cast<double>(bits);
        if (!std::isfinite(v)) return fail("non-finite double");
        return true;
    }

    /// Bounded string decode (ISSUE 10 satellite): the declared length
    /// is validated against the bytes actually present before anything
    /// is copied, and anything past kMaxStringBytes is skipped — the
    /// stored string keeps a prefix plus the truncation marker instead.
    bool str(std::string& v) {
        std::uint32_t len = 0;
        if (!u32(len)) return false;
        if (len > remaining()) return fail("string length past frame end");
        if (len <= kMaxStringBytes) {
            v.assign(reinterpret_cast<const char*>(p_), len);
        } else {
            const std::string marker = kTruncationMarker;
            const std::size_t keep = kMaxStringBytes - marker.size();
            v.assign(reinterpret_cast<const char*>(p_), keep);
            v += marker;
        }
        p_ += len;
        return true;
    }

    /// Validates an element count against the remaining bytes BEFORE
    /// the caller allocates anything.
    bool count(std::uint32_t& n, std::size_t elem_bytes) {
        if (!u32(n)) return false;
        if (static_cast<std::uint64_t>(n) * elem_bytes > remaining()) {
            return fail("element count past frame end");
        }
        return true;
    }

    bool finish() {
        if (p_ != end_) return fail("trailing bytes after payload");
        return true;
    }

    bool fail(const char* why) {
        if (error_ == nullptr) error_ = why;
        return false;
    }

    const char* error() const { return error_; }

    std::size_t remaining() const {
        return static_cast<std::size_t>(end_ - p_);
    }

private:
    const std::uint8_t* p_;
    const std::uint8_t* end_;
    const char* error_ = nullptr;
};

// ---- Shared payload pieces ---------------------------------------------

constexpr std::size_t kHitBytes = 8;    // u32 db_index + i32 score
constexpr std::size_t kTaskBytes = 16;  // u32 id + u32 query_index + u64

void put_task_result(Writer& w, const core::TaskResult& r) {
    w.u32(r.task);
    w.u32(r.query_index);
    w.u64(r.cells);
    w.u32(static_cast<std::uint32_t>(r.hits.size()));
    for (const core::Hit& h : r.hits) {
        w.u32(h.db_index);
        w.u32(static_cast<std::uint32_t>(h.score));
    }
}

bool get_task_result(Reader& r, core::TaskResult& out) {
    std::uint32_t hit_count = 0;
    if (!r.u32(out.task) || !r.u32(out.query_index) || !r.u64(out.cells) ||
        !r.count(hit_count, kHitBytes)) {
        return false;
    }
    out.hits.resize(hit_count);
    for (core::Hit& h : out.hits) {
        std::uint32_t score_bits = 0;
        if (!r.u32(h.db_index) || !r.u32(score_bits)) return false;
        h.score = static_cast<align::Score>(score_bits);
    }
    return true;
}

bool get_pe_kind(Reader& r, core::PeKind& kind) {
    std::uint8_t raw = 0;
    if (!r.u8(raw)) return false;
    if (raw > static_cast<std::uint8_t>(core::PeKind::Gpu)) {
        return r.fail("PeKind byte out of range");
    }
    kind = static_cast<core::PeKind>(raw);
    return true;
}

/// Common frame-header validation; returns the tag and positions `r`
/// at the payload.
bool open_body(Reader& r, std::uint8_t& tag) {
    std::uint8_t version = 0;
    if (!r.u8(version) || !r.u8(tag)) return false;
    if (version != kWireVersion) return r.fail("unsupported wire version");
    return true;
}

void set_error(std::string* error, const Reader& r, const char* fallback) {
    if (error == nullptr) return;
    *error = r.error() != nullptr ? r.error() : fallback;
}

}  // namespace

// ---- Encoding -----------------------------------------------------------

void encode(const MasterMsg& msg, std::vector<std::uint8_t>& out) {
    std::visit(
        Overload{
            [&](const MsgRegister& m) {
                const std::size_t at = begin_frame(out, Tag::kRegister);
                Writer w(out);
                w.u32(m.pe);
                w.u8(static_cast<std::uint8_t>(m.kind));
                patch_len(out, at);
            },
            [&](const MsgWorkRequest& m) {
                const std::size_t at = begin_frame(out, Tag::kWorkRequest);
                Writer w(out);
                w.u32(m.pe);
                patch_len(out, at);
            },
            [&](const MsgProgress& m) {
                const std::size_t at = begin_frame(out, Tag::kProgress);
                Writer w(out);
                w.u32(m.pe);
                w.f64(m.cells_per_second);
                patch_len(out, at);
            },
            [&](const MsgTaskDone& m) {
                const std::size_t at = begin_frame(out, Tag::kTaskDone);
                Writer w(out);
                w.u32(m.pe);
                w.u32(m.task);
                put_task_result(w, m.result);
                patch_len(out, at);
            },
            [&](const MsgDeregister& m) {
                const std::size_t at = begin_frame(out, Tag::kDeregister);
                Writer w(out);
                w.u32(m.pe);
                patch_len(out, at);
            },
            [&](const MsgHeartbeat& m) {
                const std::size_t at = begin_frame(out, Tag::kHeartbeat);
                Writer w(out);
                w.u32(m.pe);
                patch_len(out, at);
            },
            [&](const MsgTaskFailed& m) {
                const std::size_t at = begin_frame(out, Tag::kTaskFailed);
                Writer w(out);
                w.u32(m.pe);
                w.u32(m.task);
                w.str(m.what);
                patch_len(out, at);
            },
        },
        msg);
}

void encode(const SlaveMsg& msg, std::vector<std::uint8_t>& out) {
    std::visit(
        Overload{
            [&](const MsgAssign& m) {
                const std::size_t at = begin_frame(out, Tag::kAssign);
                Writer w(out);
                w.u32(static_cast<std::uint32_t>(m.tasks.size()));
                for (const core::Task& t : m.tasks) {
                    w.u32(t.id);
                    w.u32(t.query_index);
                    w.u64(t.cells);
                }
                patch_len(out, at);
            },
            [&](const MsgNoWorkYet&) {
                patch_len(out, begin_frame(out, Tag::kNoWorkYet));
            },
            [&](const MsgShutdown&) {
                patch_len(out, begin_frame(out, Tag::kShutdown));
            },
        },
        msg);
}

void encode(const Hello& hello, std::vector<std::uint8_t>& out) {
    const std::size_t at = begin_frame(out, Tag::kHello);
    Writer w(out);
    w.u32(kHelloMagic);
    w.u8(static_cast<std::uint8_t>(hello.kind));
    w.str(hello.label);
    patch_len(out, at);
}

void encode(const Welcome& welcome, std::vector<std::uint8_t>& out) {
    const std::size_t at = begin_frame(out, Tag::kWelcome);
    Writer w(out);
    w.u32(welcome.pe);
    w.u32(welcome.top_k);
    w.f64(welcome.notify_period_s);
    w.f64(welcome.heartbeat_period_s);
    w.u8(welcome.liveness ? 1 : 0);
    patch_len(out, at);
}

// ---- Decoding -----------------------------------------------------------

std::optional<MasterMsg> decode_master(const std::uint8_t* body,
                                       std::size_t size,
                                       std::string* error) {
    Reader r(body, size);
    std::uint8_t tag = 0;
    if (!open_body(r, tag)) {
        set_error(error, r, "malformed frame");
        return std::nullopt;
    }
    std::optional<MasterMsg> out;
    switch (static_cast<Tag>(tag)) {
        case Tag::kRegister: {
            MsgRegister m;
            if (r.u32(m.pe) && get_pe_kind(r, m.kind)) out = m;
            break;
        }
        case Tag::kWorkRequest: {
            MsgWorkRequest m;
            if (r.u32(m.pe)) out = m;
            break;
        }
        case Tag::kProgress: {
            MsgProgress m;
            if (r.u32(m.pe) && r.f64(m.cells_per_second)) out = m;
            break;
        }
        case Tag::kTaskDone: {
            MsgTaskDone m;
            if (r.u32(m.pe) && r.u32(m.task) &&
                get_task_result(r, m.result)) {
                out = std::move(m);
            }
            break;
        }
        case Tag::kDeregister: {
            MsgDeregister m;
            if (r.u32(m.pe)) out = m;
            break;
        }
        case Tag::kHeartbeat: {
            MsgHeartbeat m;
            if (r.u32(m.pe)) out = m;
            break;
        }
        case Tag::kTaskFailed: {
            MsgTaskFailed m;
            if (r.u32(m.pe) && r.u32(m.task) && r.str(m.what)) {
                out = std::move(m);
            }
            break;
        }
        case Tag::kHello:
        case Tag::kWelcome:
        case Tag::kAssign:
        case Tag::kNoWorkYet:
        case Tag::kShutdown:
        default:
            r.fail("unexpected tag for a slave->master frame");
            break;
    }
    if (!out.has_value() || !r.finish()) {
        set_error(error, r, "malformed frame");
        return std::nullopt;
    }
    return out;
}

std::optional<SlaveMsg> decode_slave(const std::uint8_t* body,
                                     std::size_t size, std::string* error) {
    Reader r(body, size);
    std::uint8_t tag = 0;
    if (!open_body(r, tag)) {
        set_error(error, r, "malformed frame");
        return std::nullopt;
    }
    std::optional<SlaveMsg> out;
    switch (static_cast<Tag>(tag)) {
        case Tag::kAssign: {
            MsgAssign m;
            std::uint32_t n = 0;
            if (!r.count(n, kTaskBytes)) break;
            m.tasks.resize(n);
            bool ok = true;
            for (core::Task& t : m.tasks) {
                if (!r.u32(t.id) || !r.u32(t.query_index) ||
                    !r.u64(t.cells)) {
                    ok = false;
                    break;
                }
            }
            if (ok) out = std::move(m);
            break;
        }
        case Tag::kNoWorkYet:
            out = MsgNoWorkYet{};
            break;
        case Tag::kShutdown:
            out = MsgShutdown{};
            break;
        case Tag::kRegister:
        case Tag::kWorkRequest:
        case Tag::kProgress:
        case Tag::kTaskDone:
        case Tag::kDeregister:
        case Tag::kHeartbeat:
        case Tag::kTaskFailed:
        case Tag::kHello:
        case Tag::kWelcome:
        default:
            r.fail("unexpected tag for a master->slave frame");
            break;
    }
    if (!out.has_value() || !r.finish()) {
        set_error(error, r, "malformed frame");
        return std::nullopt;
    }
    return out;
}

std::optional<Hello> decode_hello(const std::uint8_t* body, std::size_t size,
                                  std::string* error) {
    Reader r(body, size);
    std::uint8_t tag = 0;
    if (!open_body(r, tag)) {
        set_error(error, r, "malformed frame");
        return std::nullopt;
    }
    Hello hello;
    std::uint32_t magic = 0;
    const bool ok = static_cast<Tag>(tag) == Tag::kHello
                        ? (r.u32(magic) && get_pe_kind(r, hello.kind) &&
                           r.str(hello.label))
                        : r.fail("expected a Hello frame");
    if (!ok || magic != kHelloMagic || !r.finish()) {
        if (ok && magic != kHelloMagic) r.fail("bad Hello magic");
        set_error(error, r, "malformed Hello");
        return std::nullopt;
    }
    return hello;
}

std::optional<Welcome> decode_welcome(const std::uint8_t* body,
                                      std::size_t size, std::string* error) {
    Reader r(body, size);
    std::uint8_t tag = 0;
    if (!open_body(r, tag)) {
        set_error(error, r, "malformed frame");
        return std::nullopt;
    }
    Welcome w;
    std::uint8_t liveness = 0;
    const bool ok =
        static_cast<Tag>(tag) == Tag::kWelcome
            ? (r.u32(w.pe) && r.u32(w.top_k) && r.f64(w.notify_period_s) &&
               r.f64(w.heartbeat_period_s) && r.u8(liveness))
            : r.fail("expected a Welcome frame");
    if (!ok || liveness > 1 || !r.finish()) {
        if (ok && liveness > 1) r.fail("liveness byte out of range");
        set_error(error, r, "malformed Welcome");
        return std::nullopt;
    }
    w.liveness = liveness == 1;
    return w;
}

}  // namespace swh::net::wire
