/**
 * @file
 * Snapshot file I/O, model fingerprinting and signal plumbing.
 *
 * Consistency contract with the parallel explorer's frontiers: a
 * snapshot is only serialized at a pause rendezvous, when every
 * worker has let go of its partition, flushed its partial successor
 * batches, interned every batch still in transit and parked at the
 * top of its loop — so each unexpanded state sits in its partition's
 * frontier, and the partitions' stores and frontiers together form a
 * consistent cut.
 *
 * Model fingerprints cover the initial state bytes, variable names,
 * rule names/kinds and invariant names — NOT the guard/effect
 * representation — so declaring a rule in flat term form
 * (transition_system.hpp) does not invalidate old snapshots.
 */
#include "checkpoint.hpp"

#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "sim/io_retry.hpp"

namespace neo
{

namespace
{

constexpr char kMagic[8] = {'N', 'E', 'O', 'C', 'K', 'P', 'T', '1'};
/** The one payload layout version: full state bytes. Any other
 *  version in a header is refused before its payload is read. */
constexpr std::uint32_t kVersion = 1;
/** magic + version + kind + fingerprint + payloadSize + payloadCrc. */
constexpr std::size_t kHeaderBody = 8 + 4 + 4 + 8 + 8 + 4;
/** ... plus the header's own CRC. */
constexpr std::size_t kHeaderSize = kHeaderBody + 4;

void
putLE32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

void
putLE64(std::uint8_t *p, std::uint64_t v)
{
    putLE32(p, static_cast<std::uint32_t>(v));
    putLE32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t
getLE32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
getLE64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(getLE32(p)) |
           static_cast<std::uint64_t>(getLE32(p + 4)) << 32;
}

/** Parsed+verified header of a snapshot file. */
struct Header
{
    std::uint32_t kind = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t payloadSize = 0;
    std::uint32_t payloadCrc = 0;
};

bool
readHeader(std::FILE *f, const std::string &path, Header &h,
           std::string &err)
{
    std::uint8_t raw[kHeaderSize];
    if (std::fread(raw, 1, kHeaderSize, f) != kHeaderSize) {
        err = path + ": truncated snapshot header";
        return false;
    }
    if (std::memcmp(raw, kMagic, 8) != 0) {
        err = path + ": not a neo checkpoint (bad magic)";
        return false;
    }
    if (crc32(raw, kHeaderBody) != getLE32(raw + kHeaderBody)) {
        err = path + ": snapshot header CRC mismatch";
        return false;
    }
    const std::uint32_t version = getLE32(raw + 8);
    if (version != kVersion) {
        err = path + ": unsupported snapshot version " +
              std::to_string(version);
        return false;
    }
    h.kind = getLE32(raw + 12);
    h.fingerprint = getLE64(raw + 16);
    h.payloadSize = getLE64(raw + 24);
    h.payloadCrc = getLE32(raw + 32);
    return true;
}

// Written by the signal handler AND polled across explorer worker
// threads, so volatile sig_atomic_t is not enough (that is only
// signal-safe, not thread-safe); a lock-free atomic is both.
std::atomic<int> g_interrupted{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "interrupt flag must be async-signal-safe");

extern "C" void
interruptHandler(int)
{
    g_interrupted.store(1, std::memory_order_relaxed);
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t n, std::uint32_t crc)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    crc = ~crc;
    for (std::size_t i = 0; i < n; ++i)
        crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

std::uint64_t
modelFingerprint(const TransitionSystem &ts)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&](const void *p, std::size_t n) {
        const auto *b = static_cast<const std::uint8_t *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ULL;
        }
    };
    auto mixStr = [&](const std::string &s) {
        mix(s.data(), s.size());
        mix("\x1f", 1); // separator so {"ab","c"} != {"a","bc"}
    };
    const VState init = ts.initialState();
    mix(init.data(), init.size());
    for (std::size_t i = 0; i < ts.numVars(); ++i)
        mixStr(ts.varName(i));
    for (const auto &r : ts.rules()) {
        mixStr(r.name);
        const auto k = static_cast<std::uint8_t>(r.kind);
        mix(&k, 1);
    }
    for (const auto &inv : ts.invariants())
        mixStr(inv.name);
    return h;
}

void
SnapshotWriter::putU32(std::uint32_t v)
{
    const std::size_t at = buf_.size();
    buf_.resize(at + 4);
    putLE32(buf_.data() + at, v);
}

void
SnapshotWriter::putU64(std::uint64_t v)
{
    const std::size_t at = buf_.size();
    buf_.resize(at + 8);
    putLE64(buf_.data() + at, v);
}

void
SnapshotWriter::putF64(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    putU64(bits);
}

void
SnapshotWriter::putBytes(const std::uint8_t *p, std::size_t n)
{
    buf_.insert(buf_.end(), p, p + n);
}

void
SnapshotWriter::putState(const VState &s)
{
    putBytes(s.data(), s.size());
}

std::uint8_t
SnapshotReader::getU8()
{
    std::uint8_t v = 0;
    getBytes(&v, 1);
    return v;
}

std::uint32_t
SnapshotReader::getU32()
{
    std::uint8_t raw[4];
    return getBytes(raw, 4) ? getLE32(raw) : 0;
}

std::uint64_t
SnapshotReader::getU64()
{
    std::uint8_t raw[8];
    return getBytes(raw, 8) ? getLE64(raw) : 0;
}

double
SnapshotReader::getF64()
{
    const std::uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
}

bool
SnapshotReader::getBytes(std::uint8_t *out, std::size_t n)
{
    // A zero-length read may come with a null @p out (an empty
    // vector's data()), which memcpy/memset must never see.
    if (n == 0)
        return ok_;
    if (!ok_ || size_ - pos_ < n) {
        ok_ = false;
        std::memset(out, 0, n);
        return false;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
}

bool
SnapshotReader::getState(std::size_t numVars, VState &out)
{
    out.assign(numVars, 0);
    return getBytes(out.data(), numVars);
}

const std::uint8_t *
SnapshotReader::viewBytes(std::size_t n)
{
    if (!ok_ || size_ - pos_ < n) {
        ok_ = false;
        return nullptr;
    }
    const std::uint8_t *p = data_ + pos_;
    pos_ += n;
    return p;
}

bool
writeSnapshotFile(const std::string &path, SnapshotKind kind,
                  std::uint64_t fingerprint,
                  const std::vector<std::uint8_t> &payload,
                  std::string &err)
{
    std::error_code ec;
    const std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);

    std::uint8_t header[kHeaderSize];
    std::memcpy(header, kMagic, 8);
    putLE32(header + 8, kVersion);
    putLE32(header + 12, static_cast<std::uint32_t>(kind));
    putLE64(header + 16, fingerprint);
    putLE64(header + 24, payload.size());
    putLE32(header + 32, crc32(payload.data(), payload.size()));
    putLE32(header + kHeaderBody, crc32(header, kHeaderBody));

    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0) {
        err = tmp + ": " + std::strerror(errno);
        return false;
    }
    // EINTR-hardened writes + fsync before the rename so the publish
    // is atomic even across a power cut or a signal storm: either the
    // old snapshot or the complete new one is visible, never a torn
    // mix — and a supervision signal landing mid-write cannot fake a
    // short write into a "failure" that throws the snapshot away.
    bool ok = writeFull(fd, header, kHeaderSize) &&
              (payload.empty() ||
               writeFull(fd, payload.data(), payload.size()));
    ok = ok && fsyncRetry(fd);
    if (::close(fd) != 0)
        ok = false;
    if (!ok) {
        err = tmp + ": write failed: " + std::strerror(errno);
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        err = path + ": rename failed: " + std::strerror(errno);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readSnapshotFile(const std::string &path, SnapshotKind kind,
                 std::uint64_t fingerprint,
                 std::vector<std::uint8_t> &payload, std::string &err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        err = path + ": " + std::strerror(errno);
        return false;
    }
    Header h;
    if (!readHeader(f, path, h, err)) {
        std::fclose(f);
        return false;
    }
    if (h.kind != static_cast<std::uint32_t>(kind)) {
        err = path + ": snapshot is from a different exploration mode";
        std::fclose(f);
        return false;
    }
    if (h.fingerprint != fingerprint) {
        err = path + ": snapshot was taken for a different model "
                     "(fingerprint mismatch)";
        std::fclose(f);
        return false;
    }
    std::vector<std::uint8_t> body(h.payloadSize);
    const bool readOk =
        std::fread(body.data(), 1, body.size(), f) == body.size() &&
        std::fgetc(f) == EOF;
    std::fclose(f);
    if (!readOk) {
        err = path + ": truncated snapshot payload";
        return false;
    }
    if (crc32(body.data(), body.size()) != h.payloadCrc) {
        err = path + ": snapshot payload CRC mismatch (corrupt file)";
        return false;
    }
    payload = std::move(body);
    return true;
}

std::uint64_t
peekSnapshotFingerprint(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return 0;
    Header h;
    std::string err;
    const bool ok = readHeader(f, path, h, err);
    std::fclose(f);
    return ok ? h.fingerprint : 0;
}

bool
snapshotExists(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::exists(path, ec);
}

void
removeSnapshot(const std::string &path)
{
    std::remove(path.c_str());
}

std::size_t
reapStaleCheckpointTmps(const std::string &dir)
{
    std::error_code ec;
    std::size_t reaped = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (ec)
            break;
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        constexpr std::string_view suffix = ".tmp";
        if (name.size() <= suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        std::error_code rmEc;
        if (std::filesystem::remove(entry.path(), rmEc))
            ++reaped;
    }
    return reaped;
}

std::string
partitionSnapshotPath(const std::string &dir, std::uint64_t epoch,
                      unsigned part, unsigned count)
{
    return dir + "/epoch-" + std::to_string(epoch) + "-part-" +
           std::to_string(part) + "-of-" + std::to_string(count) +
           ".ckpt";
}

std::string
exploreSnapshotPath(const CheckpointConfig &cfg)
{
    return cfg.dir + "/explore.ckpt";
}

std::string
walkSnapshotPath(const CheckpointConfig &cfg)
{
    return cfg.dir + "/walk.ckpt";
}

std::string
sweepSnapshotPath(const CheckpointConfig &cfg)
{
    return cfg.dir + "/sweep.ckpt";
}

std::vector<std::uint8_t>
encodeExploreSnapshot(const ExploreSnapshot &snap, std::size_t numVars)
{
    ExploreSnapshotMeta meta;
    meta.elapsedSeconds = snap.elapsedSeconds;
    meta.transitionsFired = snap.transitionsFired;
    meta.ruleFires = snap.ruleFires;
    meta.hasLinks = snap.hasLinks;
    meta.numStates = snap.states.size();
    // The struct form stores frontier states by value; the streamed
    // encoder pulls frontier bytes from stateAt(id), which is the
    // same bytes because every frontier state is a visited state.
    return encodeExploreSnapshotStreamed(
        meta, numVars,
        [&](std::uint64_t i) {
            return snap.states[static_cast<std::size_t>(i)].data();
        },
        [&](std::uint64_t i) {
            return snap.links[static_cast<std::size_t>(i)];
        },
        snap.frontier.size(),
        [&](std::uint64_t n) {
            const auto &fi = snap.frontier[static_cast<std::size_t>(n)];
            return std::pair<std::uint64_t, std::uint32_t>{fi.id,
                                                           fi.depth};
        });
}

std::vector<std::uint8_t>
encodeExploreSnapshotStreamed(
    const ExploreSnapshotMeta &meta, std::size_t numVars,
    const std::function<const std::uint8_t *(std::uint64_t)> &stateAt,
    const std::function<ExploreSnapshot::Link(std::uint64_t)> &linkAt,
    std::uint64_t numFrontier,
    const std::function<std::pair<std::uint64_t, std::uint32_t>(
        std::uint64_t)> &frontierAt)
{
    SnapshotWriter w;
    w.putU32(static_cast<std::uint32_t>(numVars));
    w.putU32(static_cast<std::uint32_t>(meta.ruleFires.size()));
    w.putF64(meta.elapsedSeconds);
    w.putU64(meta.transitionsFired);
    for (const std::uint64_t fires : meta.ruleFires)
        w.putU64(fires);
    w.putU8(meta.hasLinks ? 1 : 0);
    w.putU64(meta.numStates);
    for (std::uint64_t i = 0; i < meta.numStates; ++i)
        w.putBytes(stateAt(i), numVars);
    if (meta.hasLinks) {
        for (std::uint64_t i = 0; i < meta.numStates; ++i) {
            const ExploreSnapshot::Link l = linkAt(i);
            w.putU64(l.parent);
            w.putU32(l.rule);
            w.putU32(l.depth);
        }
    }
    w.putU64(numFrontier);
    for (std::uint64_t n = 0; n < numFrontier; ++n) {
        const auto [id, depth] = frontierAt(n);
        w.putU64(id);
        w.putU32(depth);
        w.putBytes(stateAt(id), numVars);
    }
    return w.take();
}

bool
decodeExploreSnapshot(const std::vector<std::uint8_t> &payload,
                      std::size_t numVars, std::size_t numRules,
                      ExploreSnapshot &out, std::string &err)
{
    ExploreSnapshotMeta meta;
    const bool okDecode = decodeExploreSnapshotStreamed(
        payload, numVars, numRules, meta,
        [&](std::uint64_t nStates) {
            out.states.assign(static_cast<std::size_t>(nStates),
                              VState{});
        },
        [&](std::uint64_t id, const std::uint8_t *state) {
            out.states[static_cast<std::size_t>(id)].assign(
                state, state + numVars);
        },
        [&](std::uint64_t id, const ExploreSnapshot::Link &l) {
            if (out.links.empty())
                out.links.assign(out.states.size(),
                                 ExploreSnapshot::Link{});
            out.links[static_cast<std::size_t>(id)] = l;
        },
        [&](std::uint64_t id, std::uint32_t depth,
            const std::uint8_t *state) {
            ExploreSnapshot::FrontierItem fi;
            fi.id = id;
            fi.depth = depth;
            fi.state.assign(state, state + numVars);
            out.frontier.push_back(std::move(fi));
        },
        err);
    if (!okDecode)
        return false;
    out.elapsedSeconds = meta.elapsedSeconds;
    out.transitionsFired = meta.transitionsFired;
    out.ruleFires = meta.ruleFires;
    out.hasLinks = meta.hasLinks;
    return true;
}

bool
decodeExploreSnapshotStreamed(
    const std::vector<std::uint8_t> &payload, std::size_t numVars,
    std::size_t numRules, ExploreSnapshotMeta &meta,
    const std::function<void(std::uint64_t numStates)> &beginStates,
    const std::function<void(std::uint64_t id,
                             const std::uint8_t *state)> &onState,
    const std::function<void(std::uint64_t id,
                             const ExploreSnapshot::Link &link)>
        &onLink,
    const std::function<void(std::uint64_t id, std::uint32_t depth,
                             const std::uint8_t *state)> &onFrontier,
    std::string &err)
{
    SnapshotReader r(payload);
    if (r.getU32() != numVars || r.getU32() != numRules) {
        err = "snapshot variable/rule counts do not match the model";
        return false;
    }
    meta.elapsedSeconds = r.getF64();
    meta.transitionsFired = r.getU64();
    meta.ruleFires.assign(numRules, 0);
    for (std::size_t i = 0; i < numRules; ++i)
        meta.ruleFires[i] = r.getU64();
    meta.hasLinks = r.getU8() != 0;
    const std::uint64_t nStates = r.getU64();
    if (!r.ok() || nStates > payload.size()) {
        err = "snapshot state count is implausible";
        return false;
    }
    meta.numStates = nStates;
    beginStates(nStates);
    for (std::uint64_t id = 0; id < nStates; ++id) {
        const std::uint8_t *state = r.viewBytes(numVars);
        if (state == nullptr)
            break;
        onState(id, state);
    }
    if (meta.hasLinks) {
        for (std::uint64_t id = 0; id < nStates; ++id) {
            ExploreSnapshot::Link l;
            l.parent = r.getU64();
            l.rule = r.getU32();
            l.depth = r.getU32();
            if (l.parent >= nStates || l.rule >= numRules) {
                err = "snapshot predecessor link out of range";
                return false;
            }
            if (r.ok())
                onLink(id, l);
        }
    }
    const std::uint64_t nFrontier = r.getU64();
    if (!r.ok() || nFrontier > payload.size()) {
        err = "snapshot frontier count is implausible";
        return false;
    }
    for (std::uint64_t n = 0; n < nFrontier; ++n) {
        const std::uint64_t id = r.getU64();
        const std::uint32_t depth = r.getU32();
        const std::uint8_t *state = r.viewBytes(numVars);
        if (id >= nStates) {
            err = "snapshot frontier id out of range";
            return false;
        }
        if (state != nullptr)
            onFrontier(id, depth, state);
    }
    if (!r.atEnd()) {
        err = "snapshot payload has trailing or missing bytes";
        return false;
    }
    return true;
}

void
installInterruptHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = interruptHandler;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

void
requestInterrupt()
{
    g_interrupted.store(1, std::memory_order_relaxed);
}

void
clearInterruptRequest()
{
    g_interrupted.store(0, std::memory_order_relaxed);
}

bool
interruptRequested()
{
    return g_interrupted.load(std::memory_order_relaxed) != 0;
}

} // namespace neo
