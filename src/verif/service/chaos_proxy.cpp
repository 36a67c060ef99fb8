#include "chaos_proxy.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "sim/io_retry.hpp"
#include "sim/logging.hpp"
#include "verif/service/wire.hpp"

namespace neo
{

namespace
{

double
monoNow()
{
    timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** splitmix64: tiny, seedable, good enough for a fault schedule. */
std::uint64_t
mix64(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

enum class Fault
{
    Drop,
    Dup,
    Trunc,
    Sever,
    Delay
};

const char *
faultName(Fault f)
{
    switch (f) {
    case Fault::Drop:
        return "drop";
    case Fault::Dup:
        return "dup";
    case Fault::Trunc:
        return "trunc";
    case Fault::Sever:
        return "sever";
    case Fault::Delay:
        return "delay";
    }
    return "?";
}

/** Cap on buffered bytes per direction: past this the proxy stops
 *  reading the source, pushing backpressure through itself. */
constexpr std::size_t kDirBufferCap = 4u << 20;

} // namespace

bool
ChaosSpec::parse(const std::string &text, ChaosSpec &out,
                 std::string &err)
{
    out = ChaosSpec();
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string kv = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (kv.empty()) {
            err = "empty spec segment (doubled comma?)";
            return false;
        }
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
            err = kv + ": expected key=value";
            return false;
        }
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        char *end = nullptr;
        const double num = std::strtod(val.c_str(), &end);
        if (val.empty() || end == nullptr || *end != '\0' ||
            num < 0) {
            err = kv + ": bad value";
            return false;
        }
        if (key == "seed")
            out.seed = static_cast<std::uint64_t>(num);
        else if (key == "every")
            out.everyBytes = static_cast<std::uint64_t>(num);
        else if (key == "drop")
            out.weightDrop = static_cast<std::uint32_t>(num);
        else if (key == "dup")
            out.weightDup = static_cast<std::uint32_t>(num);
        else if (key == "trunc")
            out.weightTrunc = static_cast<std::uint32_t>(num);
        else if (key == "sever")
            out.weightSever = static_cast<std::uint32_t>(num);
        else if (key == "delay")
            out.weightDelay = static_cast<std::uint32_t>(num);
        else if (key == "delayms")
            out.delayMs = num;
        else if (key == "span")
            out.spanBytes = static_cast<std::uint32_t>(num);
        else if (key == "skip")
            out.skipConnections = static_cast<std::uint32_t>(num);
        else {
            err = key + ": unknown chaos key";
            return false;
        }
    }
    if (out.everyBytes == 0)
        out.everyBytes = 1;
    if (out.spanBytes == 0)
        out.spanBytes = 1;
    return true;
}

std::string
ChaosSpec::summary() const
{
    std::string s = "seed=" + std::to_string(seed) +
                    " every=" + std::to_string(everyBytes) +
                    " drop=" + std::to_string(weightDrop) +
                    " dup=" + std::to_string(weightDup) +
                    " trunc=" + std::to_string(weightTrunc) +
                    " sever=" + std::to_string(weightSever) +
                    " delay=" + std::to_string(weightDelay) +
                    " delayms=" + std::to_string(delayMs) +
                    " span=" + std::to_string(spanBytes) +
                    " skip=" + std::to_string(skipConnections);
    return s;
}

struct ChaosProxy::Impl
{
    /** One forwarding direction of one connection. The fault
     *  schedule advances on *input* byte offsets, so chunk sizes
     *  from the kernel never shift which byte a fault lands on. */
    struct Dir
    {
        std::uint64_t rng = 0;
        std::uint64_t offset = 0;    // input bytes consumed
        std::uint64_t nextFault = 0; // input offset of next event
        std::uint64_t dropLeft = 0;  // bytes still to discard
        std::uint64_t dupLeft = 0;   // bytes still to double
        /** Input offset the stream is cut at (sever/trunc); bytes
         *  before it still flush, everything after is discarded and
         *  the connection closes once the buffer drains. */
        std::uint64_t cutAt = ~0ull;
        bool srcEof = false;         // source half closed cleanly
        double holdUntil = 0.0;      // delay fault: no flush until
        std::vector<std::uint8_t> buf; // processed, awaiting flush
        std::size_t bufPos = 0;

        bool
        drained() const
        {
            return bufPos >= buf.size();
        }
        bool
        finished() const
        {
            return drained() && (srcEof || offset >= cutAt);
        }
    };

    struct Conn
    {
        std::uint64_t index = 0;
        int client = -1;   // accepted side
        int upstream = -1; // dialed side
        bool chaos = true; // false for skipped connections
        Dir up;            // client -> upstream
        Dir down;          // upstream -> client
        bool dead = false;
    };

    ChaosSpec spec;
    std::string upstreamAddr;
    int listenFd = -1;
    int wakeRead = -1;
    int wakeWrite = -1;
    std::uint64_t accepted = 0;
    std::vector<std::unique_ptr<Conn>> conns;
    bool stopRequested = false;

    mutable std::mutex mu;
    std::uint64_t faults = 0;
    std::string log;
    std::FILE *echo = nullptr;

    std::uint64_t
    sampleGap(Dir &d) const
    {
        // Uniform in [1, 2*every]: mean `every`, never zero.
        return 1 + mix64(d.rng) % (2 * spec.everyBytes);
    }

    void
    seedDir(Conn &c, Dir &d, unsigned dirIndex)
    {
        d.rng = spec.seed ^
                ((c.index * 2 + dirIndex + 1) *
                 0x9e3779b97f4a7c15ull);
        d.nextFault = sampleGap(d);
    }

    void
    note(const Conn &c, const char *dir, std::uint64_t off, Fault f,
         std::uint64_t span)
    {
        std::lock_guard<std::mutex> lk(mu);
        ++faults;
        std::string line = "conn=" + std::to_string(c.index) +
                           " dir=" + dir +
                           " off=" + std::to_string(off) +
                           " fault=" + faultName(f);
        if (span > 0)
            line += " span=" + std::to_string(span);
        log += line + "\n";
        if (echo != nullptr) {
            std::fprintf(echo, "chaos: %s\n", line.c_str());
            std::fflush(echo);
        }
    }

    Fault
    pickFault(Dir &d) const
    {
        std::uint32_t r = static_cast<std::uint32_t>(
            mix64(d.rng) % spec.totalWeight());
        if (r < spec.weightDrop)
            return Fault::Drop;
        r -= spec.weightDrop;
        if (r < spec.weightDup)
            return Fault::Dup;
        r -= spec.weightDup;
        if (r < spec.weightTrunc)
            return Fault::Trunc;
        r -= spec.weightTrunc;
        if (r < spec.weightSever)
            return Fault::Sever;
        return Fault::Delay;
    }

    /** Run @p data through the fault schedule, appending survivors
     *  to d.buf. Bytes past a cut point (sever/trunc) are discarded
     *  here; the already-buffered prefix still flushes, and the
     *  connection closes once it has (Dir::finished). */
    void
    process(Conn &c, Dir &d, const char *dirName,
            const std::uint8_t *data, std::size_t n)
    {
        if (!c.chaos || spec.totalWeight() == 0) {
            d.buf.insert(d.buf.end(), data, data + n);
            return;
        }
        std::size_t i = 0;
        while (i < n) {
            if (d.offset >= d.cutAt) {
                d.offset += n - i; // cut: discard the remainder
                break;
            }
            // Finish any active drop/dup span first; events never
            // overlap because the next gap is sampled past the span.
            if (d.dropLeft > 0) {
                const std::size_t take = static_cast<std::size_t>(
                    std::min<std::uint64_t>(d.dropLeft, n - i));
                d.dropLeft -= take;
                d.offset += take;
                i += take;
                continue;
            }
            if (d.dupLeft > 0) {
                const std::size_t take = static_cast<std::size_t>(
                    std::min<std::uint64_t>(d.dupLeft, n - i));
                d.buf.insert(d.buf.end(), data + i, data + i + take);
                d.buf.insert(d.buf.end(), data + i, data + i + take);
                d.dupLeft -= take;
                d.offset += take;
                i += take;
                continue;
            }
            if (d.offset < d.nextFault) {
                std::uint64_t gap = d.nextFault - d.offset;
                gap = std::min(gap, d.cutAt - d.offset);
                const std::size_t take = static_cast<std::size_t>(
                    std::min<std::uint64_t>(gap, n - i));
                d.buf.insert(d.buf.end(), data + i, data + i + take);
                d.offset += take;
                i += take;
                continue;
            }
            // A fault event lands exactly here.
            const Fault f = pickFault(d);
            const std::uint64_t span =
                1 + mix64(d.rng) % spec.spanBytes;
            note(c, dirName, d.offset, f,
                 f == Fault::Sever || f == Fault::Delay ? 0 : span);
            switch (f) {
            case Fault::Drop:
                d.dropLeft = span;
                break;
            case Fault::Dup:
                d.dupLeft = span;
                break;
            case Fault::Trunc:
                // Forward `span` more bytes, then cut mid-frame.
                d.cutAt = d.offset + span;
                break;
            case Fault::Sever:
                d.cutAt = d.offset; // cut right here
                break;
            case Fault::Delay:
                d.holdUntil = monoNow() + spec.delayMs / 1000.0;
                break;
            }
            d.nextFault = d.offset + span + sampleGap(d);
        }
    }

    void
    closeConn(Conn &c)
    {
        if (c.client >= 0)
            ::close(c.client);
        if (c.upstream >= 0)
            ::close(c.upstream);
        c.client = -1;
        c.upstream = -1;
        c.dead = true;
    }

    /** Flush d.buf toward @p dst; false on write failure. */
    bool
    flushDir(Dir &d, int dst, double now)
    {
        if (d.holdUntil > now)
            return true;
        while (d.bufPos < d.buf.size()) {
            const ssize_t w =
                writeRetry(dst, d.buf.data() + d.bufPos,
                           d.buf.size() - d.bufPos);
            if (w > 0) {
                d.bufPos += static_cast<std::size_t>(w);
                continue;
            }
            if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return true;
            return false;
        }
        d.buf.clear();
        d.bufPos = 0;
        return true;
    }
};

ChaosProxy::ChaosProxy() = default;

ChaosProxy::~ChaosProxy() { stop(); }

bool
ChaosProxy::start(const std::string &listenAddr,
                  const std::string &upstreamAddr,
                  const ChaosSpec &spec, std::string &err)
{
    neo_assert(impl_ == nullptr, "chaos proxy already started");
    // The forwarding loop writes to peers the schedule itself kills;
    // hosts that are not neoverify (the test binaries embed the
    // proxy in-process) must not die of the resulting SIGPIPE.
    ignoreSigpipe();
    auto impl = std::make_unique<Impl>();
    impl->spec = spec;
    impl->upstreamAddr = upstreamAddr;
    impl->echo = echo_;
    impl->listenFd = listenTcp(listenAddr, err, &bound_);
    if (impl->listenFd < 0)
        return false;
    int pipeFds[2];
    if (::pipe(pipeFds) != 0) {
        err = std::string("pipe: ") + std::strerror(errno);
        ::close(impl->listenFd);
        return false;
    }
    impl->wakeRead = pipeFds[0];
    impl->wakeWrite = pipeFds[1];
    setNonBlocking(impl->listenFd);
    setNonBlocking(impl->wakeRead);
    impl_ = std::move(impl);
    thread_ = std::thread([this] { run(); });
    return true;
}

void
ChaosProxy::stop()
{
    if (impl_ == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lk(impl_->mu);
        impl_->stopRequested = true;
    }
    const std::uint8_t one = 1;
    (void)!::write(impl_->wakeWrite, &one, 1);
    if (thread_.joinable())
        thread_.join();
    ::close(impl_->listenFd);
    ::close(impl_->wakeRead);
    ::close(impl_->wakeWrite);
    for (auto &c : impl_->conns)
        impl_->closeConn(*c);
    finalAccepted_ = impl_->accepted;
    finalFaults_ = impl_->faults;
    finalLog_ = impl_->log;
    impl_.reset();
}

std::uint64_t
ChaosProxy::connectionsAccepted() const
{
    if (impl_ == nullptr)
        return finalAccepted_;
    std::lock_guard<std::mutex> lk(impl_->mu);
    return impl_->accepted;
}

std::uint64_t
ChaosProxy::faultsInjected() const
{
    if (impl_ == nullptr)
        return finalFaults_;
    std::lock_guard<std::mutex> lk(impl_->mu);
    return impl_->faults;
}

std::string
ChaosProxy::scheduleLog() const
{
    if (impl_ == nullptr)
        return finalLog_;
    std::lock_guard<std::mutex> lk(impl_->mu);
    return impl_->log;
}

void
ChaosProxy::run()
{
    Impl &im = *impl_;
    std::vector<pollfd> pfds;
    for (;;) {
        {
            std::lock_guard<std::mutex> lk(im.mu);
            if (im.stopRequested)
                return;
        }
        const double now = monoNow();
        pfds.clear();
        pfds.push_back({im.wakeRead, POLLIN, 0});
        pfds.push_back({im.listenFd, POLLIN, 0});
        double nextHold = 0.0;
        for (auto &cp : im.conns) {
            Impl::Conn &c = *cp;
            if (c.dead)
                continue;
            short cev = 0, uev = 0;
            // Read a side only while the opposite buffer has room.
            if (!c.up.srcEof &&
                c.up.buf.size() - c.up.bufPos < kDirBufferCap)
                cev |= POLLIN;
            if (!c.down.srcEof &&
                c.down.buf.size() - c.down.bufPos < kDirBufferCap)
                uev |= POLLIN;
            if (c.down.bufPos < c.down.buf.size() &&
                c.down.holdUntil <= now)
                cev |= POLLOUT;
            if (c.up.bufPos < c.up.buf.size() &&
                c.up.holdUntil <= now)
                uev |= POLLOUT;
            for (const Impl::Dir *d : {&c.up, &c.down})
                if (d->holdUntil > now &&
                    (nextHold == 0.0 || d->holdUntil < nextHold))
                    nextHold = d->holdUntil;
            pfds.push_back({c.client, cev, 0});
            pfds.push_back({c.upstream, uev, 0});
        }
        // Connections the accept below appends have no pfds entry
        // this round; they are polled from the next one on.
        const std::size_t polled = im.conns.size();
        int timeoutMs = 200;
        if (nextHold > 0.0)
            timeoutMs = std::max(
                1, static_cast<int>((nextHold - now) * 1000) + 1);
        const int pr =
            ::poll(pfds.data(), pfds.size(), timeoutMs);
        if (pr < 0 && errno != EINTR)
            return;

        if ((pfds[1].revents & POLLIN) != 0) {
            for (;;) {
                const int cfd =
                    ::accept(im.listenFd, nullptr, nullptr);
                if (cfd < 0)
                    break;
                std::string err;
                const int ufd =
                    connectTcp(im.upstreamAddr, err, 5.0);
                if (ufd < 0) {
                    neo_inform("chaos proxy: upstream %s: %s",
                               im.upstreamAddr.c_str(), err.c_str());
                    ::close(cfd);
                    continue;
                }
                setNonBlocking(cfd);
                setNonBlocking(ufd);
                auto conn = std::make_unique<Impl::Conn>();
                std::uint64_t idx;
                {
                    std::lock_guard<std::mutex> lk(im.mu);
                    idx = im.accepted++;
                }
                conn->index = idx;
                conn->client = cfd;
                conn->upstream = ufd;
                conn->chaos = idx >= im.spec.skipConnections;
                im.seedDir(*conn, conn->up, 0);
                im.seedDir(*conn, conn->down, 1);
                im.conns.push_back(std::move(conn));
            }
        }

        // Forward. pfds[2 + 2k] is conns[k].client, [3 + 2k] its
        // upstream — but conns indexing skips dead entries, so walk
        // the polled ones in the same order the pfds were built.
        std::size_t pi = 2;
        const double flushNow = monoNow();
        for (std::size_t k = 0; k < polled; ++k) {
            Impl::Conn &c = *im.conns[k];
            if (c.dead)
                continue;
            const short crev = pfds[pi].revents;
            const short urev = pfds[pi + 1].revents;
            pi += 2;
            std::uint8_t chunk[65536];
            bool ok = true;
            // Drain each readable source through the fault schedule.
            // A clean EOF is NOT an immediate close: the processed
            // bytes already sitting in the buffer must still flush
            // (otherwise every short-lived connection tail-truncates
            // on its own, chaos or no chaos).
            auto drain = [&](int src, Impl::Dir &d,
                             const char *name) {
                for (;;) {
                    const ssize_t r = readRetry(src, chunk,
                                                sizeof chunk);
                    if (r > 0) {
                        im.process(c, d, name, chunk,
                                   static_cast<std::size_t>(r));
                        if (r < static_cast<ssize_t>(sizeof chunk))
                            break;
                        continue;
                    }
                    if (r < 0 && (errno == EAGAIN ||
                                  errno == EWOULDBLOCK))
                        break;
                    if (r == 0)
                        d.srcEof = true;
                    else
                        ok = false; // hard error: cut both ways
                    break;
                }
            };
            if ((crev & (POLLIN | POLLHUP | POLLERR)) != 0)
                drain(c.client, c.up, "up");
            if (ok && (urev & (POLLIN | POLLHUP | POLLERR)) != 0)
                drain(c.upstream, c.down, "down");
            if (ok)
                ok = im.flushDir(c.up, c.upstream, flushNow) &&
                     im.flushDir(c.down, c.client, flushNow);
            // A direction that reached its cut point (sever/trunc)
            // or its source's EOF closes the connection — but only
            // after its surviving bytes flushed, so a truncation
            // delivers exactly the schedule's prefix, then dies.
            for (const Impl::Dir *d : {&c.up, &c.down})
                if (ok && d->finished())
                    ok = false;
            if (!ok)
                im.closeConn(c);
        }

        // Reap dead connections so the pfd list stays small.
        im.conns.erase(
            std::remove_if(im.conns.begin(), im.conns.end(),
                           [](const std::unique_ptr<Impl::Conn> &c) {
                               return c->dead;
                           }),
            im.conns.end());
    }
}

} // namespace neo
