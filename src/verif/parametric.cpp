#include "parametric.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>

#include "verif/checkpoint.hpp"

namespace neo
{

namespace
{

// A view key: the shared id in the top 22 bits, then the smaller and
// the larger block id, each plus one (0 = no block), in 21 bits each.
constexpr unsigned kBlockBits = 21;
constexpr std::uint64_t kBlockMask = (1ULL << kBlockBits) - 1;
/** Ids must stay below these: an all-ones shared field is reserved
 *  for the empty slot, and a block field holds id + 1. */
constexpr std::uint64_t kSharedIdLimit =
    (1ULL << (64 - 2 * kBlockBits)) - 1;
constexpr std::uint64_t kBlockIdLimit = kBlockMask;
constexpr std::uint64_t kEmpty = ~0ULL;

/** Intern @p bytes in @p dict; the id must fit its key field. */
std::uint32_t
internId(StateStore &dict, const std::uint8_t *bytes,
         std::uint64_t limit)
{
    const std::uint32_t id = dict.intern(bytes).first;
    neo_assert(id < limit, "view dictionary id overflows its key field");
    return id;
}

/** @p lo and @p hi are block fields, block id + 1 or 0 for none: the
 *  smaller block first, a lone block in @p lo. */
std::uint64_t
viewKey(std::uint32_t shared, std::uint64_t lo, std::uint64_t hi)
{
    return (static_cast<std::uint64_t>(shared) << (2 * kBlockBits)) |
           (lo << kBlockBits) | hi;
}

} // namespace

struct ViewSet::Dictionaries
{
    Dictionaries(std::size_t sharedVars, std::size_t blockSize)
        : shared(sharedVars), blocks(blockSize)
    {
    }
    StateStore shared;
    StateStore blocks;
};

ViewSet::ViewSet(const ModelShape &shape, unsigned saturation,
                 const ViewSet *prev)
    : shape_(shape), saturation_(saturation),
      dicts_(prev != nullptr &&
                     prev->shape_.sharedVars == shape.sharedVars &&
                     prev->shape_.leafBlockSize == shape.leafBlockSize
                 ? prev->dicts_
                 : std::make_shared<Dictionaries>(shape.sharedVars,
                                                  shape.leafBlockSize)),
      slots_(1024, kEmpty),
      // A StateStore reads at least one byte per record.
      shared_(std::max<std::size_t>(shape.sharedVars, 1), 0),
      ids_(shape.numLeaves)
{
    neo_assert(shape.leafBlockSize > 0,
               "view abstraction needs leaf blocks");
}

void
ViewSet::add(const VState &s)
{
    const std::size_t sharedVars = shape_.sharedVars;
    const std::size_t blockSize = shape_.leafBlockSize;
    const std::size_t n = shape_.numLeaves;
    std::copy_n(s.begin(), sharedVars, shared_.begin());
    for (const std::size_t v : shape_.saturatedSharedVars) {
        shared_[v] = static_cast<std::uint8_t>(
            std::min<unsigned>(shared_[v], saturation_));
    }
    const std::uint32_t sid =
        internId(dicts_->shared, shared_.data(), kSharedIdLimit);
    const std::uint8_t *leaf = s.data() + sharedVars;
    for (std::size_t l = 0; l < n; ++l, leaf += blockSize)
        ids_[l] = internId(dicts_->blocks, leaf, kBlockIdLimit);
    std::sort(ids_.begin(), ids_.end());

    insertKey(viewKey(sid, 0, 0));
    for (std::size_t i = 0, next = 0; i < n; i = next) {
        const std::uint64_t a = std::uint64_t{ids_[i]} + 1;
        for (next = i + 1; next < n && ids_[next] == ids_[i];)
            ++next;
        insertKey(viewKey(sid, a, 0));
        if (next - i >= 2)
            insertKey(viewKey(sid, a, a));
        for (std::size_t j = next; j < n; ++j) {
            if (ids_[j] != ids_[j - 1])
                insertKey(viewKey(sid, a, std::uint64_t{ids_[j]} + 1));
        }
    }
}

bool
ViewSet::addView(const std::vector<std::uint8_t> &view)
{
    const std::size_t sharedVars = shape_.sharedVars;
    const std::size_t blockSize = shape_.leafBlockSize;
    if (view.size() < sharedVars ||
        (view.size() - sharedVars) % blockSize != 0 ||
        view.size() > sharedVars + 2 * blockSize)
        return false;
    std::copy_n(view.begin(), sharedVars, shared_.begin());
    const std::uint32_t sid =
        internId(dicts_->shared, shared_.data(), kSharedIdLimit);
    std::uint64_t fields[2] = {0, 0};
    const std::size_t blocks = (view.size() - sharedVars) / blockSize;
    for (std::size_t b = 0; b < blocks; ++b) {
        fields[b] = std::uint64_t{internId(
                        dicts_->blocks,
                        view.data() + sharedVars + b * blockSize,
                        kBlockIdLimit)} +
                    1;
    }
    if (blocks == 2 && fields[1] < fields[0])
        std::swap(fields[0], fields[1]);
    insertKey(viewKey(sid, fields[0], fields[1]));
    return true;
}

void
ViewSet::insertKey(std::uint64_t key)
{
    if (2 * (size_ + 1) > slots_.size()) {
        std::vector<std::uint64_t> old(2 * slots_.size(), kEmpty);
        old.swap(slots_);
        for (const std::uint64_t k : old) {
            if (k != kEmpty)
                slots_[slotFor(k)] = k;
        }
    }
    std::uint64_t &slot = slots_[slotFor(key)];
    if (slot == kEmpty) {
        slot = key;
        ++size_;
    }
}

std::size_t
ViewSet::slotFor(std::uint64_t key) const
{
    std::uint64_t h = key ^ (key >> 31);
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (slots_[i] != key && slots_[i] != kEmpty)
        i = (i + 1) & mask;
    return i;
}

bool
ViewSet::operator==(const ViewSet &o) const
{
    if (dicts_ != o.dicts_ || size_ != o.size_)
        return false;
    return std::all_of(slots_.begin(), slots_.end(),
                       [&](std::uint64_t k) {
                           return k == kEmpty ||
                                  o.slots_[o.slotFor(k)] == k;
                       });
}

std::vector<std::vector<std::uint8_t>>
ViewSet::sortedViews() const
{
    std::vector<std::vector<std::uint8_t>> out;
    out.reserve(size_);
    for (const std::uint64_t k : slots_) {
        if (k == kEmpty)
            continue;
        const std::uint8_t *prefix = dicts_->shared.at(
            static_cast<std::uint32_t>(k >> (2 * kBlockBits)));
        std::vector<std::uint8_t> view(prefix,
                                       prefix + shape_.sharedVars);
        const std::uint8_t *pair[2] = {nullptr, nullptr};
        const std::uint64_t fields[2] = {(k >> kBlockBits) & kBlockMask,
                                         k & kBlockMask};
        for (int b = 0; b < 2; ++b) {
            if (fields[b] != 0)
                pair[b] = dicts_->blocks.at(
                    static_cast<std::uint32_t>(fields[b] - 1));
        }
        const std::size_t blockSize = shape_.leafBlockSize;
        if (pair[1] != nullptr &&
            std::memcmp(pair[1], pair[0], blockSize) < 0)
            std::swap(pair[0], pair[1]);
        for (const std::uint8_t *block : pair) {
            if (block != nullptr)
                view.insert(view.end(), block, block + blockSize);
        }
        out.push_back(std::move(view));
    }
    // The order of a std::set of byte vectors. The comparator is
    // spelled out because GCC 12 falsely flags vector's operator<=>
    // inside std::sort with -Wstringop-overread.
    using Bytes = std::vector<std::uint8_t>;
    std::sort(out.begin(), out.end(), [](const Bytes &a, const Bytes &b) {
        return std::lexicographical_compare(a.begin(), a.end(),
                                            b.begin(), b.end());
    });
    return out;
}

ParametricResult
verifyParametric(const ModelFactory &factory, std::size_t from,
                 std::size_t to, const ExploreLimits &limits,
                 unsigned saturation)
{
    neo_assert(from >= 1 && from <= to, "bad parametric sweep range");
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    ParametricResult result;
    // The last completed instance's views. The dictionaries behind
    // them live on through every later instance of the same widths.
    std::optional<ViewSet> prevViews;
    double baseSeconds = 0.0;
    const auto finish = [&]() -> ParametricResult & {
        result.seconds =
            baseSeconds +
            std::chrono::duration<double>(Clock::now() - t0).count();
        return result;
    };
    auto elapsed = [&]() {
        return baseSeconds +
               std::chrono::duration<double>(Clock::now() - t0).count();
    };

    const CheckpointConfig *ckpt = limits.checkpoint;
    const bool ckptActive = ckpt != nullptr && !ckpt->dir.empty();
    const std::string sweepPath =
        ckptActive ? sweepSnapshotPath(*ckpt) : std::string();
    if (ckptActive)
        reapStaleCheckpointTmps(ckpt->dir);
    // The sweep snapshot is stamped with the SMALLEST instance's
    // fingerprint: it identifies the factory (a different protocol or
    // feature set changes rules/invariants and hence the fingerprint)
    // without depending on how far the sweep got.
    std::uint64_t fingerprint = 0;
    if (ckptActive) {
        ModelShape shape;
        fingerprint = modelFingerprint(factory(from, shape));
    }

    // Serialize sweep progress: every completed (hence Verified)
    // instance's counters plus the last instance's abstract view set,
    // which the convergence test needs on resume.
    auto write_sweep_snapshot = [&]() {
        SnapshotWriter w;
        w.putU32(saturation);
        w.putU64(from);
        w.putU64(to);
        w.putF64(elapsed());
        w.putU64(result.perInstance.size());
        for (std::size_t i = 0; i < result.perInstance.size(); ++i) {
            const ExploreResult &er = result.perInstance[i];
            w.putU64(result.instanceSizes[i]);
            w.putU64(result.abstractSetSizes[i]);
            w.putU64(er.statesExplored);
            w.putU64(er.transitionsFired);
            w.putU64(er.memoryBytes);
            w.putF64(er.seconds);
            w.putU64(er.ruleFires.size());
            for (const std::uint64_t f : er.ruleFires)
                w.putU64(f);
        }
        const std::vector<std::vector<std::uint8_t>> views =
            prevViews ? prevViews->sortedViews()
                      : std::vector<std::vector<std::uint8_t>>{};
        w.putU64(views.size());
        for (const auto &view : views) {
            w.putU64(view.size());
            w.putBytes(view.data(), view.size());
        }
        std::string err;
        if (!writeSnapshotFile(sweepPath, SnapshotKind::Sweep,
                               fingerprint, w.take(), err))
            neo_warn("sweep checkpoint not written: ", err);
    };

    std::size_t startN = from;
    if (ckptActive && ckpt->resume && snapshotExists(sweepPath)) {
        std::vector<std::uint8_t> payload;
        std::string err;
        if (!readSnapshotFile(sweepPath, SnapshotKind::Sweep,
                              fingerprint, payload, err))
            neo_fatal("cannot resume: ", err);
        SnapshotReader r(payload);
        const std::uint32_t sat = r.getU32();
        const std::uint64_t sFrom = r.getU64();
        r.getU64(); // recorded `to`; the resumed bound is the CLI's
        baseSeconds = r.getF64();
        const std::uint64_t nInst = r.getU64();
        for (std::uint64_t i = 0; r.ok() && i < nInst; ++i) {
            ExploreResult er;
            er.status = VerifStatus::Verified;
            result.instanceSizes.push_back(
                static_cast<std::size_t>(r.getU64()));
            result.abstractSetSizes.push_back(
                static_cast<std::size_t>(r.getU64()));
            er.statesExplored = r.getU64();
            er.transitionsFired = r.getU64();
            er.memoryBytes = r.getU64();
            er.seconds = r.getF64();
            er.ruleFires.resize(
                static_cast<std::size_t>(r.getU64()));
            for (auto &f : er.ruleFires)
                f = r.getU64();
            result.perInstance.push_back(std::move(er));
        }
        const std::uint64_t nViews = r.getU64();
        std::vector<std::vector<std::uint8_t>> views;
        for (std::uint64_t i = 0; r.ok() && i < nViews; ++i) {
            std::vector<std::uint8_t> view(
                static_cast<std::size_t>(r.getU64()));
            r.getBytes(view.data(), view.size());
            views.push_back(std::move(view));
        }
        if (!r.atEnd())
            neo_fatal("cannot resume: ", sweepPath,
                      ": malformed sweep snapshot");
        if (sat != saturation || sFrom != from)
            neo_fatal("cannot resume: snapshot sweep starts at N=",
                      sFrom, " with saturation ", sat,
                      "; rerun with the same values");
        // Re-encode the views under the last completed instance's
        // shape.
        if (!result.instanceSizes.empty()) {
            ModelShape prevShape;
            factory(result.instanceSizes.back(), prevShape);
            prevViews.emplace(prevShape, saturation);
            for (const auto &view : views) {
                if (!prevViews->addView(view))
                    neo_fatal("cannot resume: ", sweepPath,
                              ": malformed sweep snapshot");
            }
        }
        startN = from + result.perInstance.size();
        result.resumed = true;
        result.restoredInstances = result.perInstance.size();
    }

    for (std::size_t n = startN; n <= to; ++n) {
        if (ckptActive && interruptRequested()) {
            // Signal landed between instances: everything completed
            // so far is already consistent, persist and bow out.
            write_sweep_snapshot();
            result.status = VerifStatus::Interrupted;
            std::ostringstream os;
            os << "interrupted before instance N=" << n
               << "; resume with --resume";
            result.detail = os.str();
            return finish();
        }

        ModelShape shape;
        TransitionSystem ts = factory(n, shape);
        neo_assert(shape.numLeaves == n, "factory mis-reported shape");

        // Per-instance inner checkpointing: resume the instance-level
        // explore snapshot only if it belongs to THIS instance — a
        // crash between "instance finished" and "sweep snapshot
        // updated" can leave a stale explore.ckpt from a previous N,
        // whose fingerprint will not match.
        ExploreLimits instLimits = limits;
        CheckpointConfig inner;
        if (ckptActive) {
            inner = *ckpt;
            const std::string explorePath = exploreSnapshotPath(inner);
            if (snapshotExists(explorePath)) {
                const bool ours = peekSnapshotFingerprint(explorePath)
                                  == modelFingerprint(ts);
                if (ours) {
                    inner.resume = ckpt->resume;
                } else {
                    removeSnapshot(explorePath);
                    inner.resume = false;
                }
            } else {
                inner.resume = false;
            }
            instLimits.checkpoint = &inner;
        }

        // The callback is serialized by the explorer even in the
        // parallel mode, and the view set is order-insensitive (and
        // rebuilt idempotently on resume: the explorer re-invokes
        // on_state for every restored state).
        ViewSet views(shape, saturation,
                      prevViews ? &*prevViews : nullptr);
        const ExploreResult er =
            explore(ts, instLimits, false, true,
                    [&](const VState &s) { views.add(s); });

        if (er.status == VerifStatus::Interrupted) {
            // The inner explorer saved its own snapshot; persist the
            // sweep index so --resume lands back inside instance N.
            result.status = VerifStatus::Interrupted;
            if (er.resumed)
                result.resumed = true;
            write_sweep_snapshot();
            std::ostringstream os;
            os << "interrupted at instance N=" << n
               << " (" << er.statesExplored
               << " states checkpointed); resume with --resume";
            result.detail = os.str();
            return finish();
        }

        result.perInstance.push_back(er);
        result.instanceSizes.push_back(n);
        result.abstractSetSizes.push_back(views.size());
        if (er.resumed)
            result.resumed = true;

        if (er.status != VerifStatus::Verified) {
            result.status = er.status;
            std::ostringstream os;
            os << "instance N=" << n << ": "
               << verifStatusName(er.status);
            if (!er.violatedInvariant.empty())
                os << " (" << er.violatedInvariant << ")";
            result.detail = os.str();
            if (ckptActive) {
                if (er.status == VerifStatus::LimitExceeded) {
                    // Resumable with raised limits: the inner
                    // explorer kept its snapshot; keep the sweep's
                    // index pointing at this instance too.
                    result.perInstance.pop_back();
                    result.instanceSizes.pop_back();
                    result.abstractSetSizes.pop_back();
                    write_sweep_snapshot();
                    result.perInstance.push_back(er);
                    result.instanceSizes.push_back(n);
                    result.abstractSetSizes.push_back(views.size());
                } else {
                    // Definitive verdict; nothing left to resume.
                    removeSnapshot(sweepPath);
                }
            }
            return finish();
        }

        if (n > from && views == *prevViews) {
            result.converged = true;
            result.cutoff = n - 1;
            std::ostringstream os;
            os << "abstract reach set converged at cutoff N=" << n - 1
               << " (" << views.size()
               << " views); invariants hold for all N";
            result.detail = os.str();
            if (ckptActive)
                removeSnapshot(sweepPath);
            return finish();
        }
        prevViews = std::move(views);

        // Instance N is in the books: advance the sweep snapshot
        // (the instance-level explore snapshot was deleted by the
        // explorer when it reached the fixpoint).
        if (ckptActive)
            write_sweep_snapshot();
    }

    result.detail = "no convergence within the sweep";
    if (ckptActive)
        removeSnapshot(sweepPath);
    return finish();
}

} // namespace neo
