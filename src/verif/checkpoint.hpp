/**
 * @file
 * Crash-safe checkpoint/resume for verification runs.
 *
 * Long explorations are the norm at production scale (the paper's war
 * story is a >200 GB Neo baseline run); a preemption, OOM kill or ^C
 * must not throw away hours of reachability work. This module gives
 * every exploration mode — sequential BFS, the partitioned
 * parallel explorer, random-walk falsification and the parametric
 * sweep — periodic, versioned, CRC-guarded snapshots written atomically
 * (serialize to a temp file, fsync, rename into place), so the last
 * good checkpoint survives a crash at ANY instant, including mid-write.
 *
 * Resumption contract (locked in by tests/test_checkpoint.cpp): an
 * uninterrupted run and a kill-then-resume run reach the identical
 * fixpoint — same status, state/transition/violation and per-rule fire
 * counts — for every exploration mode and thread count. Explore
 * snapshots use one canonical layout (states in discovery order with
 * dense ids) so a run checkpointed sequentially can resume on the
 * parallel explorer and vice versa.
 *
 * A snapshot is rejected — with a clean fatal error, never a wrong
 * answer — when its magic/version/CRC do not verify (truncation,
 * corruption, torn write) or when its model fingerprint does not match
 * the transition system being resumed.
 */

#ifndef NEO_VERIF_CHECKPOINT_HPP
#define NEO_VERIF_CHECKPOINT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "verif/transition_system.hpp"

namespace neo
{

/** Checkpoint policy, shared by every exploration mode. */
struct CheckpointConfig
{
    /** Snapshot directory; empty disables checkpointing entirely. */
    std::string dir;
    /** Periodic snapshot interval in seconds; 0 = snapshots only on
     *  interrupt or memory pressure. */
    double everySeconds = 0.0;
    /** Restore the snapshot in dir before exploring further. A
     *  missing snapshot is not an error (the run starts fresh); a
     *  corrupt or wrong-model snapshot is fatal. */
    bool resume = false;
};

/** What kind of state a snapshot file carries. */
enum class SnapshotKind : std::uint32_t
{
    Explore = 1, ///< BFS/parallel reachability (canonical layout)
    Walk = 2,    ///< random-walk falsification progress
    Sweep = 3,   ///< parametric sweep progress (completed instances)
};

/** IEEE CRC-32 (the zlib polynomial), incremental via @p crc. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t n,
                    std::uint32_t crc = 0);

/** FNV-1a fingerprint of a model's shape: variable names, initial
 *  state, rule names/kinds and invariant names. Snapshots embed it so
 *  a resume against a different model is rejected cleanly. */
std::uint64_t modelFingerprint(const TransitionSystem &ts);

/** Little-endian byte-buffer serializer for snapshot payloads. */
class SnapshotWriter
{
  public:
    void putU8(std::uint8_t v) { buf_.push_back(v); }
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putF64(double v);
    void putBytes(const std::uint8_t *p, std::size_t n);
    /** Raw state payload; the reader knows numVars from the model. */
    void putState(const VState &s);

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked reader; any over-read latches ok() to false and
 *  yields zeros, so decoders can validate once at the end. */
class SnapshotReader
{
  public:
    SnapshotReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit SnapshotReader(const std::vector<std::uint8_t> &buf)
        : SnapshotReader(buf.data(), buf.size())
    {
    }

    std::uint8_t getU8();
    std::uint32_t getU32();
    std::uint64_t getU64();
    double getF64();
    bool getBytes(std::uint8_t *out, std::size_t n);
    bool getState(std::size_t numVars, VState &out);
    /** Zero-copy view of the next @p n bytes (streamed state decode);
     *  nullptr on over-read, which latches ok() false. */
    const std::uint8_t *viewBytes(std::size_t n);

    bool ok() const { return ok_; }
    /** True when the payload was consumed exactly. */
    bool atEnd() const { return ok_ && pos_ == size_; }
    /** Latch a decode failure from a caller-side validity check (e.g.
     *  a length field out of range) so every subsequent read fails
     *  instead of decoding from misaligned bytes. */
    void fail() { ok_ = false; }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * Atomically write a snapshot file: header (magic, version, kind,
 * model fingerprint, payload size + CRC, header CRC) followed by the
 * payload, serialized to "<path>.tmp", fsync'd, then renamed onto
 * @p path. @return false and set @p err on any I/O failure; the
 * previous snapshot at @p path is untouched in that case.
 */
bool writeSnapshotFile(const std::string &path, SnapshotKind kind,
                       std::uint64_t fingerprint,
                       const std::vector<std::uint8_t> &payload,
                       std::string &err);

/**
 * Read and validate a snapshot file. Magic, version, header CRC,
 * payload CRC, kind and fingerprint must all verify; any mismatch
 * (truncated file, flipped bytes, snapshot of a different model or
 * mode, a version this build does not write) fails with a precise
 * @p err and an untouched @p payload.
 */
bool readSnapshotFile(const std::string &path, SnapshotKind kind,
                      std::uint64_t fingerprint,
                      std::vector<std::uint8_t> &payload,
                      std::string &err);

/** Read just the model fingerprint from a snapshot header; 0 if the
 *  file is missing or its header does not verify. */
std::uint64_t peekSnapshotFingerprint(const std::string &path);

bool snapshotExists(const std::string &path);
void removeSnapshot(const std::string &path);

/**
 * Startup hygiene: remove orphaned "*.tmp" files under @p dir (one
 * level, non-recursive). A crash between serializing "<path>.tmp" and
 * the atomic rename leaves the tmp behind; it is never a valid
 * snapshot (resume only ever reads the renamed path) and only wastes
 * disk, so every engine reaps the directory before its first write.
 * @return files removed; 0 for a missing or clean directory.
 */
std::size_t reapStaleCheckpointTmps(const std::string &dir);

/** Snapshot file locations inside a checkpoint directory. */
std::string exploreSnapshotPath(const CheckpointConfig &cfg);
std::string walkSnapshotPath(const CheckpointConfig &cfg);
std::string sweepSnapshotPath(const CheckpointConfig &cfg);

/**
 * Per-partition snapshot name for the distributed service (service/):
 * "<dir>/epoch-<epoch>-part-<part>-of-<count>.ckpt". Worker @p part
 * of @p count writes its shard's visited set + frontier here at each
 * coordinated checkpoint barrier; the reshard loader reads all
 * @p count files of an epoch and re-deals states by fingerprint, so
 * an epoch written by W workers can resume onto any worker count.
 */
std::string partitionSnapshotPath(const std::string &dir,
                                  std::uint64_t epoch, unsigned part,
                                  unsigned count);

// ---------------------------------------------------------------
// Canonical explore snapshot (sequential BFS and parallel explorer)
// ---------------------------------------------------------------

/**
 * Mode-neutral image of an in-progress reachability run. States are
 * listed in a canonical discovery order and referenced by dense index,
 * which the sequential explorer uses directly and the parallel
 * explorer maps onto its (partition, local) packed ids — so either
 * explorer can resume a snapshot the other wrote.
 */
struct ExploreSnapshot
{
    double elapsedSeconds = 0.0;
    std::uint64_t transitionsFired = 0;
    std::vector<std::uint64_t> ruleFires;

    /** Visited canonical states, dense-id order. */
    std::vector<VState> states;

    /** Predecessor link of states[i] (trace reconstruction). */
    struct Link
    {
        std::uint64_t parent = 0;
        std::uint32_t rule = 0;
        std::uint32_t depth = 0;
    };
    /** Parallel to states when hasLinks; empty when the run sheds
     *  predecessor links under memory pressure. */
    bool hasLinks = false;
    std::vector<Link> links;

    /** Unexpanded frontier: dense id + full state. */
    struct FrontierItem
    {
        std::uint64_t id = 0;
        std::uint32_t depth = 0;
        VState state;
    };
    std::vector<FrontierItem> frontier;
};

std::vector<std::uint8_t> encodeExploreSnapshot(const ExploreSnapshot &snap,
                                                std::size_t numVars);
bool decodeExploreSnapshot(const std::vector<std::uint8_t> &payload,
                           std::size_t numVars, std::size_t numRules,
                           ExploreSnapshot &out, std::string &err);

/**
 * Streamed explore-snapshot codec: byte-for-byte the same layout as
 * encodeExploreSnapshot/decodeExploreSnapshot (which are thin wrappers
 * over these), but states flow through callbacks instead of a
 * materialized `std::vector<VState>` image — the explorers read and
 * write their arena-interned storage directly, so snapshotting never
 * doubles the live state footprint.
 */
struct ExploreSnapshotMeta
{
    double elapsedSeconds = 0.0;
    std::uint64_t transitionsFired = 0;
    std::vector<std::uint64_t> ruleFires;
    bool hasLinks = false;
    std::uint64_t numStates = 0;
};

/**
 * @param stateAt bytes of the state with dense id i (numVars long)
 * @param linkAt predecessor link of state i; only called when
 *        meta.hasLinks
 * @param frontierAt (dense id, depth) of the n-th unexpanded frontier
 *        entry; its state bytes are taken from stateAt(id)
 */
std::vector<std::uint8_t> encodeExploreSnapshotStreamed(
    const ExploreSnapshotMeta &meta, std::size_t numVars,
    const std::function<const std::uint8_t *(std::uint64_t)> &stateAt,
    const std::function<ExploreSnapshot::Link(std::uint64_t)> &linkAt,
    std::uint64_t numFrontier,
    const std::function<std::pair<std::uint64_t, std::uint32_t>(
        std::uint64_t)> &frontierAt);

/**
 * Decode with the same validation as decodeExploreSnapshot. @p meta is
 * fully populated before the first callback runs; states, links and
 * frontier items then arrive in dense-id order. State pointers are
 * views into @p payload, valid only for the duration of the call.
 */
bool decodeExploreSnapshotStreamed(
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
    std::string &err);

// ---------------------------------------------------------------
// Interrupt plumbing (SIGINT/SIGTERM -> graceful drain + snapshot)
// ---------------------------------------------------------------

/** Install SIGINT/SIGTERM handlers that set the interrupt flag; the
 *  explorers notice it at their next safe point, flush a final
 *  snapshot and return VerifStatus::Interrupted. */
void installInterruptHandlers();

/** Set the interrupt flag programmatically (tests; also what the
 *  signal handler does — it is async-signal-safe). */
void requestInterrupt();
void clearInterruptRequest();
bool interruptRequested();

} // namespace neo

#endif // NEO_VERIF_CHECKPOINT_HPP
