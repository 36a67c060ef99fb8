/**
 * @file
 * Persistent job queue for the verification service.
 *
 * Crash-only storage: every queue transition is appended to a
 * CRC-guarded journal and fsync'd BEFORE the in-memory state changes
 * (journal-first), so the queue a restarted coordinator replays is
 * exactly the queue the dead one had durably promised. A SIGKILL can
 * tear at most the final record; replay detects the torn tail by CRC,
 * truncates it, and continues — losing nothing that was ever
 * acknowledged to a client.
 *
 * Replay semantics encode the retry policy: a START with no matching
 * DONE/FAIL means the attempt died with the coordinator and counts as
 * a failed attempt, so a job that crash-loops the coordinator itself
 * still converges to quarantine instead of wedging the queue forever.
 */

#ifndef NEO_VERIF_SERVICE_JOB_QUEUE_HPP
#define NEO_VERIF_SERVICE_JOB_QUEUE_HPP

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "verif/checkpoint.hpp"

namespace neo
{

/** What to verify: the same model-selection surface as the neoverify
 *  CLI, shipped from client to coordinator and on to every worker. */
struct JobSpec
{
    std::string features = "neomesi";
    std::string system = "open";
    std::string method = "modified";
    /** Non-empty selects a corpus mutant instead of a bundled model. */
    std::string mutant;
    std::uint64_t n = 3;
    std::uint64_t maxStates = 8'000'000;
    double maxSeconds = 600.0;
    /** Fault-injection hook (tests): each worker _exits after
     *  interning this many fresh states; 0 disables. A nonzero value
     *  makes the job deterministic poison — it can never finish and
     *  must end in quarantine. */
    std::uint64_t crashAfter = 0;
    /** Per-job worker budget; 0 = the coordinator's default. With
     *  concurrent attempts this is admission control's second axis:
     *  a big sweep job can be capped so it never crowds out small
     *  ones. */
    std::uint32_t workers = 0;
    /** Fault-injection hook (tests): on the job's FIRST attempt each
     *  worker stops expanding once it has interned this many fresh
     *  states (the counter crashAfter uses), yet keeps interning
     *  arrivals, answering pings and writing checkpoint partitions.
     *  Its queue stays non-empty, so the attempt cannot reach a
     *  fixpoint: it holds mid-flight at a known amount of work until
     *  a test kills something, or the no-progress watchdog fails it.
     *  Later attempts run with the hook cleared (attemptSpec); 0
     *  disables. */
    std::uint64_t parkAfter = 0;

    void encode(SnapshotWriter &w) const;
    static bool decode(SnapshotReader &r, JobSpec &out);
    std::string summary() const;
};

enum class JobState : std::uint8_t
{
    Pending = 0,     ///< queued (possibly in retry backoff)
    Running = 1,     ///< an attempt's workers are alive
    Done = 2,        ///< terminal verdict recorded (any status)
    Quarantined = 3, ///< poison: failed retryLimit attempts
    Cancelled = 4,
};

const char *jobStateName(JobState s);

/** Terminal verdict of a job, journaled with its DONE record. */
struct JobResult
{
    /** VerifStatus cast to its underlying value. */
    std::uint8_t statusCode = 0;
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t invariantChecks = 0;
    double seconds = 0.0;
    std::string violatedInvariant;
    std::string detail;

    void encode(SnapshotWriter &w) const;
    static bool decode(SnapshotReader &r, JobResult &out);
};

/**
 * Committed checkpoint barrier: which partition files a retry resumes
 * from, and the exact counters accumulated up to that consistent cut.
 * A resumed attempt starts its local counters at zero; the final
 * verdict is base + the resumed attempt's deltas, which is what makes
 * kill-and-recover fixpoint counts equal an undisturbed run's.
 */
struct CkptManifest
{
    std::uint64_t epoch = 0; ///< 0 = no checkpoint committed
    std::uint32_t parts = 0; ///< partition files in the epoch
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t invariantChecks = 0;
    double seconds = 0.0; ///< wall time consumed before the cut
};

struct Job
{
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::Pending;
    /** Attempts started (a crashed coordinator's unmatched START
     *  counts: replay resolves it to a failure). */
    std::uint32_t attempts = 0;
    /** Retry backoff gate: not runnable before this monotonic time.
     *  Not persisted — a restart retries immediately, which is the
     *  right bias after losing the coordinator. */
    double notBefore = 0.0;
    /** Worker count for the next attempt; 0 = the server default.
     *  Shrinks when workers die (reshard-to-survivors). */
    std::uint32_t nextWorkers = 0;
    CkptManifest ckpt;
    JobResult result; ///< valid when state == Done
    std::string lastFailure;
};

/** The spec an attempt's workers run: the job's own, with the park
 *  hook cleared on every attempt after the first. Call it after
 *  markStarted: the decision rests on the journaled attempt count, so
 *  a coordinator restarted from the journal makes the same one. */
JobSpec attemptSpec(const Job &job);

/** Journal record types (persisted values — never renumber). */
inline constexpr std::uint8_t kRecSubmit = 1;
inline constexpr std::uint8_t kRecStart = 2;
inline constexpr std::uint8_t kRecDone = 3;
inline constexpr std::uint8_t kRecFail = 4;
inline constexpr std::uint8_t kRecCancel = 5;
inline constexpr std::uint8_t kRecQuarantine = 6;
inline constexpr std::uint8_t kRecCheckpoint = 7;
/** Compaction snapshot: the full job table at one instant. Replay
 *  resets to it and applies the tail that follows. */
inline constexpr std::uint8_t kRecSnapshot = 8;

/**
 * Append-only record log: [u32 len][u32 crc][u8 type][body]. Appends
 * are durable before they are acknowledged; with group commit the
 * fsync is deferred to sync() so a burst of appends shares one flush,
 * but acknowledgement still strictly follows the sync.
 */
class JobJournal
{
  public:
    JobJournal() = default;
    ~JobJournal();
    JobJournal(const JobJournal &) = delete;
    JobJournal &operator=(const JobJournal &) = delete;

    /** Open (creating if absent) for append; replay() reads first. */
    bool open(const std::string &path, std::string &err);

    /**
     * Scan every intact record into @p cb in append order. A torn or
     * corrupt tail — the signature of a mid-append SIGKILL — is
     * truncated away so subsequent appends extend a clean log.
     */
    bool replay(const std::function<void(std::uint8_t type,
                                         SnapshotReader &body)> &cb,
                std::string &err);

    /**
     * Append one record. With @p sync (the default) the record is
     * fsync'd before returning; with sync=false it is only written,
     * and the caller MUST sync() before acting on or acknowledging
     * the transition (group commit).
     */
    bool append(std::uint8_t type,
                const std::vector<std::uint8_t> &body,
                bool sync = true);

    /** Flush deferred appends: one fsync covers every append since
     *  the last. No-op when nothing is pending. */
    bool sync();

    /**
     * Compaction: atomically replace the log with a single snapshot
     * record — write to path+".compact.tmp", fsync, rename over, and
     * adopt the new fd. The old log's records are all reflected in
     * the snapshot the caller encoded, so replay equivalence is the
     * caller's invariant; atomicity (a crash leaves either the old
     * or the new log, never a mix) is this function's.
     */
    bool rewrite(std::uint8_t type,
                 const std::vector<std::uint8_t> &body,
                 std::string &err);

    /** Bytes in the log (intact prefix + appends since open). */
    std::uint64_t bytes() const { return bytes_; }

    /** Raw fd (forked workers close it; they must never inherit an
     *  open journal handle). */
    int fd() const { return fd_; }

    void close();

  private:
    int fd_ = -1;
    std::string path_;
    std::uint64_t bytes_ = 0;
    bool dirty_ = false;
};

/** Ceiling on the doubling retry backoff: transients worth waiting
 *  out resolve well within this; past it the delay only postpones
 *  the retry (or the quarantine verdict) without improving odds. */
inline constexpr double kBackoffCapSeconds = 10.0;

/**
 * The queue itself: in-memory job table fronting the journal, with
 * exponential-backoff retry and poison quarantine.
 */
class JobQueue
{
  public:
    JobQueue(std::uint32_t retryLimit, double backoffSeconds)
        : retryLimit_(retryLimit), backoff_(backoffSeconds)
    {
    }

    /** Open + replay the journal at @p path; resolves interrupted
     *  attempts (unmatched STARTs) per the retry policy. */
    bool open(const std::string &path, double now, std::string &err);

    /**
     * Group commit: defer the per-mutation fsync to the next
     * commit(), so appends arriving within one poll iteration share
     * a single flush. The coordinator MUST commit() before sending
     * any acknowledgement or taking any irreversible action (fork,
     * kill, file pruning) that depends on the journaled transition.
     */
    void setGroupCommit(bool on) { groupCommit_ = on; }
    void commit();

    /** Size-triggered compaction: once the journal exceeds
     *  @p bytes (0 = never), commit() folds it into one snapshot
     *  record. */
    void setCompactionThreshold(std::uint64_t bytes)
    {
        compactBytes_ = bytes;
    }
    std::uint64_t journalBytes() const { return journal_.bytes(); }
    /** Force a compaction now regardless of size (tests). */
    void compactNow();

    /** Journal + enqueue; @return the new job id. */
    std::uint64_t submit(const JobSpec &spec);

    /** Next runnable job (FIFO by id among Pending jobs whose backoff
     *  has expired); nullptr when none. */
    Job *runnable(double now);

    /** Journal the attempt start (attempt counter bumps here). */
    void markStarted(Job &job, std::uint32_t workers);

    /** Journal the terminal verdict. */
    void markDone(Job &job, const JobResult &result);

    /** Journal an attempt failure: back off exponentially, shrink the
     *  next attempt to @p nextWorkers (reshard to survivors), and
     *  quarantine once attempts reach the retry limit. */
    void failAttempt(Job &job, const std::string &reason,
                     std::uint32_t nextWorkers, double now);

    /** Journal a committed checkpoint barrier. */
    void recordCheckpoint(Job &job, const CkptManifest &m);

    /** Cancel a Pending or Running job — journal-first, so the
     *  coordinator cancels BEFORE killing a running attempt's workers
     *  (a crash in between replays as cancelled, never as retried);
     *  false if unknown or already terminal. */
    bool cancel(std::uint64_t id);

    Job *find(std::uint64_t id);
    const std::map<std::uint64_t, Job> &jobs() const { return jobs_; }
    bool allTerminal() const;
    /** Highest checkpoint epoch ever journaled (restart resumes the
     *  global epoch counter past it). */
    std::uint64_t maxEpochSeen() const { return maxEpoch_; }
    std::uint32_t retryLimit() const { return retryLimit_; }
    int journalFd() const { return journal_.fd(); }

  private:
    void quarantine(Job &job, const std::string &reason);
    bool append(std::uint8_t type,
                const std::vector<std::uint8_t> &body);

    JobJournal journal_;
    std::map<std::uint64_t, Job> jobs_;
    std::uint64_t nextId_ = 1;
    std::uint64_t maxEpoch_ = 0;
    std::uint32_t retryLimit_;
    double backoff_;
    bool groupCommit_ = false;
    std::uint64_t compactBytes_ = 0;
};

/** Human-readable dump of a journal file (neoverify --journal): one
 *  line per record, greppable — the exactly-once recovery tests count
 *  "DONE job=<id>" lines. @return false if unreadable. */
bool dumpJournal(const std::string &path, std::FILE *out,
                 std::string &err);

} // namespace neo

#endif // NEO_VERIF_SERVICE_JOB_QUEUE_HPP
