/**
 * @file
 * The verification service coordinator (neoverify --serve).
 *
 * A single-threaded poll() daemon that owns the journaled job queue,
 * runs up to --max-jobs attempts concurrently — each with its own
 * isolated worker set — and supervises them:
 *
 *  - Heartbeat pings collect per-worker counters every interval; the
 *    Mattern-style double round (all workers idle, global sent ==
 *    received, and every counter identical across two consecutive
 *    complete rounds) detects the distributed fixpoint, at which
 *    point workers are told to Finish and report exact final counts.
 *
 *  - Coordinated checkpoint barriers: pause all workers, wait for the
 *    in-flight state traffic to drain (the same stability test), have
 *    each worker write its partition snapshot, and only then journal
 *    the checkpoint manifest — the cut is consistent by construction,
 *    which is what makes recovery counts exact.
 *
 *  - Crash recovery: a worker death (SIGKILL included) fails the
 *    attempt; the job backs off exponentially and restarts from the
 *    last committed epoch with the survivors' worker count, each new
 *    worker re-dealing the old partitions by fingerprint. Attempts
 *    that keep failing quarantine the job as poison after the retry
 *    limit.
 *
 *  - Crash-only coordinator: every queue transition hits the journal
 *    before it is acted on, so a SIGKILLed coordinator restarts by
 *    replaying the journal — finishing every acknowledged job exactly
 *    once and double-running none. Journal appends within one poll
 *    iteration group-commit into a single fsync; acknowledgements are
 *    deferred until after that flush, so durability still strictly
 *    precedes every ack.
 *
 *  - TCP worker pools: with --listen, attempts run in star topology —
 *    workers (locally forked or joined from other boxes via --join)
 *    dial back over TCP, authenticate with the attempt's job id +
 *    nonce, and route state batches through the coordinator's relay.
 *    Links carry heartbeat-bounded read/write deadlines and bounded
 *    send queues with backpressure; a severed or corrupted link fails
 *    the attempt cleanly for retry (the per-connection Σsent==Σrecv
 *    fixpoint rule can never re-balance over a lossy link, so a false
 *    Verified is impossible by construction).
 */

#ifndef NEO_VERIF_SERVICE_COORDINATOR_HPP
#define NEO_VERIF_SERVICE_COORDINATOR_HPP

#include <cstdint>
#include <string>

namespace neo
{

struct ServeOptions
{
    /** Unix socket path clients connect to. */
    std::string sockPath;
    /** Journal + partition snapshot directory; empty defaults to
     *  "<sockPath>.state". */
    std::string stateDir;
    /** Workers per job attempt (a job's spec can lower it). */
    unsigned workers = 4;
    /** Admission control: attempts allowed to run concurrently. */
    unsigned maxJobs = 1;
    /** Supervision ping interval. */
    double heartbeatSeconds = 1.0;
    /** Per-attempt wall-clock budget; 0 disables. */
    double jobTimeoutSeconds = 0.0;
    /** Attempts before a job is quarantined as poison. */
    std::uint32_t retryLimit = 3;
    /** First retry delay; doubles per subsequent failure. */
    double backoffSeconds = 0.5;
    /** Checkpoint barrier interval; 0 disables periodic barriers
     *  (recovery then restarts jobs from scratch). */
    double checkpointEverySeconds = 5.0;
    /** Work-based barrier cadence: each worker holds its queue once it
     *  has interned this many fresh states since the attempt's start
     *  or its last barrier, and the coordinator starts a barrier as
     *  soon as one holds. Combines with checkpointEverySeconds
     *  (whichever fires first); 0 disables. */
    std::uint64_t checkpointEveryStates = 0;
    /** Streaming progress interval for --wait clients. */
    double progressEverySeconds = 1.0;
    /** Journal compaction threshold in bytes; 0 disables. */
    std::uint64_t journalCompactBytes = 8u << 20;
    /**
     * TCP endpoint ("host:port", port 0 = kernel-assigned) to listen
     * on beside the unix socket; empty disables TCP. With TCP active,
     * attempts run in star topology: workers dial back over TCP and
     * the coordinator relays their state batches, so remote workers
     * (neoverify --join) and local forks are interchangeable.
     */
    std::string listenAddr;
    /** Address workers are told to dial; defaults to the resolved
     *  listen address. Tests point it at a chaos proxy. */
    std::string advertiseAddr;
    /** Exit as soon as every journaled job is terminal (also
     *  requestable at runtime via --drain). */
    bool drainAndExit = false;
};

/** Run the coordinator until drained or signalled; @return a process
 *  exit code (kExitClean, or kExitServiceUnavailable when the socket
 *  or state directory cannot be set up). */
int runCoordinator(const ServeOptions &opts);

} // namespace neo

#endif // NEO_VERIF_SERVICE_COORDINATOR_HPP
