/**
 * @file
 * The shard trunks: mclp-front's Server::Backend. It supervises K
 * mclp-serve worker processes and forwards each admitted line to the
 * worker chosen by hashing the request's network-dims signature
 * (core::networkSignature), so a network's warm session and cache
 * shard are never split across workers; with cacheShare each worker
 * also attaches its siblings' cache segments read-only. A line that
 * fails to decode routes by its raw bytes, so the worker it lands on
 * answers the very err line a lone worker would.
 *
 * Everything client-facing is service::Server's. This backend runs
 * entirely on the poll thread and starts no threads: a line is
 * written to its trunk inside submit(), and each worker answers its
 * trunk in request order, so a FIFO of pending slots per worker names
 * the answer that arrives next.
 *
 * Supervision (docs/ARCHITECTURE.md, "Sharded serving"): a worker
 * that dies is seen by SIGCHLD (a self-pipe in the poll set) or trunk
 * EOF; every line it still owed answers `err id=ID msg=worker-died`,
 * lines routed to it while it is down answer the same at once, and it
 * is respawned on the same shard cache dir under capped exponential
 * backoff, with nothing replayed:
 *
 *   UP --(trunk EOF / write error: SIGKILL the pid)--> KILLED
 *   UP or KILLED --(SIGCHLD reap)--> BACKOFF (delay doubles, capped;
 *                                    resets after >=10s of uptime)
 *   BACKOFF --(timer)--> STARTING (fork/exec on the same shard dir)
 *   STARTING --(connect ok)--> UP     (restarts++, uptime restarts)
 *   STARTING --(child exits first)--> BACKOFF (doubled)
 *
 * `stats`/`cache-stats` broadcast to every live worker and answer one
 * merged line (service/shard_merge.h); `front-stats` is answered here.
 * SIGTERM is handled from construction on, so one during worker
 * start-up still reaps the workers; finish() cascades SIGTERM to the
 * workers and returns 0 when that cascade was clean.
 */

#ifndef MCLP_SERVICE_FRONT_H
#define MCLP_SERVICE_FRONT_H

#include <signal.h>
#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/connection.h"
#include "service/server.h"
#include "util/net.h"

namespace mclp {
namespace service {

class ShardBackend : public Server::Backend
{
  public:
    /** The mclp-front flags the workers and the supervisor use. */
    struct Options
    {
        /** Worker w listens on SOCKET.wN (also reachable directly). */
        std::string socketPath;
        int workers = 2;
        std::string serveBin = "mclp-serve";
        /** Worker w caches under cacheDir/shard-N; empty = no cache. */
        std::string cacheDir;
        int64_t cacheMaxMb = 0;
        bool cacheShare = true;
        int cacheFlushIntervalMs = 0;
        int threads = 1;
        int64_t maxSessions = 0;  ///< 0 = leave at worker default
        bool cold = false;
        size_t maxLineBytes = 1 << 20;
        int respawnBackoffMs = 100;
        int respawnBackoffMaxMs = 5000;
    };

    /** Installs the SIGTERM/SIGCHLD handlers, then spawns every worker
     * and connects to it; ok() says whether all came up. One instance
     * per process at a time. */
    explicit ShardBackend(Options options);
    /** Reaps any worker still running; restores the handlers. */
    ~ShardBackend() override;

    ShardBackend(const ShardBackend &) = delete;
    ShardBackend &operator=(const ShardBackend &) = delete;

    bool ok() const { return ok_; }

    const char *name() const override { return "mclp-front"; }
    void start(Server &server) override { server_ = &server; }
    void submit(const std::shared_ptr<Connection> &conn, uint64_t seq,
                std::string line) override;
    void addPollFds(std::vector<pollfd> &fds,
                    int64_t &deadline_ms) override;
    void onPolled(const pollfd *fds, size_t count) override;
    int finish() override { return reapWorkers(); }

  private:
    /**
     * One response slot owed by a worker. Direct slots (aggId == 0)
     * forward the worker's answer verbatim; aggregate slots name a
     * pending stats/cache-stats broadcast instead. The scavenged
     * request id rides along so a slot that dies with its worker still
     * answers under the client's own id.
     */
    struct PendingSlot
    {
        std::shared_ptr<Connection> conn;
        uint64_t seq = 0;
        uint64_t aggId = 0;  ///< 0 = direct forward
        std::string id;      ///< scavenged request id ("-" when none)
    };

    /** One supervised worker: the child, its trunk, the slots whose
     * answers are still inside it, and the respawn state. */
    struct Worker
    {
        enum class State
        {
            Up,        ///< connected and serving
            Killed,    ///< dead to us; awaiting the SIGCHLD reap
            Backoff,   ///< reaped; respawn scheduled at respawnAtMs
            Starting,  ///< respawned; connecting to its socket
        };

        pid_t pid = -1;
        size_t index = 0;  ///< shard number (position in workers_)
        std::string socketPath;
        std::unique_ptr<Connection> link;
        std::deque<PendingSlot> pending;
        State state = State::Up;
        uint64_t restarts = 0;     ///< successful respawns so far
        int64_t connectedAtMs = 0; ///< uptime anchor of this incarnation
        int64_t spawnedAtMs = 0;   ///< fork time (Starting deadline)
        int64_t respawnAtMs = 0;   ///< due time while in Backoff
        int backoffMs = 0;         ///< current backoff step (0 = fresh)
    };

    /** A stats/cache-stats broadcast in flight: the client slot that
     * owes the merged answer plus the per-shard parts. */
    struct Aggregate
    {
        std::shared_ptr<Connection> conn;
        uint64_t seq = 0;
        std::string verb;
        std::vector<std::string> parts;  ///< one per shard
        size_t remaining = 0;
    };

    std::string shardDir(size_t index) const;
    std::vector<std::string> workerArgs(const Worker &worker) const;
    bool spawnWorker(Worker &worker);
    bool spawnWorkers();
    bool connectWorkers();
    bool connectTrunk(Worker &worker);
    size_t shardFor(const std::string &text) const;
    void forward(Worker &worker, PendingSlot slot,
                 const std::string &line);
    void broadcastStats(const std::shared_ptr<Connection> &conn,
                        uint64_t seq, const std::string &verb);
    void settleAggregatePart(uint64_t agg_id, size_t shard,
                             const std::string &line);
    std::string frontStatsLine() const;
    bool draining() const { return server_ && server_->draining(); }
    void readWorker(Worker &worker);
    void markWorkerDead(Worker &worker, const char *why);
    void failWorkerPending(Worker &worker);
    void reapExited();
    void scheduleRespawn(Worker &worker);
    void superviseWorkers();
    void pumpWorker(Worker &worker);
    int reapWorkers();

    Options opts_;
    Server *server_ = nullptr;
    bool ok_ = false;
    std::vector<Worker> workers_;
    util::SelfPipe signals_;
    struct sigaction oldTerm_
    {
    };
    struct sigaction oldChld_
    {
    };
    std::map<uint64_t, Aggregate> aggregates_;
    uint64_t nextAggId_ = 1;
    uint64_t totalRestarts_ = 0;
    /** A worker crashed after the drain began: the cascade was not
     * clean, so finish() returns 1. Pre-drain crashes are handled by
     * supervision and do not poison the exit code. */
    bool crashedDuringDrain_ = false;
};

} // namespace service
} // namespace mclp

#endif // MCLP_SERVICE_FRONT_H
