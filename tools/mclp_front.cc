/**
 * @file
 * mclp-front — the self-healing sharded serving front: one listening
 * endpoint (Unix socket and/or loopback TCP), K supervised mclp-serve
 * worker processes, requests routed by network identity.
 *
 * The front spawns K workers (each on its own Unix socket and, with
 * --cache-dir, its own cache shard directory), accepts client
 * connections itself, and forwards each request line to the worker
 * chosen by hashing the request's network-dims signature
 * (core::networkSignature). The same network therefore always lands
 * on the same worker, so each shard's warm sessions and persistent
 * frontier cache only ever hold its own slice of the traffic — and
 * with segment sharing (--cache-share, on by default) each worker
 * also attaches its siblings' published cache segments read-only, so
 * the K shards form one host-wide warm tier instead of K cold silos.
 *
 * Wire behavior is byte-identical to a single mclp-serve worker:
 * responses are delivered strictly in per-connection request order
 * (the same reorder machinery the server itself uses), err lines pass
 * through unchanged, and a line that fails to decode is routed by its
 * raw bytes so the worker it lands on produces the very err answer a
 * lone worker would. The CI sharded smoke diffs a front-of-2 against
 * a single cold worker line for line.
 *
 * Supervision (the self-healing part): a worker that dies — crash,
 * OOM kill, operator kill -9 — is detected by SIGCHLD/trunk EOF,
 * every line it still owed answers `err id=ID msg=worker-died` (no
 * client ever hangs on a hole in its response order), and the worker
 * is respawned on the same shard cache dir under capped exponential
 * backoff. Nothing is replayed: the shard's cache segment tiers
 * make the restart warm, and re-sent requests answer byte-identical
 * to a cold run. While a shard is down, lines routed to it answer
 * `err ... msg=worker-died` immediately (shed, never queued). The
 * state machine per worker:
 *
 *   UP --(trunk EOF / write error: SIGKILL the pid)--> KILLED
 *   UP or KILLED --(SIGCHLD reap)--> BACKOFF (delay doubles, capped;
 *                                    resets after >=10s of uptime)
 *   BACKOFF --(timer)--> STARTING (fork/exec on the same shard dir)
 *   STARTING --(connect ok)--> UP     (restarts++, uptime restarts)
 *   STARTING --(child exits first)--> BACKOFF (doubled)
 *
 * Verbs: `stats` and `cache-stats` broadcast to every live worker;
 * the front answers one line with the counters summed across shards
 * (enabled/clean are ANDed, generation is the max) followed by each
 * worker's verbatim line as a per-shard breakdown (dead shards
 * contribute an err part). `front-stats` is answered by the front
 * itself: per-shard state, pid, restart count, and uptime. Workers
 * also stay directly reachable at SOCKET.w0..w{K-1}. `shutdown` (or
 * SIGTERM) drains the front: stop accepting, deliver every in-flight
 * answer, then cascade SIGTERM to the workers so each flushes its
 * cache shard and exits; the front exits 0 when the final cascade is
 * clean (an earlier crash that was respawned does not poison the exit
 * code — a crash *during* the drain does).
 *
 * Examples:
 *   mclp-front --socket /tmp/mclp.sock --workers 2 --cache-dir /tmp/fc
 *   mclp-front --socket /tmp/mclp.sock --tcp-port 0 --workers 4
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/dse_request.h"
#include "service/connection.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "service/shard_merge.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/net.h"
#include "util/record_file.h"
#include "util/string_utils.h"

using namespace mclp;

namespace {

void
printUsage()
{
    std::printf(
        "mclp-front: self-healing sharded serving front over K "
        "mclp-serve workers\n\n"
        "usage: mclp-front --socket PATH [options]\n"
        "  --socket PATH        listen on this Unix stream socket;\n"
        "                       worker w gets PATH.wN (also reachable\n"
        "                       directly, e.g. for per-shard stats)\n"
        "  --tcp-port N         also listen on loopback TCP port N\n"
        "                       (0 = ephemeral; the bound port is\n"
        "                       printed to stderr); TCP clients get\n"
        "                       the same per-connection ordering\n"
        "  --workers K          worker process count (default 2)\n"
        "  --serve-bin PATH     mclp-serve binary (default: next to\n"
        "                       this binary, else $PATH)\n"
        "worker passthrough (each applies to every worker):\n"
        "  --cache-dir DIR      persistent frontier cache root; worker\n"
        "                       w uses DIR/shard-N, so shards never\n"
        "                       contend on one cache segment\n"
        "  --cache-max-mb N     forward the per-shard segment byte\n"
        "                       budget (default 0 = unbounded)\n"
        "  --cache-share 0|1    let sibling workers attach each\n"
        "                       other's published cache segments\n"
        "                       read-only (default 1): rows one shard\n"
        "                       flushed warm every shard on the host\n"
        "                       (forwarded per worker as its\n"
        "                       siblings' --cache-sibling dirs;\n"
        "                       needs --cache-dir)\n"
        "  --cache-flush-interval-ms N\n"
        "                       forward the background flush interval\n"
        "                       so shards publish mid-life and share\n"
        "                       warmth before shutdown (default 0 =\n"
        "                       shutdown-only flush)\n"
        "  --threads N          request threads per worker (default 1)\n"
        "  --max-sessions N     warm-session LRU capacity per worker\n"
        "  --cold               workers answer every request cold\n"
        "supervision:\n"
        "  --respawn-backoff-ms N\n"
        "                       first respawn delay after a worker\n"
        "                       death (default 100); doubles per\n"
        "                       rapid re-death, resets after 10s of\n"
        "                       uptime\n"
        "  --respawn-backoff-max-ms N\n"
        "                       backoff ceiling (default 5000)\n"
        "front robustness:\n"
        "  --max-line-bytes N   request lines past N bytes answer\n"
        "                       'err ... msg=line-too-long' (default\n"
        "                       1048576; also forwarded to workers)\n"
        "  --help               this text\n\n"
        "protocol: identical to mclp-serve (docs/PROTOCOL.md); routing\n"
        "is by network-dims signature, so equal-dims requests share a\n"
        "shard. 'stats'/'cache-stats' broadcast to every worker and\n"
        "answer one line: counters summed across shards (enabled/clean\n"
        "ANDed, generation maxed), then each worker's verbatim line\n"
        "after ' | shardN: ' separators. 'front-stats' reports the\n"
        "supervisor's own view: shardN=STATE:PID:RESTARTS:UPTIME_MS\n"
        "per shard. A line routed to a dead shard — in flight when it\n"
        "died, or arriving before the respawn — answers\n"
        "'err id=ID msg=worker-died'. 'shutdown' or SIGTERM drains\n"
        "the front and SIGTERMs the workers.\n");
}

struct Options
{
    std::string socketPath;
    int tcpPort = -1;  ///< -1 = no TCP listener; 0 = ephemeral
    int workers = 2;
    std::string serveBin;
    std::string cacheDir;
    int64_t cacheMaxMb = 0;
    bool cacheShare = true;
    int cacheFlushIntervalMs = 0;
    int threads = 1;
    int64_t maxSessions = 0;  // 0 = leave at worker default
    bool cold = false;
    size_t maxLineBytes = 1 << 20;
    int respawnBackoffMs = 100;
    int respawnBackoffMaxMs = 5000;
};

std::optional<Options>
parseArgs(int argc, char **argv)
{
    Options opts;
    auto need_value = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            util::fatal("%s needs a value", flag);
        return argv[++i];
    };
    auto int_flag = [&](int &i, const char *flag, int64_t min,
                        int64_t max) {
        return util::parseIntFlag(flag, need_value(i, flag), min, max);
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage();
            return std::nullopt;
        } else if (arg == "--socket") {
            opts.socketPath = need_value(i, "--socket");
        } else if (arg == "--tcp-port") {
            opts.tcpPort =
                static_cast<int>(int_flag(i, "--tcp-port", 0, 65535));
        } else if (arg == "--workers") {
            opts.workers =
                static_cast<int>(int_flag(i, "--workers", 1, 256));
        } else if (arg == "--serve-bin") {
            opts.serveBin = need_value(i, "--serve-bin");
        } else if (arg == "--cache-dir") {
            opts.cacheDir = need_value(i, "--cache-dir");
        } else if (arg == "--cache-max-mb") {
            opts.cacheMaxMb =
                int_flag(i, "--cache-max-mb", 0, int64_t{1} << 30);
        } else if (arg == "--cache-share") {
            opts.cacheShare = int_flag(i, "--cache-share", 0, 1) != 0;
        } else if (arg == "--cache-flush-interval-ms") {
            opts.cacheFlushIntervalMs = static_cast<int>(
                int_flag(i, "--cache-flush-interval-ms", 0, 1 << 30));
        } else if (arg == "--threads") {
            opts.threads =
                static_cast<int>(int_flag(i, "--threads", 0, 4096));
        } else if (arg == "--max-sessions") {
            opts.maxSessions = int_flag(i, "--max-sessions", 1, 1 << 20);
        } else if (arg == "--cold") {
            opts.cold = true;
        } else if (arg == "--max-line-bytes") {
            opts.maxLineBytes = static_cast<size_t>(
                int_flag(i, "--max-line-bytes", 64, int64_t{1} << 30));
        } else if (arg == "--respawn-backoff-ms") {
            opts.respawnBackoffMs = static_cast<int>(
                int_flag(i, "--respawn-backoff-ms", 1, 1 << 30));
        } else if (arg == "--respawn-backoff-max-ms") {
            opts.respawnBackoffMaxMs = static_cast<int>(
                int_flag(i, "--respawn-backoff-max-ms", 1, 1 << 30));
        } else {
            util::fatal("unknown option '%s' (try --help)",
                        arg.c_str());
        }
    }
    if (opts.socketPath.empty())
        util::fatal("--socket is required (try --help)");
    if (opts.respawnBackoffMaxMs < opts.respawnBackoffMs)
        opts.respawnBackoffMaxMs = opts.respawnBackoffMs;
    return opts;
}

/** mclp-serve next to our own binary when argv[0] has a directory
 * part; otherwise rely on $PATH (execvp). */
std::string
defaultServeBin(const char *argv0)
{
    std::string self = argv0;
    size_t slash = self.rfind('/');
    if (slash == std::string::npos)
        return "mclp-serve";
    return self.substr(0, slash + 1) + "mclp-serve";
}

/**
 * One response slot owed by a worker. Direct slots (aggId == 0) are a
 * (client id, seq) pair and the worker's answer is forwarded
 * verbatim; aggregate slots name a pending stats/cache-stats
 * broadcast instead, and the answer becomes that shard's part of the
 * merged response. The scavenged request id rides along so a slot
 * that dies with its worker still answers under the client's own id.
 */
struct PendingSlot
{
    uint64_t clientId = 0;
    uint64_t seq = 0;
    uint64_t aggId = 0;  ///< 0 = direct forward
    std::string id;      ///< scavenged request id ("-" when none)
};

/**
 * One supervised mclp-serve worker: the child process, the front's
 * connection to its socket, the FIFO of slots whose answers are still
 * inside it, and the respawn state machine (see the file comment).
 * The worker answers its connection strictly in request order (the
 * server's own pipelining contract), so the FIFO head always names
 * the response line that arrives next — no request ids needed on the
 * trunk.
 */
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
    std::unique_ptr<service::Connection> link;
    std::deque<PendingSlot> pending;
    State state = State::Up;
    uint64_t restarts = 0;     ///< successful respawns so far
    int64_t connectedAtMs = 0; ///< uptime anchor of this incarnation
    int64_t spawnedAtMs = 0;   ///< fork time (Starting deadline)
    int64_t respawnAtMs = 0;   ///< due time while in Backoff
    int backoffMs = 0;         ///< current backoff step (0 = fresh)
};

/**
 * A stats/cache-stats broadcast in flight: the client slot that owes
 * the merged answer plus the per-shard parts still being collected.
 */
struct Aggregate
{
    uint64_t clientId = 0;
    uint64_t seq = 0;
    std::string verb;
    std::vector<std::string> parts;  ///< one per shard
    size_t remaining = 0;
};

volatile std::sig_atomic_t g_sigterm = 0;
volatile std::sig_atomic_t g_sigchld = 0;
const util::SelfPipe *g_wake = nullptr;

void
onSigterm(int)
{
    g_sigterm = 1;
    if (g_wake)
        g_wake->notify();
}

void
onSigchld(int)
{
    g_sigchld = 1;
    if (g_wake)
        g_wake->notify();
}

/** Uptime under this much is a "rapid re-death": backoff doubles
 * instead of resetting. */
constexpr int64_t kBackoffResetUptimeMs = 10000;

/** A respawned worker that cannot be connected within this window is
 * killed and rescheduled (its listener never came up). */
constexpr int64_t kConnectDeadlineMs = 10000;

class Front
{
  public:
    Front(Options opts, std::string serve_bin)
        : opts_(std::move(opts)), serveBin_(std::move(serve_bin))
    {
    }

    int run();

  private:
    std::string shardDir(size_t index) const;
    std::vector<std::string> workerArgs(const Worker &worker) const;
    bool spawnWorker(Worker &worker);
    bool spawnWorkers();
    bool connectWorkers();
    void acceptPending(int listen_fd);
    void routeLine(const std::shared_ptr<service::Connection> &conn,
                   const std::string &line, bool overlong);
    size_t shardFor(const std::string &text) const;
    void sendToWorker(size_t shard,
                      const std::shared_ptr<service::Connection> &conn,
                      const std::string &line);
    void broadcastStats(const std::shared_ptr<service::Connection> &conn,
                        const std::string &line,
                        const std::string &verb);
    void settleAggregatePart(uint64_t agg_id, size_t shard,
                             const std::string &line);
    std::string frontStatsLine() const;
    void readClient(const std::shared_ptr<service::Connection> &conn);
    void readWorker(Worker &worker);
    void markWorkerDead(Worker &worker, const char *why);
    void failWorkerPending(Worker &worker);
    void reapExited();
    void scheduleRespawn(Worker &worker);
    void superviseWorkers();
    int pollTimeoutMs() const;
    void pumpClient(const std::shared_ptr<service::Connection> &conn);
    void pumpWorker(Worker &worker);
    void beginDrain();
    int reapWorkers();

    Options opts_;
    std::string serveBin_;
    std::vector<Worker> workers_;
    util::ScopedFd listener_;
    util::ScopedFd tcpListener_;
    util::SelfPipe wake_;
    std::map<uint64_t, std::shared_ptr<service::Connection>> clients_;
    std::map<uint64_t, Aggregate> aggregates_;
    uint64_t nextClientId_ = 1;
    uint64_t nextAggId_ = 1;
    uint64_t totalRestarts_ = 0;
    bool draining_ = false;
    /** A worker crashed after the drain began: the cascade was not
     * clean, so the front exits 1. Pre-drain crashes are handled by
     * supervision and do not poison the exit code. */
    bool crashedDuringDrain_ = false;
};

std::string
Front::shardDir(size_t index) const
{
    return opts_.cacheDir + "/shard-" + std::to_string(index);
}

std::vector<std::string>
Front::workerArgs(const Worker &worker) const
{
    std::vector<std::string> args = {serveBin_, "--socket",
                                     worker.socketPath};
    if (!opts_.cacheDir.empty()) {
        args.push_back("--cache-dir");
        args.push_back(shardDir(worker.index));
        if (opts_.cacheMaxMb > 0) {
            args.push_back("--cache-max-mb");
            args.push_back(std::to_string(opts_.cacheMaxMb));
        }
        // Segment sharing: each worker attaches every sibling shard's
        // published segment read-only, so a row any shard flushes
        // warms all K.
        if (opts_.cacheShare) {
            for (int sibling = 0; sibling < opts_.workers; ++sibling) {
                if (static_cast<size_t>(sibling) == worker.index)
                    continue;
                args.push_back("--cache-sibling");
                args.push_back(shardDir(static_cast<size_t>(sibling)));
            }
        }
        if (opts_.cacheFlushIntervalMs > 0) {
            args.push_back("--cache-flush-interval-ms");
            args.push_back(std::to_string(opts_.cacheFlushIntervalMs));
        }
    }
    args.push_back("--threads");
    args.push_back(std::to_string(opts_.threads));
    if (opts_.maxSessions > 0) {
        args.push_back("--max-sessions");
        args.push_back(std::to_string(opts_.maxSessions));
    }
    if (opts_.cold)
        args.push_back("--cold");
    args.push_back("--max-line-bytes");
    args.push_back(std::to_string(opts_.maxLineBytes));
    return args;
}

bool
Front::spawnWorker(Worker &worker)
{
    std::vector<std::string> args = workerArgs(worker);
    pid_t pid = fork();
    if (pid < 0) {
        util::warn("mclp-front: fork: %s", std::strerror(errno));
        return false;
    }
    if (pid == 0) {
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        execvp(argv[0], argv.data());
        std::fprintf(stderr, "mclp-front: exec %s: %s\n", argv[0],
                     std::strerror(errno));
        _exit(127);
    }
    worker.pid = pid;
    worker.spawnedAtMs = util::monotonicMs();
    return true;
}

bool
Front::spawnWorkers()
{
    for (int w = 0; w < opts_.workers; ++w) {
        Worker worker;
        worker.index = static_cast<size_t>(w);
        worker.socketPath =
            opts_.socketPath + ".w" + std::to_string(w);
        if (!opts_.cacheDir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(
                shardDir(worker.index), ec);
            if (ec) {
                util::warn("mclp-front: cannot create %s: %s",
                           shardDir(worker.index).c_str(),
                           ec.message().c_str());
                return false;
            }
        }
        if (!spawnWorker(worker))
            return false;
        workers_.push_back(std::move(worker));
    }
    return true;
}

bool
Front::connectWorkers()
{
    // A worker's socket appears once its listener is bound; retry
    // briefly, and fail fast when the child died (bad binary, bind
    // failure) instead of spinning the full deadline.
    int64_t deadline = util::monotonicMs() + 10000;
    for (Worker &worker : workers_) {
        int fd = -1;
        while (fd < 0) {
            fd = util::connectUnix(worker.socketPath);
            if (fd >= 0)
                break;
            int status = 0;
            if (waitpid(worker.pid, &status, WNOHANG) == worker.pid) {
                util::warn("mclp-front: worker %s exited during "
                           "startup",
                           worker.socketPath.c_str());
                worker.pid = -1;
                return false;
            }
            if (util::monotonicMs() > deadline) {
                util::warn("mclp-front: worker %s never came up",
                           worker.socketPath.c_str());
                return false;
            }
            usleep(20 * 1000);
        }
        util::setNonBlocking(fd);
        // A Connection gives the trunk exactly what it needs: line
        // framing on the read side and an ordered write queue
        // (alloc+complete+flushReady appends "line\n") on the other.
        // The line cap is effectively off: response lines are bounded
        // by the optimizer's output, not by the request-line cap.
        worker.link = std::make_unique<service::Connection>(
            fd, 0, size_t{1} << 40);
        worker.state = Worker::State::Up;
        worker.connectedAtMs = util::monotonicMs();
    }
    return true;
}

void
Front::acceptPending(int listen_fd)
{
    while (true) {
        int fd = accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            return;
        util::setNonBlocking(fd);
        uint64_t id = nextClientId_++;
        clients_[id] = std::make_shared<service::Connection>(
            fd, id, opts_.maxLineBytes);
    }
}

size_t
Front::shardFor(const std::string &text) const
{
    // Identity-based routing: equal layer dims → same shard, so a
    // network's warm session and cache shard are never split across
    // workers. Anything that fails to resolve routes by raw bytes —
    // still deterministic, and the worker it lands on emits exactly
    // the err line a lone worker would.
    try {
        core::DseRequest request = service::decodeRequest(text);
        std::string sig =
            core::networkSignature(core::resolveNetwork(request));
        return util::fnv1aBytes(sig.data(), sig.size()) %
               workers_.size();
    } catch (const std::exception &) {
        return util::fnv1aBytes(text.data(), text.size()) %
               workers_.size();
    }
}

void
Front::sendToWorker(size_t shard,
                    const std::shared_ptr<service::Connection> &conn,
                    const std::string &line)
{
    Worker &worker = workers_[shard];
    uint64_t seq = conn->allocSeq();
    if (worker.state != Worker::State::Up) {
        // The shard is down (dying, in backoff, or restarting): shed
        // immediately rather than queue into an unbounded buffer. The
        // client sees the same err form an in-flight line gets when
        // its worker dies under it.
        conn->complete(seq, "err id=" + service::scavengeId(line) +
                                " msg=worker-died");
        return;
    }
    worker.pending.push_back(
        PendingSlot{conn->id(), seq, 0, service::scavengeId(line)});
    worker.link->complete(worker.link->allocSeq(), line);
    worker.link->flushReady();
    pumpWorker(worker);
}

void
Front::broadcastStats(const std::shared_ptr<service::Connection> &conn,
                      const std::string &line, const std::string &verb)
{
    // Every shard owns a disjoint slice of the traffic, so a
    // front-level answer has to hear from all of them; dead workers
    // contribute an err part instead of stalling the merge.
    uint64_t seq = conn->allocSeq();
    uint64_t agg_id = nextAggId_++;
    Aggregate agg;
    agg.clientId = conn->id();
    agg.seq = seq;
    agg.verb = verb;
    agg.parts.assign(workers_.size(), "err id=- msg=worker-died");
    for (size_t w = 0; w < workers_.size(); ++w) {
        Worker &worker = workers_[w];
        if (worker.state != Worker::State::Up || !worker.link)
            continue;
        worker.pending.push_back(
            PendingSlot{conn->id(), seq, agg_id, "-"});
        worker.link->complete(worker.link->allocSeq(), line);
        worker.link->flushReady();
        ++agg.remaining;
        pumpWorker(worker);
    }
    if (agg.remaining == 0) {
        conn->complete(seq,
                       service::mergeStatsParts(verb, agg.parts));
        return;
    }
    aggregates_[agg_id] = std::move(agg);
}

void
Front::settleAggregatePart(uint64_t agg_id, size_t shard,
                           const std::string &line)
{
    auto agg_it = aggregates_.find(agg_id);
    if (agg_it == aggregates_.end())
        return;
    Aggregate &agg = agg_it->second;
    agg.parts[shard] = line;
    if (--agg.remaining > 0)
        return;
    auto it = clients_.find(agg.clientId);
    if (it != clients_.end()) {
        it->second->complete(
            agg.seq, service::mergeStatsParts(agg.verb, agg.parts));
        it->second->flushReady();
        pumpClient(it->second);
    }
    aggregates_.erase(agg_it);
}

std::string
Front::frontStatsLine() const
{
    // The supervisor's own view — answered by the front, never
    // broadcast, so it works even with every shard down. Shape:
    //   ok front-stats workers=K draining=D restarts=TOTAL
    //      shardN=STATE:PID:RESTARTS:UPTIME_MS ...
    int64_t now = util::monotonicMs();
    std::string out = util::strprintf(
        "ok front-stats workers=%d draining=%d restarts=%llu",
        opts_.workers, draining_ ? 1 : 0,
        static_cast<unsigned long long>(totalRestarts_));
    for (const Worker &worker : workers_) {
        const char *state = "down";
        if (worker.state == Worker::State::Up)
            state = "up";
        else if (worker.state == Worker::State::Starting)
            state = "starting";
        int64_t uptime =
            worker.state == Worker::State::Up &&
                    worker.connectedAtMs > 0
                ? now - worker.connectedAtMs
                : 0;
        out += util::strprintf(
            " shard%zu=%s:", worker.index, state);
        out += worker.pid > 0 ? std::to_string(worker.pid) : "-";
        out += util::strprintf(
            ":%llu:%lld",
            static_cast<unsigned long long>(worker.restarts),
            static_cast<long long>(uptime));
    }
    return out;
}

void
Front::routeLine(const std::shared_ptr<service::Connection> &conn,
                 const std::string &line, bool overlong)
{
    if (overlong) {
        conn->complete(conn->allocSeq(),
                       "err id=" + service::scavengeId(line) +
                           " msg=line-too-long");
        return;
    }
    std::string text = service::trimmedLine(line);
    if (text.empty() || text[0] == '#')
        return;
    if (text == "shutdown") {
        conn->complete(conn->allocSeq(), "ok shutdown");
        beginDrain();
        return;
    }
    if (text == "front-stats") {
        conn->complete(conn->allocSeq(), frontStatsLine());
        return;
    }
    if (text == "stats" || text == "cache-stats") {
        broadcastStats(conn, line, text);
        return;
    }
    sendToWorker(shardFor(text), conn, line);
}

void
Front::readClient(const std::shared_ptr<service::Connection> &conn)
{
    char buf[64 * 1024];
    while (true) {
        ssize_t got = read(conn->fd(), buf, sizeof buf);
        if (got > 0) {
            conn->ingest(buf, static_cast<size_t>(got));
            continue;
        }
        if (got == 0) {
            conn->peerClosed = true;
        } else if (errno == EAGAIN || errno == EWOULDBLOCK ||
                   errno == EINTR) {
            break;
        } else {
            conn->closing = true;
        }
        break;
    }
    std::string line;
    service::Connection::LineStatus status;
    while ((status = conn->nextLine(&line)) !=
           service::Connection::LineStatus::None)
        routeLine(conn, line,
                  status == service::Connection::LineStatus::Overlong);
    if (conn->peerClosed && conn->takeEofRemainder(&line))
        routeLine(conn, line, false);
    conn->flushReady();
    pumpClient(conn);
}

void
Front::readWorker(Worker &worker)
{
    char buf[64 * 1024];
    bool eof = false;
    while (true) {
        ssize_t got = read(worker.link->fd(), buf, sizeof buf);
        if (got > 0) {
            worker.link->ingest(buf, static_cast<size_t>(got));
            continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                        errno == EINTR))
            break;
        eof = true;
        break;
    }
    std::string line;
    while (worker.link->nextLine(&line) ==
           service::Connection::LineStatus::Line) {
        if (worker.pending.empty()) {
            util::warn("mclp-front: unsolicited worker line dropped");
            continue;
        }
        PendingSlot slot = worker.pending.front();
        worker.pending.pop_front();
        if (slot.aggId != 0) {
            settleAggregatePart(slot.aggId, worker.index, line);
            continue;
        }
        auto it = clients_.find(slot.clientId);
        if (it == clients_.end())
            continue;  // client already gone; drop its answer
        it->second->complete(slot.seq, line);
        it->second->flushReady();
        pumpClient(it->second);
    }
    if (eof)
        markWorkerDead(worker, "closed its connection");
}

void
Front::markWorkerDead(Worker &worker, const char *why)
{
    // The trunk failed while the process may still be alive (wedged,
    // or mid-crash before the kernel reaps it). The supervisor never
    // runs two incarnations of one shard, so force the old pid down;
    // the SIGCHLD reap then schedules the respawn.
    if (worker.state != Worker::State::Up)
        return;
    util::warn("mclp-front: worker %s %s",
               worker.socketPath.c_str(), why);
    worker.state = Worker::State::Killed;
    if (draining_)
        crashedDuringDrain_ = true;
    failWorkerPending(worker);
    if (worker.pid > 0)
        kill(worker.pid, SIGKILL);
}

void
Front::failWorkerPending(Worker &worker)
{
    // Answers that died inside the worker still answer: every owed
    // direct slot gets an err line under its own scavenged id, and
    // every owed aggregate part settles as one, so no client hangs on
    // a hole in its response order. Drain the FIFO before settling
    // (settling the final part of an aggregate touches this worker's
    // own pending state).
    std::deque<PendingSlot> owed;
    owed.swap(worker.pending);
    worker.link.reset();
    for (const PendingSlot &slot : owed) {
        if (slot.aggId != 0) {
            settleAggregatePart(slot.aggId, worker.index,
                                "err id=- msg=worker-died");
            continue;
        }
        auto it = clients_.find(slot.clientId);
        if (it == clients_.end())
            continue;
        it->second->complete(slot.seq, "err id=" + slot.id +
                                           " msg=worker-died");
        it->second->flushReady();
        pumpClient(it->second);
    }
}

void
Front::scheduleRespawn(Worker &worker)
{
    int64_t now = util::monotonicMs();
    int64_t uptime = worker.connectedAtMs > 0
                         ? now - worker.connectedAtMs
                         : 0;
    // Capped exponential backoff: a worker that keeps dying right
    // after (re)spawn backs off harder each time; one that served for
    // a while earns a fresh (short) delay — the crash was presumably
    // load-dependent, and availability wants the shard back fast.
    if (worker.backoffMs <= 0 || uptime >= kBackoffResetUptimeMs)
        worker.backoffMs = opts_.respawnBackoffMs;
    else
        worker.backoffMs = std::min(worker.backoffMs * 2,
                                    opts_.respawnBackoffMaxMs);
    worker.state = Worker::State::Backoff;
    worker.respawnAtMs = now + worker.backoffMs;
    worker.connectedAtMs = 0;
    util::inform("mclp-front: shard %zu respawns in %d ms",
                 worker.index, worker.backoffMs);
}

void
Front::reapExited()
{
    while (true) {
        int status = 0;
        pid_t pid = waitpid(-1, &status, WNOHANG);
        if (pid <= 0)
            return;
        for (Worker &worker : workers_) {
            if (worker.pid != pid)
                continue;
            worker.pid = -1;
            if (worker.state == Worker::State::Up) {
                // The process died before (or without) a trunk EOF:
                // same cleanup path as an EOF-detected death.
                util::warn("mclp-front: worker %s exited unexpectedly",
                           worker.socketPath.c_str());
                if (draining_)
                    crashedDuringDrain_ = true;
                failWorkerPending(worker);
            }
            if (draining_) {
                // No respawn during drain; the shard stays down and
                // the front exits after the cascade.
                worker.state = Worker::State::Killed;
                break;
            }
            scheduleRespawn(worker);
            break;
        }
    }
}

void
Front::superviseWorkers()
{
    if (draining_)
        return;
    int64_t now = util::monotonicMs();
    for (Worker &worker : workers_) {
        if (worker.state == Worker::State::Backoff &&
            now >= worker.respawnAtMs) {
            // Respawn on the same shard cache dir: nothing is
            // replayed — the shard's own segment (plus the siblings'
            // segments) make the restart warm by themselves.
            if (spawnWorker(worker)) {
                worker.state = Worker::State::Starting;
            } else {
                worker.backoffMs =
                    std::min(std::max(worker.backoffMs, 1) * 2,
                             opts_.respawnBackoffMaxMs);
                worker.respawnAtMs = now + worker.backoffMs;
            }
        }
        if (worker.state == Worker::State::Starting) {
            int fd = util::connectUnix(worker.socketPath);
            if (fd >= 0) {
                util::setNonBlocking(fd);
                worker.link = std::make_unique<service::Connection>(
                    fd, 0, size_t{1} << 40);
                worker.state = Worker::State::Up;
                worker.connectedAtMs = util::monotonicMs();
                ++worker.restarts;
                ++totalRestarts_;
                util::inform(
                    "mclp-front: shard %zu respawned (pid %d, "
                    "restart %llu)",
                    worker.index, static_cast<int>(worker.pid),
                    static_cast<unsigned long long>(worker.restarts));
            } else if (now - worker.spawnedAtMs > kConnectDeadlineMs) {
                util::warn("mclp-front: respawned worker %s never "
                           "came up",
                           worker.socketPath.c_str());
                worker.state = Worker::State::Killed;
                if (worker.pid > 0)
                    kill(worker.pid, SIGKILL);
                // The reap reschedules with a doubled backoff.
            }
        }
    }
}

int
Front::pollTimeoutMs() const
{
    // The loop sleeps until traffic — unless supervision has a timer
    // running: a due respawn bounds the sleep, and a connecting
    // worker is polled at a tight cadence (its bind is imminent).
    int timeout = 1000;
    int64_t now = util::monotonicMs();
    for (const Worker &worker : workers_) {
        if (worker.state == Worker::State::Backoff) {
            int64_t wait = worker.respawnAtMs - now;
            timeout = std::min(
                timeout,
                static_cast<int>(std::max<int64_t>(wait, 1)));
        } else if (worker.state == Worker::State::Starting) {
            timeout = std::min(timeout, 20);
        }
    }
    return timeout;
}

void
Front::pumpClient(const std::shared_ptr<service::Connection> &conn)
{
    while (conn->wantsWrite()) {
        ssize_t sent = send(conn->fd(), conn->writeData(),
                            conn->writeBacklog(), MSG_NOSIGNAL);
        if (sent > 0) {
            conn->consumeWritten(static_cast<size_t>(sent));
            continue;
        }
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                         errno == EINTR))
            return;
        conn->closing = true;
        return;
    }
}

void
Front::pumpWorker(Worker &worker)
{
    if (!worker.link)
        return;
    while (worker.link->wantsWrite()) {
        ssize_t sent =
            send(worker.link->fd(), worker.link->writeData(),
                 worker.link->writeBacklog(), MSG_NOSIGNAL);
        if (sent > 0) {
            worker.link->consumeWritten(static_cast<size_t>(sent));
            continue;
        }
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                         errno == EINTR))
            return;
        markWorkerDead(worker, "rejected a write");
        return;
    }
}

void
Front::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    listener_.reset();
    tcpListener_.reset();
    std::error_code ec;
    std::filesystem::remove(opts_.socketPath, ec);
}

int
Front::reapWorkers()
{
    // Close the trunks first (the worker sees a clean client EOF),
    // then cascade the drain signal: each live worker finishes
    // in-flight work, flushes its cache shard, and exits 0. The exit
    // code judges the *cascade*: a crash the supervisor already
    // handled and respawned earlier does not count, a crash during
    // the drain does, and a worker we SIGKILLed ourselves (Killed)
    // was already accounted when it was marked dead.
    for (Worker &worker : workers_) {
        worker.link.reset();
        if (worker.pid > 0 && (worker.state == Worker::State::Up ||
                               worker.state == Worker::State::Starting))
            kill(worker.pid, SIGTERM);
    }
    bool all_clean = !crashedDuringDrain_;
    for (Worker &worker : workers_) {
        if (worker.pid <= 0)
            continue;
        int status = 0;
        pid_t got;
        do {
            got = waitpid(worker.pid, &status, 0);
        } while (got < 0 && errno == EINTR);
        if (got != worker.pid) {
            all_clean = false;
            continue;
        }
        if (worker.state != Worker::State::Up)
            continue;  // our own SIGKILL, or a startup torn by drain
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            util::warn("mclp-front: worker %s exited unclean",
                       worker.socketPath.c_str());
            all_clean = false;
        }
    }
    return all_clean ? 0 : 1;
}

int
Front::run()
{
    // SIGCHLD first: a worker that dies during startup must already
    // be visible to the supervisor's reap loop, not leave a zombie.
    g_wake = &wake_;
    std::signal(SIGTERM, onSigterm);
    std::signal(SIGCHLD, onSigchld);

    if (!spawnWorkers() || !connectWorkers()) {
        reapWorkers();
        return 1;
    }

    std::string error;
    int listen_fd = util::listenUnix(opts_.socketPath, &error);
    if (listen_fd < 0) {
        util::warn("mclp-front: %s", error.c_str());
        reapWorkers();
        return 1;
    }
    listener_.reset(listen_fd);
    util::setNonBlocking(listener_.get());

    if (opts_.tcpPort >= 0) {
        uint16_t bound = 0;
        int tcp_fd = util::listenTcp(
            static_cast<uint16_t>(opts_.tcpPort), &bound, &error);
        if (tcp_fd < 0) {
            util::warn("mclp-front: %s", error.c_str());
            reapWorkers();
            return 1;
        }
        tcpListener_.reset(tcp_fd);
        util::setNonBlocking(tcpListener_.get());
        // Ephemeral ports (--tcp-port 0) are useless unless
        // announced; stderr keeps stdout free.
        std::fprintf(stderr, "mclp-front: tcp port %u\n",
                     static_cast<unsigned>(bound));
    }

    while (true) {
        if (g_sigterm)
            beginDrain();
        if (g_sigchld) {
            g_sigchld = 0;
            reapExited();
        }
        superviseWorkers();

        // Closed / finished clients leave between poll rounds; a
        // client is finished once its peer half-closed and every
        // answer it is owed has been flushed to the wire.
        for (auto it = clients_.begin(); it != clients_.end();) {
            service::Connection &conn = *it->second;
            bool done = conn.closing ||
                        (conn.peerClosed && !conn.hasUnanswered() &&
                         !conn.wantsWrite());
            it = done ? clients_.erase(it) : std::next(it);
        }

        bool idle = true;
        for (const Worker &worker : workers_)
            if (!worker.pending.empty())
                idle = false;
        for (auto &entry : clients_)
            if (entry.second->hasUnanswered() ||
                entry.second->wantsWrite())
                idle = false;
        if (draining_ && idle)
            break;

        std::vector<pollfd> fds;
        fds.push_back({wake_.readFd(), POLLIN, 0});
        size_t unix_idx = SIZE_MAX, tcp_idx = SIZE_MAX;
        if (listener_.valid()) {
            unix_idx = fds.size();
            fds.push_back({listener_.get(), POLLIN, 0});
        }
        if (tcpListener_.valid()) {
            tcp_idx = fds.size();
            fds.push_back({tcpListener_.get(), POLLIN, 0});
        }
        size_t worker_base = fds.size();
        for (Worker &worker : workers_) {
            short events = 0;
            if (worker.link) {
                events = POLLIN;
                if (worker.link->wantsWrite())
                    events |= POLLOUT;
            }
            fds.push_back(
                {worker.link ? worker.link->fd() : -1, events, 0});
        }
        size_t client_base = fds.size();
        std::vector<std::shared_ptr<service::Connection>> polled;
        for (auto &entry : clients_) {
            short events = 0;
            if (!draining_ && !entry.second->peerClosed)
                events |= POLLIN;
            if (entry.second->wantsWrite())
                events |= POLLOUT;
            fds.push_back({entry.second->fd(), events, 0});
            polled.push_back(entry.second);
        }

        if (poll(fds.data(), fds.size(), pollTimeoutMs()) < 0 &&
            errno != EINTR)
            break;

        if (fds[0].revents & POLLIN)
            wake_.drain();
        if (unix_idx != SIZE_MAX && (fds[unix_idx].revents & POLLIN))
            acceptPending(listener_.get());
        if (tcp_idx != SIZE_MAX && (fds[tcp_idx].revents & POLLIN))
            acceptPending(tcpListener_.get());
        for (size_t w = 0; w < workers_.size(); ++w) {
            short revents = fds[worker_base + w].revents;
            if (!workers_[w].link || revents == 0)
                continue;
            if (revents & POLLOUT)
                pumpWorker(workers_[w]);
            if (workers_[w].link &&
                (revents & (POLLIN | POLLHUP | POLLERR)))
                readWorker(workers_[w]);
        }
        for (size_t c = 0; c < polled.size(); ++c) {
            short revents = fds[client_base + c].revents;
            if (revents == 0)
                continue;
            if (revents & POLLOUT)
                pumpClient(polled[c]);
            if (revents & (POLLIN | POLLHUP | POLLERR))
                readClient(polled[c]);
        }
    }

    clients_.clear();
    return reapWorkers();
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    try {
        auto opts = parseArgs(argc, argv);
        if (!opts)
            return 0;
        std::string serve_bin = opts->serveBin.empty()
                                    ? defaultServeBin(argv[0])
                                    : opts->serveBin;
        Front front(std::move(*opts), std::move(serve_bin));
        return front.run();
    } catch (const util::FatalError &err) {
        std::fprintf(stderr, "mclp-front: %s\n", err.what());
        return 1;
    }
}
