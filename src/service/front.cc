#include "service/front.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "core/dse_request.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "service/shard_merge.h"
#include "util/logging.h"
#include "util/record_file.h"
#include "util/string_utils.h"

namespace mclp {
namespace service {

namespace {

// Lock-free atomics, not volatile sig_atomic_t: the handler may run
// on any thread of the process, not only on the poll thread.
std::atomic<bool> g_sigterm{false};
std::atomic<bool> g_sigchld{false};
std::atomic<const util::SelfPipe *> g_wake{nullptr};

void
onSignal(int sig)
{
    // Async-signal-safe: a flag store and one write() to the
    // self-pipe, with errno kept for the code the signal interrupted.
    int saved_errno = errno;
    (sig == SIGTERM ? g_sigterm : g_sigchld).store(true);
    if (const util::SelfPipe *wake = g_wake.load())
        wake->notify();
    errno = saved_errno;
}

/** Uptime under this much is a "rapid re-death": backoff doubles
 * instead of resetting. */
constexpr int64_t kBackoffResetUptimeMs = 10000;

/** A worker that cannot be connected within this window is given up
 * on at start-up, or killed and rescheduled after a respawn (its
 * listener never came up). */
constexpr int64_t kConnectDeadlineMs = 10000;

/** Retry interval while a spawned worker binds its socket (about
 * 1.6 ms after the spawn), at start-up and in the STARTING state. */
constexpr int64_t kStartRetryMs = 1;

} // namespace

ShardBackend::ShardBackend(Options options) : opts_(std::move(options))
{
    // Handlers before the first fork: a worker that dies during
    // start-up must already be visible to the reap, and a SIGTERM
    // during start-up still drains (and so reaps) the workers.
    g_sigterm.store(false);
    g_sigchld.store(false);
    g_wake.store(&signals_);
    struct sigaction action
    {
    };
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    action.sa_handler = &onSignal;
    ::sigaction(SIGTERM, &action, &oldTerm_);
    ::sigaction(SIGCHLD, &action, &oldChld_);
    ok_ = signals_.valid() && spawnWorkers() && connectWorkers();
}

ShardBackend::~ShardBackend()
{
    reapWorkers();
    ::sigaction(SIGTERM, &oldTerm_, nullptr);
    ::sigaction(SIGCHLD, &oldChld_, nullptr);
    g_wake.store(nullptr);
}

std::string
ShardBackend::shardDir(size_t index) const
{
    return opts_.cacheDir + "/shard-" + std::to_string(index);
}

std::vector<std::string>
ShardBackend::workerArgs(const Worker &worker) const
{
    std::vector<std::string> args = {opts_.serveBin, "--socket",
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
ShardBackend::spawnWorker(Worker &worker)
{
    // argv is built before the fork: the child of a multi-threaded
    // process may only make async-signal-safe calls before exec.
    std::vector<std::string> args = workerArgs(worker);
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    std::string exec_failed =
        "mclp-front: exec " + args[0] + " failed\n";
    pid_t pid = fork();
    if (pid < 0) {
        util::warn("mclp-front: fork: %s", std::strerror(errno));
        return false;
    }
    if (pid == 0) {
        execvp(argv[0], argv.data());
        (void)!::write(2, exec_failed.data(), exec_failed.size());
        _exit(127);
    }
    worker.pid = pid;
    worker.spawnedAtMs = util::monotonicMs();
    return true;
}

bool
ShardBackend::spawnWorkers()
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
ShardBackend::connectTrunk(Worker &worker)
{
    int fd = util::connectUnix(worker.socketPath);
    if (fd < 0)
        return false;
    util::setNonBlocking(fd);
    // A Connection gives the trunk exactly what it needs: line
    // framing on the read side and an ordered write queue
    // (alloc+complete+flushReady appends "line\n") on the other. The
    // line cap is effectively off: response lines are bounded by the
    // optimizer's output, not by the request-line cap.
    worker.link = std::make_unique<Connection>(fd, 0, size_t{1} << 40);
    worker.state = Worker::State::Up;
    worker.connectedAtMs = util::monotonicMs();
    return true;
}

bool
ShardBackend::connectWorkers()
{
    // A worker's socket appears once its listener is bound; retry
    // briefly, and fail fast when the child died (bad binary, bind
    // failure) instead of spinning the full deadline.
    int64_t deadline = util::monotonicMs() + kConnectDeadlineMs;
    for (Worker &worker : workers_) {
        while (!connectTrunk(worker)) {
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
            usleep(kStartRetryMs * 1000);
        }
    }
    return true;
}

size_t
ShardBackend::shardFor(const std::string &text) const
{
    // Identity-based routing: equal layer dims → same shard, so a
    // network's warm session and cache shard are never split across
    // workers. Anything that fails to resolve routes by raw bytes —
    // still deterministic, and the worker it lands on emits exactly
    // the err line a lone worker would.
    try {
        core::DseRequest request = decodeRequest(text);
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
ShardBackend::submit(const std::shared_ptr<Connection> &conn,
                     uint64_t seq, std::string line)
{
    if (line == "front-stats") {
        server_->complete(conn, seq, frontStatsLine());
        return;
    }
    if (line == "stats" || line == "cache-stats") {
        broadcastStats(conn, seq, line);
        return;
    }
    Worker &worker = workers_[shardFor(line)];
    if (worker.state != Worker::State::Up) {
        // The shard is down (dying, in backoff, or restarting): shed
        // immediately rather than queue into an unbounded buffer. The
        // client sees the same err form an in-flight line gets when
        // its worker dies under it.
        server_->complete(conn, seq,
                          "err id=" + scavengeId(line) +
                              " msg=worker-died");
        return;
    }
    forward(worker, PendingSlot{conn, seq, 0, scavengeId(line)}, line);
}

void
ShardBackend::forward(Worker &worker, PendingSlot slot,
                      const std::string &line)
{
    worker.pending.push_back(std::move(slot));
    worker.link->complete(worker.link->allocSeq(), line);
    worker.link->flushReady();
    pumpWorker(worker);
}

void
ShardBackend::broadcastStats(const std::shared_ptr<Connection> &conn,
                             uint64_t seq, const std::string &verb)
{
    // Every shard owns a disjoint slice of the traffic, so a
    // front-level answer has to hear from all of them; dead workers
    // contribute an err part instead of stalling the merge. The
    // aggregate is registered before the first forward, so a trunk
    // that fails mid-broadcast settles its part like any other death.
    uint64_t agg_id = nextAggId_++;
    Aggregate &agg = aggregates_[agg_id];
    agg.conn = conn;
    agg.seq = seq;
    agg.verb = verb;
    agg.parts.assign(workers_.size(), "err id=- msg=worker-died");
    for (const Worker &worker : workers_)
        agg.remaining += worker.state == Worker::State::Up;
    if (agg.remaining == 0) {
        server_->complete(conn, seq, mergeStatsParts(verb, agg.parts));
        aggregates_.erase(agg_id);
        return;
    }
    for (Worker &worker : workers_) {
        if (worker.state == Worker::State::Up)
            forward(worker, PendingSlot{nullptr, seq, agg_id, "-"}, verb);
    }
}

void
ShardBackend::settleAggregatePart(uint64_t agg_id, size_t shard,
                                  const std::string &line)
{
    auto agg_it = aggregates_.find(agg_id);
    if (agg_it == aggregates_.end())
        return;
    Aggregate &agg = agg_it->second;
    agg.parts[shard] = line;
    if (--agg.remaining > 0)
        return;
    server_->complete(agg.conn, agg.seq,
                      mergeStatsParts(agg.verb, agg.parts));
    aggregates_.erase(agg_it);
}

std::string
ShardBackend::frontStatsLine() const
{
    // The supervisor's own view — answered by the front, never
    // broadcast, so it works even with every shard down. Shape:
    //   ok front-stats workers=K draining=D restarts=TOTAL
    //      shardN=STATE:PID:RESTARTS:UPTIME_MS ...
    int64_t now = util::monotonicMs();
    std::string out = util::strprintf(
        "ok front-stats workers=%d draining=%d restarts=%llu",
        opts_.workers, draining() ? 1 : 0,
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
ShardBackend::readWorker(Worker &worker)
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
           Connection::LineStatus::Line) {
        if (worker.pending.empty()) {
            util::warn("mclp-front: unsolicited worker line dropped");
            continue;
        }
        PendingSlot slot = std::move(worker.pending.front());
        worker.pending.pop_front();
        if (slot.aggId != 0)
            settleAggregatePart(slot.aggId, worker.index, line);
        else
            server_->complete(slot.conn, slot.seq, line);
    }
    if (eof)
        markWorkerDead(worker, "closed its connection");
}

void
ShardBackend::markWorkerDead(Worker &worker, const char *why)
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
    if (draining())
        crashedDuringDrain_ = true;
    failWorkerPending(worker);
    if (worker.pid > 0)
        kill(worker.pid, SIGKILL);
}

void
ShardBackend::failWorkerPending(Worker &worker)
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
        if (slot.aggId != 0)
            settleAggregatePart(slot.aggId, worker.index,
                                "err id=- msg=worker-died");
        else
            server_->complete(slot.conn, slot.seq,
                              "err id=" + slot.id + " msg=worker-died");
    }
}

void
ShardBackend::scheduleRespawn(Worker &worker)
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
ShardBackend::reapExited()
{
    // Only our own children: waitpid(-1) would also reap processes
    // the embedding program started.
    for (Worker &worker : workers_) {
        int status = 0;
        if (worker.pid <= 0 ||
            waitpid(worker.pid, &status, WNOHANG) != worker.pid)
            continue;
        worker.pid = -1;
        if (worker.state == Worker::State::Up) {
            // The process died before (or without) a trunk EOF: same
            // cleanup path as an EOF-detected death.
            util::warn("mclp-front: worker %s exited unexpectedly",
                       worker.socketPath.c_str());
            if (draining())
                crashedDuringDrain_ = true;
            failWorkerPending(worker);
        }
        if (draining()) {
            // No respawn during drain; the shard stays down and the
            // front exits after the cascade.
            worker.state = Worker::State::Killed;
            continue;
        }
        scheduleRespawn(worker);
    }
}

void
ShardBackend::superviseWorkers()
{
    if (draining())
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
        if (worker.state != Worker::State::Starting)
            continue;
        if (connectTrunk(worker)) {
            ++worker.restarts;
            ++totalRestarts_;
            util::inform("mclp-front: shard %zu respawned (pid %d, "
                         "restart %llu)",
                         worker.index, static_cast<int>(worker.pid),
                         static_cast<unsigned long long>(worker.restarts));
        } else if (now - worker.spawnedAtMs > kConnectDeadlineMs) {
            util::warn("mclp-front: respawned worker %s never came up",
                       worker.socketPath.c_str());
            worker.state = Worker::State::Killed;
            if (worker.pid > 0)
                kill(worker.pid, SIGKILL);
            // The reap reschedules with a doubled backoff.
        }
    }
}

void
ShardBackend::addPollFds(std::vector<pollfd> &fds, int64_t &deadline_ms)
{
    fds.push_back({signals_.readFd(), POLLIN, 0});
    int64_t now = util::monotonicMs();
    for (const Worker &worker : workers_) {
        short events = 0;
        if (worker.link) {
            events = POLLIN;
            if (worker.link->wantsWrite())
                events |= POLLOUT;
        }
        fds.push_back({worker.link ? worker.link->fd() : -1, events, 0});
        // Supervision timers: a due respawn, and a connecting worker
        // retried at a tight cadence (its bind is imminent).
        int64_t due = worker.state == Worker::State::Backoff
                          ? worker.respawnAtMs
                      : worker.state == Worker::State::Starting
                          ? now + kStartRetryMs
                          : -1;
        if (due >= 0 && (deadline_ms < 0 || due < deadline_ms))
            deadline_ms = due;
    }
}

void
ShardBackend::onPolled(const pollfd *fds, size_t count)
{
    if (fds[0].revents)
        signals_.drain();
    for (size_t w = 0; w + 1 < count; ++w) {
        Worker &worker = workers_[w];
        short revents = fds[w + 1].revents;
        if (!worker.link || revents == 0)
            continue;
        if (revents & POLLOUT)
            pumpWorker(worker);
        if (worker.link && (revents & (POLLIN | POLLHUP | POLLERR)))
            readWorker(worker);
    }
    if (g_sigterm.exchange(false))
        server_->requestDrain();
    if (g_sigchld.exchange(false))
        reapExited();
    superviseWorkers();
}

void
ShardBackend::pumpWorker(Worker &worker)
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

int
ShardBackend::reapWorkers()
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
        worker.pid = -1;
        if (got < 0) {
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

} // namespace service
} // namespace mclp
