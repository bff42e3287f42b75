#include "service/server.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/logging.h"

namespace mclp {
namespace service {

Server *Server::signalTarget_ = nullptr;

void
Server::sigtermHandler(int)
{
    // Async-signal-safe by construction: one store to a lock-free
    // atomic flag plus one write() down the self-pipe.
    Server *target = signalTarget_;
    if (target) {
        target->sigtermSeen_.store(true);
        target->wake_.notify();
    }
}

Server::Server(Backend &backend, Options options)
    : backend_(backend), options_(std::move(options))
{
    if (!wake_.valid()) {
        startError_ = "self-pipe creation failed";
        util::warn("%s: %s", backend_.name(), startError_.c_str());
        return;
    }
    if (!options_.unixPath.empty()) {
        std::string error;
        int fd = util::listenUnix(options_.unixPath, &error);
        if (fd < 0) {
            startError_ = error;
            util::warn("%s: %s", backend_.name(), error.c_str());
            return;
        }
        // Non-blocking listeners: acceptPending() drains until
        // EAGAIN, which a blocking accept would turn into a hang.
        util::setNonBlocking(fd);
        unixListener_.reset(fd);
    }
    if (options_.tcpPort >= 0) {
        std::string error;
        int fd = util::listenTcp(
            static_cast<uint16_t>(options_.tcpPort), &tcpPort_, &error);
        if (fd < 0) {
            startError_ = error;
            util::warn("%s: %s", backend_.name(), error.c_str());
            return;
        }
        util::setNonBlocking(fd);
        tcpListener_.reset(fd);
    }
    if (!unixListener_.valid() && !tcpListener_.valid()) {
        startError_ = "no listeners configured (need a socket path "
                      "or a TCP port)";
        util::warn("%s: %s", backend_.name(), startError_.c_str());
    }
}

Server::~Server()
{
    if (unixListener_.valid())
        ::unlink(options_.unixPath.c_str());
}

void
Server::requestDrain()
{
    drainRequested_.store(true, std::memory_order_release);
    wake_.notify();
}

bool
Server::acceptingClosed() const
{
    return options_.acceptLimit >= 0 &&
           acceptedTotal_ >=
               static_cast<uint64_t>(options_.acceptLimit);
}

void
Server::complete(const std::shared_ptr<Connection> &conn, uint64_t seq,
                 std::string response)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        conn->complete(seq, std::move(response));
        --conn->inflight;
        --globalInflight_;
    }
    // Completions on the poll thread are flushed at the top of the
    // next round anyway; only other threads need to wake it.
    if (std::this_thread::get_id() != pollThread_)
        wake_.notify();
}

void
Server::respondNow(const std::shared_ptr<Connection> &conn,
                   const std::string &response)
{
    // Immediate answers still go through the reorder buffer so they
    // interleave with dispatched work in strict request order.
    std::lock_guard<std::mutex> lock(mutex_);
    conn->complete(conn->allocSeq(), response);
}

void
Server::handleLine(const std::shared_ptr<Connection> &conn,
                   std::string line, bool overlong)
{
    if (overlong) {
        stats_.shedOversize.fetch_add(1, std::memory_order_relaxed);
        respondNow(conn, "err id=" + scavengeId(line) +
                             " msg=line-too-long");
        return;
    }
    std::string text = trimmedLine(line);
    if (text.empty() || text[0] == '#')
        return;  // never answered, so no sequence slot either
    if (text == "shutdown") {
        respondNow(conn, "ok shutdown");
        draining_ = true;
        return;
    }
    uint64_t seq;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bool shed =
            conn->inflight >= options_.maxPipeline ||
            globalInflight_ >= options_.maxInflight;
        if (shed) {
            // Shed *now*, in sequence: the client learns immediately,
            // and the error slots into the pipeline where the answer
            // would have gone.
            stats_.shedBusy.fetch_add(1, std::memory_order_relaxed);
            conn->complete(conn->allocSeq(),
                           "err id=" + scavengeId(text) + " msg=busy");
            return;
        }
        stats_.requests.fetch_add(1, std::memory_order_relaxed);
        seq = conn->allocSeq();
        ++conn->inflight;
        ++globalInflight_;
    }
    // Outside the lock: a backend may complete() before returning.
    backend_.submit(conn, seq, std::move(text));
}

void
Server::acceptPending(int listen_fd)
{
    while (!draining_ && !acceptingClosed()) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                util::warn("%s: accept(): %s", backend_.name(),
                           std::strerror(errno));
            return;
        }
        if (!util::setNonBlocking(fd)) {
            util::warn("%s: accepted fd: %s", backend_.name(),
                       std::strerror(errno));
            ::close(fd);
            continue;
        }
        uint64_t id = nextConnId_++;
        conns_.emplace(id, std::make_shared<Connection>(
                               fd, id, options_.maxLineBytes));
        ++acceptedTotal_;
        stats_.connsAccepted.fetch_add(1, std::memory_order_relaxed);
        stats_.connsOpen.fetch_add(1, std::memory_order_relaxed);
    }
}

void
Server::onReadable(const std::shared_ptr<Connection> &conn)
{
    char buffer[64 * 1024];
    while (!conn->closing) {
        ssize_t got = ::read(conn->fd(), buffer, sizeof(buffer));
        if (got > 0) {
            conn->ingest(buffer, static_cast<size_t>(got));
            std::string line;
            Connection::LineStatus status;
            while ((status = conn->nextLine(&line)) !=
                   Connection::LineStatus::None) {
                handleLine(conn, std::move(line),
                           status == Connection::LineStatus::Overlong);
                line.clear();
            }
            if (static_cast<size_t>(got) < sizeof(buffer))
                return;  // short read: the socket is drained
            continue;
        }
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            // A dying client (ECONNRESET et al.) costs only its own
            // connection, never the server.
            util::warn("%s: read(): %s", backend_.name(),
                       std::strerror(errno));
            conn->closing = true;
            return;
        }
        // EOF: the batch protocol answers a trailing line without a
        // newline rather than dropping it.
        conn->peerClosed = true;
        std::string remainder;
        if (conn->takeEofRemainder(&remainder))
            handleLine(conn, std::move(remainder), false);
        return;
    }
}

void
Server::pumpOut(const std::shared_ptr<Connection> &conn)
{
    while (conn->wantsWrite() && !conn->closing) {
        // MSG_NOSIGNAL: a peer that died mid-response surfaces as
        // EPIPE, never a process-killing SIGPIPE (the library must
        // not rely on the front end's signal disposition).
        ssize_t put = ::send(conn->fd(), conn->writeData(),
                             conn->writeBacklog(), MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            util::warn("%s: client dropped mid-response "
                       "(%zu bytes unsent): %s",
                       backend_.name(), conn->writeBacklog(),
                       std::strerror(errno));
            conn->closing = true;
            return;
        }
        conn->touch();
        conn->consumeWritten(static_cast<size_t>(put));
    }
}

void
Server::closeConnection(uint64_t id)
{
    auto it = conns_.find(id);
    if (it == conns_.end())
        return;
    // The backend may still hold this connection (shared_ptr); shut
    // the socket down now so the peer sees the close immediately —
    // the object (and fd) dies when the last in-flight line completes
    // into its orphaned reorder buffer.
    ::shutdown(it->second->fd(), SHUT_RDWR);
    conns_.erase(it);
    stats_.connsOpen.fetch_sub(1, std::memory_order_relaxed);
}

bool
Server::sweepAndCheckExit()
{
    std::vector<uint64_t> dead;
    for (const auto &kv : conns_) {
        const std::shared_ptr<Connection> &conn = kv.second;
        if (conn->closing) {
            // Errors and timeouts are hard closes: unsent output and
            // in-flight answers are forfeit by definition.
            dead.push_back(kv.first);
            continue;
        }
        bool flushed;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            flushed = !conn->hasUnanswered();
        }
        flushed = flushed && !conn->wantsWrite();
        // A half-closed batch client is done once every admitted line
        // was answered and written; under drain every connection is
        // done at that point (nothing new is being read).
        if (flushed && (conn->peerClosed || draining_))
            dead.push_back(kv.first);
    }
    for (uint64_t id : dead)
        closeConnection(id);
    return conns_.empty() && (draining_ || acceptingClosed());
}

int
Server::pollTimeoutMs(int64_t backend_deadline) const
{
    int64_t earliest = backend_deadline;
    for (const auto &kv : conns_) {
        const std::shared_ptr<Connection> &conn = kv.second;
        if (options_.readTimeoutMs > 0 && conn->lineStartMs() >= 0) {
            int64_t deadline =
                conn->lineStartMs() + options_.readTimeoutMs;
            if (earliest < 0 || deadline < earliest)
                earliest = deadline;
        }
        if (options_.idleTimeoutMs > 0) {
            int64_t deadline =
                conn->lastActivityMs() + options_.idleTimeoutMs;
            if (earliest < 0 || deadline < earliest)
                earliest = deadline;
        }
    }
    if (earliest < 0)
        return -1;
    return static_cast<int>(std::max<int64_t>(
        0, std::min<int64_t>(earliest - util::monotonicMs(), 60000)));
}

void
Server::enforceDeadlines()
{
    if (options_.readTimeoutMs <= 0 && options_.idleTimeoutMs <= 0)
        return;
    int64_t now = util::monotonicMs();
    for (const auto &kv : conns_) {
        const std::shared_ptr<Connection> &conn = kv.second;
        if (conn->closing)
            continue;
        // Slow-loris guard: the deadline anchors at the partial
        // line's first byte, so dripping one byte at a time cannot
        // extend it.
        if (options_.readTimeoutMs > 0 && conn->lineStartMs() >= 0 &&
            now - conn->lineStartMs() > options_.readTimeoutMs) {
            stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
            conn->closing = true;
            continue;
        }
        if (options_.idleTimeoutMs > 0 && !conn->hasPartialLine() &&
            !conn->wantsWrite() &&
            now - conn->lastActivityMs() > options_.idleTimeoutMs) {
            bool idle;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                idle = !conn->hasUnanswered();
            }
            if (idle) {
                stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
                conn->closing = true;
            }
        }
    }
}

int
Server::run()
{
    if (!listening())
        return 1;

    struct sigaction old_term
    {
    };
    if (options_.handleSigterm) {
        signalTarget_ = this;
        struct sigaction action
        {
        };
        action.sa_handler = &Server::sigtermHandler;
        sigemptyset(&action.sa_mask);
        ::sigaction(SIGTERM, &action, &old_term);
    }

    pollThread_ = std::this_thread::get_id();
    backend_.start(*this);

    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Connection>> polled;
    while (true) {
        // Move completed answers through each reorder buffer into the
        // write queues, then push bytes until the sockets block.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const auto &kv : conns_)
                kv.second->flushReady();
        }
        for (const auto &kv : conns_)
            pumpOut(kv.second);

        if (sweepAndCheckExit())
            break;

        pfds.clear();
        polled.clear();
        pfds.push_back({wake_.readFd(), POLLIN, 0});
        bool accepting = !draining_ && !acceptingClosed();
        int unix_idx = -1, tcp_idx = -1;
        if (accepting && unixListener_.valid()) {
            unix_idx = static_cast<int>(pfds.size());
            pfds.push_back({unixListener_.get(), POLLIN, 0});
        }
        if (accepting && tcpListener_.valid()) {
            tcp_idx = static_cast<int>(pfds.size());
            pfds.push_back({tcpListener_.get(), POLLIN, 0});
        }
        size_t backend_idx = pfds.size();
        int64_t backend_deadline = -1;
        backend_.addPollFds(pfds, backend_deadline);
        size_t fixed = pfds.size();
        for (const auto &kv : conns_) {
            const std::shared_ptr<Connection> &conn = kv.second;
            short events = 0;
            // Write backpressure: a client that stops reading stops
            // being read from — admitted work still completes and
            // parks in the reorder buffer, which the pipeline cap
            // bounds — and never stalls anyone else.
            if (!conn->peerClosed && !conn->closing && !draining_ &&
                conn->writeBacklog() < options_.maxWriteBufferBytes)
                events |= POLLIN;
            if (conn->wantsWrite())
                events |= POLLOUT;
            if (events == 0)
                continue;
            pfds.push_back({conn->fd(), events, 0});
            polled.push_back(conn);
        }

        int ready = ::poll(pfds.data(),
                           static_cast<nfds_t>(pfds.size()),
                           pollTimeoutMs(backend_deadline));
        if (ready < 0 && errno != EINTR) {
            util::warn("%s: poll(): %s", backend_.name(),
                       std::strerror(errno));
            break;
        }

        if (pfds[0].revents)
            wake_.drain();
        if (sigtermSeen_.load() ||
            drainRequested_.load(std::memory_order_acquire))
            draining_ = true;
        backend_.onPolled(pfds.data() + backend_idx, fixed - backend_idx);

        if (unix_idx >= 0 && (pfds[unix_idx].revents & POLLIN))
            acceptPending(unixListener_.get());
        if (tcp_idx >= 0 && (pfds[tcp_idx].revents & POLLIN))
            acceptPending(tcpListener_.get());

        for (size_t i = fixed; i < pfds.size(); ++i) {
            const std::shared_ptr<Connection> &conn = polled[i - fixed];
            if (pfds[i].revents & (POLLIN | POLLHUP))
                onReadable(conn);
            if (pfds[i].revents & POLLOUT)
                pumpOut(conn);
            if ((pfds[i].revents & (POLLERR | POLLNVAL)) &&
                !conn->peerClosed)
                conn->closing = true;
        }

        enforceDeadlines();
    }

    // Listeners are already effectively closed (nothing polls them
    // under drain); remove them before the backend's own shutdown,
    // which may take a while (cache flush, worker cascade).
    if (unixListener_.valid()) {
        unixListener_.reset();
        ::unlink(options_.unixPath.c_str());
    }
    tcpListener_.reset();

    int code = backend_.finish();

    if (options_.handleSigterm) {
        ::sigaction(SIGTERM, &old_term, nullptr);
        signalTarget_ = nullptr;
    }
    return code;
}

void
LocalBackend::start(Server &server)
{
    server_ = &server;
    service_.attachTransportStats(&server.stats());
    int count = workerCount_ > 0
                    ? workerCount_
                    : static_cast<int>(std::max(
                          1u, std::thread::hardware_concurrency()));
    for (int i = 0; i < count; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
LocalBackend::submit(const std::shared_ptr<Connection> &conn,
                     uint64_t seq, std::string line)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(Task{conn, seq, std::move(line)});
    }
    taskReady_.notify_one();
}

void
LocalBackend::workerLoop()
{
    while (true) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(lock, [this] {
                return !tasks_.empty() || stopWorkers_;
            });
            // Drain before exiting: admitted work always finishes,
            // even when its connection was hard-closed meanwhile.
            if (tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        server_->complete(task.conn, task.seq,
                          service_.handleLine(task.line));
    }
}

int
LocalBackend::finish()
{
    if (!server_)
        return 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopWorkers_ = true;
    }
    taskReady_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
    service_.flushCache();
    service_.attachTransportStats(nullptr);
    server_ = nullptr;
    return 0;
}

} // namespace service
} // namespace mclp
