/**
 * @file
 * The event-driven serving loop: one poll()-based thread owning many
 * concurrent Unix and TCP client connections, and the policies that
 * keep a long-lived process healthy under hostile or overloaded
 * clients. It is the only event loop in the repository. What an
 * admitted line *means* is a Server::Backend's business, and there are
 * exactly two: mclp-serve runs the local worker crew (LocalBackend,
 * below), mclp-front runs the supervised shard trunks
 * (service/front.h). Both get every guarantee below.
 *
 * What the loop guarantees (tests/service/test_server.cc and
 * tests/service/test_front.cc prove each, and the chaos client + CI
 * fault-injection steps re-prove them against real processes):
 *
 *  - **Pipelining.** Request lines are answered as they arrive, not
 *    at connection EOF; a per-connection reorder buffer
 *    (service/connection.h) delivers responses strictly in request
 *    order, so every response is byte-identical to the serial
 *    `mclp-opt --response` answer no matter how the backend
 *    interleaved them.
 *  - **Isolation.** A slow, dead, or malicious client costs only its
 *    own connection: reads and writes are non-blocking, a client
 *    that stops reading trips write backpressure (the server stops
 *    reading *from it*, never stalls others), a request line past
 *    the length cap answers `err ... msg=line-too-long` and the
 *    connection stays usable, and partial lines older than the read
 *    timeout (slow-loris) or fully idle connections past the idle
 *    timeout are dropped.
 *  - **Admission control.** In-flight work is bounded per connection
 *    (pipeline depth) and globally; excess lines are shed
 *    *immediately* with `err ... msg=busy` instead of queueing
 *    unboundedly. Shedding is load-dependent by design — the only
 *    wire form it ever takes is the busy error, never a wrong or
 *    reordered answer.
 *  - **Graceful drain.** A `shutdown` line, SIGTERM (opt-in), or
 *    requestDrain() stops accepting, lets every admitted request
 *    finish and flush, closes connections, and hands the exit code
 *    to the backend's finish().
 *
 * The loop is deliberately poll(2), not epoll: the math answers in
 * milliseconds, so realistic connection counts are tens, not tens of
 * thousands, and poll keeps the loop portable and the fd set
 * trivially consistent (rebuilt per iteration from live state).
 */

#ifndef MCLP_SERVICE_SERVER_H
#define MCLP_SERVICE_SERVER_H

#include <poll.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/connection.h"
#include "service/dse_service.h"
#include "util/net.h"

namespace mclp {
namespace service {

class Server
{
  public:
    struct Options
    {
        /** Unix stream socket path; empty = no Unix listener. */
        std::string unixPath;

        /** Loopback TCP port (0 = kernel-assigned ephemeral port,
         * see tcpPort()); -1 = no TCP listener. */
        int tcpPort = -1;

        /** Stop accepting after this many connections and exit once
         * they close (-1 = serve until drain). The mclp-serve
         * --accept flag and the one-batch tests use this. */
        int acceptLimit = -1;

        /** Request lines longer than this answer
         * `err ... msg=line-too-long` (the rest of the line is
         * discarded; the connection stays usable). */
        size_t maxLineBytes = 1 << 20;

        /** Write backpressure high-water mark: while a connection's
         * unsent responses exceed this, the server stops *reading*
         * from it (admitted work still completes and parks in the
         * reorder buffer, which the pipeline cap bounds). */
        size_t maxWriteBufferBytes = 4u << 20;

        /** Per-connection pipeline depth: lines admitted while this
         * many are in flight on the same connection shed with
         * `err ... msg=busy`. */
        int maxPipeline = 64;

        /** Global in-flight cap across all connections (submitted to
         * the backend, not yet completed); excess sheds with
         * `err ... msg=busy`. */
        int maxInflight = 256;

        /** Close a connection whose *partial* request line is older
         * than this (slow-loris guard; 0 = disabled). The deadline
         * anchors at the line's first byte, so dripping bytes cannot
         * extend it. */
        int readTimeoutMs = 30000;

        /** Close a connection with no buffered input, no in-flight
         * work, and no unsent output after this long (0 = disabled). */
        int idleTimeoutMs = 0;

        /** Install a SIGTERM handler for the duration of run() that
         * triggers a graceful drain (mclp-serve sets this; embedded
         * servers and tests use requestDrain()). */
        bool handleSigterm = false;
    };

    /**
     * What answers admitted lines. The server keeps everything that
     * touches clients (listeners, framing, blank/comment/overlong/
     * `shutdown` lines, admission, timeouts, drain); a backend gets
     * each admitted line with its reorder slot and completes it later.
     * Every hook runs on the poll thread; only complete() may be
     * called from elsewhere.
     */
    class Backend
    {
      public:
        virtual ~Backend() = default;

        /** Prefix of the server's log lines ("mclp-serve"). */
        virtual const char *name() const = 0;

        /** run() is about to poll for the first time. */
        virtual void start(Server &server) = 0;

        /** Answer @p line (trimmed, never blank, a comment or
         * `shutdown`) by calling Server::complete(conn, seq, ...)
         * exactly once, now or later, from any thread. */
        virtual void submit(const std::shared_ptr<Connection> &conn,
                            uint64_t seq, std::string line) = 0;

        /** Append fds to this round's poll set, and lower
         * @p deadline_ms (monotonic ms, -1 = none) to wake by then. */
        virtual void addPollFds(std::vector<pollfd> &, int64_t &) {}

        /** After every poll: the fds addPollFds() appended, with
         * their revents (also called on timeouts). */
        virtual void onPolled(const pollfd *, size_t) {}

        /** Every connection has closed: release resources and return
         * run()'s exit code. */
        virtual int finish() = 0;
    };

    /**
     * Binds the listeners immediately (so tcpPort() is valid and
     * bind failures surface before run()). @p backend must outlive
     * the server.
     */
    Server(Backend &backend, Options options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** False when a listener failed to bind (run() would return 1);
     * the reason was warn()ed. */
    bool listening() const { return startError_.empty(); }

    /** The bound TCP port (resolves port 0), 0 without a TCP
     * listener. Valid right after construction. */
    uint16_t tcpPort() const { return tcpPort_; }

    /**
     * Run the event loop until drained (shutdown verb, SIGTERM,
     * requestDrain()) or the accept limit is exhausted, then return
     * the backend's finish() code; 1 when a listener failed. Call
     * once.
     */
    int run();

    /** Begin a graceful drain; safe from any thread. */
    void requestDrain();

    /** True once a drain began (poll thread only). */
    bool draining() const { return draining_; }

    /** Deliver the answer to slot @p seq of @p conn and end that
     * line's in-flight count; safe from any thread. */
    void complete(const std::shared_ptr<Connection> &conn, uint64_t seq,
                  std::string response);

    const TransportStats &stats() const { return stats_; }

  private:
    void acceptPending(int listen_fd);
    void onReadable(const std::shared_ptr<Connection> &conn);
    void handleLine(const std::shared_ptr<Connection> &conn,
                    std::string line, bool overlong);
    /** Queue an immediate (non-dispatched) response in order. */
    void respondNow(const std::shared_ptr<Connection> &conn,
                    const std::string &response);
    /** Move ready responses to the write queue and push bytes until
     * EAGAIN; write errors mark the connection closing. */
    void pumpOut(const std::shared_ptr<Connection> &conn);
    void closeConnection(uint64_t id);
    /** Close finished/broken connections; returns true when the
     * loop should exit. */
    bool sweepAndCheckExit();
    int pollTimeoutMs(int64_t backend_deadline) const;
    void enforceDeadlines();
    bool acceptingClosed() const;

    Backend &backend_;
    Options options_;
    std::string startError_;

    util::ScopedFd unixListener_;
    util::ScopedFd tcpListener_;
    uint16_t tcpPort_ = 0;
    util::SelfPipe wake_;
    std::thread::id pollThread_;

    std::map<uint64_t, std::shared_ptr<Connection>> conns_;
    uint64_t nextConnId_ = 1;
    uint64_t acceptedTotal_ = 0;
    bool draining_ = false;
    std::atomic<bool> drainRequested_{false};
    /** Set by the SIGTERM handler, which may run on any thread. */
    std::atomic<bool> sigtermSeen_{false};

    /** Guards globalInflight_ and every Connection's reorder buffer +
     * inflight count (the state complete() touches from backend
     * threads). Sockets and read buffers are poll-thread-only and
     * need no lock. */
    std::mutex mutex_;
    int globalInflight_ = 0;

    TransportStats stats_;

    static Server *signalTarget_;
    static void sigtermHandler(int);
};

/**
 * The local worker crew, mclp-serve's backend: admitted lines queue
 * for a crew of threads that answer them through the DseService, whose
 * `stats` verb reports the server's transport counters while the crew
 * runs. The poll thread never executes requests, so a stuck
 * optimization can never stall accepts, reads, writes, or timeouts.
 * finish() lets the crew drain the queue, joins it, and only then
 * flushes the persistent frontier cache, so a flush never races an
 * in-flight request's row insertions.
 */
class LocalBackend : public Server::Backend
{
  public:
    /** @p workers request threads (0 = hardware concurrency; at least
     * one is always spawned). @p service must outlive the backend. */
    explicit LocalBackend(DseService &service, int workers = 1)
        : service_(service), workerCount_(workers)
    {
    }
    ~LocalBackend() override { finish(); }

    LocalBackend(const LocalBackend &) = delete;
    LocalBackend &operator=(const LocalBackend &) = delete;

    const char *name() const override { return "mclp-serve"; }
    void start(Server &server) override;
    void submit(const std::shared_ptr<Connection> &conn, uint64_t seq,
                std::string line) override;
    int finish() override;

  private:
    struct Task
    {
        std::shared_ptr<Connection> conn;
        uint64_t seq = 0;
        std::string line;
    };

    void workerLoop();

    DseService &service_;
    int workerCount_;
    Server *server_ = nullptr;

    std::mutex mutex_;  ///< guards tasks_ and stopWorkers_
    std::condition_variable taskReady_;
    std::deque<Task> tasks_;
    bool stopWorkers_ = false;
    std::vector<std::thread> workers_;
};

} // namespace service
} // namespace mclp

#endif // MCLP_SERVICE_SERVER_H
