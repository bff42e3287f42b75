/**
 * @file
 * mclp-front — the self-healing sharded serving front: one listening
 * endpoint (Unix socket and/or loopback TCP), K supervised mclp-serve
 * worker processes, requests routed by network identity.
 *
 * This file holds only the flags and main(): the client side is the
 * same service::Server that mclp-serve runs (src/service/server.h),
 * so the front applies the same framing, admission caps, timeouts
 * and drain, and its backend is the shard trunks of
 * src/service/front.h (routing, stats merge, supervision, the SIGTERM
 * cascade). The workers are connected before the front's listener
 * binds, and only then is an ephemeral TCP port announced on stderr.
 *
 * Wire behavior is byte-identical to a single mclp-serve worker; the
 * CI sharded smoke diffs a front-of-2 against a single cold worker
 * line for line.
 *
 * Examples:
 *   mclp-front --socket /tmp/mclp.sock --workers 2 --cache-dir /tmp/fc
 *   mclp-front --socket /tmp/mclp.sock --tcp-port 0 --workers 4
 */

#include <csignal>
#include <cstdio>
#include <optional>
#include <string>

#include "service/front.h"
#include "service/server.h"
#include "util/flags.h"
#include "util/logging.h"

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
        "                       The front also applies mclp-serve's\n"
        "                       default limits: 64 lines in flight per\n"
        "                       connection and 256 in all (excess\n"
        "                       answers 'err ... msg=busy'), and a 30 s\n"
        "                       read timeout on partial lines\n"
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
    service::ShardBackend::Options shards;
    int tcpPort = -1;  ///< -1 = no TCP listener; 0 = ephemeral
};

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

std::optional<Options>
parseArgs(int argc, char **argv)
{
    Options opts;
    opts.shards.serveBin = defaultServeBin(argv[0]);
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
            opts.shards.socketPath = need_value(i, "--socket");
        } else if (arg == "--tcp-port") {
            opts.tcpPort =
                static_cast<int>(int_flag(i, "--tcp-port", 0, 65535));
        } else if (arg == "--workers") {
            opts.shards.workers =
                static_cast<int>(int_flag(i, "--workers", 1, 256));
        } else if (arg == "--serve-bin") {
            opts.shards.serveBin = need_value(i, "--serve-bin");
        } else if (arg == "--cache-dir") {
            opts.shards.cacheDir = need_value(i, "--cache-dir");
        } else if (arg == "--cache-max-mb") {
            opts.shards.cacheMaxMb =
                int_flag(i, "--cache-max-mb", 0, int64_t{1} << 30);
        } else if (arg == "--cache-share") {
            opts.shards.cacheShare =
                int_flag(i, "--cache-share", 0, 1) != 0;
        } else if (arg == "--cache-flush-interval-ms") {
            opts.shards.cacheFlushIntervalMs = static_cast<int>(
                int_flag(i, "--cache-flush-interval-ms", 0, 1 << 30));
        } else if (arg == "--threads") {
            opts.shards.threads =
                static_cast<int>(int_flag(i, "--threads", 0, 4096));
        } else if (arg == "--max-sessions") {
            opts.shards.maxSessions =
                int_flag(i, "--max-sessions", 1, 1 << 20);
        } else if (arg == "--cold") {
            opts.shards.cold = true;
        } else if (arg == "--max-line-bytes") {
            opts.shards.maxLineBytes = static_cast<size_t>(
                int_flag(i, "--max-line-bytes", 64, int64_t{1} << 30));
        } else if (arg == "--respawn-backoff-ms") {
            opts.shards.respawnBackoffMs = static_cast<int>(
                int_flag(i, "--respawn-backoff-ms", 1, 1 << 30));
        } else if (arg == "--respawn-backoff-max-ms") {
            opts.shards.respawnBackoffMaxMs = static_cast<int>(
                int_flag(i, "--respawn-backoff-max-ms", 1, 1 << 30));
        } else {
            util::fatal("unknown option '%s' (try --help)",
                        arg.c_str());
        }
    }
    if (opts.shards.socketPath.empty())
        util::fatal("--socket is required (try --help)");
    if (opts.shards.respawnBackoffMaxMs < opts.shards.respawnBackoffMs)
        opts.shards.respawnBackoffMaxMs = opts.shards.respawnBackoffMs;
    return opts;
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
        // Workers first: the listener binds (and an ephemeral port is
        // announced) only once every worker answers its socket.
        service::ShardBackend shards(opts->shards);
        if (!shards.ok())
            return 1;
        service::Server::Options server_opts;
        server_opts.unixPath = opts->shards.socketPath;
        server_opts.tcpPort = opts->tcpPort;
        server_opts.maxLineBytes = opts->shards.maxLineBytes;
        service::Server server(shards, server_opts);
        if (!server.listening())
            return 1;
        if (opts->tcpPort >= 0) {
            // Ephemeral ports (--tcp-port 0) are useless unless
            // announced; stderr keeps stdout free.
            std::fprintf(stderr, "mclp-front: tcp port %u\n",
                         static_cast<unsigned>(server.tcpPort()));
        }
        return server.run();
    } catch (const util::FatalError &err) {
        std::fprintf(stderr, "mclp-front: %s\n", err.what());
        return 1;
    }
}
