/**
 * @file
 * Minimal blocking client for the socket front end (the CI smoke
 * driver): connect to a neo_serve_net server on loopback, open one
 * orbit session, submit N frames, print each served hash, and
 * optionally request a graceful server drain.
 *
 *   ./neo_serve_net_client --port P [--frames N] [--shutdown]
 *                          [--resume ID] [--start-frame F] [--abandon]
 *
 * --resume re-binds to a session that survived a durable server restart
 * instead of opening a new one; --start-frame submits frames [F, F+N)
 * so a resumed stream continues where the crashed one stopped.
 * --abandon exits without closing the session — the crash-recovery
 * smoke uses it to leave a live session behind for a later --resume.
 *
 * Numeric flags must be whole integers in range (--port 1..65535,
 * --frames 1..2^20, --start-frame 0..2^30, --resume 0..2^32-1);
 * anything else, or an unknown flag, prints the usage line and exits 2.
 *
 * Prints "frame F HASH" per served frame (compared by ci.sh against
 * the server's "solo F HASH" reference lines) and "shutdown acked"
 * when --shutdown is acknowledged.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/env.h"
#include "serve/net/client.h"

using namespace neo::serve::net;

namespace
{

constexpr const char *kUsage =
    "usage: neo_serve_net_client --port P [--frames N] [--shutdown] "
    "[--resume ID] [--start-frame F] [--abandon]\n";

/** Full-string integer in [@p lo, @p hi] for @p flag, or usage + exit 2. */
long
parseArg(const char *flag, const char *text, long lo, long hi)
{
    long v = 0;
    if (!neo::env::parseLong(text, &v) || v < lo || v > hi) {
        std::fprintf(stderr,
                     "neo_serve_net_client: %s '%s' is not an integer in "
                     "[%ld, %ld]\n%s",
                     flag, text, lo, hi, kUsage);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    int port = -1;
    int frames = 3;
    int start_frame = 0;
    long resume_id = -1;
    bool shutdown = false;
    bool abandon = false;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (std::strcmp(flag, "--shutdown") == 0) {
            shutdown = true;
            continue;
        }
        if (std::strcmp(flag, "--abandon") == 0) {
            abandon = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s", kUsage);
            return 2;
        }
        const char *value = argv[++i];
        if (std::strcmp(flag, "--port") == 0) {
            port = static_cast<int>(parseArg(flag, value, 1, 65535));
        } else if (std::strcmp(flag, "--frames") == 0) {
            frames = static_cast<int>(parseArg(flag, value, 1, 1L << 20));
        } else if (std::strcmp(flag, "--start-frame") == 0) {
            start_frame =
                static_cast<int>(parseArg(flag, value, 0, 1L << 30));
        } else if (std::strcmp(flag, "--resume") == 0) {
            resume_id = parseArg(flag, value, 0, UINT32_MAX);
        } else {
            std::fprintf(stderr, "%s", kUsage);
            return 2;
        }
    }
    if (port < 0) {
        std::fprintf(stderr, "neo_serve_net_client: --port required\n%s",
                     kUsage);
        return 2;
    }

    NetClient client;
    if (!client.connect(port)) {
        std::fprintf(stderr, "connect to 127.0.0.1:%d failed\n", port);
        return 1;
    }

    OpenOkReply ok;
    if (resume_id >= 0) {
        if (!client.resumeSession(static_cast<uint32_t>(resume_id),
                                  &ok)) {
            std::fprintf(stderr, "resume-session failed: %s\n",
                         wireErrorName(client.lastError()));
            return 1;
        }
        std::printf("session %u resumed\n", ok.session_id);
    } else {
        // Must match the solo reference neo_serve_net renders: orbit,
        // speed 1.0, 256x192.
        OpenSessionReq open;
        open.trajectory_kind = 0;
        open.speed = 1.0f;
        open.width = 256;
        open.height = 192;
        if (!client.openSession(open, &ok)) {
            std::fprintf(stderr, "open-session failed: %s\n",
                         wireErrorName(client.lastError()));
            return 1;
        }
        std::printf("session %u open\n", ok.session_id);
    }

    for (int f = start_frame; f < start_frame + frames; ++f) {
        SubmitFrameReq req;
        req.session_id = ok.session_id;
        req.frame_index = static_cast<uint64_t>(f);
        SubmitReply reply;
        if (!client.submitFrame(req, &reply) || !reply.rendered) {
            std::fprintf(stderr, "submit-frame %d failed: %s\n", f,
                         wireErrorName(client.lastError()));
            return 1;
        }
        std::printf("frame %d %016llx\n", f,
                    static_cast<unsigned long long>(reply.frame_hash));
        // The crash-recovery smoke reads these lines through a pipe
        // while deciding when to kill the server mid-stream.
        std::fflush(stdout);
    }

    StatsReply stats;
    if (!client.stats(ok.session_id, &stats)) {
        std::fprintf(stderr, "stats failed: %s\n",
                     wireErrorName(client.lastError()));
        return 1;
    }
    std::printf("rendered %llu, deadline misses %llu, faults %llu\n",
                static_cast<unsigned long long>(stats.stats.rendered),
                static_cast<unsigned long long>(
                    stats.stats.deadline_misses),
                static_cast<unsigned long long>(stats.stats.faults));

    if (shutdown) {
        if (!client.shutdownServer()) {
            std::fprintf(stderr, "shutdown not acked: %s\n",
                         wireErrorName(client.lastError()));
            return 1;
        }
        std::printf("shutdown acked\n");
    } else if (!abandon && !client.closeSession(ok.session_id)) {
        std::fprintf(stderr, "close-session failed: %s\n",
                     wireErrorName(client.lastError()));
        return 1;
    }
    return 0;
}
