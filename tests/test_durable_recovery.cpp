/**
 * @file
 * End-to-end crash-recovery attestation over the real binaries: fork
 * neo_serve_net with --state-dir, stream frames into it over the real
 * socket with neo_serve_net_client, SIGKILL the server mid-stream at an
 * arbitrary frame, restart it on the same state directory, resume the
 * session, and assert the full served stream — before and after the
 * kill — is bit-identical to the server's own uninterrupted in-process
 * solo reference. Plus the graceful path: a drained server restarts
 * with its sessions restored from the final snapshot and an empty
 * journal replay.
 *
 * Binary paths arrive via NEO_SERVE_NET_BIN / NEO_SERVE_NET_CLIENT_BIN
 * (set by tests/CMakeLists.txt); the tests skip when absent so the
 * suite stays runnable standalone.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace
{

/** One spawned child with line-buffered access to its stdout. */
class Proc
{
  public:
    Proc() = default;
    ~Proc() { terminate(); }
    Proc(const Proc &) = delete;
    Proc &operator=(const Proc &) = delete;

    bool spawn(const std::vector<std::string> &argv)
    {
        int fds[2];
        if (pipe(fds) != 0)
            return false;
        pid_ = fork();
        if (pid_ < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            return false;
        }
        if (pid_ == 0) {
            ::close(fds[0]);
            dup2(fds[1], STDOUT_FILENO);
            ::close(fds[1]);
            std::vector<char *> args;
            args.reserve(argv.size() + 1);
            for (const std::string &a : argv)
                args.push_back(const_cast<char *>(a.c_str()));
            args.push_back(nullptr);
            execv(args[0], args.data());
            _exit(127);
        }
        ::close(fds[1]);
        out_ = fdopen(fds[0], "r");
        return out_ != nullptr;
    }

    /** Next stdout line (without the newline); false on EOF. */
    bool nextLine(std::string *line)
    {
        if (!out_)
            return false;
        char *buf = nullptr;
        size_t cap = 0;
        const ssize_t n = getline(&buf, &cap, out_);
        if (n < 0) {
            free(buf);
            return false;
        }
        *line = std::string(buf, buf[n - 1] == '\n'
                                     ? static_cast<size_t>(n) - 1
                                     : static_cast<size_t>(n));
        free(buf);
        return true;
    }

    /** Read lines until one starts with @p prefix. */
    bool waitForLine(const char *prefix, std::string *line)
    {
        while (nextLine(line)) {
            if (line->rfind(prefix, 0) == 0)
                return true;
        }
        return false;
    }

    void kill9()
    {
        if (pid_ > 0)
            ::kill(pid_, SIGKILL);
    }

    /** Reap the child; returns its wait status (-1 when not running). */
    int join()
    {
        if (pid_ <= 0)
            return -1;
        int status = -1;
        waitpid(pid_, &status, 0);
        pid_ = -1;
        if (out_) {
            fclose(out_);
            out_ = nullptr;
        }
        return status;
    }

    pid_t pid() const { return pid_; }

  private:
    void terminate()
    {
        if (pid_ > 0) {
            kill9();
            join();
        } else if (out_) {
            fclose(out_);
            out_ = nullptr;
        }
    }

    pid_t pid_ = -1;
    FILE *out_ = nullptr;
};

/** Scratch state directory in the test's working directory. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char tmpl[] = "durable-e2e-XXXXXX";
        const char *dir = mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        path_ = dir ? dir : "durable-e2e-fallback";
    }

    ~ScratchDir()
    {
        if (DIR *d = opendir(path_.c_str())) {
            while (dirent *e = readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    ::unlink((path_ + "/" + name).c_str());
            }
            closedir(d);
        }
        ::rmdir(path_.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

const char *
serverBin()
{
    return std::getenv("NEO_SERVE_NET_BIN");
}

/** The client ships next to the server binary; NEO_SERVE_NET_CLIENT_BIN
    overrides for out-of-tree runs. */
std::string
clientBin()
{
    if (const char *env = std::getenv("NEO_SERVE_NET_CLIENT_BIN"))
        return env;
    const char *server = serverBin();
    if (!server)
        return "";
    std::string path = server;
    const size_t slash = path.find_last_of('/');
    path.resize(slash == std::string::npos ? 0 : slash + 1);
    return path + "neo_serve_net_client";
}

struct RecoveryLine
{
    unsigned sessions = 0;
    unsigned long long snapshot = 0;
    unsigned long long replayed = 0;
    unsigned skipped = 0;
};

/** Start a durable server; parses solo refs (when requested), the
    recovery attestation line, and the bound port. */
bool
startServer(Proc *server, const std::string &state_dir, int solo_frames,
            std::map<int, uint64_t> *solo, RecoveryLine *recovery,
            int *port)
{
    std::vector<std::string> argv = {serverBin(), "--state-dir",
                                     state_dir, "--port", "0"};
    if (solo_frames > 0) {
        argv.push_back("--print-solo");
        argv.push_back(std::to_string(solo_frames));
    }
    if (!server->spawn(argv))
        return false;

    std::string line;
    while (server->nextLine(&line)) {
        int f = 0;
        unsigned long long hash = 0;
        if (std::sscanf(line.c_str(), "solo %d %llx", &f, &hash) == 2) {
            if (solo)
                (*solo)[f] = hash;
            continue;
        }
        RecoveryLine r;
        if (std::sscanf(line.c_str(),
                        "recovered sessions=%u snapshot=%llu "
                        "replayed=%llu skipped=%u",
                        &r.sessions, &r.snapshot, &r.replayed,
                        &r.skipped) == 4) {
            if (recovery)
                *recovery = r;
            continue;
        }
        if (std::sscanf(line.c_str(), "listening on 127.0.0.1:%d",
                        port) == 1)
            return true;
    }
    return false;
}

} // namespace

TEST(DurableE2eTest, Kill9MidStreamThenResumeBitIdentical)
{
    if (!serverBin() || clientBin().empty())
        GTEST_SKIP() << "NEO_SERVE_NET_BIN / NEO_SERVE_NET_CLIENT_BIN "
                        "not set";
    ScratchDir dir;
    constexpr int kFrames = 10;
    constexpr int kKillAfter = 4; //!< client frames served before kill

    // Incarnation A: durable server printing its own uninterrupted solo
    // reference for the full stream.
    Proc server_a;
    std::map<int, uint64_t> solo;
    int port = 0;
    ASSERT_TRUE(startServer(&server_a, dir.path(), kFrames, &solo,
                            nullptr, &port));
    ASSERT_EQ(solo.size(), static_cast<size_t>(kFrames));

    // Stream, and SIGKILL the real server process mid-stream: after the
    // kKillAfter-th served frame the client's next request is in flight
    // with no reply — the crash lands at an arbitrary point of the
    // submit/journal/render/reply window. The client asks for far more
    // frames than the reference so it cannot finish (and close its
    // session) before the kill, however the pipe buffers race. The
    // client may have printed a few more frames by the time the kill
    // lands; reading on to EOF collects every reply it received.
    Proc client_a;
    ASSERT_TRUE(client_a.spawn({clientBin(), "--port",
                                std::to_string(port), "--frames",
                                "100000"}));
    std::map<int, uint64_t> served;
    std::string line;
    bool killed = false;
    while (client_a.nextLine(&line)) {
        int f = 0;
        unsigned long long hash = 0;
        if (std::sscanf(line.c_str(), "frame %d %llx", &f, &hash) != 2)
            continue;
        served[f] = hash;
        if (!killed && static_cast<int>(served.size()) == kKillAfter) {
            server_a.kill9();
            killed = true;
        }
    }
    ASSERT_TRUE(killed);
    ASSERT_LT(static_cast<int>(served.size()), kFrames)
        << "the client outran the solo reference before the kill";
    client_a.join(); // dies on the vanished server; exit status is moot
    const int status_a = server_a.join();
    ASSERT_TRUE(WIFSIGNALED(status_a) && WTERMSIG(status_a) == SIGKILL);

    // Incarnation B on the same state directory: must recover.
    Proc server_b;
    RecoveryLine rec;
    int port_b = 0;
    ASSERT_TRUE(startServer(&server_b, dir.path(), 0, nullptr, &rec,
                            &port_b));
    // Recovery may come from a snapshot, a journal replay, or both —
    // but after a mid-stream kill it must come from somewhere.
    EXPECT_TRUE(rec.sessions > 0 || rec.replayed > 0)
        << "restart recovered nothing";
    EXPECT_EQ(rec.skipped, 0u) << "no generation should be corrupt here";

    // Resume where the stream stopped. The server may have journaled,
    // and even rendered, one more frame than the client saw a reply for
    // (the in-flight request at kill time). The server answers a
    // resubmit of that frame from its last outcome instead of rendering
    // it twice, so restarting from the last *confirmed* frame is always
    // correct.
    const int resume_at = static_cast<int>(served.size());
    Proc client_b;
    ASSERT_TRUE(client_b.spawn(
        {clientBin(), "--port", std::to_string(port_b), "--resume", "0",
         "--start-frame", std::to_string(resume_at), "--frames",
         std::to_string(kFrames - resume_at), "--shutdown"}));
    bool resumed = false;
    bool acked = false;
    while (client_b.nextLine(&line)) {
        int f = 0;
        unsigned long long hash = 0;
        if (line.rfind("session ", 0) == 0 &&
            line.find("resumed") != std::string::npos)
            resumed = true;
        if (std::sscanf(line.c_str(), "frame %d %llx", &f, &hash) == 2)
            served[f] = hash;
        if (line == "shutdown acked")
            acked = true;
    }
    EXPECT_TRUE(resumed);
    EXPECT_TRUE(acked);
    EXPECT_EQ(client_b.join(), 0);

    // The recovery attestation: every served frame, across the kill,
    // bit-identical to the uninterrupted solo reference.
    ASSERT_EQ(served.size(), static_cast<size_t>(kFrames));
    for (int f = 0; f < kFrames; ++f) {
        ASSERT_TRUE(solo.count(f));
        EXPECT_EQ(served[f], solo[f])
            << "frame " << f << " diverged across the crash";
    }

    // And the drained second incarnation exits cleanly.
    std::string drained;
    EXPECT_TRUE(server_b.waitForLine("drained cleanly", &drained));
    EXPECT_EQ(server_b.join(), 0);
}

TEST(DurableE2eTest, GracefulDrainRestartsWithEmptyJournalReplay)
{
    if (!serverBin() || clientBin().empty())
        GTEST_SKIP() << "NEO_SERVE_NET_BIN / NEO_SERVE_NET_CLIENT_BIN "
                        "not set";
    ScratchDir dir;
    constexpr int kFirst = 4;
    constexpr int kTotal = 7;

    Proc server_a;
    std::map<int, uint64_t> solo;
    int port = 0;
    ASSERT_TRUE(startServer(&server_a, dir.path(), kTotal, &solo,
                            nullptr, &port));

    // Stream a few frames, then request a graceful drain: the server
    // cuts a final compacting snapshot before closing.
    Proc client_a;
    ASSERT_TRUE(client_a.spawn({clientBin(), "--port",
                                std::to_string(port), "--frames",
                                std::to_string(kFirst), "--shutdown"}));
    std::map<int, uint64_t> served;
    std::string line;
    bool acked = false;
    while (client_a.nextLine(&line)) {
        int f = 0;
        unsigned long long hash = 0;
        if (std::sscanf(line.c_str(), "frame %d %llx", &f, &hash) == 2)
            served[f] = hash;
        if (line == "shutdown acked")
            acked = true;
    }
    EXPECT_TRUE(acked);
    EXPECT_EQ(client_a.join(), 0);
    EXPECT_EQ(server_a.join(), 0) << "drain must exit cleanly";

    // Restart: the session comes back from the final snapshot alone.
    Proc server_b;
    RecoveryLine rec;
    int port_b = 0;
    ASSERT_TRUE(startServer(&server_b, dir.path(), 0, nullptr, &rec,
                            &port_b));
    EXPECT_EQ(rec.sessions, 1u);
    EXPECT_EQ(rec.replayed, 0u)
        << "a drained server has nothing to replay";

    Proc client_b;
    ASSERT_TRUE(client_b.spawn(
        {clientBin(), "--port", std::to_string(port_b), "--resume", "0",
         "--start-frame", std::to_string(kFirst), "--frames",
         std::to_string(kTotal - kFirst), "--shutdown"}));
    while (client_b.nextLine(&line)) {
        int f = 0;
        unsigned long long hash = 0;
        if (std::sscanf(line.c_str(), "frame %d %llx", &f, &hash) == 2)
            served[f] = hash;
    }
    EXPECT_EQ(client_b.join(), 0);
    EXPECT_EQ(server_b.join(), 0);

    ASSERT_EQ(served.size(), static_cast<size_t>(kTotal));
    for (int f = 0; f < kTotal; ++f)
        EXPECT_EQ(served[f], solo[f])
            << "frame " << f << " diverged across the drain/restart";
}
