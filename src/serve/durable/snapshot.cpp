#include "serve/durable/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/digest.h"
#include "common/faultinject.h"

namespace neo::serve::durable
{

const char *
snapshotErrorName(SnapshotError error)
{
    switch (error) {
    case SnapshotError::Ok:
        return "ok";
    case SnapshotError::OpenFailed:
        return "open-failed";
    case SnapshotError::TooShort:
        return "too-short";
    case SnapshotError::BadMagic:
        return "bad-magic";
    case SnapshotError::BadVersion:
        return "bad-version";
    case SnapshotError::DigestMismatch:
        return "digest-mismatch";
    case SnapshotError::SectionOverrun:
        return "section-overrun";
    case SnapshotError::SectionCrc:
        return "section-crc";
    case SnapshotError::BadSectionPayload:
        return "bad-section-payload";
    case SnapshotError::TrailingBytes:
        return "trailing-bytes";
    case SnapshotError::MissingMeta:
        return "missing-meta";
    case SnapshotError::DuplicateMeta:
        return "duplicate-meta";
    case SnapshotError::SessionCountMismatch:
        return "session-count-mismatch";
    }
    return "ok";
}

// --- Field-level payload codecs ----------------------------------------

void
writeOpenParams(ByteWriter &w, const SessionOpenParams &p)
{
    w.u8(p.trajectory_kind);
    w.f32(p.center.x);
    w.f32(p.center.y);
    w.f32(p.center.z);
    w.f32(p.radius);
    w.f32(p.speed);
    w.i32(p.width);
    w.i32(p.height);
    w.f64(p.qos.target_fps);
    w.f64(p.qos.deadline_ms);
    w.i32(p.qos.max_resolution_drop);
    w.i32(p.qos.max_staleness);
    w.u64(p.qos.queue_capacity);
    w.u8(static_cast<uint8_t>(p.qos.drop_policy));
    w.i32(p.qos.restore_after);
}

bool
readOpenParams(ByteReader &r, SessionOpenParams *out)
{
    SessionOpenParams p;
    p.trajectory_kind = r.u8();
    p.center.x = r.f32();
    p.center.y = r.f32();
    p.center.z = r.f32();
    p.radius = r.f32();
    p.speed = r.f32();
    p.width = r.i32();
    p.height = r.i32();
    p.qos.target_fps = r.f64();
    p.qos.deadline_ms = r.f64();
    p.qos.max_resolution_drop = r.i32();
    p.qos.max_staleness = r.i32();
    p.qos.queue_capacity = static_cast<size_t>(r.u64());
    const uint8_t policy = r.u8();
    p.qos.restore_after = r.i32();
    if (!r.ok())
        return false;
    // Range checks: this file may be arbitrarily corrupt; a value the
    // constructor would never have seen is corruption, not a request.
    if (p.trajectory_kind > 2 || policy > 2)
        return false;
    if (p.width < 1 || p.width > 65536 || p.height < 1 ||
        p.height > 65536)
        return false;
    p.qos.drop_policy = static_cast<DropPolicy>(policy);
    *out = p;
    return true;
}

namespace
{

void
writeTileVectors(ByteWriter &w,
                 const std::vector<std::vector<TileEntry>> &tables)
{
    w.u32(static_cast<uint32_t>(tables.size()));
    for (const std::vector<TileEntry> &t : tables) {
        w.u32(static_cast<uint32_t>(t.size()));
        for (const TileEntry &e : t) {
            w.u32(e.id);
            w.f32(e.depth);
            w.u8(e.valid ? 1 : 0);
        }
    }
}

bool
readTileVectors(ByteReader &r,
                std::vector<std::vector<TileEntry>> *out)
{
    // No reserve() from untrusted counts: each loop iteration consumes
    // bytes, so the reader's bounds check caps memory at the payload
    // size long before a hostile count matters.
    const uint32_t tiles = r.u32();
    out->clear();
    for (uint32_t t = 0; t < tiles && r.ok(); ++t) {
        out->emplace_back();
        const uint32_t entries = r.u32();
        for (uint32_t i = 0; i < entries && r.ok(); ++i) {
            TileEntry e;
            e.id = r.u32();
            e.depth = r.f32();
            const uint8_t valid = r.u8();
            if (valid > 1)
                return false;
            e.valid = valid != 0;
            out->back().push_back(e);
        }
    }
    return r.ok();
}

/** The reply-visible fields of a FrameOutcome (not its stage timings). */
void
writeOutcome(ByteWriter &w, const FrameOutcome &o)
{
    w.u64(o.request);
    w.boolean(o.rendered);
    w.u64(o.frame_hash);
    w.i32(o.resolution_drop);
    w.boolean(o.direct_path);
    w.boolean(o.deadline_missed);
    w.u32(o.faults);
    w.u8(static_cast<uint8_t>(o.state));
    w.u32(o.rebuilds);
}

bool
readOutcome(ByteReader &r, FrameOutcome *out)
{
    FrameOutcome o;
    o.request = r.u64();
    const uint8_t rendered = r.u8();
    o.frame_hash = r.u64();
    o.resolution_drop = r.i32();
    const uint8_t direct_path = r.u8();
    const uint8_t deadline_missed = r.u8();
    o.faults = r.u32();
    const uint8_t state = r.u8();
    o.rebuilds = r.u32();
    if (!r.ok() || rendered > 1 || direct_path > 1 ||
        deadline_missed > 1 || state > 2)
        return false;
    o.rendered = rendered != 0;
    o.direct_path = direct_path != 0;
    o.deadline_missed = deadline_missed != 0;
    o.state = static_cast<SessionState>(state);
    *out = o;
    return true;
}

void
writeSession(ByteWriter &w, const SessionDurable &s)
{
    w.u32(s.id);
    writeOpenParams(w, s.open);
    w.u64(s.submit_seq);
    writeStats(w, s.stats);
    w.u8(s.state);
    w.i32(s.quarantine_failures);
    w.i32(s.backoff_remaining);
    w.u32(s.rebuilds);
    w.u8(s.sorter_stale);
    w.i32(s.last_drop);
    w.u32(static_cast<uint32_t>(s.queue.size()));
    for (const SessionDurable::QueuedRequest &q : s.queue) {
        w.u64(q.frame_index);
        w.u64(q.submit_seq);
    }
    w.f64(s.budget.ema_ms);
    w.boolean(s.budget.warm);
    w.i32(s.budget.severity);
    w.i32(s.budget.on_time_streak);
    w.u64(s.budget.degradations);
    w.u64(s.budget.restores);
    w.u8(s.has_last_outcome);
    writeOutcome(w, s.last_outcome);
    w.u8(s.has_renderer);
    writeTileVectors(w, s.tables);
}

bool
decodeSessionPayload(const uint8_t *data, size_t len, SessionDurable *out)
{
    ByteReader r(data, len);
    SessionDurable s;
    s.id = r.u32();
    if (!readOpenParams(r, &s.open))
        return false;
    s.submit_seq = r.u64();
    readStats(r, &s.stats);
    s.state = r.u8();
    s.quarantine_failures = r.i32();
    s.backoff_remaining = r.i32();
    s.rebuilds = r.u32();
    s.sorter_stale = r.u8();
    s.last_drop = r.i32();
    const uint32_t queued = r.u32();
    for (uint32_t i = 0; i < queued && r.ok(); ++i) {
        SessionDurable::QueuedRequest q;
        q.frame_index = r.u64();
        q.submit_seq = r.u64();
        s.queue.push_back(q);
    }
    s.budget.ema_ms = r.f64();
    s.budget.warm = r.boolean();
    s.budget.severity = r.i32();
    s.budget.on_time_streak = r.i32();
    s.budget.degradations = r.u64();
    s.budget.restores = r.u64();
    s.has_last_outcome = r.u8();
    if (!readOutcome(r, &s.last_outcome))
        return false;
    s.has_renderer = r.u8();
    if (!readTileVectors(r, &s.tables))
        return false;
    if (!r.done())
        return false;
    if (s.state > 2 || s.sorter_stale > 1 || s.has_renderer > 1 ||
        s.has_last_outcome > 1)
        return false;
    *out = std::move(s);
    return true;
}

void
writeMeta(ByteWriter &w, const SnapshotMeta &meta, uint32_t session_count)
{
    w.u64(meta.seq);
    w.u64(meta.journal_epoch);
    w.u64(meta.journal_offset);
    w.u64(meta.frames_journaled);
    w.u32(session_count);
}

bool
decodeMetaPayload(const uint8_t *data, size_t len, SnapshotMeta *out,
                  uint32_t *session_count)
{
    ByteReader r(data, len);
    SnapshotMeta m;
    m.seq = r.u64();
    m.journal_epoch = r.u64();
    m.journal_offset = r.u64();
    m.frames_journaled = r.u64();
    const uint32_t count = r.u32();
    if (!r.done())
        return false;
    *out = m;
    *session_count = count;
    return true;
}

} // namespace

// --- Container ---------------------------------------------------------

std::vector<uint8_t>
encodeSnapshot(const ServerSnapshot &snap)
{
    std::vector<uint8_t> out;
    ByteWriter w(out);
    w.u32(kSnapshotMagic);
    w.u32(kSnapshotVersion);
    w.u32(static_cast<uint32_t>(1 + snap.sessions.size()));
    w.u32(static_cast<uint32_t>(SectionType::Meta));
    w.fenced([&](ByteWriter &p) {
        writeMeta(p, snap.meta, static_cast<uint32_t>(snap.sessions.size()));
    });
    for (const SessionDurable &s : snap.sessions) {
        w.u32(static_cast<uint32_t>(SectionType::Session));
        w.fenced([&](ByteWriter &p) { writeSession(p, s); });
    }
    Digest64 d;
    d.bytes(out.data(), out.size());
    w.u64(d.finish());
    return out;
}

SnapshotError
decodeSnapshot(const uint8_t *data, size_t len, ServerSnapshot *out)
{
    if (len < kSnapshotHeaderSize + kSnapshotTrailerSize)
        return SnapshotError::TooShort;

    const size_t body_end = len - kSnapshotTrailerSize;
    ByteReader r(data, body_end);
    if (r.u32() != kSnapshotMagic)
        return SnapshotError::BadMagic;
    if (r.u32() != kSnapshotVersion)
        return SnapshotError::BadVersion;
    const uint32_t sections = r.u32();

    // Walk the sections first so a localized fault reports a localized
    // reason (the torn-file taxonomy); the whole-file digest below is
    // the catch-all for anything the structural walk cannot see.
    ServerSnapshot snap;
    uint32_t meta_count = 0;
    uint32_t meta_sessions = 0;
    for (uint32_t i = 0; i < sections; ++i) {
        const uint32_t type = r.u32();
        const uint8_t *payload = nullptr;
        uint32_t length = 0;
        // No cap of its own: the file bounds a section.
        const FenceStatus fence = r.fenced(len, &payload, &length);
        if (fence == FenceStatus::BadCrc)
            return SnapshotError::SectionCrc;
        if (fence != FenceStatus::Ok)
            return SnapshotError::SectionOverrun;
        switch (static_cast<SectionType>(type)) {
        case SectionType::Meta:
            if (++meta_count > 1)
                return SnapshotError::DuplicateMeta;
            if (!decodeMetaPayload(payload, length, &snap.meta,
                                   &meta_sessions))
                return SnapshotError::BadSectionPayload;
            break;
        case SectionType::Session: {
            SessionDurable s;
            if (!decodeSessionPayload(payload, length, &s))
                return SnapshotError::BadSectionPayload;
            snap.sessions.push_back(std::move(s));
            break;
        }
        default:
            // A type this build does not know inside a CRC-valid section
            // is format skew, not corruption — but with a single version
            // in existence it can only be corruption that landed in the
            // type field with a compensating CRC, so reject it.
            return SnapshotError::BadSectionPayload;
        }
    }
    if (!r.done())
        return SnapshotError::TrailingBytes;
    if (meta_count == 0)
        return SnapshotError::MissingMeta;
    if (meta_sessions != snap.sessions.size())
        return SnapshotError::SessionCountMismatch;

    Digest64 d;
    d.bytes(data, body_end);
    ByteReader trailer(data + body_end, kSnapshotTrailerSize);
    if (trailer.u64() != d.finish())
        return SnapshotError::DigestMismatch;

    *out = std::move(snap);
    return SnapshotError::Ok;
}

// --- Files -------------------------------------------------------------

std::string
snapshotFileName(uint64_t seq)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "snap-%llu.neosnap",
                  static_cast<unsigned long long>(seq));
    return buf;
}

bool
writeAllAt(int fd, const uint8_t *data, size_t len, uint64_t offset)
{
    size_t off = 0;
    while (off < len) {
        const ssize_t n = ::pwrite(fd, data + off, len - off,
                                   static_cast<off_t>(offset + off));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
readAllFrom(int fd, uint64_t offset, std::vector<uint8_t> *out)
{
    out->clear();
    uint8_t buf[1 << 16];
    uint64_t pos = offset;
    for (;;) {
        const ssize_t n =
            ::pread(fd, buf, sizeof(buf), static_cast<off_t>(pos));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return true;
        out->insert(out->end(), buf, buf + n);
        pos += static_cast<uint64_t>(n);
    }
}

namespace
{

void
fsyncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

void
setErr(std::string *err, const std::string &what)
{
    if (err)
        *err = what + ": " + std::strerror(errno);
}

} // namespace

bool
writeSnapshotFile(const std::string &dir, const ServerSnapshot &snap,
                  std::string *err)
{
    std::vector<uint8_t> image = encodeSnapshot(snap);
    // Fault hooks on the production path (see common/faultinject.h):
    // FlipBit models rot the writer never notices, TornWrite a crash
    // that leaves a prefix, AbortRename a kill between write and rename.
    faultinject::durableCorrupt("durable.snapshot", image.data(),
                                image.size());
    const size_t persist =
        faultinject::durableWriteLimit("durable.snapshot", image.size());

    const std::string final_path = dir + "/" + snapshotFileName(snap.meta.seq);
    const std::string tmp_path = final_path + ".tmp";
    const int fd =
        ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        setErr(err, "open " + tmp_path);
        return false;
    }
    const bool wrote = writeAllAt(fd, image.data(), persist, 0);
    const bool synced = ::fsync(fd) == 0;
    ::close(fd);
    if (!wrote || !synced) {
        setErr(err, "write " + tmp_path);
        ::unlink(tmp_path.c_str());
        return false;
    }
    if (faultinject::durableAbortRename("durable.snapshot")) {
        // Simulated kill between write and rename: the temp file stays
        // behind (prune collects it) and the previous generation is
        // still the newest — exactly the crash window's residue.
        if (err)
            *err = "aborted before rename (fault injection)";
        return false;
    }
    if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
        setErr(err, "rename " + final_path);
        ::unlink(tmp_path.c_str());
        return false;
    }
    fsyncDir(dir);
    return true;
}

SnapshotError
loadSnapshotFile(const std::string &path, ServerSnapshot *out)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return SnapshotError::OpenFailed;
    std::vector<uint8_t> data;
    const bool loaded = readAllFrom(fd, 0, &data);
    ::close(fd);
    if (!loaded)
        return SnapshotError::OpenFailed;
    return decodeSnapshot(data.data(), data.size(), out);
}

std::vector<SnapshotFile>
listSnapshots(const std::string &dir)
{
    std::vector<SnapshotFile> found;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return found;
    while (struct dirent *e = ::readdir(d)) {
        const char *name = e->d_name;
        unsigned long long seq = 0;
        int consumed = 0;
        if (std::sscanf(name, "snap-%llu.neosnap%n", &seq, &consumed) ==
                1 &&
            consumed > 0 && name[consumed] == '\0') {
            SnapshotFile f;
            f.seq = seq;
            f.path = dir + "/" + name;
            found.push_back(std::move(f));
        }
    }
    ::closedir(d);
    std::sort(found.begin(), found.end(),
              [](const SnapshotFile &a, const SnapshotFile &b) {
                  return a.seq > b.seq;
              });
    return found;
}

void
pruneSnapshots(const std::string &dir, int keep)
{
    const std::vector<SnapshotFile> all = listSnapshots(dir);
    for (size_t i = keep < 0 ? 0 : static_cast<size_t>(keep);
         i < all.size(); ++i)
        ::unlink(all[i].path.c_str());

    // Collect temp files orphaned by an interrupted write.
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return;
    while (struct dirent *e = ::readdir(d)) {
        const char *name = e->d_name;
        const size_t len = std::strlen(name);
        if (len > 4 && std::strcmp(name + len - 4, ".tmp") == 0 &&
            std::strncmp(name, "snap-", 5) == 0)
            ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
}

} // namespace neo::serve::durable
