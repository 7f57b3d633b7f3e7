/**
 * @file
 * Versioned, integrity-fenced snapshot container of the durable serving
 * mode (serve/durable/). A snapshot captures the complete
 * session-critical state of a NeoServer — every live session's
 * SessionDurable (frame position, queue, last outcome, QoS/degradation
 * ladder, persistent sorter tables, delta-tracker membership) plus the
 * journal coordinates it pairs with — so that a restarted process can
 * reload it and deterministically replay the journal suffix.
 *
 * Container layout (all integers little-endian):
 *
 *   offset  size  field
 *   0       4     magic         "NEOS" (0x534F454E as a LE u32)
 *   4       4     version       kSnapshotVersion (4)
 *   8       4     section count
 *   12      ...   sections
 *   end-8   8     Digest64 over every preceding byte
 *
 * Each section:
 *
 *   0       4     type          SectionType
 *   4       4     length        payload byte count
 *   8       4     crc32         IEEE CRC-32 over the payload bytes
 *   12      len   payload
 *
 * Bytes 4 onward are the {u32 length, u32 crc32, payload} fence that
 * wire frames and journal records also end in (common/codec.h).
 *
 * Two integrity fences on purpose: the per-section CRC localizes a
 * corrupt byte to one section (the torn-file taxonomy tests assert the
 * typed reason per section), and the whole-file Digest64 trailer catches
 * anything the section walk cannot see — truncation at a section
 * boundary, bytes appended after the last section, a corrupted header.
 * A loader failure is never silent: every exit path is a typed
 * SnapshotError, and the recovery driver falls back a generation (or
 * cold-starts) on anything but Ok.
 *
 * Files are written atomically — encode to `<name>.tmp`, fsync, rename
 * into `snap-<seq>.neosnap`, fsync the directory — so a crash at any
 * instant leaves either the previous generation set intact or the new
 * file complete, never a half-written current snapshot.
 */

#ifndef NEO_SERVE_DURABLE_SNAPSHOT_H
#define NEO_SERVE_DURABLE_SNAPSHOT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "serve/session.h"

namespace neo::serve::durable
{

/** "NEOS" read little-endian. */
inline constexpr uint32_t kSnapshotMagic = 0x534F454Eu;
/** Version 4: a Session section no longer carries the removed stage
    watchdog's fields, so a version 3 section would misparse. A version
    2 file also carries the older FNV-1a `last_outcome.frame_hash`,
    which would answer a retried frame with a hash no fresh render
    reproduces. Older versions are refused. */
inline constexpr uint32_t kSnapshotVersion = 4;
/** Fixed prefix: magic + version + section count. */
inline constexpr size_t kSnapshotHeaderSize = 12;
/** Per-section prefix: type + length + crc32. */
inline constexpr size_t kSectionHeaderSize = 12;
/** Whole-file Digest64 trailer. */
inline constexpr size_t kSnapshotTrailerSize = 8;

/** Section types. */
enum class SectionType : uint32_t
{
    Meta = 1,    //!< exactly one per snapshot, first section
    Session = 2, //!< one per live session
};

/** Typed loader failures (the torn-file taxonomy). */
enum class SnapshotError : uint16_t
{
    Ok = 0,
    OpenFailed = 1,      //!< file missing or unreadable
    TooShort = 2,        //!< smaller than header + trailer
    BadMagic = 3,        //!< not a snapshot file
    BadVersion = 4,      //!< written by an unknown format revision
    DigestMismatch = 5,  //!< whole-file Digest64 trailer failed
    SectionOverrun = 6,  //!< a section's declared length overruns the file
    SectionCrc = 7,      //!< a section's payload checksum failed
    BadSectionPayload = 8, //!< payload malformed for its section type
    TrailingBytes = 9,   //!< bytes between the last section and trailer
    MissingMeta = 10,    //!< no Meta section
    DuplicateMeta = 11,  //!< more than one Meta section
    SessionCountMismatch = 12, //!< Meta's count != Session sections seen
};

/** Lower-case error name ("digest-mismatch", ...). */
const char *snapshotErrorName(SnapshotError error);

/** Journal coordinates and bookkeeping of one snapshot. */
struct SnapshotMeta
{
    /** Monotonic snapshot sequence number (also in the file name). */
    uint64_t seq = 0;
    /** Journal epoch this snapshot pairs with: replay only applies when
        the journal on disk carries the same epoch. */
    uint64_t journal_epoch = 0;
    /** Byte offset into that journal where replay starts — everything
        before it is already folded into the sessions below. */
    uint64_t journal_offset = 0;
    /** Accepted submissions journaled when the snapshot was cut
        (informational, shown by the recovery attestation). */
    uint64_t frames_journaled = 0;
};

/** One complete snapshot: meta + every live session's durable state. */
struct ServerSnapshot
{
    SnapshotMeta meta;
    std::vector<SessionDurable> sessions;
};

/** Field-level open-params codec, shared with the journal's Open
    records (validated on read: out-of-range values are corruption). */
void writeOpenParams(ByteWriter &w, const SessionOpenParams &p);
bool readOpenParams(ByteReader &r, SessionOpenParams *out);

/** File loops shared with the journal: pwrite all @p len bytes at
    @p offset / pread from @p offset to end of file. EINTR and short
    transfers retry; false on any other error (errno set). */
bool writeAllAt(int fd, const uint8_t *data, size_t len, uint64_t offset);
bool readAllFrom(int fd, uint64_t offset, std::vector<uint8_t> *out);

/** Encode @p snap into the container format described above. */
std::vector<uint8_t> encodeSnapshot(const ServerSnapshot &snap);

/** Decode a container image. @p out is valid only on Ok. */
SnapshotError decodeSnapshot(const uint8_t *data, size_t len,
                             ServerSnapshot *out);

/** Snapshot file name for sequence number @p seq ("snap-17.neosnap"). */
std::string snapshotFileName(uint64_t seq);

/**
 * Atomically write @p snap to `dir/snap-<meta.seq>.neosnap` (temp +
 * fsync + rename + directory fsync). The durability faultinject hooks
 * ("durable.snapshot") act on this path: an armed TornWrite persists a
 * prefix, FlipBit corrupts one encoded bit, AbortRename leaves only the
 * temp file — exactly the states a crash or disk fault produces. False
 * on failure (with @p err describing it when non-null).
 */
bool writeSnapshotFile(const std::string &dir, const ServerSnapshot &snap,
                       std::string *err = nullptr);

/** Load and fully validate one snapshot file. */
SnapshotError loadSnapshotFile(const std::string &path,
                               ServerSnapshot *out);

/** One discovered snapshot generation. */
struct SnapshotFile
{
    uint64_t seq = 0;
    std::string path;
};

/** All `snap-*.neosnap` files in @p dir, newest (highest seq) first. */
std::vector<SnapshotFile> listSnapshots(const std::string &dir);

/** Delete all but the @p keep newest generations (and any stale temp
    files left by an interrupted write). */
void pruneSnapshots(const std::string &dir, int keep);

} // namespace neo::serve::durable

#endif // NEO_SERVE_DURABLE_SNAPSHOT_H
