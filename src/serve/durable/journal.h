/**
 * @file
 * Append-only request journal of the durable serving mode. Every
 * state-changing request the server accepts — session opens, accepted
 * frame submissions, session closes — is appended as a CRC-fenced record
 * before the caller learns the outcome (write-ahead). Recovery loads the
 * newest digest-verified snapshot and replays the journal suffix past
 * the snapshot's offset; because the serving pipeline is deterministic,
 * replaying the same requests against the restored state reproduces the
 * crashed process bit-identically.
 *
 * File layout (`journal.neoj`, all integers little-endian):
 *
 *   offset  size  field
 *   0       4     magic    "NEOJ" (0x4A4F454E as a LE u32)
 *   4       2     version  kJournalVersion (1)
 *   6       2     reserved (0)
 *   8       8     epoch    pairs records with snapshots (see below)
 *   16      ...   records
 *
 * Each record is a u8 type followed by the {u32 length, u32 crc32,
 * payload} fence that wire frames and snapshot sections also end in
 * (common/codec.h). A torn or corrupt record ends the valid prefix:
 * open() scans the file once and truncates everything from the first
 * invalid record on — the crash-mid-append residue — so appends always
 * extend a valid log.
 *
 * Epochs: snapshots store (journal_epoch, journal_offset). The journal
 * is only ever emptied by a *compacting* checkpoint (recovery completion
 * and graceful drain), which first writes a snapshot carrying the new
 * epoch, then truncates the journal to that epoch. A crash between the
 * two leaves a snapshot whose epoch the journal doesn't carry — the
 * loader then replays nothing, which is correct because a compacting
 * snapshot is cut at quiescence. Ordinary periodic checkpoints leave the
 * journal growing under the current epoch, so older snapshot generations
 * (same epoch, earlier offset) remain valid fallbacks.
 */

#ifndef NEO_SERVE_DURABLE_JOURNAL_H
#define NEO_SERVE_DURABLE_JOURNAL_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/session.h"

namespace neo::serve::durable
{

/** "NEOJ" read little-endian. */
inline constexpr uint32_t kJournalMagic = 0x4A4F454Eu;
inline constexpr uint16_t kJournalVersion = 1;
inline constexpr size_t kJournalHeaderSize = 16;
/** Per-record prefix: type + length + crc32. */
inline constexpr size_t kRecordHeaderSize = 9;
/** Sanity cap on one record's payload. */
inline constexpr size_t kMaxRecordPayload = 1u << 16;

/** Record types. */
enum class JournalRecordType : uint8_t
{
    Open = 1,   //!< session admitted (id + open params)
    Submit = 2, //!< frame submission accepted (id + frame index)
    Close = 3,  //!< session closed (id)
};

/** Lower-case record name ("open", "submit", "close"). */
const char *journalRecordName(JournalRecordType type);

/** One journal record (fields beyond `type`'s are ignored). */
struct JournalRecord
{
    JournalRecordType type = JournalRecordType::Submit;
    uint32_t session_id = 0;
    uint64_t frame_index = 0; //!< Submit
    SessionOpenParams open;   //!< Open
};

/**
 * The append-only journal file (see file comment). Thread-safe: appends
 * from concurrent sessions serialize on an internal mutex.
 */
class Journal
{
  public:
    Journal() = default;
    ~Journal();
    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Open or create `dir/journal.neoj`. An existing file has its valid
     * record prefix identified and the torn tail truncated; a missing
     * file is created with epoch 0 ("never compacted"); an existing file
     * whose *header* is corrupt is recreated empty with epoch 0 — the
     * epoch scheme guarantees no snapshot pairs with it, so nothing can
     * be misreplayed, and the recovery-completion compaction immediately
     * moves to a fresh epoch.
     */
    bool open(const std::string &dir, std::string *err = nullptr);

    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }
    uint64_t epoch() const;
    /** Byte offset one past the last valid record (>= header size). */
    uint64_t endOffset() const;

    /** fdatasync cadence: 0 never, 1 every append (default), N every
        Nth append. */
    void setSyncEvery(uint64_t n);

    /**
     * Append one record (write-ahead: returns only after the bytes are
     * handed to the kernel, and after fdatasync when the cadence says
     * so). The durability fault hooks ("durable.journal") act here.
     */
    bool append(const JournalRecord &rec);

    /** Flush appended records to stable storage now. */
    void sync();

    /**
     * Read the valid records in [@p offset, endOffset()). The caller
     * has already matched the snapshot's epoch against epoch(). False
     * only on I/O failure; a short or corrupt tail simply ends @p out.
     */
    bool replay(uint64_t offset, std::vector<JournalRecord> *out) const;

    /** Compaction: truncate to an empty log carrying @p new_epoch. */
    bool reset(uint64_t new_epoch);

  private:
    bool writeHeader(uint64_t epoch);

    mutable std::mutex mutex_;
    int fd_ = -1;
    std::string path_;
    uint64_t epoch_ = 0;
    uint64_t end_offset_ = kJournalHeaderSize;
    uint64_t sync_every_ = 1;
    uint64_t unsynced_ = 0;
};

} // namespace neo::serve::durable

#endif // NEO_SERVE_DURABLE_JOURNAL_H
