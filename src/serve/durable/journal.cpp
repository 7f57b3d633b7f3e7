#include "serve/durable/journal.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/faultinject.h"
#include "common/logging.h"
#include "serve/durable/snapshot.h" // open-params codec, file loops

namespace neo::serve::durable
{

const char *
journalRecordName(JournalRecordType type)
{
    switch (type) {
    case JournalRecordType::Open:
        return "open";
    case JournalRecordType::Submit:
        return "submit";
    case JournalRecordType::Close:
        return "close";
    }
    return "unknown";
}

namespace
{

void
writeRecordPayload(ByteWriter &w, const JournalRecord &rec)
{
    w.u32(rec.session_id);
    switch (rec.type) {
    case JournalRecordType::Open:
        writeOpenParams(w, rec.open);
        break;
    case JournalRecordType::Submit:
        w.u64(rec.frame_index);
        break;
    case JournalRecordType::Close:
        break;
    }
}

bool
decodeRecordPayload(uint8_t type, const uint8_t *data, size_t len,
                    JournalRecord *out)
{
    ByteReader r(data, len);
    JournalRecord rec;
    rec.session_id = r.u32();
    switch (static_cast<JournalRecordType>(type)) {
    case JournalRecordType::Open:
        rec.type = JournalRecordType::Open;
        if (!readOpenParams(r, &rec.open))
            return false;
        break;
    case JournalRecordType::Submit:
        rec.type = JournalRecordType::Submit;
        rec.frame_index = r.u64();
        break;
    case JournalRecordType::Close:
        rec.type = JournalRecordType::Close;
        break;
    default:
        return false;
    }
    if (!r.done())
        return false;
    *out = rec;
    return true;
}

/** Decode the valid record prefix of @p data (record bytes only, header
    excluded) into @p out and return its length in bytes. A torn or
    corrupt record ends the prefix. */
size_t
readRecords(const uint8_t *data, size_t len, std::vector<JournalRecord> *out)
{
    ByteReader r(data, len);
    size_t valid = 0;
    for (;;) {
        const uint8_t type = r.u8();
        const uint8_t *payload = nullptr;
        uint32_t length = 0;
        JournalRecord rec;
        if (r.fenced(kMaxRecordPayload, &payload, &length) !=
                FenceStatus::Ok ||
            !decodeRecordPayload(type, payload, length, &rec))
            return valid;
        out->push_back(rec);
        valid = r.offset();
    }
}

} // namespace

Journal::~Journal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

uint64_t
Journal::epoch() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return epoch_;
}

uint64_t
Journal::endOffset() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return end_offset_;
}

void
Journal::setSyncEvery(uint64_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sync_every_ = n;
}

bool
Journal::writeHeader(uint64_t epoch)
{
    std::vector<uint8_t> header;
    ByteWriter w(header);
    w.u32(kJournalMagic);
    w.u16(kJournalVersion);
    w.u16(0);
    w.u64(epoch);
    if (!writeAllAt(fd_, header.data(), header.size(), 0))
        return false;
    return ::fdatasync(fd_) == 0;
}

bool
Journal::open(const std::string &dir, std::string *err)
{
    std::lock_guard<std::mutex> lock(mutex_);
    path_ = dir + "/journal.neoj";
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
        if (err)
            *err = "open " + path_ + ": " + std::strerror(errno);
        return false;
    }

    std::vector<uint8_t> data;
    if (!readAllFrom(fd_, 0, &data)) {
        if (err)
            *err = "read " + path_ + ": " + std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        return false;
    }

    bool header_ok = false;
    uint64_t epoch = 0;
    if (data.size() >= kJournalHeaderSize) {
        ByteReader h(data.data(), kJournalHeaderSize);
        const uint32_t magic = h.u32();
        const uint16_t version = h.u16();
        h.u16();
        epoch = h.u64();
        header_ok = magic == kJournalMagic && version == kJournalVersion;
    }

    if (!header_ok) {
        // Fresh file, or a header too corrupt to trust: an empty log
        // with epoch 0, which by construction no snapshot pairs with.
        if (!data.empty() && data.size() >= kJournalHeaderSize)
            warn("durable: journal header corrupt; starting a fresh "
                 "epoch (nothing will be replayed from it)");
        epoch_ = 0;
        end_offset_ = kJournalHeaderSize;
        if (::ftruncate(fd_, 0) != 0 || !writeHeader(0)) {
            if (err)
                *err = "init " + path_ + ": " + std::strerror(errno);
            ::close(fd_);
            fd_ = -1;
            return false;
        }
        return true;
    }

    // Identify the valid record prefix and drop the crash-mid-append
    // tail so appends always extend a valid log.
    std::vector<JournalRecord> records;
    const uint64_t valid_end =
        kJournalHeaderSize + readRecords(data.data() + kJournalHeaderSize,
                                         data.size() - kJournalHeaderSize,
                                         &records);
    if (valid_end < data.size()) {
        warn("durable: journal %s: truncating %zu torn tail byte(s) "
             "after %zu valid record(s)",
             path_.c_str(), data.size() - static_cast<size_t>(valid_end),
             records.size());
        if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0) {
            if (err)
                *err = "truncate " + path_ + ": " + std::strerror(errno);
            ::close(fd_);
            fd_ = -1;
            return false;
        }
    }
    epoch_ = epoch;
    end_offset_ = valid_end;
    return true;
}

bool
Journal::append(const JournalRecord &rec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        return false;

    std::vector<uint8_t> buf;
    ByteWriter w(buf);
    w.u8(static_cast<uint8_t>(rec.type));
    w.fenced([&](ByteWriter &p) { writeRecordPayload(p, rec); });

    // Fault hooks (see common/faultinject.h): FlipBit corrupts the
    // record in flight, TornWrite persists a prefix. Either way the
    // in-memory offset advances as if the append succeeded — exactly
    // what a process that crashed (or whose disk lied) believed — and
    // the next open() truncates the residue.
    faultinject::durableCorrupt("durable.journal", buf.data(), buf.size());
    const size_t persist =
        faultinject::durableWriteLimit("durable.journal", buf.size());
    if (!writeAllAt(fd_, buf.data(), persist, end_offset_))
        return false;
    end_offset_ += buf.size();

    if (sync_every_ > 0 && ++unsynced_ >= sync_every_) {
        ::fdatasync(fd_);
        unsynced_ = 0;
    }
    return true;
}

void
Journal::sync()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        ::fdatasync(fd_);
        unsynced_ = 0;
    }
}

bool
Journal::replay(uint64_t offset, std::vector<JournalRecord> *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    out->clear();
    if (fd_ < 0)
        return false;
    if (offset < kJournalHeaderSize || offset >= end_offset_)
        return true; // nothing (or nothing valid) to replay
    std::vector<uint8_t> data;
    if (!readAllFrom(fd_, offset, &data))
        return false;
    if (data.size() > end_offset_ - offset)
        data.resize(end_offset_ - offset);
    readRecords(data.data(), data.size(), out);
    return true;
}

bool
Journal::reset(uint64_t new_epoch)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        return false;
    if (::ftruncate(fd_, 0) != 0)
        return false;
    if (!writeHeader(new_epoch))
        return false;
    epoch_ = new_epoch;
    end_offset_ = kJournalHeaderSize;
    unsynced_ = 0;
    return true;
}

} // namespace neo::serve::durable
