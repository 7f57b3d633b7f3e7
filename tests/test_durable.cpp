/**
 * @file
 * Durable serving mode tests: snapshot container codec round-trips, the
 * torn-file taxonomy (truncation at every offset, a flipped byte in
 * every region, a seeded corruption fuzz loop — every corruption is
 * detected with a typed reason, never silently loaded), journal
 * torn-tail truncation and epoch pairing, the journal's own taxonomy
 * (a cut at every offset and a flip of every record bit keep exactly the
 * whole records before the damage), byte pins of both formats,
 * faultinject-driven crash states of the production writers (torn
 * write, bit rot, kill between temp write and rename), and the recovery
 * attestation: an interrupted server rebuilt from snapshot + journal
 * replay continues its sessions bit-identical to an uninterrupted solo
 * render at threads {1, 2, 8}.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/faultinject.h"
#include "common/integrity.h"
#include "common/rng.h"
#include "scene/trajectory.h"
#include "serve/durable/durable.h"
#include "serve/durable/journal.h"
#include "serve/durable/snapshot.h"
#include "serve/net/client.h"
#include "serve/net/frontend.h"
#include "serve/server.h"
#include "test_util.h"

namespace neo::serve::durable::test
{
namespace
{

using neo::test::smallRes;
using neo::test::tinySyntheticScene;

std::shared_ptr<const GaussianScene>
sharedScene()
{
    static const auto scene = std::make_shared<const GaussianScene>(
        tinySyntheticScene(1500, 77));
    return scene;
}

/** Hermetic config matching test_server.cpp: integrity off, no
    deadline. */
ServerConfig
baseConfig(int threads = 1)
{
    ServerConfig cfg;
    cfg.pipeline = NeoRenderer::neoDefaultOptions();
    cfg.pipeline.threads = threads;
    cfg.pipeline.integrity = IntegrityMode::Off;
    return cfg;
}

Trajectory
orbitAt(float speed = 1.0f)
{
    return Trajectory(TrajectoryKind::Orbit, *sharedScene(), speed);
}

std::vector<uint64_t>
soloHashes(int frames, const PipelineOptions &opts)
{
    PipelineOptions solo_opts = opts;
    solo_opts.threads = 1;
    NeoRenderer solo(solo_opts);
    const Trajectory traj = orbitAt();
    Image img;
    std::vector<uint64_t> hashes;
    for (int f = 0; f < frames; ++f) {
        solo.renderFrameInto(img, *sharedScene(),
                             traj.cameraAt(f, smallRes()),
                             static_cast<uint64_t>(f));
        hashes.push_back(img.contentHash());
    }
    return hashes;
}

/** Fresh scratch state directory under the test's working directory. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char tmpl[] = "durable-test-XXXXXX";
        const char *dir = mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        path_ = dir ? dir : "durable-test-fallback";
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

/** A representative snapshot with two sessions exercising every field
    class: queue entries, degradation state, sorter tables, prev ids. */
ServerSnapshot
sampleSnapshot()
{
    ServerSnapshot snap;
    snap.meta.seq = 17;
    snap.meta.journal_epoch = 4;
    snap.meta.journal_offset = 1234;
    snap.meta.frames_journaled = 99;

    SessionDurable a;
    a.id = 0;
    a.open.trajectory_kind = 0;
    a.open.center = {0.5f, -1.0f, 2.0f};
    a.open.radius = 6.5f;
    a.open.speed = 1.5f;
    a.open.width = 256;
    a.open.height = 192;
    a.open.qos.deadline_ms = 12.0;
    a.submit_seq = 41;
    a.stats.submitted = 41;
    a.stats.rendered = 39;
    a.state = 0;
    a.rebuilds = 2;
    a.sorter_stale = 1;
    a.last_drop = 1;
    a.queue.push_back({7, 40});
    a.queue.push_back({8, 41});
    a.budget.ema_ms = 9.5;
    a.budget.warm = true;
    a.budget.severity = 1;
    a.budget.degradations = 3;
    a.has_last_outcome = 1;
    a.last_outcome.request = 6;
    a.last_outcome.rendered = true;
    a.last_outcome.frame_hash = 0x8c384c882f0d0b1cull;
    a.last_outcome.resolution_drop = 1;
    a.last_outcome.deadline_missed = true;
    a.last_outcome.faults = 2;
    a.last_outcome.state = SessionState::Quarantined;
    a.last_outcome.rebuilds = 2;
    a.has_renderer = 1;
    a.tables = {{{3, 1.5f, true}, {9, 2.5f, false}}, {}, {{1, 0.25f, true}}};
    snap.sessions.push_back(std::move(a));

    SessionDurable b;
    b.id = 3;
    b.open.trajectory_kind = 2;
    b.open.center = {0.0f, 0.0f, 0.0f};
    b.open.radius = 3.0f;
    b.open.width = 128;
    b.open.height = 96;
    b.submit_seq = 5;
    b.state = 1;
    b.quarantine_failures = 2;
    b.backoff_remaining = 4;
    b.has_renderer = 0;
    snap.sessions.push_back(std::move(b));
    return snap;
}

// --- Container codec ---------------------------------------------------

TEST(SnapshotCodecTest, RoundTripsEveryField)
{
    const ServerSnapshot in = sampleSnapshot();
    const std::vector<uint8_t> bytes = encodeSnapshot(in);

    ServerSnapshot out;
    ASSERT_EQ(decodeSnapshot(bytes.data(), bytes.size(), &out),
              SnapshotError::Ok);
    EXPECT_EQ(out.meta.seq, in.meta.seq);
    EXPECT_EQ(out.meta.journal_epoch, in.meta.journal_epoch);
    EXPECT_EQ(out.meta.journal_offset, in.meta.journal_offset);
    EXPECT_EQ(out.meta.frames_journaled, in.meta.frames_journaled);
    ASSERT_EQ(out.sessions.size(), 2u);

    const SessionDurable &a = out.sessions[0];
    EXPECT_EQ(a.id, 0u);
    EXPECT_FLOAT_EQ(a.open.center.y, -1.0f);
    EXPECT_FLOAT_EQ(a.open.radius, 6.5f);
    EXPECT_FLOAT_EQ(a.open.speed, 1.5f);
    EXPECT_DOUBLE_EQ(a.open.qos.deadline_ms, 12.0);
    EXPECT_EQ(a.submit_seq, 41u);
    EXPECT_EQ(a.stats.rendered, 39u);
    EXPECT_EQ(a.sorter_stale, 1u);
    EXPECT_EQ(a.last_drop, 1);
    ASSERT_EQ(a.queue.size(), 2u);
    EXPECT_EQ(a.queue[1].frame_index, 8u);
    EXPECT_EQ(a.queue[1].submit_seq, 41u);
    EXPECT_DOUBLE_EQ(a.budget.ema_ms, 9.5);
    EXPECT_TRUE(a.budget.warm);
    EXPECT_EQ(a.budget.severity, 1);
    EXPECT_EQ(a.has_last_outcome, 1u);
    EXPECT_EQ(a.last_outcome.request, 6u);
    EXPECT_TRUE(a.last_outcome.rendered);
    EXPECT_EQ(a.last_outcome.frame_hash, 0x8c384c882f0d0b1cull);
    EXPECT_EQ(a.last_outcome.resolution_drop, 1);
    EXPECT_FALSE(a.last_outcome.direct_path);
    EXPECT_TRUE(a.last_outcome.deadline_missed);
    EXPECT_EQ(a.last_outcome.faults, 2u);
    EXPECT_EQ(a.last_outcome.state, SessionState::Quarantined);
    EXPECT_EQ(a.last_outcome.rebuilds, 2u);
    ASSERT_EQ(a.tables.size(), 3u);
    ASSERT_EQ(a.tables[0].size(), 2u);
    EXPECT_EQ(a.tables[0][1].id, 9u);
    EXPECT_FLOAT_EQ(a.tables[0][1].depth, 2.5f);
    EXPECT_FALSE(a.tables[0][1].valid);

    const SessionDurable &b = out.sessions[1];
    EXPECT_EQ(b.id, 3u);
    EXPECT_EQ(b.state, 1u);
    EXPECT_EQ(b.quarantine_failures, 2);
    EXPECT_EQ(b.backoff_remaining, 4);
    EXPECT_EQ(b.has_renderer, 0u);
    EXPECT_TRUE(b.tables.empty());
    EXPECT_EQ(b.has_last_outcome, 0u);
}

TEST(SnapshotCodecTest, EmptySnapshotRoundTrips)
{
    ServerSnapshot in;
    in.meta.seq = 1;
    const std::vector<uint8_t> bytes = encodeSnapshot(in);
    ServerSnapshot out;
    ASSERT_EQ(decodeSnapshot(bytes.data(), bytes.size(), &out),
              SnapshotError::Ok);
    EXPECT_TRUE(out.sessions.empty());
}

TEST(SnapshotFormatPinTest, SampleImageIsUnchanged)
{
    // A round trip cannot see a layout change made alike in the encoder
    // and the decoder; the image's size, CRC-32 and trailer can.
    const std::vector<uint8_t> bytes = encodeSnapshot(sampleSnapshot());
    ASSERT_EQ(bytes.size(), 713u);
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0xc57ebf9bu);
    EXPECT_EQ(neo::test::hexBytes(bytes.data() + bytes.size() -
                                      kSnapshotTrailerSize,
                                  kSnapshotTrailerSize),
              "0f8c533b4fe828d5");
}

// --- Torn-file taxonomy ------------------------------------------------

TEST(SnapshotTaxonomyTest, TruncationAtEveryOffsetIsDetected)
{
    const std::vector<uint8_t> bytes = encodeSnapshot(sampleSnapshot());
    ASSERT_GT(bytes.size(), kSnapshotHeaderSize + kSnapshotTrailerSize);
    for (size_t len = 0; len < bytes.size(); ++len) {
        ServerSnapshot out;
        const SnapshotError e = decodeSnapshot(bytes.data(), len, &out);
        ASSERT_NE(e, SnapshotError::Ok)
            << "truncation to " << len << " bytes was silently loaded";
    }
}

TEST(SnapshotTaxonomyTest, FlippedBytesReportTypedReasons)
{
    const std::vector<uint8_t> bytes = encodeSnapshot(sampleSnapshot());
    ServerSnapshot out;

    // Header magic / version land before any content validation.
    std::vector<uint8_t> m = bytes;
    m[0] ^= 0xFF;
    EXPECT_EQ(decodeSnapshot(m.data(), m.size(), &out),
              SnapshotError::BadMagic);
    m = bytes;
    m[4] ^= 0xFF;
    EXPECT_EQ(decodeSnapshot(m.data(), m.size(), &out),
              SnapshotError::BadVersion);

    // A corrupt byte inside a section payload is localized by that
    // section's CRC, not blamed on the whole file.
    m = bytes;
    m[kSnapshotHeaderSize + kSectionHeaderSize] ^= 0x01;
    EXPECT_EQ(decodeSnapshot(m.data(), m.size(), &out),
              SnapshotError::SectionCrc);

    // The trailer itself is only covered by the digest comparison.
    m = bytes;
    m[m.size() - 1] ^= 0x01;
    EXPECT_EQ(decodeSnapshot(m.data(), m.size(), &out),
              SnapshotError::DigestMismatch);
}

TEST(SnapshotTaxonomyTest, EveryFlippedByteIsDetected)
{
    const std::vector<uint8_t> bytes = encodeSnapshot(sampleSnapshot());
    for (size_t i = 0; i < bytes.size(); ++i) {
        std::vector<uint8_t> m = bytes;
        m[i] ^= 0x10;
        ServerSnapshot out;
        ASSERT_NE(decodeSnapshot(m.data(), m.size(), &out),
                  SnapshotError::Ok)
            << "flipped byte " << i << " was silently loaded";
    }
}

TEST(SnapshotTaxonomyTest, FuzzedCorruptionNeverLoads)
{
    const std::vector<uint8_t> bytes = encodeSnapshot(sampleSnapshot());
    Rng rng(2026);
    for (int iter = 0; iter < 300; ++iter) {
        std::vector<uint8_t> m = bytes;
        const int mutations = 1 + static_cast<int>(rng.below(4));
        for (int k = 0; k < mutations; ++k) {
            const size_t at = rng.below(m.size());
            switch (rng.below(3)) {
            case 0:
                m[at] ^= static_cast<uint8_t>(1 + rng.below(255));
                break;
            case 1:
                m.resize(at); // truncate
                break;
            default:
                m.insert(m.begin() + static_cast<ptrdiff_t>(at),
                         static_cast<uint8_t>(rng.next()));
                break;
            }
            if (m.empty())
                break;
        }
        if (m == bytes)
            continue;
        ServerSnapshot out;
        ASSERT_NE(decodeSnapshot(m.data(), m.size(), &out),
                  SnapshotError::Ok)
            << "fuzz iteration " << iter << " was silently loaded";
    }
}

// --- Journal -----------------------------------------------------------

JournalRecord
submitRecord(uint32_t id, uint64_t frame)
{
    JournalRecord rec;
    rec.type = JournalRecordType::Submit;
    rec.session_id = id;
    rec.frame_index = frame;
    return rec;
}

TEST(JournalTest, RoundTripsRecordsAcrossReopen)
{
    ScratchDir dir;
    uint64_t end = 0;
    {
        Journal j;
        ASSERT_TRUE(j.open(dir.path()));
        EXPECT_EQ(j.epoch(), 0u) << "fresh journal is never-compacted";

        JournalRecord open;
        open.type = JournalRecordType::Open;
        open.session_id = 2;
        open.open.trajectory_kind = 1;
        open.open.center = {1.0f, 2.0f, 3.0f};
        open.open.radius = 4.0f;
        open.open.width = 64;
        open.open.height = 48;
        ASSERT_TRUE(j.append(open));
        ASSERT_TRUE(j.append(submitRecord(2, 7)));
        JournalRecord close;
        close.type = JournalRecordType::Close;
        close.session_id = 2;
        ASSERT_TRUE(j.append(close));
        end = j.endOffset();
    }

    Journal j;
    ASSERT_TRUE(j.open(dir.path()));
    EXPECT_EQ(j.endOffset(), end);
    std::vector<JournalRecord> records;
    ASSERT_TRUE(j.replay(kJournalHeaderSize, &records));
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].type, JournalRecordType::Open);
    EXPECT_EQ(records[0].open.width, 64);
    EXPECT_FLOAT_EQ(records[0].open.center.z, 3.0f);
    EXPECT_EQ(records[1].type, JournalRecordType::Submit);
    EXPECT_EQ(records[1].frame_index, 7u);
    EXPECT_EQ(records[2].type, JournalRecordType::Close);
}

TEST(JournalTest, TornTailIsTruncatedOnOpen)
{
    ScratchDir dir;
    uint64_t valid_end = 0;
    {
        Journal j;
        ASSERT_TRUE(j.open(dir.path()));
        ASSERT_TRUE(j.append(submitRecord(0, 1)));
        ASSERT_TRUE(j.append(submitRecord(0, 2)));
        valid_end = j.endOffset();
    }
    // Crash residue: half a record header dangling past the valid log.
    {
        FILE *f = fopen((dir.path() + "/journal.neoj").c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const uint8_t garbage[5] = {2, 0xFF, 0xFF, 0xFF, 0xFF};
        fwrite(garbage, 1, sizeof(garbage), f);
        fclose(f);
    }

    Journal j;
    ASSERT_TRUE(j.open(dir.path()));
    EXPECT_EQ(j.endOffset(), valid_end) << "torn tail truncated";
    std::vector<JournalRecord> records;
    ASSERT_TRUE(j.replay(kJournalHeaderSize, &records));
    EXPECT_EQ(records.size(), 2u);
    // And the log extends cleanly after the truncation.
    ASSERT_TRUE(j.append(submitRecord(0, 3)));
    records.clear();
    ASSERT_TRUE(j.replay(kJournalHeaderSize, &records));
    EXPECT_EQ(records.size(), 3u);
}

TEST(JournalTest, CorruptHeaderRecreatesEpochZero)
{
    ScratchDir dir;
    {
        Journal j;
        ASSERT_TRUE(j.open(dir.path()));
        ASSERT_TRUE(j.reset(9));
        ASSERT_TRUE(j.append(submitRecord(1, 1)));
    }
    {
        FILE *f = fopen((dir.path() + "/journal.neoj").c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        fputc('X', f); // clobber the magic
        fclose(f);
    }
    Journal j;
    ASSERT_TRUE(j.open(dir.path()));
    EXPECT_EQ(j.epoch(), 0u);
    EXPECT_EQ(j.endOffset(), kJournalHeaderSize)
        << "unreadable journal restarts empty, never misreplays";
}

TEST(JournalTest, ResetMovesEpochAndEmptiesLog)
{
    ScratchDir dir;
    Journal j;
    ASSERT_TRUE(j.open(dir.path()));
    ASSERT_TRUE(j.append(submitRecord(0, 1)));
    ASSERT_TRUE(j.reset(5));
    EXPECT_EQ(j.epoch(), 5u);
    EXPECT_EQ(j.endOffset(), kJournalHeaderSize);
    std::vector<JournalRecord> records;
    ASSERT_TRUE(j.replay(kJournalHeaderSize, &records));
    EXPECT_TRUE(records.empty());
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::vector<uint8_t> data;
    FILE *f = fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return data;
    uint8_t buf[4096];
    size_t n = 0;
    while ((n = fread(buf, 1, sizeof(buf), f)) > 0)
        data.insert(data.end(), buf, buf + n);
    fclose(f);
    return data;
}

void
writeFile(const std::string &path, const uint8_t *data, size_t len)
{
    FILE *f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    EXPECT_EQ(fwrite(data, 1, len, f), len);
    fclose(f);
}

TEST(JournalFormatPinTest, SubmitRecordBytesAreUnchanged)
{
    ScratchDir dir;
    {
        Journal j;
        ASSERT_TRUE(j.open(dir.path()));
        ASSERT_TRUE(j.append(submitRecord(2, 7)));
    }
    // Type, then the {length, crc32, payload} fence.
    const std::vector<uint8_t> file = readFile(dir.path() + "/journal.neoj");
    ASSERT_EQ(file.size(), kJournalHeaderSize + kRecordHeaderSize + 12);
    EXPECT_EQ(neo::test::hexBytes(file.data() + kJournalHeaderSize,
                                  file.size() - kJournalHeaderSize),
              "020c000000e9512b9d020000000700000000000000");
}

// --- Journal corruption taxonomy ---------------------------------------

/** JournalRecord has no operator==: every field the codec carries. */
bool
sameRecord(const JournalRecord &a, const JournalRecord &b)
{
    const SessionOpenParams &p = a.open;
    const SessionOpenParams &q = b.open;
    return a.type == b.type && a.session_id == b.session_id &&
           a.frame_index == b.frame_index &&
           p.trajectory_kind == q.trajectory_kind &&
           p.center.x == q.center.x && p.center.y == q.center.y &&
           p.center.z == q.center.z && p.radius == q.radius &&
           p.speed == q.speed && p.width == q.width &&
           p.height == q.height &&
           p.qos.target_fps == q.qos.target_fps &&
           p.qos.deadline_ms == q.qos.deadline_ms &&
           p.qos.max_resolution_drop == q.qos.max_resolution_drop &&
           p.qos.max_staleness == q.qos.max_staleness &&
           p.qos.queue_capacity == q.qos.queue_capacity &&
           p.qos.drop_policy == q.qos.drop_policy &&
           p.qos.restore_after == q.qos.restore_after;
}

/** An Open, Submit, Close journal as written: the file bytes, the
    records, and the file offset each record ends at. */
struct SampleJournal
{
    std::vector<uint8_t> file;
    std::vector<JournalRecord> records;
    std::vector<uint64_t> ends;
};

SampleJournal
writeSampleJournal(const std::string &dir)
{
    JournalRecord open;
    open.type = JournalRecordType::Open;
    open.session_id = 2;
    open.open.trajectory_kind = 1;
    open.open.center = {1.0f, 2.0f, 3.0f};
    open.open.radius = 4.0f;
    open.open.speed = 1.25f;
    open.open.width = 64;
    open.open.height = 48;
    open.open.qos.deadline_ms = 12.0;
    open.open.qos.drop_policy = DropPolicy::CoalesceLatest;
    JournalRecord close;
    close.type = JournalRecordType::Close;
    close.session_id = 2;

    SampleJournal s;
    s.records = {open, submitRecord(2, 7), close};
    Journal j;
    EXPECT_TRUE(j.open(dir));
    for (const JournalRecord &rec : s.records) {
        EXPECT_TRUE(j.append(rec));
        s.ends.push_back(j.endOffset());
    }
    s.file = readFile(j.path());
    EXPECT_EQ(s.file.size(), s.ends.back());
    return s;
}

/** Reopen the journal in @p dir and check that it holds exactly the
    first @p kept sample records, ending on that record boundary. */
void
expectPrefixKept(const std::string &dir, const SampleJournal &s,
                 size_t kept, const std::string &what)
{
    Journal j;
    ASSERT_TRUE(j.open(dir)) << what;
    EXPECT_EQ(j.endOffset(), kept ? s.ends[kept - 1] : kJournalHeaderSize)
        << what;
    std::vector<JournalRecord> got;
    ASSERT_TRUE(j.replay(kJournalHeaderSize, &got)) << what;
    ASSERT_EQ(got.size(), kept) << what;
    for (size_t i = 0; i < kept; ++i)
        EXPECT_TRUE(sameRecord(got[i], s.records[i]))
            << what << ": record " << i << " altered";
}

TEST(JournalTaxonomyTest, TruncationAtEveryOffsetKeepsTheWholeRecords)
{
    ScratchDir dir;
    const SampleJournal s = writeSampleJournal(dir.path());
    const std::string path = dir.path() + "/journal.neoj";
    for (size_t cut = kJournalHeaderSize; cut <= s.file.size(); ++cut) {
        writeFile(path, s.file.data(), cut);
        size_t kept = 0;
        while (kept < s.ends.size() && s.ends[kept] <= cut)
            ++kept;
        expectPrefixKept(dir.path(), s, kept,
                         "cut at " + std::to_string(cut));
    }
}

TEST(JournalTaxonomyTest, EveryFlippedBitEndsTheLogAtTheDamagedRecord)
{
    ScratchDir dir;
    const SampleJournal s = writeSampleJournal(dir.path());
    const std::string path = dir.path() + "/journal.neoj";
    for (size_t at = kJournalHeaderSize; at < s.file.size(); ++at) {
        size_t damaged = 0;
        while (s.ends[damaged] <= at)
            ++damaged;
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> m = s.file;
            m[at] ^= static_cast<uint8_t>(1u << bit);
            writeFile(path, m.data(), m.size());
            expectPrefixKept(dir.path(), s, damaged,
                             "byte " + std::to_string(at) + " bit " +
                                 std::to_string(bit));
        }
    }
}

// --- Faultinject-driven crash states of the production writers ---------

TEST(SnapshotFaultTest, TornWriteIsRefusedByTheLoader)
{
    ScratchDir dir;
    ServerSnapshot snap = sampleSnapshot();
    snap.meta.seq = 1;
    const size_t full = encodeSnapshot(snap).size();

    for (const size_t at : {size_t{0}, size_t{1}, full / 2, full - 1}) {
        faultinject::armDurableFault("durable.snapshot",
                                     faultinject::DurableFault::TornWrite,
                                     1, static_cast<int64_t>(at));
        // The writer itself cannot see the tear (the disk lied), so the
        // call succeeds; detection is the loader's job.
        ASSERT_TRUE(writeSnapshotFile(dir.path(), snap));
        EXPECT_FALSE(faultinject::durablePending());
        ServerSnapshot out;
        EXPECT_NE(loadSnapshotFile(dir.path() + "/" +
                                       snapshotFileName(snap.meta.seq),
                                   &out),
                  SnapshotError::Ok)
            << "torn write truncated at " << at << " loaded silently";
        ++snap.meta.seq;
    }
    faultinject::disarmDurableFault();
}

TEST(SnapshotFaultTest, FlippedBitIsRefusedByTheLoader)
{
    ScratchDir dir;
    ServerSnapshot snap = sampleSnapshot();
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        snap.meta.seq = seed;
        faultinject::armDurableFault("durable.snapshot",
                                     faultinject::DurableFault::FlipBit,
                                     seed);
        ASSERT_TRUE(writeSnapshotFile(dir.path(), snap));
        ServerSnapshot out;
        EXPECT_NE(loadSnapshotFile(dir.path() + "/" +
                                       snapshotFileName(seed),
                                   &out),
                  SnapshotError::Ok)
            << "bit flipped with seed " << seed << " loaded silently";
    }
    faultinject::disarmDurableFault();
}

TEST(SnapshotFaultTest, AbortedRenameLeavesPriorGenerationIntact)
{
    ScratchDir dir;
    ServerSnapshot snap = sampleSnapshot();
    snap.meta.seq = 1;
    ASSERT_TRUE(writeSnapshotFile(dir.path(), snap));

    snap.meta.seq = 2;
    faultinject::armDurableFault("durable.snapshot",
                                 faultinject::DurableFault::AbortRename);
    EXPECT_FALSE(writeSnapshotFile(dir.path(), snap))
        << "a kill between temp write and rename is a failed checkpoint";
    faultinject::disarmDurableFault();

    const std::vector<SnapshotFile> files = listSnapshots(dir.path());
    ASSERT_EQ(files.size(), 1u) << "generation 2 must not be visible";
    EXPECT_EQ(files[0].seq, 1u);
    ServerSnapshot out;
    EXPECT_EQ(loadSnapshotFile(files[0].path, &out), SnapshotError::Ok);

    // pruneSnapshots sweeps the orphaned temp file residue.
    pruneSnapshots(dir.path(), 3);
    if (DIR *d = opendir(dir.path().c_str())) {
        while (dirent *e = readdir(d)) {
            const std::string name = e->d_name;
            EXPECT_EQ(name.find(".tmp"), std::string::npos)
                << "stale temp file survived pruning: " << name;
        }
        closedir(d);
    }
}

TEST(SnapshotFileTest, PruneKeepsNewestGenerations)
{
    ScratchDir dir;
    ServerSnapshot snap;
    for (uint64_t seq = 1; seq <= 5; ++seq) {
        snap.meta.seq = seq;
        ASSERT_TRUE(writeSnapshotFile(dir.path(), snap));
    }
    pruneSnapshots(dir.path(), 2);
    const std::vector<SnapshotFile> files = listSnapshots(dir.path());
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0].seq, 5u);
    EXPECT_EQ(files[1].seq, 4u);
}

// --- End-to-end recovery -----------------------------------------------

DurableConfig
testDurableConfig(const std::string &dir, uint64_t checkpoint_every = 3)
{
    DurableConfig cfg;
    cfg.state_dir = dir;
    cfg.keep_generations = 3;
    cfg.checkpoint_every = checkpoint_every;
    cfg.sync_every = 1;
    return cfg;
}

/** Drive @p count frames the way the wire path does — submit, then one
    step — recording served hashes and letting the cadence checkpoint. */
void
driveFrames(NeoServer &server, uint32_t session_id, uint64_t start,
            uint64_t count, std::vector<uint64_t> *hashes)
{
    Session *s = server.session(session_id);
    ASSERT_NE(s, nullptr);
    for (uint64_t f = start; f < start + count; ++f) {
        ASSERT_TRUE(s->submit(f).accepted);
        FrameOutcome outcome;
        ASSERT_TRUE(s->step(&outcome));
        ASSERT_TRUE(outcome.rendered);
        hashes->push_back(outcome.frame_hash);
        server.maybeCheckpoint();
    }
}

TEST(DurableRecoveryTest, CrashedServerReplaysBitIdentically)
{
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ScratchDir dir;
        const std::vector<uint64_t> solo =
            soloHashes(10, baseConfig(threads).pipeline);
        std::vector<uint64_t> served;

        uint32_t id = 0;
        {
            NeoServer a(sharedScene(), baseConfig(threads));
            ASSERT_TRUE(
                a.enableDurability(testDurableConfig(dir.path())));
            EXPECT_FALSE(a.recovery().recovered);
            const AdmitResult admit = a.open(orbitAt(), smallRes());
            ASSERT_TRUE(admit.admitted);
            id = admit.session_id;
            driveFrames(a, id, 0, 6, &served);
            // Crash: the process dies here — no drain, no final
            // snapshot, only what the cadence and the journal persisted.
        }

        NeoServer b(sharedScene(), baseConfig(threads));
        ASSERT_TRUE(b.enableDurability(testDurableConfig(dir.path())));
        const RecoveryStatus &rec = b.recovery();
        EXPECT_TRUE(rec.recovered);
        EXPECT_EQ(rec.generations_skipped, 0u);
        ASSERT_EQ(b.liveSessions(), 1u);
        driveFrames(b, id, 6, 4, &served);

        ASSERT_EQ(served.size(), solo.size());
        for (size_t f = 0; f < solo.size(); ++f)
            EXPECT_EQ(served[f], solo[f])
                << "frame " << f << " diverged after recovery";
    }
}

TEST(DurableRecoveryTest, RecoveryFallsBackPastACorruptGeneration)
{
    ScratchDir dir;
    const std::vector<uint64_t> solo = soloHashes(9, baseConfig().pipeline);
    std::vector<uint64_t> served;
    uint32_t id = 0;
    {
        NeoServer a(sharedScene(), baseConfig());
        // Cadence 2: several generations accumulate across 6 frames.
        ASSERT_TRUE(
            a.enableDurability(testDurableConfig(dir.path(), 2)));
        const AdmitResult admit = a.open(orbitAt(), smallRes());
        ASSERT_TRUE(admit.admitted);
        id = admit.session_id;
        driveFrames(a, id, 0, 6, &served);
    }

    // Rot the newest generation at rest; recovery must detect it, fall
    // back one generation, and replay the longer journal suffix.
    std::vector<SnapshotFile> files = listSnapshots(dir.path());
    ASSERT_GE(files.size(), 2u);
    {
        FILE *f = fopen(files[0].path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        fseek(f, 40, SEEK_SET);
        const int c = fgetc(f);
        fseek(f, 40, SEEK_SET);
        fputc(c ^ 0x40, f);
        fclose(f);
    }

    NeoServer b(sharedScene(), baseConfig());
    ASSERT_TRUE(b.enableDurability(testDurableConfig(dir.path(), 2)));
    const RecoveryStatus &rec = b.recovery();
    EXPECT_TRUE(rec.recovered);
    EXPECT_EQ(rec.generations_skipped, 1u)
        << "the corrupt generation must be detected and skipped";
    EXPECT_LT(rec.snapshot_seq, files[0].seq);
    driveFrames(b, id, 6, 3, &served);

    ASSERT_EQ(served.size(), solo.size());
    for (size_t f = 0; f < solo.size(); ++f)
        EXPECT_EQ(served[f], solo[f])
            << "frame " << f << " diverged after fallback recovery";
}

TEST(DurableRecoveryTest, KillMidCheckpointKeepsPriorGenerationGood)
{
    ScratchDir dir;
    const std::vector<uint64_t> solo = soloHashes(8, baseConfig().pipeline);
    std::vector<uint64_t> served;
    uint32_t id = 0;
    {
        NeoServer a(sharedScene(), baseConfig());
        // Cadence 0: only explicit checkpoints, so the aborted one is
        // the newest write attempt.
        ASSERT_TRUE(
            a.enableDurability(testDurableConfig(dir.path(), 0)));
        const AdmitResult admit = a.open(orbitAt(), smallRes());
        ASSERT_TRUE(admit.admitted);
        id = admit.session_id;
        driveFrames(a, id, 0, 3, &served);
        ASSERT_TRUE(a.checkpointNow());
        driveFrames(a, id, 3, 2, &served);
        // Die between temp write and rename of the next checkpoint.
        faultinject::armDurableFault(
            "durable.snapshot", faultinject::DurableFault::AbortRename);
        EXPECT_FALSE(a.checkpointNow());
        faultinject::disarmDurableFault();
    }

    NeoServer b(sharedScene(), baseConfig());
    ASSERT_TRUE(b.enableDurability(testDurableConfig(dir.path(), 0)));
    EXPECT_TRUE(b.recovery().recovered);
    driveFrames(b, id, 5, 3, &served);

    ASSERT_EQ(served.size(), solo.size());
    for (size_t f = 0; f < solo.size(); ++f)
        EXPECT_EQ(served[f], solo[f])
            << "frame " << f << " diverged after aborted checkpoint";
}

TEST(DurableRecoveryTest, GracefulDrainRecoversWithEmptyJournalReplay)
{
    ScratchDir dir;
    const std::vector<uint64_t> solo = soloHashes(7, baseConfig().pipeline);
    std::vector<uint64_t> served;
    uint32_t id = 0;
    {
        NeoServer a(sharedScene(), baseConfig());
        ASSERT_TRUE(a.enableDurability(testDurableConfig(dir.path())));
        const AdmitResult admit = a.open(orbitAt(), smallRes());
        ASSERT_TRUE(admit.admitted);
        id = admit.session_id;
        driveFrames(a, id, 0, 4, &served);
        // Graceful drain: everything folds into one compacting
        // snapshot, leaving nothing to replay.
        ASSERT_TRUE(a.checkpointCompact());
    }

    NeoServer b(sharedScene(), baseConfig());
    ASSERT_TRUE(b.enableDurability(testDurableConfig(dir.path())));
    const RecoveryStatus &rec = b.recovery();
    EXPECT_TRUE(rec.recovered);
    EXPECT_EQ(rec.sessions_restored, 1u);
    EXPECT_EQ(rec.journal_replayed, 0u)
        << "a drained server restores from snapshot alone";
    Session *s = b.session(id);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->stats().rendered, 4u)
        << "restored counters carry the pre-restart history";
    driveFrames(b, id, 4, 3, &served);

    ASSERT_EQ(served.size(), solo.size());
    for (size_t f = 0; f < solo.size(); ++f)
        EXPECT_EQ(served[f], solo[f])
            << "frame " << f << " diverged after drain recovery";
}

TEST(DurableRecoveryTest, ClosedSessionsStayClosedThroughReplay)
{
    ScratchDir dir;
    uint32_t id = 0;
    {
        NeoServer a(sharedScene(), baseConfig());
        ASSERT_TRUE(a.enableDurability(testDurableConfig(dir.path(), 0)));
        const AdmitResult admit = a.open(orbitAt(), smallRes());
        ASSERT_TRUE(admit.admitted);
        id = admit.session_id;
        std::vector<uint64_t> served;
        driveFrames(a, id, 0, 2, &served);
        ASSERT_TRUE(a.close(id));
    }
    NeoServer b(sharedScene(), baseConfig());
    ASSERT_TRUE(b.enableDurability(testDurableConfig(dir.path(), 0)));
    EXPECT_EQ(b.liveSessions(), 0u)
        << "the journaled close must replay too";
    EXPECT_EQ(b.session(id), nullptr);
}

TEST(DurableRecoveryTest, JournaledButUnrepliedFrameRendersOnce)
{
    // The crash lands after frame 4's submit was journaled and before
    // its reply left the process: before its render, after it, or after
    // a checkpoint cut between the render and the reply. Each time the
    // recovered server holds frame 4 rendered once, and the client,
    // which never saw that reply, resubmits it over the wire.
    enum class Kill
    {
        Journaled,
        Rendered,
        Checkpointed,
    };
    const std::vector<uint64_t> solo = soloHashes(8, baseConfig().pipeline);
    for (const Kill kill : {Kill::Journaled, Kill::Rendered,
                            Kill::Checkpointed}) {
        SCOPED_TRACE("kill point " + std::to_string(static_cast<int>(kill)));
        ScratchDir dir;
        std::vector<uint64_t> served;
        uint32_t id = 0;
        {
            NeoServer a(sharedScene(), baseConfig());
            ASSERT_TRUE(a.enableDurability(testDurableConfig(dir.path())));
            const AdmitResult admit = a.open(orbitAt(), smallRes());
            ASSERT_TRUE(admit.admitted);
            id = admit.session_id;
            driveFrames(a, id, 0, 4, &served);
            Session *s = a.session(id);
            ASSERT_TRUE(s->submit(4).accepted);
            if (kill != Kill::Journaled) {
                ASSERT_TRUE(s->step());
            }
            if (kill == Kill::Checkpointed) {
                ASSERT_TRUE(a.checkpointNow());
            }
        }

        NeoServer b(sharedScene(), baseConfig());
        ASSERT_TRUE(b.enableDurability(testDurableConfig(dir.path())));
        Session *s = b.session(id);
        ASSERT_NE(s, nullptr);
        ASSERT_EQ(s->stats().rendered, 5u);

        net::NetFrontend frontend(b, net::NetConfig{});
        ASSERT_TRUE(frontend.start());
        std::thread loop([&frontend] { frontend.run(); });
        net::NetClient client;
        net::OpenOkReply ok;
        const bool resumed =
            client.connect(frontend.port()) && client.resumeSession(id, &ok);
        for (uint64_t f = 4; resumed && f < solo.size(); ++f) {
            net::SubmitFrameReq req;
            req.session_id = id;
            req.frame_index = f;
            net::SubmitReply reply;
            if (!client.submitFrame(req, &reply))
                break;
            EXPECT_TRUE(reply.rendered);
            EXPECT_EQ(reply.request, f);
            served.push_back(reply.frame_hash);
        }
        frontend.requestStop();
        loop.join();
        ASSERT_TRUE(resumed);

        EXPECT_EQ(s->stats().rendered, 8u)
            << "the resubmitted frame 4 must not render again";
        ASSERT_EQ(served.size(), solo.size());
        for (size_t f = 0; f < solo.size(); ++f)
            EXPECT_EQ(served[f], solo[f]) << "frame " << f;
    }
}

// --- Env knobs ---------------------------------------------------------

TEST(DurableConfigEnvTest, ValidatedKnobsApplyAndMalformedFallBack)
{
    env::resetWarnings();
    setenv("NEO_SERVER_DURABLE_DIR", "env-dir", 1);
    setenv("NEO_SERVER_DURABLE_KEEP", "5", 1);
    setenv("NEO_SERVER_DURABLE_CHECKPOINT", "nonsense", 1);
    setenv("NEO_SERVER_DURABLE_SYNC", "-3", 1); // below range
    const DurableConfig cfg = durableConfigFromEnv();
    const DurableConfig explicit_dir = durableConfigFromEnv("flag-dir");
    unsetenv("NEO_SERVER_DURABLE_DIR");
    unsetenv("NEO_SERVER_DURABLE_KEEP");
    unsetenv("NEO_SERVER_DURABLE_CHECKPOINT");
    unsetenv("NEO_SERVER_DURABLE_SYNC");

    EXPECT_EQ(cfg.state_dir, "env-dir");
    EXPECT_EQ(explicit_dir.state_dir, "flag-dir")
        << "--state-dir takes precedence over the environment";
    EXPECT_EQ(cfg.keep_generations, 5);
    EXPECT_EQ(cfg.checkpoint_every, DurableConfig{}.checkpoint_every)
        << "malformed value keeps the default";
    EXPECT_EQ(cfg.sync_every, DurableConfig{}.sync_every)
        << "out-of-range value keeps the default";
}

} // namespace
} // namespace neo::serve::durable::test
