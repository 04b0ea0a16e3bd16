/**
 * @file
 * The campaign journal: the durable record of every completed cell of
 * a supervised campaign, one append-only JSONL file. The first line
 * is a header naming the format and the writing build:
 *
 *   {"format":"edgesim-journal","version":1,"build":"..."}
 *
 * and every further line is one compact record — cell hash, `final`
 * flag, the complete RunResult, repro path — closed by an FNV-1a
 * `crc` over the rest of the record. `append()` is one write() of one
 * line on an O_APPEND descriptor; `flush()` is one fdatasync(). A
 * record lost before its sync only means its cell re-runs on
 * `--resume`.
 *
 * The `final` flag carries the resume semantics. Clean passes and
 * deterministic simulation failures are final: re-running them would
 * reproduce the same bits, so `--resume` replays them from the
 * journal. Worker-death records (SIGSEGV, OOM kill, timeout) are
 * NOT final: the result describes how the child died, not what the
 * cell computes, so `--resume` selectively re-executes exactly those
 * cells — the DSRE discipline applied to campaign recovery.
 */

#ifndef EDGE_SUPER_JOURNAL_HH
#define EDGE_SUPER_JOURNAL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace edge::super {

/** One completed cell, as journaled. */
struct JournalRecord
{
    std::uint64_t cell = 0; ///< cellHash identity
    /** Replayable from the journal on resume? (False for worker
     *  deaths: those re-execute.) */
    bool final = true;
    sim::RunResult result;
    /** Captured .repro.json for a failing cell, if any. */
    std::string reproPath;
};

class Journal
{
  public:
    Journal() = default;
    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;
    ~Journal();

    /**
     * Open `path` for appending. An existing journal is loaded first
     * (that is the resume path): a torn final line left by a crash
     * is dropped with a warning and cut off the file, and a build
     * mismatch is warned about. A new journal gets its header line
     * stamped with this build's provenance. Returns false (with
     * *err) on I/O or format errors.
     */
    bool open(const std::string &path, std::string *err);

    /** Append one record as one line. Durable after the next flush(). */
    bool append(const JournalRecord &rec, std::string *err);

    /** fdatasync every record appended so far. */
    bool flush(std::string *err);

    /** Records loaded at open() time (earlier records first). */
    const std::vector<JournalRecord> &loaded() const
    {
        return _loaded;
    }

    const std::string &path() const { return _path; }
    bool isOpen() const { return _fd >= 0; }

    /**
     * Parse a journal file. A torn final line left by a crash
     * mid-append is dropped with a warning; anything else — a
     * record whose `crc` does not match (on any line, the last
     * included), a malformed line before the last, a file that is
     * not an edgesim journal, or a segment-log directory written by
     * an older build — is rejected with a structured error naming
     * the path (and line). Records are returned in append order;
     * with duplicate cell hashes the LAST record wins — a resumed
     * campaign appends the re-execution after the worker-death
     * record it supersedes. *build_line receives the header's build.
     */
    static bool load(const std::string &path,
                     std::vector<JournalRecord> *out,
                     std::string *build_line, std::string *err);

    /**
     * The resume index over loaded records: last record per cell
     * hash wins, and only cells whose LAST record is final replay —
     * a non-final record (worker death) erases any earlier final
     * one, so `--resume` re-executes exactly those cells.
     */
    static std::map<std::uint64_t, const JournalRecord *>
    resumeIndex(const std::vector<JournalRecord> &records);

    /**
     * Cheap provenance probe for `--strict-provenance`: true when
     * `path` exists, carries a build line, and that line differs
     * from the running binary's (with *desc naming the difference).
     */
    static bool provenanceMismatch(const std::string &path,
                                   std::string *desc);

  private:
    std::string _path;
    std::vector<JournalRecord> _loaded;
    int _fd = -1;
};

} // namespace edge::super

#endif // EDGE_SUPER_JOURNAL_HH
