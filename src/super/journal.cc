#include "super/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/build_info.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "triage/result_json.hh"

namespace edge::super {

namespace fs = std::filesystem;
using triage::JsonValue;

namespace {

JsonValue
recordToJson(const JournalRecord &rec)
{
    JsonValue o = JsonValue::object();
    o.set("cell", JsonValue::u64(rec.cell));
    o.set("final", JsonValue::boolean(rec.final));
    if (!rec.reproPath.empty())
        o.set("repro", JsonValue::str(rec.reproPath));
    o.set("result", triage::resultToJson(rec.result));
    // The checksum covers the serialized record exactly as written
    // above — computed last, verified by stripping it again on load.
    o.set("crc", JsonValue::u64(fnv1a64(o.dumpCompact())));
    return o;
}

/**
 * Verify a record's `crc` against the rest of the record. Records
 * without one (older builds) pass vacuously. The checksum covers the
 * whole object, so records carrying fields this build no longer
 * writes still verify.
 */
bool
checksumOk(const JsonValue &o)
{
    const JsonValue *crc = o.get("crc");
    if (!crc)
        return true;
    JsonValue body = o;
    body.remove("crc");
    return crc->asU64() == fnv1a64(body.dumpCompact());
}

bool
recordFromJson(const JsonValue &o, JournalRecord *rec,
               std::string *err)
{
    if (!o.isObject() || !o.get("cell") || !o.get("result")) {
        if (err)
            *err = "journal record missing cell/result";
        return false;
    }
    rec->cell = o.getU64("cell");
    rec->final = o.getBool("final", true);
    rec->reproPath = o.getString("repro");
    return triage::resultFromJson(*o.get("result"), &rec->result, err);
}

bool
readJournal(const std::string &path, std::string *text, std::string *err)
{
    if (fs::is_directory(path)) {
        // Older builds wrote a group-commit segment log, a directory
        // whose first segment is seg-000001.elog, at the journal path.
        if (err)
            *err = "journal '" + path + "': " +
                   (fs::exists(fs::path(path) / "seg-000001.elog")
                        ? "segment-log journal from an older build; "
                          "start a fresh journal"
                        : "is a directory, not a journal file");
        return false;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (err)
            *err = "journal '" + path + "': cannot open";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    *text = buf.str();
    return true;
}

/**
 * Parse journal text. *valid receives the length of the accepted
 * prefix: everything but a torn final line.
 */
bool
parseJournal(const std::string &path, const std::string &text,
             std::vector<JournalRecord> *out, std::string *build_line,
             std::size_t *valid, std::string *err)
{
    out->clear();
    build_line->clear();
    *valid = 0;
    auto fail = [&](const std::string &what) {
        if (err)
            *err = "journal '" + path + "': " + what;
        return false;
    };

    bool header = false;
    std::size_t lineno = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        const bool last = nl == std::string::npos || nl + 1 == text.size();
        std::string line = text.substr(
            pos, nl == std::string::npos ? std::string::npos : nl - pos);
        const std::size_t next =
            nl == std::string::npos ? text.size() : nl + 1;
        ++lineno;
        if (line.empty()) {
            pos = *valid = next;
            continue;
        }

        JsonValue v;
        std::string perr;
        if (!JsonValue::parse(line, &v, &perr)) {
            // A torn FINAL line is the one legal corruption: an
            // append that died mid-write. Everything before it is
            // intact — keep it and move on.
            if (last && header) {
                warn("journal '%s': dropping truncated final line "
                     "%zu (%s)",
                     path.c_str(), lineno, perr.c_str());
                break;
            }
            return fail(header ? "torn record at line " +
                                     std::to_string(lineno) + ": " +
                                     perr
                               : "not an edgesim-journal file");
        }

        if (!header) {
            if (v.getString("format") != "edgesim-journal")
                return fail("not an edgesim-journal file");
            *build_line = v.getString("build");
            header = true;
            pos = *valid = next;
            continue;
        }

        // A parseable record with a bad checksum is bit-level
        // corruption, not a torn append — reject it wherever it
        // sits, final line included.
        if (!checksumOk(v))
            return fail("record checksum mismatch at line " +
                        std::to_string(lineno) + " (corrupt record)");

        JournalRecord rec;
        std::string rerr;
        if (!recordFromJson(v, &rec, &rerr)) {
            if (last) {
                warn("journal '%s': dropping malformed final line "
                     "%zu (%s)",
                     path.c_str(), lineno, rerr.c_str());
                break;
            }
            return fail("line " + std::to_string(lineno) + ": " + rerr);
        }
        out->push_back(std::move(rec));
        pos = *valid = next;
    }
    if (!header)
        return fail(text.empty() ? "file is empty"
                                 : "not an edgesim-journal file");
    return true;
}

bool
writeAll(int fd, const std::string &bytes, const std::string &path,
         std::string *err)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            if (err)
                *err = "journal '" + path +
                       "': write failed: " + std::strerror(errno);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

Journal::~Journal()
{
    if (_fd >= 0)
        ::close(_fd);
}

bool
Journal::load(const std::string &path, std::vector<JournalRecord> *out,
              std::string *build_line, std::string *err)
{
    std::string text;
    std::size_t valid = 0;
    return readJournal(path, &text, err) &&
           parseJournal(path, text, out, build_line, &valid, err);
}

bool
Journal::open(const std::string &path, std::string *err)
{
    if (_fd >= 0)
        ::close(_fd);
    _fd = -1;
    _path = path;
    _loaded.clear();

    // An empty file is what a crash between creation and the header
    // write leaves behind: start it afresh.
    std::error_code ec;
    const bool existing = fs::exists(path, ec) &&
                          (fs::is_directory(path, ec) ||
                           fs::file_size(path, ec) > 0);
    std::string text;
    std::string build;
    std::size_t valid = 0;
    if (existing) {
        if (!readJournal(path, &text, err) ||
            !parseJournal(path, text, &_loaded, &build, &valid, err))
            return false;
    } else if (fs::path(path).has_parent_path()) {
        fs::create_directories(fs::path(path).parent_path(), ec);
    }

    _fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (_fd < 0) {
        if (err)
            *err = "journal '" + path +
                   "': cannot open for append: " + std::strerror(errno);
        return false;
    }

    std::string pending;
    if (!existing) {
        JsonValue h = JsonValue::object();
        h.set("format", JsonValue::str("edgesim-journal"));
        h.set("version", JsonValue::u64(1));
        h.set("build", JsonValue::str(buildInfoLine()));
        pending = h.dumpCompact() + "\n";
    } else {
        // Cut a torn final line off so the next append starts a
        // fresh line, and terminate a last line the crash left
        // without its newline.
        if (valid < text.size() && ::ftruncate(_fd, valid) != 0) {
            if (err)
                *err = "journal '" + path + "': cannot drop torn tail: " +
                       std::strerror(errno);
            return false;
        }
        if (text[valid - 1] != '\n')
            pending = "\n";
        const std::string mismatch = buildMismatch(build);
        if (!mismatch.empty())
            warn("journal '%s': written by a different build "
                 "(%s) — replayed results may not match this "
                 "binary",
                 path.c_str(), mismatch.c_str());
    }
    if (!pending.empty() &&
        (!writeAll(_fd, pending, path, err) || !flush(err)))
        return false;
    return true;
}

std::map<std::uint64_t, const JournalRecord *>
Journal::resumeIndex(const std::vector<JournalRecord> &records)
{
    std::map<std::uint64_t, const JournalRecord *> index;
    for (const JournalRecord &rec : records) {
        if (rec.final)
            index[rec.cell] = &rec;
        else
            index.erase(rec.cell);
    }
    return index;
}

bool
Journal::append(const JournalRecord &rec, std::string *err)
{
    if (_fd < 0) {
        if (err)
            *err = "journal not open";
        return false;
    }
    return writeAll(_fd, recordToJson(rec).dumpCompact() + "\n", _path,
                    err);
}

bool
Journal::flush(std::string *err)
{
    if (_fd < 0 || ::fdatasync(_fd) == 0)
        return true;
    if (err)
        *err = "journal '" + _path +
               "': fdatasync failed: " + std::strerror(errno);
    return false;
}

bool
Journal::provenanceMismatch(const std::string &path, std::string *desc)
{
    if (!fs::is_regular_file(path))
        return false;
    std::ifstream in(path);
    std::string line;
    JsonValue v;
    std::string perr;
    if (!std::getline(in, line) || !JsonValue::parse(line, &v, &perr) ||
        v.getString("format") != "edgesim-journal")
        return false;
    const std::string m = buildMismatch(v.getString("build"));
    if (m.empty())
        return false;
    if (desc)
        *desc = m;
    return true;
}

} // namespace edge::super
