/**
 * @file
 * A minimal JSON value, writer, and recursive-descent parser — just
 * enough for `.repro.json` files. Hand-rolled on purpose: the build
 * has a no-external-dependencies rule, and repro files need exact
 * 64-bit integer round-trips (seeds, cycles, ordinals), which a
 * double-backed JSON library would silently corrupt. Number tokens
 * are therefore kept verbatim as text and reparsed on access.
 */

#ifndef EDGE_TRIAGE_JSONIO_HH
#define EDGE_TRIAGE_JSONIO_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace edge::triage {

class JsonValue
{
  public:
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    JsonValue() = default;

    // --- constructors ----------------------------------------------------
    static JsonValue null() { return JsonValue(); }
    static JsonValue boolean(bool b);
    static JsonValue u64(std::uint64_t v);
    static JsonValue i64(std::int64_t v);
    static JsonValue number(double v);
    static JsonValue str(std::string s);
    static JsonValue object();
    static JsonValue array();

    Type type() const { return _type; }
    bool isNull() const { return _type == Type::Null; }
    bool isObject() const { return _type == Type::Object; }
    bool isArray() const { return _type == Type::Array; }

    // --- scalar access (returns the fallback on type mismatch) -----------
    bool asBool(bool fallback = false) const;
    std::uint64_t asU64(std::uint64_t fallback = 0) const;
    std::int64_t asI64(std::int64_t fallback = 0) const;
    double asDouble(double fallback = 0.0) const;
    const std::string &asString() const; ///< empty on mismatch

    // --- object access ----------------------------------------------------
    /** Set / replace a member (this must be an Object). */
    JsonValue &set(const std::string &key, JsonValue value);
    /** Member lookup; null when absent or not an object. */
    const JsonValue *get(const std::string &key) const;
    /** Drop a member if present (order of the rest is preserved);
     *  returns true when something was removed. */
    bool remove(const std::string &key);
    /** Convenience scalar getters over get(). */
    bool getBool(const std::string &key, bool fallback = false) const;
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback = 0) const;
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;

    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return _members;
    }

    // --- array access ------------------------------------------------------
    JsonValue &push(JsonValue value); ///< append (this must be an Array)
    const std::vector<JsonValue> &items() const { return _items; }

    /** Serialize (2-space indent, members in insertion order). */
    std::string dump() const;

    /**
     * Serialize on a single line, no whitespace — the JSONL form the
     * campaign journal appends one record per line in. Escaping
     * guarantees the output itself contains no newline.
     */
    std::string dumpCompact() const;

    /**
     * Parse a complete JSON document. Returns false (with a
     * position-bearing message in *err) on malformed input; trailing
     * garbage after the document is an error.
     */
    static bool parse(const std::string &text, JsonValue *out,
                      std::string *err);

    /** JSON-escape a string body (no surrounding quotes). */
    static std::string escape(const std::string &s);

  private:
    void dumpTo(std::string &out, unsigned depth) const;
    void dumpCompactTo(std::string &out) const;

    Type _type = Type::Null;
    bool _bool = false;
    /** String payload, or the verbatim number token. */
    std::string _text;
    std::vector<std::pair<std::string, JsonValue>> _members;
    std::vector<JsonValue> _items;
};

/**
 * Crash-durable whole-file write: the content goes to a temp file in
 * the same directory, is fsync'd, and is atomically renamed over
 * `path` (the directory is fsync'd too). A reader therefore sees
 * either the previous complete file or the new complete file — never
 * a truncated half-write, even if the writer dies mid-call or the
 * host loses power. Used for `.repro.json` captures.
 */
bool writeFileDurable(const std::string &path,
                      const std::string &content, std::string *err);

} // namespace edge::triage

#endif // EDGE_TRIAGE_JSONIO_HH
