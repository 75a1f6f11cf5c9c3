#include "core/snapshot.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "core/island.h"
#include "core/templates.h"
#include "verilog/parser.h"

namespace cirfix::core {

namespace {

using verilog::StmtPtr;

[[noreturn]] void
corrupt(const std::string &what)
{
    throw std::runtime_error("corrupt snapshot: " + what);
}

/** Bit-exact double round-trip: %a out, strtod back. */
std::string
doubleToken(double d)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", d);
    return buf;
}

double
tokenToDouble(const std::string &tok)
{
    char *end = nullptr;
    double d = std::strtod(tok.c_str(), &end);
    if (!end || *end != '\0')
        corrupt("bad floating-point token '" + tok + "'");
    return d;
}

EditKind
editKindFromName(const std::string &name)
{
    for (EditKind k : {EditKind::Replace, EditKind::InsertAfter,
                       EditKind::Delete, EditKind::Template})
        if (name == editKindName(k))
            return k;
    corrupt("unknown edit kind '" + name + "'");
}

TemplateKind
templateFromName(const std::string &name)
{
    for (TemplateKind k : allTemplatesExtended())
        if (name == templateName(k))
            return k;
    corrupt("unknown template kind '" + name + "'");
}

/**
 * Reparse a printed donor statement. Donor node ids are irrelevant:
 * applyEdit clones and renumbers donors on application, and
 * Edit::key() is the printed text, so print + reparse preserves patch
 * identity exactly (print(parse(x)) re-parses structurally identical).
 */
StmtPtr
reparseDonor(const std::string &text)
{
    std::string wrapped =
        "module __cirfix_snapshot_donor;\ninitial\n" + text +
        "\nendmodule\n";
    std::unique_ptr<verilog::SourceFile> file;
    try {
        file = verilog::parse(wrapped);
    } catch (const std::exception &e) {
        corrupt(std::string("donor statement does not reparse: ") +
                e.what());
    }
    if (file->modules.size() != 1)
        corrupt("donor wrapper parsed to multiple modules");
    for (auto &item : file->modules[0]->items)
        if (auto *ib = dynamic_cast<verilog::InitialBlock *>(item.get()))
            return std::move(ib->body);
    corrupt("donor wrapper lost its initial block");
}

// ---------------------------------------------------------------- writer

class Writer
{
  public:
    void
    line(const std::string &s)
    {
        os_ << s << '\n';
    }

    /** Length-prefixed payload that may contain anything. */
    void
    blob(const std::string &tag, const std::string &data)
    {
        os_ << tag << " blob " << data.size() << '\n' << data << '\n';
    }

    void
    writeVariant(const Variant &v)
    {
        std::ostringstream head;
        head << "variant " << (v.valid ? 1 : 0) << " "
             << (v.evaluated ? 1 : 0) << " "
             << evalOutcomeName(v.outcome);
        line(head.str());
        std::ostringstream fit;
        fit << "fitness " << doubleToken(v.fit.fitness) << " "
            << doubleToken(v.fit.sum) << " " << doubleToken(v.fit.total)
            << " " << v.fit.bitMatches << " " << v.fit.bitMismatches
            << " " << v.fit.unknownMatches << " "
            << v.fit.unknownMismatches;
        line(fit.str());
        blob("error", v.error);
        line("patch " + std::to_string(v.patch.edits.size()));
        for (const Edit &e : v.patch.edits) {
            std::ostringstream eh;
            eh << "edit " << editKindName(e.kind) << " " << e.target
               << " " << templateName(e.tmpl);
            line(eh.str());
            blob("param", e.param);
            blob("code", e.code.text());
        }
        blob("trace", v.trace.toCsv());
    }

    /** Seal the body: a checksum record over every byte written so
     *  far (so a bit flip inside a blob, which a length-prefixed parse
     *  would accept, is caught on load) and the end marker. */
    std::string
    seal()
    {
        line("checksum " + std::to_string(fingerprintSource(os_.str())));
        line("end");
        return os_.str();
    }

  private:
    std::ostringstream os_;
};

// ---------------------------------------------------------------- reader

class Reader
{
  public:
    explicit Reader(const std::string &text) : text_(text) {}

    std::string
    line()
    {
        size_t nl = text_.find('\n', pos_);
        if (nl == std::string::npos)
            corrupt("unexpected end of file");
        std::string s = text_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        return s;
    }

    /** Split the next line into whitespace tokens and check the tag. */
    std::vector<std::string>
    tokens(const std::string &tag, size_t expect)
    {
        std::istringstream is(line());
        std::vector<std::string> toks;
        std::string t;
        while (is >> t)
            toks.push_back(t);
        if (toks.empty() || toks[0] != tag)
            corrupt("expected '" + tag + "' record");
        if (expect && toks.size() != expect)
            corrupt("'" + tag + "' record has " +
                    std::to_string(toks.size() - 1) + " fields, want " +
                    std::to_string(expect - 1));
        return toks;
    }

    std::string
    blob(const std::string &tag)
    {
        auto toks = tokens(tag, 3);
        if (toks[1] != "blob")
            corrupt("'" + tag + "' is not a blob");
        size_t n = parseSize(toks[2]);
        if (pos_ + n + 1 > text_.size())
            corrupt("'" + tag + "' blob truncated");
        std::string data = text_.substr(pos_, n);
        pos_ += n;
        if (text_[pos_] != '\n')
            corrupt("'" + tag + "' blob missing terminator");
        ++pos_;
        return data;
    }

    long
    parseLong(const std::string &tok)
    {
        char *end = nullptr;
        long v = std::strtol(tok.c_str(), &end, 10);
        if (!end || *end != '\0')
            corrupt("bad integer '" + tok + "'");
        return v;
    }

    uint64_t
    parseU64(const std::string &tok)
    {
        char *end = nullptr;
        unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
        if (!end || *end != '\0')
            corrupt("bad integer '" + tok + "'");
        return v;
    }

    size_t
    parseSize(const std::string &tok)
    {
        return static_cast<size_t>(parseU64(tok));
    }

    Variant
    readVariant()
    {
        Variant v;
        auto head = tokens("variant", 4);
        v.valid = parseLong(head[1]) != 0;
        v.evaluated = parseLong(head[2]) != 0;
        v.outcome = evalOutcomeFromName(head[3]);
        auto fit = tokens("fitness", 8);
        v.fit.fitness = tokenToDouble(fit[1]);
        v.fit.sum = tokenToDouble(fit[2]);
        v.fit.total = tokenToDouble(fit[3]);
        v.fit.bitMatches = parseU64(fit[4]);
        v.fit.bitMismatches = parseU64(fit[5]);
        v.fit.unknownMatches = parseU64(fit[6]);
        v.fit.unknownMismatches = parseU64(fit[7]);
        v.error = blob("error");
        auto patch = tokens("patch", 2);
        size_t nedits = parseSize(patch[1]);
        for (size_t i = 0; i < nedits; ++i) {
            auto eh = tokens("edit", 4);
            Edit e;
            e.kind = editKindFromName(eh[1]);
            e.target = static_cast<int>(parseLong(eh[2]));
            e.tmpl = templateFromName(eh[3]);
            e.param = blob("param");
            std::string code = blob("code");
            if (!code.empty())
                e.code = reparseDonor(code);
            v.patch.edits.push_back(std::move(e));
        }
        std::string csv = blob("trace");
        if (!csv.empty())
            v.trace = sim::Trace::fromCsv(csv);
        return v;
    }

    /** The parse must end exactly at the checksum record verifySeal()
     *  checked (at @p sealAt), followed by the end marker and nothing
     *  else. */
    void
    expectSeal(size_t sealAt)
    {
        if (pos_ != sealAt)
            corrupt("'checksum' record is not where the body ends");
        tokens("checksum", 2);
        tokens("end", 1);
        if (pos_ != text_.size())
            corrupt("trailing garbage after 'end' marker");
    }

  private:
    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace

uint64_t
fingerprintSource(const std::string &text)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
encodeSnapshot(const EngineState &state)
{
    Writer w;
    w.line("CIRFIX-SNAPSHOT " + std::to_string(EngineState::kVersion));
    w.line("seed " + std::to_string(state.seed));
    w.line("fingerprint " + std::to_string(state.designFingerprint));
    w.blob("provenance", state.provenance);
    w.blob("rng", state.rngState);
    {
        std::ostringstream os;
        const SearchCounters &c = state.counters;
        os << "progress " << state.generationsDone << " "
           << c.fitnessEvals << " " << c.invalidMutants << " "
           << c.totalMutants << " "
           << doubleToken(state.elapsedSeconds) << " "
           << doubleToken(state.bestSeen) << " " << c.lintRejects;
        w.line(os.str());
    }
    {
        std::ostringstream os;
        os << "island " << state.islandIndex << " " << state.islandCount
           << " " << state.migrationEpoch;
        w.line(os.str());
    }
    w.line("ledger " + std::to_string(state.migrantLedger.size()));
    for (const MigrantRecord &m : state.migrantLedger) {
        w.line("epoch " + std::to_string(m.epoch) + " " +
               std::to_string(m.keys.size()));
        for (const std::string &k : m.keys)
            w.blob("mkey", k);
    }
    w.line("witnesses " + std::to_string(state.witnesses.size()));
    for (const OracleBench &b : state.witnesses) {
        w.blob("wmodule", b.module);
        w.blob("wprovenance", b.provenance);
        w.blob("wsource", b.source);
        w.blob("wclock", b.probe.clock);
        w.line("wstart " + std::to_string(b.probe.startTime));
        w.line("wsignals " + std::to_string(b.probe.signals.size()));
        for (const std::string &s : b.probe.signals)
            w.blob("wsignal", s);
        w.blob("woracle", b.oracle.toCsv());
    }
    w.line("trajectory " + std::to_string(state.trajectory.size()));
    for (const auto &[at, best] : state.trajectory)
        w.line("point " + std::to_string(at) + " " + doubleToken(best));
    {
        std::ostringstream os;
        os << "outcomes";
        for (long c : state.counters.outcomes.counts)
            os << " " << c;
        os << " " << state.counters.outcomes.quarantineHits;
        w.line(os.str());
    }
    w.line("population " + std::to_string(state.population.size()));
    for (const Variant &v : state.population)
        w.writeVariant(v);
    w.line("quarantine " + std::to_string(state.quarantine.size()));
    for (const QuarantineRecord &q : state.quarantine) {
        w.blob("key", q.key);
        w.line("condemned " +
               std::string(evalOutcomeName(q.entry.outcome)));
        w.blob("error", q.entry.error);
    }
    const CacheStats &cs = state.counters.cache;
    w.line("cachestats " + std::to_string(cs.hits) + " " +
           std::to_string(cs.misses) + " " +
           std::to_string(cs.evictions));
    w.line("cache " + std::to_string(state.cache.size()));
    for (const CacheRecord &c : state.cache) {
        w.blob("key", c.key);
        Variant v;
        v.valid = c.entry.valid;
        v.evaluated = true;
        v.fit = c.entry.fit;
        v.trace = c.entry.trace;
        v.outcome = c.entry.outcome;
        v.error = c.entry.error;
        w.writeVariant(v);
    }
    return w.seal();
}

namespace {

/**
 * Verify the sealing records before any content is parsed: the file
 * must end with "checksum <fnv>\nend\n" and the stored FNV-1a must
 * match the bytes before the checksum line. Doing this up front means
 * a bit flip deep inside a blob payload is reported as file damage
 * rather than as whatever downstream parse error it happens to cause.
 * @return the offset of the checksum record, where the parse of the
 * body must end (Reader::expectSeal).
 */
size_t
verifySeal(const std::string &text)
{
    const std::string endmark = "end\n";
    if (text.size() < endmark.size() ||
        text.compare(text.size() - endmark.size(), endmark.size(),
                     endmark) != 0)
        corrupt("missing 'end' marker (file truncated or has "
                "trailing garbage)");
    const std::string tag = "\nchecksum ";
    size_t cks = text.rfind(tag, text.size() - endmark.size() - 1);
    if (cks == std::string::npos)
        corrupt("missing 'checksum' record");
    size_t nl = text.find('\n', cks + 1);
    if (nl != text.size() - endmark.size() - 1)
        corrupt("'checksum' record is not the penultimate line");
    std::string tok = text.substr(cks + tag.size(),
                                  nl - cks - tag.size());
    char *end = nullptr;
    uint64_t want = std::strtoull(tok.c_str(), &end, 10);
    if (!end || *end != '\0' || tok.empty())
        corrupt("bad checksum value '" + tok + "'");
    uint64_t got = fingerprintSource(text.substr(0, cks + 1));
    if (want != got)
        corrupt("checksum mismatch (file damaged): stored " +
                std::to_string(want) + ", computed " +
                std::to_string(got));
    return cks + 1;
}

} // namespace

EngineState
decodeSnapshot(const std::string &text)
{
    Reader r(text);
    EngineState st;
    long version;
    {
        auto magic = r.tokens("CIRFIX-SNAPSHOT", 2);
        version = r.parseLong(magic[1]);
        // Name both versions in the diagnostic so the remedy is
        // obvious: a too-new snapshot needs a newer binary, a too-old
        // one needs re-running (or a migration tool), never a "corrupt
        // snapshot" hunt.
        if (version > EngineState::kVersion)
            throw std::runtime_error(
                "snapshot version " + std::to_string(version) +
                " is newer than this build understands (it reads "
                "versions " +
                std::to_string(EngineState::kOldestReadableVersion) +
                ".." + std::to_string(EngineState::kVersion) +
                "); load it with the newer cirfix that wrote it");
        if (version < EngineState::kOldestReadableVersion)
            throw std::runtime_error(
                "snapshot version " + std::to_string(version) +
                " is older than this build understands (it reads "
                "versions " +
                std::to_string(EngineState::kOldestReadableVersion) +
                ".." + std::to_string(EngineState::kVersion) + ")");
    }
    const size_t sealAt = verifySeal(text);
    st.seed = r.parseU64(r.tokens("seed", 2)[1]);
    st.designFingerprint = r.parseU64(r.tokens("fingerprint", 2)[1]);
    st.provenance = r.blob("provenance");
    st.rngState = r.blob("rng");
    {
        auto p = r.tokens("progress", version < 10 ? 7 : 8);
        st.generationsDone = static_cast<int>(r.parseLong(p[1]));
        st.counters.fitnessEvals = r.parseLong(p[2]);
        st.counters.invalidMutants = r.parseLong(p[3]);
        st.counters.totalMutants = r.parseLong(p[4]);
        st.elapsedSeconds = tokenToDouble(p[5]);
        st.bestSeen = tokenToDouble(p[6]);
        if (version >= 10)
            st.counters.lintRejects = r.parseLong(p[7]);
    }
    if (version < 10) // early aborts, rows scored and skipped are retired
        st.counters.lintRejects = r.parseLong(r.tokens("stream", 5)[4]);
    if (version < 9)
        r.tokens("compiled", 7); // retired compiled-backend counters
    if (version >= 8) {
        auto isl = r.tokens("island", 4);
        st.islandIndex = static_cast<int>(r.parseLong(isl[1]));
        st.islandCount = static_cast<int>(r.parseLong(isl[2]));
        st.migrationEpoch = static_cast<int>(r.parseLong(isl[3]));
        size_t nled = r.parseSize(r.tokens("ledger", 2)[1]);
        for (size_t i = 0; i < nled; ++i) {
            auto e = r.tokens("epoch", 3);
            MigrantRecord m;
            m.epoch = static_cast<int>(r.parseLong(e[1]));
            size_t nkeys = r.parseSize(e[2]);
            for (size_t k = 0; k < nkeys; ++k)
                m.keys.push_back(r.blob("mkey"));
            st.migrantLedger.push_back(std::move(m));
        }
    }
    // (v7 snapshots carry the defaults: island -1 of 0, empty ledger —
    // exactly what a plain single-population run records.)
    size_t nwit = r.parseSize(r.tokens("witnesses", 2)[1]);
    for (size_t i = 0; i < nwit; ++i) {
        OracleBench b;
        b.module = r.blob("wmodule");
        b.provenance = r.blob("wprovenance");
        b.source = r.blob("wsource");
        b.probe.clock = r.blob("wclock");
        b.probe.startTime = static_cast<sim::SimTime>(
            r.parseU64(r.tokens("wstart", 2)[1]));
        size_t nsig = r.parseSize(r.tokens("wsignals", 2)[1]);
        for (size_t s = 0; s < nsig; ++s)
            b.probe.signals.push_back(r.blob("wsignal"));
        std::string csv = r.blob("woracle");
        if (!csv.empty())
            b.oracle = sim::Trace::fromCsv(csv);
        st.witnesses.push_back(std::move(b));
    }
    size_t npoints = r.parseSize(r.tokens("trajectory", 2)[1]);
    for (size_t i = 0; i < npoints; ++i) {
        auto p = r.tokens("point", 3);
        st.trajectory.emplace_back(r.parseLong(p[1]),
                                   tokenToDouble(p[2]));
    }
    {
        // Before v10 the line also counted the retired early-abort
        // outcome, just before lint-reject; that count is dropped.
        const bool hasEarlyAbort = version < 10;
        const size_t n =
            static_cast<size_t>(kEvalOutcomeCount) + hasEarlyAbort;
        auto o = r.tokens("outcomes", n + 2);
        for (int i = 0; i < kEvalOutcomeCount; ++i) {
            const bool skip =
                hasEarlyAbort &&
                static_cast<EvalOutcome>(i) == EvalOutcome::LintReject;
            st.counters.outcomes.counts[static_cast<size_t>(i)] =
                r.parseLong(o[static_cast<size_t>(i) + 1 + skip]);
        }
        st.counters.outcomes.quarantineHits = r.parseLong(o[n + 1]);
    }
    size_t npop = r.parseSize(r.tokens("population", 2)[1]);
    for (size_t i = 0; i < npop; ++i)
        st.population.push_back(r.readVariant());
    size_t nquar = r.parseSize(r.tokens("quarantine", 2)[1]);
    for (size_t i = 0; i < nquar; ++i) {
        QuarantineRecord q;
        q.key = r.blob("key");
        auto c = r.tokens("condemned", 2);
        q.entry.outcome = evalOutcomeFromName(c[1]);
        q.entry.error = r.blob("error");
        st.quarantine.push_back(std::move(q));
    }
    {
        auto cs = r.tokens("cachestats", 4);
        st.counters.cache.hits = r.parseLong(cs[1]);
        st.counters.cache.misses = r.parseLong(cs[2]);
        st.counters.cache.evictions = r.parseLong(cs[3]);
    }
    size_t ncache = r.parseSize(r.tokens("cache", 2)[1]);
    for (size_t i = 0; i < ncache; ++i) {
        CacheRecord c;
        c.key = r.blob("key");
        Variant v = r.readVariant();
        c.entry.valid = v.valid;
        c.entry.fit = v.fit;
        c.entry.trace = std::move(v.trace);
        c.entry.outcome = v.outcome;
        c.entry.error = std::move(v.error);
        st.cache.push_back(std::move(c));
    }
    r.expectSeal(sealAt);
    return st;
}

void
saveSnapshot(const std::string &path, const EngineState &state)
{
    writeFileAtomic(path, encodeSnapshot(state));
}

EngineState
loadSnapshot(const std::string &path)
{
    return decodeSnapshot(readFile(path));
}

void
writeFileAtomic(const std::string &path, const std::string &data)
{
    // A temp file per call: two writers of one path (a stale attempt
    // at a job and its successor) never interleave in one temp file;
    // the last rename wins with a whole file.
    static std::atomic<unsigned long> serial{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                      std::to_string(serial++);
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw std::runtime_error("cannot write " + tmp);
        os.write(data.data(),
                 static_cast<std::streamsize>(data.size()));
        os.flush();
        if (!os)
            throw std::runtime_error("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot rename " + tmp + " to " + path);
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

std::string
readFileOrEmpty(const std::string &path)
{
    try {
        return readFile(path);
    } catch (const std::runtime_error &) {
        return "";
    }
}

std::string
encodeLedger(const LedgerState &state)
{
    Writer w;
    w.line("CIRFIX-ISLAND-LEDGER " + std::to_string(LedgerState::kVersion));
    w.line("config " + std::to_string(state.config.islands) + " " +
           std::to_string(state.config.migrationInterval) + " " +
           std::to_string(state.config.migrantsPerIsland));
    const MigrationStats &ms = state.stats;
    w.line("stats " + std::to_string(ms.elitesExported) + " " +
           std::to_string(ms.migrantsBroadcast) + " " +
           std::to_string(ms.migrantDuplicates) + " " +
           std::to_string(ms.elitesLost));
    w.line("winner " + std::to_string(state.winnerIsland) + " " +
           std::to_string(state.winnerEpoch));
    auto variants = [&w](const std::string &tag,
                         const std::vector<Variant> &vs) {
        w.line(tag + " " + std::to_string(vs.size()));
        for (const Variant &v : vs)
            w.writeVariant(v);
    };
    w.line("epochs " + std::to_string(state.epochs.size()));
    for (const LedgerState::Epoch &e : state.epochs) {
        w.line("epoch " + std::to_string(e.epoch) + " " +
               std::to_string(e.submissions.size()));
        for (const auto &[island, elites] : e.submissions)
            variants("sub " + std::to_string(island), elites);
        variants("migrants", e.migrants);
    }
    return w.seal();
}

LedgerState
decodeLedger(const std::string &text)
{
    Reader r(text);
    if (r.parseLong(r.tokens("CIRFIX-ISLAND-LEDGER", 2)[1]) !=
        LedgerState::kVersion)
        corrupt("unsupported ledger version");
    const size_t sealAt = verifySeal(text);
    LedgerState st;
    auto c = r.tokens("config", 4);
    st.config.islands = static_cast<int>(r.parseLong(c[1]));
    st.config.migrationInterval = static_cast<int>(r.parseLong(c[2]));
    st.config.migrantsPerIsland = static_cast<int>(r.parseLong(c[3]));
    auto s = r.tokens("stats", 5);
    st.stats.elitesExported = r.parseLong(s[1]);
    st.stats.migrantsBroadcast = r.parseLong(s[2]);
    st.stats.migrantDuplicates = r.parseLong(s[3]);
    st.stats.elitesLost = r.parseLong(s[4]);
    auto w = r.tokens("winner", 3);
    st.winnerIsland = static_cast<int>(r.parseLong(w[1]));
    st.winnerEpoch = static_cast<int>(r.parseLong(w[2]));
    auto variants = [&r](const std::string &count) {
        std::vector<Variant> vs;
        for (size_t n = r.parseSize(count); n > 0; --n)
            vs.push_back(r.readVariant());
        return vs;
    };
    size_t nepochs = r.parseSize(r.tokens("epochs", 2)[1]);
    for (size_t i = 0; i < nepochs; ++i) {
        auto eh = r.tokens("epoch", 3);
        LedgerState::Epoch e;
        e.epoch = static_cast<int>(r.parseLong(eh[1]));
        size_t nsub = r.parseSize(eh[2]);
        for (size_t k = 0; k < nsub; ++k) {
            auto sh = r.tokens("sub", 3);
            int island = static_cast<int>(r.parseLong(sh[1]));
            e.submissions.emplace_back(island, variants(sh[2]));
        }
        e.migrants = variants(r.tokens("migrants", 2)[1]);
        st.epochs.push_back(std::move(e));
    }
    r.expectSeal(sealAt);
    return st;
}

} // namespace cirfix::core
