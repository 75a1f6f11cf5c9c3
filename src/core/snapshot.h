#pragma once

/**
 * @file
 * Crash-safe checkpoint/resume for repair runs.
 *
 * Every generation the engine serializes its complete search state to
 * a versioned snapshot file; RepairEngine::resume() continues the run
 * bit-identically (same final patch, same fitness, same counters),
 * extending the determinism contract of DESIGN.md "Parallel
 * evaluation" across process death. service::runRepairJob() resumes
 * an existing snapshot, for a daemon job and `cirfix repair
 * --snapshot` alike.
 *
 * The state captured is exactly what the generation loop depends on:
 * the RNG stream position (mt19937_64 serialized via its stream
 * operators), the population (patches serialized as printed donor
 * statements — applyPatch renumbers donors on application and
 * Edit::key() is the printed text, so print + reparse is exact), the
 * quarantine set, and the full fitness cache in LRU order (restored by
 * re-inserting LRU-first, so hit/miss/eviction behavior after resume
 * matches the uninterrupted run).
 *
 * Format: versioned line-oriented text ("CIRFIX-SNAPSHOT 10" magic;
 * v7 to v9 files still load),
 * length-prefixed blobs for strings that may contain newlines, and
 * hexfloat (%a) doubles so round-trips are bit-exact. The body is
 * sealed by a trailing "checksum" record (FNV-1a over every byte
 * before it) and an "end" marker that must also end the file, so
 * truncation, bit rot and appended garbage are all rejected with a
 * diagnostic instead of yielding partial state. Writes go to a temp
 * file in the same directory followed by an atomic rename, so a crash
 * mid-write never corrupts the previous snapshot.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"

namespace cirfix::core {

/** One quarantined patch key with the outcome that condemned it. */
struct QuarantineRecord
{
    std::string key;
    QuarantineEntry entry;
};

/** One resident fitness-cache entry (keyed, in LRU order). */
struct CacheRecord
{
    std::string key;
    FitnessCache::Entry entry;
};

/**
 * Complete serialized engine state: everything the generation loop
 * reads, so a resumed run is indistinguishable from one that never
 * stopped.
 */
struct EngineState
{
    /** Bump when the on-disk layout changes; readers reject other
     *  versions rather than misparse. Version 2 added the sealing
     *  checksum record; version 3 widened the outcome-count line for
     *  the early-abort outcome; version 4 widened it again for
     *  EvalOutcome::LintReject and added lintRejects to the "stream"
     *  line; version 5 added the witness-bench section (oracle
     *  provenance: which hardening benches the recorded fitness values
     *  were scored under); version 6 added the writer-provenance blob
     *  (which fleet worker checkpointed the run); version 7 added the
     *  "compiled" line (cumulative compiled-backend counters, so a
     *  resumed run reports the same backend accounting as an
     *  uninterrupted one); version 8 added the island-provenance line
     *  (which island of how many wrote the snapshot, and its migration
     *  epoch) and the migrant ledger (which elite keys each epoch
     *  injected), so a crashed island resumes into its own slot of the
     *  K-island schedule and never into another's. Version-7 snapshots
     *  still load (a plain single-population run is island -1 of 0 with
     *  an empty ledger); snapshots NEWER than this build are rejected
     *  with both versions named so the fix (upgrade the binary) is
     *  obvious. Version 9 dropped the "compiled" line along with the
     *  compiled backend; decoding a v7/v8 file skips it. Version 10
     *  dropped the "stream" line and the early-abort outcome count
     *  along with early abort, and moved lintRejects to the end of the
     *  "progress" line; decoding an older file drops the retired
     *  counts. */
    static constexpr int kVersion = 10;
    /** Oldest version decodeSnapshot() still accepts. */
    static constexpr int kOldestReadableVersion = 7;

    uint64_t seed = 0;
    /** FNV-1a of the printed faulty design; resume refuses to continue
     *  a snapshot against a different design. */
    uint64_t designFingerprint = 0;
    /** Who wrote this checkpoint (fleet worker name, or empty for a
     *  local run). Purely informational: it never enters the design
     *  fingerprint, the RNG stream, or any resume validation, so a job
     *  that fails over between workers stays bit-identical in every
     *  search-visible way while each checkpoint still records which
     *  host produced it. */
    std::string provenance;
    /** mt19937_64 stream state (operator<< text form). */
    std::string rngState;
    int generationsDone = 0;
    /** The engine's counters at the checkpoint. The "progress",
     *  "outcomes" and "cachestats" lines carry them; the two
     *  fleet counters are not written (decode leaves them 0), because
     *  they count one process's hits, not search state. */
    SearchCounters counters;
    double elapsedSeconds = 0.0;
    double bestSeen = -1.0;
    /** Witness benches installed when the snapshot was taken. Every
     *  fitness value in the population and cache was scored under the
     *  main oracle PLUS these benches; resume() refuses a config whose
     *  witness set differs (see rehardenSnapshot for migration). */
    std::vector<OracleBench> witnesses;
    std::vector<std::pair<long, double>> trajectory;
    /** Island provenance (v8): which slot of a K-island run wrote this
     *  snapshot. A plain run is island -1 of 0. resume() refuses a
     *  snapshot whose slot differs from the engine's — the RNG stream
     *  and ledger are meaningless under any other slot. */
    int islandIndex = -1;
    int islandCount = 0;
    /** Migration epochs completed when the snapshot was taken. */
    int migrationEpoch = 0;
    /** Per-epoch keys of the migrants actually injected (v8).
     *  runIslands() checks them against the ledger's sealed broadcasts
     *  when the island resumes (MigrationLedger::verifyReplay). */
    std::vector<MigrantRecord> migrantLedger;
    std::vector<Variant> population;
    /** Sorted by key (so snapshots are byte-stable). */
    std::vector<QuarantineRecord> quarantine;
    /** LRU-first: re-insert() in order to reproduce eviction order. */
    std::vector<CacheRecord> cache;
};

/** FNV-1a 64-bit hash of @p text (design fingerprinting). */
uint64_t fingerprintSource(const std::string &text);

/** Serialize @p state to the snapshot text format. */
std::string encodeSnapshot(const EngineState &state);

/** Parse encodeSnapshot() output. @throws std::runtime_error on a bad
 *  magic line, unsupported version, or any structural corruption. */
EngineState decodeSnapshot(const std::string &text);

/** Write @p state to @p path atomically (temp file + rename).
 *  @throws std::runtime_error when the file cannot be written. */
void saveSnapshot(const std::string &path, const EngineState &state);

/** Read and decode the snapshot at @p path.
 *  @throws std::runtime_error when unreadable or corrupt. */
EngineState loadSnapshot(const std::string &path);

/** Write @p data to @p path through a fresh temp file per call
 *  ("<path>.tmp.<pid>.<n>") and a rename in the same directory, so a
 *  crash mid-write leaves the previous file intact, never a torn one,
 *  and concurrent writers of one path never share a temp file.
 *  @throws std::runtime_error when the temp file cannot be written or
 *  renamed (the temp file is then removed). */
void writeFileAtomic(const std::string &path, const std::string &data);

/** The whole file at @p path. @throws std::runtime_error when it
 *  cannot be opened. */
std::string readFile(const std::string &path);

/** As readFile(), but "" when the file cannot be opened. */
std::string readFileOrEmpty(const std::string &path);

struct LedgerState;

/** Serialize a K-island run's barrier state (island.h) in the snapshot
 *  text format: its own "CIRFIX-ISLAND-LEDGER" magic, variants written
 *  as in a snapshot's population, the same checksum and end seal. */
std::string encodeLedger(const LedgerState &state);

/** Parse encodeLedger() output. @throws std::runtime_error on another
 *  ledger version or any corruption. */
LedgerState decodeLedger(const std::string &text);

} // namespace cirfix::core
