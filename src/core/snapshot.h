#pragma once

/**
 * @file
 * Crash-safe checkpoint/resume for repair runs.
 *
 * Every N generations the engine serializes its complete search state
 * to a versioned snapshot file; `cirfix_cli --resume <snapshot>`
 * continues the run bit-identically (same final patch, same fitness,
 * same counters), extending the determinism contract of DESIGN.md
 * "Parallel evaluation" across process death.
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
 * Format: versioned line-oriented text ("CIRFIX-SNAPSHOT 2" magic),
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
     *  EvalOutcome::EarlyAbort; version 4 widened it again for
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
     *  compiled backend; decoding a v7/v8 file skips it. */
    static constexpr int kVersion = 9;
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
    long evals = 0;
    long invalid = 0;
    long mutants = 0;
    long earlyAborts = 0;
    uint64_t rowsScored = 0;
    uint64_t rowsSkipped = 0;
    long lintRejects = 0;
    double elapsedSeconds = 0.0;
    double bestSeen = -1.0;
    /** Witness benches installed when the snapshot was taken. Every
     *  fitness value in the population and cache was scored under the
     *  main oracle PLUS these benches; resume() refuses a config whose
     *  witness set differs (see rehardenSnapshot for migration). */
    std::vector<OracleBench> witnesses;
    std::vector<std::pair<long, double>> trajectory;
    OutcomeCounts outcomes;
    /** Island provenance (v8): which slot of a K-island run wrote this
     *  snapshot. A plain run is island -1 of 0. resume() refuses a
     *  snapshot whose slot differs from the engine's — the RNG stream
     *  and ledger are meaningless under any other slot. */
    int islandIndex = -1;
    int islandCount = 0;
    /** Migration epochs completed when the snapshot was taken. */
    int migrationEpoch = 0;
    /** Per-epoch keys of the migrants actually injected (v8). The
     *  coordinator replays this on failover to verify the resumed
     *  island re-derived the same schedule. */
    std::vector<MigrantRecord> migrantLedger;
    std::vector<Variant> population;
    /** Sorted by key (so snapshots are byte-stable). */
    std::vector<QuarantineRecord> quarantine;
    CacheStats cacheStats;
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

/** Serialize a list of variants (patch + fitness + validity) using the
 *  snapshot wire format. Used by the fleet to ship elite migrants and
 *  shared cache entries between workers; traces are included so a
 *  fleet cache hit is indistinguishable from a local one. */
std::string encodeVariants(const std::vector<Variant> &variants);

/** Parse encodeVariants() output. @throws std::runtime_error on
 *  structural corruption. @p faulty is the design the patches apply
 *  to (patch donors are reparsed against it, as in decodeSnapshot). */
std::vector<Variant> decodeVariants(const std::string &text);

} // namespace cirfix::core
