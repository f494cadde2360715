// Content-addressed memoization for the tree-automaton algebra.
//
// At service scale the same algebra subexpressions recur constantly —
// complement(τ2) is shared by every transducer checked against one output
// schema, and determinized/minimized forms of popular DTDs are recomputed
// per request — yet each call into DeterminizeNbta / ComplementNbta /
// IntersectNbta / MinimizeDbta historically started cold. This layer gives
// every expensive op one dispatch path (the TaAlgebra facade):
//
//   canonicalize the operands  →  structural hash (order-independent and
//   rename-invariant: the operand is trimmed and states are renumbered by a
//   refinement coloring, so one automaton built under different state
//   numberings never splits cache entries)  →  probe a bounded
//   content-addressed cache keyed by (op, operand hashes, relevant budget
//   caps)  →  compute on miss under the existing TaOpContext discipline  →
//   insert with size-aware LRU eviction.
//
// Hit/miss/evict/byte counters fold into TaOpContext exactly like the timing
// counters. The cache is opt-in per context (TaOpBudgets::memo); a context
// carrying a fault injector is always served cold, so injection ordinals and
// unwind paths stay deterministic. Entries optionally persist across
// processes through an attached directory (binary format per
// docs/FORMATS.md) with checksum verification on load and corrupt-entry
// quarantine. Keying rules, canonicalization invariants, and the eviction
// policy are specified in docs/CACHING.md; the diffcheck oracle arbitrates
// the cache with cached-vs-cold laws like every other optimization.

#ifndef PEBBLETC_TA_OP_CACHE_H_
#define PEBBLETC_TA_OP_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/ta/inclusion.h"
#include "src/ta/nbta.h"
#include "src/ta/op_context.h"

namespace pebbletc {

class NbtaIndex;

/// A 128-bit structural fingerprint of an automaton. Equal fingerprints are
/// treated as equal content by the cache (the content-addressed contract —
/// the same trust git places in its object hashes).
struct TaStructuralHash {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const TaStructuralHash&) const = default;
};

/// Rename-invariant, order-independent fingerprint of inst-relevant
/// structure: the automaton is trimmed, states are colored by an iterated
/// refinement over the rule hypergraph (Weisfeiler–Leman style), and the
/// final hash combines per-state colors and per-rule color signatures as
/// sorted, deduplicated multisets. Invariants (docs/CACHING.md):
///   * permuting states or reordering rule lists never changes the hash;
///   * duplicate rules never change the hash;
///   * adding/removing dead states never changes the hash (trim first).
TaStructuralHash NbtaStructuralHash(const Nbta& a);

/// Fingerprint of a deterministic complete automaton. DBTAs reaching the
/// cache come from deterministic serial constructions (subset construction,
/// Moore minimization), whose numbering is already canonical for fixed
/// input, so this hashes the exact representation (cheaper, collision-free
/// across distinct tables).
TaStructuralHash DbtaStructuralHash(const Dbta& d);

/// Promotes an externally computed 64-bit fingerprint (e.g. of a transducer)
/// to a key operand.
TaStructuralHash TaFingerprintHash(uint64_t fingerprint);

/// Fingerprint of the rank structure of `sigma` (symbol names are semantic-
/// free ids; only the leaf/binary partition affects op results).
uint64_t RankedAlphabetFingerprint(const RankedAlphabet& sigma);

/// The cacheable operations, as key discriminants. kPipelineOffending is a
/// composite artifact: the typechecker's pass-2 offending product, keyed on
/// the *input* hashes (τ1, τ2, transducer) so a warm repeat decision skips
/// the whole complement/determinize/product chain — including the structural
/// hashing of the large intermediate automata.
/// kIncludedIn caches an inclusion *verdict* as an automaton payload: the
/// empty-language automaton for "included", the singleton automaton of the
/// counterexample tree for "not included" (decoded on hit via IsEmptyNbta /
/// WitnessTree) — so verdicts ride the existing Nbta payload, serialization,
/// and persistence machinery unchanged.
enum class TaOpKind : uint64_t {
  kDeterminize = 1,
  kComplement = 2,
  kIntersect = 3,
  kMinimize = 4,
  kDownwardProduct = 5,
  kPipelineOffending = 6,
  kIncludedIn = 7,
  /// The validation fast path's compiled run table (docs/VALIDATION.md): the
  /// complete DBTA a validating NBTA determinizes to. Keyed separately from
  /// kDeterminize so the shared-payload handoff stays explicit: membership
  /// compilation returns the cached table by shared_ptr (no per-request
  /// copy), which a future payload change must not silently impose on the
  /// general Determinize callers.
  kCompiledMembership = 8,
};

/// A complete cache key: op, both operand fingerprints (b zero for unary
/// ops), and `extra` mixing the alphabet fingerprint with every budget cap
/// the op's success depends on — same operands under different caps must not
/// alias (a success under a small cap is replayable under a larger one, but
/// not vice versa).
struct TaCacheKey {
  uint64_t op = 0;
  TaStructuralHash a;
  TaStructuralHash b;
  uint64_t extra = 0;
  bool operator==(const TaCacheKey&) const = default;
};

TaCacheKey MakeTaCacheKey(TaOpKind op, const TaStructuralHash& a,
                          const TaStructuralHash& b, uint64_t alphabet_fp,
                          uint64_t budget_cap);

/// Order-dependent combiner for folding several fingerprints / budget caps
/// into one key operand (e.g. the composite pipeline key mixes both alphabet
/// fingerprints, the transducer fingerprint, and two budget caps).
uint64_t TaMixFingerprints(uint64_t a, uint64_t b);

/// A bounded, thread-safe, content-addressed store of computed automata.
/// Size-aware LRU: entries are charged their payload byte size and the
/// least-recently-used entries are evicted until the total fits the
/// capacity. One process-wide instance (Global()) backs the TaAlgebra
/// facade by default; tests and benchmarks may run private instances.
class TaOpCache {
 public:
  static constexpr size_t kDefaultCapacityBytes = 64ull << 20;

  explicit TaOpCache(size_t capacity_bytes = kDefaultCapacityBytes);
  ~TaOpCache();

  TaOpCache(const TaOpCache&) = delete;
  TaOpCache& operator=(const TaOpCache&) = delete;

  /// The process-wide cache.
  static TaOpCache& Global();

  /// Lookup. A hit refreshes recency and bumps ctx->counters.memo_hits; a
  /// miss bumps memo_misses. Payload type must match the key's op (an
  /// entry of the other type is a miss).
  std::shared_ptr<const Nbta> FindNbta(const TaCacheKey& key,
                                       TaOpContext* ctx);
  std::shared_ptr<const Dbta> FindDbta(const TaCacheKey& key,
                                       TaOpContext* ctx);

  /// Insert (idempotent: re-inserting an existing key only refreshes
  /// recency). Bumps memo_bytes by the payload size and memo_evictions per
  /// entry displaced. When a persistent directory is attached, the entry is
  /// also written through to disk.
  void InsertNbta(const TaCacheKey& key, const Nbta& value, TaOpContext* ctx);
  void InsertDbta(const TaCacheKey& key, const Dbta& value, TaOpContext* ctx);

  /// Shrinking the capacity evicts (oldest-first) until the contents fit.
  void set_capacity_bytes(size_t bytes);
  size_t capacity_bytes() const;
  size_t size_bytes() const;
  size_t entries() const;

  /// Drops every in-memory entry (attached directory contents are kept).
  void Clear();

  /// Attaches `dir` for cross-process persistence: existing entries listed
  /// in the manifest are loaded (in manifest order, least-recent-first, so a
  /// capacity-bound load evicts the stalest first) after checksum
  /// verification — a corrupt or truncated entry
  /// file is renamed to "<name>.quarantined" and skipped, never trusted —
  /// and subsequent inserts write through. `loaded` / `quarantined`
  /// (optional) report what happened. The directory is created if absent.
  Status AttachPersistentDir(const std::string& dir, size_t* loaded = nullptr,
                             size_t* quarantined = nullptr);

  /// Rewrites the manifest to list the current in-memory entries. Called by
  /// the destructor when a directory is attached; on-disk entry files for
  /// since-evicted entries are left behind and simply not listed.
  Status Flush();

  const std::string& persistent_dir() const { return dir_; }

 private:
  struct Entry {
    std::shared_ptr<const Nbta> nbta;  // exactly one of the two is set
    std::shared_ptr<const Dbta> dbta;
    size_t bytes = 0;
    std::list<TaCacheKey>::iterator lru_it;
  };
  struct KeyHash {
    size_t operator()(const TaCacheKey& k) const;
  };

  // All private helpers assume mu_ is held.
  void Touch(Entry& e);
  void EvictToFitLocked(size_t incoming_bytes, TaOpContext* ctx);
  void InsertLocked(const TaCacheKey& key, Entry entry, TaOpContext* ctx);
  Status WriteEntryFile(const TaCacheKey& key, const Entry& entry) const;

  mutable std::mutex mu_;
  size_t capacity_bytes_;
  size_t size_bytes_ = 0;
  std::list<TaCacheKey> lru_;  // front = most recent
  std::unordered_map<TaCacheKey, Entry, KeyHash> map_;
  std::string dir_;
};

/// The unified op-dispatch facade: every expensive algebra op runs through
/// one of these methods, which consult the cache when the context opts in
/// (TaOpBudgets::memo != kOff and no fault injector) and fall through to the
/// underlying operation otherwise — bit-for-bit the legacy behavior,
/// including when `ctx` is null. Results inserted into the cache are always
/// complete (never taken from an interrupted context).
class TaAlgebra {
 public:
  /// `cache` null means the process-wide TaOpCache::Global().
  explicit TaAlgebra(TaOpCache* cache = nullptr);

  /// True when ops on `ctx` are served through the cache.
  static bool Enabled(const TaOpContext* ctx);

  Result<Dbta> Determinize(const NbtaIndex& a, const RankedAlphabet& sigma,
                           TaOpContext* ctx) const;
  /// The validation fast path's compiled run table (docs/VALIDATION.md):
  /// determinizes `a` and returns the complete DBTA by shared_ptr — a warm
  /// hit hands back the cached table with no copy, which is what lets a
  /// serving batch reuse one table across thousands of documents. Memoized
  /// under kCompiledMembership; uncached contexts get a freshly computed
  /// table.
  Result<std::shared_ptr<const Dbta>> MembershipTable(
      const NbtaIndex& a, const RankedAlphabet& sigma, TaOpContext* ctx) const;
  Result<Nbta> Complement(const NbtaIndex& a, const RankedAlphabet& sigma,
                          TaOpContext* ctx) const;
  Nbta Intersect(const NbtaIndex& a, const NbtaIndex& b,
                 TaOpContext* ctx) const;
  Result<Dbta> Minimize(const Dbta& d, const RankedAlphabet& sigma,
                        TaOpContext* ctx) const;
  /// Antichain inclusion (NbtaIncludedIn, docs/INCLUSION.md) with the
  /// verdict memoized under the kIncludedIn encoding above. The key carries
  /// `max_antichain_pairs` (a verdict under a small cap is replayable under
  /// a larger one, but not vice versa). Counterexamples decoded from a warm
  /// hit are structurally identical to the cold run's (the singleton
  /// language has exactly one witness).
  Result<NbtaInclusionResult> IncludedIn(const NbtaIndex& a,
                                         const NbtaIndex& b,
                                         const RankedAlphabet& sigma,
                                         TaOpContext* ctx) const;

  TaOpCache* cache() const { return cache_; }

 private:
  TaOpCache* cache_;
};

}  // namespace pebbletc

#endif  // PEBBLETC_TA_OP_CACHE_H_
