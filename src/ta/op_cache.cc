#include "src/ta/op_cache.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "src/ta/nbta_index.h"
#include "src/ta/serialize.h"

namespace pebbletc {

namespace {

// splitmix64 finalizer: the repo's standard bit mixer (MixSeed, HashPairKey).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline uint64_t MixPair(uint64_t a, uint64_t b) { return Mix64(a ^ Mix64(b)); }

// Order-sensitive accumulation of a word stream into one 64-bit value; run
// with two different seeds for the two fingerprint halves.
inline uint64_t Chain(uint64_t acc, uint64_t v) {
  return (acc ^ Mix64(v)) * 1099511628211ull;
}

size_t CountDistinct(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return static_cast<size_t>(std::unique(v.begin(), v.end()) - v.begin());
}

TaStructuralHash FinishHash(const std::vector<uint64_t>& words) {
  uint64_t lo = 1469598103934665603ull;
  uint64_t hi = 0x8e4c6fcc2c1e8f3dull;
  for (uint64_t w : words) {
    lo = Chain(lo, w);
    hi = Chain(hi, w ^ 0x5bd1e9955bd1e995ull);
  }
  return {lo, hi};
}

}  // namespace

TaStructuralHash NbtaStructuralHash(const Nbta& input) {
  // Canonicalize: drop dead states, then work on deduplicated rule *sets* —
  // rule multiplicity and order carry no meaning, and neither may split
  // cache entries.
  const Nbta a = TrimNbta(input);
  std::vector<Nbta::LeafRule> leaf(a.leaf_rules);
  std::sort(leaf.begin(), leaf.end(), [](const auto& x, const auto& y) {
    return std::pair(x.symbol, x.to) < std::pair(y.symbol, y.to);
  });
  leaf.erase(std::unique(leaf.begin(), leaf.end(),
                         [](const auto& x, const auto& y) {
                           return x.symbol == y.symbol && x.to == y.to;
                         }),
             leaf.end());
  std::vector<Nbta::BinaryRule> rules(a.rules);
  auto rule_tuple = [](const Nbta::BinaryRule& r) {
    return std::tuple(r.symbol, r.left, r.right, r.to);
  };
  std::sort(rules.begin(), rules.end(), [&](const auto& x, const auto& y) {
    return rule_tuple(x) < rule_tuple(y);
  });
  rules.erase(std::unique(rules.begin(), rules.end(),
                          [&](const auto& x, const auto& y) {
                            return rule_tuple(x) == rule_tuple(y);
                          }),
              rules.end());

  // Refinement coloring (Weisfeiler–Leman over the rule hypergraph): a
  // state's next color mixes its own color with the commutative sum of the
  // color signatures of every rule it participates in, per role. The
  // partition only refines round over round, so an unchanged distinct-color
  // count means it is stable.
  const uint32_t n = a.num_states;
  std::vector<uint64_t> color(n), next(n);
  for (uint32_t q = 0; q < n; ++q) {
    color[q] = Mix64(a.accepting[q] ? 0xACCE97ull : 0x2E7EC7ull);
  }
  size_t distinct = CountDistinct(color);
  for (uint32_t round = 0; round < n; ++round) {
    for (uint32_t q = 0; q < n; ++q) next[q] = Mix64(color[q]);
    for (const Nbta::LeafRule& r : leaf) {
      next[r.to] += MixPair(0xA1, r.symbol);
    }
    for (const Nbta::BinaryRule& r : rules) {
      const uint64_t cl = color[r.left], cr = color[r.right],
                     ct = color[r.to];
      next[r.to] += Mix64(0xB1 ^ MixPair(MixPair(r.symbol, cl), cr));
      next[r.left] += Mix64(0xB2 ^ MixPair(MixPair(r.symbol, cr), ct));
      next[r.right] += Mix64(0xB3 ^ MixPair(MixPair(r.symbol, cl), ct));
    }
    color.swap(next);
    const size_t d = CountDistinct(color);
    if (d == distinct) break;
    distinct = d;
  }

  // Combine as sorted multisets so state numbering and rule order are
  // irrelevant: shape header, per-state final colors, accepting colors, and
  // per-rule color signatures.
  std::vector<uint64_t> words;
  words.reserve(2 * n + leaf.size() + rules.size() + 8);
  words.push_back(0x7067636d656d6f31ull);  // format tag
  words.push_back(n);
  words.push_back(a.num_symbols);
  words.push_back(leaf.size());
  words.push_back(rules.size());
  std::vector<uint64_t> sorted;
  sorted.assign(color.begin(), color.end());
  std::sort(sorted.begin(), sorted.end());
  words.insert(words.end(), sorted.begin(), sorted.end());
  sorted.clear();
  for (uint32_t q = 0; q < n; ++q) {
    if (a.accepting[q]) sorted.push_back(color[q]);
  }
  std::sort(sorted.begin(), sorted.end());
  words.push_back(0xACCE7ull + sorted.size());
  words.insert(words.end(), sorted.begin(), sorted.end());
  sorted.clear();
  for (const Nbta::LeafRule& r : leaf) {
    sorted.push_back(MixPair(MixPair(0xC1, r.symbol), color[r.to]));
  }
  for (const Nbta::BinaryRule& r : rules) {
    sorted.push_back(MixPair(
        MixPair(MixPair(MixPair(0xC2, r.symbol), color[r.left]),
                color[r.right]),
        color[r.to]));
  }
  std::sort(sorted.begin(), sorted.end());
  words.insert(words.end(), sorted.begin(), sorted.end());
  return FinishHash(words);
}

TaStructuralHash DbtaStructuralHash(const Dbta& d) {
  std::string bytes;
  SerializeDbta(d, &bytes);
  uint64_t lo = 1469598103934665603ull;
  uint64_t hi = 0x8e4c6fcc2c1e8f3dull;
  for (char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    lo = (lo ^ b) * 1099511628211ull;
    hi = Chain(hi, b);
  }
  return {lo, hi};
}

TaStructuralHash TaFingerprintHash(uint64_t fingerprint) {
  return {Mix64(fingerprint), Mix64(fingerprint ^ 0x9e3779b97f4a7c15ull)};
}

uint64_t RankedAlphabetFingerprint(const RankedAlphabet& sigma) {
  uint64_t h = Mix64(sigma.size());
  for (SymbolId s = 0; s < sigma.size(); ++s) {
    h = Chain(h, static_cast<uint64_t>(sigma.Rank(s)));
  }
  return h;
}

TaCacheKey MakeTaCacheKey(TaOpKind op, const TaStructuralHash& a,
                          const TaStructuralHash& b, uint64_t alphabet_fp,
                          uint64_t budget_cap) {
  TaCacheKey key;
  key.op = static_cast<uint64_t>(op);
  key.a = a;
  key.b = b;
  key.extra = MixPair(alphabet_fp, budget_cap);
  return key;
}

uint64_t TaMixFingerprints(uint64_t a, uint64_t b) { return MixPair(a, b); }

size_t TaOpCache::KeyHash::operator()(const TaCacheKey& k) const {
  uint64_t h = Mix64(k.op);
  h = Chain(h, k.a.lo);
  h = Chain(h, k.a.hi);
  h = Chain(h, k.b.lo);
  h = Chain(h, k.b.hi);
  h = Chain(h, k.extra);
  return static_cast<size_t>(h);
}

TaOpCache::TaOpCache(size_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

TaOpCache::~TaOpCache() {
  if (!dir_.empty()) (void)Flush();
}

TaOpCache& TaOpCache::Global() {
  static TaOpCache* cache = new TaOpCache();
  return *cache;
}

void TaOpCache::Touch(Entry& e) {
  lru_.splice(lru_.begin(), lru_, e.lru_it);
}

std::shared_ptr<const Nbta> TaOpCache::FindNbta(const TaCacheKey& key,
                                                TaOpContext* ctx) {
  std::shared_ptr<const Nbta> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second.nbta != nullptr) {
      Touch(it->second);
      out = it->second.nbta;
    }
  }
  if (ctx != nullptr) {
    (out != nullptr ? ctx->counters.memo_hits : ctx->counters.memo_misses)++;
  }
  return out;
}

std::shared_ptr<const Dbta> TaOpCache::FindDbta(const TaCacheKey& key,
                                                TaOpContext* ctx) {
  std::shared_ptr<const Dbta> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second.dbta != nullptr) {
      Touch(it->second);
      out = it->second.dbta;
    }
  }
  if (ctx != nullptr) {
    (out != nullptr ? ctx->counters.memo_hits : ctx->counters.memo_misses)++;
  }
  return out;
}

void TaOpCache::EvictToFitLocked(size_t incoming_bytes, TaOpContext* ctx) {
  while (!lru_.empty() && size_bytes_ + incoming_bytes > capacity_bytes_) {
    const TaCacheKey victim = lru_.back();
    auto it = map_.find(victim);
    size_bytes_ -= it->second.bytes;
    lru_.pop_back();
    map_.erase(it);
    if (ctx != nullptr) ctx->counters.memo_evictions++;
  }
}

void TaOpCache::InsertLocked(const TaCacheKey& key, Entry entry,
                             TaOpContext* ctx) {
  auto it = map_.find(key);
  if (it != map_.end()) {
    Touch(it->second);
    return;
  }
  // An entry bigger than the whole cache would evict everything for nothing.
  if (entry.bytes > capacity_bytes_) return;
  EvictToFitLocked(entry.bytes, ctx);
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  size_bytes_ += entry.bytes;
  if (ctx != nullptr) ctx->counters.memo_bytes += entry.bytes;
  map_.emplace(key, std::move(entry));
}

namespace {

size_t NbtaBytes(const Nbta& a) {
  return sizeof(Nbta) + a.accepting.size() / 8 +
         a.leaf_rules.size() * sizeof(Nbta::LeafRule) +
         a.rules.size() * sizeof(Nbta::BinaryRule);
}

size_t DbtaBytes(const Dbta& d) {
  return sizeof(Dbta) + d.num_states() / 8 +
         (static_cast<size_t>(d.num_symbols()) * d.num_states() *
              d.num_states() +
          d.num_symbols()) *
             sizeof(StateId);
}

void PutU32File(uint32_t v, std::string* out) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(b, 4);
}

void PutU64File(uint64_t v, std::string* out) {
  PutU32File(static_cast<uint32_t>(v & 0xffffffffu), out);
  PutU32File(static_cast<uint32_t>(v >> 32), out);
}

bool GetU32File(std::string_view bytes, size_t* pos, uint32_t* v) {
  if (bytes.size() - *pos < 4) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data() + *pos);
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) |
       (static_cast<uint32_t>(p[3]) << 24);
  *pos += 4;
  return true;
}

bool GetU64File(std::string_view bytes, size_t* pos, uint64_t* v) {
  uint32_t lo = 0, hi = 0;
  if (!GetU32File(bytes, pos, &lo) || !GetU32File(bytes, pos, &hi)) {
    return false;
  }
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

std::string HexU64(uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

constexpr uint32_t kEntryMagic = 0x4d435450u;  // "PTCM"
constexpr uint32_t kEntryVersion = 1;
constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "pebbletc-memo-manifest v1";

std::string EntryFileName(const TaCacheKey& key) {
  uint64_t h = Mix64(key.op);
  h = (h ^ Mix64(key.a.lo)) * 1099511628211ull;
  h = (h ^ Mix64(key.a.hi)) * 1099511628211ull;
  h = (h ^ Mix64(key.b.lo)) * 1099511628211ull;
  h = (h ^ Mix64(key.b.hi)) * 1099511628211ull;
  h = (h ^ Mix64(key.extra)) * 1099511628211ull;
  return HexU64(h) + ".ta";
}

}  // namespace

Status TaOpCache::WriteEntryFile(const TaCacheKey& key,
                                 const Entry& entry) const {
  std::string payload;
  uint32_t kind = 0;
  if (entry.nbta != nullptr) {
    SerializeNbta(*entry.nbta, &payload);
  } else {
    kind = 1;
    SerializeDbta(*entry.dbta, &payload);
  }
  std::string file;
  PutU32File(kEntryMagic, &file);
  PutU32File(kEntryVersion, &file);
  PutU64File(key.op, &file);
  PutU64File(key.a.lo, &file);
  PutU64File(key.a.hi, &file);
  PutU64File(key.b.lo, &file);
  PutU64File(key.b.hi, &file);
  PutU64File(key.extra, &file);
  PutU32File(kind, &file);
  PutU32File(static_cast<uint32_t>(payload.size()), &file);
  PutU64File(TaPayloadChecksum(payload), &file);
  file += payload;

  const std::filesystem::path path =
      std::filesystem::path(dir_) / EntryFileName(key);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot write cache entry " + path.string());
  }
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
  out.close();
  if (!out) {
    return Status::Internal("short write on cache entry " + path.string());
  }
  return Status::OK();
}

void TaOpCache::InsertNbta(const TaCacheKey& key, const Nbta& value,
                           TaOpContext* ctx) {
  Entry e;
  e.nbta = std::make_shared<const Nbta>(value);
  e.bytes = NbtaBytes(value);
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key, std::move(e), ctx);
  if (!dir_.empty()) {
    auto it = map_.find(key);
    if (it != map_.end()) (void)WriteEntryFile(key, it->second);
  }
}

void TaOpCache::InsertDbta(const TaCacheKey& key, const Dbta& value,
                           TaOpContext* ctx) {
  Entry e;
  e.dbta = std::make_shared<const Dbta>(value);
  e.bytes = DbtaBytes(value);
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key, std::move(e), ctx);
  if (!dir_.empty()) {
    auto it = map_.find(key);
    if (it != map_.end()) (void)WriteEntryFile(key, it->second);
  }
}

void TaOpCache::set_capacity_bytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_bytes_ = bytes;
  EvictToFitLocked(0, nullptr);
}

size_t TaOpCache::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_bytes_;
}

size_t TaOpCache::size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_bytes_;
}

size_t TaOpCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void TaOpCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  size_bytes_ = 0;
}

Status TaOpCache::AttachPersistentDir(const std::string& dir, size_t* loaded,
                                      size_t* quarantined) {
  if (loaded != nullptr) *loaded = 0;
  if (quarantined != nullptr) *quarantined = 0;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create memo dir " + dir + ": " +
                            ec.message());
  }
  std::lock_guard<std::mutex> lock(mu_);
  dir_ = dir;

  const std::filesystem::path manifest =
      std::filesystem::path(dir) / kManifestName;
  std::ifstream in(manifest);
  if (!in) return Status::OK();  // fresh directory: nothing to load
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    return Status::ParseError("unrecognized memo manifest header in " + dir);
  }
  auto quarantine = [&](const std::filesystem::path& p) {
    std::error_code rec;
    std::filesystem::rename(p, p.string() + ".quarantined", rec);
    if (quarantined != nullptr) ++*quarantined;
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string name, checksum_hex;
    if (!(fields >> name >> checksum_hex) ||
        name.find('/') != std::string::npos || name.find("..") == 0) {
      continue;  // malformed manifest line: skip, never trust
    }
    const std::filesystem::path path = std::filesystem::path(dir) / name;
    std::ifstream entry_in(path, std::ios::binary);
    if (!entry_in) continue;  // listed but absent: already gone
    std::string bytes((std::istreambuf_iterator<char>(entry_in)),
                      std::istreambuf_iterator<char>());
    size_t pos = 0;
    uint32_t magic = 0, version = 0, kind = 0, payload_len = 0;
    TaCacheKey key;
    uint64_t stored_checksum = 0;
    const bool header_ok =
        GetU32File(bytes, &pos, &magic) && magic == kEntryMagic &&
        GetU32File(bytes, &pos, &version) && version == kEntryVersion &&
        GetU64File(bytes, &pos, &key.op) &&
        GetU64File(bytes, &pos, &key.a.lo) &&
        GetU64File(bytes, &pos, &key.a.hi) &&
        GetU64File(bytes, &pos, &key.b.lo) &&
        GetU64File(bytes, &pos, &key.b.hi) &&
        GetU64File(bytes, &pos, &key.extra) &&
        GetU32File(bytes, &pos, &kind) &&
        GetU32File(bytes, &pos, &payload_len) &&
        GetU64File(bytes, &pos, &stored_checksum);
    if (!header_ok || bytes.size() - pos != payload_len) {
      quarantine(path);
      continue;
    }
    // The filename is a hash of the key, so a bit-flip in the stored key —
    // which the payload checksum cannot see — breaks this equation and the
    // entry is never trusted under the wrong key.
    if (EntryFileName(key) != name) {
      quarantine(path);
      continue;
    }
    const std::string_view payload(bytes.data() + pos, payload_len);
    const uint64_t checksum = TaPayloadChecksum(payload);
    if (checksum != stored_checksum || HexU64(checksum) != checksum_hex) {
      quarantine(path);
      continue;
    }
    Entry e;
    if (kind == 0) {
      Result<Nbta> a = DeserializeNbta(payload);
      if (!a.ok()) {
        quarantine(path);
        continue;
      }
      e.bytes = NbtaBytes(*a);
      e.nbta = std::make_shared<const Nbta>(*std::move(a));
    } else if (kind == 1) {
      Result<Dbta> d = DeserializeDbta(payload);
      if (!d.ok()) {
        quarantine(path);
        continue;
      }
      e.bytes = DbtaBytes(*d);
      e.dbta = std::make_shared<const Dbta>(*std::move(d));
    } else {
      quarantine(path);
      continue;
    }
    const size_t before = map_.size();
    InsertLocked(key, std::move(e), nullptr);
    if (loaded != nullptr && map_.size() > before) ++*loaded;
  }
  return Status::OK();
}

Status TaOpCache::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    return Status::FailedPrecondition("no persistent directory attached");
  }
  std::ostringstream manifest;
  manifest << kManifestHeader << "\n";
  // Least-recent first, so a capacity-bound reload re-inserts in recency
  // order and ends with the same LRU front.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const Entry& e = map_.at(*it);
    std::string payload;
    if (e.nbta != nullptr) {
      SerializeNbta(*e.nbta, &payload);
    } else {
      SerializeDbta(*e.dbta, &payload);
    }
    manifest << EntryFileName(*it) << " " << HexU64(TaPayloadChecksum(payload))
             << "\n";
  }
  const std::filesystem::path path =
      std::filesystem::path(dir_) / kManifestName;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot write memo manifest " + path.string());
  }
  out << manifest.str();
  out.close();
  if (!out) {
    return Status::Internal("short write on memo manifest " + path.string());
  }
  return Status::OK();
}

TaAlgebra::TaAlgebra(TaOpCache* cache)
    : cache_(cache != nullptr ? cache : &TaOpCache::Global()) {}

bool TaAlgebra::Enabled(const TaOpContext* ctx) {
  return ctx != nullptr && ctx->budgets.memo != TaMemoMode::kOff &&
         ctx->fault == nullptr;
}

Result<Dbta> TaAlgebra::Determinize(const NbtaIndex& a,
                                    const RankedAlphabet& sigma,
                                    TaOpContext* ctx) const {
  if (!Enabled(ctx)) return DeterminizeNbta(a, sigma, ctx);
  const TaCacheKey key = MakeTaCacheKey(
      TaOpKind::kDeterminize, NbtaStructuralHash(a.nbta()), TaStructuralHash{},
      RankedAlphabetFingerprint(sigma), ctx->budgets.max_det_states);
  if (std::shared_ptr<const Dbta> hit = cache_->FindDbta(key, ctx)) {
    return *hit;
  }
  Result<Dbta> r = DeterminizeNbta(a, sigma, ctx);
  if (r.ok() && TaInterruptStatus(ctx).ok()) cache_->InsertDbta(key, *r, ctx);
  return r;
}

Result<std::shared_ptr<const Dbta>> TaAlgebra::MembershipTable(
    const NbtaIndex& a, const RankedAlphabet& sigma, TaOpContext* ctx) const {
  if (!Enabled(ctx)) {
    PEBBLETC_ASSIGN_OR_RETURN(Dbta d, DeterminizeNbta(a, sigma, ctx));
    return std::make_shared<const Dbta>(std::move(d));
  }
  const TaCacheKey key = MakeTaCacheKey(
      TaOpKind::kCompiledMembership, NbtaStructuralHash(a.nbta()),
      TaStructuralHash{}, RankedAlphabetFingerprint(sigma),
      ctx->budgets.max_det_states);
  if (std::shared_ptr<const Dbta> hit = cache_->FindDbta(key, ctx)) {
    return hit;
  }
  PEBBLETC_ASSIGN_OR_RETURN(Dbta d, DeterminizeNbta(a, sigma, ctx));
  auto table = std::make_shared<const Dbta>(std::move(d));
  if (TaInterruptStatus(ctx).ok()) cache_->InsertDbta(key, *table, ctx);
  return table;
}

Result<Nbta> TaAlgebra::Complement(const NbtaIndex& a,
                                   const RankedAlphabet& sigma,
                                   TaOpContext* ctx) const {
  if (!Enabled(ctx)) return ComplementNbta(a, sigma, ctx);
  const TaCacheKey key = MakeTaCacheKey(
      TaOpKind::kComplement, NbtaStructuralHash(a.nbta()), TaStructuralHash{},
      RankedAlphabetFingerprint(sigma), ctx->budgets.max_det_states);
  if (std::shared_ptr<const Nbta> hit = cache_->FindNbta(key, ctx)) {
    return *hit;
  }
  Result<Nbta> r = ComplementNbta(a, sigma, ctx);
  if (r.ok() && TaInterruptStatus(ctx).ok()) cache_->InsertNbta(key, *r, ctx);
  return r;
}

Nbta TaAlgebra::Intersect(const NbtaIndex& a, const NbtaIndex& b,
                          TaOpContext* ctx) const {
  if (!Enabled(ctx)) return IntersectNbta(a, b, ctx);
  // Operand order is kept in the key: swapping operands yields a renamed
  // (language-equal but not replay-exact) product.
  const TaCacheKey key = MakeTaCacheKey(
      TaOpKind::kIntersect, NbtaStructuralHash(a.nbta()),
      NbtaStructuralHash(b.nbta()), /*alphabet_fp=*/0, /*budget_cap=*/0);
  if (std::shared_ptr<const Nbta> hit = cache_->FindNbta(key, ctx)) {
    return *hit;
  }
  Nbta r = IntersectNbta(a, b, ctx);
  if (TaInterruptStatus(ctx).ok()) cache_->InsertNbta(key, r, ctx);
  return r;
}

Result<NbtaInclusionResult> TaAlgebra::IncludedIn(const NbtaIndex& a,
                                                  const NbtaIndex& b,
                                                  const RankedAlphabet& sigma,
                                                  TaOpContext* ctx) const {
  if (!Enabled(ctx)) return NbtaIncludedIn(a, b, sigma, ctx);
  // Operand order is semantic (A ⊆ B vs B ⊆ A), so both hashes enter the
  // key in place.
  const TaCacheKey key = MakeTaCacheKey(
      TaOpKind::kIncludedIn, NbtaStructuralHash(a.nbta()),
      NbtaStructuralHash(b.nbta()), RankedAlphabetFingerprint(sigma),
      ctx->budgets.max_antichain_pairs);
  if (std::shared_ptr<const Nbta> hit = cache_->FindNbta(key, ctx)) {
    // Decode the verdict automaton: empty language ⇔ included; otherwise
    // its unique tree is the counterexample.
    NbtaIndex hit_idx(*hit, ctx);
    if (IsEmptyNbta(hit_idx, ctx)) {
      PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(ctx));
      return NbtaInclusionResult{true, std::nullopt};
    }
    std::optional<BinaryTree> witness = WitnessTree(hit_idx, ctx);
    PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(ctx));
    PEBBLETC_CHECK(witness.has_value()) << "non-empty verdict automaton";
    return NbtaInclusionResult{false, std::move(witness)};
  }
  Result<NbtaInclusionResult> r = NbtaIncludedIn(a, b, sigma, ctx);
  if (r.ok() && TaInterruptStatus(ctx).ok()) {
    const Nbta verdict =
        r->included
            ? EmptyLanguageNbta(sigma)
            : SingletonTreeNbta(*r->counterexample, a.num_symbols());
    cache_->InsertNbta(key, verdict, ctx);
  }
  return r;
}

Result<Dbta> TaAlgebra::Minimize(const Dbta& d, const RankedAlphabet& sigma,
                                 TaOpContext* ctx) const {
  if (!Enabled(ctx)) return MinimizeDbta(d, sigma, ctx);
  // No state budget applies to minimization, so no cap enters the key.
  const TaCacheKey key = MakeTaCacheKey(
      TaOpKind::kMinimize, DbtaStructuralHash(d), TaStructuralHash{},
      RankedAlphabetFingerprint(sigma), /*budget_cap=*/0);
  if (std::shared_ptr<const Dbta> hit = cache_->FindDbta(key, ctx)) {
    return *hit;
  }
  Result<Dbta> r = MinimizeDbta(d, sigma, ctx);
  if (r.ok() && TaInterruptStatus(ctx).ok()) cache_->InsertDbta(key, *r, ctx);
  return r;
}

}  // namespace pebbletc
