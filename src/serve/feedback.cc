#include "serve/feedback.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "serve/explorer.h"
#include "util/byte_io.h"

namespace sqp {
namespace {

namespace fs = std::filesystem;

// Segment header: magic "SQFB" (LE u32), u16 format version, u16 reserved.
constexpr uint32_t kSegmentMagic = 0x42465153u;
constexpr uint16_t kSegmentFormatVersion = 1;
constexpr size_t kSegmentHeaderBytes = 8;

// Record body leads with [u8 record type][u8 record version].
constexpr uint8_t kRecordImpression = 1;
constexpr uint8_t kRecordClick = 2;
constexpr uint8_t kRecordVersion = 1;

// Defensive caps on CRC-validated lengths, so a hostile file cannot make
// the reader allocate unbounded memory.
constexpr uint32_t kMaxBodyBytes = 1u << 26;
constexpr uint32_t kMaxListLen = 1u << 20;

void AppendU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  uint8_t b[4];
  StoreLE32(b, v);
  out->insert(out->end(), b, b + 4);
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  uint8_t b[8];
  StoreLE64(b, v);
  out->insert(out->end(), b, b + 8);
}

void AppendF64(std::vector<uint8_t>* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

std::vector<uint8_t> EncodeImpressionBody(const FeedbackRecord& record) {
  std::vector<uint8_t> body;
  body.reserve(40 + record.context.size() * 4 + record.served.size() * 20);
  AppendU8(&body, kRecordImpression);
  AppendU8(&body, kRecordVersion);
  AppendU64(&body, record.record_id);
  AppendU64(&body, record.snapshot_version);
  AppendU8(&body, static_cast<uint8_t>(record.policy));
  AppendF64(&body, record.policy_param);
  AppendU32(&body, static_cast<uint32_t>(record.context.size()));
  AppendU32(&body, static_cast<uint32_t>(record.served.size()));
  for (QueryId q : record.context) AppendU32(&body, q);
  for (const ServedItem& item : record.served) {
    AppendU32(&body, item.query);
    AppendF64(&body, item.score);
    AppendF64(&body, item.propensity);
  }
  return body;
}

std::vector<uint8_t> EncodeClickBody(uint64_t impression_record_id,
                                     uint32_t position) {
  std::vector<uint8_t> body;
  body.reserve(14);
  AppendU8(&body, kRecordClick);
  AppendU8(&body, kRecordVersion);
  AppendU64(&body, impression_record_id);
  AppendU32(&body, position);
  return body;
}

/// Cursor over one decoded record body (already CRC-validated).
struct BodyCursor {
  const uint8_t* p;
  const uint8_t* end;

  bool U8(uint8_t* v) {
    if (end - p < 1) return false;
    *v = *p++;
    return true;
  }
  bool U32(uint32_t* v) {
    if (end - p < 4) return false;
    *v = LoadLE32(p);
    p += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (end - p < 8) return false;
    *v = LoadLE64(p);
    p += 8;
    return true;
  }
  bool F64(double* v) {
    uint64_t u;
    if (!U64(&u)) return false;
    *v = std::bit_cast<double>(u);
    return true;
  }
};

struct ClickEvent {
  uint64_t impression_record_id;
  uint32_t position;
};

/// What one segment scan produced. `valid_bytes` is the byte offset of the
/// end of the last intact record — the truncation point for crash recovery.
struct SegmentScan {
  std::vector<FeedbackRecord> impressions;
  std::vector<ClickEvent> clicks;
  size_t torn_records = 0;
  uint64_t valid_bytes = 0;
  bool header_ok = false;
};

bool DecodeImpression(BodyCursor cur, FeedbackRecord* out) {
  uint8_t policy = 0;
  uint32_t context_len = 0;
  uint32_t served_len = 0;
  if (!cur.U64(&out->record_id) || !cur.U64(&out->snapshot_version) ||
      !cur.U8(&policy) || !cur.F64(&out->policy_param) ||
      !cur.U32(&context_len) || !cur.U32(&served_len)) {
    return false;
  }
  if (context_len > kMaxListLen || served_len > kMaxListLen) return false;
  out->policy = static_cast<ExplorePolicy>(policy);
  out->context.resize(context_len);
  for (uint32_t i = 0; i < context_len; ++i) {
    if (!cur.U32(&out->context[i])) return false;
  }
  out->served.resize(served_len);
  for (uint32_t i = 0; i < served_len; ++i) {
    ServedItem& item = out->served[i];
    if (!cur.U32(&item.query) || !cur.F64(&item.score) ||
        !cur.F64(&item.propensity)) {
      return false;
    }
  }
  out->clicked_position = kFeedbackNoClick;
  return true;
}

SegmentScan ScanSegment(const std::string& path) {
  SegmentScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in) return scan;

  uint8_t header[kSegmentHeaderBytes];
  if (!in.read(reinterpret_cast<char*>(header), sizeof(header))) return scan;
  if (LoadLE32(header) != kSegmentMagic ||
      LoadLE16(header + 4) != kSegmentFormatVersion) {
    return scan;
  }
  scan.header_ok = true;
  scan.valid_bytes = kSegmentHeaderBytes;

  std::vector<uint8_t> body;
  for (;;) {
    uint8_t len_bytes[4];
    if (!in.read(reinterpret_cast<char*>(len_bytes), 4)) break;  // clean EOF
    const uint32_t body_len = LoadLE32(len_bytes);
    if (body_len < 2 || body_len > kMaxBodyBytes) {
      ++scan.torn_records;
      break;
    }
    body.resize(body_len);
    uint8_t crc_bytes[4];
    if (!in.read(reinterpret_cast<char*>(body.data()), body_len) ||
        !in.read(reinterpret_cast<char*>(crc_bytes), 4)) {
      ++scan.torn_records;  // the tail record was torn mid-write
      break;
    }
    if (Crc32(body.data(), body.size()) != LoadLE32(crc_bytes)) {
      ++scan.torn_records;
      break;
    }
    BodyCursor cur{body.data() + 2, body.data() + body.size()};
    const uint8_t type = body[0];
    const uint8_t version = body[1];
    bool decoded = false;
    if (version == kRecordVersion && type == kRecordImpression) {
      FeedbackRecord record;
      if (DecodeImpression(cur, &record)) {
        scan.impressions.push_back(std::move(record));
        decoded = true;
      }
    } else if (version == kRecordVersion && type == kRecordClick) {
      ClickEvent click{};
      if (cur.U64(&click.impression_record_id) && cur.U32(&click.position)) {
        scan.clicks.push_back(click);
        decoded = true;
      }
    } else {
      // An unknown record type/version with a valid CRC is a future
      // format extension, not corruption: skip it, keep scanning.
      decoded = true;
    }
    if (!decoded) {
      ++scan.torn_records;
      break;
    }
    scan.valid_bytes += 8 + body_len;
  }
  return scan;
}

/// Parses "feedback.<seq>.seg" / "feedback.<seq>.open" filenames.
bool ParseSegmentName(const std::string& name, uint64_t* seq, bool* sealed) {
  constexpr std::string_view kPrefix = "feedback.";
  if (name.size() <= kPrefix.size() || name.compare(0, kPrefix.size(), kPrefix)) {
    return false;
  }
  size_t pos = kPrefix.size();
  uint64_t value = 0;
  size_t digits = 0;
  while (pos < name.size() && name[pos] >= '0' && name[pos] <= '9') {
    value = value * 10 + static_cast<uint64_t>(name[pos] - '0');
    ++pos;
    ++digits;
  }
  if (digits == 0) return false;
  const std::string_view rest(name.c_str() + pos);
  if (rest == ".seg") {
    *sealed = true;
  } else if (rest == ".open") {
    *sealed = false;
  } else {
    return false;
  }
  *seq = value;
  return true;
}

}  // namespace

const char* ExplorePolicyName(ExplorePolicy policy) {
  switch (policy) {
    case ExplorePolicy::kNone:
      return "none";
    case ExplorePolicy::kEpsilonGreedy:
      return "epsilon";
    case ExplorePolicy::kSoftmax:
      return "softmax";
    case ExplorePolicy::kBag:
      return "bag";
  }
  return "unknown";
}

FeedbackLog::FeedbackLog(FeedbackLogOptions options)
    : options_(std::move(options)) {}

FeedbackLog::~FeedbackLog() {
  std::lock_guard<std::mutex> lock(io_mu_);
  if (out_.is_open()) out_.close();
  // The .open segment stays behind; the next Open() seals its valid
  // prefix, so nothing written before destruction is lost.
}

std::string FeedbackLog::SegmentPath(uint64_t seq, bool sealed) const {
  char name[64];
  std::snprintf(name, sizeof(name), "feedback.%06llu.%s",
                static_cast<unsigned long long>(seq), sealed ? "seg" : "open");
  return (fs::path(options_.dir) / name).string();
}

Result<std::unique_ptr<FeedbackLog>> FeedbackLog::Open(
    FeedbackLogOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("feedback log dir must not be empty");
  }
  if (options.max_segments == 0) {
    return Status::InvalidArgument("feedback log max_segments must be > 0");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("cannot create feedback dir " + options.dir + ": " +
                           ec.message());
  }

  auto log = std::unique_ptr<FeedbackLog>(new FeedbackLog(std::move(options)));

  // Inventory existing segments.
  std::vector<uint64_t> sealed;
  std::vector<uint64_t> open_segs;
  for (const auto& entry : fs::directory_iterator(log->options_.dir, ec)) {
    uint64_t seq = 0;
    bool is_sealed = false;
    if (!ParseSegmentName(entry.path().filename().string(), &seq, &is_sealed)) {
      continue;
    }
    (is_sealed ? sealed : open_segs).push_back(seq);
  }
  if (ec) {
    return Status::IOError("cannot list feedback dir " + log->options_.dir +
                           ": " + ec.message());
  }
  std::sort(sealed.begin(), sealed.end());
  std::sort(open_segs.begin(), open_segs.end());

  uint64_t max_seq = 0;
  uint64_t max_record_id = 0;
  for (uint64_t seq : sealed) {
    max_seq = std::max(max_seq, seq);
    SegmentScan scan = ScanSegment(log->SegmentPath(seq, /*sealed=*/true));
    for (const FeedbackRecord& record : scan.impressions) {
      max_record_id = std::max(max_record_id, record.record_id);
    }
  }

  // Recover .open segments left by a crashed (or just destroyed) writer:
  // truncate the torn tail and seal the valid prefix; delete empty ones.
  for (uint64_t seq : open_segs) {
    max_seq = std::max(max_seq, seq);
    const std::string open_path = log->SegmentPath(seq, /*sealed=*/false);
    SegmentScan scan = ScanSegment(open_path);
    const bool has_records = !scan.impressions.empty() || !scan.clicks.empty();
    if (!scan.header_ok || !has_records) {
      fs::remove(open_path, ec);
      continue;
    }
    for (const FeedbackRecord& record : scan.impressions) {
      max_record_id = std::max(max_record_id, record.record_id);
    }
    fs::resize_file(open_path, scan.valid_bytes, ec);
    if (ec) {
      return Status::IOError("cannot truncate torn feedback segment " +
                             open_path + ": " + ec.message());
    }
    fs::rename(open_path, log->SegmentPath(seq, /*sealed=*/true), ec);
    if (ec) {
      return Status::IOError("cannot seal recovered feedback segment " +
                             open_path + ": " + ec.message());
    }
    sealed.push_back(seq);
  }
  std::sort(sealed.begin(), sealed.end());

  log->sealed_seqs_ = std::move(sealed);
  log->next_record_id_.store(max_record_id + 1, std::memory_order_relaxed);
  log->active_seq_ = max_seq + 1;
  {
    std::lock_guard<std::mutex> lock(log->io_mu_);
    SQP_RETURN_IF_ERROR(log->StartSegment());
    // Enforce the retention bound immediately: a reopened log may have
    // inherited more sealed segments than options allow.
    while (log->sealed_seqs_.size() > log->options_.max_segments) {
      fs::remove(log->SegmentPath(log->sealed_seqs_.front(), true), ec);
      log->sealed_seqs_.erase(log->sealed_seqs_.begin());
      log->segments_deleted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return log;
}

Status FeedbackLog::StartSegment() {
  const std::string path = SegmentPath(active_seq_, /*sealed=*/false);
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    return Status::IOError("cannot open feedback segment " + path);
  }
  uint8_t header[kSegmentHeaderBytes];
  StoreLE32(header, kSegmentMagic);
  StoreLE16(header + 4, kSegmentFormatVersion);
  StoreLE16(header + 6, 0);
  out_.write(reinterpret_cast<const char*>(header), sizeof(header));
  if (!out_) {
    return Status::IOError("cannot write feedback segment header to " + path);
  }
  active_bytes_ = kSegmentHeaderBytes;
  active_records_ = 0;
  return Status::OK();
}

Status FeedbackLog::SealLocked() {
  if (active_records_ == 0) return Status::OK();
  out_.flush();
  out_.close();
  if (out_.fail()) {
    return Status::IOError("feedback segment close failed");
  }
  std::error_code ec;
  fs::rename(SegmentPath(active_seq_, false), SegmentPath(active_seq_, true),
             ec);
  if (ec) {
    return Status::IOError("cannot seal feedback segment: " + ec.message());
  }
  sealed_seqs_.push_back(active_seq_);
  segments_sealed_.fetch_add(1, std::memory_order_relaxed);
  while (sealed_seqs_.size() > options_.max_segments) {
    fs::remove(SegmentPath(sealed_seqs_.front(), true), ec);
    sealed_seqs_.erase(sealed_seqs_.begin());
    segments_deleted_.fetch_add(1, std::memory_order_relaxed);
  }
  ++active_seq_;
  return StartSegment();
}

Status FeedbackLog::AppendBody(const std::vector<uint8_t>& body,
                               bool is_click) {
  const uint64_t framed = 8 + body.size();
  if (active_records_ > 0 &&
      active_bytes_ + framed > options_.max_segment_bytes) {
    SQP_RETURN_IF_ERROR(SealLocked());
  }
  uint8_t trailer[8];
  StoreLE32(trailer, static_cast<uint32_t>(body.size()));
  StoreLE32(trailer + 4, Crc32(body.data(), body.size()));
  out_.write(reinterpret_cast<const char*>(trailer), 4);
  out_.write(reinterpret_cast<const char*>(body.data()),
             static_cast<std::streamsize>(body.size()));
  out_.write(reinterpret_cast<const char*>(trailer + 4), 4);
  out_.flush();
  if (!out_) {
    dropped_appends_.fetch_add(1, std::memory_order_relaxed);
    out_.clear();
    return Status::IOError("feedback append failed (record dropped)");
  }
  active_bytes_ += framed;
  ++active_records_;
  (is_click ? clicks_appended_ : impressions_appended_)
      .fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FeedbackLog::AppendImpression(const FeedbackRecord& record) {
  if (record.record_id == 0) {
    return Status::InvalidArgument("impression record_id must be > 0");
  }
  const std::vector<uint8_t> body = EncodeImpressionBody(record);
  std::lock_guard<std::mutex> lock(io_mu_);
  return AppendBody(body, /*is_click=*/false);
}

Status FeedbackLog::RecordClick(uint64_t impression_record_id,
                                uint32_t position) {
  if (impression_record_id == 0) {
    return Status::InvalidArgument("click impression_record_id must be > 0");
  }
  const std::vector<uint8_t> body =
      EncodeClickBody(impression_record_id, position);
  std::lock_guard<std::mutex> lock(io_mu_);
  return AppendBody(body, /*is_click=*/true);
}

Status FeedbackLog::Seal() {
  std::lock_guard<std::mutex> lock(io_mu_);
  return SealLocked();
}

Status FeedbackLog::Flush() {
  std::lock_guard<std::mutex> lock(io_mu_);
  out_.flush();
  if (!out_) {
    out_.clear();
    return Status::IOError("feedback flush failed");
  }
  return Status::OK();
}

FeedbackLogStats FeedbackLog::stats() const {
  FeedbackLogStats s;
  s.impressions_appended = impressions_appended_.load(std::memory_order_relaxed);
  s.clicks_appended = clicks_appended_.load(std::memory_order_relaxed);
  s.dropped_appends = dropped_appends_.load(std::memory_order_relaxed);
  s.segments_sealed = segments_sealed_.load(std::memory_order_relaxed);
  s.segments_deleted = segments_deleted_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    s.active_segment_bytes = active_bytes_;
  }
  return s;
}

Result<std::vector<FeedbackRecord>> ReadFeedbackLog(const std::string& dir,
                                                    FeedbackReadReport* report) {
  FeedbackReadReport local;
  FeedbackReadReport* rep = report ? report : &local;
  *rep = FeedbackReadReport{};

  std::vector<FeedbackRecord> records;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return records;

  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    bool sealed = false;
    if (!ParseSegmentName(entry.path().filename().string(), &seq, &sealed)) {
      continue;
    }
    segments.emplace_back(seq, entry.path().string());
  }
  if (ec) {
    return Status::IOError("cannot list feedback dir " + dir + ": " +
                           ec.message());
  }
  std::sort(segments.begin(), segments.end());

  std::vector<ClickEvent> clicks;
  for (const auto& [seq, path] : segments) {
    SegmentScan scan = ScanSegment(path);
    rep->torn_records += scan.torn_records;
    rep->impressions += scan.impressions.size();
    rep->clicks += scan.clicks.size();
    for (FeedbackRecord& record : scan.impressions) {
      records.push_back(std::move(record));
    }
    clicks.insert(clicks.end(), scan.clicks.begin(), scan.clicks.end());
  }

  std::sort(records.begin(), records.end(),
            [](const FeedbackRecord& a, const FeedbackRecord& b) {
              return a.record_id < b.record_id;
            });

  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    by_id.emplace(records[i].record_id, i);
  }
  for (const ClickEvent& click : clicks) {
    auto it = by_id.find(click.impression_record_id);
    if (it == by_id.end()) {
      ++rep->unmatched_clicks;
      continue;
    }
    // First click wins: duplicates (retries, replays) don't move it.
    if (records[it->second].clicked_position == kFeedbackNoClick) {
      records[it->second].clicked_position = click.position;
    }
  }
  return records;
}

std::vector<AggregatedSession> SessionsFromFeedback(
    std::span<const FeedbackRecord> records) {
  std::vector<AggregatedSession> sessions;
  for (const FeedbackRecord& record : records) {
    if (record.clicked_position == kFeedbackNoClick) continue;
    if (record.clicked_position >= record.served.size()) continue;
    if (record.context.empty()) continue;
    const QueryId clicked = record.served[record.clicked_position].query;
    if (clicked == kInvalidQueryId) continue;
    AggregatedSession session;
    session.queries = record.context;
    session.queries.push_back(clicked);
    session.frequency = 1;
    sessions.push_back(std::move(session));
  }
  return sessions;
}

Result<std::vector<AggregatedSession>> FeedbackConsumer::Consume(
    const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  Result<std::vector<FeedbackRecord>> records = ReadFeedbackLog(dir);
  if (!records.ok()) return records.status();
  // Candidate ids: the holes, then everything past the watermark. One
  // merge walk over the (id-sorted) records takes the candidates present
  // and rebuilds the holes from the ones still absent.
  std::vector<IdRange> open = std::move(holes_);
  open.push_back({watermark_ + 1, std::numeric_limits<uint64_t>::max()});
  holes_.clear();
  std::vector<FeedbackRecord> fresh;
  size_t r = 0;
  uint64_t next = open[0].first;  // lowest unaccounted id of open[r]
  for (FeedbackRecord& record : *records) {
    const uint64_t id = record.record_id;
    while (id > open[r].last) {
      if (next <= open[r].last) holes_.push_back({next, open[r].last});
      next = open[++r].first;
    }
    if (id < next) continue;  // consumed before
    if (id > next) holes_.push_back({next, id - 1});
    next = id + 1;
    watermark_ = std::max(watermark_, id);
    fresh.push_back(std::move(record));
  }
  for (; r < open.size(); ++r) {
    const uint64_t last = std::min(open[r].last, watermark_);
    if (next <= last) holes_.push_back({next, last});
    if (r + 1 < open.size()) next = open[r + 1].first;
  }
  return SessionsFromFeedback(fresh);
}

uint64_t FeedbackHook::OnServed(std::span<const QueryId> context,
                                uint64_t served_version,
                                Recommendation* rec) const {
  if (rec == nullptr || !rec->covered || rec->queries.empty()) return 0;
  const bool exploring = explorer != nullptr && explorer->enabled();
  if (log == nullptr && !exploring) return 0;

  const uint64_t record_id =
      log != nullptr ? log->NextRecordId()
                     : unlogged_id_.fetch_add(1, std::memory_order_relaxed);

  std::vector<double> propensities;
  if (explorer != nullptr) {
    explorer->Rerank(record_id, &rec->queries, &propensities);
  } else {
    propensities.assign(rec->queries.size(), 0.0);
    propensities[0] = 1.0;
  }

  if (log == nullptr) return 0;

  FeedbackRecord record;
  record.record_id = record_id;
  record.snapshot_version = served_version;
  record.policy =
      explorer != nullptr ? explorer->options().policy : ExplorePolicy::kNone;
  record.policy_param = explorer != nullptr ? explorer->options().param : 0.0;
  record.context.assign(context.begin(), context.end());
  record.served.resize(rec->queries.size());
  for (size_t i = 0; i < rec->queries.size(); ++i) {
    record.served[i].query = rec->queries[i].query;
    record.served[i].score = rec->queries[i].score;
    record.served[i].propensity = propensities[i];
  }
  // Serving never fails on a log error: the drop is counted in stats().
  (void)log->AppendImpression(record);
  return record_id;
}

}  // namespace sqp
