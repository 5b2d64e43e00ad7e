#include "storage/pager.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/obs.h"
#include "storage/storage_env.h"

namespace ossm {
namespace storage {

namespace {

// Same magic/endianness/checksum idiom as core/ossm_io.cc v2: an 8-byte
// magic ending in '\n' (catches text-mode mangling), a native-endian u32
// mark that reads byte-swapped on a foreign-endian machine, and FNV-1a
// over everything before the checksum field.
constexpr char kMagic[8] = {'O', 'S', 'S', 'M', 'P', 'G', '1', '\n'};
constexpr uint32_t kEndianMark = 0x4F53534DU;  // "OSSM" in native order
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint32_t kMinPageSize = 4096;

uint32_t ByteSwap32(uint32_t value) {
  return ((value & 0xFF000000U) >> 24) | ((value & 0x00FF0000U) >> 8) |
         ((value & 0x0000FF00U) << 8) | ((value & 0x000000FFU) << 24);
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t seed) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

// On-disk header block, one per slot. Fits the minimum page size:
// 40 + 48 * 64 + 8 = 3120 bytes <= 4096.
struct HeaderBlock {
  char magic[8];
  uint32_t endian_mark;
  uint32_t page_size;
  uint64_t sequence;
  uint64_t committed_bytes;
  uint32_t num_segments;
  uint32_t reserved;
  SegmentEntry segments[Pager::kMaxSegments];
  uint64_t checksum;  // FNV-1a over every byte before this field
};
static_assert(sizeof(SegmentEntry) == 64, "segment entry layout is on-disk");
static_assert(sizeof(HeaderBlock) <= kMinPageSize,
              "header block must fit the minimum page size");

uint64_t HeaderChecksum(const HeaderBlock& block) {
  return Fnv1a(&block, offsetof(HeaderBlock, checksum), kFnvOffset);
}

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

}  // namespace

StatusOr<std::shared_ptr<Pager>> Pager::Create(const std::string& path,
                                               const Options& options) {
  if (options.page_size < kMinPageSize ||
      options.page_size % kMinPageSize != 0) {
    return Status::InvalidArgument(
        "page_size must be a multiple of 4096, got " +
        std::to_string(options.page_size));
  }
  if (options.read_only) {
    return Status::InvalidArgument("cannot create a read-only page store");
  }
  GrowableMappedFile::Options file_options;
  file_options.capacity_bytes = options.capacity_bytes;
  auto file = GrowableMappedFile::Create(path, file_options);
  OSSM_RETURN_IF_ERROR(file.status());

  std::shared_ptr<Pager> pager(new Pager());
  pager->file_ = std::move(file).value();
  pager->page_size_ = options.page_size;
  pager->delete_on_close_ = options.delete_on_close;
  OSSM_RETURN_IF_ERROR(
      pager->file_.Grow(uint64_t{kHeaderPages} * options.page_size));
  pager->committed_bytes_ = pager->file_.size();
  // Seed both slots so a reopen always finds a valid header even if the
  // first real Commit tears: slot 1 holds seq 1, slot 0 holds seq 2.
  pager->sequence_ = 0;
  pager->WriteHeaderSlot(1);  // seq 1
  pager->WriteHeaderSlot(0);  // seq 2
  OSSM_RETURN_IF_ERROR(
      pager->file_.Sync(0, uint64_t{kHeaderPages} * options.page_size));
  internal::RegisterPager(pager.get());
  return pager;
}

StatusOr<std::shared_ptr<Pager>> Pager::Open(const std::string& path,
                                             const Options& options) {
  GrowableMappedFile::Options file_options;
  file_options.capacity_bytes = options.capacity_bytes;
  file_options.read_only = options.read_only;
  auto file = GrowableMappedFile::Open(path, file_options);
  OSSM_RETURN_IF_ERROR(file.status());

  std::shared_ptr<Pager> pager(new Pager());
  pager->file_ = std::move(file).value();
  pager->read_only_ = options.read_only;
  pager->delete_on_close_ = options.delete_on_close;
  const uint64_t file_size = pager->file_.size();

  if (file_size < sizeof(HeaderBlock)) {
    return Status::InvalidArgument(path +
                                   " is truncated in the page-store header");
  }
  // Validate magic + endianness on slot 0 alone: both slots always carry
  // them, and slot 0 exists whenever the header fits at all.
  HeaderBlock probe;
  std::memcpy(&probe, pager->file_.data(), sizeof(probe));
  if (std::memcmp(probe.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not an OSSM page store");
  }
  if (probe.endian_mark != kEndianMark) {
    if (ByteSwap32(probe.endian_mark) == kEndianMark) {
      return Status::InvalidArgument(
          path + " was written on a foreign-endian machine");
    }
    return Status::Corruption(path + " has a corrupt endianness mark");
  }

  // Pick the valid slot with the highest sequence. A torn header write
  // corrupts at most the slot being written; the other slot still commits
  // the previous state.
  HeaderBlock chosen;
  bool found = false;
  for (uint32_t slot = 0; slot < kHeaderPages; ++slot) {
    uint64_t offset = uint64_t{slot} * probe.page_size;
    if (probe.page_size < kMinPageSize ||
        offset + sizeof(HeaderBlock) > file_size) {
      break;
    }
    HeaderBlock copy;
    std::memcpy(&copy, pager->file_.data() + offset, sizeof(copy));
    if (std::memcmp(copy.magic, kMagic, sizeof(kMagic)) != 0) continue;
    if (copy.endian_mark != kEndianMark) continue;
    if (copy.page_size != probe.page_size) continue;
    if (copy.num_segments > kMaxSegments) continue;
    if (HeaderChecksum(copy) != copy.checksum) continue;
    if (!found || copy.sequence > chosen.sequence) {
      chosen = copy;
      found = true;
    }
  }
  if (!found) {
    return Status::Corruption(path +
                              " has no valid committed page-store header");
  }
  const HeaderBlock* best = &chosen;
  if (best->page_size < kMinPageSize ||
      best->page_size % kMinPageSize != 0) {
    return Status::Corruption(path + " header has an invalid page size");
  }
  if (best->committed_bytes < uint64_t{kHeaderPages} * best->page_size ||
      best->committed_bytes % best->page_size != 0) {
    return Status::Corruption(path + " header has an invalid committed size");
  }
  if (best->committed_bytes > file_size) {
    // Shorter than what was durably committed: bytes inside the committed
    // region are gone. Same class as ossm_io's truncated-payload errors.
    return Status::InvalidArgument(path +
                                   " is truncated in the committed region");
  }

  pager->page_size_ = best->page_size;
  pager->sequence_ = best->sequence;
  pager->committed_bytes_ = best->committed_bytes;
  pager->num_segments_ = best->num_segments;
  std::copy(best->segments, best->segments + best->num_segments,
            pager->segments_);
  // Directory extents must sit inside the committed region.
  for (uint32_t i = 0; i < pager->num_segments_; ++i) {
    const SegmentEntry& entry = pager->segments_[i];
    uint64_t end_page = entry.first_page + entry.num_pages;
    if (entry.first_page < kHeaderPages ||
        end_page * pager->page_size_ > pager->committed_bytes_ ||
        entry.used_bytes > entry.num_pages * uint64_t{pager->page_size_}) {
      return Status::Corruption(path + " header has an out-of-range segment");
    }
  }

  if (best->committed_bytes < file_size) {
    // Torn tail: a writer crashed after growing the file but before its
    // commit point. Everything past committed_bytes is uncommitted by
    // definition; cut it off so the file matches the durable state.
    if (!options.read_only) {
      OSSM_RETURN_IF_ERROR(pager->file_.TruncateTo(best->committed_bytes));
    }
    pager->torn_tail_repaired_ = true;
    OSSM_COUNTER_INC("storage.torn_tail_truncations");
  }
  internal::RegisterPager(pager.get());
  return pager;
}

Pager::~Pager() {
  internal::UnregisterPager(this);
  file_.Close(delete_on_close_);
}

uint64_t Pager::file_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_.size();
}

uint64_t Pager::committed_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_bytes_;
}

uint64_t Pager::bytes_mapped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_.size();
}

uint64_t Pager::NextFreePage() const {
  uint64_t next = kHeaderPages;
  for (uint32_t i = 0; i < num_segments_; ++i) {
    next = std::max(next, segments_[i].first_page + segments_[i].num_pages);
  }
  return next;
}

Status Pager::EnsureFilePages(uint64_t pages) {
  uint64_t want = pages * page_size_;
  if (want <= file_.size()) return Status::OK();
  if (!file_.using_reservation() &&
      pinned_pages_.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        path() +
        ": cannot grow while pages are pinned (mremap fallback mode may "
        "move the mapping base)");
  }
  return file_.Grow(want);
}

StatusOr<SegmentId> Pager::AllocateSegment(SegmentKind kind, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) {
    return Status::FailedPrecondition(path() + " is opened read-only");
  }
  if (num_segments_ >= kMaxSegments) {
    return Status::ResourceExhausted(path() + " has no free segment slots");
  }
  uint64_t pages = std::max<uint64_t>(1, CeilDiv(bytes, page_size_));
  uint64_t first = NextFreePage();
  OSSM_RETURN_IF_ERROR(EnsureFilePages(first + pages));
  SegmentId id = num_segments_++;
  SegmentEntry& entry = segments_[id];
  entry = SegmentEntry{};
  entry.kind = static_cast<uint32_t>(kind);
  entry.first_page = first;
  entry.num_pages = pages;
  entry.used_bytes = bytes;
  return id;
}

Status Pager::GrowSegment(SegmentId id, uint64_t new_used_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) {
    return Status::FailedPrecondition(path() + " is opened read-only");
  }
  if (id >= num_segments_) {
    return Status::InvalidArgument("no such segment " + std::to_string(id));
  }
  SegmentEntry& entry = segments_[id];
  if (entry.first_page + entry.num_pages != NextFreePage()) {
    return Status::FailedPrecondition(
        "only the tail segment of " + path() + " can grow");
  }
  if (new_used_bytes < entry.used_bytes) {
    return Status::InvalidArgument("GrowSegment cannot shrink a segment");
  }
  uint64_t pages = std::max<uint64_t>(1, CeilDiv(new_used_bytes, page_size_));
  if (pages > entry.num_pages) {
    OSSM_RETURN_IF_ERROR(EnsureFilePages(entry.first_page + pages));
    entry.num_pages = pages;
  }
  entry.used_bytes = new_used_bytes;
  return Status::OK();
}

uint32_t Pager::num_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_segments_;
}

const SegmentEntry& Pager::segment(SegmentId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_[id];
}

std::optional<SegmentId> Pager::FindSegment(SegmentKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < num_segments_; ++i) {
    if (segments_[i].kind == static_cast<uint32_t>(kind)) return i;
  }
  return std::nullopt;
}

void Pager::SetSegmentAux(SegmentId id, int slot, uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < num_segments_ && slot >= 0 && slot < 4) {
    segments_[id].aux[slot] = value;
  }
}

void Pager::SetSegmentFlags(SegmentId id, uint32_t flags) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < num_segments_) segments_[id].flags = flags;
}

char* Pager::SegmentData(SegmentId id) {
  std::lock_guard<std::mutex> lock(mu_);
  return file_.data() + segments_[id].first_page * uint64_t{page_size_};
}

const char* Pager::SegmentData(SegmentId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_.data() + segments_[id].first_page * uint64_t{page_size_};
}

uint64_t Pager::SegmentOffset(SegmentId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_[id].first_page * uint64_t{page_size_};
}

void Pager::MarkDirty(uint64_t offset, uint64_t length) {
  if (length == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (dirty_hi_ == 0) {
    dirty_lo_ = offset;
    dirty_hi_ = offset + length;
  } else {
    dirty_lo_ = std::min(dirty_lo_, offset);
    dirty_hi_ = std::max(dirty_hi_, offset + length);
  }
}

// Builds the header for the current in-memory state into `slot`. Caller
// holds mu_ (or is single-threaded during Create).
void Pager::WriteHeaderSlot(uint32_t slot) {
  HeaderBlock block;
  // Zero the whole block (padding included) so the checksummed bytes are
  // deterministic.
  std::memset(static_cast<void*>(&block), 0, sizeof(block));
  std::memcpy(block.magic, kMagic, sizeof(kMagic));
  block.endian_mark = kEndianMark;
  block.page_size = page_size_;
  block.sequence = ++sequence_;
  block.committed_bytes = committed_bytes_;
  block.num_segments = num_segments_;
  std::copy(segments_, segments_ + num_segments_, block.segments);
  block.checksum = HeaderChecksum(block);
  std::memcpy(file_.data() + uint64_t{slot} * page_size_, &block,
              sizeof(block));
}

Status Pager::SyncDirty() {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) {
    return Status::FailedPrecondition(path() + " is opened read-only");
  }
  if (dirty_hi_ > dirty_lo_) {
    OSSM_RETURN_IF_ERROR(file_.Sync(dirty_lo_, dirty_hi_ - dirty_lo_));
    dirty_lo_ = 0;
    dirty_hi_ = 0;
  }
  return Status::OK();
}

Status Pager::Commit() {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) {
    return Status::FailedPrecondition(path() + " is opened read-only");
  }
  // Phase 1: data reaches the file before any header that references it.
  if (dirty_hi_ > dirty_lo_) {
    OSSM_RETURN_IF_ERROR(file_.Sync(dirty_lo_, dirty_hi_ - dirty_lo_));
    dirty_lo_ = 0;
    dirty_hi_ = 0;
  }
  // Phase 2: flip the ping-pong header. sequence_ is incremented inside
  // WriteHeaderSlot; the slot written alternates with it, so a torn write
  // leaves the other slot's previous commit intact.
  committed_bytes_ = file_.size();
  uint32_t slot = static_cast<uint32_t>((sequence_ + 1) % kHeaderPages);
  WriteHeaderSlot(slot);
  OSSM_RETURN_IF_ERROR(
      file_.Sync(uint64_t{slot} * page_size_, page_size_));
  OSSM_COUNTER_INC("storage.commits");
  return Status::OK();
}

void Pager::PinPages(uint64_t /*first_page*/, uint64_t count) {
  pinned_pages_.fetch_add(count, std::memory_order_acq_rel);
}

void Pager::UnpinPages(uint64_t /*first_page*/, uint64_t count) {
  pinned_pages_.fetch_sub(count, std::memory_order_acq_rel);
}

SegmentPin::SegmentPin(std::shared_ptr<Pager> pager, SegmentId id)
    : pager_(std::move(pager)) {
  const SegmentEntry& entry = pager_->segment(id);
  first_page_ = entry.first_page;
  num_pages_ = entry.num_pages;
  pager_->PinPages(first_page_, num_pages_);
}

SegmentPin::~SegmentPin() {
  if (pager_ != nullptr) pager_->UnpinPages(first_page_, num_pages_);
}

SegmentPin::SegmentPin(SegmentPin&& other) noexcept
    : pager_(std::move(other.pager_)),
      first_page_(other.first_page_),
      num_pages_(other.num_pages_) {
  other.pager_ = nullptr;
}

SegmentPin& SegmentPin::operator=(SegmentPin&& other) noexcept {
  if (this != &other) {
    if (pager_ != nullptr) pager_->UnpinPages(first_page_, num_pages_);
    pager_ = std::move(other.pager_);
    first_page_ = other.first_page_;
    num_pages_ = other.num_pages_;
    other.pager_ = nullptr;
  }
  return *this;
}

}  // namespace storage
}  // namespace ossm
