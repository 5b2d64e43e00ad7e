#ifndef OSSM_STORAGE_PAGER_H_
#define OSSM_STORAGE_PAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"
#include "storage/growable_mapped_file.h"

namespace ossm {
namespace storage {

// What a segment of pages holds. The directory is typed so a reopened store
// can be wired back to the right in-memory structure without guessing.
enum class SegmentKind : uint32_t {
  kFree = 0,
  kCsrOffsets = 1,    // TransactionDatabase offsets (u64 per transaction + 1)
  kCsrItems = 2,      // TransactionDatabase flat item array (u32)
  kBitmapRows = 3,    // BitmapIndex row-major words (u64)
  kOssmCounts = 4,    // SegmentSupportMap item-major matrix (u64)
  kOssmCountsAlt = 5, // second checkpoint slot for the ingest map
  kWal = 6,           // write-ahead transaction pages (ingest)
};

using SegmentId = uint32_t;

// One directory entry, as stored in the header. `aux` is owner-defined
// metadata (dimensions, covered-WAL cursor, ...).
struct SegmentEntry {
  uint32_t kind = 0;
  uint32_t flags = 0;
  uint64_t first_page = 0;
  uint64_t num_pages = 0;
  uint64_t used_bytes = 0;
  uint64_t aux[4] = {0, 0, 0, 0};
};

// Paged store over a GrowableMappedFile: fixed-size pages, a typed segment
// directory, and a committed-length header that makes reopen crash-safe.
//
// File layout: pages 0 and 1 are the two header slots (ping-pong); every
// later page belongs to exactly one segment, and each segment is one
// contiguous page extent (so its payload is one flat array in the mapping —
// the property the CSR/bitmap/OSSM consumers rely on). Only the segment
// with the highest extent — the file tail — may grow.
//
// Durability contract: mutations (segment allocation, data writes through
// SegmentData + MarkDirty, directory edits) live in the mapping until
// Commit(), which msyncs the dirty data range and then writes the *other*
// header slot with sequence+1, the current committed byte length, the
// directory, and a checksum, and msyncs it. Reopen picks the valid slot
// with the highest sequence; bytes past its committed length are a torn
// tail from a crashed writer and are truncated away; a file shorter than
// the committed length was tampered with inside the committed region and is
// refused as kInvalidArgument (same taxonomy as ossm_io v2's truncation
// handling, whose magic/endianness-mark scheme the header reuses).
//
// Pinning: PinPages/UnpinPages (or the SegmentPin RAII below) declare that
// raw pointers into the mapping are being held. In reservation mode pins
// are accounting only (pointers are stable by construction); in the mremap
// fallback mode Grow refuses to proceed while pages are pinned, because the
// base address could move.
class Pager {
 public:
  struct Options {
    uint32_t page_size = 64 << 10;  // must be a multiple of 4096
    uint64_t capacity_bytes = uint64_t{64} << 30;
    bool read_only = false;
    // Unlink the file when the pager is destroyed — for cache-style stores
    // (dataset loads, bitmap builds) whose contents are rebuildable.
    bool delete_on_close = false;
  };

  // Creates a new store (truncating any existing file) / opens an existing
  // one (page size and directory come from the committed header; the
  // options' page_size is ignored on open).
  static StatusOr<std::shared_ptr<Pager>> Create(const std::string& path,
                                                 const Options& options);
  static StatusOr<std::shared_ptr<Pager>> Open(const std::string& path,
                                               const Options& options);

  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  const std::string& path() const { return file_.path(); }
  uint32_t page_size() const { return page_size_; }
  uint64_t file_bytes() const;
  uint64_t committed_bytes() const;
  uint64_t bytes_mapped() const;
  uint64_t ResidentBytes() const { return file_.ResidentBytes(); }
  bool read_only() const { return read_only_; }
  // True when Open found bytes past the committed length and cut them off.
  bool torn_tail_repaired() const { return torn_tail_repaired_; }

  // ---- segment directory ----

  // Allocates a new segment of ceil(bytes / page_size) zeroed pages at the
  // file tail. At most kMaxSegments per store.
  StatusOr<SegmentId> AllocateSegment(SegmentKind kind, uint64_t bytes);
  // Extends a segment in place. Only the tail segment (highest extent) can
  // grow; anything else would shift its neighbours.
  Status GrowSegment(SegmentId id, uint64_t new_used_bytes);

  uint32_t num_segments() const;
  const SegmentEntry& segment(SegmentId id) const;
  std::optional<SegmentId> FindSegment(SegmentKind kind) const;
  void SetSegmentAux(SegmentId id, int slot, uint64_t value);
  void SetSegmentFlags(SegmentId id, uint32_t flags);

  // Base pointer / file offset of a segment's first page. The pointer spans
  // the whole extent contiguously. Stable across growth in reservation
  // mode.
  char* SegmentData(SegmentId id);
  const char* SegmentData(SegmentId id) const;
  uint64_t SegmentOffset(SegmentId id) const;

  // ---- durability ----

  // Declares [offset, offset+length) of the file dirty; Commit syncs the
  // union of dirty ranges.
  void MarkDirty(uint64_t offset, uint64_t length);
  // Syncs dirty data to the file WITHOUT advancing the committed header —
  // the bytes become a torn tail if the process dies now. Exists so the
  // ingest Flush (and its crash tests) can place real uncommitted bytes on
  // disk.
  Status SyncDirty();
  Status Commit();

  // ---- pinning ----

  void PinPages(uint64_t first_page, uint64_t count);
  void UnpinPages(uint64_t first_page, uint64_t count);
  uint64_t pinned_pages() const {
    return pinned_pages_.load(std::memory_order_relaxed);
  }

  static constexpr uint32_t kMaxSegments = 48;
  static constexpr uint32_t kHeaderPages = 2;

 private:
  Pager() = default;
  Status EnsureFilePages(uint64_t pages);
  uint64_t NextFreePage() const;
  void WriteHeaderSlot(uint32_t slot);

  mutable std::mutex mu_;  // growth, directory, commit, stats snapshots
  GrowableMappedFile file_;
  uint32_t page_size_ = 0;
  bool read_only_ = false;
  bool delete_on_close_ = false;
  bool torn_tail_repaired_ = false;
  uint64_t sequence_ = 0;
  uint64_t committed_bytes_ = 0;
  uint64_t dirty_lo_ = 0;
  uint64_t dirty_hi_ = 0;
  uint32_t num_segments_ = 0;
  SegmentEntry segments_[kMaxSegments];
  std::atomic<uint64_t> pinned_pages_{0};
};

// RAII pin of one segment's extent; holds the pager alive. Stores keep one
// of these (shared) per mapped segment they read through raw pointers.
class SegmentPin {
 public:
  SegmentPin(std::shared_ptr<Pager> pager, SegmentId id);
  ~SegmentPin();
  SegmentPin(SegmentPin&&) noexcept;
  SegmentPin& operator=(SegmentPin&&) noexcept;
  SegmentPin(const SegmentPin&) = delete;
  SegmentPin& operator=(const SegmentPin&) = delete;

  const std::shared_ptr<Pager>& pager() const { return pager_; }

 private:
  std::shared_ptr<Pager> pager_;
  uint64_t first_page_ = 0;
  uint64_t num_pages_ = 0;
};

}  // namespace storage
}  // namespace ossm

#endif  // OSSM_STORAGE_PAGER_H_
