#include "src/store/slab_store.h"

#include <algorithm>
#include <cstring>

#include "src/util/check.h"

namespace qdlp {

SlabStore::SlabStore(size_t num_cells, size_t num_domains,
                     size_t arena_bytes_per_domain, size_t max_value_len)
    : max_value_len_(max_value_len), cells_(num_cells), domains_(num_domains) {
  QDLP_CHECK(num_cells >= 1);
  QDLP_CHECK(num_domains >= 1 && num_domains <= 256);
  QDLP_CHECK(max_value_len_ < (size_t{1} << 24));  // ChunkRef len field
  arena_words_ = (arena_bytes_per_domain + 7) / 8;
  // Room for at least one chunk of the largest permitted value at its
  // natural (own-size) alignment: the first such chunk starts at the
  // first aligned offset past the sentinel word, so the arena must reach
  // twice the chunk size. The skipped alignment gap is not lost — it is
  // carved into smaller free chunks.
  const size_t min_words = 2 * ChunkWords(max_value_len_);
  if (arena_words_ < min_words) {
    arena_words_ = min_words;
  }
  QDLP_CHECK(arena_words_ <= (size_t{1} << 32));  // ChunkRef offset field
  for (Domain& domain : domains_) {
    domain.words = std::make_unique<std::atomic<uint64_t>[]>(arena_words_);
    domain.free_class = std::make_unique<uint8_t[]>(arena_words_);  // zeroed
  }
}

void SlabStore::PushFree(Domain& domain, size_t offset, size_t cls) {
  const size_t head = domain.free_head[cls];
  // Every link access is an atomic word op: a stale reader may still be
  // copying a just-freed chunk, and its seqlock re-check rejects the torn
  // copy — same contract as the value stores.
  domain.words[offset].store(PackLink(0, head), std::memory_order_relaxed);
  if (head != 0) {
    const uint64_t head_link =
        domain.words[head].load(std::memory_order_relaxed);
    domain.words[head].store(PackLink(offset, LinkNext(head_link)),
                             std::memory_order_relaxed);
  }
  domain.free_head[cls] = offset;
  domain.free_class[offset] = static_cast<uint8_t>(cls + 1);
}

void SlabStore::UnlinkFree(Domain& domain, size_t offset, size_t cls) {
  const uint64_t link = domain.words[offset].load(std::memory_order_relaxed);
  const size_t prev = LinkPrev(link);
  const size_t next = LinkNext(link);
  if (prev != 0) {
    const uint64_t prev_link =
        domain.words[prev].load(std::memory_order_relaxed);
    domain.words[prev].store(PackLink(LinkPrev(prev_link), next),
                             std::memory_order_relaxed);
  } else {
    domain.free_head[cls] = next;
  }
  if (next != 0) {
    const uint64_t next_link =
        domain.words[next].load(std::memory_order_relaxed);
    domain.words[next].store(PackLink(prev, LinkNext(next_link)),
                             std::memory_order_relaxed);
  }
  domain.free_class[offset] = 0;
}

void SlabStore::FreeBlock(Domain& domain, size_t offset, size_t cls) {
  // Buddy coalescing: while the sibling block of the same size is wholly
  // free, absorb it and free the doubled block instead. Blocks are aligned
  // to their own size, so the buddy is offset with the size bit flipped;
  // the sentinel word keeps block 0 permanently unmergeable.
  while (cls + 1 < kNumClasses) {
    const size_t buddy = offset ^ (size_t{1} << cls);
    if (buddy >= domain.bump ||
        domain.free_class[buddy] != static_cast<uint8_t>(cls + 1)) {
      break;
    }
    UnlinkFree(domain, buddy, cls);
    offset &= ~(size_t{1} << cls);  // the merged block starts at the pair
    ++cls;
  }
  PushFree(domain, offset, cls);
}

SlabStore::ChunkRef SlabStore::Allocate(size_t domain_index, size_t len) {
  if (len > max_value_len_) {
    return kNullChunk;
  }
  QDLP_DCHECK(domain_index < domains_.size());
  Domain& domain = domains_[domain_index];
  const size_t words = ChunkWords(len);
  const size_t cls = ClassFor(words);
  // Smallest free chunk that fits, buddy-split down to the exact class so
  // churn between value sizes never strands memory in the wrong class
  // (FreeBlock undoes the splits when both halves free again).
  for (size_t c = cls; c < kNumClasses; ++c) {
    if (domain.free_head[c] == 0) {
      continue;
    }
    const size_t offset = domain.free_head[c];
    UnlinkFree(domain, offset, c);
    for (size_t split = c; split > cls; --split) {
      PushFree(domain, offset + (size_t{1} << (split - 1)), split - 1);
    }
    return PackChunk(domain_index, offset, len);
  }
  // Carve from the bump pointer at the chunk's natural alignment — buddy
  // arithmetic needs every block aligned to its own size. The alignment
  // gap is freed as maximal aligned sub-chunks (via FreeBlock, so it also
  // coalesces with any neighboring free block), not skipped.
  const size_t aligned = (domain.bump + words - 1) & ~(words - 1);
  if (aligned + words > arena_words_) {
    return kNullChunk;
  }
  size_t gap = domain.bump;
  domain.bump = aligned + words;
  while (gap < aligned) {
    size_t gap_cls = std::min<size_t>(
        static_cast<size_t>(__builtin_ctzll(gap)), kNumClasses - 1);
    while ((size_t{1} << gap_cls) > aligned - gap) {
      --gap_cls;
    }
    const size_t gap_words = size_t{1} << gap_cls;
    FreeBlock(domain, gap, gap_cls);
    gap += gap_words;
  }
  return PackChunk(domain_index, aligned, len);
}

void SlabStore::WriteChunk(ChunkRef chunk, const void* data, size_t len) {
  QDLP_DCHECK(chunk != kNullChunk);
  QDLP_DCHECK(ChunkLen(chunk) == len);
  Domain& domain = domains_[ChunkDomain(chunk)];
  std::atomic<uint64_t>* words = domain.words.get() + ChunkOffset(chunk);
  const uint8_t* src = static_cast<const uint8_t*>(data);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, src + i, 8);
    words[i / 8].store(w, std::memory_order_relaxed);
  }
  if (i < len) {
    uint64_t w = 0;
    std::memcpy(&w, src + i, len - i);
    words[i / 8].store(w, std::memory_order_relaxed);
  }
}

SlabStore::ChunkRef SlabStore::Commit(uint32_t cell, uint64_t id,
                                      ChunkRef chunk, uint64_t expiry_s) {
  QDLP_DCHECK(cell < cells_.size());
  Cell& c = cells_[cell];
  const ChunkRef old = c.chunk.load(std::memory_order_relaxed);
  const uint64_t v = c.version.load(std::memory_order_relaxed);
  QDLP_DCHECK((v & 1) == 0);
  c.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  c.id.store(id, std::memory_order_relaxed);
  c.chunk.store(chunk, std::memory_order_relaxed);
  c.expiry.store(expiry_s, std::memory_order_relaxed);
  c.version.store(v + 2, std::memory_order_release);
  if (chunk != kNullChunk) {
    domains_[ChunkDomain(chunk)].live_bytes.fetch_add(
        ChunkLen(chunk), std::memory_order_relaxed);
  }
  if (old != kNullChunk) {
    domains_[ChunkDomain(old)].live_bytes.fetch_sub(
        ChunkLen(old), std::memory_order_relaxed);
  }
  return old;
}

SlabStore::ChunkRef SlabStore::ClearCell(uint32_t cell) {
  QDLP_DCHECK(cell < cells_.size());
  Cell& c = cells_[cell];
  const ChunkRef old = c.chunk.load(std::memory_order_relaxed);
  const uint64_t v = c.version.load(std::memory_order_relaxed);
  QDLP_DCHECK((v & 1) == 0);
  c.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  c.id.store(0, std::memory_order_relaxed);
  c.chunk.store(kNullChunk, std::memory_order_relaxed);
  c.expiry.store(0, std::memory_order_relaxed);
  c.version.store(v + 2, std::memory_order_release);
  if (old != kNullChunk) {
    domains_[ChunkDomain(old)].live_bytes.fetch_sub(
        ChunkLen(old), std::memory_order_relaxed);
  }
  return old;
}

void SlabStore::MoveCell(uint32_t from, uint32_t to) {
  QDLP_DCHECK(from < cells_.size());
  QDLP_DCHECK(to < cells_.size());
  if (from == to) {
    return;
  }
  Cell& src = cells_[from];
  Cell& dst = cells_[to];
  QDLP_DCHECK(dst.chunk.load(std::memory_order_relaxed) == kNullChunk);
  const uint64_t id = src.id.load(std::memory_order_relaxed);
  const ChunkRef chunk = src.chunk.load(std::memory_order_relaxed);
  const uint64_t expiry = src.expiry.load(std::memory_order_relaxed);
  // Publish the destination before clearing the source: a reader chasing a
  // just-updated index entry finds the value already in place, and a
  // reader still holding the old location fails the id check and
  // re-probes. live_bytes is untouched — the chunk neither appears nor
  // disappears, it changes owners.
  const uint64_t dv = dst.version.load(std::memory_order_relaxed);
  dst.version.store(dv + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  dst.id.store(id, std::memory_order_relaxed);
  dst.chunk.store(chunk, std::memory_order_relaxed);
  dst.expiry.store(expiry, std::memory_order_relaxed);
  dst.version.store(dv + 2, std::memory_order_release);
  const uint64_t sv = src.version.load(std::memory_order_relaxed);
  src.version.store(sv + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  src.id.store(0, std::memory_order_relaxed);
  src.chunk.store(kNullChunk, std::memory_order_relaxed);
  src.expiry.store(0, std::memory_order_relaxed);
  src.version.store(sv + 2, std::memory_order_release);
}

void SlabStore::FreeChunk(ChunkRef chunk) {
  if (chunk == kNullChunk) {
    return;
  }
  Domain& domain = domains_[ChunkDomain(chunk)];
  // The freelist links overwrite the chunk's first words. A stale reader
  // may still be copying these words; its seqlock re-check rejects the
  // torn copy, and every access is an atomic word op, so this is safe.
  FreeBlock(domain, ChunkOffset(chunk),
            ClassFor(ChunkWords(ChunkLen(chunk))));
}

SlabStore::ReadResult SlabStore::Read(uint32_t cell, uint64_t id,
                                      uint64_t now_s,
                                      std::string* out) const {
  QDLP_DCHECK(cell < cells_.size());
  const Cell& c = cells_[cell];
  const size_t base = out->size();
  while (true) {
    const uint64_t v1 = c.version.load(std::memory_order_acquire);
    if ((v1 & 1) != 0) {
      continue;  // writer mid-update; it finishes in a handful of stores
    }
    const uint64_t cell_id = c.id.load(std::memory_order_relaxed);
    const ChunkRef chunk = c.chunk.load(std::memory_order_relaxed);
    const uint64_t expiry = c.expiry.load(std::memory_order_relaxed);
    ReadResult result;
    if (cell_id != id) {
      result = ReadResult::kStale;
    } else if (chunk == kNullChunk) {
      result = ReadResult::kNoValue;
    } else if (expiry != 0 && now_s >= expiry) {
      result = ReadResult::kExpired;
    } else {
      const size_t len = ChunkLen(chunk);
      const std::atomic<uint64_t>* words =
          domains_[ChunkDomain(chunk)].words.get() + ChunkOffset(chunk);
      out->resize(base + len);
      char* dst = out->data() + base;
      size_t i = 0;
      for (; i + 8 <= len; i += 8) {
        const uint64_t w = words[i / 8].load(std::memory_order_relaxed);
        std::memcpy(dst + i, &w, 8);
      }
      if (i < len) {
        const uint64_t w = words[i / 8].load(std::memory_order_relaxed);
        std::memcpy(dst + i, &w, len - i);
      }
      result = ReadResult::kHit;
    }
    // Validate even the non-copy outcomes: a torn header read (id and
    // chunk from different commits) must never escape as kStale/kExpired.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (c.version.load(std::memory_order_acquire) == v1) {
      return result;
    }
    out->resize(base);  // drop the torn copy; the caller's prefix stays
  }
}

size_t SlabStore::live_value_bytes() const {
  size_t total = 0;
  for (const Domain& domain : domains_) {
    total += domain.live_bytes.load(std::memory_order_relaxed);
  }
  return total;
}

size_t SlabStore::ApproxMetadataBytes() const {
  // Per domain: the arena words plus the one-byte-per-word free-class tag
  // array the buddy system uses for O(1) mergeability checks.
  return cells_.capacity() * sizeof(Cell) +
         domains_.size() * (sizeof(Domain) + arena_words_ * 9);
}

void SlabStore::CheckInvariants() const {
  // Word-granular ownership map per domain: every word below the bump
  // pointer belongs to at most one chunk (free or committed).
  std::vector<std::vector<uint8_t>> owned(domains_.size());
  for (size_t d = 0; d < domains_.size(); ++d) {
    const Domain& domain = domains_[d];
    QDLP_CHECK(domain.bump >= 1);
    QDLP_CHECK(domain.bump <= arena_words_);
    owned[d].assign(domain.bump, 0);
    size_t free_heads = 0;
    for (size_t cls = 0; cls < kNumClasses; ++cls) {
      const size_t words = size_t{1} << cls;
      size_t offset = domain.free_head[cls];
      size_t prev = 0;
      size_t hops = 0;
      while (offset != 0) {
        QDLP_CHECK(offset % words == 0);  // aligned to its own size
        QDLP_CHECK(offset + words <= domain.bump);
        QDLP_CHECK(domain.free_class[offset] == cls + 1);
        ++free_heads;
        for (size_t w = 0; w < words; ++w) {
          QDLP_CHECK(owned[d][offset + w] == 0);
          owned[d][offset + w] = 1;
        }
        // Fully coalesced: this block's buddy is never also free at the
        // same class, or FreeBlock would have merged them.
        if (cls + 1 < kNumClasses) {
          const size_t buddy = offset ^ words;
          QDLP_CHECK(buddy >= domain.bump ||
                     domain.free_class[buddy] != cls + 1);
        }
        const uint64_t link =
            domain.words[offset].load(std::memory_order_relaxed);
        QDLP_CHECK(LinkPrev(link) == prev);
        prev = offset;
        offset = LinkNext(link);
        QDLP_CHECK(++hops <= domain.bump);  // cycle guard
      }
    }
    // Every free-class tag corresponds to a block reached above — no
    // orphaned tags claiming mergeability for allocated words.
    size_t tagged = 0;
    for (size_t w = 0; w < arena_words_; ++w) {
      if (domain.free_class[w] != 0) {
        QDLP_CHECK(w < domain.bump);
        ++tagged;
      }
    }
    QDLP_CHECK(tagged == free_heads);
  }
  std::vector<size_t> live_bytes(domains_.size(), 0);
  for (const Cell& cell : cells_) {
    QDLP_CHECK((cell.version.load(std::memory_order_relaxed) & 1) == 0);
    const ChunkRef chunk = cell.chunk.load(std::memory_order_relaxed);
    if (chunk == kNullChunk) {
      continue;
    }
    const size_t d = ChunkDomain(chunk);
    const size_t offset = ChunkOffset(chunk);
    const size_t len = ChunkLen(chunk);
    const size_t words = ChunkWords(len);
    QDLP_CHECK(d < domains_.size());
    QDLP_CHECK(len <= max_value_len_);
    QDLP_CHECK(offset >= 1);
    QDLP_CHECK(offset % words == 0);  // aligned to its own size
    QDLP_CHECK(offset + words <= domains_[d].bump);
    for (size_t w = 0; w < words; ++w) {
      QDLP_CHECK(owned[d][offset + w] == 0);
      owned[d][offset + w] = 1;
    }
    live_bytes[d] += len;
  }
  for (size_t d = 0; d < domains_.size(); ++d) {
    QDLP_CHECK(live_bytes[d] ==
               domains_[d].live_bytes.load(std::memory_order_relaxed));
  }
}

}  // namespace qdlp
