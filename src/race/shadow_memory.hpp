// Paged shadow memory for the fast detection substrate (DESIGN.md §2).
//
// Replaces the reference detector's `unordered_map<Address, Shadow>` (the
// test oracle in tests/reference_detector.hpp) with a direct-mapped page
// table: an address indexes a 4096-slot page allocated on first touch, so
// the per-access lookup is two shifts and an array index instead of a
// hash, probe, and node chase. Addresses are byte-keyed exactly like the
// reference map — two distinct raw addresses never share a slot, so even
// corrupted unaligned pointers shadow independently and the emitted reports
// stay identical. Nothing walks the shadow: the detector only looks up the
// slot of the address being accessed.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "interp/thread.hpp"
#include "race/vector_clock.hpp"

namespace owl::ir {
class Instruction;
}

namespace owl::race {

/// One prior access, compressed: no call stack, no heap. The (ctx, instr)
/// pair rebuilds the full AccessRecord lazily through
/// interp::ContextTree::call_stack when the access becomes a race candidate.
struct ShadowCell {
  ThreadId tid = 0;
  interp::ContextId ctx = interp::kNoContext;
  std::uint64_t epoch = 0;
  const ir::Instruction* instr = nullptr;
  interp::Word value = 0;
  /// Reads only: the write-check at capture time found no race. Clocks only
  /// grow and every write clears the read set, so while this cell survives,
  /// a repeat read by the same thread cannot race either — the licence for
  /// the detector's same-reader fast path.
  bool no_race = false;
};

/// Shadow state for one byte address: the last write plus the reads since.
/// The first reader lives inline (the overwhelmingly common case); extra
/// concurrent readers spill to a heap vector. Reads iterate in insertion
/// order, matching the reference implementation's vector semantics.
struct ShadowSlot {
  ShadowCell write;
  ShadowCell read0;
  std::vector<ShadowCell> more_reads;
  bool has_write = false;
  bool has_read0 = false;

  bool has_reads() const noexcept { return has_read0; }

  ShadowCell* find_read(ThreadId tid) noexcept {
    if (!has_read0) return nullptr;
    if (read0.tid == tid) return &read0;
    for (ShadowCell& read : more_reads) {
      if (read.tid == tid) return &read;
    }
    return nullptr;
  }

  void add_read(const ShadowCell& cell) {
    if (!has_read0) {
      read0 = cell;
      has_read0 = true;
    } else {
      more_reads.push_back(cell);
    }
  }

  template <typename F>
  void for_each_read(F&& f) const {
    if (!has_read0) return;
    f(read0);
    for (const ShadowCell& read : more_reads) f(read);
  }

  void set_write(const ShadowCell& cell) noexcept {
    write = cell;
    has_write = true;
  }

  void clear_reads() noexcept {
    has_read0 = false;
    more_reads.clear();  // keeps capacity for slot reuse
  }
};

class PagedShadow {
 public:
  static constexpr std::uint64_t kPageBits = 12;
  static constexpr std::uint64_t kPageSlots = 1ull << kPageBits;  // 4096
  static constexpr std::uint64_t kSlotMask = kPageSlots - 1;
  /// Pages below this index live in a flat directory — it covers the first
  /// 256 MiB of simulated address space, far beyond what Memory's linear
  /// allocator (starting at 4096) ever hands out. Corrupted pointers can
  /// designate arbitrary 64-bit addresses; those pages spill to a sorted
  /// overflow map so one wild access cannot force a gigabyte directory.
  static constexpr std::uint64_t kDirectPages = 1ull << 16;

  /// The shadow slot for `addr`, allocating its page on first touch.
  ShadowSlot& slot(interp::Address addr) {
    const std::uint64_t page = addr >> kPageBits;
    std::unique_ptr<Page>& p =
        page < kDirectPages ? direct_slot(page) : overflow_[page];
    if (p == nullptr) {
      p = std::make_unique<Page>();
      ++pages_allocated_;
    }
    return p->slots[addr & kSlotMask];
  }

  /// First-touch page allocations over this shadow's lifetime, kept as a
  /// counter so the metrics flush (DESIGN.md §8) need not walk the pages.
  std::uint64_t pages_allocated() const noexcept { return pages_allocated_; }

 private:
  struct Page {
    std::array<ShadowSlot, kPageSlots> slots;
  };

  std::unique_ptr<Page>& direct_slot(std::uint64_t page) {
    if (page >= direct_.size()) direct_.resize(page + 1);
    return direct_[page];
  }

  std::vector<std::unique_ptr<Page>> direct_;
  std::map<std::uint64_t, std::unique_ptr<Page>> overflow_;
  std::uint64_t pages_allocated_ = 0;
};

}  // namespace owl::race
