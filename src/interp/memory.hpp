// Simulated shared memory for the MiniIR interpreter.
//
// A flat 64-bit address space of 8-byte cells, segmented into objects
// (globals, stack allocations, heap allocations). Object bounds and
// liveness are tracked so the machine can surface the memory-corruption
// consequences the paper's attacks rely on — buffer overflows (Libsafe
// Fig. 1, Apache Fig. 7), use-after-free (SSDB Fig. 6, Chrome) and NULL
// dereferences (Linux Fig. 2) — as explicit security events rather than
// undefined behaviour.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace owl::interp {

using Address = std::uint64_t;
using Word = std::int64_t;

/// The first 4 KiB stay unmapped so stores through small integers (the
/// classic corrupted-pointer pattern) fault as NULL dereferences. Exported
/// so detector-side consumers (prescreen pruning) can re-check dynamically
/// that an address really lies inside object space before trusting static
/// object reasoning about it.
constexpr Address kNullGuard = 4096;

enum class ObjectKind { kGlobal, kStack, kHeap };

/// Outcome of a single memory operation.
enum class MemFault {
  kNone,
  kNullDeref,      ///< address 0 or within the unmapped first page
  kOutOfBounds,    ///< address not inside any object
  kUseAfterFree,   ///< object was freed (heap) or popped (stack)
  kDoubleFree,     ///< free() of an already-freed object
  kBadFree,        ///< free() of a non-heap or interior pointer
};

struct MemObject {
  Address base = 0;
  std::uint64_t cells = 0;
  ObjectKind kind = ObjectKind::kHeap;
  bool freed = false;
  /// Global or instruction name, "" for anonymous. A view: the name is owned
  /// by the IR, which outlives every machine on it.
  std::string_view name;
  std::uint64_t owner_frame = 0;  ///< stack objects: frame serial for pop

  Address end() const noexcept { return base + cells * 8; }
};

/// The address space. Not thread-safe by design: the interpreter serializes
/// all accesses (that serialization *is* the simulated schedule).
///
/// Allocation is a bump pointer with a one-cell red zone after each object,
/// so `[kNullGuard, bytes_allocated())` is one dense range: cell i is
/// address kNullGuard + 8i. Copying a Memory copies the whole address space.
class Memory {
 public:
  /// Allocates an object; cells are initialized to `init`. `name` must
  /// outlive the memory (string literals and IR-owned names do).
  Address allocate(ObjectKind kind, std::uint64_t cells, Word init,
                   std::string_view name = {}, std::uint64_t owner_frame = 0);

  /// Frees a heap object by its base address.
  MemFault free_heap(Address addr);

  /// Marks all stack objects of `owner_frame` dead (frame return).
  void pop_frame(std::uint64_t owner_frame);

  /// Reads the cell at `addr` (must be 8-byte aligned; unaligned addresses
  /// are rounded down, matching a word-granularity race detector).
  MemFault load(Address addr, Word& out) const;

  /// Writes the cell at `addr`.
  MemFault store(Address addr, Word value);

  /// Like load/store but ignores the freed flag — used to model what an
  /// attacker reads/writes through a dangling pointer after the fault has
  /// already been recorded.
  Word load_raw(Address addr) const;
  void store_raw(Address addr, Word value);

  /// Object containing `addr`, or nullptr. Valid until the next allocate.
  const MemObject* find_object(Address addr) const;

  /// Cells remaining in the object from `addr` to its end; 0 if unmapped.
  std::uint64_t cells_until_end(Address addr) const;

  std::size_t object_count() const noexcept { return objects_.size(); }
  /// One past the last cell allocated (the bump pointer).
  std::uint64_t bytes_allocated() const noexcept {
    return kNullGuard + cells_.size() * 8;
  }

 private:
  /// 1 + the objects_ index of the object owning `addr`'s cell; 0 for a red
  /// zone or an address outside the dense range.
  std::uint32_t owner_of(Address addr) const noexcept;

  std::vector<Word> cells_;            ///< the dense range, one per cell
  std::vector<std::uint32_t> owners_;  ///< 1 + index into objects_, 0 = red zone
  std::vector<MemObject> objects_;     ///< in allocation order
  std::vector<std::uint32_t> live_stack_;  ///< objects_ indices not yet popped
  /// Raw cells outside the dense range: strcpy/memcpy spill below kNullGuard
  /// or past the last object.
  std::map<Address, Word> spill_;
};

}  // namespace owl::interp
