#include "interp/memory.hpp"

#include <cassert>

namespace owl::interp {

namespace {
Address align_down(Address addr) noexcept { return addr & ~Address{7}; }

/// Dense cell index of `addr` (any alignment); out of range below kNullGuard.
std::uint64_t cell_index(Address addr) noexcept {
  return addr >= kNullGuard ? (addr - kNullGuard) / 8 : UINT64_MAX;
}
}  // namespace

Address Memory::allocate(ObjectKind kind, std::uint64_t cells, Word init,
                         std::string_view name, std::uint64_t owner_frame) {
  assert(cells > 0);
  const Address base = bytes_allocated();
  objects_.push_back({base, cells, kind, /*freed=*/false, name, owner_frame});
  const auto id = static_cast<std::uint32_t>(objects_.size());
  if (kind == ObjectKind::kStack) live_stack_.push_back(id - 1);
  cells_.insert(cells_.end(), cells, init);
  owners_.insert(owners_.end(), cells, id);
  cells_.push_back(0);  // one-cell red zone between objects
  owners_.push_back(0);
  // Raw writes may have spilled where the object now lies: its cells start
  // from `init` all the same, and its red zone keeps the spilled value.
  if (!spill_.empty()) {
    const Address red_zone = base + cells * 8;
    auto it = spill_.lower_bound(base);
    while (it != spill_.end() && it->first <= red_zone) {
      if (it->first == red_zone) cells_.back() = it->second;
      it = spill_.erase(it);
    }
  }
  return base;
}

MemFault Memory::free_heap(Address addr) {
  const std::uint32_t owner = owner_of(addr);
  if (owner == 0) {
    return addr < kNullGuard ? MemFault::kNullDeref : MemFault::kBadFree;
  }
  MemObject& obj = objects_[owner - 1];
  if (obj.base != addr || obj.kind != ObjectKind::kHeap) {
    return MemFault::kBadFree;
  }
  if (obj.freed) return MemFault::kDoubleFree;
  obj.freed = true;
  return MemFault::kNone;
}

void Memory::pop_frame(std::uint64_t owner_frame) {
  std::erase_if(live_stack_, [&](std::uint32_t index) {
    MemObject& obj = objects_[index];
    if (obj.owner_frame != owner_frame) return false;
    obj.freed = true;
    return true;
  });
}

MemFault Memory::load(Address addr, Word& out) const {
  if (addr < kNullGuard) return MemFault::kNullDeref;
  const std::uint32_t owner = owner_of(addr);
  if (owner == 0) return MemFault::kOutOfBounds;
  out = cells_[cell_index(addr)];
  if (objects_[owner - 1].freed) return MemFault::kUseAfterFree;
  return MemFault::kNone;
}

MemFault Memory::store(Address addr, Word value) {
  if (addr < kNullGuard) return MemFault::kNullDeref;
  const std::uint32_t owner = owner_of(addr);
  if (owner == 0) return MemFault::kOutOfBounds;
  cells_[cell_index(addr)] = value;
  if (objects_[owner - 1].freed) return MemFault::kUseAfterFree;
  return MemFault::kNone;
}

Word Memory::load_raw(Address addr) const {
  if (const std::uint64_t i = cell_index(addr); i < cells_.size()) {
    return cells_[i];
  }
  auto it = spill_.find(align_down(addr));
  return it != spill_.end() ? it->second : 0;
}

void Memory::store_raw(Address addr, Word value) {
  if (const std::uint64_t i = cell_index(addr); i < cells_.size()) {
    cells_[i] = value;
  } else {
    spill_[align_down(addr)] = value;
  }
}

std::uint32_t Memory::owner_of(Address addr) const noexcept {
  const std::uint64_t i = cell_index(addr);
  return i < owners_.size() ? owners_[i] : 0;
}

const MemObject* Memory::find_object(Address addr) const {
  const std::uint32_t owner = owner_of(addr);
  return owner != 0 ? &objects_[owner - 1] : nullptr;
}

std::uint64_t Memory::cells_until_end(Address addr) const {
  const MemObject* obj = find_object(addr);
  if (obj == nullptr) return 0;
  return (obj->end() - align_down(addr)) / 8;
}

}  // namespace owl::interp
