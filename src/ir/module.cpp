#include "ir/module.hpp"

#include <atomic>
#include <cassert>

namespace owl::ir {

std::uint64_t Module::next_value_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

GlobalVariable* Module::add_global(std::string name, std::uint64_t cell_count,
                                   std::int64_t initial_value) {
  assert(find_global(name) == nullptr && "duplicate global name");
  assert(cell_count > 0);
  globals_.push_back(std::make_unique<GlobalVariable>(std::move(name),
                                                      cell_count,
                                                      initial_value));
  GlobalVariable* g = globals_.back().get();
  g->set_id(next_value_id());
  g->set_slot(static_cast<std::uint32_t>(globals_.size() - 1));
  return g;
}

GlobalVariable* Module::find_global(std::string_view name) const noexcept {
  for (const auto& g : globals_) {
    if (g->name() == name) return g.get();
  }
  return nullptr;
}

Function* Module::add_function(std::string name, Type return_type,
                               bool is_internal) {
  assert(find_function(name) == nullptr && "duplicate function name");
  functions_.push_back(std::make_unique<Function>(std::move(name), return_type,
                                                  this, is_internal));
  Function* f = functions_.back().get();
  f->set_id(next_value_id());
  return f;
}

Function* Module::find_function(std::string_view name) const noexcept {
  for (const auto& f : functions_) {
    if (f->name() == name) return f.get();
  }
  return nullptr;
}

Constant* Module::get_constant(Type type, std::int64_t value) {
  const auto key = std::make_pair(type.kind(), value);
  auto it = constants_.find(key);
  if (it != constants_.end()) return it->second.get();
  auto owned = std::make_unique<Constant>(type, value);
  owned->set_id(next_value_id());
  Constant* c = owned.get();
  constants_.emplace(key, std::move(owned));
  return c;
}

std::size_t Module::instruction_count() const noexcept {
  std::size_t n = 0;
  for (const auto& f : functions_) n += f->instruction_count();
  return n;
}

}  // namespace owl::ir
