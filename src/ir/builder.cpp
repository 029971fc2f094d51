#include "ir/builder.hpp"

#include <cassert>

namespace owl::ir {

Instruction* IRBuilder::emit(Opcode op, std::string name,
                             std::vector<Value*> operands) {
  assert(block_ != nullptr && "no insert point set");
  auto instr = std::make_unique<Instruction>(op, std::move(name));
  for (Value* v : operands) {
    assert(v != nullptr);
    instr->add_operand(v);
  }
  instr->set_loc(loc_);
  instr->set_id(module_->next_value_id());
  return block_->append(std::move(instr));
}

// --- arithmetic / logic ---

Instruction* IRBuilder::add(Value* a, Value* b, std::string name) {
  return emit(Opcode::kAdd, std::move(name), {a, b});
}
Instruction* IRBuilder::sub(Value* a, Value* b, std::string name) {
  return emit(Opcode::kSub, std::move(name), {a, b});
}
Instruction* IRBuilder::mul(Value* a, Value* b, std::string name) {
  return emit(Opcode::kMul, std::move(name), {a, b});
}
Instruction* IRBuilder::udiv(Value* a, Value* b, std::string name) {
  return emit(Opcode::kUDiv, std::move(name), {a, b});
}
Instruction* IRBuilder::sdiv(Value* a, Value* b, std::string name) {
  return emit(Opcode::kSDiv, std::move(name), {a, b});
}
Instruction* IRBuilder::and_(Value* a, Value* b, std::string name) {
  return emit(Opcode::kAnd, std::move(name), {a, b});
}
Instruction* IRBuilder::or_(Value* a, Value* b, std::string name) {
  return emit(Opcode::kOr, std::move(name), {a, b});
}
Instruction* IRBuilder::xor_(Value* a, Value* b, std::string name) {
  return emit(Opcode::kXor, std::move(name), {a, b});
}
Instruction* IRBuilder::shl(Value* a, Value* b, std::string name) {
  return emit(Opcode::kShl, std::move(name), {a, b});
}
Instruction* IRBuilder::lshr(Value* a, Value* b, std::string name) {
  return emit(Opcode::kLShr, std::move(name), {a, b});
}

Instruction* IRBuilder::icmp(CmpPredicate pred, Value* a, Value* b,
                             std::string name) {
  Instruction* i = emit(Opcode::kICmp, std::move(name), {a, b});
  i->set_predicate(pred);
  return i;
}

// --- memory ---

Instruction* IRBuilder::alloca_cells(std::int64_t cells, std::string name) {
  assert(cells > 0);
  Instruction* i = emit(Opcode::kAlloca, std::move(name), {});
  i->set_imm(cells);
  return i;
}
Instruction* IRBuilder::malloc_cells(Value* cells, std::string name) {
  return emit(Opcode::kMalloc, std::move(name), {cells});
}
Instruction* IRBuilder::free_ptr(Value* ptr) {
  return emit(Opcode::kFree, "", {ptr});
}
Instruction* IRBuilder::load(Value* ptr, std::string name) {
  return emit(Opcode::kLoad, std::move(name), {ptr});
}
Instruction* IRBuilder::store(Value* value, Value* ptr) {
  return emit(Opcode::kStore, "", {value, ptr});
}
Instruction* IRBuilder::gep(Value* base, Value* offset, std::string name) {
  return emit(Opcode::kGep, std::move(name), {base, offset});
}

// --- control flow ---

Instruction* IRBuilder::br(Value* cond, BasicBlock* then_bb,
                           BasicBlock* else_bb) {
  Instruction* i = emit(Opcode::kBr, "", {cond});
  i->add_target(then_bb);
  i->add_target(else_bb);
  return i;
}
Instruction* IRBuilder::jmp(BasicBlock* dest) {
  Instruction* i = emit(Opcode::kJmp, "", {});
  i->add_target(dest);
  return i;
}
Instruction* IRBuilder::phi(Type type, std::string name) {
  Instruction* i = emit(Opcode::kPhi, std::move(name), {});
  i->set_type(type);
  return i;
}
Instruction* IRBuilder::call(Function* callee, std::vector<Value*> args,
                             std::string name) {
  assert(callee != nullptr);
  Instruction* i = emit(Opcode::kCall, std::move(name), std::move(args));
  i->set_type(callee->return_type());
  i->set_callee(callee);
  return i;
}
Instruction* IRBuilder::callptr(Value* target, std::vector<Value*> args,
                                std::string name) {
  std::vector<Value*> operands{target};
  operands.insert(operands.end(), args.begin(), args.end());
  return emit(Opcode::kCallPtr, std::move(name), std::move(operands));
}
Instruction* IRBuilder::ret(Value* value) {
  if (value == nullptr) {
    return emit(Opcode::kRet, "", {});
  }
  return emit(Opcode::kRet, "", {value});
}

// --- counted loops ---

IRBuilder::CountedLoop IRBuilder::enter_loop(BasicBlock* header,
                                             BasicBlock* exit) {
  BasicBlock* preheader = block_;
  jmp(header);
  set_insert_point(header);
  return {phi(Type::i64(), "i"), preheader, exit};
}

void IRBuilder::test_bound(const CountedLoop& loop, Value* bound,
                           BasicBlock* body) {
  br(icmp(CmpPredicate::kSLt, loop.index, bound, "more"), body, loop.exit);
  set_insert_point(body);
}

IRBuilder::CountedLoop IRBuilder::loop_header(BasicBlock* header,
                                              Value* bound, BasicBlock* body,
                                              BasicBlock* exit) {
  const CountedLoop loop = enter_loop(header, exit);
  test_bound(loop, bound, body);
  return loop;
}

IRBuilder::CountedLoop IRBuilder::loop_header(BasicBlock* header,
                                              std::int64_t bound,
                                              BasicBlock* body,
                                              BasicBlock* exit) {
  const CountedLoop loop = enter_loop(header, exit);
  test_bound(loop, i64(bound), body);
  return loop;
}

void IRBuilder::loop_latch(const CountedLoop& loop) {
  BasicBlock* latch = block_;
  Instruction* inext = add(loop.index, i64(1), "inext");
  jmp(loop.index->parent());
  loop.index->add_phi_incoming(i64(0), loop.preheader);
  loop.index->add_phi_incoming(inext, latch);
  set_insert_point(loop.exit);
}

// --- concurrency ---

Instruction* IRBuilder::lock(Value* mutex) {
  return emit(Opcode::kLock, "", {mutex});
}
Instruction* IRBuilder::unlock(Value* mutex) {
  return emit(Opcode::kUnlock, "", {mutex});
}
Instruction* IRBuilder::thread_create(Function* entry, Value* arg,
                                      std::string name) {
  assert(entry != nullptr);
  Instruction* i = emit(Opcode::kThreadCreate, std::move(name), {arg});
  i->set_callee(entry);
  return i;
}
Instruction* IRBuilder::thread_join(Value* tid) {
  return emit(Opcode::kThreadJoin, "", {tid});
}
Instruction* IRBuilder::atomic_add(Value* ptr, Value* delta,
                                   std::string name) {
  return emit(Opcode::kAtomicRMWAdd, std::move(name), {ptr, delta});
}
Instruction* IRBuilder::hb_release(Value* sync_ptr) {
  return emit(Opcode::kHbRelease, "", {sync_ptr});
}
Instruction* IRBuilder::hb_acquire(Value* sync_ptr) {
  return emit(Opcode::kHbAcquire, "", {sync_ptr});
}

// --- environment ---

Instruction* IRBuilder::input(Value* index, std::string name) {
  return emit(Opcode::kInput, std::move(name), {index});
}
Instruction* IRBuilder::io_delay(Value* ticks) {
  return emit(Opcode::kIoDelay, "", {ticks});
}
Instruction* IRBuilder::yield() {
  return emit(Opcode::kYield, "", {});
}
Instruction* IRBuilder::print(Value* value) {
  return emit(Opcode::kPrint, "", {value});
}

// --- vulnerable-site intrinsics ---

Instruction* IRBuilder::strcpy_(Value* dst, Value* src) {
  return emit(Opcode::kStrCpy, "", {dst, src});
}
Instruction* IRBuilder::memcpy_(Value* dst, Value* src, Value* len) {
  return emit(Opcode::kMemCopy, "", {dst, src, len});
}
Instruction* IRBuilder::setuid_(Value* uid) {
  return emit(Opcode::kSetUid, "", {uid});
}
Instruction* IRBuilder::file_access(Value* path_id, std::string name) {
  return emit(Opcode::kFileAccess, std::move(name), {path_id});
}
Instruction* IRBuilder::file_open(Value* path_id, std::string name) {
  return emit(Opcode::kFileOpen, std::move(name), {path_id});
}
Instruction* IRBuilder::file_write(Value* fd, Value* payload, Value* len) {
  return emit(Opcode::kFileWrite, "", {fd, payload, len});
}
Instruction* IRBuilder::fork_(std::string name) {
  return emit(Opcode::kFork, std::move(name), {});
}
Instruction* IRBuilder::eval_(Value* command_id) {
  return emit(Opcode::kEval, "", {command_id});
}

}  // namespace owl::ir
