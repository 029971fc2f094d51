#include "ir/builder.hpp"

#include <cassert>

namespace owl::ir {

Instruction* IRBuilder::emit(Opcode op, Type type, std::string name,
                             std::vector<Value*> operands) {
  assert(block_ != nullptr && "no insert point set");
  auto instr = std::make_unique<Instruction>(op, type, std::move(name));
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
  return emit(Opcode::kAdd, Type::i64(), std::move(name), {a, b});
}
Instruction* IRBuilder::sub(Value* a, Value* b, std::string name) {
  return emit(Opcode::kSub, Type::i64(), std::move(name), {a, b});
}
Instruction* IRBuilder::mul(Value* a, Value* b, std::string name) {
  return emit(Opcode::kMul, Type::i64(), std::move(name), {a, b});
}
Instruction* IRBuilder::udiv(Value* a, Value* b, std::string name) {
  return emit(Opcode::kUDiv, Type::i64(), std::move(name), {a, b});
}
Instruction* IRBuilder::sdiv(Value* a, Value* b, std::string name) {
  return emit(Opcode::kSDiv, Type::i64(), std::move(name), {a, b});
}
Instruction* IRBuilder::and_(Value* a, Value* b, std::string name) {
  return emit(Opcode::kAnd, Type::i64(), std::move(name), {a, b});
}
Instruction* IRBuilder::or_(Value* a, Value* b, std::string name) {
  return emit(Opcode::kOr, Type::i64(), std::move(name), {a, b});
}
Instruction* IRBuilder::xor_(Value* a, Value* b, std::string name) {
  return emit(Opcode::kXor, Type::i64(), std::move(name), {a, b});
}
Instruction* IRBuilder::shl(Value* a, Value* b, std::string name) {
  return emit(Opcode::kShl, Type::i64(), std::move(name), {a, b});
}
Instruction* IRBuilder::lshr(Value* a, Value* b, std::string name) {
  return emit(Opcode::kLShr, Type::i64(), std::move(name), {a, b});
}

Instruction* IRBuilder::icmp(CmpPredicate pred, Value* a, Value* b,
                             std::string name) {
  Instruction* i = emit(Opcode::kICmp, Type::i1(), std::move(name), {a, b});
  i->set_predicate(pred);
  return i;
}

// --- memory ---

Instruction* IRBuilder::alloca_cells(std::int64_t cells, std::string name) {
  assert(cells > 0);
  Instruction* i = emit(Opcode::kAlloca, Type::ptr(), std::move(name), {});
  i->set_imm(cells);
  return i;
}
Instruction* IRBuilder::malloc_cells(Value* cells, std::string name) {
  return emit(Opcode::kMalloc, Type::ptr(), std::move(name), {cells});
}
Instruction* IRBuilder::free_ptr(Value* ptr) {
  return emit(Opcode::kFree, Type::void_type(), "", {ptr});
}
Instruction* IRBuilder::load(Value* ptr, std::string name) {
  return emit(Opcode::kLoad, Type::i64(), std::move(name), {ptr});
}
Instruction* IRBuilder::store(Value* value, Value* ptr) {
  return emit(Opcode::kStore, Type::void_type(), "", {value, ptr});
}
Instruction* IRBuilder::gep(Value* base, Value* offset, std::string name) {
  return emit(Opcode::kGep, Type::ptr(), std::move(name), {base, offset});
}

// --- control flow ---

Instruction* IRBuilder::br(Value* cond, BasicBlock* then_bb,
                           BasicBlock* else_bb) {
  Instruction* i = emit(Opcode::kBr, Type::void_type(), "", {cond});
  i->add_target(then_bb);
  i->add_target(else_bb);
  return i;
}
Instruction* IRBuilder::jmp(BasicBlock* dest) {
  Instruction* i = emit(Opcode::kJmp, Type::void_type(), "", {});
  i->add_target(dest);
  return i;
}
Instruction* IRBuilder::phi(Type type, std::string name) {
  return emit(Opcode::kPhi, type, std::move(name), {});
}
Instruction* IRBuilder::call(Function* callee, std::vector<Value*> args,
                             std::string name) {
  assert(callee != nullptr);
  Instruction* i =
      emit(Opcode::kCall, callee->return_type(), std::move(name),
           std::move(args));
  i->set_callee(callee);
  return i;
}
Instruction* IRBuilder::callptr(Value* target, std::vector<Value*> args,
                                std::string name) {
  std::vector<Value*> operands{target};
  operands.insert(operands.end(), args.begin(), args.end());
  return emit(Opcode::kCallPtr, Type::i64(), std::move(name),
              std::move(operands));
}
Instruction* IRBuilder::ret(Value* value) {
  if (value == nullptr) {
    return emit(Opcode::kRet, Type::void_type(), "", {});
  }
  return emit(Opcode::kRet, Type::void_type(), "", {value});
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
  return emit(Opcode::kLock, Type::void_type(), "", {mutex});
}
Instruction* IRBuilder::unlock(Value* mutex) {
  return emit(Opcode::kUnlock, Type::void_type(), "", {mutex});
}
Instruction* IRBuilder::thread_create(Function* entry, Value* arg,
                                      std::string name) {
  assert(entry != nullptr);
  Instruction* i =
      emit(Opcode::kThreadCreate, Type::i64(), std::move(name), {arg});
  i->set_callee(entry);
  return i;
}
Instruction* IRBuilder::thread_join(Value* tid) {
  return emit(Opcode::kThreadJoin, Type::void_type(), "", {tid});
}
Instruction* IRBuilder::atomic_add(Value* ptr, Value* delta,
                                   std::string name) {
  return emit(Opcode::kAtomicRMWAdd, Type::i64(), std::move(name),
              {ptr, delta});
}
Instruction* IRBuilder::hb_release(Value* sync_ptr) {
  return emit(Opcode::kHbRelease, Type::void_type(), "", {sync_ptr});
}
Instruction* IRBuilder::hb_acquire(Value* sync_ptr) {
  return emit(Opcode::kHbAcquire, Type::void_type(), "", {sync_ptr});
}

// --- environment ---

Instruction* IRBuilder::input(Value* index, std::string name) {
  return emit(Opcode::kInput, Type::i64(), std::move(name), {index});
}
Instruction* IRBuilder::io_delay(Value* ticks) {
  return emit(Opcode::kIoDelay, Type::void_type(), "", {ticks});
}
Instruction* IRBuilder::yield() {
  return emit(Opcode::kYield, Type::void_type(), "", {});
}
Instruction* IRBuilder::print(Value* value) {
  return emit(Opcode::kPrint, Type::void_type(), "", {value});
}

// --- vulnerable-site intrinsics ---

Instruction* IRBuilder::strcpy_(Value* dst, Value* src) {
  return emit(Opcode::kStrCpy, Type::void_type(), "", {dst, src});
}
Instruction* IRBuilder::memcpy_(Value* dst, Value* src, Value* len) {
  return emit(Opcode::kMemCopy, Type::void_type(), "", {dst, src, len});
}
Instruction* IRBuilder::setuid_(Value* uid) {
  return emit(Opcode::kSetUid, Type::void_type(), "", {uid});
}
Instruction* IRBuilder::file_access(Value* path_id, std::string name) {
  return emit(Opcode::kFileAccess, Type::i64(), std::move(name), {path_id});
}
Instruction* IRBuilder::file_open(Value* path_id, std::string name) {
  return emit(Opcode::kFileOpen, Type::i64(), std::move(name), {path_id});
}
Instruction* IRBuilder::file_write(Value* fd, Value* payload, Value* len) {
  return emit(Opcode::kFileWrite, Type::void_type(), "", {fd, payload, len});
}
Instruction* IRBuilder::fork_(std::string name) {
  return emit(Opcode::kFork, Type::i64(), std::move(name), {});
}
Instruction* IRBuilder::eval_(Value* command_id) {
  return emit(Opcode::kEval, Type::void_type(), "", {command_id});
}

}  // namespace owl::ir
