// Ergonomic construction API for MiniIR, in the style of llvm::IRBuilder.
//
// The workload models (src/workloads) transcribe the paper's code listings
// with this builder; keeping call sites one-liner-per-source-line makes the
// transcriptions reviewable against the figures.
#pragma once

#include <string>

#include "ir/module.hpp"

namespace owl::ir {

class IRBuilder {
 public:
  explicit IRBuilder(Module* module) : module_(module) {}

  Module* module() const noexcept { return module_; }

  /// All subsequently created instructions append to `block`.
  void set_insert_point(BasicBlock* block) noexcept { block_ = block; }
  BasicBlock* insert_point() const noexcept { return block_; }

  /// Sets the source location stamped on subsequent instructions.
  void set_loc(std::string file, unsigned line) {
    loc_ = SourceLoc{std::move(file), line};
  }
  /// Advances only the line within the current file.
  void set_line(unsigned line) { loc_.line = line; }
  const SourceLoc& loc() const noexcept { return loc_; }

  // --- arithmetic / logic ---
  Instruction* add(Value* a, Value* b, std::string name = "");
  Instruction* sub(Value* a, Value* b, std::string name = "");
  Instruction* mul(Value* a, Value* b, std::string name = "");
  Instruction* udiv(Value* a, Value* b, std::string name = "");
  Instruction* sdiv(Value* a, Value* b, std::string name = "");
  Instruction* and_(Value* a, Value* b, std::string name = "");
  Instruction* or_(Value* a, Value* b, std::string name = "");
  Instruction* xor_(Value* a, Value* b, std::string name = "");
  Instruction* shl(Value* a, Value* b, std::string name = "");
  Instruction* lshr(Value* a, Value* b, std::string name = "");
  Instruction* icmp(CmpPredicate pred, Value* a, Value* b,
                    std::string name = "");

  // --- memory ---
  Instruction* alloca_cells(std::int64_t cells, std::string name = "");
  Instruction* malloc_cells(Value* cells, std::string name = "");
  Instruction* free_ptr(Value* ptr);
  Instruction* load(Value* ptr, std::string name = "");
  Instruction* store(Value* value, Value* ptr);
  Instruction* gep(Value* base, Value* offset, std::string name = "");

  // --- control flow ---
  Instruction* br(Value* cond, BasicBlock* then_bb, BasicBlock* else_bb);
  Instruction* jmp(BasicBlock* dest);
  Instruction* phi(Type type, std::string name = "");
  Instruction* call(Function* callee, std::vector<Value*> args,
                    std::string name = "");
  Instruction* callptr(Value* target, std::vector<Value*> args,
                       std::string name = "");
  Instruction* ret(Value* value = nullptr);

  // --- counted loops: for (i = 0; i < bound; ++i), over blocks the caller
  // made; both calls keep the caller's source location ---
  struct CountedLoop {
    Instruction* index = nullptr;     ///< %i, the header's phi
    BasicBlock* preheader = nullptr;  ///< the block that jumped to the header
    BasicBlock* exit = nullptr;
  };
  /// Ends the insert block with `jmp header`; in `header` emits `%i = phi`,
  /// `%more = icmp slt %i, bound` and `br %more, body, exit`; continues in
  /// `body`.
  CountedLoop loop_header(BasicBlock* header, Value* bound, BasicBlock* body,
                          BasicBlock* exit);
  /// The same with a constant bound, created after the phi (value ids
  /// follow creation order, so this matches a header built by hand).
  CountedLoop loop_header(BasicBlock* header, std::int64_t bound,
                          BasicBlock* body, BasicBlock* exit);
  /// In the insert block (the latch) emits `%inext = add %i, 1` and
  /// `jmp header`, completes the phi with [0, preheader], [%inext, latch]
  /// and continues in the loop's exit.
  void loop_latch(const CountedLoop& loop);

  // --- concurrency ---
  Instruction* lock(Value* mutex);
  Instruction* unlock(Value* mutex);
  Instruction* thread_create(Function* entry, Value* arg,
                             std::string name = "");
  Instruction* thread_join(Value* tid);
  Instruction* atomic_add(Value* ptr, Value* delta, std::string name = "");
  Instruction* hb_release(Value* sync_ptr);
  Instruction* hb_acquire(Value* sync_ptr);

  // --- environment ---
  Instruction* input(Value* index, std::string name = "");
  Instruction* io_delay(Value* ticks);
  Instruction* yield();
  Instruction* print(Value* value);

  // --- vulnerable-site intrinsics ---
  Instruction* strcpy_(Value* dst, Value* src);
  Instruction* memcpy_(Value* dst, Value* src, Value* len);
  Instruction* setuid_(Value* uid);
  Instruction* file_access(Value* path_id, std::string name = "");
  Instruction* file_open(Value* path_id, std::string name = "");
  Instruction* file_write(Value* fd, Value* payload, Value* len);
  Instruction* fork_(std::string name = "");
  Instruction* eval_(Value* command_id);

  // --- constants, forwarded from the module for brevity ---
  Constant* i64(std::int64_t v) { return module_->i64(v); }
  Constant* i1(bool v) { return module_->get_constant(Type::i1(), v ? 1 : 0); }
  Constant* null_ptr() { return module_->null_ptr(); }

 private:
  Instruction* emit(Opcode op, Type type, std::string name,
                    std::vector<Value*> operands);
  /// loop_header up to the bound: `jmp header` and the phi.
  CountedLoop enter_loop(BasicBlock* header, BasicBlock* exit);
  /// The rest of loop_header: the bound test and its branch.
  void test_bound(const CountedLoop& loop, Value* bound, BasicBlock* body);

  Module* module_;
  BasicBlock* block_ = nullptr;
  SourceLoc loc_;
};

}  // namespace owl::ir
