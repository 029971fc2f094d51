#include "ir/parser.hpp"

#include <cctype>
#include <unordered_map>
#include <vector>

#include "support/strings.hpp"

namespace owl::ir {
namespace {

/// Character-level cursor over one logical line.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view word) {
    skip_ws();
    if (text_.substr(pos_, word.size()) == word) {
      const std::size_t after = pos_ + word.size();
      if (after == text_.size() ||
          !is_ident_char(text_[after])) {
        pos_ = after;
        return true;
      }
    }
    return false;
  }

  /// Reads an identifier ([A-Za-z0-9_.$]+); empty string if none.
  std::string ident() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() && is_ident_char(text_[pos_])) ++pos_;
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Reads a (possibly negative) integer; returns false if none.
  bool integer(std::int64_t& out) {
    skip_ws();
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) {
      pos_ = start;
      return false;
    }
    return parse_int64(text_.substr(start, pos_ - start), out);
  }

  std::string_view rest() {
    skip_ws();
    return text_.substr(pos_);
  }

 private:
  static bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '$';
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// One unresolved local-value reference, patched at end of function.
struct PendingRef {
  Instruction* instr;
  std::size_t operand_index;  ///< SIZE_MAX => phi incoming value
  std::size_t phi_index;
  std::string name;
  std::size_t source_line;
};

class ModuleParser {
 public:
  explicit ModuleParser(std::string_view text) : lines_(split(text, '\n')) {}

  Result<std::unique_ptr<Module>> run() {
    module_ = std::make_unique<Module>("anonymous");
    // Pass 1: create function shells (name, params, return type) so calls
    // may reference functions defined later (mutual recursion).
    if (Status s = prescan_functions(); !s.is_ok()) return s;
    line_no_ = 0;
    while (line_no_ < lines_.size()) {
      std::string_view line = logical_line();
      if (line.empty()) {
        ++line_no_;
        continue;
      }
      Cursor cur(line);
      if (cur.consume_word("module")) {
        if (cur.ident().empty()) return err("module name expected");
        ++line_no_;  // name already consumed by the prescan
      } else if (cur.consume_word("global")) {
        if (Status s = parse_global(cur); !s.is_ok()) return s;
        ++line_no_;
      } else if (cur.consume_word("func")) {
        if (Status s = parse_function(cur); !s.is_ok()) return s;
      } else {
        return err("expected 'module', 'global' or 'func'");
      }
    }
    return std::move(module_);
  }

 private:
  /// Current line with comments stripped and whitespace trimmed.
  std::string_view logical_line() {
    std::string_view line = lines_[line_no_];
    if (const std::size_t comment = line.find(';');
        comment != std::string_view::npos) {
      line = line.substr(0, comment);
    }
    return trim(line);
  }

  Status err(std::string message) const {
    return parse_error("line " + std::to_string(line_no_ + 1) + ": " +
                       std::move(message));
  }

  Status parse_global(Cursor& cur) {
    if (!cur.consume('@')) return err("'@' expected after 'global'");
    const std::string name = cur.ident();
    if (!is_identifier(name)) return err("global name expected");
    std::int64_t cells = 1;
    if (cur.consume('[')) {
      if (!cur.integer(cells) || cells <= 0) return err("cell count expected");
      if (!cur.consume(']')) return err("']' expected");
    }
    std::int64_t init = 0;
    if (cur.consume('=')) {
      if (!cur.integer(init)) return err("initial value expected");
    }
    if (!cur.at_end()) return err("trailing tokens after global");
    if (module_->find_global(name) != nullptr) {
      return err("duplicate global @" + name);
    }
    module_->add_global(name, static_cast<std::uint64_t>(cells), init);
    return Status::ok();
  }

  struct Param {
    Type type;
    std::string name;
  };
  struct Signature {
    std::string name;
    std::vector<Param> params;
    Type return_type = Type::void_type();
    bool external = false;
  };

  /// Parses "@name(type %p, ...) [-> type] [external]" from `cur`.
  Status parse_signature(Cursor& cur, Signature& sig) {
    if (!cur.consume('@')) return err("'@' expected after 'func'");
    sig.name = cur.ident();
    if (!is_identifier(sig.name)) return err("function name expected");
    if (!cur.consume('(')) return err("'(' expected");
    if (!cur.consume(')')) {
      while (true) {
        Type type;
        const std::string type_name = cur.ident();
        if (!parse_type(type_name, type)) return err("parameter type expected");
        if (!cur.consume('%')) return err("'%' expected before parameter name");
        const std::string param_name = cur.ident();
        if (!is_identifier(param_name)) return err("parameter name expected");
        sig.params.push_back({type, param_name});
        if (cur.consume(')')) break;
        if (!cur.consume(',')) return err("',' or ')' expected");
      }
    }
    if (cur.consume('-')) {
      if (!cur.consume('>')) return err("'->' expected");
      if (!parse_type(cur.ident(), sig.return_type)) {
        return err("return type expected");
      }
    }
    sig.external = cur.consume_word("external");
    return Status::ok();
  }

  /// Pass 1: pick up the module name and create all function shells so call
  /// operands can resolve forward references.
  Status prescan_functions() {
    for (line_no_ = 0; line_no_ < lines_.size(); ++line_no_) {
      Cursor name_cur(logical_line());
      if (name_cur.consume_word("module")) {
        const std::string name = name_cur.ident();
        if (!name.empty() && module_->functions().empty() &&
            module_->globals().empty()) {
          module_ = std::make_unique<Module>(name);
        }
        continue;
      }
      std::string_view line = logical_line();
      Cursor cur(line);
      if (!cur.consume_word("func")) continue;
      Signature sig;
      if (Status s = parse_signature(cur, sig); !s.is_ok()) return s;
      if (module_->find_function(sig.name) != nullptr) {
        return err("duplicate function @" + sig.name);
      }
      Function* func =
          module_->add_function(sig.name, sig.return_type, !sig.external);
      for (const Param& p : sig.params) {
        func->add_argument(p.type, p.name);
      }
    }
    return Status::ok();
  }

  Status parse_function(Cursor& cur) {
    Signature sig;
    if (Status s = parse_signature(cur, sig); !s.is_ok()) return s;

    Function* func = module_->find_function(sig.name);
    assert(func != nullptr && "prescan must have created the shell");
    values_.clear();
    pending_.clear();
    for (std::size_t i = 0; i < sig.params.size(); ++i) {
      values_[sig.params[i].name] = func->argument(i);
    }

    if (!cur.consume('{')) {
      // Declaration only (external).
      if (!cur.at_end()) return err("'{' or end of line expected");
      ++line_no_;
      return Status::ok();
    }
    if (!cur.at_end()) return err("'{' must end the line");
    ++line_no_;

    // Pre-scan for labels so branches can reference forward blocks.
    for (std::size_t probe = line_no_; probe < lines_.size(); ++probe) {
      std::string_view line = strip(probe);
      if (line == "}") break;
      if (ends_with(line, ":")) {
        const std::string label(line.substr(0, line.size() - 1));
        if (!is_identifier(label)) {
          return parse_error("line " + std::to_string(probe + 1) +
                             ": bad block label");
        }
        if (func->find_block(label) != nullptr) {
          return parse_error("line " + std::to_string(probe + 1) +
                             ": duplicate label " + label);
        }
        func->add_block(label);
      }
    }
    if (func->blocks().empty()) {
      return err("function body has no blocks");
    }

    BasicBlock* current = nullptr;
    while (line_no_ < lines_.size()) {
      std::string_view line = logical_line();
      if (line.empty()) {
        ++line_no_;
        continue;
      }
      if (line == "}") {
        ++line_no_;
        return resolve_pending(func);
      }
      if (ends_with(line, ":")) {
        current = func->find_block(
            std::string(line.substr(0, line.size() - 1)));
        ++line_no_;
        continue;
      }
      if (current == nullptr) return err("instruction before first label");
      if (Status s = parse_instruction(line, func, current); !s.is_ok()) {
        return s;
      }
      ++line_no_;
    }
    return err("'}' expected before end of input");
  }

  std::string_view strip(std::size_t index) const {
    std::string_view line = lines_[index];
    if (const std::size_t comment = line.find(';');
        comment != std::string_view::npos) {
      line = line.substr(0, comment);
    }
    return trim(line);
  }

  Status parse_instruction(std::string_view text, Function* func,
                           BasicBlock* block) {
    // Split off the "!file:line" location suffix, if present.
    SourceLoc loc;
    if (const std::size_t bang = text.rfind('!');
        bang != std::string_view::npos && bang > 0 &&
        std::isspace(static_cast<unsigned char>(text[bang - 1]))) {
      const std::string_view suffix = trim(text.substr(bang + 1));
      const std::size_t colon = suffix.rfind(':');
      std::int64_t line_num = 0;
      if (colon != std::string_view::npos &&
          parse_int64(suffix.substr(colon + 1), line_num)) {
        loc.file = std::string(trim(suffix.substr(0, colon)));
        loc.line = static_cast<unsigned>(line_num);
        text = trim(text.substr(0, bang));
      }
    }

    Cursor cur(text);
    std::string result_name;
    if (cur.peek() == '%') {
      Cursor probe = cur;  // lookahead: "%name =" vs an operand-first opcode
      probe.consume('%');
      const std::string name = probe.ident();
      if (probe.consume('=')) {
        result_name = name;
        cur = probe;
      }
    }

    Opcode op;
    const std::string mnemonic = cur.ident();
    if (!parse_opcode(mnemonic, op)) {
      return err("unknown opcode '" + mnemonic + "'");
    }

    auto instr = std::make_unique<Instruction>(op, result_name);
    instr->set_loc(loc);
    instr->set_id(module_->next_value_id());
    Instruction* raw = instr.get();

    Status status = parse_operands(cur, func, raw);
    if (!status.is_ok()) return status;
    if (!cur.at_end()) return err("trailing tokens: '" +
                                  std::string(cur.rest()) + "'");

    block->append(std::move(instr));
    if (!raw->type().is_void() && !result_name.empty()) {
      values_[result_name] = raw;
    }
    return Status::ok();
  }

  /// Parses one operand reference; records forward refs for later patching.
  Status parse_operand(Cursor& cur, Instruction* instr) {
    if (cur.consume('%')) {
      const std::string name = cur.ident();
      if (!is_identifier(name)) return err("value name expected after '%'");
      auto it = values_.find(name);
      instr->add_operand(it != values_.end() ? it->second
                                             : placeholder());
      if (it == values_.end()) {
        pending_.push_back({instr, instr->operand_count() - 1, 0, name,
                            line_no_});
      }
      return Status::ok();
    }
    if (cur.consume('@')) {
      const std::string name = cur.ident();
      if (Value* v = find_global_value(name); v != nullptr) {
        instr->add_operand(v);
        return Status::ok();
      }
      return err("unknown global '@" + name + "'");
    }
    if (cur.consume_word("null")) {
      instr->add_operand(module_->null_ptr());
      return Status::ok();
    }
    std::int64_t value = 0;
    if (cur.integer(value)) {
      instr->add_operand(module_->i64(value));
      return Status::ok();
    }
    return err("operand expected");
  }

  Value* find_global_value(std::string_view name) const noexcept {
    if (GlobalVariable* g = module_->find_global(name)) return g;
    if (Function* f = module_->find_function(name)) return f;
    return nullptr;
  }

  /// Shared placeholder for unresolved refs; replaced before the function
  /// finishes parsing, so it never escapes.
  Value* placeholder() { return module_->i64(0); }

  Status parse_operands(Cursor& cur, Function* func, Instruction* instr) {
    const auto block_ref = [&](BasicBlock*& out) -> Status {
      const std::string label = cur.ident();
      BasicBlock* bb = func->find_block(label);
      if (bb == nullptr) return err("unknown label '" + label + "'");
      out = bb;
      return Status::ok();
    };

    switch (instr->opcode()) {
      case Opcode::kICmp: {
        CmpPredicate pred;
        if (!parse_predicate(cur.ident(), pred)) {
          return err("comparison predicate expected");
        }
        instr->set_predicate(pred);
        if (Status s = parse_operand(cur, instr); !s.is_ok()) return s;
        if (!cur.consume(',')) return err("',' expected");
        return parse_operand(cur, instr);
      }
      case Opcode::kAlloca: {
        std::int64_t cells = 0;
        if (!cur.integer(cells) || cells <= 0) {
          return err("alloca cell count expected");
        }
        instr->set_imm(cells);
        return Status::ok();
      }
      case Opcode::kBr: {
        if (Status s = parse_operand(cur, instr); !s.is_ok()) return s;
        if (!cur.consume(',')) return err("',' expected");
        BasicBlock* then_bb = nullptr;
        if (Status s = block_ref(then_bb); !s.is_ok()) return s;
        if (!cur.consume(',')) return err("',' expected");
        BasicBlock* else_bb = nullptr;
        if (Status s = block_ref(else_bb); !s.is_ok()) return s;
        instr->add_target(then_bb);
        instr->add_target(else_bb);
        return Status::ok();
      }
      case Opcode::kJmp: {
        BasicBlock* dest = nullptr;
        if (Status s = block_ref(dest); !s.is_ok()) return s;
        instr->add_target(dest);
        return Status::ok();
      }
      case Opcode::kPhi: {
        while (true) {
          if (!cur.consume('[')) return err("'[' expected in phi");
          // Incoming value: parse like an operand but store in phi lists.
          auto keeper = std::make_unique<Instruction>(Opcode::kPhi, "");
          if (Status s = parse_operand(cur, keeper.get()); !s.is_ok()) {
            return s;
          }
          Value* incoming = keeper->operand(0);
          const bool unresolved =
              !pending_.empty() && pending_.back().instr == keeper.get();
          std::string pending_name;
          if (unresolved) {
            pending_name = pending_.back().name;
            pending_.pop_back();
          }
          if (!cur.consume(',')) return err("',' expected in phi");
          BasicBlock* from = nullptr;
          if (Status s = block_ref(from); !s.is_ok()) return s;
          if (!cur.consume(']')) return err("']' expected in phi");
          instr->add_phi_incoming(incoming, from);
          if (unresolved) {
            pending_.push_back({instr, SIZE_MAX,
                                instr->phi_values().size() - 1, pending_name,
                                line_no_});
          }
          if (!cur.consume(',')) break;
        }
        return Status::ok();
      }
      case Opcode::kCall:
      case Opcode::kThreadCreate: {
        if (!cur.consume('@')) return err("'@' expected before callee");
        const std::string callee_name = cur.ident();
        Function* callee = module_->find_function(callee_name);
        if (callee == nullptr) {
          return err("unknown function '@" + callee_name + "'");
        }
        instr->set_callee(callee);
        if (instr->opcode() == Opcode::kCall) {
          instr->set_type(callee->return_type());
          if (!cur.consume('(')) return err("'(' expected");
          if (!cur.consume(')')) {
            while (true) {
              if (Status s = parse_operand(cur, instr); !s.is_ok()) return s;
              if (cur.consume(')')) break;
              if (!cur.consume(',')) return err("',' or ')' expected");
            }
          }
        } else {
          if (!cur.consume(',')) return err("',' expected");
          if (Status s = parse_operand(cur, instr); !s.is_ok()) return s;
        }
        return Status::ok();
      }
      case Opcode::kCallPtr: {
        if (Status s = parse_operand(cur, instr); !s.is_ok()) return s;
        if (!cur.consume('(')) return err("'(' expected");
        if (!cur.consume(')')) {
          while (true) {
            if (Status s = parse_operand(cur, instr); !s.is_ok()) return s;
            if (cur.consume(')')) break;
            if (!cur.consume(',')) return err("',' or ')' expected");
          }
        }
        return Status::ok();
      }
      case Opcode::kRet:
        if (cur.at_end()) return Status::ok();
        return parse_operand(cur, instr);
      default: {
        // Uniform comma-separated operand list.
        const int want = instr->info().arity;
        if (cur.at_end()) {
          return want == 0 ? Status::ok() : err("operands expected");
        }
        while (true) {
          if (Status s = parse_operand(cur, instr); !s.is_ok()) return s;
          if (!cur.consume(',')) break;
        }
        if (want != OpInfo::kNone &&
            instr->operand_count() != static_cast<std::size_t>(want)) {
          return err("wrong operand count for " +
                     std::string(opcode_name(instr->opcode())));
        }
        return Status::ok();
      }
    }
  }

  Status resolve_pending(Function* func) {
    for (const PendingRef& ref : pending_) {
      auto it = values_.find(ref.name);
      if (it == values_.end()) {
        return parse_error("line " + std::to_string(ref.source_line + 1) +
                           ": undefined value '%" + ref.name + "' in @" +
                           func->name());
      }
      if (ref.operand_index == SIZE_MAX) {
        // Phi incoming value.
        ref.instr->set_phi_value(ref.phi_index, it->second);
      } else {
        ref.instr->set_operand(ref.operand_index, it->second);
      }
    }
    pending_.clear();
    return Status::ok();
  }

  std::vector<std::string> lines_;
  std::size_t line_no_ = 0;
  std::unique_ptr<Module> module_;
  std::unordered_map<std::string, Value*> values_;
  std::vector<PendingRef> pending_;
};

}  // namespace

Result<std::unique_ptr<Module>> parse_module(std::string_view text) {
  return ModuleParser(text).run();
}

}  // namespace owl::ir
