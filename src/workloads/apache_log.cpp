// Apache-2.0.48 model — two studied attacks:
//
//  1. Bug 25520 (paper Fig. 7, §8.4): ap_buffered_log_writer's outcnt index
//     races between logger threads. A stale check with a fresh index lets
//     memcpy land at &outbuf[8] — exactly where Apache keeps the request
//     log's file descriptor. A one-cell overflow replaces that fd with an
//     attacker-supplied value (the HTML file's fd), so Apache's own request
//     log is flushed INTO a user's HTML file: HTML integrity violation and
//     information leak. OWL was the first to find this consequence.
//  2. The 2.0.48 double free (Table 4, "PhP queries"): two request-cleanup
//     threads race on a shared PHP pool pointer.
#include "workloads/registry.hpp"

#include <cmath>

#include "ir/builder.hpp"
#include "workloads/noise.hpp"

namespace owl::workloads {

namespace {
constexpr std::int64_t kLogBufCells = 8;   // LOG_BUFSIZE
constexpr std::int64_t kFdCell = 8;        // request-log fd lives here
constexpr std::int64_t kOutCntCell = 9;    // shared outcnt index
}  // namespace

Workload make_apache_log(const NoiseProfile& profile) {
  Workload w;
  w.name = "apache-2.0.48";
  w.program = "Apache";
  w.description =
      "buffered-log outcnt race: fd overflow -> HTML integrity violation; "
      "plus PHP-pool double free";
  w.vuln_type = "Double Free / HTML integrity";
  w.subtle_inputs = "PhP queries";
  w.paper_loc = 290'000;
  w.paper_raw_reports = 715;

  auto module = std::make_shared<ir::Module>("apache_2_0_48");
  ir::Module& m = *module;
  ir::IRBuilder b(&m);

  // buffered_log: outbuf[0..7] | fd | outcnt — contiguous, like the struct.
  ir::GlobalVariable* logbuf = m.add_global("logbuf", 10);
  ir::GlobalVariable* php_pool = m.add_global("php_pool");
  ir::GlobalVariable* html_fd_g = m.add_global("html_fd");

  // --- ap_buffered_log_writer (Fig. 7 lines 1327-1366) ---
  ir::Function* log_writer =
      m.add_function("ap_buffered_log_writer", ir::Type::void_type());
  {
    ir::Argument* payload = log_writer->add_argument(ir::Type::ptr(), "strs");
    ir::Argument* len = log_writer->add_argument(ir::Type::i64(), "len");
    ir::BasicBlock* entry = log_writer->add_block("entry");
    ir::BasicBlock* flush = log_writer->add_block("flush");
    ir::BasicBlock* append = log_writer->add_block("append");

    b.set_insert_point(entry);
    b.set_loc("http_log.c", 1342);
    ir::Instruction* cnt_ptr = b.gep(logbuf, b.i64(kOutCntCell), "cnt_ptr");
    ir::Instruction* c1 = b.load(cnt_ptr, "c1");
    ir::Instruction* sum = b.add(c1, len, "sum");
    ir::Instruction* over =
        b.icmp(ir::CmpPredicate::kUGt, sum, b.i64(kLogBufCells), "over");
    b.br(over, flush, append);

    b.set_insert_point(flush);
    b.set_loc("http_log.c", 1343);
    ir::Instruction* fd_ptr = b.gep(logbuf, b.i64(kFdCell), "fd_ptr");
    ir::Instruction* fd = b.load(fd_ptr, "fd");
    b.file_write(fd, logbuf, b.i64(kLogBufCells));  // flush_log(buf)
    b.store(b.i64(0), cnt_ptr);
    b.jmp(append);

    b.set_insert_point(append);
    b.set_loc("http_log.c", 1357);
    ir::Instruction* fmt = b.input(b.i64(6), "format_io");
    b.io_delay(fmt);  // formatting the entry: the check-to-use window
    b.set_loc("http_log.c", 1358);
    ir::Instruction* c2 = b.load(cnt_ptr, "c2");  // the corrupted read
    ir::Instruction* s = b.gep(logbuf, c2, "s");  // s = &outbuf[outcnt]
    b.set_loc("http_log.c", 1359);
    w.attack_sites.push_back(b.memcpy_(s, payload, len));  // vulnerable site
    b.set_loc("http_log.c", 1362);
    ir::Instruction* c3 = b.add(c2, len, "c3");
    b.store(c3, cnt_ptr);  // buf->outcnt += len — the racy write
    b.ret();
  }

  // --- logger thread: repeated requests, attacker-chosen payload value ---
  ir::Function* logger = m.add_function("logger", ir::Type::void_type());
  {
    ir::Argument* id = logger->add_argument(ir::Type::i64(), "id");
    ir::BasicBlock* entry = logger->add_block("entry");
    ir::BasicBlock* header = logger->add_block("header");
    ir::BasicBlock* body = logger->add_block("body");
    ir::BasicBlock* done = logger->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("worker.c", 100);
    ir::Instruction* reps = b.input(b.i64(0), "reps");
    ir::Instruction* len = b.input(b.i64(1), "entry_len");
    ir::Instruction* mark = b.input(b.i64(5), "payload_value");
    ir::Instruction* buf = b.alloca_cells(4, "entry_buf");
    b.store(mark, buf);
    b.store(mark, b.gep(buf, b.i64(1), "b1"));
    b.store(mark, b.gep(buf, b.i64(2), "b2"));
    const auto loop = b.loop_header(header, reps, body, done);
    b.set_loc("worker.c", 110);
    b.call(log_writer, {buf, len});
    ir::Instruction* gap = b.add(id, b.i64(1), "gap");
    b.io_delay(gap);
    b.loop_latch(loop);
    b.ret();
  }

  // --- PHP request cleanup: the 2.0.48 double free ---
  ir::Function* php_cleanup = m.add_function("php_request_shutdown",
                                             ir::Type::void_type());
  {
    ir::BasicBlock* entry = php_cleanup->add_block("entry");
    ir::BasicBlock* destroy = php_cleanup->add_block("destroy");
    ir::BasicBlock* skip = php_cleanup->add_block("skip");

    b.set_insert_point(entry);
    b.set_loc("mod_php.c", 800);
    ir::Instruction* p = b.load(php_pool, "pool");  // racy read
    ir::Instruction* live =
        b.icmp(ir::CmpPredicate::kNe, p, b.i64(0), "live");
    b.br(live, destroy, skip);

    b.set_insert_point(destroy);
    b.set_loc("mod_php.c", 803);
    ir::Instruction* gap = b.input(b.i64(7), "shutdown_io");
    b.io_delay(gap);
    b.set_loc("mod_php.c", 805);
    // vulnerable site: double free under the race
    w.attack_sites.push_back(b.free_ptr(p));
    b.set_loc("mod_php.c", 807);
    ir::Instruction* fresh = b.malloc_cells(b.i64(2), "fresh");
    b.store(fresh, php_pool);  // racy write
    b.ret();

    b.set_insert_point(skip);
    b.ret();
  }

  ir::Function* php_worker = m.add_function("php_worker", ir::Type::void_type());
  {
    ir::Argument* phase = php_worker->add_argument(ir::Type::i64(), "phase");
    ir::BasicBlock* entry = php_worker->add_block("entry");
    ir::BasicBlock* header = php_worker->add_block("header");
    ir::BasicBlock* body = php_worker->add_block("body");
    ir::BasicBlock* done = php_worker->add_block("done");

    b.set_insert_point(entry);
    b.set_loc("worker.c", 200);
    b.io_delay(phase);
    ir::Instruction* reps = b.input(b.i64(8), "php_reps");
    const auto loop = b.loop_header(header, reps, body, done);
    b.set_loc("worker.c", 210);
    b.call(php_cleanup, {});
    b.io_delay(b.i64(2));
    b.loop_latch(loop);
    b.ret();
  }

  const double s = profile.scale;
  NoiseSpec noise;
  noise.tag = "ap20";
  noise.adhoc_groups = 4;
  noise.adhoc_guarded = static_cast<unsigned>(std::lround(4 * s) + 1);
  noise.publication_depth = static_cast<unsigned>(std::lround(12 * s));
  noise.counters = static_cast<unsigned>(std::lround(2 * s));
  noise.safe_site_groups = static_cast<unsigned>(std::lround(1 * s));
  std::vector<ir::Function*> noise_entries = add_noise(m, noise);

  ir::Function* main_fn = m.add_function("main", ir::Type::void_type());
  {
    b.set_insert_point(main_fn->add_block("entry"));
    b.set_loc("main.c", 1);
    // fd order is deterministic: request log first (3), user HTML file (4).
    ir::Instruction* logfd = b.file_open(b.i64(10), "logfd");
    b.store(logfd, b.gep(logbuf, b.i64(kFdCell), "fdp"));
    ir::Instruction* htmlfd = b.file_open(b.i64(20), "htmlfd");
    b.store(htmlfd, html_fd_g);
    // PHP pool starts allocated.
    ir::Instruction* pool = b.malloc_cells(b.i64(2), "pool0");
    b.store(pool, php_pool);

    std::vector<ir::Instruction*> tids;
    tids.push_back(b.thread_create(logger, b.i64(0), "l0"));
    tids.push_back(b.thread_create(logger, b.i64(1), "l1"));
    tids.push_back(b.thread_create(php_worker, b.i64(0), "p0"));
    ir::Instruction* p1_at = b.input(b.i64(9), "p1_at");
    tids.push_back(b.thread_create(php_worker, p1_at, "p1"));
    for (ir::Function* entry_fn : noise_entries) {
      tids.push_back(b.thread_create(entry_fn, b.i64(0)));
    }
    for (ir::Instruction* tid : tids) b.thread_join(tid);
    b.ret();
  }

  w.module = module;
  w.entry = main_fn;
  // inputs: [log_reps, entry_len, -, -, -, payload_value, format_io,
  //          php_shutdown_io, php_reps, php_worker2_at]
  w.testing_inputs = {3, 2, 0, 0, 0, 7, 1, 1, 2, 9000};
  // Exploit: payload value 4 == the HTML file's fd; the formatting window
  // is stretched so a stale bounds check meets a fresh index at outcnt 8.
  w.exploit_inputs = {10, 2, 0, 0, 0, 4, 12, 14, 10, 0};
  w.known_attacks = 2;
  w.thread_order = {1, 2, 3, 4};
  w.max_steps = 400'000;

  w.attack_succeeded = [](const interp::Machine& machine) {
    // HTML integrity violation: the log flush wrote to the HTML file's fd.
    const interp::Word html_fd = machine.read_global("html_fd");
    for (const interp::FileWriteRecord& rec : machine.file_writes()) {
      if (rec.fd == html_fd && rec.instr != nullptr &&
          rec.instr->loc().line == 1343) {
        return true;
      }
    }
    return machine.has_event(interp::SecurityEventKind::kDoubleFree);
  };
  return w;
}

}  // namespace owl::workloads
