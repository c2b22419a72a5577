#include "runtime/fused.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "runtime/compile.h"
#include "runtime/eval_ops.h"
#include "runtime/typed.h"

namespace sit::runtime {

using ir::BinOp;
using ir::UnOp;
using ir::Value;

namespace {

// Build refusals unwind through this; build_fused catches and reports.
struct BuildFail {
  std::string reason;
};

[[noreturn]] void fail(std::string reason) { throw BuildFail{std::move(reason)}; }

// ---- builder ----------------------------------------------------------------

class TraceBuilder {
 public:
  TraceBuilder(const FlatGraph& g, const std::vector<FiringRun>& runs,
               const std::vector<std::int64_t>& carry,
               const std::vector<std::int64_t>& traffic)
      : g_(g), runs_(runs), carry_(carry), traffic_(traffic) {}

  FusedProgramP build() {
    auto P = std::make_shared<FusedProgram>();
    prog_ = P.get();
    prog_->graph = &g_;
    prog_->runs = runs_;

    prog_->edges.resize(g_.edges.size());
    for (std::size_t e = 0; e < g_.edges.size(); ++e) {
      FusedEdgeMeta& m = prog_->edges[e];
      m.internal = g_.edges[e].src >= 0 && g_.edges[e].dst >= 0;
      if (m.internal) {
        if (e >= carry_.size() || carry_[e] < 0 || traffic_[e] < 0) {
          fail("internal edge without carry/traffic sizing");
        }
        m.carry = carry_[e];
        m.traffic = traffic_[e];
        ++prog_->eliminated_channels;
      }
    }

    layout_actors();
    for (const FiringRun& run : runs_) emit_run(run);
    prog_->code.push_back(FInstr{});  // Halt

    count_super();
    return P;
  }

 private:
  // Compile every AST filter once and assign each actor its slice of the
  // flat register / scalar-slot / array-slot files.
  void layout_actors() {
    const std::size_t n = g_.actors.size();
    if (n > 0xFFFF) fail("actor-id overflow");
    prog_->actors.resize(n);
    compiled_.resize(n);
    std::size_t reg_base = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const FlatActor& a = g_.actors[i];
      FusedActorMeta& meta = prog_->actors[i];
      meta.name = a.name;
      meta.reg_base = static_cast<std::uint32_t>(reg_base);
      meta.scalar_base = static_cast<std::uint32_t>(prog_->scalar_names.size());
      meta.array_base = static_cast<std::uint32_t>(prog_->array_names.size());
      switch (a.kind) {
        case FlatActor::Kind::Filter: {
          if (match_kernel(i)) break;  // no template, no registers
          const ir::FilterSpec& spec = a.node->filter;
          if (ir::stmt_sends(spec.work) || ir::stmt_sends(spec.init)) {
            fail("teleport-send:" + a.name);
          }
          std::string why;
          compiled_[i] = compile_filter(spec, &why);
          if (!compiled_[i]) {
            fail("vm-fallback:" + a.name + " (" + why + ")");
          }
          const CompiledFilter& cf = *compiled_[i];
          meta.reg_init = cf.work.reg_init;
          meta.peek_window = cf.peek_window;
          for (const auto& s : cf.scalar_slots) prog_->scalar_names.push_back(s);
          for (const auto& s : cf.array_slots) prog_->array_names.push_back(s);
          meta.num_scalars = static_cast<std::uint32_t>(cf.scalar_slots.size());
          meta.num_arrays = static_cast<std::uint32_t>(cf.array_slots.size());
          reg_base += cf.work.reg_init.size();
          break;
        }
        case FlatActor::Kind::Native:
          meta.native = true;
          break;
        case FlatActor::Kind::Splitter:
        case FlatActor::Kind::Joiner:
          // One scratch register (holds the item in flight).
          meta.reg_init.emplace_back();
          reg_base += 1;
          break;
      }
      if (reg_base > 0xFFFF) fail("register-file-overflow");
    }
    prog_->num_regs = reg_base;
    if (prog_->scalar_names.size() > 0xFFFF ||
        prog_->array_names.size() > 0xFFFF) {
      fail("state-slot overflow");
    }
  }

  // A filter whose work function is a linear node's expression form, with
  // the tapes that form touches, runs as linear-kernel.
  bool match_kernel(std::size_t actor) {
    const FlatActor& a = g_.actors[actor];
    LinearRows rows;
    if (!linear_kernel_rows(a.node->filter, &rows)) return false;
    LinearKernelArgs K;
    K.actor = static_cast<int>(actor);
    K.in_edge = a.in_edges.empty() ? -1 : a.in_edges[0];
    K.out_edge = a.out_edges.empty() ? -1 : a.out_edges[0];
    if (K.out_edge < 0 || (K.in_edge < 0 && (rows.span > 0 || rows.pop > 0))) {
      return false;  // the template reports the missing tape
    }
    K.in_real = K.in_edge >= 0 && !edge_internal(K.in_edge);
    K.out_real = !edge_internal(K.out_edge);
    K.rows = std::move(rows);
    kernel_of_.emplace(static_cast<int>(actor), std::move(K));
    return true;
  }

  // One firing run: SetActor (which also loads the first firing's register
  // template), the actor's firing template once, and for more than one
  // firing a FireLoop back-edge that reloads the template and re-enters it.
  // A splitter/joiner firing that collapses to a single copy-run instead
  // moves the whole run's items in that one instruction, and a linear
  // kernel's run is its one LinearKernel instruction.
  void emit_run(const FiringRun& run) {
    if (run.actor < 0 ||
        static_cast<std::size_t>(run.actor) >= g_.actors.size() ||
        run.count < 1) {
      fail("malformed firing run");
    }
    if (run.count > INT32_MAX) fail("firing-count overflow");
    const FlatActor& a = g_.actors[static_cast<std::size_t>(run.actor)];
    if (const auto k = kernel_of_.find(run.actor); k != kernel_of_.end()) {
      if (prog_->kernels.size() >= 0xFFFF) fail("args-table overflow");
      FInstr I{};
      I.op = FOp::LinearKernel;
      I.a = static_cast<std::uint16_t>(prog_->kernels.size());
      prog_->kernels.push_back(k->second);
      prog_->kernels.back().firings = run.count;
      prog_->code.push_back(I);
      return;
    }
    FInstr set{};
    set.op = FOp::SetActor;
    set.a = static_cast<std::uint16_t>(run.actor);
    prog_->code.push_back(set);

    const std::size_t body = prog_->code.size();
    switch (a.kind) {
      case FlatActor::Kind::Filter:
        append_template(filter_template(run.actor));
        break;
      case FlatActor::Kind::Native:
        emit_native_firing(run.actor);
        break;
      case FlatActor::Kind::Splitter:
      case FlatActor::Kind::Joiner:
        emit_sj_firing(run.actor);
        if (prog_->code.size() == body + 1 &&
            prog_->code.back().op == FOp::CopyRun) {
          prog_->copies[prog_->code.back().a].n *= run.count;
          return;
        }
        break;
    }
    if (run.count == 1) return;
    FInstr loop{};
    loop.op = FOp::FireLoop;
    loop.a = set.a;
    loop.jump = static_cast<std::int32_t>(body);
    loop.edge = static_cast<std::int32_t>(run.count);
    prog_->code.push_back(loop);
  }

  // The peepholed template of a filter, translated once per actor (a
  // feedback loop's actors appear in several runs).
  const std::vector<FInstr>& filter_template(int actor) {
    auto it = templates_.find(actor);
    if (it == templates_.end()) {
      std::vector<FInstr> tmpl = translate_filter(actor);
      peephole(tmpl);
      it = templates_.emplace(actor, std::move(tmpl)).first;
    }
    return it->second;
  }

  void emit_native_firing(int actor) {
    const FlatActor& a = g_.actors[static_cast<std::size_t>(actor)];
    NativeFireArgs nf;
    nf.actor = actor;
    nf.in_edge = a.in_edges.empty() ? -1 : a.in_edges[0];
    nf.out_edge = a.out_edges.empty() ? -1 : a.out_edges[0];
    nf.in_real = nf.in_edge >= 0 && !edge_internal(nf.in_edge);
    nf.out_real = nf.out_edge >= 0 && !edge_internal(nf.out_edge);
    nf.flops = static_cast<std::int64_t>(a.node->native.cost_flops);
    nf.int_ops = static_cast<std::int64_t>(a.node->native.cost_ops -
                                           a.node->native.cost_flops);
    nf.channel = a.pop_rate() + a.push_rate();
    if (prog_->nats.size() >= 0xFFFF) fail("args-table overflow");
    FInstr I{};
    I.op = FOp::NativeFire;
    I.a = static_cast<std::uint16_t>(prog_->nats.size());
    prog_->nats.push_back(nf);
    prog_->code.push_back(I);
  }

  [[nodiscard]] bool edge_internal(int e) const {
    return prog_->edges[static_cast<std::size_t>(e)].internal;
  }

  // ---- filter template translation ------------------------------------------

  // Lower the compiled per-actor bytecode into trace form: registers and
  // state slots rebased, channel ops bound to this actor's edges.  Jumps stay
  // template-relative (an index == template length means "fall off the end",
  // where the VM's Halt sat).
  std::vector<FInstr> translate_filter(int actor) {
    const auto ai = static_cast<std::size_t>(actor);
    const FlatActor& a = g_.actors[ai];
    const FusedActorMeta& meta = prog_->actors[ai];
    const CompiledProgram& w = compiled_[ai]->work;
    const int in_e = a.in_edges.empty() ? -1 : a.in_edges[0];
    const int out_e = a.out_edges.empty() ? -1 : a.out_edges[0];

    // Bind a channel op to edge `e`, lowered when the edge is internal.
    const auto bind = [&](FInstr& I, int e, FOp lowered, const char* what) {
      if (e < 0) fail(std::string(what) + " edge in '" + a.name + "'");
      if (edge_internal(e)) I.op = lowered;
      I.edge = e;
    };
    // Drop the trailing Halt (exactly one, at the end).
    std::vector<FInstr> t(w.code.begin(), w.code.end() - 1);
    for (FInstr& I : t) {
      for_each_reg(I, [&](std::uint16_t& r) {
        r = static_cast<std::uint16_t>(meta.reg_base + r);
      });
      switch (I.op) {
        case FOp::LoadScalar:
        case FOp::StoreScalar:
          I.a = static_cast<std::uint16_t>(meta.scalar_base + I.a);
          break;
        case FOp::LoadElem:
        case FOp::StoreElem:
          I.a = static_cast<std::uint16_t>(meta.array_base + I.a);
          break;
        case FOp::RPeek: bind(I, in_e, FOp::TPeek, "peek without an input"); break;
        case FOp::RPop: bind(I, in_e, FOp::TPop, "pop without an input"); break;
        case FOp::RPopN: bind(I, in_e, FOp::TPopN, "pop without an input"); break;
        case FOp::RPush: bind(I, out_e, FOp::TPush, "push without an output"); break;
        default: break;
      }
    }
    return t;
  }

  // Append a (peepholed) template to the trace, relocating jumps.
  void append_template(const std::vector<FInstr>& tmpl) {
    const auto base = static_cast<std::int32_t>(prog_->code.size());
    for (const FInstr& I : tmpl) {
      prog_->code.push_back(I);
      if (I.jump >= 0) prog_->code.back().jump = base + I.jump;
    }
  }

  // ---- superinstruction selection -------------------------------------------

  // No instruction outside [start, start+len) may jump strictly inside it
  // (jumps *at* start land on the superinstruction, which re-enters the
  // pattern at its entry point -- safe).
  static bool region_clear(const std::vector<FInstr>& t, std::size_t start,
                           std::size_t len) {
    for (std::size_t j = 0; j < t.size(); ++j) {
      const std::int32_t tgt = t[j].jump;
      if (tgt > static_cast<std::int32_t>(start) &&
          tgt < static_cast<std::int32_t>(start + len)) {
        if (j < start || j >= start + len) return false;
      }
    }
    return true;
  }

  static bool all_distinct(std::initializer_list<std::uint16_t> regs) {
    for (auto i = regs.begin(); i != regs.end(); ++i) {
      for (auto j = i + 1; j != regs.end(); ++j) {
        if (*i == *j) return false;
      }
    }
    return true;
  }

  static bool is_peek(FOp op) { return op == FOp::TPeek || op == FOp::RPeek; }
  static bool is_pop(FOp op) { return op == FOp::TPop || op == FOp::RPop; }
  static bool is_push(FOp op) { return op == FOp::TPush || op == FOp::RPush; }

  // The exact 9-instruction (array) / 7-instruction (sum) loop shape the
  // bytecode compiler emits for `for (i) acc += peek(i) [* coef[i]]`:
  //
  //   i+0  jge  ri, rhi  -> end         i+0  jge  ri, rhi -> end
  //   i+1  tally 2 (int)                i+1  tally 2 (int)
  //   i+2  move slot, ri                i+2  move slot, ri
  //   i+3  peek p, [slot]               i+3  peek p, [slot]
  //   i+4  ld.e q, arr[slot]            i+4  bin add acc, acc, p
  //   i+5  bin mul m, p, q              i+5  forinc ri, rstep
  //   i+6  bin add acc, acc, m          i+6  jmp -> i
  //   i+7  forinc ri, rstep
  //   i+8  jmp -> i
  bool match_mac(const std::vector<FInstr>& t, std::size_t i,
                 MacLoopArgs* out, std::size_t* len) const {
    const FInstr& I0 = t[i];
    if (I0.op != FOp::JmpIfGe) return false;
    const std::uint16_t ri = I0.a, rhi = I0.b;
    for (const bool has_array : {true, false}) {
      const std::size_t n = has_array ? 9 : 7;
      if (i + n > t.size()) continue;
      if (I0.jump != static_cast<std::int32_t>(i + n)) continue;
      const FInstr& tl = t[i + 1];
      if (tl.op != FOp::Tally || tl.sub != 2 || tl.count != CountTag::IntOp) continue;
      const FInstr& mv = t[i + 2];
      if (mv.op != FOp::Move || mv.a != ri) continue;
      const std::uint16_t slot = mv.dst;
      const FInstr& pk = t[i + 3];
      if (!is_peek(pk.op) || pk.a != slot) continue;
      const std::uint16_t p = pk.dst;
      MacLoopArgs M;
      M.ri = ri;
      M.rhi = rhi;
      M.slot = slot;
      M.p = p;
      M.edge = pk.edge;
      M.real = pk.op == FOp::RPeek;
      M.has_array = has_array;
      std::size_t k = i + 4;
      if (has_array) {
        const FInstr& ld = t[k];
        if (ld.op != FOp::LoadElem || ld.b != slot) continue;
        M.q = ld.dst;
        M.arr = ld.a;
        const FInstr& mul = t[k + 1];
        if (mul.op != FOp::Bin || static_cast<BinOp>(mul.sub) != BinOp::Mul ||
            mul.count != CountTag::ByResult) {
          continue;
        }
        if (!((mul.a == M.p && mul.b == M.q) || (mul.a == M.q && mul.b == M.p))) {
          continue;
        }
        M.m = mul.dst;
        k += 2;
      }
      const FInstr& add = t[k];
      const std::uint16_t addend = has_array ? M.m : M.p;
      if (add.op != FOp::Bin || static_cast<BinOp>(add.sub) != BinOp::Add ||
          add.count != CountTag::ByResult || add.dst != add.a ||
          add.b != addend) {
        continue;
      }
      M.acc = add.dst;
      const FInstr& inc = t[k + 1];
      if (inc.op != FOp::ForInc || inc.dst != ri) continue;
      M.rstep = inc.a;
      const FInstr& jb = t[k + 2];
      if (jb.op != FOp::Jmp || jb.jump != static_cast<std::int32_t>(i)) continue;
      const bool distinct =
          has_array
              ? all_distinct({M.ri, M.rhi, M.rstep, M.slot, M.p, M.q, M.m, M.acc})
              : all_distinct({M.ri, M.rhi, M.rstep, M.slot, M.p, M.acc});
      if (!distinct) continue;
      if (!region_clear(t, i, n)) continue;
      *out = M;
      *len = n;
      return true;
    }
    return false;
  }

  // pop -> [compute] -> push, with nothing in between:
  //   [pop r][push r]                       pop-push
  //   [pop r][un  op d, r][push d]          pop-un-push
  //   [pop r][bin op d, a, b][push d]       pop-bin-push  (r in {a, b})
  bool match_pcp(const std::vector<FInstr>& t, std::size_t i, PcpArgs* out,
                 std::size_t* len) const {
    const FInstr& I0 = t[i];
    if (!is_pop(I0.op)) return false;
    const std::uint16_t r = I0.dst;
    PcpArgs P;
    P.in_edge = I0.edge;
    P.in_real = I0.op == FOp::RPop;
    P.rpop = r;
    if (i + 1 < t.size() && is_push(t[i + 1].op) && t[i + 1].dst == r) {
      P.kind = PcpArgs::Kind::Plain;
      P.rres = r;
      P.out_edge = t[i + 1].edge;
      P.out_real = t[i + 1].op == FOp::RPush;
      if (!region_clear(t, i, 2)) return false;
      *out = P;
      *len = 2;
      return true;
    }
    if (i + 2 >= t.size() || !is_push(t[i + 2].op)) return false;
    const FInstr& op = t[i + 1];
    const FInstr& ps = t[i + 2];
    if (ps.dst != op.dst) return false;
    if (op.op == FOp::Un && op.a == r) {
      P.kind = PcpArgs::Kind::Un;
    } else if (op.op == FOp::Bin && (op.a == r || op.b == r)) {
      P.kind = PcpArgs::Kind::Bin;
    } else {
      return false;
    }
    P.sub = op.sub;
    P.tag = op.count;
    P.a = op.a;
    P.b = op.b;
    P.rres = op.dst;
    P.out_edge = ps.edge;
    P.out_real = ps.op == FOp::RPush;
    if (!region_clear(t, i, 3)) return false;
    *out = P;
    *len = 3;
    return true;
  }

  // Rewrite a filter template in place, replacing matched windows with
  // superinstructions and remapping every jump through the index map.
  void peephole(std::vector<FInstr>& t) {
    std::vector<FInstr> out;
    out.reserve(t.size());
    // new_index[old] for every old position, plus the one-past-the-end slot
    // (jump targets may point at the stripped Halt position).
    std::vector<std::int32_t> new_index(t.size() + 1, 0);
    std::size_t i = 0;
    while (i < t.size()) {
      MacLoopArgs M;
      PcpArgs P;
      std::size_t len = 0;
      if (match_mac(t, i, &M, &len)) {
        if (prog_->macs.size() >= 0xFFFF) fail("args-table overflow");
        FInstr I{};
        I.op = FOp::MacLoop;
        I.a = static_cast<std::uint16_t>(prog_->macs.size());
        prog_->macs.push_back(M);
        for (std::size_t k = 0; k < len; ++k) {
          new_index[i + k] = static_cast<std::int32_t>(out.size());
        }
        out.push_back(I);
        i += len;
      } else if (match_pcp(t, i, &P, &len)) {
        if (prog_->pcps.size() >= 0xFFFF) fail("args-table overflow");
        FInstr I{};
        I.op = FOp::PopComputePush;
        I.a = static_cast<std::uint16_t>(prog_->pcps.size());
        prog_->pcps.push_back(P);
        for (std::size_t k = 0; k < len; ++k) {
          new_index[i + k] = static_cast<std::int32_t>(out.size());
        }
        out.push_back(I);
        i += len;
      } else {
        new_index[i] = static_cast<std::int32_t>(out.size());
        out.push_back(t[i]);
        ++i;
      }
    }
    new_index[t.size()] = static_cast<std::int32_t>(out.size());
    for (FInstr& I : out) {
      if (I.jump >= 0) I.jump = new_index[static_cast<std::size_t>(I.jump)];
    }
    t = std::move(out);
  }

  // ---- splitter / joiner synthesis ------------------------------------------

  // One firing, with counting identical to Executor::fire: a round-robin
  // splitter counts 2 per item even on a dangling branch; a duplicate
  // splitter counts 1 + fan-out per firing; a joiner skips dangling inputs
  // entirely.  Runs of identical item moves become copy-run/dup-run
  // superinstructions (emit_run scales a lone one by the run's firings).
  void emit_sj_firing(int actor) {
    const auto ai = static_cast<std::size_t>(actor);
    const FlatActor& a = g_.actors[ai];
    const auto reg =
        static_cast<std::uint16_t>(prog_->actors[ai].reg_base);
    if (a.kind == FlatActor::Kind::Splitter) {
      const int in_e = a.in_edges.empty() ? -1 : a.in_edges[0];
      if (in_e < 0) fail("splitter without an input edge in '" + a.name + "'");
      if (a.sj == ir::SJKind::Duplicate) {
        CopyRunArgs C;
        C.src = in_e;
        C.src_real = !edge_internal(in_e);
        C.n = 1;
        C.reg = reg;
        int dangling = 0;
        for (const int eid : a.out_edges) {
          if (eid >= 0) {
            C.dst.push_back(eid);
            C.dst_real.push_back(edge_internal(eid) ? 0 : 1);
          } else {
            ++dangling;
          }
        }
        if (dangling == 0 && !C.dst.empty()) {
          append_copy(std::move(C));
        } else {
          emit_raw_move(in_e, reg, C.dst, /*extra_channel=*/dangling);
        }
      } else {
        for (std::size_t p = 0; p < a.out_rate.size(); ++p) {
          const int w = a.out_rate[p];
          if (w <= 0) continue;
          const int eid = p < a.out_edges.size() ? a.out_edges[p] : -1;
          if (eid >= 0) {
            CopyRunArgs C;
            C.src = in_e;
            C.src_real = !edge_internal(in_e);
            C.dst.push_back(eid);
            C.dst_real.push_back(edge_internal(eid) ? 0 : 1);
            C.n = w;
            C.reg = reg;
            append_copy(std::move(C));
          } else {  // dangling branch: counted, not routed
            for (int k = 0; k < w; ++k) emit_raw_move(in_e, reg, {}, 1);
          }
        }
      }
    } else {  // Joiner
      const int out_e = a.out_edges.empty() ? -1 : a.out_edges[0];
      if (out_e < 0) fail("joiner without an output edge in '" + a.name + "'");
      for (std::size_t p = 0; p < a.in_rate.size(); ++p) {
        const int w = a.in_rate[p];
        if (w <= 0) continue;
        const int eid = p < a.in_edges.size() ? a.in_edges[p] : -1;
        if (eid < 0) continue;  // Executor skips dangling inputs, uncounted
        CopyRunArgs C;
        C.src = eid;
        C.src_real = !edge_internal(eid);
        C.dst.push_back(out_e);
        C.dst_real.push_back(edge_internal(out_e) ? 0 : 1);
        C.n = w;
        C.reg = reg;
        append_copy(std::move(C));
      }
    }
  }

  // pop src -> push each dst, plus `extra_channel` counted-but-unrouted items
  // (a dangling splitter branch still counts its channel traffic).
  void emit_raw_move(int src, std::uint16_t reg,
                     const std::vector<std::int32_t>& dst, int extra_channel) {
    FInstr pop{};
    pop.op = edge_internal(src) ? FOp::TPop : FOp::RPop;
    pop.count = CountTag::Channel;
    pop.dst = reg;
    pop.edge = src;
    prog_->code.push_back(pop);
    for (const std::int32_t d : dst) {
      FInstr push{};
      push.op = edge_internal(d) ? FOp::TPush : FOp::RPush;
      push.count = CountTag::Channel;
      push.dst = reg;
      push.edge = d;
      prog_->code.push_back(push);
    }
    while (extra_channel > 0) {
      const int chunk = extra_channel > 255 ? 255 : extra_channel;
      FInstr tally{};
      tally.op = FOp::Tally;
      tally.sub = static_cast<std::uint8_t>(chunk);
      tally.count = CountTag::Channel;
      prog_->code.push_back(tally);
      extra_channel -= chunk;
    }
  }

  void append_copy(CopyRunArgs args) {
    if (prog_->copies.size() >= 0xFFFF) fail("args-table overflow");
    FInstr I{};
    I.op = FOp::CopyRun;
    I.a = static_cast<std::uint16_t>(prog_->copies.size());
    prog_->copies.push_back(std::move(args));
    prog_->code.push_back(I);
  }

  // Instances per iteration: an instruction inside a firing loop counts once
  // per firing.
  void count_super() {
    const std::vector<FInstr>& code = prog_->code;
    std::vector<std::int64_t> times(code.size(), 1);
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
      if (code[pc].op != FOp::FireLoop) continue;
      for (auto k = static_cast<std::size_t>(code[pc].jump); k < pc; ++k) {
        times[k] = code[pc].edge;
      }
    }
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
      const FInstr& I = code[pc];
      const char* name = nullptr;
      switch (I.op) {
        case FOp::MacLoop:
          name = prog_->macs[I.a].has_array ? "mac-loop" : "sum-loop";
          break;
        case FOp::PopComputePush:
          switch (prog_->pcps[I.a].kind) {
            case PcpArgs::Kind::Plain: name = "pop-push"; break;
            case PcpArgs::Kind::Bin: name = "pop-bin-push"; break;
            case PcpArgs::Kind::Un: name = "pop-un-push"; break;
          }
          break;
        case FOp::CopyRun:
          name = prog_->copies[I.a].dst.size() > 1 ? "dup-run" : "copy-run";
          break;
        case FOp::LinearKernel:
          name = "linear-kernel";
          break;
        default:
          break;
      }
      if (name != nullptr) prog_->super[name] += times[pc];
    }
  }

  const FlatGraph& g_;
  const std::vector<FiringRun>& runs_;
  const std::vector<std::int64_t>& carry_;
  const std::vector<std::int64_t>& traffic_;
  FusedProgram* prog_{nullptr};
  std::vector<CompiledFilterP> compiled_;
  std::map<int, std::vector<FInstr>> templates_;
  std::map<int, LinearKernelArgs> kernel_of_;  // by actor, firings unset
};

// The literal c of a term `c * peek(i)`, with 0 <= i < peek; false otherwise.
bool match_term(const ir::Expr& e, int peek, double* c, std::int32_t* i) {
  using ir::Expr;
  if (e.kind != Expr::Kind::Bin || e.bop != BinOp::Mul || !e.a || !e.b) {
    return false;
  }
  if (e.a->kind != Expr::Kind::FloatConst || e.b->kind != Expr::Kind::Peek ||
      !e.b->a || e.b->a->kind != Expr::Kind::IntConst) {
    return false;
  }
  const std::int64_t off = e.b->a->ival;
  if (off < 0 || off >= peek) return false;
  *c = e.a->fval;
  *i = static_cast<std::int32_t>(off);
  return true;
}

}  // namespace

bool linear_kernel_rows(const ir::FilterSpec& f, LinearRows* out) {
  using ir::Expr;
  using ir::Stmt;
  if (!f.state.empty() || f.init || !f.handlers.empty() || !f.work ||
      f.work->kind != Stmt::Kind::Block || f.push < 1 || f.pop < 0 ||
      f.peek < 0) {
    return false;
  }
  const std::vector<ir::StmtP>& body = f.work->stmts;
  if (body.size() != static_cast<std::size_t>(f.push + (f.pop > 0 ? 1 : 0))) {
    return false;
  }
  LinearRows R;
  R.peek = f.peek;
  R.pop = f.pop;
  R.push = f.push;
  R.row_ptr.push_back(0);
  std::vector<const Expr*> spine;
  for (int o = 0; o < f.push; ++o) {
    const ir::StmtP& s = body[static_cast<std::size_t>(o)];
    if (!s || s->kind != Stmt::Kind::Push || !s->value) return false;
    // Walk the left-deep sum from its last term down to its head.
    spine.clear();
    const Expr* e = s->value.get();
    while (e->kind == Expr::Kind::Bin && e->bop == BinOp::Add && e->a && e->b) {
      spine.push_back(e->b.get());
      e = e->a.get();
    }
    const bool has_b = e->kind == Expr::Kind::FloatConst;
    R.has_b.push_back(has_b ? 1 : 0);
    R.b.push_back(has_b ? e->fval : 0.0);
    if (!has_b) spine.push_back(e);
    for (auto t = spine.rbegin(); t != spine.rend(); ++t) {
      double c = 0.0;
      std::int32_t i = 0;
      if (!match_term(**t, f.peek, &c, &i)) return false;
      R.col.push_back(i);
      R.val.push_back(c);
      R.span = std::max(R.span, i + 1);
    }
    R.row_ptr.push_back(static_cast<std::int32_t>(R.col.size()));
    const auto terms = static_cast<std::int64_t>(spine.size());
    R.flops += terms + (terms + (has_b ? 1 : 0) - 1);  // muls, then adds
    R.channel += terms + 1;                             // peeks, the push
  }
  if (f.pop > 0) {
    const ir::StmtP& s = body.back();
    if (!s || s->kind != Stmt::Kind::PopN || !s->index ||
        s->index->kind != Expr::Kind::IntConst || s->index->ival != f.pop) {
      return false;
    }
    R.channel += f.pop;
  }
  *out = std::move(R);
  return true;
}

FusedProgramP build_fused(const FlatGraph& g, const std::vector<FiringRun>& runs,
                          const std::vector<std::int64_t>& carry,
                          const std::vector<std::int64_t>& traffic,
                          std::string* reason) {
  try {
    return TraceBuilder(g, runs, carry, traffic).build();
  } catch (const BuildFail& f) {
    if (reason) *reason = f.reason;
    return nullptr;
  }
}

// ---- disassembly ------------------------------------------------------------

std::string FusedProgram::disassemble() const {
  std::string out;
  out += "; fused steady-state trace: " + std::to_string(code.size()) +
         " instruction(s), " + std::to_string(runs.size()) +
         " firing run(s), " + std::to_string(num_regs) + " register(s), " +
         std::to_string(eliminated_channels) + " channel(s) lowered\n";
  for (const auto& [name, n] : super) {
    out += ";   super " + name + " x " + std::to_string(n) + "\n";
  }
  for (std::size_t i = 0; i < code.size(); ++i) {
    const FInstr& I = code[i];
    out += std::to_string(i) + ": " + op_name(I.op);
    switch (I.op) {
      case FOp::Bin:
        out += " " + std::string(ir::to_string(static_cast<BinOp>(I.sub)));
        break;
      case FOp::Un:
        out += " " + std::string(ir::to_string(static_cast<UnOp>(I.sub)));
        break;
      case FOp::SetActor:
        out += " " + actors[I.a].name;
        break;
      case FOp::FireLoop:
        out += " " + actors[I.a].name + " x" + std::to_string(I.edge);
        break;
      case FOp::MacLoop: {
        const MacLoopArgs& M = macs[I.a];
        out += std::string(" ; ") + (M.has_array ? "mac-loop" : "sum-loop") +
               " acc=r" + std::to_string(M.acc) + " i=r" +
               std::to_string(M.ri) + " hi=r" + std::to_string(M.rhi);
        if (M.has_array) out += " coef=" + array_names[M.arr];
        out += " edge=" + std::to_string(M.edge) + (M.real ? " (ring)" : "");
        break;
      }
      case FOp::PopComputePush: {
        const PcpArgs& P = pcps[I.a];
        switch (P.kind) {
          case PcpArgs::Kind::Plain: out += " ; pop-push"; break;
          case PcpArgs::Kind::Bin:
            out += " ; pop-bin-push " +
                   std::string(ir::to_string(static_cast<BinOp>(P.sub)));
            break;
          case PcpArgs::Kind::Un:
            out += " ; pop-un-push " +
                   std::string(ir::to_string(static_cast<UnOp>(P.sub)));
            break;
        }
        out += " in=" + std::to_string(P.in_edge) +
               " out=" + std::to_string(P.out_edge);
        break;
      }
      case FOp::CopyRun: {
        const CopyRunArgs& C = copies[I.a];
        out += std::string(" ; ") +
               (C.dst.size() > 1 ? "dup-run" : "copy-run") + " n=" +
               std::to_string(C.n) + " src=" + std::to_string(C.src) + " dst=";
        for (std::size_t d = 0; d < C.dst.size(); ++d) {
          out += (d ? "," : "") + std::to_string(C.dst[d]);
        }
        break;
      }
      case FOp::NativeFire:
        out += " " + actors[static_cast<std::size_t>(nats[I.a].actor)].name;
        break;
      case FOp::LinearKernel: {
        const LinearKernelArgs& K = kernels[I.a];
        out += " " + actors[static_cast<std::size_t>(K.actor)].name +
               " ; linear-kernel rows=" + std::to_string(K.rows.push) +
               " nnz=" + std::to_string(K.rows.nnz()) + " x" +
               std::to_string(K.firings) + " in=" + std::to_string(K.in_edge) +
               " out=" + std::to_string(K.out_edge);
        break;
      }
      default:
        out += " dst=r" + std::to_string(I.dst) + " a=" + std::to_string(I.a) +
               " b=" + std::to_string(I.b);
        break;
    }
    if (I.jump >= 0) out += " ->" + std::to_string(I.jump);
    if (I.edge >= 0 && I.op != FOp::FireLoop) {
      out += " edge=" + std::to_string(I.edge);
    }
    out += "\n";
  }
  return out;
}

// ---- typed (dual-plane) fused execution -------------------------------------
//
// TypedFusedExec runs the trace with the per-actor VM's semantics: the same
// op counting and the same error strings thrown in the same order.  What
// typeflow proved safe lets it go faster: registers and (for the duration of
// an activation) filter state live in raw planes, CountTag::ByResult is
// pre-resolved, and the mac-loop superinstruction runs as a raw double*
// kernel when a hoisted precheck shows no per-element check can fire.

TypedFusedProgramP build_typed_fused(const FusedProgramP& base,
                                     const std::vector<FilterState>& states,
                                     std::string* refusal) {
  if (!base) return nullptr;
  TypedLowerInput in;
  in.code = &base->code;
  in.num_regs = base->num_regs;
  in.scalar_names = &base->scalar_names;
  in.array_names = &base->array_names;
  in.fused = base.get();
  in.loop = true;  // fused registers persist across iterations
  // Seed the state classes from the current (post-init) tags, per actor.
  in.scalar_seed.assign(base->scalar_names.size(), Tag::Int);
  in.array_seed.assign(base->array_names.size(), Tag::Int);
  for (std::size_t i = 0; i < base->actors.size(); ++i) {
    const FusedActorMeta& m = base->actors[i];
    const FilterState& st = states[i];
    for (std::uint32_t k = 0; k < m.num_scalars; ++k) {
      const std::string& name = base->scalar_names[m.scalar_base + k];
      auto it = st.scalars.find(name);
      if (it == st.scalars.end()) {
        if (refusal) *refusal = "unbound-state:" + m.name + "." + name;
        return nullptr;
      }
      in.scalar_seed[m.scalar_base + k] = value_tag(it->second);
    }
    for (std::uint32_t k = 0; k < m.num_arrays; ++k) {
      const std::string& name = base->array_names[m.array_base + k];
      auto it = st.arrays.find(name);
      if (it == st.arrays.end()) {
        if (refusal) *refusal = "unbound-state:" + m.name + "." + name;
        return nullptr;
      }
      Tag t = it->second.empty() ? Tag::Int : value_tag(it->second.front());
      for (const auto& v : it->second) t = join_tag(t, value_tag(v));
      in.array_seed[m.array_base + k] = t;
    }
  }

  auto out = std::make_shared<TypedFusedProgram>();
  out->base = base;
  if (!typed_lower(in, &out->code, refusal)) return nullptr;
  return out;
}

// Uncounted tape adapters over a lowered edge, for NativeFire (native filters
// count statically, exactly like Executor::fire does for them).
class TypedFusedExec::BufIn final : public ir::InTape {
 public:
  explicit BufIn(EdgeState& s) : s_(s) {}
  double peek_item(int offset) override {
    if (offset < 0 || s_.rd + static_cast<std::size_t>(offset) >= s_.wr) {
      buffer_peek_error(offset, s_.wr - s_.rd);
    }
    return s_.buf[s_.rd + static_cast<std::size_t>(offset)];
  }
  double pop_item() override {
    if (s_.rd >= s_.wr) throw std::runtime_error("pop from empty channel");
    return s_.buf[s_.rd++];
  }
  void pop_many(int n) override {
    if (n <= 0) return;
    if (s_.rd + static_cast<std::size_t>(n) > s_.wr) {
      throw std::runtime_error("pop from empty channel");
    }
    s_.rd += static_cast<std::size_t>(n);
  }

 private:
  EdgeState& s_;
};

class TypedFusedExec::BufOut final : public ir::OutTape {
 public:
  explicit BufOut(EdgeState& s) : s_(s) {}
  void push_item(double v) override {
    if (s_.wr >= s_.buf.size()) {
      throw std::logic_error("fused trace buffer overflow");
    }
    s_.buf[s_.wr++] = v;
  }

 private:
  EdgeState& s_;
};

TypedFusedExec::TypedFusedExec(
    TypedFusedProgramP prog, std::vector<FilterState>& states,
    const std::vector<std::unique_ptr<Channel>>& chans,
    const std::vector<std::unique_ptr<ir::NativeState>>& nstates)
    : prog_(std::move(prog)) {
  const FusedProgram& base = *prog_->base;
  // Registers start as their templates' Value() does: int 0 in both
  // planes.  Every run's SetActor re-templates its slice before any read.
  dregs_.assign(base.num_regs, 0.0);
  iregs_.assign(base.num_regs, 0);
  scalar_vals_.resize(base.scalar_names.size());
  array_vals_.resize(base.array_names.size());
  dscalars_.assign(base.scalar_names.size(), 0.0);
  iscalars_.assign(base.scalar_names.size(), 0);
  darrays_.resize(base.array_names.size());
  iarrays_.resize(base.array_names.size());
  for (std::size_t i = 0; i < base.actors.size(); ++i) {
    const FusedActorMeta& m = base.actors[i];
    FilterState& st = states[i];
    for (std::uint32_t k = 0; k < m.num_scalars; ++k) {
      const std::string& name = base.scalar_names[m.scalar_base + k];
      auto it = st.scalars.find(name);
      if (it == st.scalars.end()) {
        throw std::logic_error("fused bind: state has no scalar '" + name + "'");
      }
      scalar_vals_[m.scalar_base + k] = &it->second;
    }
    for (std::uint32_t k = 0; k < m.num_arrays; ++k) {
      const std::string& name = base.array_names[m.array_base + k];
      auto it = st.arrays.find(name);
      if (it == st.arrays.end()) {
        throw std::logic_error("fused bind: state has no array '" + name + "'");
      }
      array_vals_[m.array_base + k] = &it->second;
    }
  }
  chans_.reserve(chans.size());
  for (const auto& c : chans) chans_.push_back(c.get());
  nstates_.reserve(nstates.size());
  for (const auto& s : nstates) nstates_.push_back(s.get());
  ebuf_.resize(base.edges.size());
  for (std::size_t e = 0; e < base.edges.size(); ++e) {
    const FusedEdgeMeta& m = base.edges[e];
    if (m.internal) {
      ebuf_[e].buf.resize(static_cast<std::size_t>(m.carry + m.traffic));
    }
  }
}

bool TypedFusedExec::sync_state_in() {
  const TypedCode& c = prog_->code;
  for (std::size_t s = 0; s < scalar_vals_.size(); ++s) {
    const ir::Value& v = *scalar_vals_[s];
    if (value_tag(v) != c.scalar_class[s]) return false;
    if (c.scalar_class[s] == Tag::Double) {
      dscalars_[s] = v.as_double();
    } else {
      iscalars_[s] = v.as_int();
    }
  }
  for (std::size_t a = 0; a < array_vals_.size(); ++a) {
    const std::vector<ir::Value>& arr = *array_vals_[a];
    if (c.array_class[a] == Tag::Double) {
      darrays_[a].resize(arr.size());
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (arr[i].is_int()) return false;
        darrays_[a][i] = arr[i].as_double();
      }
    } else {
      iarrays_[a].resize(arr.size());
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (!arr[i].is_int()) return false;
        iarrays_[a][i] = arr[i].as_int();
      }
    }
  }
  return true;
}

void TypedFusedExec::sync_state_out() {
  const TypedCode& c = prog_->code;
  for (std::size_t s = 0; s < scalar_vals_.size(); ++s) {
    *scalar_vals_[s] = c.scalar_class[s] == Tag::Double
                           ? ir::Value(dscalars_[s])
                           : ir::Value(iscalars_[s]);
  }
  for (std::size_t a = 0; a < array_vals_.size(); ++a) {
    std::vector<ir::Value>& arr = *array_vals_[a];
    if (c.array_class[a] == Tag::Double) {
      for (std::size_t i = 0; i < arr.size(); ++i) {
        arr[i] = ir::Value(darrays_[a][i]);
      }
    } else {
      for (std::size_t i = 0; i < arr.size(); ++i) {
        arr[i] = ir::Value(iarrays_[a][i]);
      }
    }
  }
}

bool TypedFusedExec::activate() {
  if (active_) return true;
  const FusedProgram& base = *prog_->base;
  for (std::size_t e = 0; e < base.edges.size(); ++e) {
    const FusedEdgeMeta& m = base.edges[e];
    if (m.internal &&
        chans_[e]->size() != static_cast<std::size_t>(m.carry)) {
      return false;  // graph is mid-iteration (manual fire); run per-actor
    }
  }
  // A state tag drifting from its inferred class (e.g. a handler retagged a
  // scalar since specialization) refuses cleanly; the caller runs the batch
  // per-actor.  Nothing is mutated on this path.
  if (!sync_state_in()) return false;
  for (std::size_t e = 0; e < base.edges.size(); ++e) {
    const FusedEdgeMeta& m = base.edges[e];
    if (!m.internal) continue;
    EdgeState& s = ebuf_[e];
    chans_[e]->drain_items(s.buf.data());
    s.rd = 0;
    s.wr = static_cast<std::size_t>(m.carry);
  }
  active_ = true;
  return true;
}

void TypedFusedExec::deactivate() {
  if (!active_) return;
  const FusedProgram& base = *prog_->base;
  for (std::size_t e = 0; e < base.edges.size(); ++e) {
    const FusedEdgeMeta& m = base.edges[e];
    if (!m.internal) continue;
    EdgeState& s = ebuf_[e];
    chans_[e]->restore_items(s.buf.data(), static_cast<std::size_t>(m.carry));
    s.rd = s.wr = 0;
  }
  sync_state_out();
  active_ = false;
}

void TypedFusedExec::run_iteration(OpCounts* actor_counts) {
  if (!active_) {
    throw std::logic_error("TypedFusedExec::run_iteration before activate()");
  }
  if (actor_counts != nullptr) {
    run<true>(actor_counts);
  } else {
    run<false>(nullptr);
  }
  finish_iteration();
}

void TypedFusedExec::finish_iteration() {
  const FusedProgram& base = *prog_->base;
  for (std::size_t e = 0; e < base.edges.size(); ++e) {
    const FusedEdgeMeta& m = base.edges[e];
    if (!m.internal) continue;
    EdgeState& s = ebuf_[e];
    const auto carry = static_cast<std::size_t>(m.carry);
    const auto traffic = static_cast<std::size_t>(m.traffic);
    if (s.rd != traffic || s.wr != carry + traffic) {
      throw std::logic_error("fused trace left channel " + std::to_string(e) +
                             " at an unexpected level");
    }
    if (traffic > 0 && carry > 0) {
      std::memmove(s.buf.data(), s.buf.data() + traffic,
                   carry * sizeof(double));
    }
    s.rd = 0;
    s.wr = carry;
    chans_[e]->advance_counters(static_cast<std::int64_t>(traffic),
                                static_cast<std::int64_t>(traffic));
  }
}

namespace {

// The kernel loop's input window and output tape: raw pointers into a trace
// buffer (or an unwrapped ring span), or a boundary ring through its inlined
// accessors.
struct BufWindow {
  const double* p;
  [[nodiscard]] double at(std::int32_t i) const { return p[i]; }
  void pop(std::int32_t n) { p += n; }
};
struct RingWindow {
  Channel* ch;
  [[nodiscard]] double at(std::int32_t i) const { return ch->peek_item(i); }
  void pop(std::int32_t n) { ch->pop_many(n); }
};
struct BufTape {
  double* p;
  void put(double v) { *p++ = v; }
};
struct RingTape {
  Channel* ch;
  void put(double v) { ch->push_item(v); }
};

// `n` firings with no checks of their own: the caller has shown that the
// window holds every item they peek and pop and that the tape has room.
template <class Window, class Tape>
void linear_firings(const LinearRows& R, std::int64_t n, Window w, Tape t) {
  const std::int32_t* const rp = R.row_ptr.data();
  const std::int32_t* const col = R.col.data();
  const double* const val = R.val.data();
  const std::uint8_t* const has_b = R.has_b.data();
  const double* const b = R.b.data();
  // A row's first term, or its constant.
  const auto start = [&](int r, std::int32_t* k) {
    if (has_b[r] != 0) return b[r];
    const double acc = val[*k] * w.at(col[*k]);
    ++*k;
    return acc;
  };
  for (std::int64_t f = 0; f < n; ++f) {
    // Rows go in pairs: two independent sums hide each other's add latency,
    // while each keeps its own terms in order.
    int r = 0;
    for (; r + 1 < R.push; r += 2) {
      std::int32_t k0 = rp[r], k1 = rp[r + 1];
      const std::int32_t e0 = rp[r + 1], e1 = rp[r + 2];
      double a0 = start(r, &k0);
      double a1 = start(r + 1, &k1);
      for (; k0 < e0 && k1 < e1; ++k0, ++k1) {
        a0 = a0 + val[k0] * w.at(col[k0]);
        a1 = a1 + val[k1] * w.at(col[k1]);
      }
      for (; k0 < e0; ++k0) a0 = a0 + val[k0] * w.at(col[k0]);
      for (; k1 < e1; ++k1) a1 = a1 + val[k1] * w.at(col[k1]);
      t.put(a0);
      t.put(a1);
    }
    if (r < R.push) {
      std::int32_t k = rp[r];
      double acc = start(r, &k);
      for (; k < rp[r + 1]; ++k) acc = acc + val[k] * w.at(col[k]);
      t.put(acc);
    }
    if (R.pop > 0) w.pop(R.pop);
  }
}

}  // namespace

void TypedFusedExec::run_linear(const LinearKernelArgs& K,
                                OpCounts* actor_counts) {
  const LinearRows& R = K.rows;
  OpCounts* const counts =
      actor_counts != nullptr ? &actor_counts[K.actor] : nullptr;
  EdgeState* const si =
      K.in_edge >= 0 && !K.in_real ? &ebuf_[K.in_edge] : nullptr;
  Channel* const ci = K.in_edge >= 0 && K.in_real ? chans_[K.in_edge] : nullptr;
  EdgeState* const so = K.out_real ? nullptr : &ebuf_[K.out_edge];
  Channel* const co = K.out_real ? chans_[K.out_edge] : nullptr;

  // The firings that cannot fault: firing f (0-based) peeks up to offset
  // f*pop + span - 1, pops through f*pop + pop, and pushes `push` items.
  std::int64_t fit = K.firings;
  const std::int64_t need = std::max(R.span, R.pop);
  if (need > 0) {
    const auto avail = static_cast<std::int64_t>(si != nullptr ? si->wr - si->rd
                                                               : ci->size());
    if (avail < need) {
      fit = 0;
    } else if (R.pop > 0) {
      fit = std::min(fit, (avail - need) / R.pop + 1);
    }
  }
  if (so != nullptr) {
    fit = std::min(fit,
                   static_cast<std::int64_t>(so->buf.size() - so->wr) / R.push);
  }
  if (fit > 0) {
    const auto ins = static_cast<std::size_t>(fit * R.pop);
    const auto outs = static_cast<std::size_t>(fit * R.push);
    // A boundary ring whose live items do not wrap is read like a buffer.
    const double* const win =
        si != nullptr ? si->buf.data() + si->rd
        : ci != nullptr
            ? ci->contiguous(static_cast<std::size_t>((fit - 1) * R.pop + need))
            : nullptr;
    const bool ring_in = ci != nullptr && win == nullptr;
    if (so != nullptr) {
      const BufTape bt{so->buf.data() + so->wr};
      if (ring_in) {
        linear_firings(R, fit, RingWindow{ci}, bt);
      } else {
        linear_firings(R, fit, BufWindow{win}, bt);
      }
      so->wr += outs;
    } else {
      co->reserve_items(outs);
      if (ring_in) {
        linear_firings(R, fit, RingWindow{ci}, RingTape{co});
      } else {
        linear_firings(R, fit, BufWindow{win}, RingTape{co});
      }
    }
    if (si != nullptr) si->rd += ins;
    if (ci != nullptr && !ring_in) ci->pop_many(static_cast<int>(ins));
    if (counts != nullptr) {
      counts->flops += fit * R.flops;
      counts->channel += fit * R.channel;
    }
  }

  // A firing that may fault runs with the template's checks and counts, in
  // its order, so it throws what the template throws where it throws.
  OpCounts none;
  OpCounts& c = counts != nullptr ? *counts : none;
  for (std::int64_t f = fit; f < K.firings; ++f) {
    for (int r = 0; r < R.push; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      double acc = R.b[ur];
      bool first = R.has_b[ur] == 0;
      for (std::int32_t k = R.row_ptr[ur]; k < R.row_ptr[ur + 1]; ++k) {
        const auto uk = static_cast<std::size_t>(k);
        const std::int32_t off = R.col[uk];
        double x;
        if (ci != nullptr) {
          ++c.channel;
          x = ci->peek_item(off);
        } else {
          if (si->rd + static_cast<std::size_t>(off) >= si->wr) {
            buffer_peek_error(off, si->wr - si->rd);
          }
          ++c.channel;
          x = si->buf[si->rd + static_cast<std::size_t>(off)];
        }
        const double term = R.val[uk] * x;
        acc = first ? term : acc + term;
        c.flops += first ? 1 : 2;  // the multiply, then the add
        first = false;
      }
      ++c.channel;
      if (co != nullptr) {
        co->push_item(acc);
      } else {
        if (so->wr >= so->buf.size()) {
          throw std::logic_error("fused trace buffer overflow");
        }
        so->buf[so->wr++] = acc;
      }
    }
    if (R.pop > 0) {
      if (ci != nullptr) {
        c.channel += R.pop;
        ci->pop_many(R.pop);
      } else {
        if (si->rd + static_cast<std::size_t>(R.pop) > si->wr) {
          throw std::runtime_error("pop from empty channel");
        }
        c.channel += R.pop;
        si->rd += static_cast<std::size_t>(R.pop);
      }
    }
  }
}

template <bool kCount>
void TypedFusedExec::run(OpCounts* actor_counts) {
  const FusedProgram& base = *prog_->base;
  double* const dr = dregs_.data();
  std::int64_t* const ir_ = iregs_.data();
  const FInstr* const code = prog_->code.code.data();
  EdgeState* const ebuf = ebuf_.data();
  const bool debug = debug_channel_checks();
  OpCounts* cur = nullptr;
  const FusedActorMeta* meta = nullptr;
  std::int64_t window = 0;
  std::int64_t pops = 0;
  std::int32_t firing = 0;  // completed firings of the current run's loop
  std::int32_t pc = 0;

  // Start a firing of the current actor: re-template both plane slices
  // (typed_lower split reg_init across them; the off-plane cells are zero,
  // which no read can observe).
  const double* const dinit = prog_->code.dreg_init.data();
  const std::int64_t* const iinit = prog_->code.ireg_init.data();
  const auto reload = [&]() {
    const std::size_t nr = meta->reg_init.size();
    std::copy_n(dinit + meta->reg_base, nr, dr + meta->reg_base);
    std::copy_n(iinit + meta->reg_base, nr, ir_ + meta->reg_base);
    pops = 0;
  };

  const auto tpop = [&](std::int32_t e) {
    EdgeState& s = ebuf[e];
    if (s.rd >= s.wr) throw std::runtime_error("pop from empty channel");
    return s.buf[s.rd++];
  };
  const auto tpush = [&](std::int32_t e, double v) {
    EdgeState& s = ebuf[e];
    if (s.wr >= s.buf.size()) {
      throw std::logic_error("fused trace buffer overflow");
    }
    s.buf[s.wr++] = v;
  };

  for (;;) {
    const FInstr& I = code[pc];
    const bool ad = (I.mode & kModeAD) != 0;
    const bool bd = (I.mode & kModeBD) != 0;
    const bool dd = (I.mode & kModeDD) != 0;
    switch (I.op) {
      case FOp::Move:
        if (dd) {
          dr[I.dst] = dr[I.a];
        } else {
          ir_[I.dst] = ir_[I.a];
        }
        ++pc;
        break;
      case FOp::LoadScalar:
        if constexpr (kCount) ++cur->mem;
        if (dd) {
          dr[I.dst] = dscalars_[I.a];
        } else {
          ir_[I.dst] = iscalars_[I.a];
        }
        ++pc;
        break;
      case FOp::StoreScalar:
        if constexpr (kCount) ++cur->mem;
        if (dd) {
          dscalars_[I.a] = dr[I.dst];
        } else {
          iscalars_[I.a] = ir_[I.dst];
        }
        ++pc;
        break;
      case FOp::LoadElem: {
        const std::int64_t idx = typed_geti(dr, ir_, I.b, bd);
        if (dd) {
          const auto& arr = darrays_[I.a];
          if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
            elem_bounds_error("array index out of bounds",
                              base.array_names[I.a], idx);
          }
          if constexpr (kCount) ++cur->mem;
          dr[I.dst] = arr[static_cast<std::size_t>(idx)];
        } else {
          const auto& arr = iarrays_[I.a];
          if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
            elem_bounds_error("array index out of bounds",
                              base.array_names[I.a], idx);
          }
          if constexpr (kCount) ++cur->mem;
          ir_[I.dst] = arr[static_cast<std::size_t>(idx)];
        }
        ++pc;
        break;
      }
      case FOp::StoreElem: {
        const std::int64_t idx = typed_geti(dr, ir_, I.b, bd);
        if (dd) {
          auto& arr = darrays_[I.a];
          if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
            elem_bounds_error("array store out of bounds",
                              base.array_names[I.a], idx);
          }
          if constexpr (kCount) ++cur->mem;
          arr[static_cast<std::size_t>(idx)] = dr[I.dst];
        } else {
          auto& arr = iarrays_[I.a];
          if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
            elem_bounds_error("array store out of bounds",
                              base.array_names[I.a], idx);
          }
          if constexpr (kCount) ++cur->mem;
          arr[static_cast<std::size_t>(idx)] = ir_[I.dst];
        }
        ++pc;
        break;
      }
      case FOp::Bin:
        if constexpr (kCount) tally(*cur, I.count);
        typed_bin(static_cast<BinOp>(I.sub), dr, ir_, I.dst, I.a, I.b, I.mode);
        ++pc;
        break;
      case FOp::Un:
        if constexpr (kCount) tally(*cur, I.count);
        typed_un(static_cast<UnOp>(I.sub), dr, ir_, I.dst, I.a, I.mode);
        ++pc;
        break;
      case FOp::Truthy:
        ir_[I.dst] = typed_truthy(dr, ir_, I.a, ad) ? 1 : 0;
        ++pc;
        break;
      case FOp::Jmp:
        pc = I.jump;
        break;
      case FOp::JmpIfFalse:
        pc = typed_truthy(dr, ir_, I.a, ad) ? pc + 1 : I.jump;
        break;
      case FOp::JmpIfTrue:
        pc = typed_truthy(dr, ir_, I.a, ad) ? I.jump : pc + 1;
        break;
      case FOp::JmpIfGe:
        pc = typed_geti(dr, ir_, I.a, ad) >= typed_geti(dr, ir_, I.b, bd)
                 ? I.jump
                 : pc + 1;
        break;
      case FOp::CheckStep:
        if (typed_geti(dr, ir_, I.a, ad) <= 0) {
          for_step_error();
        }
        ++pc;
        break;
      case FOp::ForInc:
        ir_[I.dst] =
            typed_geti(dr, ir_, I.dst, dd) + typed_geti(dr, ir_, I.a, ad);
        ++pc;
        break;
      case FOp::Tally:
        if constexpr (kCount) tally(*cur, I.count, I.sub);
        ++pc;
        break;
      case FOp::RPeek: {
        const std::int64_t off = typed_geti(dr, ir_, I.a, ad);
        if (debug && (off < 0 || pops + off >= window)) {
          peek_bounds_error(meta->name, off, pops, window);
        }
        if constexpr (kCount) ++cur->channel;
        dr[I.dst] = chans_[I.edge]->peek_item(static_cast<int>(off));
        ++pc;
        break;
      }
      case FOp::RPop:
        if constexpr (kCount) ++cur->channel;
        ++pops;
        dr[I.dst] = chans_[I.edge]->pop_item();
        ++pc;
        break;
      case FOp::RPopN: {
        const std::int64_t n = typed_geti(dr, ir_, I.a, ad);
        if (n > 0) {
          if constexpr (kCount) cur->channel += n;
          pops += n;
          chans_[I.edge]->pop_many(static_cast<int>(n));
        }
        ++pc;
        break;
      }
      case FOp::RPush:
        if constexpr (kCount) ++cur->channel;
        chans_[I.edge]->push_item(typed_getd(dr, ir_, I.dst, dd));
        ++pc;
        break;
      case FOp::TPeek: {
        const std::int64_t off = typed_geti(dr, ir_, I.a, ad);
        if (debug && (off < 0 || pops + off >= window)) {
          peek_bounds_error(meta->name, off, pops, window);
        }
        EdgeState& s = ebuf[I.edge];
        if (off < 0 || s.rd + static_cast<std::size_t>(off) >= s.wr) {
          buffer_peek_error(off, s.wr - s.rd);
        }
        if constexpr (kCount) ++cur->channel;
        dr[I.dst] = s.buf[s.rd + static_cast<std::size_t>(off)];
        ++pc;
        break;
      }
      case FOp::TPop:
        if constexpr (kCount) ++cur->channel;
        ++pops;
        dr[I.dst] = tpop(I.edge);
        ++pc;
        break;
      case FOp::TPopN: {
        const std::int64_t n = typed_geti(dr, ir_, I.a, ad);
        if (n > 0) {
          EdgeState& s = ebuf[I.edge];
          if (s.rd + static_cast<std::size_t>(n) > s.wr) {
            throw std::runtime_error("pop from empty channel");
          }
          if constexpr (kCount) cur->channel += n;
          pops += n;
          s.rd += static_cast<std::size_t>(n);
        }
        ++pc;
        break;
      }
      case FOp::TPush:
        if constexpr (kCount) ++cur->channel;
        tpush(I.edge, typed_getd(dr, ir_, I.dst, dd));
        ++pc;
        break;
      case FOp::SetActor:
        meta = &base.actors[I.a];
        window = meta->peek_window;
        if constexpr (kCount) cur = &actor_counts[I.a];
        reload();
        ++pc;
        break;
      case FOp::FireLoop:
        if (++firing < I.edge) {
          reload();
          pc = I.jump;
        } else {
          firing = 0;
          ++pc;
        }
        break;
      case FOp::MacLoop: {
        const MacLoopArgs& M = base.macs[I.a];
        std::int64_t i = ir_[M.ri];
        const std::int64_t hi = ir_[M.rhi];
        const std::int64_t st = ir_[M.rstep];
        if (i < hi) {
          double acc = dr[M.acc];
          const std::vector<double>* arr =
              M.has_array ? &darrays_[M.arr] : nullptr;
          EdgeState* s = M.real ? nullptr : &ebuf[M.edge];
          Channel* const ch = M.real ? chans_[M.edge] : nullptr;
          // Hoisted precheck: when no per-element check can fire across the
          // whole range, run the raw kernel and count in bulk.  `last` is the
          // largest index the loop touches (st > 0 was established by the
          // CheckStep the superinstruction absorbed).
          const std::int64_t last = i + ((hi - 1 - i) / st) * st;
          bool fast = i >= 0 && st > 0;
          if (fast && debug && pops + last >= window) fast = false;
          if (fast && s != nullptr &&
              s->rd + static_cast<std::size_t>(last) >= s->wr) {
            fast = false;
          }
          if (fast && ch != nullptr &&
              static_cast<std::size_t>(last) >= ch->size()) {
            fast = false;
          }
          if (fast && arr != nullptr &&
              static_cast<std::size_t>(last) >= arr->size()) {
            fast = false;
          }
          if (fast && s != nullptr) {
            const double* const src = s->buf.data() + s->rd;
            if (arr != nullptr) {
              const double* const coef = arr->data();
              for (; i < hi; i += st) acc += src[i] * coef[i];
            } else {
              for (; i < hi; i += st) acc += src[i];
            }
            if constexpr (kCount) {
              const std::int64_t trips = (hi - ir_[M.ri] + st - 1) / st;
              cur->int_ops += 2 * trips;
              cur->channel += trips;
              if (arr != nullptr) {
                cur->mem += trips;
                cur->flops += 2 * trips;  // mul + add per term
              } else {
                cur->flops += trips;  // add per term
              }
            }
          } else if (fast) {
            // Real-channel mac: peek through the ring (still raw doubles).
            if (arr != nullptr) {
              const double* const coef = arr->data();
              for (; i < hi; i += st) {
                acc += ch->peek_item(static_cast<int>(i)) * coef[i];
              }
            } else {
              for (; i < hi; i += st) acc += ch->peek_item(static_cast<int>(i));
            }
            if constexpr (kCount) {
              const std::int64_t trips = (hi - ir_[M.ri] + st - 1) / st;
              cur->int_ops += 2 * trips;
              cur->channel += trips;
              if (arr != nullptr) {
                cur->mem += trips;
                cur->flops += 2 * trips;
              } else {
                cur->flops += trips;
              }
            }
          } else {
            // Checked path: per-element checks and counts in exactly the
            // template's order, so an error fires at the same element with
            // the same partial counts.
            for (; i < hi; i += st) {
              if constexpr (kCount) cur->int_ops += 2;
              if (debug && (i < 0 || pops + i >= window)) {
                peek_bounds_error(meta->name, i, pops, window);
              }
              double pd;
              if (s != nullptr) {
                if (i < 0 || s->rd + static_cast<std::size_t>(i) >= s->wr) {
                  buffer_peek_error(i, s->wr - s->rd);
                }
                pd = s->buf[s->rd + static_cast<std::size_t>(i)];
              } else {
                pd = ch->peek_item(static_cast<int>(i));
              }
              if constexpr (kCount) ++cur->channel;
              double term = pd;
              if (arr != nullptr) {
                if (i < 0 || static_cast<std::size_t>(i) >= arr->size()) {
                  elem_bounds_error("array index out of bounds",
                                    base.array_names[M.arr], i);
                }
                if constexpr (kCount) ++cur->mem;
                term = pd * (*arr)[static_cast<std::size_t>(i)];
                if constexpr (kCount) ++cur->flops;
              }
              acc += term;
              if constexpr (kCount) ++cur->flops;
            }
          }
          dr[M.acc] = acc;
          // The loop-variable local holds its final iteration's value.
          ir_[M.slot] = i - st;
        }
        ir_[M.ri] = i;
        ++pc;
        break;
      }
      case FOp::PopComputePush: {
        const PcpArgs& P = base.pcps[I.a];
        const TypedPcp& tp = prog_->code.pcps[I.a];
        double vd;
        if (P.in_real) {
          vd = chans_[P.in_edge]->pop_item();
        } else {
          vd = tpop(P.in_edge);
        }
        if constexpr (kCount) ++cur->channel;
        ++pops;
        dr[P.rpop] = vd;
        double outd = vd;
        switch (P.kind) {
          case PcpArgs::Kind::Plain:
            outd = vd;
            break;
          case PcpArgs::Kind::Bin:
            if constexpr (kCount) tally(*cur, tp.tag);
            typed_bin(static_cast<BinOp>(P.sub), dr, ir_, P.rres, P.a, P.b,
                      tp.mode);
            outd = tp.res_double ? dr[P.rres]
                                 : static_cast<double>(ir_[P.rres]);
            break;
          case PcpArgs::Kind::Un:
            if constexpr (kCount) tally(*cur, tp.tag);
            typed_un(static_cast<UnOp>(P.sub), dr, ir_, P.rres, P.a, tp.mode);
            outd = tp.res_double ? dr[P.rres]
                                 : static_cast<double>(ir_[P.rres]);
            break;
        }
        if constexpr (kCount) ++cur->channel;
        if (P.out_real) {
          chans_[P.out_edge]->push_item(outd);
        } else {
          tpush(P.out_edge, outd);
        }
        ++pc;
        break;
      }
      case FOp::CopyRun: {
        const CopyRunArgs& C = base.copies[I.a];
        if constexpr (kCount) {
          cur->channel += C.n * (1 + static_cast<std::int64_t>(C.dst.size()));
        }
        if (C.n > 0) {
          double last = 0.0;
          if (!C.src_real && C.dst.size() == 1 && C.dst_real[0] == 0) {
            EdgeState& si = ebuf[C.src];
            EdgeState& so = ebuf[C.dst[0]];
            const auto n = static_cast<std::size_t>(C.n);
            if (si.rd + n > si.wr) {
              throw std::runtime_error("pop from empty channel");
            }
            if (so.wr + n > so.buf.size()) {
              throw std::logic_error("fused trace buffer overflow");
            }
            std::memcpy(so.buf.data() + so.wr, si.buf.data() + si.rd,
                        n * sizeof(double));
            si.rd += n;
            so.wr += n;
            last = so.buf[so.wr - 1];
          } else {
            for (std::int64_t k = 0; k < C.n; ++k) {
              const double v =
                  C.src_real ? chans_[C.src]->pop_item() : tpop(C.src);
              for (std::size_t d = 0; d < C.dst.size(); ++d) {
                if (C.dst_real[d] != 0) {
                  chans_[C.dst[d]]->push_item(v);
                } else {
                  tpush(C.dst[d], v);
                }
              }
              last = v;
            }
          }
          dr[C.reg] = last;
        }
        ++pc;
        break;
      }
      case FOp::NativeFire: {
        const NativeFireArgs& N = base.nats[I.a];
        const FlatActor& a =
            base.graph->actors[static_cast<std::size_t>(N.actor)];
        EdgeState dummy;
        BufIn bin(N.in_edge >= 0 && !N.in_real ? ebuf[N.in_edge] : dummy);
        BufOut bout(N.out_edge >= 0 && !N.out_real ? ebuf[N.out_edge] : dummy);
        ir::InTape* in = &g_null_in;
        ir::OutTape* out = &g_null_out;
        if (N.in_edge >= 0) {
          in = N.in_real ? static_cast<ir::InTape*>(chans_[N.in_edge]) : &bin;
        }
        if (N.out_edge >= 0) {
          out = N.out_real ? static_cast<ir::OutTape*>(chans_[N.out_edge])
                           : &bout;
        }
        a.node->native.work(nstates_[static_cast<std::size_t>(N.actor)], *in,
                            *out);
        if constexpr (kCount) {
          cur->flops += N.flops;
          cur->int_ops += N.int_ops;
          cur->channel += N.channel;
        }
        ++pc;
        break;
      }
      case FOp::LinearKernel:
        run_linear(base.kernels[I.a], actor_counts);
        ++pc;
        break;
      case FOp::Halt:
        return;
      default:
        throw std::logic_error("typed fused dispatch: unexpected opcode");
    }
  }
}

}  // namespace sit::runtime
