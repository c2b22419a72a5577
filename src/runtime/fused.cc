#include "runtime/fused.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "runtime/eval_ops.h"

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

// The trace refusal for filter `f`, whose typed program is missing for the
// per-actor reason `why` the bytecode compiler or the typed lowering gave.
std::string actor_refusal(const std::string& f, const std::string& why) {
  if (why == "teleport-send" || why == "has-handlers" ||
      why == "mixed-register") {
    return why + ":" + f;
  }
  const std::string state = "mixed-state:";
  if (why.starts_with(state)) return state + f + "." + why.substr(state.size());
  return "vm-fallback:" + f + " (" + why + ")";
}

// ---- decode -----------------------------------------------------------------

// The specialized handler of a same-plane binary op (vm.h Handler), or Bin.
// Each specialized handler bumps one fixed OpCounts field; an instruction
// whose resolved tag is not that field keeps the generic handler, which
// tallies the tag itself.
Handler decode_bin(BinOp op, bool ad, bool bd, CountTag tag) {
  Handler h = Handler::Bin;
  CountTag bumps = CountTag::IntOp;
  if (!ad && !bd) {
    switch (op) {
      case BinOp::Add: h = Handler::AddII; break;
      case BinOp::Sub: h = Handler::SubII; break;
      case BinOp::Mul: h = Handler::MulII; break;
      case BinOp::Min: h = Handler::MinII; break;
      case BinOp::Max: h = Handler::MaxII; break;
      case BinOp::BAnd: h = Handler::BAndII; break;
      case BinOp::BOr: h = Handler::BOrII; break;
      case BinOp::BXor: h = Handler::BXorII; break;
      case BinOp::Shl: h = Handler::ShlII; break;
      case BinOp::Shr: h = Handler::ShrII; break;
      case BinOp::Lt: h = Handler::LtII; break;
      case BinOp::Le: h = Handler::LeII; break;
      case BinOp::Gt: h = Handler::GtII; break;
      case BinOp::Ge: h = Handler::GeII; break;
      case BinOp::Eq: h = Handler::EqII; break;
      case BinOp::Ne: h = Handler::NeII; break;
      default: break;  // Div/Mod (zero checks), Pow, LAnd, LOr
    }
  } else if (ad && bd) {
    bumps = CountTag::Flop;
    switch (op) {
      case BinOp::Add: h = Handler::AddDD; break;
      case BinOp::Sub: h = Handler::SubDD; break;
      case BinOp::Mul: h = Handler::MulDD; break;
      case BinOp::Min: h = Handler::MinDD; break;
      case BinOp::Max: h = Handler::MaxDD; break;
      case BinOp::Div: h = Handler::DivDD; bumps = CountTag::Div; break;
      case BinOp::Lt: h = Handler::LtDD; bumps = CountTag::IntOp; break;
      case BinOp::Le: h = Handler::LeDD; bumps = CountTag::IntOp; break;
      case BinOp::Gt: h = Handler::GtDD; bumps = CountTag::IntOp; break;
      case BinOp::Ge: h = Handler::GeDD; bumps = CountTag::IntOp; break;
      case BinOp::Eq: h = Handler::EqDD; bumps = CountTag::IntOp; break;
      case BinOp::Ne: h = Handler::NeDD; bumps = CountTag::IntOp; break;
      default: break;  // Mod, Pow, LAnd, LOr, the bit ops
    }
  }
  return tag == bumps ? h : Handler::Bin;
}

// The same for a unary op whose result stays on its operand's plane, and
// for ToInt/ToFloat from either plane; anything else is Un.
Handler decode_un(UnOp op, bool ad, CountTag tag) {
  Handler h = Handler::Un;
  CountTag bumps = ad ? CountTag::Flop : CountTag::IntOp;
  switch (op) {
    case UnOp::Neg: h = ad ? Handler::NegD : Handler::NegI; break;
    case UnOp::Abs: h = ad ? Handler::AbsD : Handler::AbsI; break;
    case UnOp::LNot: if (!ad) h = Handler::LNotI; break;
    case UnOp::BNot: if (!ad) h = Handler::BNotI; break;
    case UnOp::ToInt:
      h = ad ? Handler::ToIntD : Handler::ToIntI;
      bumps = CountTag::None;
      break;
    case UnOp::ToFloat:
      h = ad ? Handler::ToFloatD : Handler::ToFloatI;
      bumps = CountTag::None;
      break;
    default:
      break;
  }
  if (ad) {
    switch (op) {
      case UnOp::Sin: h = Handler::SinD; bumps = CountTag::Trans; break;
      case UnOp::Cos: h = Handler::CosD; bumps = CountTag::Trans; break;
      case UnOp::Tan: h = Handler::TanD; bumps = CountTag::Trans; break;
      case UnOp::Exp: h = Handler::ExpD; bumps = CountTag::Trans; break;
      case UnOp::Log: h = Handler::LogD; bumps = CountTag::Trans; break;
      case UnOp::Sqrt: h = Handler::SqrtD; bumps = CountTag::Trans; break;
      case UnOp::Floor: h = Handler::FloorD; break;
      case UnOp::Ceil: h = Handler::CeilD; break;
      case UnOp::Round: h = Handler::RoundD; break;
      default: break;
    }
  }
  return tag == bumps ? h : Handler::Un;
}

// The handler TypedFusedExec::run dispatches `I` on: its opcode, operand
// planes, operator and count tag, decoded once.
Handler decode(const FInstr& I) {
  const bool ad = (I.mode & kModeAD) != 0;
  const bool bd = (I.mode & kModeBD) != 0;
  const bool dd = (I.mode & kModeDD) != 0;
  switch (I.op) {
    case FOp::Move: return dd ? Handler::MoveD : Handler::MoveI;
    case FOp::LoadScalar:
      return dd ? Handler::LoadScalarD : Handler::LoadScalarI;
    case FOp::StoreScalar:
      return dd ? Handler::StoreScalarD : Handler::StoreScalarI;
    case FOp::LoadElem:
      if (bd) return Handler::LoadElem;
      return dd ? Handler::LoadElemD : Handler::LoadElemI;
    case FOp::StoreElem:
      if (bd) return Handler::StoreElem;
      return dd ? Handler::StoreElemD : Handler::StoreElemI;
    case FOp::Bin:
      return decode_bin(static_cast<BinOp>(I.sub), ad, bd, I.count);
    case FOp::Un: return decode_un(static_cast<UnOp>(I.sub), ad, I.count);
    case FOp::Truthy: return ad ? Handler::Truthy : Handler::TruthyI;
    case FOp::Jmp: return Handler::Jmp;
    case FOp::JmpIfFalse:
      return ad ? Handler::JmpIfFalse : Handler::JmpIfFalseI;
    case FOp::JmpIfTrue:
      return ad ? Handler::JmpIfTrue : Handler::JmpIfTrueI;
    // The compiler coerces a loop's counter, bound and step to int and
    // tallies only int ops.  (A dangling splitter branch's channel tally
    // would refuse the trace, but flatten() admits no dangling branch.)
    case FOp::JmpIfGe:
      if (ad || bd) fail("double loop bound");
      return Handler::JmpIfGeII;
    case FOp::CheckStep:
      if (ad) fail("double loop step");
      return Handler::CheckStepI;
    case FOp::ForInc:
      if (ad || dd) fail("double loop counter");
      return Handler::ForIncII;
    case FOp::Tally:
      if (I.count != CountTag::IntOp) fail("tally without an int count");
      return Handler::TallyInt;
    case FOp::RPeek: return Handler::RPeek;
    case FOp::RPop: return Handler::RPop;
    case FOp::RPopN: return Handler::RPopN;
    case FOp::RPush: return Handler::RPush;
    case FOp::TPeek: return ad ? Handler::TPeek : Handler::TPeekI;
    case FOp::TPop: return Handler::TPop;
    case FOp::TPopN: return ad ? Handler::TPopN : Handler::TPopNI;
    case FOp::TPush: return dd ? Handler::TPushD : Handler::TPushI;
    case FOp::SetActor: return Handler::SetActor;
    case FOp::FireLoop: return Handler::FireLoop;
    case FOp::MacLoop: return Handler::MacLoop;
    case FOp::CopyRun: return Handler::CopyRun;
    case FOp::NativeFire: return Handler::NativeFire;
    case FOp::LinearKernel: return Handler::LinearKernel;
    case FOp::Halt: return Handler::Halt;
  }
  fail("unknown opcode");
}

// ---- builder ----------------------------------------------------------------

// Builds a whole-graph trace, or (`one_actor`) the one-actor trace of the
// single run in `runs`, whose count 0 stands for the count passed per call.
class TraceBuilder {
 public:
  TraceBuilder(const FlatGraph& g, const std::vector<FiringRun>& runs,
               const std::vector<std::int64_t>& carry,
               const std::vector<std::int64_t>& traffic,
               const std::vector<TypedFilterP>& typed,
               const std::vector<std::string>& why, bool one_actor)
      : g_(g), runs_(runs), carry_(carry), traffic_(traffic), typed_(typed),
        why_(why), one_actor_(one_actor) {}

  FusedProgramP build() {
    auto P = std::make_shared<FusedProgram>();
    prog_ = P.get();
    prog_->graph = &g_;
    prog_->runs = runs_;

    if (!one_actor_) prog_->edges.resize(g_.edges.size());
    for (std::size_t e = 0; e < prog_->edges.size(); ++e) {
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
    for (FInstr& I : prog_->code) {
      I.handler = decode(I);
      ++prog_->dispatch[I.handler];
    }
    return P;
  }

 private:
  // Give each laid-out actor its slot and its slice of the flat register /
  // scalar-slot / array-slot files, and copy in its typed program's plane
  // templates and state classes.  A whole-graph trace lays out every actor,
  // so slots are actor ids; a one-actor trace lays out its run's actor only.
  void layout_actors() {
    const std::size_t n = g_.actors.size();
    if (n > 0xFFFF) fail("actor-id overflow");
    slot_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (one_actor_ && static_cast<int>(i) != runs_[0].actor) continue;
      const FlatActor& a = g_.actors[i];
      slot_[i] = static_cast<std::uint16_t>(prog_->actors.size());
      FusedActorMeta& meta = prog_->actors.emplace_back();
      meta.name = a.name;
      meta.reg_base = static_cast<std::uint32_t>(prog_->dreg_init.size());
      meta.scalar_base = static_cast<std::uint32_t>(prog_->scalar_class.size());
      meta.array_base = static_cast<std::uint32_t>(prog_->array_names.size());
      switch (a.kind) {
        case FlatActor::Kind::Filter: {
          if (match_kernel(i)) break;  // no template, no registers
          const TypedFilterP& tf = typed_[i];
          if (!tf) fail(actor_refusal(a.name, why_[i]));
          if (!one_actor_ && ir::stmt_sends(a.node->filter.init)) {
            fail("teleport-send:" + a.name);
          }
          const TypedCode& w = tf->work;
          meta.filter = tf->base;
          meta.num_regs = static_cast<std::uint32_t>(w.dreg_init.size());
          meta.peek_window = tf->base->peek_window;
          append(prog_->dreg_init, w.dreg_init);
          append(prog_->ireg_init, w.ireg_init);
          append(prog_->scalar_class, w.scalar_class);
          append(prog_->array_class, w.array_class);
          append(prog_->array_names, tf->base->array_slots);
          break;
        }
        case FlatActor::Kind::Native:
          break;
        case FlatActor::Kind::Splitter:
        case FlatActor::Kind::Joiner:
          // One scratch register (holds the item in flight), Int 0 at first.
          meta.num_regs = 1;
          prog_->dreg_init.push_back(0.0);
          prog_->ireg_init.push_back(0);
          break;
      }
      if (prog_->dreg_init.size() > 0xFFFF) fail("register-file-overflow");
    }
    if (prog_->scalar_class.size() > 0xFFFF ||
        prog_->array_class.size() > 0xFFFF) {
      fail("state-slot overflow");
    }
  }

  template <typename T>
  static void append(std::vector<T>& to, const std::vector<T>& from) {
    to.insert(to.end(), from.begin(), from.end());
  }

  // A filter whose typed program carries kernel rows, with the tapes the
  // kernel reads and writes, runs as linear-kernel.
  bool match_kernel(std::size_t actor) {
    const FlatActor& a = g_.actors[actor];
    const TypedFilterP& tf = typed_[actor];
    if (!tf || !tf->kernel) return false;
    LinearKernelArgs K;
    K.actor = slot_[actor];
    K.in_edge = a.in_edges.empty() ? -1 : a.in_edges[0];
    K.out_edge = a.out_edges.empty() ? -1 : a.out_edges[0];
    if (!tf->kernel->fits_tapes(K.in_edge >= 0, K.out_edge >= 0)) return false;
    K.in_real = K.in_edge >= 0 && !edge_internal(K.in_edge);
    K.out_real = !edge_internal(K.out_edge);
    K.rows = *tf->kernel;
    kernel_of_.emplace(static_cast<int>(actor), std::move(K));
    return true;
  }

  // One firing run: SetActor (which also loads the first firing's register
  // template), the actor's firing template once, and for more than one
  // firing (or a per-call count) a FireLoop back-edge that reloads the
  // template and re-enters it.  A splitter/joiner firing that collapses to a
  // single copy-run instead moves the whole run's items in that one
  // instruction, and a linear kernel's run is its one LinearKernel
  // instruction.
  void emit_run(const FiringRun& run) {
    if (run.actor < 0 ||
        static_cast<std::size_t>(run.actor) >= g_.actors.size() ||
        run.count < (one_actor_ ? 0 : 1)) {
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
    set.a = slot_[static_cast<std::size_t>(run.actor)];
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
    const auto ei = static_cast<std::size_t>(e);
    return ei < prog_->edges.size() && prog_->edges[ei].internal;
  }

  // ---- filter template translation ------------------------------------------

  // Rebase the actor's typed work program into trace form: registers and
  // state slots rebased, channel ops bound to this actor's edges, mode bytes
  // and count tags kept.  Jumps stay template-relative (an index == template
  // length means "fall off the end", where the typed code's Halt sat).
  std::vector<FInstr> translate_filter(int actor) {
    const auto ai = static_cast<std::size_t>(actor);
    const FlatActor& a = g_.actors[ai];
    const FusedActorMeta& meta = prog_->actors[slot_[ai]];
    const std::vector<FInstr>& w = typed_[ai]->work.code;
    const int in_e = a.in_edges.empty() ? -1 : a.in_edges[0];
    const int out_e = a.out_edges.empty() ? -1 : a.out_edges[0];

    // Bind a channel op to edge `e`, lowered when the edge is internal.
    const auto bind = [&](FInstr& I, int e, FOp lowered, const char* what) {
      if (e < 0) fail(std::string(what) + " edge in '" + a.name + "'");
      if (edge_internal(e)) I.op = lowered;
      I.edge = e;
    };
    // Drop the trailing Halt (exactly one, at the end).
    std::vector<FInstr> t(w.begin(), w.end() - 1);
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
  // A binary op typed onto two Double operands (so counted as a flop).
  static bool double_op(const FInstr& I) {
    return I.count == CountTag::Flop && I.mode == (kModeAD | kModeBD);
  }

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
  //
  // typed so that the raw double kernel can run it: jge and forinc on the
  // int plane (an Int counter, bound and step), mul and add on Double
  // operands (a Double accumulator and coefficient array).
  bool match_mac(const std::vector<FInstr>& t, std::size_t i,
                 MacLoopArgs* out, std::size_t* len) const {
    const FInstr& I0 = t[i];
    if (I0.op != FOp::JmpIfGe || I0.mode != 0) return false;
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
            !double_op(mul)) {
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
          !double_op(add) || add.dst != add.a || add.b != addend) {
        continue;
      }
      M.acc = add.dst;
      const FInstr& inc = t[k + 1];
      if (inc.op != FOp::ForInc || inc.dst != ri || inc.mode != 0) continue;
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
        static_cast<std::uint16_t>(prog_->actors[slot_[ai]].reg_base);
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
  // (a dangling splitter branch still counts its channel traffic).  The item
  // is a Double, so both ops are typed onto the double plane.
  void emit_raw_move(int src, std::uint16_t reg,
                     const std::vector<std::int32_t>& dst, int extra_channel) {
    FInstr pop{};
    pop.op = edge_internal(src) ? FOp::TPop : FOp::RPop;
    pop.count = CountTag::Channel;
    pop.mode = kModeDD;
    pop.dst = reg;
    pop.edge = src;
    prog_->code.push_back(pop);
    for (const std::int32_t d : dst) {
      FInstr push{};
      push.op = edge_internal(d) ? FOp::TPush : FOp::RPush;
      push.count = CountTag::Channel;
      push.mode = kModeDD;
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
  const std::vector<TypedFilterP>& typed_;
  const std::vector<std::string>& why_;
  const bool one_actor_;
  FusedProgram* prog_{nullptr};
  std::vector<std::uint16_t> slot_;  // by actor id: its slot, once laid out
  std::map<int, std::vector<FInstr>> templates_;
  std::map<int, LinearKernelArgs> kernel_of_;  // by actor, firings unset
};

}  // namespace

FusedProgramP build_fused(const FlatGraph& g, const std::vector<FiringRun>& runs,
                          const std::vector<std::int64_t>& carry,
                          const std::vector<std::int64_t>& traffic,
                          const std::vector<TypedFilterP>& typed,
                          const std::vector<std::string>& why,
                          std::string* reason) {
  try {
    return TraceBuilder(g, runs, carry, traffic, typed, why, false).build();
  } catch (const BuildFail& f) {
    if (reason) *reason = f.reason;
    return nullptr;
  }
}

FusedProgramP build_actor(const FlatGraph& g, int actor,
                          const std::vector<TypedFilterP>& typed,
                          std::string* reason) {
  try {
    return TraceBuilder(g, {FiringRun{actor, 0}}, {}, {}, typed, {}, true)
        .build();
  } catch (const BuildFail& f) {
    if (reason) *reason = f.reason;
    return nullptr;
  }
}

// ---- disassembly ------------------------------------------------------------

std::int64_t FusedProgram::generic_count() const {
  std::int64_t n = 0;
  for (const auto& [h, k] : dispatch) {
    if (handler_generic(h)) n += k;
  }
  return n;
}

std::string FusedProgram::disassemble() const {
  std::string out;
  out += "; fused steady-state trace: " + std::to_string(code.size()) +
         " instruction(s), " + std::to_string(runs.size()) +
         " firing run(s), " + std::to_string(dreg_init.size()) +
         " register(s), " +
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
// TypedFusedExec runs a trace with the tree interpreter's semantics: the
// same op counting and the same error strings thrown in the same order.
// What each filter's typing proved safe lets it go faster: registers and
// (for the duration of an activation) filter state live in raw planes,
// every instruction was decoded at build to a handler that fixes its planes,
// operator and count field, so run() makes one dispatch per instruction, and
// the mac-loop superinstruction runs as a raw double* kernel when a hoisted
// precheck shows no per-element check can fire.

namespace {

// Resolve `f`'s state slots to pointers into `state`'s maps, appended to
// `scalars`/`arrays` in slot order, so firings do no hashing.
void bind_slots(const CompiledFilter& f, FilterState& state,
                std::vector<Value*>& scalars,
                std::vector<std::vector<Value>*>& arrays) {
  scalars.reserve(scalars.size() + f.scalar_slots.size());
  for (const auto& name : f.scalar_slots) {
    auto it = state.scalars.find(name);
    if (it == state.scalars.end()) {
      throw std::logic_error("trace bind: state has no scalar '" + name + "'");
    }
    scalars.push_back(&it->second);
  }
  arrays.reserve(arrays.size() + f.array_slots.size());
  for (const auto& name : f.array_slots) {
    auto it = state.arrays.find(name);
    if (it == state.arrays.end()) {
      throw std::logic_error("trace bind: state has no array '" + name + "'");
    }
    arrays.push_back(&it->second);
  }
}

}  // namespace

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
  bool ring_view(std::size_t n, ir::RingView* v) override {
    if (s_.rd + n > s_.wr) return false;
    *v = {s_.buf.data() + s_.rd, 0, ~std::size_t{0}};
    return true;
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
    FusedProgramP prog, std::span<FilterState> states,
    const std::vector<ir::InTape*>& in, const std::vector<ir::OutTape*>& out,
    std::span<const std::unique_ptr<Channel>> chans,
    std::span<const std::unique_ptr<ir::NativeState>> nstates)
    : prog_(std::move(prog)), in_(&in), out_(&out), chans_(chans),
      nstates_(nstates) {
  const FusedProgram& base = *prog_;
  // Registers start as their templates' Value() does: int 0 in both
  // planes.  Every run's SetActor re-templates its slice before any read.
  dregs_.assign(base.dreg_init.size(), 0.0);
  iregs_.assign(base.ireg_init.size(), 0);
  // Slot order, which is how the builder laid the flat state files out.
  for (std::size_t i = 0; i < base.actors.size(); ++i) {
    if (const CompiledFilterP& f = base.actors[i].filter) {
      bind_slots(*f, states[i], scalar_vals_, array_vals_);
    }
  }
  dscalars_.assign(scalar_vals_.size(), 0.0);
  iscalars_.assign(scalar_vals_.size(), 0);
  darrays_.resize(array_vals_.size());
  iarrays_.resize(array_vals_.size());
  ebuf_.resize(base.edges.size());
  for (std::size_t e = 0; e < base.edges.size(); ++e) {
    const FusedEdgeMeta& m = base.edges[e];
    if (m.internal) {
      ebuf_[e].buf.resize(static_cast<std::size_t>(m.carry + m.traffic));
    }
  }
}

bool TypedFusedExec::sync_state_in() {
  const FusedProgram& c = *prog_;
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
  const FusedProgram& c = *prog_;
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
  const FusedProgram& base = *prog_;
  for (std::size_t e = 0; e < base.edges.size(); ++e) {
    const FusedEdgeMeta& m = base.edges[e];
    if (m.internal &&
        chans_[e]->size() != static_cast<std::size_t>(m.carry)) {
      return false;  // graph is mid-iteration (manual fire); run per-actor
    }
  }
  // A state tag drifting from its inferred class (e.g. a caller stored an
  // int into a Double slot since specialization) refuses cleanly; the caller
  // runs the call another way.  Nothing is mutated on this path.
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
  const FusedProgram& base = *prog_;
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

void TypedFusedExec::fire(OpCounts* counts, std::int64_t n) {
  if (!active_) throw std::logic_error("TypedFusedExec run before activate()");
  if (n <= 0) return;
  if (counts != nullptr) {
    run<true>(counts, n);
  } else {
    run<false>(nullptr, n);
  }
}

void TypedFusedExec::run_iteration(OpCounts* actor_counts) {
  fire(actor_counts, 1);  // a whole-graph trace stores its run counts
  finish_iteration();
}

void TypedFusedExec::finish_iteration() {
  const FusedProgram& base = *prog_;
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

void TypedFusedExec::run_linear(const LinearKernelArgs& K,
                                OpCounts* actor_counts, std::int64_t firings) {
  OpCounts* const counts =
      actor_counts != nullptr ? &actor_counts[K.actor] : nullptr;
  const std::int64_t n = K.firings > 0 ? K.firings : firings;
  EdgeState dummy;
  BufIn bin(K.in_edge >= 0 && !K.in_real ? ebuf_[K.in_edge] : dummy);
  ir::InTape& in = K.in_edge < 0 ? g_null_in
                   : K.in_real   ? *(*in_)[K.in_edge]
                                 : static_cast<ir::InTape&>(bin);
  if (!K.out_real) {
    BufOut bout(ebuf_[K.out_edge]);
    linear_firings(K.rows, n, in, bout, counts);
    return;
  }
  // An out tape that is still its executor's Channel (final) keeps the
  // kernel's push a direct call.
  ir::OutTape& out = *(*out_)[K.out_edge];
  const auto e = static_cast<std::size_t>(K.out_edge);
  if (e < chans_.size() && &out == chans_[e].get()) {
    linear_firings(K.rows, n, in, *chans_[e], counts);
  } else {
    linear_firings(K.rows, n, in, out, counts);
  }
}

template <bool kCount>
void TypedFusedExec::run(OpCounts* actor_counts, std::int64_t firings) {
  const FusedProgram& base = *prog_;
  double* const dr = dregs_.data();
  std::int64_t* const ir_ = iregs_.data();
  const FInstr* const code = base.code.data();
  EdgeState* const ebuf = ebuf_.data();
  // Boundary ops are rare in a whole-graph trace: read the tape tables at
  // each use rather than keep them live across the loop.
  const auto tin = [this](std::int32_t e) { return (*in_)[e]; };
  const auto tout = [this](std::int32_t e) { return (*out_)[e]; };
  const bool debug = debug_channel_checks();
  OpCounts* cur = nullptr;
  const FusedActorMeta* meta = nullptr;
  std::int64_t window = 0;
  std::int64_t pops = 0;    // this firing's, for the peek window
  std::int64_t pushes = 0;  // this firing's, to its boundary tape
  std::int64_t firing = 0;  // completed firings of the current run's loop
  std::int32_t pc = 0;

  // Start a firing of the current actor: re-template both plane slices
  // (typed_lower split the template across them; the off-plane cells are
  // zero, which no read can observe).
  const double* const dinit = base.dreg_init.data();
  const std::int64_t* const iinit = base.ireg_init.data();
  const auto reload = [&]() {
    const std::size_t nr = meta->num_regs;
    std::copy_n(dinit + meta->reg_base, nr, dr + meta->reg_base);
    std::copy_n(iinit + meta->reg_base, nr, ir_ + meta->reg_base);
    pops = 0;
    pushes = 0;
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
  const auto tpeek = [&](std::int32_t e, std::int64_t off) {
    if (debug && (off < 0 || pops + off >= window)) {
      peek_bounds_error(meta->name, off, pops, window);
    }
    const EdgeState& s = ebuf[e];
    if (off < 0 || s.rd + static_cast<std::size_t>(off) >= s.wr) {
      buffer_peek_error(off, s.wr - s.rd);
    }
    if constexpr (kCount) ++cur->channel;
    return s.buf[s.rd + static_cast<std::size_t>(off)];
  };
  const auto tpopn = [&](std::int32_t e, std::int64_t n) {
    if (n <= 0) return;
    EdgeState& s = ebuf[e];
    if (s.rd + static_cast<std::size_t>(n) > s.wr) {
      throw std::runtime_error("pop from empty channel");
    }
    if constexpr (kCount) cur->channel += n;
    pops += n;
    s.rd += static_cast<std::size_t>(n);
  };
  // Element `idx` of array slot `a` (`arr`, its plane's storage): the
  // bounds fault first, then the mem count of the access.
  const auto elem = [&](auto& arr, std::uint16_t a, std::int64_t idx,
                        bool store) -> auto& {
    if (idx < 0 || static_cast<std::size_t>(idx) >= arr.size()) {
      elem_bounds_error(store ? "array store out of bounds"
                              : "array index out of bounds",
                        base.array_names[a], idx);
    }
    if constexpr (kCount) ++cur->mem;
    return arr[static_cast<std::size_t>(idx)];
  };

  // A specialized handler bumps the one OpCounts field it fixes (decode
  // checked it against the instruction's resolved tag) and computes `expr`
  // over x = r[a] (and y = r[b]) read from plane `in`, into plane `out`.
#define SIT_BIN(h, field, out, in, expr) \
  case Handler::h: {                     \
    if constexpr (kCount) ++cur->field;  \
    const auto x = in[I.a];              \
    const auto y = in[I.b];              \
    out[I.dst] = (expr);                 \
    ++pc;                                \
    break;                               \
  }
#define SIT_UN(h, bump, out, in, expr) \
  case Handler::h: {                   \
    if constexpr (kCount) bump;        \
    const auto x = in[I.a];            \
    out[I.dst] = (expr);               \
    ++pc;                              \
    break;                             \
  }

  for (;;) {
    const FInstr& I = code[pc];
    switch (I.handler) {
      SIT_BIN(AddII, int_ops, ir_, ir_, x + y)
      SIT_BIN(SubII, int_ops, ir_, ir_, x - y)
      SIT_BIN(MulII, int_ops, ir_, ir_, x * y)
      SIT_BIN(MinII, int_ops, ir_, ir_, std::min(x, y))
      SIT_BIN(MaxII, int_ops, ir_, ir_, std::max(x, y))
      SIT_BIN(BAndII, int_ops, ir_, ir_, x & y)
      SIT_BIN(BOrII, int_ops, ir_, ir_, x | y)
      SIT_BIN(BXorII, int_ops, ir_, ir_, x ^ y)
      SIT_BIN(ShlII, int_ops, ir_, ir_, x << y)
      SIT_BIN(ShrII, int_ops, ir_, ir_, x >> y)
      SIT_BIN(LtII, int_ops, ir_, ir_, x < y ? 1 : 0)
      SIT_BIN(LeII, int_ops, ir_, ir_, x <= y ? 1 : 0)
      SIT_BIN(GtII, int_ops, ir_, ir_, x > y ? 1 : 0)
      SIT_BIN(GeII, int_ops, ir_, ir_, x >= y ? 1 : 0)
      SIT_BIN(EqII, int_ops, ir_, ir_, x == y ? 1 : 0)
      SIT_BIN(NeII, int_ops, ir_, ir_, x != y ? 1 : 0)
      SIT_BIN(AddDD, flops, dr, dr, x + y)
      SIT_BIN(SubDD, flops, dr, dr, x - y)
      SIT_BIN(MulDD, flops, dr, dr, x * y)
      SIT_BIN(DivDD, divs, dr, dr, x / y)
      SIT_BIN(MinDD, flops, dr, dr, std::min(x, y))
      SIT_BIN(MaxDD, flops, dr, dr, std::max(x, y))
      SIT_BIN(LtDD, int_ops, ir_, dr, x < y ? 1 : 0)
      SIT_BIN(LeDD, int_ops, ir_, dr, x <= y ? 1 : 0)
      SIT_BIN(GtDD, int_ops, ir_, dr, x > y ? 1 : 0)
      SIT_BIN(GeDD, int_ops, ir_, dr, x >= y ? 1 : 0)
      SIT_BIN(EqDD, int_ops, ir_, dr, x == y ? 1 : 0)
      SIT_BIN(NeDD, int_ops, ir_, dr, x != y ? 1 : 0)
      SIT_UN(NegI, ++cur->int_ops, ir_, ir_, -x)
      SIT_UN(AbsI, ++cur->int_ops, ir_, ir_, std::abs(x))
      SIT_UN(LNotI, ++cur->int_ops, ir_, ir_, x != 0 ? 0 : 1)
      SIT_UN(BNotI, ++cur->int_ops, ir_, ir_, ~x)
      SIT_UN(ToIntI, (void)0, ir_, ir_, x)
      SIT_UN(ToFloatI, (void)0, dr, ir_, static_cast<double>(x))
      SIT_UN(NegD, ++cur->flops, dr, dr, -x)
      SIT_UN(AbsD, ++cur->flops, dr, dr, std::fabs(x))
      SIT_UN(SinD, ++cur->trans, dr, dr, std::sin(x))
      SIT_UN(CosD, ++cur->trans, dr, dr, std::cos(x))
      SIT_UN(TanD, ++cur->trans, dr, dr, std::tan(x))
      SIT_UN(ExpD, ++cur->trans, dr, dr, std::exp(x))
      SIT_UN(LogD, ++cur->trans, dr, dr, std::log(x))
      SIT_UN(SqrtD, ++cur->trans, dr, dr, std::sqrt(x))
      SIT_UN(FloorD, ++cur->flops, dr, dr, std::floor(x))
      SIT_UN(CeilD, ++cur->flops, dr, dr, std::ceil(x))
      SIT_UN(RoundD, ++cur->flops, dr, dr, std::round(x))
      SIT_UN(ToIntD, (void)0, ir_, dr, static_cast<std::int64_t>(x))
      SIT_UN(ToFloatD, (void)0, dr, dr, x)
      SIT_UN(MoveI, (void)0, ir_, ir_, x)
      SIT_UN(MoveD, (void)0, dr, dr, x)
      SIT_UN(LoadScalarI, ++cur->mem, ir_, iscalars_, x)
      SIT_UN(LoadScalarD, ++cur->mem, dr, dscalars_, x)
#undef SIT_BIN
#undef SIT_UN
      case Handler::TallyInt:
        if constexpr (kCount) cur->int_ops += I.sub;
        ++pc;
        break;
      case Handler::StoreScalarI:
        if constexpr (kCount) ++cur->mem;
        iscalars_[I.a] = ir_[I.dst];
        ++pc;
        break;
      case Handler::StoreScalarD:
        if constexpr (kCount) ++cur->mem;
        dscalars_[I.a] = dr[I.dst];
        ++pc;
        break;
      case Handler::LoadElemI:
        ir_[I.dst] = elem(iarrays_[I.a], I.a, ir_[I.b], false);
        ++pc;
        break;
      case Handler::LoadElemD:
        dr[I.dst] = elem(darrays_[I.a], I.a, ir_[I.b], false);
        ++pc;
        break;
      case Handler::StoreElemI:
        elem(iarrays_[I.a], I.a, ir_[I.b], true) = ir_[I.dst];
        ++pc;
        break;
      case Handler::StoreElemD:
        elem(darrays_[I.a], I.a, ir_[I.b], true) = dr[I.dst];
        ++pc;
        break;
      case Handler::LoadElem: {  // a double index
        const auto idx = static_cast<std::int64_t>(dr[I.b]);
        if ((I.mode & kModeDD) != 0) {
          dr[I.dst] = elem(darrays_[I.a], I.a, idx, false);
        } else {
          ir_[I.dst] = elem(iarrays_[I.a], I.a, idx, false);
        }
        ++pc;
        break;
      }
      case Handler::StoreElem: {  // a double index
        const auto idx = static_cast<std::int64_t>(dr[I.b]);
        if ((I.mode & kModeDD) != 0) {
          elem(darrays_[I.a], I.a, idx, true) = dr[I.dst];
        } else {
          elem(iarrays_[I.a], I.a, idx, true) = ir_[I.dst];
        }
        ++pc;
        break;
      }
      case Handler::Bin:
        // Counted after the op, as the tree does: a faulting division or
        // modulo by zero is not counted.
        typed_bin(static_cast<BinOp>(I.sub), dr, ir_, I.dst, I.a, I.b, I.mode);
        if constexpr (kCount) tally(*cur, I.count);
        ++pc;
        break;
      case Handler::Un:
        if constexpr (kCount) tally(*cur, I.count);
        typed_un(static_cast<UnOp>(I.sub), dr, ir_, I.dst, I.a, I.mode);
        ++pc;
        break;
      case Handler::TruthyI:
        ir_[I.dst] = ir_[I.a] != 0 ? 1 : 0;
        ++pc;
        break;
      case Handler::Truthy:
        ir_[I.dst] =
            typed_truthy(dr, ir_, I.a, (I.mode & kModeAD) != 0) ? 1 : 0;
        ++pc;
        break;
      case Handler::Jmp:
        pc = I.jump;
        break;
      case Handler::JmpIfFalseI:
        pc = ir_[I.a] != 0 ? pc + 1 : I.jump;
        break;
      case Handler::JmpIfFalse:
        pc = typed_truthy(dr, ir_, I.a, (I.mode & kModeAD) != 0) ? pc + 1
                                                                 : I.jump;
        break;
      case Handler::JmpIfTrueI:
        pc = ir_[I.a] != 0 ? I.jump : pc + 1;
        break;
      case Handler::JmpIfTrue:
        pc = typed_truthy(dr, ir_, I.a, (I.mode & kModeAD) != 0) ? I.jump
                                                                 : pc + 1;
        break;
      case Handler::JmpIfGeII:
        pc = ir_[I.a] >= ir_[I.b] ? I.jump : pc + 1;
        break;
      case Handler::CheckStepI:
        if (ir_[I.a] <= 0) for_step_error();
        ++pc;
        break;
      case Handler::ForIncII:
        ir_[I.dst] += ir_[I.a];
        ++pc;
        break;
      case Handler::RPeek: {
        const std::int64_t off =
            typed_geti(dr, ir_, I.a, (I.mode & kModeAD) != 0);
        if (debug && (off < 0 || pops + off >= window)) {
          peek_bounds_error(meta->name, off, pops, window);
        }
        if constexpr (kCount) ++cur->channel;
        dr[I.dst] = tin(I.edge)->peek_item(static_cast<int>(off));
        ++pc;
        break;
      }
      case Handler::RPop:
        if constexpr (kCount) ++cur->channel;
        ++pops;
        dr[I.dst] = tin(I.edge)->pop_item();
        ++pc;
        break;
      case Handler::RPopN: {
        const std::int64_t n =
            typed_geti(dr, ir_, I.a, (I.mode & kModeAD) != 0);
        if (n > 0) {
          if constexpr (kCount) cur->channel += n;
          pops += n;
          tin(I.edge)->pop_many(static_cast<int>(n));
        }
        ++pc;
        break;
      }
      case Handler::RPush:
        if constexpr (kCount) ++cur->channel;
        ++pushes;
        tout(I.edge)->push_item(
            typed_getd(dr, ir_, I.dst, (I.mode & kModeDD) != 0));
        ++pc;
        break;
      case Handler::TPeekI:
        dr[I.dst] = tpeek(I.edge, ir_[I.a]);
        ++pc;
        break;
      case Handler::TPeek:
        dr[I.dst] = tpeek(I.edge, static_cast<std::int64_t>(dr[I.a]));
        ++pc;
        break;
      case Handler::TPop:
        if constexpr (kCount) ++cur->channel;
        ++pops;
        dr[I.dst] = tpop(I.edge);
        ++pc;
        break;
      case Handler::TPopNI:
        tpopn(I.edge, ir_[I.a]);
        ++pc;
        break;
      case Handler::TPopN:
        tpopn(I.edge, static_cast<std::int64_t>(dr[I.a]));
        ++pc;
        break;
      case Handler::TPushI:
        if constexpr (kCount) ++cur->channel;
        tpush(I.edge, static_cast<double>(ir_[I.dst]));
        ++pc;
        break;
      case Handler::TPushD:
        if constexpr (kCount) ++cur->channel;
        tpush(I.edge, dr[I.dst]);
        ++pc;
        break;
      case Handler::SetActor:
        meta = &base.actors[I.a];
        window = meta->peek_window;
        if constexpr (kCount) cur = &actor_counts[I.a];
        reload();
        ++pc;
        break;
      case Handler::FireLoop:
        if (++firing < (I.edge != 0 ? I.edge : firings)) {
          reload();
          pc = I.jump;
        } else {
          firing = 0;
          ++pc;
        }
        break;
      case Handler::MacLoop: {
        const MacLoopArgs& M = base.macs[I.a];
        std::int64_t i = ir_[M.ri];
        const std::int64_t hi = ir_[M.rhi];
        const std::int64_t st = ir_[M.rstep];
        if (i < hi) {
          double acc = dr[M.acc];
          const std::vector<double>* arr =
              M.has_array ? &darrays_[M.arr] : nullptr;
          EdgeState* s = M.real ? nullptr : &ebuf[M.edge];
          ir::InTape* const tape = M.real ? tin(M.edge) : nullptr;
          // Hoisted precheck: when no per-element check can fire across the
          // whole range, run the raw kernel and count in bulk.  `last` is the
          // largest index the loop touches (st > 0 was established by the
          // CheckStep the superinstruction absorbed).  A trace buffer's
          // window is flat; a boundary tape's is its ring view.
          const std::int64_t last = i + ((hi - 1 - i) / st) * st;
          ir::RingView view{};
          bool fast = i >= 0 && st > 0;
          if (fast && debug && pops + last >= window) fast = false;
          if (fast && arr != nullptr &&
              static_cast<std::size_t>(last) >= arr->size()) {
            fast = false;
          }
          if (fast && s != nullptr) {
            if (s->rd + static_cast<std::size_t>(last) >= s->wr) {
              fast = false;
            } else {
              view = {s->buf.data() + s->rd, 0, ~std::size_t{0}};
            }
          }
          if (fast && tape != nullptr &&
              !tape->ring_view(static_cast<std::size_t>(last) + 1, &view)) {
            fast = false;
          }
          if (fast) {
            const auto terms = [&](auto at) {
              if (arr != nullptr) {
                const double* const coef = arr->data();
                for (; i < hi; i += st) acc += at(i) * coef[i];
              } else {
                for (; i < hi; i += st) acc += at(i);
              }
            };
            // Flat addressing when the window lies in one lap of the ring.
            const std::size_t first = view.head & view.mask;
            if (static_cast<std::size_t>(last) <= view.mask - first) {
              const double* const src = view.buf + first;
              terms([src](std::int64_t k) { return src[k]; });
            } else {
              terms([&view](std::int64_t k) {
                return view.buf[(view.head + static_cast<std::size_t>(k)) &
                                view.mask];
              });
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
                pd = tape->peek_item(static_cast<int>(i));
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
      case Handler::CopyRun: {
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
                  C.src_real ? tin(C.src)->pop_item() : tpop(C.src);
              for (std::size_t d = 0; d < C.dst.size(); ++d) {
                if (C.dst_real[d] != 0) {
                  tout(C.dst[d])->push_item(v);
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
      case Handler::NativeFire: {
        const NativeFireArgs& N = base.nats[I.a];
        const FlatActor& a =
            base.graph->actors[static_cast<std::size_t>(N.actor)];
        EdgeState dummy;
        BufIn bin(N.in_edge >= 0 && !N.in_real ? ebuf[N.in_edge] : dummy);
        BufOut bout(N.out_edge >= 0 && !N.out_real ? ebuf[N.out_edge] : dummy);
        ir::InTape* in = &g_null_in;
        ir::OutTape* out = &g_null_out;
        if (N.in_edge >= 0) in = N.in_real ? tin(N.in_edge) : &bin;
        if (N.out_edge >= 0) out = N.out_real ? tout(N.out_edge) : &bout;
        a.node->native.work(nstates_[static_cast<std::size_t>(N.actor)].get(),
                            *in, *out);
        if constexpr (kCount) {
          cur->flops += N.flops;
          cur->int_ops += N.int_ops;
          cur->channel += N.channel;
        }
        ++pc;
        break;
      }
      case Handler::LinearKernel: {
        const LinearKernelArgs& K = base.kernels[I.a];
        run_linear(K, actor_counts, firings);
        pops = K.rows.pop;
        pushes = K.rows.push;
        ++pc;
        break;
      }
      case Handler::Halt:
        popped_ = pops;
        pushed_ = pushes;
        return;
      default:
        throw std::logic_error("typed fused dispatch: unexpected handler");
    }
  }
}

// ---- a lone filter -----------------------------------------------------------

std::unique_ptr<FilterExec> FilterExec::make(const ir::NodeP& filter,
                                             const CompiledFilterP& base,
                                             FilterState& state) {
  if (!base) return nullptr;
  TypedFilterP typed = typed_compile(filter->filter, base, state);
  if (!typed) return nullptr;
  std::unique_ptr<FilterExec> fx(new FilterExec);
  fx->node_ = filter;
  fx->g_ = flatten(filter);
  FusedProgramP prog = build_actor(fx->g_, 0, {std::move(typed)});
  if (!prog) return nullptr;
  fx->in_.assign(fx->g_.edges.size(), nullptr);
  fx->out_.assign(fx->g_.edges.size(), nullptr);
  fx->exec_ = std::make_unique<TypedFusedExec>(
      std::move(prog), std::span<FilterState>(&state, 1), fx->in_, fx->out_);
  return fx;
}

void FilterExec::fire(ir::InTape& in, ir::OutTape& out, OpCounts* counts,
                      std::int64_t n) {
  if (g_.input_edge >= 0) in_[static_cast<std::size_t>(g_.input_edge)] = &in;
  if (g_.output_edge >= 0) {
    out_[static_cast<std::size_t>(g_.output_edge)] = &out;
  }
  exec_->fire(counts, n);
}

}  // namespace sit::runtime
