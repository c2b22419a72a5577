#include "sched/exec.h"

#include <stdexcept>
#include <utility>

#include "analysis/analyze.h"
#include "analysis/bounds_chan.h"
#include "analysis/fuse.h"
#include "analysis/typeflow.h"
#include "runtime/compile.h"
#include "sched/envopts.h"

namespace sit::sched {

using runtime::Channel;
using runtime::FlatActor;
using runtime::g_null_in;
using runtime::g_null_out;
using runtime::Interp;

// The env parsing lives in sched/envopts.cc (sit::resolve_exec_options);
// these merge a caller-requested value with the environment default.
Engine resolve_engine(Engine e) {
  return e != Engine::Auto ? e : env_engine();
}

int resolve_threads(int requested) {
  if (requested == 0) requested = env_threads();
  return requested < 1 ? 1 : requested;
}

bool resolve_trace(TraceMode mode) {
  if (!obs::kCompiledIn) return false;
  if (mode != TraceMode::Auto) return mode == TraceMode::On;
  return env_trace();
}

int resolve_stall_ms(int requested) {
  return requested != 0 ? requested : env_stall_ms();
}

int resolve_batch(int requested) {
  if (requested == 0) requested = env_batch();
  if (requested < 0) return -1;  // auto, resolved at partition time
  return requested < 1 ? 1 : requested;
}

CompiledProgram lower(ir::NodeP root) {
  // Full static-analysis gate: structural validation plus the dataflow and
  // graph-level passes.  Errors throw; warnings are tolerated.
  const analysis::AnalysisResult ar = analysis::analyze(root);
  if (!ar.ok()) {
    throw std::runtime_error("stream program rejected\n" + ar.report());
  }
  CompiledProgram p;
  p.source = root;
  p.graph = std::move(root);
  p.flat = runtime::flatten(p.graph);
  p.schedule = make_schedule(p.flat);
  return p;
}

Executor::Executor(ir::NodeP root, ExecOptions opts)
    : Executor(lower(std::move(root)), std::move(opts)) {}

Executor::Executor(CompiledProgram prog, ExecOptions opts)
    : root_(prog.graph),
      opts_(std::move(opts)),
      g_(std::move(prog.flat)),
      sched_(std::move(prog.schedule)),
      pipeline_(std::move(prog.pipeline)),
      passes_(std::move(prog.passes)) {
  chans_.reserve(g_.edges.size());
  for (const auto& e : g_.edges) {
    auto ch = std::make_unique<Channel>();
    ch->push_many(e.initial_items);
    in_tape_.push_back(ch.get());
    out_tape_.push_back(ch.get());
    chans_.push_back(std::move(ch));
  }

  engine_ = resolve_engine(opts_.engine != Engine::Auto ? opts_.engine
                                                        : prog.engine);
  if (resolve_trace(opts_.trace)) {
    rec_ = std::make_unique<obs::Recorder>();
    rec_->attach_actors(g_.actors.size());
    tb_ = rec_->thread_buffer(0);
  }

  typed_on_ = opts_.typed == TypedMode::On;
  const bool compiled = typed_on_ && engine_ != Engine::Tree;
  const std::size_t n = g_.actors.size();
  fstate_.resize(n);
  nstate_.resize(n);
  typed_.resize(n);
  actor_trace_.resize(n);
  fx_.resize(n);
  typed_refusal_.resize(n);
  ops_.resize(n);
  fired_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const FlatActor& a = g_.actors[i];
    if (a.kind == FlatActor::Kind::Filter) {
      const ir::FilterSpec& spec = a.node->filter;
      fstate_[i] = Interp::init_state(spec);
      if (compiled) {
        // One-time lowering to bytecode, specialized against the post-init
        // state tags, and traced.  Any step's refusal records its stable
        // reason and the actor runs on the tree interpreter.
        const auto prog = runtime::compile_filter(spec, &typed_refusal_[i]);
        typed_[i] = runtime::typed_compile(spec, prog, fstate_[i],
                                           &typed_refusal_[i]);
        if (typed_[i]) {
          typed_refusal_[i].clear();
          actor_trace_[i] = runtime::build_actor(g_, static_cast<int>(i),
                                                 typed_, &typed_refusal_[i]);
        }
      }
    } else if (a.kind == FlatActor::Kind::Native) {
      if (a.node->native.make_state) nstate_[i] = a.node->native.make_state();
    }
  }

  // Engine::Fused: build the whole-iteration trace from the typed programs
  // above, or record why not.  A refusal is whole-program: steady states
  // then run per-actor on the one-actor traces built above (the Vm path and
  // the Fused fallback are identical).
  if (engine_ == Engine::Fused) {
    if (opts_.message_sink) {
      // Teleport delivery wants per-firing granularity (and build_fused
      // only proves the *absence* of sends per filter, not per sink).
      fused_refusal_ = "message-sink-attached";
    } else if (tb_ != nullptr) {
      fused_refusal_ = "tracing-enabled";
    } else if (!typed_on_) {
      fused_refusal_ = "typed-off";  // no typed programs to fuse
    } else {
      const analysis::FusePlan plan = analysis::fuse_plan(g_, sched_);
      if (!plan.admissible) {
        fused_refusal_ = plan.refusal;
      } else {
        fprog_ = runtime::build_fused(g_, sched_.steady_runs, plan.carry,
                                      plan.traffic, typed_, typed_refusal_,
                                      &fused_refusal_);
        if (fprog_) {
          fused_refusal_.clear();
          tfexec_ = std::make_unique<runtime::TypedFusedExec>(
              fprog_, fstate_, in_tape_, out_tape_, chans_, nstate_);
        }
      }
    }
  }
}

void Executor::feed_input(const std::vector<double>& items) {
  if (g_.input_edge < 0) {
    throw std::runtime_error("program has no external input");
  }
  chans_[static_cast<std::size_t>(g_.input_edge)]->push_many(items);
  input_fed_ += static_cast<std::int64_t>(items.size());
}

void Executor::set_input_generator(std::function<double(std::int64_t)> gen) {
  input_gen_ = std::move(gen);
}

void Executor::ensure_input_for(std::int64_t items_needed) {
  if (g_.input_edge < 0 || !input_gen_) return;
  while (input_fed_ < items_needed) {
    chans_[static_cast<std::size_t>(g_.input_edge)]->push_item(input_gen_(input_fed_));
    ++input_fed_;
  }
}

bool Executor::can_fire(int actor) const {
  const FlatActor& a = g_.actors[static_cast<std::size_t>(actor)];
  for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
    const int eid = a.in_edges[p];
    if (eid < 0) continue;
    std::int64_t want = a.in_rate[p];
    if (a.is_filter()) want += a.peek_extra;
    if (static_cast<std::int64_t>(chans_[static_cast<std::size_t>(eid)]->size()) <
        want) {
      return false;
    }
  }
  return true;
}

Executor::Bind::Bind(Executor& ex, int actor)
    : ex_(ex),
      lo_(actor < 0 ? 0 : static_cast<std::size_t>(actor)),
      hi_(actor < 0 ? ex.fx_.size() : lo_ + 1) {
  for (std::size_t i = lo_; i < hi_; ++i) {
    if (ex_.fx_[i]) ex_.fx_[i]->activate();
  }
  ex_.bind_lo_ = lo_;
  ex_.bind_hi_ = hi_;
}

Executor::Bind::~Bind() {
  ex_.bind_lo_ = ex_.bind_hi_ = 0;
  for (std::size_t i = lo_; i < hi_; ++i) {
    if (ex_.fx_[i]) ex_.fx_[i]->deactivate();
  }
}

runtime::TypedFusedExec* Executor::active_fx(std::size_t actor) {
  runtime::TypedFusedExec* x = fx_[actor].get();
  if (x == nullptr) {
    if (!actor_trace_[actor] || actor < bind_lo_ || actor >= bind_hi_) {
      return nullptr;
    }
    fx_[actor] = std::make_unique<runtime::TypedFusedExec>(
        actor_trace_[actor], std::span(&fstate_[actor], 1), in_tape_,
        out_tape_, chans_);
    x = fx_[actor].get();
    x->activate();  // a refusal leaves this call on the tree, as in Bind
  }
  return x->active() ? x : nullptr;
}

void Executor::fire(int actor) {
  const Bind bind(*this, actor);
  fire_into(actor,
            opts_.count_ops ? &ops_[static_cast<std::size_t>(actor)] : nullptr,
            tb_);
}

void Executor::fire_native(const FlatActor& a, ir::NativeState* state,
                           ir::InTape& in, ir::OutTape& out,
                           runtime::OpCounts* counts) {
  a.node->native.work(state, in, out);
  if (counts) {
    // Native filters declare their per-firing cost statically.
    counts->flops += static_cast<std::int64_t>(a.node->native.cost_flops);
    counts->int_ops += static_cast<std::int64_t>(a.node->native.cost_ops -
                                                 a.node->native.cost_flops);
    counts->channel += a.pop_rate() + a.push_rate();
  }
}

// Tracing: one branch when disabled; two clock reads plus a handful of
// buffer appends per firing when enabled.  Typed filters report the channel
// batches their trace measured; everything else reports the static SDF
// rates.
std::int64_t Executor::trace_begin(obs::ThreadBuffer* tb, int actor) const {
  const std::int64_t t0 = rec_->now_ns();
  tb->emit(t0, obs::EventKind::FireBegin, actor);
  return t0;
}

void Executor::trace_end(obs::ThreadBuffer* tb, int actor, std::int64_t t0,
                         const runtime::TypedFusedExec* measured,
                         obs::FiringStats* stats) const {
  const FlatActor& a = g_.actors[static_cast<std::size_t>(actor)];
  const std::int64_t t1 = rec_->now_ns();
  if (measured != nullptr) {
    if (measured->popped() > 0) {
      tb->emit(t1, obs::EventKind::PopBatch, a.in_edges[0], measured->popped());
    }
    if (measured->pushed() > 0) {
      tb->emit(t1, obs::EventKind::PushBatch, a.out_edges[0],
               measured->pushed());
    }
  } else {
    for (std::size_t p = 0; p < a.in_edges.size(); ++p) {
      if (a.in_edges[p] >= 0 && a.in_rate[p] > 0) {
        tb->emit(t1, obs::EventKind::PopBatch, a.in_edges[p], a.in_rate[p]);
      }
    }
    for (std::size_t p = 0; p < a.out_edges.size(); ++p) {
      if (a.out_edges[p] >= 0 && a.out_rate[p] > 0) {
        tb->emit(t1, obs::EventKind::PushBatch, a.out_edges[p], a.out_rate[p]);
      }
    }
  }
  tb->emit(t1, obs::EventKind::FireEnd, actor);
  stats->record(t1 - t0);
}

void Executor::fire_into(int actor, runtime::OpCounts* counts,
                         obs::ThreadBuffer* tb) {
  const auto ai = static_cast<std::size_t>(actor);
  const FlatActor& a = g_.actors[ai];
  const auto in_tape = [&](int eid) -> ir::InTape* {
    return eid < 0 ? &g_null_in : in_tape_[static_cast<std::size_t>(eid)];
  };
  const auto out_tape = [&](int eid) -> ir::OutTape* {
    return eid < 0 ? &g_null_out : out_tape_[static_cast<std::size_t>(eid)];
  };
  // A filter's (AST or native) single input and output edge.
  const int in0 = a.in_edges.empty() ? -1 : a.in_edges[0];
  const int out0 = a.out_edges.empty() ? -1 : a.out_edges[0];

  const std::int64_t t0 = tb != nullptr ? trace_begin(tb, actor) : 0;
  const runtime::TypedFusedExec* measured = nullptr;
  switch (a.kind) {
    case FlatActor::Kind::Filter: {
      // Typed filters have no Send statements (compile_filter refuses
      // them), so the sink only matters on the tree.
      if (runtime::TypedFusedExec* x = active_fx(ai)) {
        x->fire(counts, 1);
        measured = x;
      } else {
        Interp::run_work(a.node->filter, fstate_[ai], *in_tape(in0),
                         *out_tape(out0), counts,
                         opts_.message_sink ? &opts_.message_sink : nullptr);
      }
      break;
    }
    case FlatActor::Kind::Native:
      fire_native(a, nstate_[ai].get(), *in_tape(in0), *out_tape(out0),
                  counts);
      break;
    case FlatActor::Kind::Splitter: {
      ir::InTape& in = *in_tape(a.in_edges[0]);
      if (a.sj == ir::SJKind::Duplicate) {
        const double v = in.pop_item();
        for (int eid : a.out_edges) {
          if (eid >= 0) out_tape(eid)->push_item(v);
        }
        if (counts) counts->channel += 1 + static_cast<std::int64_t>(a.out_edges.size());
      } else {
        for (std::size_t p = 0; p < a.out_rate.size(); ++p) {
          for (int k = 0; k < a.out_rate[p]; ++k) {
            const double v = in.pop_item();
            const int eid = p < a.out_edges.size() ? a.out_edges[p] : -1;
            if (eid >= 0) out_tape(eid)->push_item(v);
            if (counts) counts->channel += 2;
          }
        }
      }
      break;
    }
    case FlatActor::Kind::Joiner: {
      ir::OutTape& out = *out_tape(a.out_edges[0]);
      for (std::size_t p = 0; p < a.in_rate.size(); ++p) {
        for (int k = 0; k < a.in_rate[p]; ++k) {
          const int eid = p < a.in_edges.size() ? a.in_edges[p] : -1;
          if (eid < 0) continue;
          out.push_item(in_tape(eid)->pop_item());
          if (counts) counts->channel += 2;
        }
      }
      break;
    }
  }
  ++fired_[ai];
  note_high_water(a);
  if (tb != nullptr) trace_end(tb, actor, t0, measured, &rec_->actor_stats(actor));
}

void Executor::fire_run(int actor, std::int64_t n, runtime::OpCounts* counts,
                        obs::ThreadBuffer* tb) {
  const auto ai = static_cast<std::size_t>(actor);
  runtime::TypedFusedExec* const x = tb == nullptr ? active_fx(ai) : nullptr;
  if (x == nullptr) {
    for (std::int64_t k = 0; k < n; ++k) fire_into(actor, counts, tb);
    return;
  }
  x->fire(counts, n);
  fired_[ai] += n;
  // Once for the run: the output peaks at its end, and an input channel's
  // producer already noted that channel's peak.
  note_high_water(g_.actors[ai]);
}

// High water on the fired actor's own channels: only they changed size.
// Ring edges track their own; under the threaded runtime an actor's plain
// channels belong to its worker.
void Executor::note_high_water(const FlatActor& a) {
  for (const auto* edges : {&a.in_edges, &a.out_edges}) {
    for (int eid : *edges) {
      const auto e = static_cast<std::size_t>(eid);
      if (eid >= 0 && on_channel(e)) chans_[e]->note_high_water();
    }
  }
}

void Executor::run_handler(int actor, const std::string& method,
                           const std::vector<ir::Value>& args) {
  const auto ai = static_cast<std::size_t>(actor);
  const FlatActor& a = g_.actors[ai];
  if (a.kind != FlatActor::Kind::Filter) {
    throw std::invalid_argument("handler target '" + a.name +
                                "' is not an AST filter");
  }
  Interp::run_handler(a.node->filter, fstate_[ai], method, args);
}

void Executor::run_epoch(const std::vector<std::int64_t>& quota_in,
                         runtime::OpCounts* counts) {
  std::vector<std::int64_t> quota = quota_in;
  bool progress = true;
  while (progress) {
    progress = false;
    for (int actor : sched_.order) {
      const auto ai = static_cast<std::size_t>(actor);
      while (quota[ai] > 0 && can_fire(actor)) {
        fire_into(actor, counts != nullptr ? counts + ai : nullptr, tb_);
        --quota[ai];
        progress = true;
      }
    }
  }
  for (std::size_t i = 0; i < quota.size(); ++i) {
    if (quota[i] > 0) {
      throw std::runtime_error("runtime deadlock: actor '" + g_.actors[i].name +
                               "' starved with " + std::to_string(quota[i]) +
                               " firings remaining");
    }
  }
}

void Executor::run_init() { run_init(counts_or_null()); }

void Executor::run_init(runtime::OpCounts* counts) {
  if (init_done_) return;
  const Bind bind(*this);
  if (tb_ != nullptr) {
    tb_->emit(rec_->now_ns(), obs::EventKind::Phase,
              static_cast<std::int32_t>(obs::PhaseId::Init));
  }
  ensure_input_for(sched_.input_for_init);
  run_epoch(sched_.init_fires, counts);
  init_done_ = true;
}

void Executor::start_steady_state() {
  ++steady_run_;
  ensure_input_for(sched_.input_for_init +
                   steady_run_ * sched_.input_per_steady);
}

std::vector<double> Executor::run_steady(int n) {
  run_init();
  if (tb_ != nullptr && !steady_marked_ && n > 0) {
    tb_->emit(rec_->now_ns(), obs::EventKind::Phase,
              static_cast<std::int32_t>(obs::PhaseId::Steady));
    steady_marked_ = true;
  }
  // Fused fast path: one flat dual-plane trace per steady state.  activate()
  // lowers the internal channels to trace buffers for the whole batch of
  // iterations.  It refuses when manual fire() calls left the graph
  // mid-iteration or a handler retagged some state; the batch then runs
  // per-actor (the graph re-synchronizes at the next iteration boundary, so
  // a later call may fuse again).
  if (tfexec_ && n > 0 && tfexec_->activate()) {
    runtime::OpCounts* counts = counts_or_null();
    for (int i = 0; i < n; ++i) {
      start_steady_state();
      tfexec_->run_iteration(counts);
    }
    tfexec_->deactivate();
    for (std::size_t a = 0; a < fired_.size(); ++a) {
      fired_[a] += n * sched_.reps[a];
    }
    return take_output();
  }
  const Bind bind(*this);
  for (int i = 0; i < n; ++i) {
    start_steady_state();
    run_epoch(sched_.reps, counts_or_null());
  }
  return take_output();
}

std::vector<double> Executor::take_output() {
  std::vector<double> out;
  if (g_.output_edge < 0) return out;
  chans_[static_cast<std::size_t>(g_.output_edge)]->take_all(out);
  return out;
}

runtime::OpCounts Executor::total_ops() const {
  runtime::OpCounts t;
  for (const auto& o : ops_) t += o;
  return t;
}

obs::MetricsSnapshot Executor::metrics_snapshot() const {
  obs::MetricsSnapshot m;
  m.engine = engine_ == Engine::Vm     ? "vm"
             : engine_ == Engine::Fused ? "fused"
                                        : "tree";
  m.threads = 1;
  m.threaded = false;
  m.fallback = "none";
  if (engine_ == Engine::Fused && !tfexec_) {
    m.fallback = "fused-refused";
    m.fallback_detail = fused_refusal_;
  }
  if (tfexec_) {
    m.fused_channels = fprog_->eliminated_channels;
    m.fused_super.assign(fprog_->super.begin(), fprog_->super.end());
  }
  if (typed_on_) {
    m.typed_actors = 0;
    m.typed_regs = 0;
    for (std::size_t i = 0; i < actor_trace_.size(); ++i) {
      if (actor_trace_[i]) {
        ++m.typed_actors;
        m.typed_regs += typed_[i]->work.typed_regs;
      }
    }
  }
  m.pipeline = pipeline_;
  m.passes = passes_;

  m.actors.reserve(g_.actors.size());
  for (std::size_t i = 0; i < g_.actors.size(); ++i) {
    obs::ActorSnapshot a;
    a.name = g_.actors[i].name;
    a.firings = fired_[i];
    a.ops = ops_[i];
    a.calib_cycles = ops_[i].weighted();
    a.worker = 0;
    if (rec_ && i < rec_->all_actor_stats().size()) {
      const obs::FiringStats& fs = rec_->all_actor_stats()[i];
      a.wall_ns = fs.wall_ns;
      a.max_ns = fs.max_ns;
      a.hist.assign(fs.hist.begin(), fs.hist.end());
      // With op counting off this executor has no calibration epoch (only
      // the threaded runtime runs one), which used to leave calib_cycles at
      // zero and made sequential profiles useless for calibration.  Measured
      // wall time is the better cost anyway: surface it (ns-as-cycles) so
      // the partitioners' cost column and streamprof --calibrate both work
      // under the sequential engines.
      if (a.calib_cycles <= 0 && fs.wall_ns > 0) {
        a.calib_cycles = static_cast<double>(fs.wall_ns);
      }
    }
    if (actor_trace_[i]) {
      a.typed_status = "typed";
      a.typed_regs = typed_[i]->work.typed_regs;
    } else if (typed_on_ && !typed_refusal_[i].empty()) {
      a.typed_status = typed_refusal_[i];
    }
    m.actors.push_back(std::move(a));
  }

  // Static occupancy bounds for the in-order (data-driven) discipline this
  // executor runs; cheap enough to recompute on each (quiescent) snapshot.
  analysis::ChannelBounds bounds;
  try {
    bounds = analysis::channel_bounds(g_, sched_);
  } catch (const std::exception&) {
  }
  m.edges.reserve(g_.edges.size());
  for (std::size_t e = 0; e < g_.edges.size(); ++e) {
    const auto& ed = g_.edges[e];
    obs::EdgeSnapshot s;
    s.src = ed.src;
    s.dst = ed.dst;
    s.name = (ed.src >= 0 ? g_.actors[static_cast<std::size_t>(ed.src)].name
                          : std::string("input")) +
             "->" +
             (ed.dst >= 0 ? g_.actors[static_cast<std::size_t>(ed.dst)].name
                          : std::string("output"));
    // A ring edge's counters are the threaded runtime's to report.
    if (on_channel(e)) {
      s.pushed = chans_[e]->total_pushed();
      s.popped = chans_[e]->total_popped();
      s.peak_items = static_cast<std::int64_t>(chans_[e]->high_water());
    }
    if (e < bounds.in_order.size()) s.bound_items = bounds.in_order[e];
    m.edges.push_back(std::move(s));
  }

  // Channel content tags from the executor's own specialization results:
  // typed actors contribute their inferred push tag, everything else Double.
  if (typed_on_) {
    std::vector<runtime::Tag> push(g_.actors.size(), runtime::Tag::Double);
    for (std::size_t i = 0; i < g_.actors.size(); ++i) {
      if (actor_trace_[i]) push[i] = typed_[i]->work.push_tag;
    }
    const auto content = analysis::propagate_edge_tags(g_, push);
    m.typed_channels = 0;
    for (std::size_t e = 0; e < content.size(); ++e) {
      m.edges[e].content =
          content[e] == runtime::Tag::Double ? "double" : "int";
      if (content[e] == runtime::Tag::Double) ++m.typed_channels;
    }
  }

  if (rec_) {
    m.trace_events = rec_->total_events();
    m.trace_dropped = rec_->total_dropped();
  }
  obs::annotate_cost_model(&m);
  return m;
}

}  // namespace sit::sched
