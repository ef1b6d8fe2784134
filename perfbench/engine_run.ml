(* The in-memory engine loop: packets go from the benchmark's own
   [Engine.Slab] into [Pipeline.process_slab_batch], the entry point the
   batched socket server uses, one window at a time.  A virtual clock
   advances one millisecond per window, so timer expiries, evictions and
   rejects are fixed by the inputs alone.  Before a window runs, the
   benchmark decides which of its packets must be answered, from the
   reference classes of the stream and its own model of the flow table
   and machine ([Ref_flows]); every reply is checked as it is emitted,
   and every silent packet is accounted for. *)

open Netdsl
module Pipeline = Engine.Pipeline
module Slab = Engine.Slab

(* Reference classes, decided by the benchmark from the allocating
   [Codec.decode] and the spec's verify predicate, never by the engine. *)
let cls_decode_reject = 0
let cls_verify_reject = 1
let cls_step = 2 (* valid, and a machine event: answered iff [Ref_flows] accepts it *)
let cls_pass = 3 (* valid, not a machine event: always answered *)

type stream = {
  length : int;  (** positions before the stream repeats *)
  fill : Bytes.t -> int -> int;
      (** write the packet at a position into a slot; returns its length *)
  cls : int -> int;
  key : int -> int;  (** a [cls_step] position's flow, as a key id below [n_keys] *)
  event : int -> int;  (** a [cls_step] position's event, numbered as [machine]'s *)
  n_keys : int;
  machine : Ref_flows.machine;
  reply_ok : req:Bytes.t -> len:int -> reply:Bytes.t -> rlen:int -> bool;
}

(* Span names, registered once per trace. *)
type spans = { sp_window : int; sp_poll : int; sp_ingest : int; sp_process : int; sp_release : int }

let register_spans tr =
  let sp_window = Spans.register tr "engine.window" in
  {
    sp_window;
    sp_poll = Spans.register ~parent:sp_window tr "pipeline.poll_timers";
    sp_ingest = Spans.register ~parent:sp_window tr "slab.ingest";
    sp_process = Spans.register ~parent:sp_window tr "pipeline.process_slab_batch";
    sp_release = Spans.register ~parent:sp_window tr "slab.release";
  }

type t = {
  stream : stream;
  batch : int;
  slab : Slab.t;
  clock : int ref;
  win_pos : int array;
  expect : bool array;  (** the reference answers the window slot *)
  replied : bool array;
  model : Ref_flows.t;
  mutable win_n : int;
  mutable pipe : Pipeline.t option;
  chk : Outcome.t;
  hist : Hist.t;
  mutable record_rtt : bool;
  mutable plant_wrong : bool;
  mutable pos : int;
  mutable windows : int;
  (* reference tallies of the silent packets *)
  mutable ref_decode : int;
  mutable ref_verify : int;
  mutable ref_step_pkts : int;
  mutable ref_step_rejects : int;
}

let now = Net.Mmsg.now_ns

let create ~stream ~batch ~max_flows =
  {
    stream;
    batch;
    slab = Slab.create ~slot_bytes:Pipeline.default_config.Pipeline.slot_bytes
        ~capacity:Pipeline.default_config.Pipeline.ring_capacity ();
    clock = ref 0;
    win_pos = Array.make batch 0;
    expect = Array.make batch false;
    replied = Array.make batch false;
    model = Ref_flows.create stream.machine ~max_flows ~n_keys:stream.n_keys;
    win_n = 0;
    pipe = None;
    chk = Outcome.create ();
    hist = Hist.create ();
    record_rtt = false;
    plant_wrong = false;
    pos = 0;
    windows = 0;
    ref_decode = 0;
    ref_verify = 0;
    ref_step_pkts = 0;
    ref_step_rejects = 0;
  }

let clock_ms t () = !(t.clock)

(* The pipeline's [on_reply_slot]: [i] is the reply's window slot. *)
let on_reply t i buf len =
  if t.plant_wrong && len > 0 then begin
    t.plant_wrong <- false;
    Bytes.set_uint8 buf (len - 1) (Bytes.get_uint8 buf (len - 1) lxor 1)
  end;
  let c = t.chk in
  if i < 0 || i >= t.win_n || t.replied.(i) then c.Outcome.stray <- c.Outcome.stray + 1
  else begin
    t.replied.(i) <- true;
    if not t.expect.(i) then c.Outcome.unexpected <- c.Outcome.unexpected + 1
    else if
      t.stream.reply_ok ~req:(Slab.buf t.slab i) ~len:(Slab.len t.slab i) ~reply:buf
        ~rlen:len
    then c.Outcome.replies <- c.Outcome.replies + 1
    else c.Outcome.wrong <- c.Outcome.wrong + 1
  end

let attach t pipe = t.pipe <- Some pipe

let pipeline t = match t.pipe with Some p -> p | None -> invalid_arg "Engine_run: no pipeline"

(* Account for the packets of the window that got no reply. *)
let settle t n =
  for j = 0 to n - 1 do
    let cls = t.stream.cls t.win_pos.(j) in
    (* the step stage counts every verified packet, machine event or not *)
    if cls = cls_step || cls = cls_pass then t.ref_step_pkts <- t.ref_step_pkts + 1;
    if not t.replied.(j) then begin
      if t.expect.(j) then t.chk.Outcome.missing <- t.chk.Outcome.missing + 1
      else if cls = cls_decode_reject then t.ref_decode <- t.ref_decode + 1
      else if cls = cls_verify_reject then t.ref_verify <- t.ref_verify + 1
      else t.ref_step_rejects <- t.ref_step_rejects + 1
    end;
    t.replied.(j) <- false
  done

let ingest t =
  let n = Slab.lease_run t.slab ~max:t.batch in
  let base = Slab.producer_slot t.slab in
  let bufs = Slab.raw_bufs t.slab and lens = Slab.raw_lens t.slab in
  let len = t.stream.length in
  for j = 0 to n - 1 do
    let p = (t.pos + j) mod len in
    t.win_pos.(j) <- p;
    lens.(base + j) <- t.stream.fill bufs.(base + j) p
  done;
  Slab.publish_run t.slab ~n;
  let m = Slab.pop_batch t.slab ~max:t.batch in
  if m <> n then invalid_arg "Engine_run: slab popped a different run";
  t.pos <- t.pos + n;
  t.win_n <- n;
  n

(* The reference's verdict on each packet of the window, after the
   timers due at the window's tick have fired. *)
let expect_window t n =
  let now = !(t.clock) in
  Ref_flows.tick t.model ~now;
  let s = t.stream in
  for j = 0 to n - 1 do
    let p = t.win_pos.(j) in
    let cls = s.cls p in
    t.expect.(j) <-
      cls = cls_pass
      || (cls = cls_step && Ref_flows.packet t.model (s.key p) (s.event p) ~now)
  done

(* One window: tick the clock, ingest, take the reference's verdicts,
   poll the wheel, process, settle, release.  The residence time runs
   from the poll to the end of processing.  Returns the packets it
   carried. *)
let window t =
  let p = pipeline t in
  incr t.clock;
  let n = ingest t in
  expect_window t n;
  let t0 = now () in
  ignore (Pipeline.poll_timers p);
  Pipeline.process_slab_batch p t.slab ~n;
  if t.record_rtt then Hist.add_n t.hist (now () - t0) n;
  settle t n;
  Slab.release t.slab;
  t.windows <- t.windows + 1;
  n

(* [window] with a span around each call into the program. *)
let window_traced t tr sp =
  let p = pipeline t in
  let req = t.windows in
  let t0 = now () in
  let w = Spans.open_ tr sp.sp_window ~parent:(-1) ~req ~start:t0 in
  incr t.clock;
  let n = ingest t in
  let t1 = now () in
  Spans.span tr sp.sp_ingest ~parent:w ~req ~start:t0 ~stop:t1;
  expect_window t n;
  let t2 = now () in
  ignore (Pipeline.poll_timers p);
  let t3 = now () in
  Spans.span tr sp.sp_poll ~parent:w ~req ~start:t2 ~stop:t3;
  Pipeline.process_slab_batch p t.slab ~n;
  let t4 = now () in
  Spans.span tr sp.sp_process ~parent:w ~req ~start:t3 ~stop:t4;
  if t.record_rtt then Hist.add_n t.hist (t4 - t2) n;
  settle t n;
  let t5 = now () in
  Slab.release t.slab;
  let t6 = now () in
  Spans.span tr sp.sp_release ~parent:w ~req ~start:t5 ~stop:t6;
  Spans.close tr sp.sp_window w ~start:t0 ~stop:t6;
  t.windows <- t.windows + 1;
  n

(* One window whose first reply carries a flipped byte, plus a reply
   outside any window: both must be counted as failed. *)
let self_test name t =
  t.plant_wrong <- true;
  ignore (window t);
  on_reply t (-1) (Bytes.make 1 '\000') 1;
  Outcome.self_test name t.chk

let sent t = t.pos

(* Engine counters, and whether they balance against the reference:
   packets sent = replies + decode rejects + verify rejects + step
   rejects, each stage's count equal to the reference's.  Timer-driven
   step outcomes (expiries, and expiries the machine refused) are
   counted apart, and they and the evictions must equal the model's. *)
type balance = {
  accepted : int;
  rejects_decode : int;
  rejects_verify : int;
  rejects_step : int;
  timer_expired : int;
  timer_refused : int;
  timer_cascaded : int;
  evicted : int;
  balanced : bool;
}

let balance t =
  let st = Pipeline.stats (pipeline t) in
  let row name = Engine.Stats.stage_index st name in
  let rej name = Engine.Stats.stage_rejects st (row name) in
  let dec = rej "decode" and ver = rej "verify" and step = rej "step" in
  let step_pkts = Engine.Stats.stage_packets st (row "step") in
  let replies_emitted = Engine.Stats.stage_packets st (row "encode") - rej "encode" in
  let expired = Engine.Stats.timers_expired st in
  let refused = step_pkts - t.ref_step_pkts - expired in
  let c = t.chk in
  let answered = c.Outcome.replies + c.Outcome.wrong + c.Outcome.unexpected in
  let model = t.model in
  let evicted = Engine.Stats.evicted_flows st in
  let balanced =
    dec = t.ref_decode && ver = t.ref_verify
    && expired = model.Ref_flows.expired
    && refused = model.Ref_flows.refused
    && evicted = model.Ref_flows.evicted
    && step = t.ref_step_rejects + refused
    && replies_emitted = answered + c.Outcome.stray
    && sent t = answered + c.Outcome.missing + dec + ver + t.ref_step_rejects
  in
  {
    accepted = answered;
    rejects_decode = dec;
    rejects_verify = ver;
    rejects_step = step - refused;
    timer_expired = expired;
    timer_refused = refused;
    timer_cascaded = Engine.Stats.timers_cascaded st;
    evicted;
    balanced;
  }

let balance_to_string b =
  Printf.sprintf
    "accepted=%d rejects_decode=%d rejects_verify=%d rejects_step=%d \
     timer_expired=%d timer_refused=%d timer_cascaded=%d evicted=%d balanced=%b"
    b.accepted b.rejects_decode b.rejects_verify b.rejects_step b.timer_expired
    b.timer_refused b.timer_cascaded b.evicted b.balanced
