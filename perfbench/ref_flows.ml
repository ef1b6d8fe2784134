(* The benchmark's own model of the engine's keyed step stage, written
   from the pipeline's documented behaviour and a hand-written table of
   the machine: an LRU flow table of [max_flows] entries (a flow is
   touched to the most-recent end by each of its events and each of its
   timer expiries; a new flow past [max_flows] evicts the least recent one
   and cancels its timer), one machine instance per flow, and at most one
   timer per flow.  Timers fire between windows, in deadline order and,
   within a deadline, in the order they were armed; re-arming an unchanged
   deadline keeps the timer's place.  Every machine here arms one fixed
   delay, so deadlines are armed in ascending order and a FIFO queue with
   lazy deletion holds them in firing order.

   For each packet the reference classes as a machine event, [packet]
   says whether the machine accepts it; [evicted], [expired] and
   [refused] are the counts the engine must report. *)

type machine = {
  initial : int;
  timer_event : int;
  after : int;  (** the one timer delay, in clock ticks *)
  step : int -> int -> int;  (** [step state event]: next state, or -1 if refused *)
  timer : int -> int -> int;
      (** [timer state event] of an accepted event: 0 no timer op, 1 arm
          [after] ticks ahead, -1 cancel *)
}

(* specs/timeout.ndsl's swt_sender.  State 0 is idle, 1 + a is
   awaiting_ack with a retransmissions made, 4 is failed.  Events: 0 send,
   1 ack, 2 timer.  Every pair the machine declares [ignore] is refused. *)
let swt_sender =
  let step s e =
    match (s, e) with
    | 0, 0 -> 1
    | (1 | 2 | 3), 1 -> 0
    | (1 | 2), 2 -> s + 1
    | 3, 2 -> 4
    | _ -> -1
  in
  let timer s e =
    match (s, e) with
    | 0, 0 -> 1
    | _, 1 -> -1
    | (1 | 2), 2 -> 1
    | _ -> 0
  in
  { initial = 0; timer_event = 2; after = 150; step; timer }

(* specs/arq.ndsl's receiver: one state that takes every recv_ok (0). *)
let receiver =
  { initial = 0; timer_event = -1; after = 1;
    step = (fun _ e -> if e = 0 then 0 else -1);
    timer = (fun _ _ -> 0) }

type t = {
  m : machine;
  max_flows : int;
  live : Bytes.t;
  state : int array;
  prev : int array;  (** LRU list through key ids; index [sentinel] is its head *)
  next : int array;
  sentinel : int;
  deadline : int array;  (** -1: no timer *)
  armed_seq : int array;
  mutable n : int;
  mutable seq : int;
  (* the timer queue, a ring of (key, seq, deadline) *)
  mutable qk : int array;
  mutable qs : int array;
  mutable qd : int array;
  mutable qhead : int;
  mutable qlen : int;
  mutable evicted : int;
  mutable expired : int;
  mutable refused : int;
}

let create m ~max_flows ~n_keys =
  let q = 1024 in
  {
    m;
    max_flows;
    live = Bytes.make n_keys '\000';
    state = Array.make n_keys 0;
    prev = Array.make (n_keys + 1) n_keys;
    next = Array.make (n_keys + 1) n_keys;
    sentinel = n_keys;
    deadline = Array.make n_keys (-1);
    armed_seq = Array.make n_keys 0;
    n = 0;
    seq = 0;
    qk = Array.make q 0;
    qs = Array.make q 0;
    qd = Array.make q 0;
    qhead = 0;
    qlen = 0;
    evicted = 0;
    expired = 0;
    refused = 0;
  }

let unlink t k =
  t.next.(t.prev.(k)) <- t.next.(k);
  t.prev.(t.next.(k)) <- t.prev.(k)

let push_recent t k =
  let s = t.sentinel in
  let last = t.prev.(s) in
  t.next.(last) <- k;
  t.prev.(k) <- last;
  t.next.(k) <- s;
  t.prev.(s) <- k

let enqueue t k =
  let cap = Array.length t.qk in
  if t.qlen = cap then begin
    let grow a = Array.init (2 * cap) (fun i -> if i < cap then a.((t.qhead + i) mod cap) else 0) in
    t.qk <- grow t.qk;
    t.qs <- grow t.qs;
    t.qd <- grow t.qd;
    t.qhead <- 0
  end;
  let i = (t.qhead + t.qlen) mod Array.length t.qk in
  t.qk.(i) <- k;
  t.qs.(i) <- t.armed_seq.(k);
  t.qd.(i) <- t.deadline.(k);
  t.qlen <- t.qlen + 1

let arm t k ~now =
  let d = now + t.m.after in
  if t.deadline.(k) <> d then begin
    t.deadline.(k) <- d;
    t.armed_seq.(k) <- t.seq;
    t.seq <- t.seq + 1;
    enqueue t k
  end

(* Apply an accepted event's timer op; [now] is the tick it fired at. *)
let apply t k s e ~now =
  t.state.(k) <- t.m.step s e;
  match t.m.timer s e with
  | 1 -> arm t k ~now
  | -1 -> t.deadline.(k) <- -1
  | _ -> ()

(* The flow [k], touched to the most-recent end, created (evicting the
   least recent flow if the table is full) when absent. *)
let touch t k =
  if Bytes.get t.live k = '\001' then unlink t k
  else begin
    if t.n >= t.max_flows then begin
      let victim = t.next.(t.sentinel) in
      unlink t victim;
      Bytes.set t.live victim '\000';
      t.deadline.(victim) <- -1;
      t.evicted <- t.evicted + 1
    end
    else t.n <- t.n + 1;
    Bytes.set t.live k '\001';
    t.state.(k) <- t.m.initial;
    t.deadline.(k) <- -1
  end;
  push_recent t k

(* Fire every timer due at or before [now]. *)
let tick t ~now =
  while t.qlen > 0 && t.qd.(t.qhead) <= now do
    let k = t.qk.(t.qhead) and s = t.qs.(t.qhead) and d = t.qd.(t.qhead) in
    t.qhead <- (t.qhead + 1) mod Array.length t.qk;
    t.qlen <- t.qlen - 1;
    if t.deadline.(k) = d && t.armed_seq.(k) = s then begin
      t.deadline.(k) <- -1;
      t.expired <- t.expired + 1;
      unlink t k;
      push_recent t k;
      let st = t.state.(k) in
      if t.m.step st t.m.timer_event < 0 then t.refused <- t.refused + 1
      else apply t k st t.m.timer_event ~now:d
    end
  done

(* Event [e] on flow [k] at tick [now]: whether the machine accepts it. *)
let packet t k e ~now =
  touch t k;
  let s = t.state.(k) in
  if t.m.step s e < 0 then false
  else begin
    apply t k s e ~now;
    true
  end
